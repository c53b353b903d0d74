"""Integer lattice computations: Hermite/Smith reduction, membership,
kernels, and invariant factors of finite quotients.

Lattices are column lattices: a list of integer column vectors of a fixed
length generates the subgroup of Z^n of their integer combinations.
:func:`quotient_invariants` takes integer input only: the chart groups
of ``groups`` pass their images' numerators over one common denominator
D, in every degree.  Its Smith form runs modulo D on those numerators
alone (:func:`smith_diagonal`), so no entry ever exceeds D.
"""

from __future__ import annotations

import math
from typing import Sequence


def _reduce_row(work: list[list[int]], row: int) -> list[int] | None:
    """Unimodular column operations on ``work`` (in place) until at most
    one column is nonzero in ``row``: every other column is reduced modulo
    the one of smallest absolute entry there, until one is left.  Returns
    that column, or None when the row is zero."""
    while True:
        cand = [c for c in work if c[row] != 0]
        if len(cand) <= 1:
            return cand[0] if cand else None
        cand.sort(key=lambda c: abs(c[row]))
        small = cand[0]
        for c in cand[1:]:
            q = c[row] // small[row]
            for r in range(len(c)):
                c[r] -= q * small[r]


def _echelon(cols: list[list[int]], nrows: int) -> tuple[list[list[int]], list[list[int]]]:
    """Column echelon form of the first ``nrows`` rows of the columns.

    Returns (pivots, rest): row by row, the one column left nonzero there
    leaves as a pivot, with its entry there made positive, and zero
    columns are dropped.  Only unimodular column operations are used, so
    the pivots and the rest generate the lattice of the columns, and every
    column of the rest is zero on the first ``nrows`` rows.
    """
    work = [list(c) for c in cols]
    pivots: list[list[int]] = []
    for row in range(nrows):
        work = [c for c in work if any(x != 0 for x in c)]
        pivot = _reduce_row(work, row)
        if pivot is None:
            continue
        if pivot[row] < 0:
            for r in range(len(pivot)):
                pivot[r] = -pivot[r]
        work.remove(pivot)
        pivots.append(pivot)
    return pivots, work


def column_echelon(cols: list[list[int]]) -> list[list[int]]:
    """Basis of the column lattice, in echelon form (pivots descend).

    Only unimodular column operations are used, so the returned columns
    generate exactly the same lattice.
    """
    return _echelon(cols, len(cols[0]))[0] if cols else []


def in_echelon_lattice(basis: list[list[int]], target: Sequence[int]) -> bool:
    """Exact membership of target in the lattice of a ``column_echelon``
    basis."""
    t = list(target)
    n = len(t)
    for b in basis:
        row = next(r for r in range(n) if b[r] != 0)
        if t[row] % b[row] != 0:
            return False
        q = t[row] // b[row]
        for r in range(n):
            t[r] -= q * b[r]
    return all(x == 0 for x in t)


def integer_kernel(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of {c in Z^ncols : M c = 0} for the integer matrix M.

    Column-reduces the stacked matrix [M; I] on the rows of M: the columns
    left over vanish on M, and their I-part is a kernel basis.
    """
    m = len(rows)
    stacked = []
    for j in range(ncols):
        col = [rows[i][j] for i in range(m)] + [1 if r == j else 0 for r in range(ncols)]
        stacked.append(col)
    return [c[m:] for c in _echelon(stacked, m)[1]]


def smith_diagonal(rows: list[list[int]], modulus: int) -> list[int]:
    """Smith diagonal d_1 | ... | d_m of the m x (m+k) matrix
    [modulus*I | rows], for modulus > 0: every d_i divides modulus.

    The column lattice contains modulus*Z^m, so adding a multiple of
    modulus*e_i to a column is a unimodular column operation, and row
    operations keep that block's lattice.  The elimination therefore runs
    on the m x k block alone with every entry kept in [0, modulus); a
    diagonal entry s of that block gives gcd(s, modulus), and a row with
    no pivot gives modulus (Domich, Kannan & Trotter 1987; Cohen 1993,
    section 2.4).
    """
    mat = [[x % modulus for x in row] for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        # the first entry of least value in the remaining block
        best, least = None, modulus
        for i in range(top, m):
            row = mat[i]
            for j in range(top, n):
                v = row[j]
                if v and v < least:
                    best, least = (i, j), v
            if least == 1:
                break
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        if bj != top:
            for row in mat[top:]:
                row[top], row[bj] = row[bj], row[top]
        # clear the pivot's column, then its row; a remainder leaves a
        # smaller entry, which the next pass pivots on
        pivot_row = mat[top]
        dirty = False
        for i in range(top + 1, m):
            q, r = divmod(mat[i][top], least)
            if q:
                mat[i] = [(x - q * y) % modulus
                          for x, y in zip(mat[i], pivot_row)]
            dirty = dirty or r != 0
        if dirty:
            continue
        # the pivot's column is now least * e_top: clearing the row takes
        # each entry modulo least
        for j in range(top + 1, n):
            pivot_row[j] %= least
            dirty = dirty or pivot_row[j] != 0
        if dirty:
            continue
        diag.append(math.gcd(least, modulus))
        top += 1
    diag += [modulus] * (m - len(diag))
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = math.gcd(diag[i], diag[j])
                    l = diag[i] * diag[j] // g
                    diag[i], diag[j] = g, l
                    changed = True
    return diag


def quotient_invariants(columns: Sequence[Sequence[int]], n: int,
                        denom: int) -> tuple[int, list[int]]:
    """Order and invariant factors of (Z^n + sum Z*v) / Z^n for the images
    v = c / denom of the integer columns c.

    A factor common to denom and every numerator is divided out first, and
    D is |denom| after that.  D*(Z^n + sum Z*v) is the column lattice of
    the n x (n+k) matrix [D*I | c], whose Smith diagonal d_1 | ... | d_n
    :func:`smith_diagonal` computes on c modulo D.  The quotient is the sum
    of the cyclic groups Z/(D/d_i), so its invariant factors are the D/d_i,
    sorted.  Returns (order, nontrivial invariant factors).
    """
    if not columns:
        return 1, []
    # a common factor of denom and every numerator leaves the quotient alone
    common = math.gcd(denom, *(x for v in columns for x in v))
    size = abs(denom) // common
    diag = smith_diagonal([[v[r] // common for v in columns] for r in range(n)],
                          size)
    factors = sorted(size // d for d in diag)
    order = 1
    for f in factors:
        order *= f
    return order, [f for f in factors if f > 1]
