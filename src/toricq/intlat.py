"""Integer lattice computations: Hermite/Smith reduction, membership,
kernels, and invariant factors of finite quotients.

Lattices are column lattices: a list of integer column vectors of a fixed
length generates the subgroup of Z^n of their integer combinations.
:func:`quotient_invariants` takes integer input only: the chart groups
over Q come from the integer chart tableau of ``groups`` as they are, and
the scalar chart path of a field of degree >= 2 clears its denominators
first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def clear_denominators(vectors: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """Common denominator D and the integer vectors D*v."""
    denom = 1
    for v in vectors:
        for x in v:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    cleared = [[int(x * denom) for x in v] for v in vectors]
    return denom, cleared


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


def column_echelon(cols: list[list[int]]) -> list[list[int]]:
    """Basis of the column lattice, in echelon form (pivots descend).

    Only unimodular column operations are used, so the returned columns
    generate exactly the same lattice.
    """
    if not cols:
        return []
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis: list[list[int]] = []
    for row in range(n):
        work = [c for c in work if any(x != 0 for x in c)]
        pivot = _reduce_row(work, row)
        if pivot is None:
            continue
        if pivot[row] < 0:
            for r in range(n):
                pivot[r] = -pivot[r]
        work.remove(pivot)
        basis.append(pivot)
    return basis


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

    Column-reduces the stacked matrix [M; I]: columns whose M-part vanishes
    carry kernel vectors in their I-part.
    """
    m = len(rows)
    stacked = []
    for j in range(ncols):
        col = [rows[i][j] for i in range(m)] + [1 if r == j else 0 for r in range(ncols)]
        stacked.append(col)
    work = [list(c) for c in stacked]
    # eliminate the top m rows with unimodular column ops
    for row in range(m):
        pivot = _reduce_row(work, row)
        if pivot is not None:
            work.remove(pivot)  # pivot column leaves the kernel pool
    kernel = []
    for c in work:
        if all(c[r] == 0 for r in range(m)):
            kernel.append(c[m:])
    return kernel


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form (nonnegative, divisibility chain)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag: list[int] = []
    top = 0
    while top < min(m, n):
        # find smallest nonzero entry in the remaining block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = abs(mat[i][j])
                if v != 0 and (best is None or v < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        dirty = False
        for i in range(top + 1, m):
            if mat[i][top] % mat[top][top] != 0:
                dirty = True
            q = mat[i][top] // mat[top][top]
            if q:
                for j in range(top, n):
                    mat[i][j] -= q * mat[top][j]
        for j in range(top + 1, n):
            if mat[top][j] % mat[top][top] != 0:
                dirty = True
            q = mat[top][j] // mat[top][top]
            if q:
                for i in range(top, m):
                    mat[i][j] -= q * mat[i][top]
        if dirty or any(mat[i][top] != 0 for i in range(top + 1, m)) \
                or any(mat[top][j] != 0 for j in range(top + 1, n)):
            continue
        diag.append(abs(mat[top][top]))
        top += 1
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

    denom*(Z^n + sum Z*v) is the column lattice of the n x (n+k) matrix
    [denom*I | c].  If the Smith diagonal of that matrix is d_1 | ... | d_n,
    the quotient is the sum of the cyclic groups Z/(denom/d_i), so its
    invariant factors are the denom/d_i, sorted.
    Returns (order, nontrivial invariant factors).
    """
    if not columns:
        return 1, []
    rows = [[denom if c == r else 0 for c in range(n)] + [v[r] for v in columns]
            for r in range(n)]
    diag = smith_diagonal(rows)
    if len(diag) != n:
        raise ValueError("quotient lattice is not full rank")
    if any(denom % d for d in diag):
        raise ValueError("sublattice coordinates are not integral")
    factors = sorted(denom // d for d in diag)
    order = 1
    for f in factors:
        order *= f
    return order, [f for f in factors if f > 1]
