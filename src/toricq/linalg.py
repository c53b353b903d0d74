"""Exact dense linear algebra over a number field.

The public functions take and return vectors (lists/tuples) of
:class:`FieldScalar`; matrices are lists of row vectors.  Everything is
Gaussian elimination with exact zero tests, sized for desk-scale problems
(dimensions in the tens).

Every exact elimination runs on one basis-exchange driver:
:func:`first_basis` picks the pivots of a first basis and :func:`exchange`
makes each one basic; :func:`_rref` and the chart search in ``groups`` both
call them on rows of scalars.  Over a field of degree >= 2 the tableau
holds the scalars themselves, whose arithmetic runs on integer numerators
over one denominator (see ``field``), and an exchange is the Gauss-Jordan
step.  Over Q the rows are scaled once to integers from each scalar's
numerator and denominator, every exchange is fraction-free (Bareiss 1968),
and :func:`over` turns the columns a caller reads of the integer tableau
over its one denominator back into scalars; :func:`nullspace` converts
only the entries it reads, and :func:`rank` and :func:`det` read only the
pivots and convert nothing.  :func:`dot` sums the numerators of all
products in one pass and normalises once, in every degree.
"""

from __future__ import annotations

import math
import operator

from .field import FieldScalar, NumberField, _check_field, _convolve, _reduced


def vec(field: NumberField, entries) -> list[FieldScalar]:
    return [e if isinstance(e, FieldScalar) else field.from_rational(e)
            for e in entries]


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def vec_scale(c, a):
    return [c * x for x in a]


def identity(n: int, field: NumberField):
    """The n x n identity matrix, whose rows are the standard basis."""
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def barycenter(vectors, field: NumberField):
    """The exact average of a nonempty list of vectors."""
    acc = list(vectors[0])
    for v in vectors[1:]:
        acc = vec_add(acc, v)
    return vec_scale(field.one() / len(vectors), acc)


def dot(a, b) -> FieldScalar:
    """<a, b> in one pass: the numerators of each product are convolved and
    summed over the product of the denominators, then reduced and
    normalised once.  A scalar from another field is refused."""
    field = a[0].field
    acc, den = None, 1
    for x, y in zip(a, b):
        if x.field is not field or y.field is not field:
            _check_field(field, x.field)
            _check_field(field, y.field)
        xn, yn = x.num, y.num
        if not (any(xn) and any(yn)):
            continue
        prod, d = _convolve(xn, yn), x.den * y.den
        if acc is None:
            acc, den = prod, d
        elif d == den:
            acc = [u + v for u, v in zip(acc, prod)]
        else:
            acc = [u * d + v * den for u, v in zip(acc, prod)]
            den *= d
    return field.zero() if acc is None else field._element(acc, den)


def mat_vec(rows, v):
    return [dot(r, v) for r in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def exchange(tableau, denom, r, c):
    """The tableau after the basis exchange on its nonzero entry (r, c),
    which makes column c the pivot of row r, and its new denominator.

    On an integer tableau the exchange is fraction-free, as in lrs (Avis
    2000): row r is kept, every other row i becomes
    (T_i T_rc - T_ic T_r) / denom, and T_rc is the new denominator.  Every
    entry is a minor of the scaled rows, so each division is exact (Bareiss
    1968).  On scalars it is the Gauss-Jordan step: row r scaled to 1 at c,
    column c cleared from every other row, and the denominator stays 1."""
    top = tableau[r]
    new = top[c]
    out = []
    if type(new) is int:
        for i, row in enumerate(tableau):
            f = row[c]
            if i == r or (not f and new == denom):
                out.append(row)
            elif f:
                out.append([(x * new - f * t) // denom for x, t in zip(row, top)])
            else:
                out.append([x * new // denom for x in row])
        return out, new
    inv = new.inverse()
    support = [k for k, y in enumerate(top) if not y.is_zero()]
    top = list(top)
    for k in support:
        top[k] = inv * top[k]
    for i, row in enumerate(tableau):
        f = row[c]
        if i != r and not f.is_zero():
            row = list(row)
            for k in support:
                row[k] = row[k] - f * top[k]
        out.append(top if i == r else row)
    return out, denom


def _ratio(field: NumberField, x: int, d: int) -> FieldScalar:
    """The scalar x/d of the field Q, for integers x and d != 0."""
    return _reduced(field, (x,), d) if d > 0 else _reduced(field, (-x,), -d)


def first_basis(rows, ncols: int):
    """A first pivot basis of rows of scalars among the columns < ncols,
    each pivot on the first nonzero entry at or below the next pivot row,
    swapped into place and exchanged.  A scalar from another field is
    refused.  Rows over Q are first scaled to integers by the lcm of all
    their denominators, which keeps every solution, so every exchange is
    fraction-free; over a larger field the scalar rows are exchanged as
    they are.  The input rows are left as they are.

    Returns (tableau, denominator, basis, values): a pivot row of the
    tableau over the denominator is the reduced row, and value k is the
    k-th pivot of the elimination on the given rows as a scalar, negated
    when a row swap brought it into place, so for a square nonsingular
    matrix the values' product is the determinant."""
    field = rows[0][0].field
    for row in rows:
        for x in row:
            if x.field is not field:
                _check_field(field, x.field)
    rational = field.degree == 1
    scale, tableau = 1, rows
    if rational:
        scale = math.lcm(*(x.den for row in rows for x in row))
        tableau = [[x.num[0] * (scale // x.den) for x in row] for row in rows]
    is_zero = operator.not_ if rational else FieldScalar.is_zero
    denom, basis, values = 1, [], []
    for c in range(ncols):
        r = len(basis)
        i = next((i for i in range(r, len(tableau))
                  if not is_zero(tableau[i][c])), None)
        if i is None:
            continue
        value = tableau[i][c]
        if rational:
            value = _ratio(field, value, denom * scale)
        values.append(value if i == r else -value)
        tableau = list(tableau)
        tableau[r], tableau[i] = tableau[i], tableau[r]
        tableau, denom = exchange(tableau, denom, r, c)
        basis.append(c)
        if len(basis) == len(tableau):
            break
    return tableau, denom, basis, values


def over(field: NumberField, rows, denom, start: int = 0) -> list:
    """The columns from ``start`` on of the rows of scalars that a
    tableau's rows over its denominator stand for: integer entries divided
    by it, scalar ones (denominator 1) as they are.  Only those columns are
    converted."""
    if type(rows[0][0]) is int:
        return [[_ratio(field, x, denom) for x in row[start:]] for row in rows]
    return [row[start:] for row in rows] if start else rows


def _rref(rows, ncols, start: int = 0):
    """Row-reduce rows of scalars by :func:`first_basis`; returns (the
    columns from ``start`` on of the reduced rows, pivot cols, pivot
    values).  A caller names the first column it reads, and only the
    columns from there on are turned back into scalars.

    The pivot values are the entries divided by, each negated when a row
    swap brought it into place, so for a square nonsingular matrix their
    product is the determinant.  Over Q a row below the rank comes out
    times the rows' integer scale; only its zero pattern is meaningful.
    """
    if not rows or not ncols:
        return [list(r[start:]) for r in rows], [], []
    tableau, denom, pivots, values = first_basis(rows, ncols)
    return over(rows[0][0].field, tableau, denom, start), pivots, values


def rank(rows, ncols: int) -> int:
    # the pivots alone; no entry is turned back into a scalar
    return len(first_basis(rows, ncols)[2]) if rows and ncols else 0


def nullspace(rows, ncols: int, field: NumberField):
    """Basis of {x : A x = 0} for A given by rows, in reduced echelon form.
    It is read off the tableau of :func:`first_basis`, and only the entries
    it reads, the free columns of the pivot rows, are turned into scalars."""
    if not rows or not ncols:
        return _reduced_nullspace([], [], ncols, field)
    tableau, denom, pivots, _ = first_basis(rows, ncols)
    return _reduced_nullspace(tableau, pivots, ncols, field, denom)


def _reduced_nullspace(red, pivots, ncols: int, field: NumberField, denom=1):
    """The nullspace basis of ``nullspace``, read off reduced rows and
    their pivot columns: one vector per free column.  The rows are scalars
    (as ``_rref`` returns them) or a tableau of :func:`first_basis` over its
    denominator, whose integer entries are divided by it as they are read."""
    zero, one = field.zero(), field.one()
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            x = -red[r][fc]
            v[pc] = _ratio(field, x, denom) if type(x) is int else x
        basis.append(v)
    return basis


def solve(rows, b, ncols: int, field: NumberField):
    """One solution of A x = b (free variables set to zero), or None."""
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, ncols, ncols)
    # inconsistent iff a row below the rank, zero on the first ncols
    # columns, is nonzero in the augmented one
    if any(not row[0].is_zero() for row in red[len(pivots):]):
        return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][0]
    return x


def solve_unique(rows, b, field: NumberField):
    """Solution of a square nonsingular system, or None if singular."""
    n = len(rows)
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, n, n)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return [red[i][0] for i in range(n)]


def in_span(vectors, v, ncols: int, field: NumberField):
    """Coordinates of v in the span of the given vectors, or None."""
    if not vectors:
        return [] if all(x.is_zero() for x in v) else None
    rows = transpose(list(vectors))  # ncols x len(vectors)
    return solve(rows, list(v), len(vectors), field)


def det(rows, field: NumberField) -> FieldScalar:
    """Determinant of a square matrix: the signed pivot product of its
    elimination, read off :func:`first_basis` without converting its
    tableau."""
    if not rows:
        return field.one()
    _, _, pivots, values = first_basis(rows, len(rows))
    if len(pivots) < len(rows):
        return field.zero()
    result = field.one()
    for v in values:
        result = result * v
    return result
