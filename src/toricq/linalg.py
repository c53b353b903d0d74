"""Exact dense linear algebra over a number field.

Vectors are lists/tuples of :class:`FieldScalar`; matrices are lists of row
vectors.  Everything is Gaussian elimination with exact zero tests, sized
for desk-scale problems (dimensions in the tens).
"""

from __future__ import annotations

from .field import FieldScalar, NumberField


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
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def mat_vec(rows, v):
    return [dot(r, v) for r in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def _rref(rows, ncols):
    """Row-reduce (on a copy); returns (reduced rows, pivot cols, pivot
    values).

    The pivot values are the entries divided by, each negated when a row
    swap brought it into place, so for a square nonsingular matrix their
    product is the determinant.
    """
    work = [list(r) for r in rows]
    pivots = []
    values = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        value = work[pivot_row][c]
        values.append(value if pivot_row == r else -value)
        work[r], work[pivot_row] = work[pivot_row], work[r]
        work = pivot(work, r, c)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots, values


def pivot(rows, r, c):
    """The rows after one Gauss-Jordan step on the nonzero entry (r, c):
    row r scaled to 1 there, column c cleared from every other row.  In a
    simplex tableau this is the basis exchange that makes column c the
    pivot of row r."""
    inv = rows[r][c].inverse()
    support = [k for k, y in enumerate(rows[r]) if not y.is_zero()]
    top = list(rows[r])
    for k in support:
        top[k] = inv * top[k]
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and not f.is_zero():
            row = list(row)
            for k in support:
                row[k] = row[k] - f * top[k]
        out.append(top if i == r else row)
    return out


def rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    return len(_rref(rows, ncols)[1])


def nullspace(rows, ncols: int, field: NumberField):
    """Basis of {x : A x = 0} for A given by rows, in reduced echelon form."""
    red, pivots, _ = _rref(rows, ncols)
    return _reduced_nullspace(red, pivots, ncols, field)


def _reduced_nullspace(red, pivots, ncols: int, field: NumberField):
    """The nullspace basis of ``nullspace``, read off rows already reduced
    by ``_rref`` and their pivot columns: one vector per free column."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(rows, b, ncols: int, field: NumberField):
    """One solution of A x = b (free variables set to zero), or None."""
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, ncols)
    # inconsistent iff a pivot lands in the augmented column
    for row in red:
        if all(row[c].is_zero() for c in range(ncols)) and not row[ncols].is_zero():
            return None
    x = [field.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def solve_unique(rows, b, field: NumberField):
    """Solution of a square nonsingular system, or None if singular."""
    n = len(rows)
    aug = [list(r) + [bb] for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, n)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return [red[i][n] for i in range(n)]


def in_span(vectors, v, ncols: int, field: NumberField):
    """Coordinates of v in the span of the given vectors, or None."""
    if not vectors:
        return [] if all(x.is_zero() for x in v) else None
    rows = transpose(list(vectors))  # ncols x len(vectors)
    return solve(rows, list(v), len(vectors), field)


def det(rows, field: NumberField) -> FieldScalar:
    """Determinant of a square matrix: the signed pivot product of its
    elimination."""
    _, pivots, values = _rref(rows, len(rows))
    if len(pivots) < len(rows):
        return field.zero()
    result = field.one()
    for v in values:
        result = result * v
    return result
