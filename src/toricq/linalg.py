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
        pivot = work[pivot_row][c]
        values.append(pivot if pivot_row == r else -pivot)
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = pivot.inverse()
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and not work[i][c].is_zero():
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots, values


def rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    return len(_rref(rows, ncols)[1])


def nullspace(rows, ncols: int, field: NumberField):
    """Basis of {x : A x = 0} for A given by rows, in reduced echelon form."""
    if not rows:
        return [[field.one() if i == j else field.zero() for i in range(ncols)]
                for j in range(ncols)]
    red, pivots, _ = _rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
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
