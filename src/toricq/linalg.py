"""Exact dense linear algebra over a number field.

The public functions take and return vectors (lists/tuples) of
:class:`FieldScalar`; matrices are lists of row vectors.  Everything is
Gaussian elimination with exact zero tests, sized for desk-scale problems
(dimensions in the tens).

The elimination kernels, :func:`_rref` and :func:`pivot`, compute on raw
entries: the plain ``Fraction`` value of each scalar when the field has
degree 1, the ``FieldScalar`` itself otherwise.  Over Q that skips the
coercion, the coefficient tuple and the fresh wrapper of each
``FieldScalar`` operation.  :func:`raw` and :func:`wrapped` convert at the
boundary, and :func:`arithmetic` gives the zero test, inverse and sign of a
field's raw entries, picked once per kernel call.  The public functions
here, ``polytope.cone_rays`` and the link data in ``strata`` unwrap their
input and wrap only what they return; :func:`dot` does the same for
vectors over a field of degree 1.  The chart search in ``groups`` pivots
with :func:`pivot` over fields of degree >= 2 and on an integer tableau
of its own over Q.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from .field import FieldScalar, NumberField


class Arithmetic(NamedTuple):
    """The zero test, inverse and sign of one kind of raw entry."""

    is_zero: Callable
    inverse: Callable
    sign: Callable


_RATIONAL = Arithmetic(operator.not_, Fraction(1).__truediv__,
                      lambda q: (q > 0) - (q < 0))
# looked up on each call, so a patched FieldScalar method is the one run
_SCALAR = Arithmetic(FieldScalar.is_zero, operator.methodcaller("inverse"),
                    operator.methodcaller("sign"))


def arithmetic(field: NumberField) -> Arithmetic:
    return _RATIONAL if field.degree == 1 else _SCALAR


def _arithmetic_of(entry) -> Arithmetic:
    """The arithmetic of a raw entry's field: a Fraction is degree 1."""
    return _RATIONAL if type(entry) is Fraction else _SCALAR


def raw(field: NumberField, entries) -> list:
    """The kernels' entries for the given scalars of ``field``."""
    if field.degree == 1:
        return [s.coeffs[0] for s in entries]
    return list(entries)


def wrapped(field: NumberField, entries) -> list[FieldScalar]:
    """The scalars of ``field`` for the given raw entries."""
    if field.degree == 1:
        return [FieldScalar(field, (q,)) for q in entries]
    return list(entries)


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
    """<a, b>; degree-1 scalars are summed on their raw values and wrapped
    once, other entries (raw ones too) are summed as they are."""
    first = a[0]
    if type(first) is FieldScalar and first.field.degree == 1:
        field = first.field
        return FieldScalar(field, (dot(raw(field, a), raw(field, b)),))
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def mat_vec(rows, v):
    return [dot(r, v) for r in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def _rref(rows, ncols):
    """Row-reduce raw rows (on a copy); returns (reduced rows, pivot cols,
    pivot values).

    The pivot values are the entries divided by, each negated when a row
    swap brought it into place, so for a square nonsingular matrix their
    product is the determinant.
    """
    work = [list(r) for r in rows]
    pivots = []
    values = []
    if not work or not ncols:
        return work, pivots, values
    is_zero = _arithmetic_of(work[0][0]).is_zero
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if not is_zero(work[i][c]):
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
    """The raw rows after one Gauss-Jordan step on the nonzero entry
    (r, c): row r scaled to 1 there, column c cleared from every other row.
    In a simplex tableau this is the basis exchange that makes column c the
    pivot of row r."""
    is_zero, inverse, _ = _arithmetic_of(rows[r][c])
    inv = inverse(rows[r][c])
    support = [k for k, y in enumerate(rows[r]) if not is_zero(y)]
    top = list(rows[r])
    for k in support:
        top[k] = inv * top[k]
    out = []
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and not is_zero(f):
            row = list(row)
            for k in support:
                row[k] = row[k] - f * top[k]
        out.append(top if i == r else row)
    return out


def rank(rows, ncols: int) -> int:
    if not rows or not ncols:
        return 0
    field = rows[0][0].field
    return len(_rref([raw(field, r) for r in rows], ncols)[1])


def nullspace(rows, ncols: int, field: NumberField):
    """Basis of {x : A x = 0} for A given by rows, in reduced echelon form."""
    red, pivots, _ = _rref([raw(field, r) for r in rows], ncols)
    return _reduced_nullspace(red, pivots, ncols, field)


def _reduced_nullspace(red, pivots, ncols: int, field: NumberField):
    """The nullspace basis of ``nullspace``, read off raw rows already
    reduced by ``_rref`` and their pivot columns: one vector per free
    column."""
    zero, one = raw(field, [field.zero(), field.one()])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(wrapped(field, v))
    return basis


def solve(rows, b, ncols: int, field: NumberField):
    """One solution of A x = b (free variables set to zero), or None."""
    aug = [raw(field, list(r) + [bb]) for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, ncols)
    is_zero = arithmetic(field).is_zero
    # inconsistent iff a pivot lands in the augmented column
    for row in red:
        if all(is_zero(row[c]) for c in range(ncols)) and not is_zero(row[ncols]):
            return None
    x = raw(field, [field.zero()]) * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return wrapped(field, x)


def solve_unique(rows, b, field: NumberField):
    """Solution of a square nonsingular system, or None if singular."""
    n = len(rows)
    aug = [raw(field, list(r) + [bb]) for r, bb in zip(rows, b)]
    red, pivots, _ = _rref(aug, n)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return wrapped(field, [red[i][n] for i in range(n)])


def in_span(vectors, v, ncols: int, field: NumberField):
    """Coordinates of v in the span of the given vectors, or None."""
    if not vectors:
        return [] if all(x.is_zero() for x in v) else None
    rows = transpose(list(vectors))  # ncols x len(vectors)
    return solve(rows, list(v), len(vectors), field)


def det(rows, field: NumberField) -> FieldScalar:
    """Determinant of a square matrix: the signed pivot product of its
    elimination."""
    _, pivots, values = _rref([raw(field, r) for r in rows], len(rows))
    if len(pivots) < len(rows):
        return field.zero()
    result = field.one()
    for v in wrapped(field, values):
        result = result * v
    return result
