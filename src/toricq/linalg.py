"""Exact dense linear algebra over a number field.

The public functions take and return vectors (lists/tuples) of
:class:`FieldScalar`; matrices are lists of row vectors.  Everything is
Gaussian elimination with exact zero tests, sized for desk-scale problems
(dimensions in the tens).

Every exact elimination runs on one basis-exchange driver:
:func:`first_basis` picks the pivots of a first basis and :func:`exchange`
makes each one basic; :func:`_rref` and the chart search in ``groups`` both
call them.  They compute on raw entries.  Over a field of degree >= 2 the
raw entry is the ``FieldScalar`` itself, whose arithmetic runs on integer
numerators over one denominator (see ``field``), and an exchange is the
Gauss-Jordan step.  Over Q it is the plain ``Fraction`` value of each
scalar: the rows are scaled to integers once, every exchange is
fraction-free (Bareiss 1968), and :func:`over` divides the tableau by its
one denominator at the end.  :func:`raw` and :func:`wrapped` convert at the
boundary, and :func:`arithmetic` gives the zero test, inverse and sign of a
field's raw entries.  The public functions here, ``polytope.cone_rays`` and
the link data in ``strata`` unwrap their input and wrap only what they
return; :func:`dot` does the same for vectors over a field of degree 1,
and over a larger field sums the numerators of all products before it
normalises once.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

from .field import FieldScalar, NumberField, _convolve


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


def raw(field: NumberField, entries) -> list:
    """The kernels' entries for the given scalars of ``field``."""
    if field.degree == 1:
        return [s._coeffs[0] for s in entries]
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
    """<a, b>.  Degree-1 scalars are summed on their raw values and wrapped
    once; scalars of a larger field by :func:`_scalar_dot`; other entries
    (raw ones too) are summed as they are."""
    first = a[0]
    if type(first) is FieldScalar:
        field = first.field
        if field.degree == 1:
            return FieldScalar(field, (dot(raw(field, a), raw(field, b)),))
        out = _scalar_dot(field, a, b)
        if out is not None:
            return out
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def _scalar_dot(field: NumberField, a, b) -> FieldScalar | None:
    """<a, b> for scalars of a field of degree >= 2 in one pass: the
    numerators of each product are convolved and summed over the product of
    the denominators, then reduced and normalised once.  None when an entry
    is not a scalar of ``field`` itself."""
    acc, den = None, 1
    for x, y in zip(a, b):
        if (type(x) is not FieldScalar or type(y) is not FieldScalar
                or x.field is not field or y.field is not field):
            return None
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


def first_basis(rows, ncols: int):
    """A first pivot basis of raw rows among the columns < ncols, each pivot
    on the first nonzero entry at or below the next pivot row, swapped into
    place and exchanged.  Rational rows are first scaled to integers by the
    lcm of all their denominators, which keeps every solution, so every
    exchange is fraction-free; scalar rows are exchanged as they are.  The
    input rows are left as they are.

    Returns (tableau, denominator, basis, values): a pivot row of the
    tableau over the denominator is the reduced row, and value k is the
    k-th pivot of the elimination on the given rows, negated when a row
    swap brought it into place, so for a square nonsingular matrix the
    values' product is the determinant."""
    rational = type(rows[0][0]) is Fraction
    scale, tableau = 1, rows
    if rational:
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        tableau = [[x.numerator * (scale // x.denominator) for x in row]
                   for row in rows]
    is_zero = operator.not_ if rational else FieldScalar.is_zero
    denom, basis, values = 1, [], []
    for c in range(ncols):
        r = len(basis)
        i = next((i for i in range(r, len(tableau))
                  if not is_zero(tableau[i][c])), None)
        if i is None:
            continue
        value = Fraction(tableau[i][c], denom * scale) if rational else tableau[i][c]
        values.append(value if i == r else -value)
        tableau = list(tableau)
        tableau[r], tableau[i] = tableau[i], tableau[r]
        tableau, denom = exchange(tableau, denom, r, c)
        basis.append(c)
        if len(basis) == len(tableau):
            break
    return tableau, denom, basis, values


def over(rows, denom) -> list:
    """The raw rows that a tableau's rows over its denominator stand for:
    integer entries as Fractions, scalar ones (denominator 1) as they
    are."""
    if type(rows[0][0]) is int:
        return [[Fraction(x, denom) for x in row] for row in rows]
    return rows


def _rref(rows, ncols):
    """Row-reduce raw rows by :func:`first_basis`; returns (reduced rows,
    pivot cols, pivot values).

    The pivot values are the entries divided by, each negated when a row
    swap brought it into place, so for a square nonsingular matrix their
    product is the determinant.  Over Q a row below the rank comes out
    times the rows' integer scale; only its zero pattern is meaningful.
    """
    if not rows or not ncols:
        return [list(r) for r in rows], [], []
    tableau, denom, pivots, values = first_basis(rows, ncols)
    return over(tableau, denom), pivots, values


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
