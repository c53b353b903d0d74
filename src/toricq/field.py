"""Exact arithmetic over a declared real number field.

A :class:`NumberField` is Q(t) for one real root t of an irreducible
integer polynomial, pinned down by a rational isolating interval.  Elements
(:class:`FieldScalar`) are coefficient vectors with respect to the power
basis 1, t, ..., t^(k-1); all ring operations are exact, comparisons are
decided by refining the root interval, and :meth:`FieldScalar.shadow`
produces a float together with a rigorous error bound.

Degree 1 collapses to plain rational arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import FieldDefinitionError

# Bisections allowed before concluding the field definition is broken.
# Exceeding the cap is an error, never a guess: a nonzero element of a
# genuine field always separates from zero after finitely many steps.
BISECTION_CAP = 4096

RationalLike = int | Fraction | str


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


# Closed rational intervals, as (lo, hi) pairs of Fractions.

def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def _iv_eval(coeffs: Sequence[Fraction], iv) -> tuple[Fraction, Fraction]:
    """Horner evaluation of a polynomial on an interval."""
    acc = (coeffs[-1], coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = _iv_add(_iv_mul(acc, iv), (c, c))
    return acc


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _float_up(x: Fraction) -> float:
    """Smallest float >= x (x nonnegative)."""
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


class NumberField:
    """A real number field Q(t), t the unique root in ``root_interval``."""

    __slots__ = ("minpoly", "degree", "root_interval", "irreducibility_checked",
                 "_iv", "_monic", "_power_table", "_gen_sign")

    def __init__(self, minpoly: Sequence[int], root_interval=None, *,
                 check_irreducible: bool = True):
        coeffs = [int(c) for c in minpoly]
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise FieldDefinitionError(
                "minimal polynomial needs degree >= 1 and nonzero leading coefficient")
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1

        if self.degree == 1:
            root = Fraction(-coeffs[0], coeffs[1])
            if root_interval is None:
                root_interval = (root, root)
            lo, hi = _frac(root_interval[0]), _frac(root_interval[1])
            if not (lo <= root <= hi):
                raise FieldDefinitionError("isolating interval misses the rational root")
            self.root_interval = (root, root)
            self.irreducibility_checked = True
        else:
            if root_interval is None:
                raise FieldDefinitionError("degree >= 2 requires an isolating interval")
            lo, hi = _frac(root_interval[0]), _frac(root_interval[1])
            if lo >= hi:
                raise FieldDefinitionError("isolating interval must have positive width")
            fp = [Fraction(c) for c in coeffs]
            if _poly_eval(fp, lo) == 0 or _poly_eval(fp, hi) == 0:
                raise FieldDefinitionError(
                    "rational endpoint is a root: polynomial is reducible")
            if (_poly_eval(fp, lo) > 0) == (_poly_eval(fp, hi) > 0):
                raise FieldDefinitionError("no sign change on the isolating interval")
            if self._count_real_roots(lo, hi) != 1:
                raise FieldDefinitionError("interval does not isolate a single real root")
            self.root_interval = (lo, hi)
            if check_irreducible:
                if not self._sympy_irreducible():
                    raise FieldDefinitionError("minimal polynomial is reducible over Q")
                self.irreducibility_checked = True
            else:
                self.irreducibility_checked = False

        self._iv = self.root_interval
        lead = Fraction(coeffs[-1])
        self._monic = tuple(Fraction(c) / lead for c in coeffs[:-1])
        self._power_table = self._build_power_table()

    def _sympy_irreducible(self) -> bool:
        import sympy

        x = sympy.Symbol("x")
        poly = sympy.Poly(list(reversed(self.minpoly)), x, domain="QQ")
        return bool(poly.is_irreducible)

    def _count_real_roots(self, lo: Fraction, hi: Fraction) -> int:
        import sympy

        x = sympy.Symbol("x")
        poly = sympy.Poly(list(reversed(self.minpoly)), x, domain="QQ")
        return int(poly.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                    sympy.Rational(hi.numerator, hi.denominator)))

    def _build_power_table(self):
        """Coefficient vectors of t^k for k = degree .. 2*degree-2."""
        k = self.degree
        table = []
        # t^k = -sum_i monic_i t^i
        cur = [-c for c in self._monic]
        table.append(tuple(cur))
        for _ in range(k - 2):
            shifted = [Fraction(0)] + cur[:-1]
            overflow = cur[-1]
            cur = [shifted[i] - overflow * self._monic[i] for i in range(k)]
            table.append(tuple(cur))
        return tuple(table)

    # The isolating interval only ever shrinks; replacing it is a cache
    # update, observable values never change.
    def _refine(self):
        lo, hi = self._iv
        if lo == hi:
            return self._iv
        mid = (lo + hi) / 2
        fp = [Fraction(c) for c in self.minpoly]
        vm = _poly_eval(fp, mid)
        if vm == 0:
            raise FieldDefinitionError(
                "rational root hit during refinement: polynomial is reducible")
        if (vm > 0) == (_poly_eval(fp, lo) > 0):
            self._iv = (mid, hi)
        else:
            self._iv = (lo, mid)
        return self._iv

    # -- constructors ---------------------------------------------------

    @classmethod
    def rationals(cls) -> "NumberField":
        """The degree-1 field: plain rational arithmetic."""
        return cls([0, 1])

    def scalar(self, coeffs) -> "FieldScalar":
        cs = [_frac(c) for c in coeffs]
        if len(cs) != self.degree:
            raise FieldDefinitionError(
                f"expected {self.degree} coefficients, got {len(cs)}")
        return FieldScalar(self, tuple(cs))

    def from_rational(self, q: RationalLike) -> "FieldScalar":
        cs = [Fraction(0)] * self.degree
        cs[0] = _frac(q)
        return FieldScalar(self, tuple(cs))

    def generator(self) -> "FieldScalar":
        if self.degree == 1:
            return self.from_rational(Fraction(-self.minpoly[0], self.minpoly[1]))
        cs = [Fraction(0)] * self.degree
        cs[1] = Fraction(1)
        return FieldScalar(self, tuple(cs))

    def zero(self) -> "FieldScalar":
        return self.from_rational(0)

    def one(self) -> "FieldScalar":
        return self.from_rational(1)

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.root_interval == other.root_interval)

    def __hash__(self):
        return hash((self.minpoly, self.root_interval))

    def __repr__(self):
        return f"NumberField(minpoly={list(self.minpoly)}, root~{float(self.root_interval[0]):.6g})"


class FieldScalar:
    """An element of a :class:`NumberField`, exact and immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is irrational")
        return self.coeffs[0]

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field != self.field:
                raise ValueError("scalars from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.field,
                           tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldScalar(self.field,
                           tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        k = self.field.degree
        prod = [Fraction(0)] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    prod[i + j] += a * b
        out = list(prod[:k])
        table = self.field._power_table
        for m in range(k, 2 * k - 1):
            c = prod[m]
            if c != 0:
                row = table[m - k]
                for i in range(k):
                    out[i] += c * row[i]
        return FieldScalar(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        if self.is_zero():
            raise ZeroDivisionError("field scalar inverse of zero")
        if self.is_rational():
            return self.field.from_rational(1 / self.coeffs[0])
        # extended Euclid in Q[x] against the monic minimal polynomial
        k = self.field.degree
        modulus = list(self.field._monic) + [Fraction(1)]
        a = list(self.coeffs)
        r0, r1 = modulus, _poly_trim(a)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1 or r1[0] != 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        g = r0
        if len(g) != 1 or g[0] == 0:
            raise FieldDefinitionError(
                "gcd with minimal polynomial is nontrivial: polynomial is reducible")
        inv = [c / g[0] for c in s0]
        inv = (inv + [Fraction(0)] * k)[:k]
        return FieldScalar(self.field, tuple(inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons ----------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, by root-interval refinement."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return 1 if self.coeffs[0] > 0 else -1
        field = self.field
        iv = field._iv
        for _ in range(BISECTION_CAP):
            lo, hi = _iv_eval(self.coeffs, iv)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            iv = field._refine()
        raise FieldDefinitionError(
            "sign refinement did not separate from zero: "
            "the declared minimal polynomial is likely reducible")

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.minpoly, self.coeffs))

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    # -- floats ---------------------------------------------------------

    def floor(self) -> int:
        """Exact floor."""
        if self.is_rational():
            return math.floor(self.coeffs[0])
        field = self.field
        iv = field._iv
        for _ in range(BISECTION_CAP):
            lo, hi = _iv_eval(self.coeffs, iv)
            if hi - lo < 1:
                break
            iv = field._refine()
        lo, hi = _iv_eval(self.coeffs, field._iv)
        for k in range(math.floor(lo), math.floor(hi) + 1):
            if (self - k).sign() >= 0 and (self - (k + 1)).sign() < 0:
                return k
        raise FieldDefinitionError("floor refinement failed")

    def frac_part(self) -> "FieldScalar":
        """self - floor(self), in [0, 1)."""
        return self - self.floor()

    def shadow(self, precision: int = 53) -> tuple[float, float]:
        """Float approximation with a rigorous error bound.

        Guarantees |returned - exact| <= returned bound; the bound target
        scales as 2**-precision.
        """
        if precision < 24:
            raise ValueError("precision must be at least 24 bits")
        if self.is_rational():
            v = self.coeffs[0]
            f = float(v)
            return f, _float_up(abs(v - Fraction(f)))
        field = self.field
        target = Fraction(1, 2 ** precision)
        for _ in range(BISECTION_CAP):
            lo, hi = _iv_eval(self.coeffs, field._iv)
            mid = (lo + hi) / 2
            half = (hi - lo) / 2
            scale = max(Fraction(1), abs(mid))
            if half <= target * scale:
                break
            field._refine()
        else:
            raise FieldDefinitionError("shadow refinement exceeded bisection cap")
        f = float(mid)
        return f, _float_up(half + abs(mid - Fraction(f)))

    def __float__(self):
        return self.shadow(53)[0]

    def __repr__(self):
        if self.is_rational():
            return f"FieldScalar({self.coeffs[0]})"
        return f"FieldScalar({list(self.coeffs)})"


# Dense polynomial helpers over Fraction, little-endian coefficient lists.

def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and not (len(r) == 1 and r[0] == 0):
        c = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = c
        for i in range(len(b)):
            r[d + i] -= c * b[i]
        r = _poly_trim(r)
    return _poly_trim(q), _poly_trim(r)
