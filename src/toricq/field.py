"""Exact arithmetic over a declared real number field.

A :class:`NumberField` is Q(t) for one real root t of an irreducible
integer polynomial, pinned down by a rational isolating interval.  Elements
(:class:`FieldScalar`) are coefficient vectors with respect to the power
basis 1, t, ..., t^(k-1); all ring operations are exact, and an inverse
solves one linear system with the matrix of multiplication by the scalar.
``sign``, ``floor`` and ``shadow`` share one enclosure loop, which bisects
the root interval until the caller's test on the scalar's interval value
holds.  :meth:`FieldScalar.shadow` gives the correctly rounded float, which
does not depend on that refinement, and a rigorous error bound.

Building a field counts the real roots in the interval with a Sturm
sequence over ``Fraction`` and certifies irreducibility in house, in every
degree, by the factor degrees of the polynomial modulo small primes (Cohen
1993, §3.4).  Only a polynomial with no certificate (a reducible one, or an
irreducible one that splits modulo every prime, like x^4 - 10x^2 + 1)
imports sympy to decide.

In every degree k, Q (k = 1) included, a scalar is one integer numerator
vector over one positive common denominator, in lowest terms (Cohen 1993,
§4.2).  Sums are integer operations; a product is an integer convolution
reduced by an integer power table (t^m for m >= k, over one denominator,
so a non-monic minimal polynomial needs no ``Fraction``); an inverse
solves its system by the fraction-free exchanges of ``linalg``, and a
rational scalar's inverse is read off its numerator.  A scalar whose
numerators past the first are zero is rational, and its sign, floor and
float are read off the first numerator and the denominator without any
refinement.  Otherwise the enclosure evaluates the numerators by Horner's
rule on the root interval written as integers over a common denominator,
the same interval value that the ``Fraction`` coefficients would give, so
every test and every bisection is as it would be on them.  Scalars enter
only through ``NumberField.scalar`` and ``from_rational``; ``coeffs`` reads
them as ``Fraction`` values, uncached; a rational scalar hashes as its value.
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


def _rational(x) -> tuple[int, int]:
    """(num, den) in lowest terms of an int, a Fraction or a rational string."""
    if type(x) is int:
        return x, 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Dense polynomials: coefficient lists, constant term first, no trailing
# zeros; over Q (Fraction entries, p = 0) or over the prime field F_p.

def _strip(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p: int = 0) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero b."""
    a = _strip(list(a))
    inv = pow(b[-1], -1, p) if p else 1 / Fraction(b[-1])
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p if p else a[-1] * inv
        s = len(a) - len(b)
        q[s] = c
        for i, bi in enumerate(b):
            a[s + i] = (a[s + i] - c * bi) % p if p else a[s + i] - c * bi
        _strip(a)
    return q, a


def _poly_gcd(a, b, p: int) -> list:
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_mulmod(a, b, f, p: int) -> list:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_divmod([c % p for c in prod], f, p)[1]


def _poly_powmod(a, e: int, f, p: int) -> list:
    """a**e modulo f over F_p."""
    result = [1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, f, p)
        a = _poly_mulmod(a, a, f, p)
        e >>= 1
    return result


def _factor_degrees_mod(coeffs: Sequence[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors of the polynomial modulo p, by
    distinct-degree factorisation; None when p divides the leading
    coefficient or the discriminant (the reduction is not squarefree)."""
    f = _strip([c % p for c in coeffs])
    if len(f) < len(coeffs):
        return None
    derivative = _strip([i * c % p for i, c in enumerate(f)][1:])
    if len(_poly_gcd(f, derivative, p)) > 1:
        return None
    degrees, d, h = [], 0, [0, 1]  # h = x^(p^d) mod f
    while 2 * (d + 1) < len(f):
        d += 1
        h = _poly_powmod(h, p, f, p)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _poly_gcd(f, _strip(h_minus_x), p)
        if len(g) > 1:
            # g is the product of the factors of degree d
            degrees += [d] * ((len(g) - 1) // d)
            f = _poly_divmod(f, g, p)[0]
            h = _poly_divmod(h, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


_CERTIFICATE_PRIMES = tuple(p for p in range(2, 200)
                            if all(p % q for q in range(2, math.isqrt(p) + 1)))


def _irreducible_mod_primes(coeffs: Sequence[int]) -> bool:
    """True when the polynomial is irreducible over Q by its factor degrees
    modulo the certificate primes: a factor of degree d over Q makes d a
    sum of factor degrees modulo every prime that is not skipped, so no
    such d may remain.  False means no certificate, not reducible."""
    possible = set(range(1, len(coeffs) - 1))
    for p in _CERTIFICATE_PRIMES:
        degrees = _factor_degrees_mod(coeffs, p)
        if degrees is not None:
            sums = {0}
            for d in degrees:
                sums |= {s + d for s in sums}
            possible &= sums
            if not possible:
                return True
    return False


def _is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q, from the certificate by factor degrees
    modulo small primes when there is one.  Without one (a reducible
    polynomial never has one), sympy decides."""
    if _irreducible_mod_primes(coeffs):
        return True
    import sympy

    x = sympy.Symbol("x")
    return bool(sympy.Poly(list(reversed(coeffs)), x, domain="QQ").is_irreducible)


def _count_real_roots(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi), neither of them a root, from the
    Sturm sequence f, f', -rem(f, f'), ... of the polynomial."""
    seq = [list(coeffs), [i * c for i, c in enumerate(coeffs)][1:]]
    while True:
        rem = _poly_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append([-c for c in rem])

    def sign_changes(x: Fraction) -> int:
        signs = [v > 0 for v in (_poly_eval(g, x) for g in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


def _float_up(x: Fraction) -> float:
    """Smallest float >= x (x nonnegative)."""
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


def _convolve(a, b) -> list[int]:
    """Coefficients of the product of two polynomials, given by their
    integer coefficients (constant term first)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return prod


class NumberField:
    """A real number field Q(t), t the unique root in ``root_interval``."""

    __slots__ = ("minpoly", "degree", "root_interval", "irreducibility_checked",
                 "_iv", "_iv_int", "_table", "_table_den", "_fp", "_lo_positive")

    def __init__(self, minpoly: Sequence[int], root_interval=None, *,
                 check_irreducible: bool = True):
        coeffs = [int(c) for c in minpoly]
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise FieldDefinitionError(
                "minimal polynomial needs degree >= 1 and nonzero leading coefficient")
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self._fp = tuple(Fraction(c) for c in coeffs)

        if self.degree == 1:
            root = Fraction(-coeffs[0], coeffs[1])
            if root_interval is None:
                root_interval = (root, root)
            lo, hi = Fraction(root_interval[0]), Fraction(root_interval[1])
            if not (lo <= root <= hi):
                raise FieldDefinitionError("isolating interval misses the rational root")
            self.root_interval = (root, root)
            self.irreducibility_checked = True
            self._lo_positive = False
        else:
            if root_interval is None:
                raise FieldDefinitionError("degree >= 2 requires an isolating interval")
            lo, hi = Fraction(root_interval[0]), Fraction(root_interval[1])
            if lo >= hi:
                raise FieldDefinitionError("isolating interval must have positive width")
            f_lo, f_hi = _poly_eval(self._fp, lo), _poly_eval(self._fp, hi)
            if f_lo == 0 or f_hi == 0:
                raise FieldDefinitionError(
                    "rational endpoint is a root: polynomial is reducible")
            if (f_lo > 0) == (f_hi > 0):
                raise FieldDefinitionError("no sign change on the isolating interval")
            self._lo_positive = f_lo > 0
            if _count_real_roots(self._fp, lo, hi) != 1:
                raise FieldDefinitionError("interval does not isolate a single real root")
            self.root_interval = (lo, hi)
            if check_irreducible and not _is_irreducible(self.minpoly):
                raise FieldDefinitionError("minimal polynomial is reducible over Q")
            self.irreducibility_checked = bool(check_irreducible)

        self._set_interval(*self.root_interval)
        self._table, self._table_den = self._build_power_table()

    def _build_power_table(self):
        """Integer rows R_m and one positive integer L with
        t^m = (sum_i R_m[i] t^i) / L, for m = degree .. 2*degree-2."""
        k = self.degree
        monic = [Fraction(c, self.minpoly[-1]) for c in self.minpoly[:-1]]
        # t^k = -sum_i monic_i t^i
        cur = [-c for c in monic]
        rows = [cur]
        for _ in range(k - 2):
            overflow = cur[-1]
            cur = [(cur[i - 1] if i else 0) - overflow * monic[i] for i in range(k)]
            rows.append(cur)
        scale = math.lcm(*(c.denominator for row in rows for c in row))
        return tuple(tuple(int(c * scale) for c in row) for row in rows), scale

    def _set_interval(self, lo: Fraction, hi: Fraction):
        """Keeps the root interval as Fractions and as integers (a, b, q)
        with lo = a/q and hi = b/q, which the enclosures read."""
        self._iv = (lo, hi)
        q = math.lcm(lo.denominator, hi.denominator)
        self._iv_int = (lo.numerator * (q // lo.denominator),
                        hi.numerator * (q // hi.denominator), q)

    # The isolating interval only ever shrinks.  Exact answers and shadow
    # floats do not depend on how far it has been refined; shadow error
    # bounds may tighten with it.
    def _refine(self):
        lo, hi = self._iv
        if lo == hi:
            return
        mid = (lo + hi) / 2
        vm = _poly_eval(self._fp, mid)
        if vm == 0:
            raise FieldDefinitionError(
                "rational root hit during refinement: polynomial is reducible")
        # the minimal polynomial keeps the sign it has at lo on [lo, root)
        if (vm > 0) == self._lo_positive:
            self._set_interval(mid, hi)
        else:
            self._set_interval(lo, mid)

    def _element(self, num, den: int) -> "FieldScalar":
        """The scalar (sum_i num[i] t^i) / den, for integers num[i] with
        i <= 2*degree - 2 and den > 0: the powers t^m with m >= degree are
        reduced by the power table, then the form by one gcd."""
        k = self.degree
        high = num[k:]
        num = num[:k]
        if any(high):
            if self._table_den != 1:
                num = [x * self._table_den for x in num]
                den *= self._table_den
            for c, row in zip(high, self._table):
                if c:
                    for i in range(k):
                        num[i] += c * row[i]
        return _reduced(self, tuple(num), den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def rationals(cls) -> "NumberField":
        """The degree-1 field: plain rational arithmetic."""
        return cls([0, 1])

    def scalar(self, coeffs) -> "FieldScalar":
        # each part is in lowest terms, so the form over their lcm is too
        parts = [_rational(c) for c in coeffs]
        if len(parts) != self.degree:
            raise FieldDefinitionError(
                f"expected {self.degree} coefficients, got {len(parts)}")
        den = math.lcm(*(d for _, d in parts))
        return _make(self, tuple(n * (den // d) for n, d in parts), den)

    def from_rational(self, q) -> "FieldScalar":
        num, den = _rational(q)
        return _make(self, (num,) + (0,) * (self.degree - 1), den)

    def generator(self) -> "FieldScalar":
        if self.degree == 1:
            return self.from_rational(Fraction(-self.minpoly[0], self.minpoly[1]))
        return _make(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def zero(self) -> "FieldScalar":
        return _make(self, (0,) * self.degree, 1)

    def one(self) -> "FieldScalar":
        return _make(self, (1,) + (0,) * (self.degree - 1), 1)

    # -- equality -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.root_interval == other.root_interval)

    def __hash__(self):
        return hash((self.minpoly, self.root_interval))

    def __repr__(self):
        return f"NumberField(minpoly={list(self.minpoly)}, root~{float(self.root_interval[0]):.6g})"


def _make(field: NumberField, num: tuple[int, ...], den: int) -> "FieldScalar":
    """The scalar num/den, already in lowest terms."""
    s = object.__new__(FieldScalar)
    s.field, s.num, s.den = field, num, den
    return s


def _reduced(field: NumberField, num: tuple[int, ...], den: int) -> "FieldScalar":
    """The scalar num/den (den > 0), brought to lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple(x // g for x in num)
            den //= g
    return _make(field, num, den)


def _check_field(field: NumberField, other: NumberField) -> None:
    """Refuses a scalar of ``other`` where one of ``field`` is expected; an
    equal field that is another object is the same field."""
    if other is not field and other != field:
        raise ValueError("scalars from different fields")


class FieldScalar:
    """An element of a :class:`NumberField`, exact and immutable.

    The arithmetic runs on ``num``, the integer numerators of the
    power-basis coordinates, over ``den``, their one positive denominator,
    with gcd(den, *num) = 1, so that equal values have equal forms.
    Build one with ``NumberField.scalar`` or ``from_rational``.  ``coeffs``
    reads the coordinates as Fractions, uncached.  A rational scalar hashes
    as the ``int`` or ``Fraction`` it equals, any other on (minpoly, num, den)."""

    __slots__ = ("field", "num", "den")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is irrational")
        return Fraction(self.num[0], self.den)

    # -- ring operations ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            _check_field(self.field, other.field)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _reduced(self.field,
                            tuple(a + b for a, b in zip(self.num, o.num)), da)
        return _reduced(self.field,
                        tuple(a * db + b * da for a, b in zip(self.num, o.num)),
                        da * db)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _reduced(self.field,
                            tuple(a - b for a, b in zip(self.num, o.num)), da)
        return _reduced(self.field,
                        tuple(a * db - b * da for a, b in zip(self.num, o.num)),
                        da * db)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._element(_convolve(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        if self.is_zero():
            raise ZeroDivisionError("field scalar inverse of zero")
        field, num = self.field, self.num
        if not any(num[1:]):
            sign = 1 if num[0] > 0 else -1
            return _make(field, (sign * self.den,) + num[1:], abs(num[0]))
        # x = self^-1 solves M x = e_1, M the matrix of multiplication by
        # self on the power basis: its column j is self * t^j.  On the
        # integer columns cols[j].num = cols[j].den * self * t^j it is
        # N z = e_1 with x_j = cols[j].den * z_j, solved by fraction-free
        # Gauss-Jordan exchanges: at the end every pivot is the last one,
        # D, and the right-hand side is D * z.
        from .linalg import exchange  # linalg imports this module

        k = field.degree
        cols, t = [self], field.generator()
        while len(cols) < k:
            cols.append(cols[-1] * t)
        rows = [[col.num[i] for col in cols] + [int(i == 0)] for i in range(k)]
        denom = 1
        for c in range(k):
            p = next((r for r in range(c, k) if rows[r][c]), None)
            if p is None:
                raise FieldDefinitionError(
                    "gcd with minimal polynomial is nontrivial: polynomial is reducible")
            rows[c], rows[p] = rows[p], rows[c]
            rows, denom = exchange(rows, denom, c, c)
        sign = 1 if denom > 0 else -1
        return _reduced(field, tuple(sign * col.den * row[k]
                                     for col, row in zip(cols, rows)), abs(denom))

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
        num = self.num
        if not any(num[1:]):
            return (num[0] > 0) - (num[0] < 0)
        lo, _, _ = self._enclose(
            lambda lo, hi, scale: lo > 0 or hi < 0,
            "sign refinement did not separate from zero: "
            "the declared minimal polynomial is likely reducible")
        return 1 if lo > 0 else -1

    def _enclose(self, done, message: str) -> tuple[int, int, int]:
        """Integers (lo, hi, scale) with the value in [lo/scale, hi/scale],
        refined until done(lo, hi, scale).  Horner's rule runs on the
        numerators over the root interval [a/q, b/q], its step m scaled by
        q^m, so lo/scale and hi/scale are the ends of the interval Horner
        evaluation of ``coeffs`` on [a/q, b/q]."""
        field, num = self.field, self.num
        lower = num[-2::-1]
        for _ in range(BISECTION_CAP):
            a, b, q = field._iv_int
            lo = hi = num[-1]
            power = 1
            for c in lower:
                power *= q
                p = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(p) + c * power, max(p) + c * power
            scale = power * self.den
            if done(lo, hi, scale):
                return lo, hi, scale
            field._refine()
        from decimal import Decimal
        raise FieldDefinitionError(
            f"{message} (scalar {[str(c) for c in self.coeffs]}, value "
            f"interval width {Decimal(hi - lo) / Decimal(scale):.3e} after "
            f"{BISECTION_CAP} bisections)")

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            if self.field is not other.field and self.field != other.field:
                return False
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.num[0] == other * self.den
        return NotImplemented

    def __hash__(self):
        num, den = self.num, self.den
        if not any(num[1:]):
            return hash(num[0]) if den == 1 else hash(Fraction(num[0], den))
        return hash((self.field.minpoly, num, den))

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
            return self.num[0] // self.den
        # an irrational value is never an integer: refine until the
        # enclosure lies strictly between two
        lo, _, scale = self._enclose(
            lambda lo, hi, scale: lo % scale != 0 and hi < (lo // scale + 1) * scale,
            "floor refinement failed")
        return lo // scale

    def frac_part(self) -> "FieldScalar":
        """self - floor(self), in [0, 1)."""
        num, den = self.num, self.den
        return _make(self.field, (num[0] - self.floor() * den,) + num[1:], den)

    def shadow(self, precision: int = 53) -> tuple[float, float]:
        """The correctly rounded float of the exact value, with a rigorous
        error bound: |returned - exact| <= returned bound, and the bound
        target scales as 2**-precision.
        """
        if precision < 24:
            raise ValueError("precision must be at least 24 bits")
        if self.is_rational():
            v = self.as_fraction()
            f = float(v)
            return f, _float_up(abs(v - Fraction(f)))
        # once both ends round to the same float, so does every point
        # between; hi - lo <= 2**-precision * max(2, |lo + hi|), times scale
        lo, hi, scale = self._enclose(
            lambda lo, hi, scale: ((hi - lo) << precision <= max(2 * scale, abs(lo + hi))
                                   and lo / scale == hi / scale),
            "shadow refinement exceeded bisection cap")
        f = lo / scale
        return f, _float_up(max(Fraction(f) - Fraction(lo, scale),
                                Fraction(hi, scale) - Fraction(f)))

    def __float__(self):
        """The float of :meth:`shadow`, without computing its error bound."""
        return self.num[0] / self.den if self.is_rational() else self.shadow(53)[0]

    def __repr__(self):
        if self.is_rational():
            return f"FieldScalar({self.as_fraction()})"
        return f"FieldScalar({list(self.coeffs)})"
