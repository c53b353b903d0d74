"""Field arithmetic beyond the quadratic cases the fixtures use."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from toricq import linalg
from toricq.errors import FieldDefinitionError
from toricq.field import (NumberField, _count_real_roots, _irreducible_mod_primes,
                          _is_irreducible)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def q_cbrt2():
    # x^3 - 2, real root 2^(1/3) ~ 1.2599
    return NumberField([-2, 0, 0, 1], (Fraction(5, 4), Fraction(13, 10)))


@pytest.fixture(scope="module")
def q_inv_sqrt2():
    # 2x^2 - 1: non-monic, root 1/sqrt2 ~ 0.7071
    return NumberField([-1, 0, 2], (Fraction(7, 10), Fraction(71, 100)))


@pytest.fixture(scope="module")
def q_neg_sqrt2():
    # x^2 - 2 but isolating the negative root
    return NumberField([-2, 0, 1], (Fraction(-142, 100), Fraction(-141, 100)))


def test_cubic_power_reduction(q_cbrt2):
    t = q_cbrt2.generator()
    assert t * t * t == q_cbrt2.from_rational(2)
    assert (t ** 6) == q_cbrt2.from_rational(4)
    # t^4 = 2t, exercising the precomputed power table
    assert t ** 4 == 2 * t


def test_cubic_sign_and_floor(q_cbrt2):
    t = q_cbrt2.generator()
    assert (t - 1).sign() == 1
    assert (t * t - 2).sign() == -1  # 2^(2/3) < 2
    assert t.floor() == 1
    assert (t * t).floor() == 1
    assert (t ** 3).floor() == 2


def test_cubic_inverse(q_cbrt2):
    t = q_cbrt2.generator()
    s = t * t - t + 3
    assert s * s.inverse() == q_cbrt2.one()
    # 1/t = t^2 / 2
    assert t.inverse() == t * t / 2


def test_cubic_field_axioms_random(q_cbrt2):
    rng = random.Random(2024)
    for _ in range(15):
        a, b, c = (q_cbrt2.scalar([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                   for _ in range(3)]) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_non_monic_minimal_polynomial(q_inv_sqrt2):
    t = q_inv_sqrt2.generator()
    assert t * t == q_inv_sqrt2.from_rational(Fraction(1, 2))
    assert (t - Fraction(7, 10)).sign() == 1
    assert (t - Fraction(3, 4)).sign() == -1
    v, err = t.shadow(60)
    assert abs(v - 0.5 ** 0.5) <= err + 1e-15


def test_negative_root_branch(q_neg_sqrt2):
    t = q_neg_sqrt2.generator()  # -sqrt2
    assert t.sign() == -1
    assert t * t == q_neg_sqrt2.from_rational(2)
    assert t.floor() == -2
    assert (-t).floor() == 1
    v, _ = t.shadow()
    assert v == pytest.approx(-(2 ** 0.5))


def test_same_polynomial_different_roots_are_different_fields(q_neg_sqrt2):
    pos = NumberField([-2, 0, 1], (Fraction(141, 100), Fraction(142, 100)))
    assert pos != q_neg_sqrt2
    with pytest.raises(ValueError):
        pos.generator() + q_neg_sqrt2.generator()


@pytest.mark.parametrize("minpoly, interval, samples", [
    ([-2, 0, 1], (1, 2), 40),           # sqrt2
    ([-2, 0, 0, 1], (1, 2), 25),        # 2^(1/3)
    ([1, 0, -10, 0, 1], (3, 4), 12),    # sqrt2 + sqrt3
    ([-1, 0, 2], (0, 1), 40),           # 1/sqrt2, non-monic
    ([-3, 0, 0, 2], (1, 2), 25),        # (3/2)^(1/3), non-monic
])
def test_floor_sign_inverse_match_sympy(minpoly, interval, samples):
    """floor and sign against sympy's exact real root of the interval, on
    seeded elements of a fresh field (coarse interval, so every answer has
    to refine it), and s * s^-1 = 1."""
    field = NumberField(minpoly, interval)
    x = sympy.Symbol("x")
    lo, hi = interval
    root, = [r for r in sympy.Poly(list(reversed(minpoly)), x).real_roots()
             if lo < r < hi]
    rng = random.Random(sum(minpoly) + samples)
    for i in range(samples):
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                  for _ in range(field.degree)]
        if i % 4 == 0:
            # pull the value to within about 1e-3 of an integer
            approx = sum(c * float(root) ** j for j, c in enumerate(coeffs))
            coeffs[0] += round(approx) - Fraction(approx).limit_denominator(1000)
        s = field.scalar(coeffs)
        exact = sum(sympy.Rational(c.numerator, c.denominator) * root ** j
                    for j, c in enumerate(coeffs))
        assert s.floor() == int(sympy.floor(exact))
        assert s.sign() == int(sympy.sign(exact))
        if not s.is_zero():
            assert s * s.inverse() == field.one()


@pytest.mark.parametrize("minpoly, interval", [
    ([-2, 0, 1], (1, 2)), ([-3, 0, 0, 2], (1, 2)), ([1, 0, -10, 0, 1], (3, 4)),
])
def test_inverse_runs_on_the_shared_exchange(minpoly, interval, monkeypatch):
    """An irrational scalar's inverse makes one ``linalg.exchange`` per
    degree of the field, the fraction-free step of every exact
    elimination."""
    field = NumberField(minpoly, interval)
    calls = [0]
    real = linalg.exchange

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(linalg, "exchange", counted)
    s = field.scalar([Fraction(3, 4)]
                     + [Fraction(-5, 2 + j) for j in range(1, field.degree)])
    assert s * s.inverse() == field.one()
    assert calls[0] == field.degree


def test_inverse_of_zero_divisor_is_a_field_error():
    # x^2 - 4 = (x - 2)(x + 2): t - 2 divides zero, so it has no inverse
    f = NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(21, 10)),
                    check_irreducible=False)
    with pytest.raises(FieldDefinitionError, match="gcd with minimal polynomial"):
        f.scalar([-2, 1]).inverse()


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _seeded_polynomials(seed, count):
    """Integer polynomials of degree 2-6, constant term first: random ones,
    products of two factors and ones with a repeated factor."""
    rng = random.Random(seed)

    def factor(lo, hi):
        return ([rng.randint(-6, 6) for _ in range(rng.randint(lo, hi))]
                + [rng.choice([1, 1, 2, -3])])

    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            c = factor(2, 6)
        elif kind == 1:
            c = _poly_mul(factor(1, 3), factor(1, 3))
        else:
            a = factor(1, 2)
            c = _poly_mul(_poly_mul(a, a), factor(0, 2))
        if 2 <= len(c) - 1 <= 6:
            out.append(c)
    return out


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), domain="QQ")


def test_sturm_count_matches_sympy_count_roots():
    rng = random.Random(31)
    checked = 0
    for coeffs in _seeded_polynomials(7, 240):
        poly = _sympy_poly(coeffs)
        for _ in range(3):
            lo = Fraction(rng.randint(-30, 30), rng.randint(1, 6))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 6))
            ends = [sympy.Rational(e.numerator, e.denominator) for e in (lo, hi)]
            if any(poly.eval(e) == 0 for e in ends):
                continue  # field construction rejects a rational endpoint root first
            fp = [Fraction(c) for c in coeffs]
            assert _count_real_roots(fp, lo, hi) == poly.count_roots(*ends), (coeffs, lo, hi)
            checked += 1
    assert checked > 600


def test_irreducibility_certificate_is_never_wrong():
    certified = 0
    # two cubics with large coefficients: 3x^3 + x + 10^15 + 37
    # and (x - 10^7)(x^2 + 1)
    large = [[10 ** 15 + 37, 1, 0, 3], [-10 ** 7, 1, -10 ** 7, 1]]
    for coeffs in _seeded_polynomials(11, 300) + large:
        irreducible = _sympy_poly(coeffs).is_irreducible
        certificate = _irreducible_mod_primes(coeffs)
        assert not (certificate and not irreducible), coeffs
        certified += certificate
        assert _is_irreducible(coeffs) == irreducible, coeffs
    assert certified > 50


def test_polynomial_split_modulo_every_prime_reaches_the_fallback():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt2 + sqrt3 ~ 3.146:
    # irreducible over Q, a product of quadratics modulo every prime
    coeffs = [1, 0, -10, 0, 1]
    assert not _irreducible_mod_primes(coeffs)
    field = NumberField(coeffs, (3, 4))
    assert field.irreducibility_checked is True


@pytest.mark.parametrize("minpoly, interval, message", [
    ([6, 0, -5, 0, 1], ("1.4", "1.5"), "minimal polynomial is reducible over Q"),
    ([-4, 0, 1], ("2", "3"), "rational endpoint is a root"),
    ([-2, 0, 1], ("2", "3"), "no sign change on the isolating interval"),
    ([1, -3, 0, 1], ("-2", "2"), "interval does not isolate a single real root"),
    ([-4, 0, 1], ("1.9", "2.1"), "minimal polynomial is reducible over Q"),
])
def test_field_definition_errors_keep_their_messages(minpoly, interval, message):
    # (x^2 - 2)(x^2 - 3) on [1.4, 1.5]; x^2 - 4 with an endpoint root;
    # x^2 - 2 with no sign change; x^3 - 3x + 1 with three roots; x^2 - 4
    with pytest.raises(FieldDefinitionError, match=message):
        NumberField(minpoly, tuple(Fraction(e) for e in interval))


def test_shipped_sqrt2_runs_never_import_sympy():
    """A fresh process (the tests import sympy themselves) loads the
    shipped Q(sqrt2) instances and runs analyze and strata on them."""
    code = (
        "import contextlib, io, sys\n"
        "from toricq.cli import main\n"
        "for name in ('interval_sqrt2', 'pyramid_sqrt2'):\n"
        "    for command in ('analyze', 'strata'):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main([command, f'instances/{name}.json']) == 0\n"
        "print('sympy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def _float_up(x):
    f = float(x)
    return math.nextafter(f, math.inf) if Fraction(f) < x else f


class _Reference:
    """A field's arithmetic on plain ``Fraction`` coefficient tuples, as
    the formulas were before scalars kept integer numerators: products
    reduced by a power table over Q, the inverse by Gauss-Jordan steps on
    the multiplication matrix, and enclosures by interval Horner evaluation
    on a Fraction copy of the root interval, bisected as the field bisects
    its own."""

    def __init__(self, minpoly, interval):
        self.minpoly = tuple(minpoly)
        self.fp = [Fraction(c) for c in minpoly]
        self.k = k = len(minpoly) - 1
        monic = [c / self.fp[-1] for c in self.fp[:-1]]
        cur = [-c for c in monic]
        self.table = [cur]
        for _ in range(k - 2):
            cur = [(cur[i - 1] if i else 0) - cur[-1] * monic[i] for i in range(k)]
            self.table.append(cur)
        self.iv = tuple(Fraction(e) for e in interval)
        self.lo_positive = self._value(self.iv[0]) > 0
        self.refinements = 0

    def _value(self, x):
        acc = Fraction(0)
        for c in reversed(self.fp):
            acc = acc * x + c
        return acc

    def refine(self):
        lo, hi = self.iv
        mid = (lo + hi) / 2
        self.iv = (mid, hi) if (self._value(mid) > 0) == self.lo_positive else (lo, mid)
        self.refinements += 1

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        k = self.k
        prod = [Fraction(0)] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        out = prod[:k]
        for row, c in zip(self.table, prod[k:]):
            out = [o + c * r for o, r in zip(out, row)]
        return tuple(out)

    def inverse(self, a):
        k = self.k
        t = tuple(Fraction(int(i == 1)) for i in range(k))
        cols = [a]
        while len(cols) < k:
            cols.append(self.mul(cols[-1], t))
        rows = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(k)]
        for c in range(k):
            p = next(r for r in range(c, k) if rows[r][c])
            rows[c], rows[p] = rows[p], rows[c]
            for row in rows:
                if row is not rows[c] and row[c]:
                    m = row[c] / rows[c][c]
                    for j in range(c, k + 1):
                        row[j] -= m * rows[c][j]
        return tuple(row[k] / row[i] for i, row in enumerate(rows))

    def _enclose(self, a, done):
        while True:
            acc = (a[-1], a[-1])
            for c in reversed(a[:-1]):
                p = [x * y for x in acc for y in self.iv]
                acc = (min(p) + c, max(p) + c)
            if done(*acc):
                return acc
            self.refine()

    def sign(self, a):
        if not any(a):
            return 0
        if not any(a[1:]):
            return 1 if a[0] > 0 else -1
        lo, _ = self._enclose(a, lambda lo, hi: lo > 0 or hi < 0)
        return 1 if lo > 0 else -1

    def floor(self, a):
        if not any(a[1:]):
            return math.floor(a[0])
        lo, _ = self._enclose(
            a, lambda lo, hi: math.floor(lo) < lo and hi < math.floor(lo) + 1)
        return math.floor(lo)

    def frac_part(self, a):
        return (a[0] - self.floor(a),) + a[1:]

    def shadow(self, a, precision):
        if not any(a[1:]):
            f = float(a[0])
            return f, _float_up(abs(a[0] - Fraction(f)))
        target = Fraction(1, 2 ** precision)
        lo, hi = self._enclose(a, lambda lo, hi: (hi - lo <= target * max(2, abs(lo + hi))
                                                  and float(lo) == float(hi)))
        f = float(lo)
        return f, _float_up(max(Fraction(f) - lo, hi - Fraction(f)))


@pytest.mark.parametrize("minpoly, interval, irreducible", [
    ([-2, 0, 1], (Fraction(141, 100), Fraction(71, 50)), True),  # the instances'
    ([-2, 0, 1], (1, 2), True),                                  # the bench families'
    ([-1, 0, 2], (0, 1), True),                                  # 1/sqrt2, non-monic
    ([-2, 0, 0, 1], (1, 2), True),                               # 2^(1/3)
    ([1, 0, -10, 0, 1], (3, 4), False),                          # sqrt2 + sqrt3
    ([0, 1], (0, 0), True),                                      # Q
    ([-3, 2], (Fraction(3, 2), Fraction(3, 2)), True),           # Q, root 3/2
])
def test_integer_scalars_match_the_fraction_formulas(monkeypatch, minpoly, interval,
                                                     irreducible):
    """Every operation on seeded scalars gives what the Fraction formulas
    give, and each call refines the root interval exactly as often."""
    refinements = [0]
    refine = NumberField._refine

    def counted_refine(self):
        refinements[0] += 1
        refine(self)

    monkeypatch.setattr(NumberField, "_refine", counted_refine)
    field = NumberField(minpoly, interval, check_irreducible=irreducible)
    ref = _Reference(minpoly, interval)
    rng = random.Random(len(minpoly) * 1000 + int(interval[1] * 100))

    def draw(i):
        cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(ref.k)]
        if i % 5 == 0:
            cs[1:] = [Fraction(0)] * (ref.k - 1)   # a rational scalar
        return tuple(cs)

    def same(s, coeffs):
        assert s.coeffs == coeffs
        assert s == field.scalar(coeffs) and hash(s) == hash(field.scalar(coeffs))
        if not any(coeffs[1:]):
            assert hash(s) == hash(coeffs[0])

    def lockstep(name, s, coeffs, *args):
        got = getattr(s, name)(*args)
        want = getattr(ref, name)(coeffs, *args)
        if name == "frac_part":
            same(got, want)
        else:
            assert got == want, (name, coeffs)
        assert refinements[0] == ref.refinements, (name, coeffs)
        assert field._iv == ref.iv

    for i in range(30):
        a, b = draw(i), draw(i + 1)
        x, y = field.scalar(a), field.scalar(b)
        same(x + y, ref.add(a, b))
        same(x - y, ref.sub(a, b))
        same(x * y, ref.mul(a, b))
        if any(a):
            same(x.inverse(), ref.inverse(a))
        assert (x == y) == (a == b) and (x == x * 1)
        # a scalar read from Fractions and one made by arithmetic
        for s, coeffs in ((x, a), (x * y - 3, ref.sub(ref.mul(a, b), (Fraction(3),)
                                                       + (Fraction(0),) * (ref.k - 1)))):
            lockstep("sign", s, coeffs)
            lockstep("floor", s, coeffs)
            lockstep("frac_part", s, coeffs)
            lockstep("shadow", s, coeffs, 53 + 20 * (i % 3))
    # a rational field never bisects
    assert (ref.refinements > 0) == (ref.k > 1)


def test_enclosure_cap_names_the_scalar_and_the_width():
    # x^2 - 4 with check_irreducible=False: t is the rational 2, so t - 2
    # never separates from zero, and no bisection midpoint lands on 2
    f = NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(11, 5)),
                    check_irreducible=False)
    with pytest.raises(FieldDefinitionError,
                       match=r"sign refinement .* \(scalar \['-2', '1'\], "
                             r"value interval width \d\.\d{3}e-\d+ after 4096"):
        f.scalar([-2, 1]).sign()
