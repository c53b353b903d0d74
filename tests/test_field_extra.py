"""Field arithmetic beyond the quadratic cases the fixtures use."""

import random
from fractions import Fraction

import pytest
import sympy

from toricq.errors import FieldDefinitionError
from toricq.field import NumberField


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


def test_inverse_of_zero_divisor_is_a_field_error():
    # x^2 - 4 = (x - 2)(x + 2): t - 2 divides zero, so it has no inverse
    f = NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(21, 10)),
                    check_irreducible=False)
    with pytest.raises(FieldDefinitionError, match="gcd with minimal polynomial"):
        f.scalar([-2, 1]).inverse()
