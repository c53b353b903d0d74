import random
from fractions import Fraction

import pytest

from toricq.errors import FieldDefinitionError
from toricq.field import NumberField


@pytest.fixture(scope="module")
def qq():
    return NumberField.rationals()


@pytest.fixture(scope="module")
def q_sqrt2():
    return NumberField([-2, 0, 1], (Fraction(141, 100), Fraction(142, 100)))


@pytest.fixture(scope="module")
def q_golden():
    return NumberField([-1, -1, 1], (Fraction(8, 5), Fraction(17, 10)))


def test_sign_zero(q_sqrt2):
    assert q_sqrt2.zero().sign() == 0


def test_sign_sqrt2_minus_one(q_sqrt2):
    s = q_sqrt2.scalar([-1, 1])  # sqrt2 - 1
    assert s.sign() == 1
    assert (-s).sign() == -1


def test_sqrt2_squares_to_two(q_sqrt2):
    t = q_sqrt2.generator()
    assert t * t == q_sqrt2.from_rational(2)


def test_golden_ratio_identity(q_golden):
    phi = q_golden.generator()
    assert phi * phi == phi + 1


def test_inverse(q_sqrt2):
    t = q_sqrt2.generator()
    s = t + 3
    assert s * s.inverse() == q_sqrt2.one()
    assert (t / t) == q_sqrt2.one()


def test_shadow_exact_rational(qq):
    v, err = qq.from_rational(Fraction(3, 2)).shadow()
    assert v == 1.5 and err == 0.0
    v, err = qq.zero().shadow()
    assert v == 0.0 and err == 0.0


def test_shadow_sqrt2(q_sqrt2):
    v, err = q_sqrt2.generator().shadow(53)
    assert abs(v - 2 ** 0.5) <= err + 1e-15
    assert err <= 2 ** -50


def test_shadow_error_bound_is_honest(q_sqrt2):
    s = q_sqrt2.scalar([Fraction(1, 3), Fraction(-2, 7)])
    v, err = s.shadow(40)
    exact = Fraction(1, 3) - Fraction(2, 7) * Fraction(14142135623730951, 10 ** 16)
    assert abs(v - float(exact)) <= err + 1e-12


def test_shadow_bound_shrinks_with_precision(q_sqrt2, q_golden):
    rng = random.Random(7)
    for field in (q_sqrt2, q_golden):
        for _ in range(10):
            s = field.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                              for _ in range(field.degree)])
            bounds = [s.shadow(p)[1] for p in (24, 40, 64, 96)]
            assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_field_axioms_random(q_sqrt2, q_golden):
    rng = random.Random(11)
    for field in (q_sqrt2, q_golden):
        for _ in range(25):
            a, b, c = (field.scalar([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                     for _ in range(field.degree)]) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_sign_multiplicative(q_sqrt2):
    rng = random.Random(13)
    for _ in range(40):
        s = q_sqrt2.scalar([rng.randint(-5, 5), rng.randint(-5, 5)])
        t = q_sqrt2.scalar([rng.randint(-5, 5), rng.randint(-5, 5)])
        assert (s * t).sign() == s.sign() * t.sign()


def test_comparisons_and_floor(q_sqrt2):
    t = q_sqrt2.generator()
    assert t > 1
    assert t < 2
    assert t.floor() == 1
    assert (-t).floor() == -2
    assert (t * t).floor() == 2
    assert q_sqrt2.from_rational(Fraction(-3, 2)).floor() == -2
    assert (t - 1).frac_part() == t - 1


def test_reducible_polynomial_rejected():
    with pytest.raises(FieldDefinitionError):
        NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(21, 10)))  # x^2 - 4


def test_reducible_polynomial_trusted_fails_on_sign():
    # x^2 - 4 sneaks past with the check disabled, then sign() of t - 2
    # refines forever and must error out instead of guessing.
    f = NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(21, 10)),
                    check_irreducible=False)
    assert f.irreducibility_checked is False
    s = f.scalar([-2, 1])
    with pytest.raises(FieldDefinitionError):
        s.sign()


def test_bad_isolating_interval_rejected():
    with pytest.raises(FieldDefinitionError):
        NumberField([-2, 0, 1], (Fraction(-2), Fraction(2)))  # two roots


def test_degree_one_reproduces_rationals(qq):
    a = qq.from_rational(Fraction(2, 3))
    b = qq.from_rational(Fraction(-1, 6))
    assert (a + b).as_fraction() == Fraction(1, 2)
    assert (a * b).as_fraction() == Fraction(-1, 9)
    assert (a + b).sign() == 1


def test_mixed_field_arithmetic_rejected(qq, q_sqrt2):
    with pytest.raises(ValueError):
        qq.one() + q_sqrt2.one()


def test_precision_floor():
    f = NumberField.rationals()
    with pytest.raises(ValueError):
        f.one().shadow(16)
