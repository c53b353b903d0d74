import random
from fractions import Fraction

import pytest

from toricq import linalg
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


def test_shadow_does_not_depend_on_refinement():
    # Every shadow is the correctly rounded float, so refining the root
    # interval further must not move it; the bound may only tighten.
    rng = random.Random(11)
    for _ in range(60):
        field = NumberField([-2, 0, 1], (1, 2))   # fresh and coarse
        s = field.scalar([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                          for _ in range(2)])
        before, bound_before = s.shadow()
        for _ in range(rng.randint(1, 40)):
            field._refine()
        after, bound_after = s.shadow()
        assert after == before
        assert bound_after <= bound_before


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
    message = "minimal polynomial is reducible over Q"
    with pytest.raises(FieldDefinitionError, match=message):
        NumberField([-4, 0, 1], (Fraction(19, 10), Fraction(21, 10)))  # x^2 - 4
    with pytest.raises(FieldDefinitionError, match=message):
        # (x - 1)(x^2 + 1)
        NumberField([-1, 1, -1, 1], (Fraction(1, 2), Fraction(3, 2)))


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
    # the linalg kernels refuse it too, whichever field comes first
    for a, b in ((qq.one(), q_sqrt2.one()), (q_sqrt2.one(), qq.one())):
        with pytest.raises(ValueError):
            linalg.dot([a], [b])
        with pytest.raises(ValueError):
            linalg.rank([[a], [b]], 1)
        with pytest.raises(ValueError):
            linalg.solve([[a]], [b], 1, a.field)
        # a zero of the other field is never computed on, and still refused
        with pytest.raises(ValueError):
            linalg.rank([[a, b - b]], 2)
    # an equal field that is another object is the same field
    other = NumberField.rationals()
    assert other is not qq
    assert linalg.dot([qq.from_rational(2)], [other.from_rational(3)]) == 6
    assert linalg.rank([[qq.one()], [other.one()]], 1) == 1
    assert linalg.solve([[qq.from_rational(2)]], [other.one()], 1, qq) \
        == [qq.from_rational(Fraction(1, 2))]


def test_equal_scalars_hash_equal(qq, q_sqrt2):
    """x == y implies hash(x) == hash(y) for y an int, a Fraction or a
    scalar: a rational scalar hashes as the number it equals."""
    one = qq.one()
    assert one == 1 and len({one, 1}) == 1 and 1 in {one}
    for field in (qq, q_sqrt2):
        found = {Fraction(1, 2): "half"}
        assert found[field.from_rational(Fraction(1, 2))] == "half"
        for value in (0, -1, 2 ** 70, Fraction(-7, 3), Fraction(2 ** 80, 3)):
            s = field.from_rational(value)
            assert s == value and hash(s) == hash(value)
            assert s == field.one() * value and hash(s) == hash(field.one() * value)
    # an irrational scalar in two equal fields that are distinct objects
    other = NumberField([-2, 0, 1], q_sqrt2.root_interval)
    assert other is not q_sqrt2 and other == q_sqrt2
    a, b = q_sqrt2.scalar(["1/3", "-2/5"]), other.scalar(["1/3", "-2/5"])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_precision_floor():
    f = NumberField.rationals()
    with pytest.raises(ValueError):
        f.one().shadow(16)
