import random
from fractions import Fraction

import sympy

from toricq import linalg


def _random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(n)]


def test_det_matches_sympy(qq):
    rng = random.Random(17)
    kinds = {"singular": 0, "swap": 0}
    for trial in range(60):
        n = rng.randint(1, 5)
        rows = _random_rational_matrix(rng, n)
        if trial % 3 == 1 and n > 1:
            # a dependent row makes the matrix singular
            a, b = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows[b] = [c * x for x in rows[a]]
            kinds["singular"] += 1
        elif trial % 3 == 2 and n > 1:
            # a zero leading entry forces a row swap at the first pivot
            rows[0][0] = Fraction(0)
            kinds["swap"] += 1
        ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                            for r in rows]).det()
        mine = linalg.det([linalg.vec(qq, r) for r in rows], qq).as_fraction()
        assert mine == Fraction(int(ref.p), int(ref.q))
    assert kinds["singular"] >= 10 and kinds["swap"] >= 10


def test_det_is_multiplicative_over_sqrt2(q_sqrt2):
    rng = random.Random(19)

    def rand_matrix(n):
        return [[q_sqrt2.scalar([rng.randint(-4, 4), rng.randint(-3, 3)])
                 for _ in range(n)] for _ in range(n)]

    for _ in range(20):
        n = rng.randint(1, 4)
        a, b = rand_matrix(n), rand_matrix(n)
        if n > 1 and rng.random() < 0.3:
            a[1] = list(a[0])      # singular factor
        ab = [[linalg.dot(row, col) for col in linalg.transpose(b)] for row in a]
        assert linalg.det(ab, q_sqrt2) == (linalg.det(a, q_sqrt2)
                                           * linalg.det(b, q_sqrt2))
