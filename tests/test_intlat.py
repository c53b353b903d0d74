import math
import random
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from toricq import intlat


def _random_matrix(rng, m, n, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _in_lattice(cols, target):
    """Membership of target in the integer column span of cols."""
    return intlat.in_echelon_lattice(intlat.column_echelon(cols), target)


def _same_lattice(cols_a, cols_b):
    return (all(_in_lattice(cols_b, c) for c in cols_a)
            and all(_in_lattice(cols_a, c) for c in cols_b))


def clear_denominators(vectors):
    """Common denominator D of rational vectors and the integer vectors
    D*v."""
    denom = 1
    for v in vectors:
        for x in v:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    cleared = [[int(x * denom) for x in v] for v in vectors]
    return denom, cleared


def _quotient(images, n):
    """``quotient_invariants`` of rational images, their denominators
    cleared first."""
    denom, cleared = clear_denominators(images)
    return intlat.quotient_invariants(cleared, n, denom)


def test_column_echelon_matches_sympy_lattice():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = _random_matrix(rng, m, n)
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        mine = intlat.column_echelon(cols)
        mat = sympy.Matrix(rows)
        if mat.rank() == 0:
            assert mine == []
            continue
        h = hermite_normal_form(mat)
        ref = [list(h.col(j)) for j in range(h.cols)]
        assert _same_lattice(mine, ref)


def test_membership_simple():
    cols = [[2, 0], [0, 3]]
    assert _in_lattice(cols, [4, -3])
    assert not _in_lattice(cols, [1, 0])
    assert _in_lattice(cols, [0, 0])


def test_membership_parity_obstruction():
    # lattice 2Z in Z: 1 is not a member
    assert not _in_lattice([[2]], [1])
    assert _in_lattice([[2]], [-6])


def test_integer_kernel():
    rng = random.Random(5)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(2, 5)
        rows = _random_matrix(rng, m, n)
        kern = intlat.integer_kernel(rows, n)
        for v in kern:
            assert all(sum(rows[i][j] * v[j] for j in range(n)) == 0
                       for i in range(m))
        mat = sympy.Matrix(rows)
        assert len(kern) == n - mat.rank()
        # saturation: the kernel lattice contains every integer nullspace vector
        null = mat.nullspace()
        for vec in null:
            denom = 1
            for x in vec:
                denom = sympy.ilcm(denom, sympy.Rational(x).q)
            cand = [int(x * denom) for x in vec]
            assert _in_lattice([list(k) for k in kern], cand)


def _modular_reference(rows, modulus):
    """The Smith diagonal of [modulus*I | rows] read off sympy's Smith form
    of rows alone: gcd(s_i, modulus) per diagonal entry s_i, and modulus
    for each rank that rows lack."""
    ref = smith_normal_form(sympy.Matrix(rows))
    r = min(ref.rows, ref.cols)
    diag = [abs(ref[i, i]) for i in range(r)] + [0] * (len(rows) - r)
    return [math.gcd(d, modulus) for d in diag]


def test_smith_diagonal_matches_sympy():
    rng = random.Random(9)
    for _ in range(60):
        m, k = rng.randint(1, 4), rng.randint(1, 5)
        rows = _random_matrix(rng, m, k)
        modulus = rng.choice([1, 2, 6, 12, 30, 210, rng.randint(1, 60)])
        assert intlat.smith_diagonal(rows, modulus) == _modular_reference(rows, modulus)


def test_quotient_invariants_halves():
    order, factors = _quotient([[Fraction(1, 2), Fraction(1, 2)]], 2)
    assert order == 2 and factors == [2]
    # a common denominator need not be the least one
    assert intlat.quotient_invariants([[2, 2]], 2, 4) == (2, [2])


def test_quotient_invariants_trivial():
    order, factors = _quotient([[Fraction(1), Fraction(0)]], 2)
    assert order == 1 and factors == []
    order, factors = _quotient([], 3)
    assert order == 1 and factors == []


def test_quotient_invariants_mixed():
    images = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]
    order, factors = _quotient(images, 2)
    assert order == 6 and factors == [6]
    images = [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]
    order, factors = _quotient(images, 2)
    assert order == 4 and factors == [2, 2]


def _group_mod_one(images, n):
    """Oracle: every element of (Z^n + sum Z*v) / Z^n, by breadth-first
    search over the images reduced mod 1."""
    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for g in frontier:
            for v in images:
                h = tuple((a + b) % 1 for a, b in zip(g, v))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def _enumerable_inputs():
    """(integer columns c, n, D) whose images c / D span a quotient small
    enough to enumerate."""
    rng = random.Random(13)
    for _ in range(50):
        n, k = rng.randint(1, 3), rng.randint(1, 3)
        images = [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)]
                  for _ in range(k)]
        denom, cleared = clear_denominators(images)
        yield cleared, n, denom
    # numerators over D = 12, 30 and 210
    for denom, n, count in ((12, 3, 2), (12, 2, 4), (30, 2, 4), (210, 1, 4)):
        for _ in range(count):
            k = rng.randint(1, 3)
            yield ([[rng.randint(-denom, denom) for _ in range(n)] for _ in range(k)],
                   n, denom)
    # rank-deficient numerator matrices: fewer images than coordinates, a
    # coordinate that no image moves, and one image a multiple of another
    for denom in (12, 30, 210):
        a, b, c = (rng.randint(1, denom - 1) for _ in range(3))
        yield [[a, b, 0]], 3, denom
        yield [[a, 0], [b, 0], [c, 0]], 2, denom
        yield [[a, b], [2 * a, 2 * b]], 2, denom


def test_quotient_invariants_match_enumerated_group():
    for cols, n, denom in _enumerable_inputs():
        images = [[Fraction(x, denom) for x in v] for v in cols]
        order, factors = intlat.quotient_invariants(cols, n, denom)
        group = _group_mod_one(images, n)
        assert order == len(group)
        assert all(f > 1 for f in factors) and factors == sorted(factors)
        # the m-torsion of Z/f_1 + ... + Z/f_r has prod gcd(m, f_i) elements
        for m in range(1, order + 1):
            if order % m:
                continue
            torsion = sum(1 for g in group if all((m * x) % 1 == 0 for x in g))
            expected = 1
            for f in factors:
                expected *= math.gcd(m, f)
            assert torsion == expected
        # the same images over 6 times the denominator: the common factor
        # of the denominator and every numerator is divided out first
        assert intlat.quotient_invariants([[6 * x for x in v] for v in cols],
                                          n, 6 * denom) == (order, factors)
        # the modular kernel on the n x k numerator matrix
        rows = [[v[r] for v in cols] for r in range(n)]
        assert intlat.smith_diagonal(rows, denom) == _modular_reference(rows, denom)


def _echelon_reference(cols):
    """``column_echelon`` as it was written before its row reduction was
    shared with ``integer_kernel``."""
    if not cols:
        return []
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis = []
    for row in range(n):
        work = [c for c in work if any(x != 0 for x in c)]
        if not any(c[row] != 0 for c in work):
            continue
        while True:
            cand = [c for c in work if c[row] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda c: abs(c[row]))
            small = cand[0]
            for c in cand[1:]:
                q = c[row] // small[row]
                for r in range(n):
                    c[r] -= q * small[r]
        pivot = next(c for c in work if c[row] != 0)
        if pivot[row] < 0:
            for r in range(n):
                pivot[r] = -pivot[r]
        work.remove(pivot)
        basis.append(pivot)
    return basis


def _kernel_reference(rows, ncols):
    """``integer_kernel`` as it was written before its row reduction was
    shared with ``column_echelon``."""
    m = len(rows)
    work = [[rows[i][j] for i in range(m)] + [1 if r == j else 0 for r in range(ncols)]
            for j in range(ncols)]
    for row in range(m):
        while True:
            cand = [c for c in work if c[row] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda c: abs(c[row]))
            small = cand[0]
            for c in cand[1:]:
                q = c[row] // small[row]
                for r in range(m + ncols):
                    c[r] -= q * small[r]
        cand = [c for c in work if c[row] != 0]
        if cand:
            work.remove(cand[0])
    return [c[m:] for c in work if all(c[r] == 0 for r in range(m))]


def test_shared_row_reduction_keeps_every_basis():
    rng = random.Random(17)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 6)
        rows = _random_matrix(rng, m, n, -9, 9)
        if rng.random() < 0.3:  # repeated and zero columns
            rows = [r[:n // 2] * 2 + [0] * (n - 2 * (n // 2)) for r in rows]
        cols = [[rows[i][j] for i in range(m)] for j in range(n)]
        assert intlat.column_echelon(cols) == _echelon_reference(cols)
        assert intlat.integer_kernel(rows, n) == _kernel_reference(rows, n)
