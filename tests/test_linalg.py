import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from toricq import linalg
from toricq.field import NumberField
from toricq.groups import (Quasilattice, _chart, _table_entry, chart_index_sets,
                           gamma_check, gamma_group)
from toricq.polytope import Polytope
from toricq.serialize import load_instance

from test_groups_extra import (half_lattice_pyramid, half_lattice_triangle,
                               mixed_denominator_square)
from test_polytope import _generated

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


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


def _sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                         for r in rows])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def test_rank_nullspace_and_solve_match_sympy_rref(qq):
    """Rectangular and augmented systems over Q against sympy's rref: the
    rank, the nullspace basis read off the reduced rows, and one solution
    with the free variables zero, or None.  Over Q the rows below the rank
    come out scaled, so an inconsistent right-hand side has to be seen on
    scaled rows."""
    rng = random.Random(29)
    kinds = {"deficient": 0, "inconsistent": 0, "consistent": 0}
    for trial in range(90):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7)))
                 for _ in range(n)] for _ in range(m)]
        if trial % 3 and m > 2:
            # the last row a rational combination of two others
            a, b = rng.sample(range(m - 1), 2)
            s, t = (Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(2))
            rows[-1] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
            kinds["deficient"] += 1
        if trial % 2:
            rhs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(m)]
        else:
            x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum((x * y for x, y in zip(r, x0)), Fraction(0)) for r in rows]
        a = [linalg.vec(qq, r) for r in rows]
        ref, pivots = _sympy(rows).rref()
        assert linalg.rank(a, n) == len(pivots)
        assert [[s.as_fraction() for s in v] for v in linalg.nullspace(a, n, qq)] \
            == [[_fraction(x) for x in v] for v in _sympy(rows).nullspace()]
        aug, aug_pivots = _sympy([r + [y] for r, y in zip(rows, rhs)]).rref()
        x = linalg.solve(a, linalg.vec(qq, rhs), n, qq)
        if n in aug_pivots:
            assert x is None
            kinds["inconsistent"] += 1
            continue
        want = [Fraction(0)] * n
        for r, c in enumerate(aug_pivots):
            want[c] = _fraction(aug[r, n])
        assert [s.as_fraction() for s in x] == want
        kinds["consistent"] += 1
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("minpoly, generator", [([-2, 0, 1], sympy.sqrt(2)),
                                                ([-2, 0, 0, 1], sympy.cbrt(2))])
def test_irrational_rank_nullspace_solve_and_det_match_sympy_rref(minpoly, generator):
    """The Gauss-Jordan elimination over Q(sqrt2) and Q(cbrt2) against
    sympy's rref over the same algebraic field, on seeded matrices with
    irrational entries: the rank, the nullspace basis read off the reduced
    rows, one solution with the free variables zero or None, and the
    determinant of a square matrix."""
    field = NumberField(minpoly, (1, 2))
    K = QQ.algebraic_field(generator)
    k = field.degree

    def to_sympy(s):
        return K([QQ(c.numerator, c.denominator) for c in reversed(s.coeffs)])

    def from_sympy(e):
        cs = [Fraction(int(c.numerator), int(c.denominator))
              for c in reversed(e.to_list())]
        return field.scalar(cs + [Fraction(0)] * (k - len(cs)))

    def matrix(rows):
        return DomainMatrix([[to_sympy(s) for s in r] for r in rows],
                            (len(rows), len(rows[0])), K)

    def rref(rows):
        ref, pivots = matrix(rows).rref()
        return [[from_sympy(e) for e in r] for r in ref.to_list()], list(pivots)

    rng = random.Random(37 + k)

    def draw():
        # a scalar with a rational part and, mostly, an irrational one
        cs = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
              for _ in range(k)]
        if rng.random() < 0.2:
            cs[1:] = [Fraction(0)] * (k - 1)
        return field.scalar(cs)

    kinds = {"deficient": 0, "inconsistent": 0, "consistent": 0, "square": 0}
    for trial in range(45):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[draw() for _ in range(n)] for _ in range(m)]
        if trial % 3 and m > 2:
            # the last row an irrational combination of two others
            a, b = rng.sample(range(m - 1), 2)
            s, t = draw(), draw()
            rows[-1] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
            kinds["deficient"] += 1
        if trial % 2:
            rhs = [draw() for _ in range(m)]
        else:
            x0 = [draw() for _ in range(n)]
            rhs = [linalg.dot(r, x0) for r in rows]
        ref, pivots = rref(rows)
        assert linalg.rank(rows, n) == len(pivots)
        want_null = []
        for fc in (c for c in range(n) if c not in pivots):
            v = [field.zero()] * n
            v[fc] = field.one()
            for r, pc in enumerate(pivots):
                v[pc] = -ref[r][fc]
            want_null.append(v)
        assert linalg.nullspace(rows, n, field) == want_null
        if m == n:
            assert linalg.det(rows, field) == from_sympy(matrix(rows).det())
            kinds["square"] += 1
        aug, aug_pivots = rref([r + [y] for r, y in zip(rows, rhs)])
        x = linalg.solve(rows, rhs, n, field)
        if n in aug_pivots:
            assert x is None
            kinds["inconsistent"] += 1
            continue
        want = [field.zero()] * n
        for r, c in enumerate(aug_pivots):
            want[c] = aug[r][n]
        assert x == want
        kinds["consistent"] += 1
    assert min(kinds.values()) >= 5, kinds


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


@pytest.mark.parametrize("degree", [1, 2])
def test_rref_converts_only_the_columns_asked_for(qq, q_sqrt2, degree):
    """The block ``_rref`` returns from a start column is that slice of the
    full reduction, with the same pivots and pivot values, on seeded wide
    matrices over Q (an integer tableau) and Q(sqrt2) (a scalar one); and
    ``rank`` and ``det``, which read the pivots without converting, agree
    with the full reduction."""
    field = qq if degree == 1 else q_sqrt2
    rng = random.Random(41 + degree)

    def draw():
        return field.scalar([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(degree)])

    for trial in range(40):
        m, ncols = rng.randint(1, 5), rng.randint(0, 4)
        width = ncols + rng.randint(0, 3)
        rows = [[draw() for _ in range(width)] for _ in range(m)]
        if trial % 3 == 1 and m > 1:
            rows[-1] = list(rows[0])
        full, pivots, values = linalg._rref(rows, ncols)
        for start in range(width + 1):
            block, p, v = linalg._rref(rows, ncols, start)
            assert block == [row[start:] for row in full]
            assert (p, v) == (pivots, values)
        assert linalg.rank(rows, ncols) == len(pivots)
        square = [row[:m] for row in rows]
        if width >= m:
            _, p, v = linalg._rref(square, m)
            want = field.zero() if len(p) < m else math.prod(v, start=field.one())
            assert linalg.det(square, field) == want


@pytest.mark.parametrize("degree", [1, 2])
def test_nullspace_converts_only_the_entries_it_reads(qq, q_sqrt2, degree,
                                                      monkeypatch):
    """``nullspace`` reads the free columns of the pivot rows off the
    tableau of ``first_basis`` and converts just those: on seeded matrices
    over Q (an integer tableau) and Q(sqrt2) (a scalar one) its basis is
    the one read off the fully converted reduction of ``_rref``, and over Q
    it makes one conversion per pivot value and per entry it reads."""
    field = qq if degree == 1 else q_sqrt2
    rng = random.Random(53 + degree)
    conversions = [0]
    ratio = linalg._ratio

    def counted(*args):
        conversions[0] += 1
        return ratio(*args)

    monkeypatch.setattr(linalg, "_ratio", counted)

    def draw():
        return field.scalar([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(degree)])

    kinds = {"deficient": 0, "zero column": 0}
    for trial in range(40):
        m, ncols = rng.randint(1, 5), rng.randint(0, 5)
        rows = [[draw() for _ in range(ncols)] for _ in range(m)]
        if trial % 4 == 1 and m > 1:
            rows[-1] = linalg.vec_add(rows[0], rows[(m - 1) // 2])
            kinds["deficient"] += 1
        elif trial % 4 == 2 and ncols:
            c = rng.randrange(ncols)
            for r in rows:
                r[c] = field.zero()
            kinds["zero column"] += 1
        red, pivots, _ = linalg._rref(rows, ncols)
        want = linalg._reduced_nullspace(red, pivots, ncols, field)
        conversions[0] = 0
        assert linalg.nullspace(rows, ncols, field) == want
        assert len(want) == ncols - len(pivots)
        if degree == 1 and ncols:
            rank = len(pivots)
            assert conversions[0] == rank + rank * (ncols - rank)
    assert kinds["deficient"] >= 5 and kinds["zero column"] >= 5


def test_raw_rational_path_matches_the_scalar_path(qq, q_sqrt2):
    """The same rational data over Q, where every elimination runs
    fraction-free on an integer tableau, and over Q(sqrt2), where it runs
    Gauss-Jordan on FieldScalars, gives the same eliminations, chart
    preimages and chart groups, coefficient by coefficient."""
    def lift(s):
        # a Q scalar's coefficients as a rational Q(sqrt2) scalar's
        return s.coeffs + (Fraction(0),)

    def lifted(vectors):
        return [[lift(s) for s in v] for v in vectors]

    def coeffs(vectors):
        return [[s.coeffs for s in v] for v in vectors]

    def over_sqrt2(rows):
        return [[q_sqrt2.from_rational(s.as_fraction()) for s in r] for r in rows]

    rng = random.Random(23)
    kinds = {"deficient": 0, "zero column": 0}
    for trial in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)]
        if trial % 4 == 1 and m > 1:
            rows[-1] = [x + y for x, y in zip(rows[0], rows[(m - 1) // 2])]
            kinds["deficient"] += 1
        elif trial % 4 == 2:
            c = rng.randrange(n)
            for r in rows:
                r[c] = Fraction(0)
            kinds["zero column"] += 1
        a = [linalg.vec(qq, r) for r in rows]
        b = over_sqrt2(a)
        red_a, piv_a, val_a = linalg._rref(a, n)
        red_b, piv_b, val_b = linalg._rref(b, n)
        assert [[(x, Fraction(0)) for x in r] for r in red_a] == coeffs(red_b)
        assert piv_a == piv_b
        assert [(x, Fraction(0)) for x in val_a] == [s.coeffs for s in val_b]
        assert lifted(linalg.nullspace(a, n, qq)) \
            == coeffs(linalg.nullspace(b, n, q_sqrt2))
        rhs = [qq.from_rational(rng.randint(-3, 3)) for _ in range(m)]
        x_a = linalg.solve(a, rhs, n, qq)
        x_b = linalg.solve(b, over_sqrt2([rhs])[0], n, q_sqrt2)
        assert (x_a is None) == (x_b is None)
        if x_a is not None:
            assert lifted([x_a]) == coeffs([x_b])
        if m == n:
            assert lift(linalg.det(a, qq)) == linalg.det(b, q_sqrt2).coeffs
        assert lift(linalg.dot(a[0], a[-1])) == linalg.dot(b[0], b[-1]).coeffs
    assert kinds["deficient"] >= 5 and kinds["zero column"] >= 5

    # the chart layer: the integer tableau over Q against the scalar search
    # over Q(sqrt2), for every chart group and every stratum chart group
    shipped = [load_instance(str(path)).polytope
               for path in sorted(INSTANCES.glob("*.json"))]
    refined = [half_lattice_triangle(qq), mixed_denominator_square(qq),
               half_lattice_pyramid(qq)]
    rational = [p for p in _generated(qq, q_sqrt2) + shipped + refined
                if p.field.degree == 1]
    negative = checks = 0
    for p in rational:
        def frac(v):
            return [s.as_fraction() for s in v]
        q2 = Quasilattice(q_sqrt2, [frac(g) for g in p.quasilattice.generators])
        p2 = Polytope(q_sqrt2, [frac(x) for x in p.normals], frac(p.offsets), q2)
        lat, lat2 = p.face_lattice(), p2.face_lattice()
        assert lat.vertex_active == lat2.vertex_active
        assert lifted(lat.vertex_coords) == coeffs(lat2.vertex_coords)
        assert [f.index_set for f in lat.faces] == [f.index_set for f in lat2.faces]
        charts = chart_index_sets(p)
        assert charts == chart_index_sets(p2)
        for I in charts:
            assert lifted(_chart(p, I)[1]) == coeffs(_chart(p2, I)[1])
            negative += _table_entry(p, I)[1][0] < 0
            pairs = [(gamma_group(p, I), gamma_group(p2, I))]
            for f, f2 in zip(lat.faces, lat2.faces):
                if len(set(I) & set(f.index_set)) == p.n - f.dim:
                    pairs.append((gamma_check(p, I, f),
                                  gamma_check(p2, I, f2)))
            for g, g2 in pairs:
                assert (g.chart_index_set, g.coords, g.finite, g.order,
                        g.invariant_factors) \
                    == (g2.chart_index_set, g2.coords, g2.finite, g2.order,
                        g2.invariant_factors)
                assert lifted(g.generator_images) == coeffs(g2.generator_images)
            checks += len(pairs)
    # charts whose integer tableau has a negative denominator are common
    assert negative >= 1 and checks >= 1000
