import inspect
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from toricq import intlat, linalg
from toricq.errors import PreconditionError, ValidationError
from toricq.field import NumberField
from toricq.groups import (DiscreteGroupPresentation, Quasilattice, _numerators,
                           chart_index_sets, gamma_check, gamma_group,
                           kernel_data, n_membership)
from toricq.polytope import Polytope
from toricq.sampling import Sampler
from toricq.serialize import load_instance
from toricq.strata import _b_tilde, build_link, build_stratification

from test_groups_extra import (half_lattice_pyramid, half_lattice_triangle,
                               mixed_denominator_square)
from test_intlat import clear_denominators
from test_polytope import _generated
from test_strata import _links, recursion_inputs

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def test_rank_standard_lattice(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    rank, basis = q.rank_certificate()
    assert rank == 2 and q.is_lattice
    assert len(basis) == 2


def test_rank_sqrt2(q_sqrt2):
    q = Quasilattice(q_sqrt2, [[q_sqrt2.one()], [q_sqrt2.generator()]])
    rank, _ = q.rank_certificate()
    assert rank == 2
    assert not q.is_lattice


def test_rank_halves(qq):
    q = Quasilattice(qq, [[1], [Fraction(1, 2)]])
    rank, basis = q.rank_certificate()
    assert rank == 1 and q.is_lattice
    # the basis certificate generates both generators
    assert basis[0][0].as_fraction() in (Fraction(1, 2), Fraction(-1, 2))


def test_membership(qq, q_sqrt2):
    q = Quasilattice(q_sqrt2, [[q_sqrt2.one()], [q_sqrt2.generator()]])
    assert q.contains([q_sqrt2.zero()])
    v = q_sqrt2.scalar([3, -2])  # 3 - 2 sqrt2
    assert q.contains([v])
    q2 = Quasilattice(q_sqrt2, [[q_sqrt2.from_rational(2)],
                                [q_sqrt2.generator() * 2]])
    assert not q2.contains([q_sqrt2.one()])


def _expand(v):
    """Rational coordinates of a field vector w.r.t. the power basis."""
    return [Fraction(x, s.den) for s in v for x in s.num]


def _fresh_contains(q, v):
    """Membership by the direct formula: clear the denominators of the
    generators and the target together, then reduce in the column lattice."""
    vectors = [_expand(g) for g in q.generators] + [_expand(linalg.vec(q.field, v))]
    _, cleared = clear_denominators(vectors)
    return intlat.in_echelon_lattice(intlat.column_echelon(cleared[:-1]),
                                     cleared[-1])


def test_contains_matches_the_fresh_formula(qq, q_sqrt2):
    rng = random.Random(11)
    # the non-monic 2x^2 - 1: its root 1/sqrt2 is no algebraic integer
    half_sqrt2 = NumberField([-1, 0, 2], (Fraction(7, 10), Fraction(71, 100)))

    def frac():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4)))

    verdicts, off_denominator = set(), 0
    for field in (qq, q_sqrt2, half_sqrt2):
        for _ in range(25):
            n = rng.randint(1, 3)
            gens = [[field.scalar([frac() for _ in range(field.degree)])
                     for _ in range(n)] for _ in range(n + rng.randint(0, 2))]
            if linalg.rank(gens, n) < n:
                continue
            q = Quasilattice(field, gens)
            targets = []
            for _ in range(6):
                coeffs = [rng.randint(-3, 3) for _ in gens]
                member = [sum((c * g[i] for c, g in zip(coeffs, gens)),
                              field.zero()) for i in range(n)]
                targets.append(member)
                # a member shifted by a fraction of a generator, and noise
                half = linalg.vec_scale(field.from_rational(Fraction(1, 2)),
                                        rng.choice(gens))
                targets.append(linalg.vec_add(member, half))
                targets.append([field.scalar([frac() for _ in range(field.degree)])
                                for _ in range(n)])
                # a member moved by a coordinate whose denominator does
                # not divide the common denominator D of the group
                coeffs = [0] * field.degree
                coeffs[rng.randrange(field.degree)] = Fraction(
                    1, q._echelon()[0] * rng.choice((2, 3, 7)))
                moved = list(member)
                moved[rng.randrange(n)] += field.scalar(coeffs)
                targets.append(moved)
            for v in targets:
                got = q.contains(v)
                assert got == _fresh_contains(q, v)
                verdicts.add(got)
                off_denominator += any(
                    q._echelon()[0] % s.den for s in linalg.vec(field, v))
            assert all(q.contains(g) for g in gens)
    assert verdicts == {True, False}
    assert off_denominator >= 100


def _rank_recipe(q):
    """``rank_certificate``'s basis on Fraction coordinates: the echelon
    basis of the cleared generators, divided by their denominator."""
    denom, cleared = clear_denominators([_expand(g) for g in q.generators])
    e = q.field.degree
    return [[q.field.scalar([Fraction(c, denom) for c in col[i:i + e]])
             for i in range(0, len(col), e)]
            for col in intlat.column_echelon(cleared)]


def _sub_quasilattice_recipe(p, basis):
    """Generators of the quasilattice inside the span of basis, in span
    coordinates: the integer kernel of the generators' values under the
    annihilating functionals, read as Fraction coordinates and cleared
    together."""
    field, gens = p.field, p.quasilattice.generators
    ann = linalg.nullspace(basis, p.n, field)
    kept = list(gens)
    if ann:
        values = [[linalg.dot(f, g) for f in ann] for g in gens]
        rows = [[values[g][fi].coeffs[ci] for g in range(len(gens))]
                for fi in range(len(ann)) for ci in range(field.degree)]
        kernel = intlat.integer_kernel(clear_denominators(rows)[1], len(gens))
        kept = [linalg.mat_vec(linalg.transpose(gens),
                               [field.from_rational(c) for c in combo])
                for combo in kernel]
    coords = [linalg.in_span(basis, g, len(basis), field) for g in kept]
    return [c for c in coords if any(not s.is_zero() for s in c)]


def test_numerators_match_the_fraction_formula(qq, q_sqrt2, octahedron,
                                               pyramid4, pyramid_sqrt2):
    """``_numerators`` against the common denominator and cleared integers
    of the Fraction coordinates, and its two readers, the rank certificate
    and ``_sub_quasilattice``, against recipes built on Fractions."""
    rng = random.Random(29)
    half_sqrt2 = NumberField([-1, 0, 2], (Fraction(7, 10), Fraction(71, 100)))
    lattices = 0
    for field in (qq, q_sqrt2, half_sqrt2):
        for _ in range(40):
            n = rng.randint(1, 3)
            vectors = [[field.scalar([Fraction(rng.randint(-9, 9),
                                               rng.choice((1, 2, 3, 4, 6, 9)))
                                      for _ in range(field.degree)])
                        for _ in range(n)] for _ in range(rng.randint(1, 4))]
            assert _numerators(vectors) \
                == clear_denominators([_expand(v) for v in vectors])
            if linalg.rank(vectors, n) == n:
                q = Quasilattice(field, vectors)
                assert q.rank_certificate()[1] == _rank_recipe(q)
                lattices += 1
    assert lattices >= 60
    links = [link for top in recursion_inputs(octahedron, pyramid4, pyramid_sqrt2)
             for link in _links(build_stratification(top))]
    assert len(links) == 44
    for link in links:
        assert link.q_f.generators \
            == _sub_quasilattice_recipe(link.parent, link.d_F_basis)


def test_contains_reduces_only_the_target(pyramid_sqrt2, monkeypatch):
    q = Quasilattice(pyramid_sqrt2.field, pyramid_sqrt2.quasilattice.generators)
    q.contains(q.generators[0])
    calls = []
    real = intlat.column_echelon
    monkeypatch.setattr(intlat, "column_echelon",
                        lambda cols: calls.append(1) or real(cols))
    for x in pyramid_sqrt2.normals:
        assert q.contains(x)
    assert calls == []


def test_non_spanning_rejected(qq):
    with pytest.raises(ValidationError):
        Quasilattice(qq, [[1, 0], [2, 0]])


def test_kernel_data_interval(interval):
    seq = kernel_data(interval)
    assert len(seq.kernel_basis) == 1
    v = seq.kernel_basis[0]
    ratio = v[1] / v[0]
    assert ratio.as_fraction() == 1  # kernel spanned by (1, 1)


def test_kernel_data_square(unit_square):
    seq = kernel_data(unit_square)
    assert len(seq.kernel_basis) == 2
    for v in seq.kernel_basis:
        assert all(s.is_zero() for s in seq.pi(v))
    # (1,0,1,0) and (0,1,0,1) span the kernel
    span = [[x.as_fraction() for x in v] for v in seq.kernel_basis]
    mat = sympy.Matrix(span)
    for target in ([1, 0, 1, 0], [0, 1, 0, 1]):
        sol = mat.T.solve_least_squares(sympy.Matrix(target))
        assert list(mat.T * sol) == target


def test_kernel_data_simplex_corank_one(triangle):
    seq = kernel_data(triangle)
    assert len(seq.kernel_basis) == 1


def test_kernel_data_is_computed_once_per_polytope(qq, monkeypatch):
    p = Polytope(qq, [[1, 0], [0, 1], [-1, -1]], [0, 0, -1],
                 Quasilattice(qq, [[1, 0], [0, 1]]))
    calls = []
    real = linalg.nullspace

    def counted(rows, ncols, field):
        calls.append(ncols)
        return real(rows, ncols, field)

    monkeypatch.setattr(linalg, "nullspace", counted)
    seq = kernel_data(p)
    assert kernel_data(p) is seq
    assert calls == [3]


def test_kernel_data_rejects_a_corrupted_kernel_vector(qq, monkeypatch):
    """A kernel vector off the kernel fails pi . iota = 0; the dual check
    iota* . pi* = 0 would only recompute the same products, transposed."""
    p = Polytope(qq, [[1, 0], [0, 1], [-1, -1]], [0, 0, -1],
                 Quasilattice(qq, [[1, 0], [0, 1]]))
    real = linalg.nullspace

    def corrupted(rows, ncols, field):
        basis = real(rows, ncols, field)
        basis[0][0] = basis[0][0] + field.one()
        return basis

    monkeypatch.setattr(linalg, "nullspace", corrupted)
    with pytest.raises(ValidationError, match=r"kernel basis fails pi \. iota = 0"):
        kernel_data(p)
    assert p._kernel is None


def test_chart_sets_simple(triangle):
    charts = chart_index_sets(triangle)
    assert charts == [(1, 2), (1, 3), (2, 3)]


def test_chart_sets_pyramid(pyramid):
    charts = chart_index_sets(pyramid)
    apex_subsets = [c for c in charts if set(c) <= {1, 2, 3, 4}]
    # all four triples of slanted facets are independent: (1,2) opposite
    # pair is rank 2 only with another independent one; check via oracle
    for c in charts:
        rows = [pyramid.normals[j - 1] for j in c]
        assert linalg.rank(rows, 3) == 3
    # subsets of the apex active set of size 3 whose normals are independent
    from itertools import combinations
    oracle = [s for s in combinations((1, 2, 3, 4), 3)
              if linalg.rank([pyramid.normals[j - 1] for j in s], 3) == 3]
    assert apex_subsets == oracle and len(oracle) == 4


def test_gamma_trivial_on_unimodular(triangle):
    for I in chart_index_sets(triangle):
        g = gamma_group(triangle, I)
        assert g.finite and g.order == 1 and g.invariant_factors == []
        assert g.generator_images == []


def test_gamma_weighted_triangle(weighted_triangle):
    g = gamma_group(weighted_triangle, (1, 3))
    assert g.finite and g.order == 2 and g.invariant_factors == [2]
    for I in ((1, 2), (2, 3)):
        assert gamma_group(weighted_triangle, I).order == 1
    # Smith-normal-form oracle on the chart matrix
    mat = sympy.Matrix([[1, -1], [0, -2]])
    snf = smith_normal_form(mat)
    assert abs(snf[1, 1]) == 2


def test_gamma_orders_match_determinants(pyramid, cube, triangle, weighted_triangle):
    for p in (pyramid, cube, triangle, weighted_triangle):
        for I in chart_index_sets(p):
            g = gamma_group(p, I)
            d = linalg.det([p.normals[j - 1] for j in I], p.field)
            assert g.finite
            assert g.order == abs(d.as_fraction())


def test_gamma_infinite_nonrational(interval_sqrt2):
    g = gamma_group(interval_sqrt2, (1,))
    assert not g.finite and g.order is None
    assert g.order_text == "infinite"
    # the image of the sqrt2 generator survives mod Z
    assert any(not s.is_zero() for img in g.generator_images for s in img)


def test_gamma_precondition(triangle):
    with pytest.raises(PreconditionError):
        gamma_group(triangle, (1,))
    with pytest.raises(PreconditionError):
        gamma_group(triangle, (1, 2, 3))


# The trapezoid x >= 0, y >= 0, x <= 2, x + y <= 3 has vertices on the
# facets {1, 2}, {2, 3}, {3, 4} and {1, 4}; X_1 and X_3 are parallel, and
# the basis {2, 4} meets at (3, 0), outside it.
TRAPEZOID = ([[1, 0], [0, 1], [-1, 0], [-1, -1]], [0, 0, -2, -3])
SIZE = "chart index set must have size n"
RANGE = "chart index set out of range"
BASIS = "chart normals are not a basis"
VERTEX = "chart index set is not contained in a vertex"
# (chart, message); the later rows hold several faults, the first in the
# order size, range, basis, vertex is the one reported
CHART_PRECONDITIONS = [
    ((1,), SIZE), ((1, 2, 3), SIZE), ((2, 2), SIZE),
    ((0, 1), RANGE), ((1, 5), RANGE),
    ((1, 3), BASIS), ((2, 4), VERTEX),
    ((5, 5), SIZE), ((0, 2, 9), SIZE), ((3, 5), RANGE), ((3, 1), BASIS),
]


def test_gamma_precondition_messages_in_order(qq):
    p = Polytope(qq, *TRAPEZOID, Quasilattice(qq, [[1, 0], [0, 1]]))
    lat = p.face_lattice()
    assert chart_index_sets(p) == [(1, 2), (1, 4), (2, 3), (3, 4)]
    for chart, message in CHART_PRECONDITIONS:
        with pytest.raises(PreconditionError) as exc:
            gamma_group(p, chart)
        assert str(exc.value) == message, chart
        with pytest.raises(PreconditionError) as exc:
            gamma_check(p, chart, lat.interior)
        assert str(exc.value) == message, chart


def test_chart_queries_read_the_polytopes_own_lattice(octahedron, pyramid4):
    """No chart or stratification query takes a lattice, so one polytope's
    lattice cannot seed another's chart table."""
    for fn in (chart_index_sets, gamma_group, gamma_check,
               build_stratification, build_link):
        assert not any("lat" in name for name in inspect.signature(fn).parameters)
    assert len(chart_index_sets(octahedron)) == 24
    assert len(chart_index_sets(pyramid4)) == 12


# -- the chart table against the subset scan ---------------------------------


def oracle_charts(p):
    """Chart index set -> (inverse chart matrix, generator preimages): one
    rank test per n-subset of each vertex's active set, then the inverse
    of each basis and one product per generator."""
    charts = {}
    for active in p.face_lattice().vertex_active:
        for I in combinations(active, p.n):
            if I in charts or linalg.rank([p.normals[j - 1] for j in I],
                                          p.n) != p.n:
                continue
            matrix = [[p.normals[j - 1][i] for j in I] for i in range(p.n)]
            # the inverse column by column: column i solves M x = e_i
            inverse = linalg.transpose([linalg.solve_unique(matrix, e, p.field)
                                        for e in linalg.identity(p.n, p.field)])
            charts[I] = (inverse, [linalg.mat_vec(inverse, g)
                                   for g in p.quasilattice.generators])
    return charts


def _presentation(p, I, coords, images_on_chart) -> DiscreteGroupPresentation:
    """Reduce generator images mod 1, restrict to coords, decide finiteness."""
    field = p.field
    coord_list = tuple(coords)
    pos = {j: k for k, j in enumerate(I)}
    distinct = {}
    for theta in images_on_chart:
        full = [field.zero()] * p.d
        for j in coord_list:
            full[j - 1] = theta[pos[j]].frac_part()
        if any(not s.is_zero() for s in full):
            distinct.setdefault(tuple((s.num, s.den) for s in full), full)
    reduced = list(distinct.values())
    finite = all(s.is_rational() for img in reduced for s in img)
    if finite:
        denom, cleared = clear_denominators(
            [[img[j - 1].as_fraction() for j in coord_list] for img in reduced])
        order, factors = intlat.quotient_invariants(cleared, len(coord_list), denom)
    else:
        order, factors = None, None
    return DiscreteGroupPresentation(
        chart_index_set=tuple(I), coords=coord_list, generator_images=reduced,
        finite=finite, invariant_factors=factors, order=order)


def test_chart_table_matches_the_subset_scan(qq, q_sqrt2, octahedron, pyramid4,
                                             pyramid_sqrt2):
    """The chart table of every seeded, shipped and link polytope, the links
    being those of the recursion that ``test_face_bijection_into_link``
    walks: each link's table is read off its own inherited lattice."""
    shipped = [load_instance(str(path)).polytope
               for path in sorted(INSTANCES.glob("*.json"))]
    links = [link.delta_F
             for top in recursion_inputs(octahedron, pyramid4, pyramid_sqrt2)
             for link in _links(build_stratification(top))]
    assert len(links) == 44
    nonsimple = 0
    for p in _generated(qq, q_sqrt2) + shipped + links:
        lat = p.face_lattice()
        field = p.field
        oracle = oracle_charts(p)
        assert chart_index_sets(p) == sorted(oracle)
        face = (lat.singular_faces() or [lat.interior])[0]
        for I, (inverse, images) in oracle.items():
            assert gamma_group(p, I) == _presentation(p, I, I, images)
            for f in lat.faces:
                overlap = set(I) & set(f.index_set)
                if len(overlap) == p.n - f.dim:
                    coords = tuple(sorted(set(I) - overlap))
                    assert gamma_check(p, I, f) \
                        == _presentation(p, I, coords, images)
            columns = [linalg.mat_vec(inverse, x) for x in p.normals]
            assert _b_tilde(p, face, I).matrix == linalg.transpose(columns)
        # n_element: a seeded integer combination of the first chart's
        # generator preimages
        first = min(oracle)
        sampler, rng = Sampler(p, 5), random.Random(5)
        for _ in range(10):
            theta = [field.zero()] * p.d
            for pre in oracle[first][1]:
                c = rng.randint(-3, 3)
                for j, t in zip(first, pre):
                    theta[j - 1] += field.from_rational(c) * t
            assert sampler.n_element() == theta
        nonsimple += any(len(a) > p.n for a in lat.vertex_active)
    assert nonsimple >= 3


def test_integer_pivot_divides_exactly(qq, q_sqrt2, monkeypatch):
    """Every numerator T_ij T_rc - T_ic T_rj of an integer exchange is a
    multiple of the old denominator, so its floor division is exact: a
    dropped remainder would change a reduced row or a chart group without
    an error.  analyze and strata run every elimination over Q through
    ``linalg.exchange``: validation, the double-description start, the
    chart search, the link data and b-tilde."""
    exchange = linalg.exchange
    divisions = [0]

    def checked(tableau, denom, r, c):
        top = tableau[r]
        if type(top[c]) is int:
            for i, row in enumerate(tableau):
                if i != r:
                    for x, t in zip(row, top):
                        assert (x * top[c] - row[c] * t) % denom == 0
                    divisions[0] += len(row)
        return exchange(tableau, denom, r, c)

    monkeypatch.setattr(linalg, "exchange", checked)
    shipped = [load_instance(str(path)).polytope
               for path in sorted(INSTANCES.glob("*.json"))]
    refined = [half_lattice_triangle(qq), mixed_denominator_square(qq),
               half_lattice_pyramid(qq)]
    for p in _generated(qq, q_sqrt2) + shipped + refined:
        if p.field.degree != 1:
            continue
        # fresh copies: the shared polytopes may hold their tables already
        fresh = Polytope(p.field, p.normals, p.offsets, p.quasilattice)
        for I in chart_index_sets(fresh):
            gamma_group(fresh, I)
        build_stratification(Polytope(p.field, p.normals, p.offsets,
                                      p.quasilattice))
    assert divisions[0] > 20000


def test_gamma_check_vertex_trivial(weighted_triangle):
    lat = weighted_triangle.face_lattice()
    vertex = lat.face_of_active_set((1, 3))
    g = gamma_check(weighted_triangle, (1, 3), vertex)
    assert g.finite and g.order == 1
    assert g.coords == ()


def test_gamma_check_divides_gamma(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    for I in chart_index_sets(pyramid):
        if len(set(I) & set(apex.index_set)) != pyramid.n - apex.dim:
            continue
        gi = gamma_group(pyramid, I)
        gc = gamma_check(pyramid, I, apex)
        assert gc.finite and gi.finite
        assert gi.order % gc.order == 0


def test_gamma_check_infinite_nonrational(pyramid_sqrt2):
    lat = pyramid_sqrt2.face_lattice()
    # an edge of the nonrational pyramid whose transverse data is irrational
    found_infinite = False
    for f in lat.faces:
        if f.dim != 1:
            continue
        for I in chart_index_sets(pyramid_sqrt2):
            if len(set(I) & set(f.index_set)) == pyramid_sqrt2.n - f.dim:
                g = gamma_check(pyramid_sqrt2, I, f)
                if not g.finite:
                    found_infinite = True
    assert found_infinite


def test_gamma_check_cardinality_precondition(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    base = lat.face_of_active_set((5,))
    with pytest.raises(PreconditionError):
        gamma_check(pyramid, (1, 2, 5), apex)  # overlap 2 != 3
    assert base is not None


def test_n_membership_interval(interval):
    seq = kernel_data(interval)
    q = interval.quasilattice
    f = interval.field
    assert n_membership(seq, q, [f.from_rational(1), f.from_rational(2)])
    assert n_membership(seq, q, [f.from_rational(Fraction(1, 2)),
                                 f.from_rational(Fraction(1, 2))])
    assert not n_membership(seq, q, [f.from_rational(Fraction(1, 2)), f.zero()])
