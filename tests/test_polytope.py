"""Face lattice enumeration against brute-force oracles, plus the
structural invariants of the lattice."""

import functools
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from toricq import linalg
from toricq.errors import ValidationError
from toricq.groups import Quasilattice
from toricq.polytope import Polytope, cone_rays
from toricq.strata import build_stratification


# -- oracles: subset scans, independent of the double-description pass --------


def oracle_vertices(p):
    """Solve every n-subset of facets in lexicographic order; keep each
    feasible solution once, in order of first appearance."""
    coords, seen = [], set()
    for subset in combinations(range(p.d), p.n):
        mu = linalg.solve_unique([p.normals[i] for i in subset],
                                 [p.offsets[i] for i in subset], p.field)
        if mu is None or not p.contains_point(mu):
            continue
        key = tuple(s.coeffs for s in mu)
        if key not in seen:
            seen.add(key)
            coords.append(mu)
    return coords, [p.active_set(mu) for mu in coords]


def oracle_validation_error(p):
    """The first message of the reference checks (subset scans and ranks)
    in the order span, unbounded, quasilattice, empty, lower-dimensional,
    redundant, duplicate; None when the description is valid."""
    n, d = p.n, p.d
    if linalg.rank(p.normals, n) != n:
        return "facet normals do not span the ambient space"
    # a recession ray lies on n-1 independent active constraints
    for subset in combinations(range(d), n - 1):
        kernel = linalg.nullspace([p.normals[i] for i in subset], n, p.field)
        if len(kernel) != 1:
            continue
        signs = [linalg.dot(kernel[0], x).sign() for x in p.normals]
        if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
            return "polytope is unbounded"
    if p.quasilattice is None:
        return "polytope needs a quasilattice"
    for j, x in enumerate(p.normals, start=1):
        if not p.quasilattice.contains(x):
            return f"facet normal {j} is not in the quasilattice"
    coords, active = oracle_vertices(p)
    if not coords:
        return "polytope is empty"
    diffs = [linalg.vec_sub(v, coords[0]) for v in coords[1:]]
    if linalg.rank(diffs, n) != n:
        return "polytope is lower-dimensional"
    for j in range(1, d + 1):
        on = [coords[v] for v in range(len(coords)) if j in active[v]]
        if not on:
            return f"facet {j} is never active (redundant)"
        ds = [linalg.vec_sub(v, on[0]) for v in on[1:]]
        if linalg.rank(ds, n) != n - 1:
            return f"facet {j} is not an (n-1)-face (redundant)"
    if sum(1 for f in oracle_faces(p, active) if len(f[0]) == 1) != d:
        return "duplicate or redundant facet detected"
    return None


def oracle_faces(p, active):
    """(index set, dim, regular, depth, vertex ids) of every face in the
    lattice order, with dim = n - rank(X_I) and depth by a direct scan."""
    nverts = len(active)
    sets = {frozenset(v for v in range(nverts) if j in active[v])
            for j in range(1, p.d + 1)}
    sets.add(frozenset(range(nverts)))
    grown = True
    while grown:
        new = {a & b for a in sets for b in sets} - sets - {frozenset()}
        sets |= new
        grown = bool(new)
    entries = []
    for vset in sets:
        iset = tuple(sorted(set.intersection(*(set(active[v]) for v in vset))))
        rows = [p.normals[j - 1] for j in iset]
        dim = p.n - (linalg.rank(rows, p.n) if rows else 0)
        entries.append((iset, dim, len(iset) == p.n - dim, vset))
    entries.sort(key=lambda e: (e[1], e[0]))

    def depth(e):
        if e[2]:
            return 0
        above = [g for g in entries if set(g[0]) < set(e[0]) and not g[2]]
        return 1 + max((depth(g) for g in above), default=0)

    return [(e[0], e[1], e[2], depth(e), e[3]) for e in entries]


def oracle_covers(faces):
    """Hasse edges by the definition: a < b with nothing strictly between."""
    def lt(a, b):
        return a != b and set(a[0]) >= set(b[0])
    out = []
    for a in faces:
        ups = [b for b in faces if lt(a, b)]
        for b in ups:
            if not any(lt(a, c) and lt(c, b) for c in ups):
                out.append((a[0], b[0]))
    return out


def brute_force_faces(p):
    """Oracle: all open faces as index sets, found by scanning every facet
    subset and taking the active-set closure of its solution set's
    vertices, with the vertices from the subset-scan oracle."""
    _, active = oracle_vertices(p)
    found = set()
    for k in range(p.d + 1):
        for subset in combinations(range(1, p.d + 1), k):
            ids = [i for i in range(len(active)) if set(subset) <= set(active[i])]
            if not ids:
                continue
            common = set(active[ids[0]])
            for i in ids[1:]:
                common &= set(active[i])
            found.add(tuple(sorted(common)))
    return found


# -- seeded random H-polytopes --------------------------------------------------


def _scalar(field, rng, lo, hi):
    """A random field element: an integer, plus an integer times the
    generator over a field of degree 2."""
    coeffs = [rng.randint(lo, hi)] + [rng.randint(-1, 1)
                                      for _ in range(field.degree - 1)]
    return field.scalar(coeffs)


def _quasilattice(field, n):
    """Z^n, plus generator * Z^n over a field of degree 2."""
    gens = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    if field.degree > 1:
        t = field.generator()
        gens += [[t if i == j else field.zero() for i in range(n)]
                 for j in range(n)]
    return Quasilattice(field, gens)


def random_polytope(rng, field, n, cross, cuts):
    """A cube (or, with ``cross``, a cross-polytope) cut by up to ``cuts``
    random halfspaces.

    A cut goes halfway between two vertex levels or through a vertex that
    is not lowest, so many cuts leave nonsimple vertices.  A cut that the
    reference checks reject (it cut a facet away, or it only touches the
    polytope) is dropped."""
    one = field.one()
    if cross:
        normals = [[field.from_rational(s) for s in signs]
                   for signs in product((1, -1), repeat=n)]
    else:
        normals = [[one if i == j else field.zero() for i in range(n)]
                   for j in range(n)]
        normals += [[-x for x in v] for v in normals]
    # over a field of degree 2 some sides sit at -generator instead of -1
    offsets = [-field.generator() if field.degree > 1 and rng.random() < 0.5
               else -one for _ in normals]
    q = _quasilattice(field, n)
    p = Polytope(field, normals, offsets, q)
    for _ in range(cuts):
        a = [_scalar(field, rng, -2, 2) for _ in range(n)]
        if all(x.is_zero() for x in a):
            continue
        levels = sorted({linalg.dot(a, v) for v in p.face_lattice().vertex_coords},
                        key=lambda x: x.shadow()[0])
        if len(levels) < 2:
            continue
        i = rng.randrange(len(levels) - 1)
        lam = (levels[i] + levels[i + 1]) / 2
        if i > 0 and rng.random() < 0.5:
            lam = levels[i]
        cand = Polytope(field, normals + [a], offsets + [lam], q,
                        validate=False)
        if oracle_validation_error(cand) is None:
            normals, offsets = normals + [a], offsets + [lam]
            p = Polytope(field, normals, offsets, q)
    return p


# (dimension, cross-polytope base, cuts) per generated polytope
SHAPES = ([(2, False, 3), (2, True, 3), (3, False, 3), (3, True, 3)] * 3
          + [(4, False, 3)] * 2)
SHAPES_SQRT2 = [(2, False, 3), (2, True, 3), (3, False, 3), (3, True, 3)] * 2


@functools.cache
def _generated(qq, q_sqrt2):
    """The seeded polytopes, built once per session and shared by the
    tests that use them, which only read them (and fill their lazy
    caches)."""
    rng = random.Random(20240611)
    return ([random_polytope(rng, qq, *shape) for shape in SHAPES]
            + [random_polytope(rng, q_sqrt2, *shape) for shape in SHAPES_SQRT2])


def test_enumeration_matches_the_subset_scan(qq, q_sqrt2):
    nonsimple = 0
    for p in _generated(qq, q_sqrt2):
        lat = p.face_lattice()
        coords, active = oracle_vertices(p)
        assert lat.vertex_coords == coords
        assert lat.vertex_active == active
        faces = oracle_faces(p, active)
        assert [(f.index_set, f.dim, f.regular, f.depth, f.vertex_ids)
                for f in lat.faces] == faces
        assert [(a.index_set, b.index_set) for a, b in lat.covers()] \
            == oracle_covers(faces)
        assert brute_force_faces(p) == {f.index_set for f in lat.faces}
        # Euler-Poincare over the proper faces
        assert sum((-1) ** f.dim for f in lat.faces if f.dim < p.n) \
            == 1 - (-1) ** p.n
        nonsimple += any(len(a) > p.n for a in active)
    assert nonsimple >= 3   # the generator does reach degenerate vertices


# -- the double description against its scalar form ----------------------------


def _scalar_normalised(ray):
    """The ray scaled to a last coordinate of absolute value 1, or, when
    that is 0, to a first nonzero coordinate of absolute value 1."""
    scale = ray[-1]
    if scale.is_zero():
        scale = next(x for x in ray if not x.is_zero())
    if scale.sign() < 0:
        scale = -scale
    return [x / scale for x in ray]


def oracle_cone_rays(rows):
    """The double description on scalar rays in every field, each ray
    normalised as it is made: the reference for the integer rays that
    ``cone_rays`` runs on over Q."""
    field = rows[0][0].field
    dim, m = len(rows[0]), len(rows)
    tableau = [col + e for col, e in zip(linalg.transpose(rows),
                                         linalg.identity(dim, field))]
    red, start, _ = linalg._rref(tableau, m, m)
    if len(start) != dim:
        return None
    rays = [_scalar_normalised(row) for row in red]
    zeros = [sum(1 << k for k in start if k != i) for i in start]
    for k, row in enumerate(rows):
        if k in start:
            continue
        values = [linalg.dot(row, r) for r in rays]
        signs = [v.sign() for v in values]
        new_rays = [r for r, s in zip(rays, signs) if s >= 0]
        new_zeros = [z | 1 << k if s == 0 else z
                     for z, s in zip(zeros, signs) if s >= 0]
        for i in (i for i, s in enumerate(signs) if s > 0):
            for j in (j for j, s in enumerate(signs) if s < 0):
                common = zeros[i] & zeros[j]
                if common.bit_count() < dim - 2 or any(
                        zeros[t] & common == common
                        for t in range(len(rays)) if t not in (i, j)):
                    continue
                new_rays.append(_scalar_normalised(
                    [values[i] * b - values[j] * a
                     for a, b in zip(rays[i], rays[j])]))
                new_zeros.append(common | 1 << k)
        rays, zeros = new_rays, new_zeros
    return rays, zeros


def _homogenised(p):
    """The rows of the cone over ``p`` that ``_enumerate_vertices`` builds."""
    f = p.field
    return [[f.zero()] * p.n + [f.one()]] + [
        list(x) + [-lam] for x, lam in zip(p.normals, p.offsets)]


def test_integer_double_description_matches_the_scalar_one(qq, q_sqrt2):
    """Over Q the rays run as primitive integer vectors and become scalars
    once at the end; rays, their order and their zero masks are those of
    the scalar algorithm, which Q(sqrt2) still runs.  The kernel cones of
    ``sampling`` are checked in ``test_sampling``."""
    rng = random.Random(26)
    cones = [_homogenised(p) for p in _generated(qq, q_sqrt2)]
    for _ in range(60):   # random rational cones; some rows do not span
        dim = rng.randint(2, 5)
        cones.append([[qq.from_rational(Fraction(rng.randint(-4, 4),
                                                 rng.choice((1, 2, 3))))
                       for _ in range(dim)]
                      for _ in range(rng.randint(dim - 1, dim + 5))])
    degrees, none = set(), 0
    for rows in cones:
        want = oracle_cone_rays(rows)
        assert cone_rays(rows) == want
        if want is None:
            none += 1
        else:
            degrees.add(rows[0][0].field.degree)
    assert degrees == {1, 2} and none >= 3


def test_unbounded_and_nonspanning_cones(qq):
    # x >= 0, y >= 0: the recession rays end in t = 0
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    p = Polytope(qq, [[1, 0], [0, 1]], [0, 0], q, validate=False)
    rays, _ = cone_rays(_homogenised(p))
    assert rays == oracle_cone_rays(_homogenised(p))[0]
    assert sum(r[-1].is_zero() for r in rays) == 2
    with pytest.raises(ValidationError, match="^polytope is unbounded$"):
        Polytope(qq, [[1, 0], [0, 1]], [0, 0], q)
    # normals (1, 0), (-1, 0) leave y free: the rows do not span
    flat = Polytope(qq, [[1, 0], [-1, 0]], [0, -1], q, validate=False)
    assert cone_rays(_homogenised(flat)) is None
    with pytest.raises(ValidationError, match="^facet normals do not span"):
        Polytope(qq, [[1, 0], [-1, 0]], [0, -1], q)


def _link_polytopes(report, depth=1):
    """(depth, link polytope) of every link of the recursion under
    ``report``, depth first."""
    for s in report.strata:
        yield depth, s.link.delta_F
        yield from _link_polytopes(s.link.recursive_report, depth + 1)


def _pyramid_over_octahedron(qq):
    """The apex is on all eight slanted facets; its link is the octahedron,
    whose six vertices are singular, so the recursion reaches depth 2."""
    normals = [[sx, sy, sz, -1] for sx in (1, -1) for sy in (1, -1)
               for sz in (1, -1)] + [[0, 0, 0, 1]]
    return Polytope(qq, normals, [-1] * 8 + [0], _quasilattice(qq, 4))


def test_link_lattices_match_the_subset_scan_at_every_depth(qq, q_sqrt2):
    """Every link lattice of the recursion, read off its parent's interval,
    against the subset-scan oracles applied to the link polytope: vertices,
    faces (index set, dim, regular flag, depth, vertex ids) and covers."""
    inputs = [p for p in _generated(qq, q_sqrt2)
              if p.face_lattice().singular_faces()]
    inputs.append(_pyramid_over_octahedron(qq))
    depths = []
    for p in inputs:
        for depth, d in _link_polytopes(build_stratification(p)):
            lat = d.face_lattice()
            coords, active = oracle_vertices(d)
            assert lat.vertex_active == active
            assert lat.vertex_coords == coords
            faces = oracle_faces(d, active)
            assert [(f.index_set, f.dim, f.regular, f.depth, f.vertex_ids)
                    for f in lat.faces] == faces
            assert [(a.index_set, b.index_set) for a, b in lat.covers()] \
                == oracle_covers(faces)
            depths.append(depth)
    # 7 generated inputs have singular faces: 18 links; the pyramid over
    # the octahedron has 13 links at depth 1 and 12 at depth 2
    assert (len(inputs), depths.count(1), depths.count(2)) == (8, 31, 12)


def _random_description(rng, qq):
    """A small description that is often unbounded, empty, redundant or
    outside its quasilattice: random rows, half of the time added to the
    box [0, 2]^n."""
    n = rng.randint(1, 3)
    normals, offsets = [], []
    if rng.random() < 0.5:
        for i in range(n):
            normals += [[1 if k == i else 0 for k in range(n)],
                        [-1 if k == i else 0 for k in range(n)]]
            offsets += [0, -2]
    for _ in range(rng.randint(1, n + 2)):
        normals.append([rng.randint(-2, 2) for _ in range(n)])
        offsets.append(rng.randint(-3, 1))
    scale = rng.choice((1, 1, 2))
    gens = [[scale if i == j else 0 for i in range(n)] for j in range(n)]
    return n, normals, offsets, Quasilattice(qq, gens)


VERDICTS = ("span", "unbounded", "quasilattice", "empty", "lower-dimensional",
            "never active", "(n-1)-face", "duplicate")


def test_validation_matches_the_reference_checks(qq):
    """Same verdict and message as the reference checks, so the same
    precedence when a description has several defects."""
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n, normals, offsets, q = _random_description(rng, qq)
        want = oracle_validation_error(
            Polytope(qq, normals, offsets, q, validate=False))
        if want is None:
            p = Polytope(qq, normals, offsets, q)
            assert p.face_lattice().vertex_coords == oracle_vertices(p)[0]
            seen.add(None)
        else:
            with pytest.raises(ValidationError) as err:
                Polytope(qq, normals, offsets, q)
            assert str(err.value) == want
            seen.add(next(k for k in VERDICTS if k in want))
    assert seen == {None, *VERDICTS}


def test_cross_polytope_5_f_vector(qq):
    normals = [list(s) for s in product((1, -1), repeat=5)]
    gens = [[1 if i == j else 0 for i in range(5)] for j in range(5)]
    lat = Polytope(qq, normals, [-1] * 32, Quasilattice(qq, gens)).face_lattice()
    assert [sum(1 for f in lat.faces if f.dim == k) for k in range(5)] \
        == [10, 40, 80, 80, 32]
    # the vertices are +-e_i, each on 16 facets
    assert sorted(tuple(x.as_fraction() for x in v) for v in lat.vertex_coords) \
        == sorted(tuple(s if i == j else 0 for i in range(5))
                  for j in range(5) for s in (-1, 1))
    assert all(len(a) == 16 for a in lat.vertex_active)


@pytest.mark.parametrize("k", [5, 6])
def test_cube_lattice_closed_forms(qq, k):
    """f_j = C(k, j) 2^(k-j), and a j-face lies in k - j faces of dim j + 1."""
    normals = [[s if i == j else 0 for i in range(k)]
               for s in (1, -1) for j in range(k)]
    lat = Polytope(qq, normals, [0] * k + [-1] * k,
                   _quasilattice(qq, k)).face_lattice()
    f = [sum(1 for g in lat.faces if g.dim == j) for j in range(k + 1)]
    assert f == [comb(k, j) * 2 ** (k - j) for j in range(k + 1)]
    covers = lat.covers()
    assert len(covers) == sum(f[j] * (k - j) for j in range(k)) \
        == {5: 810, 6: 2916}[k]
    assert all(a.dim + 1 == b.dim and a.vertex_ids < b.vertex_ids
               for a, b in covers)


@pytest.mark.parametrize("n", [4, 5])
def test_cross_polytope_lattice_closed_forms(qq, n):
    """f_j = C(n, j + 1) 2^(j + 1) for the proper faces, which are
    simplices: a (j + 1)-face has j + 2 facets, and each facet is covered
    by the polytope itself."""
    normals = [list(s) for s in product((1, -1), repeat=n)]
    lat = Polytope(qq, normals, [-1] * 2 ** n,
                   _quasilattice(qq, n)).face_lattice()
    f = [sum(1 for g in lat.faces if g.dim == j) for j in range(n + 1)]
    assert f == [comb(n, j + 1) * 2 ** (j + 1) for j in range(n)] + [1]
    covers = lat.covers()
    assert len(covers) == sum(f[j + 1] * (j + 2) for j in range(n - 1)) + f[n - 1]
    assert len(covers) == {4: 224, 5: 832}[n]
    assert all(a.dim + 1 == b.dim and a.vertex_ids < b.vertex_ids
               for a, b in covers)


def test_unit_square_faces(unit_square):
    lat = unit_square.face_lattice()
    dims = sorted(f.dim for f in lat.faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert all(f.regular for f in lat.faces)
    assert brute_force_faces(unit_square) == {f.index_set for f in lat.faces}


def test_triangle_faces(triangle):
    lat = triangle.face_lattice()
    assert sorted(f.dim for f in lat.faces) == [0, 0, 0, 1, 1, 1, 2]
    assert all(f.regular for f in lat.faces)


def test_pyramid_faces(pyramid):
    lat = pyramid.face_lattice()
    singular = lat.singular_faces()
    assert len(singular) == 1
    apex = singular[0]
    assert apex.dim == 0
    assert apex.index_set == (1, 2, 3, 4)
    assert apex.r == 4
    base_vertices = [f for f in lat.faces if f.dim == 0 and f != apex]
    assert len(base_vertices) == 4
    assert all(v.regular and v.r == 3 for v in base_vertices)
    assert brute_force_faces(pyramid) == {f.index_set for f in lat.faces}


def test_pyramid_depth(pyramid):
    lat = pyramid.face_lattice()
    assert lat.polytope_depth == 1
    assert lat.face_by_index_set((1, 2, 3, 4)).depth == 1
    assert all(f.depth == 0 for f in lat.faces if f.index_set != (1, 2, 3, 4))


def test_simple_polytopes_have_depth_zero(cube, triangle, unit_square):
    for p in (cube, triangle, unit_square):
        total = p.face_lattice().polytope_depth
        assert total == 0


def test_pyramid4_depth_two(pyramid4):
    lat = pyramid4.face_lattice()
    total = lat.polytope_depth
    assert total == 2
    # brute-force longest singular ascent oracle
    faces = lat.faces
    def oracle_depth(f, seen=None):
        if f.regular:
            return 0
        sing_above = [g for g in faces if lat.lt(f, g) and not g.regular]
        return 1 + max((oracle_depth(g) for g in sing_above), default=0)
    for f in faces:
        assert f.depth == oracle_depth(f)


def test_face_of_active_set(pyramid):
    lat = pyramid.face_lattice()
    assert lat.face_of_active_set(()) is lat.interior
    apex = lat.face_of_active_set((1, 2, 3))
    assert apex is not None and apex.index_set == (1, 2, 3, 4)
    assert lat.face_of_active_set((1, 2, 3, 4, 5)) is None
    assert lat.face_of_active_set((0,)) is None       # labels run 1..d
    assert lat.face_of_active_set((1, 6)) is None
    for f in lat.faces:
        assert lat.face_of_active_set(f.index_set) is f


def test_reverse_containment_duality(pyramid, cube):
    for p in (pyramid, cube):
        lat = p.face_lattice()
        for a in lat.faces:
            for b in lat.faces:
                vertex_order = a.vertex_ids <= b.vertex_ids
                index_order = set(a.index_set) >= set(b.index_set)
                assert vertex_order == index_order


def test_rank_regularity_and_codim(pyramid, pyramid4, cube):
    for p in (pyramid, pyramid4, cube):
        lat = p.face_lattice()
        for f in lat.faces:
            assert f.r >= p.n - f.dim
            assert f.regular == (f.r == p.n - f.dim)
            if not f.regular:
                assert f.dim < p.n - 2


def test_facet_count_invariant(pyramid, cube, triangle):
    for p in (pyramid, cube, triangle):
        lat = p.face_lattice()
        assert sum(1 for f in lat.faces if f.r == 1) == p.d


def test_exact_vertex_coordinates(weighted_triangle):
    lat = weighted_triangle.face_lattice()
    coords = {tuple(Fraction(c.as_fraction()) for c in v)
              for v in lat.vertex_coords}
    assert coords == {(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
                      (Fraction(0), Fraction(1))}


def test_relint_point(pyramid):
    lat = pyramid.face_lattice()
    for f in lat.faces:
        mu = lat.relint_point(f)
        assert pyramid.active_set(mu) == f.index_set


def test_nonrational_pyramid_is_valid(pyramid_sqrt2):
    lat = pyramid_sqrt2.face_lattice()
    singular = lat.singular_faces()
    assert len(singular) == 1 and singular[0].index_set == (1, 2, 3, 4)


def test_unbounded_rejected(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError, match="unbounded"):
        Polytope(qq, [[1, 0], [0, 1]], [0, 0], q)


def test_empty_rejected(qq):
    q = Quasilattice(qq, [[1], [1]])
    with pytest.raises(ValidationError, match="^polytope is empty$"):
        Polytope(qq, [[1], [-1]], [1, 0], q)  # x >= 1 and x <= 0


def test_lower_dimensional_rejected(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError, match="^polytope is lower-dimensional$"):
        Polytope(qq, [[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0], q)


def test_redundant_facet_rejected(qq):
    q = Quasilattice(qq, [[1], [1]])
    with pytest.raises(ValidationError,
                       match=r"^facet 3 is never active \(redundant\)$"):
        Polytope(qq, [[1], [-1], [1]], [0, -1, -5], q)  # x >= -5 never active


def test_duplicate_facet_rejected(qq):
    q = Quasilattice(qq, [[1], [1]])
    with pytest.raises(ValidationError,
                       match="^duplicate or redundant facet detected$"):
        Polytope(qq, [[1], [-1], [1]], [0, -1, 0], q)


def test_empty_and_unbounded_reports_unbounded(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError, match="^polytope is unbounded$"):
        # x >= 1, x <= 0, y >= 0: empty, with recession direction (0, 1)
        Polytope(qq, [[1, 0], [-1, 0], [0, 1]], [1, 0, 0], q)


def test_unbounded_and_outside_quasilattice_reports_unbounded(qq):
    q = Quasilattice(qq, [[2]])
    with pytest.raises(ValidationError, match="^polytope is unbounded$"):
        Polytope(qq, [[1]], [0], q)


def test_empty_and_outside_quasilattice_reports_quasilattice(qq):
    q = Quasilattice(qq, [[2]])
    with pytest.raises(ValidationError,
                       match="^facet normal 1 is not in the quasilattice$"):
        Polytope(qq, [[1], [-1]], [1, 0], q)


def test_normal_outside_quasilattice_rejected(qq):
    q = Quasilattice(qq, [[2]])
    with pytest.raises(ValidationError, match="quasilattice"):
        Polytope(qq, [[1], [-1]], [0, -1], q)


def test_interval_face_lattice(interval):
    lat = interval.face_lattice()
    assert len(lat.faces) == 3  # two vertices and the interior
