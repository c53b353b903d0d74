"""Face lattice enumeration against a brute-force oracle, plus the
structural invariants of the lattice."""

from fractions import Fraction
from itertools import combinations

import pytest

from toricq.errors import ValidationError
from toricq.groups import Quasilattice
from toricq.polytope import Polytope


def brute_force_faces(p):
    """Oracle: all open faces as index sets, found by scanning every facet
    subset and taking the active-set closure of its solution set's vertices."""
    lat = p.face_lattice()  # vertices reused only as exact points
    verts = lat.vertex_coords
    active = lat.vertex_active
    found = set()
    for k in range(p.d + 1):
        for subset in combinations(range(1, p.d + 1), k):
            ids = [i for i in range(len(verts)) if set(subset) <= set(active[i])]
            if not ids:
                continue
            common = set(active[ids[0]])
            for i in ids[1:]:
                common &= set(active[i])
            found.add(tuple(sorted(common)))
    return found


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
    depths, total = lat.depths(), lat.polytope_depth
    assert total == 1
    assert depths[(1, 2, 3, 4)] == 1
    assert all(d == 0 for iset, d in depths.items() if iset != (1, 2, 3, 4))


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
    for f in lat.faces:
        assert lat.face_of_active_set(f.index_set) is f


def test_cd_delta_membership(pyramid):
    lat = pyramid.face_lattice()
    assert lat.cd_delta_membership([1, 1, 1, 1, 1]) is lat.interior
    apex = lat.cd_delta_membership([0, 0, 0, 0, 1])
    assert apex.index_set == (1, 2, 3, 4)
    assert lat.cd_delta_membership([0, 0, 0, 0, 0]) is None
    edge = lat.cd_delta_membership([0, 1, 0, 1, 1])
    assert edge.index_set == (1, 3)


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
    with pytest.raises(ValidationError):
        Polytope(qq, [[1], [-1]], [1, 0], q)  # x >= 1 and x <= 0


def test_lower_dimensional_rejected(qq):
    q = Quasilattice(qq, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError):
        Polytope(qq, [[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, 0, 0], q)


def test_redundant_facet_rejected(qq):
    q = Quasilattice(qq, [[1], [1]])
    with pytest.raises(ValidationError):
        Polytope(qq, [[1], [-1], [1]], [0, -1, -5], q)  # x >= -5 never active


def test_duplicate_facet_rejected(qq):
    q = Quasilattice(qq, [[1], [1]])
    with pytest.raises(ValidationError):
        Polytope(qq, [[1], [-1], [1]], [0, -1, 0], q)


def test_normal_outside_quasilattice_rejected(qq):
    q = Quasilattice(qq, [[2]])
    with pytest.raises(ValidationError, match="quasilattice"):
        Polytope(qq, [[1], [-1]], [0, -1], q)


def test_interval_face_lattice(interval):
    lat = interval.face_lattice()
    assert len(lat.faces) == 3  # two vertices and the interior
