from pathlib import Path

import numpy as np
import pytest

from toricq import linalg
from toricq.errors import PreconditionError
from toricq.groups import Quasilattice, kernel_data
from toricq.moment import derived_moment_data, psi, retract, upsilon
from toricq.polytope import Polytope
from toricq.serialize import load_instance
from toricq.strata import (_pivot_basis, build_link, build_stratification,
                           local_model, node_key)

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture(scope="module")
def octahedron(qq):
    normals = [[sx, sy, sz] for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    q = Quasilattice(qq, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return Polytope(qq, normals, [-1] * 8, q)


def test_simple_polytope_has_no_strata(cube):
    report = build_stratification(cube)
    assert report.strata == []
    assert report.polytope_depth == 0
    assert report.poset_nodes == ["max"]
    assert report.maximal.complex_dim == 3


def test_pyramid_link(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    assert link.facet_labels == (1, 2, 3, 4)
    assert link.n_f_dim == 1
    assert link.n_f0_dim == 2
    assert link.delta_F.n == 2
    assert link.delta_F.d == 4
    # the link is a quadrilateral: four vertices, four edges, all regular
    dlat = link.delta_F.face_lattice()
    assert sorted(f.dim for f in dlat.faces) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert all(f.regular for f in dlat.faces)
    assert link.recursive_report.strata == []


def test_build_link_rejects_regular_face(pyramid):
    lat = pyramid.face_lattice()
    base = lat.face_of_active_set((5,))
    with pytest.raises(PreconditionError):
        build_link(pyramid, lat, base)


def test_octahedron_vertex_links(octahedron):
    lat = octahedron.face_lattice()
    singular = lat.singular_faces()
    assert len(singular) == 6 and all(f.dim == 0 and f.r == 4 for f in singular)
    link = build_link(octahedron, lat, singular[0])
    assert link.delta_F.n == 2 and link.delta_F.d == 4


def test_pyramid_stratification(pyramid):
    report = build_stratification(pyramid)
    assert len(report.strata) == 1
    s = report.strata[0]
    assert s.complex_dim == 0 and s.depth == 1
    assert s.chart_index_set == (1, 2, 3)  # lexicographically smallest chart
    assert s.chart_coords == ()  # the chart base is a point
    assert s.chart_group.order == 1
    assert report.poset_edges == [(node_key(s.face), "max")]
    assert report.polytope_depth == 1
    assert s.link_real_dim_computed == 5  # 2n - 2p - 1 with n=3, p=0
    assert s.link_real_dim_stated == 7
    assert s.link_dim_discrepancy


def test_pyramid4_two_level_recursion(pyramid4):
    report = build_stratification(pyramid4)
    assert report.polytope_depth == 2
    assert len(report.strata) == 3  # two singular vertices and one edge
    dims = sorted(s.complex_dim for s in report.strata)
    assert dims == [0, 0, 1]
    apex_entry = next(s for s in report.strata
                      if s.face.index_set == (1, 2, 3, 4, 5))
    inner = apex_entry.link.recursive_report
    assert len(inner.strata) == 1  # the link is a square-pyramid-like solid
    assert inner.polytope_depth == 1
    # the edge stratum has a positive-dimensional chart base
    edge_entry = next(s for s in report.strata if s.complex_dim == 1)
    assert len(edge_entry.chart_coords) == 1


def test_poset_edges_pyramid4(pyramid4):
    lat = pyramid4.face_lattice()
    report = build_stratification(pyramid4, lat)
    edge_face = next(s.face for s in report.strata if s.complex_dim == 1)
    vertex_keys = [node_key(s.face) for s in report.strata if s.complex_dim == 0]
    expected = {(vk, node_key(edge_face)) for vk in vertex_keys}
    expected.add((node_key(edge_face), "max"))
    assert set(report.poset_edges) == expected


def test_face_bijection_into_link(pyramid4):
    """Faces of the link polytope correspond to faces strictly above the
    singular face, dimension shifted by p+1, singularity preserved."""
    lat = pyramid4.face_lattice()
    for face in lat.singular_faces():
        link = build_link(pyramid4, lat, face)
        dlat = link.delta_F.face_lattice()
        pos = {j: i + 1 for i, j in enumerate(link.facet_labels)}
        mapped = {}
        for g in lat.faces:
            if g.index_set != face.index_set and lat.lt(face, g):
                local = tuple(sorted(pos[j] for j in g.index_set))
                mapped[local] = g
        link_sets = {f.index_set: f for f in dlat.faces}
        assert set(mapped) == set(link_sets)
        for local, g in mapped.items():
            f_local = link_sets[local]
            assert f_local.dim == g.dim - face.dim - 1
            assert f_local.regular == g.regular


def test_kernel_split(pyramid, pyramid4):
    """The link-polytope kernel is the cone kernel plus the slicing
    direction, as an exact rank-1 extension."""
    for p in (pyramid, pyramid4):
        lat = p.face_lattice()
        for face in lat.singular_faces():
            link = build_link(p, lat, face)
            field = p.field
            r = len(link.facet_labels)
            s_vec = [field.one()] * r
            combined = [list(v) for v in link.cone_kernel] + [s_vec]
            assert linalg.rank(combined, r) == link.n_f0_dim
            dseq = kernel_data(link.delta_F)
            for v in combined:
                img = dseq.pi(v)
                assert all(s.is_zero() for s in img)


def test_link_depth_decreases(pyramid4):
    lat = pyramid4.face_lattice()
    for face in lat.singular_faces():
        link = build_link(pyramid4, lat, face)
        assert link.recursive_report.polytope_depth == face.depth - 1


def test_b_tilde_matrix_is_exact_change_of_basis(pyramid):
    report = build_stratification(pyramid)
    s = report.strata[0]
    I = s.chart_index_set
    for k in range(1, pyramid.d + 1):
        recon = [pyramid.field.zero()] * pyramid.n
        for h, j in enumerate(I):
            recon = linalg.vec_add(
                recon, linalg.vec_scale(s.b_tilde.matrix[h][k - 1],
                                        pyramid.normals[j - 1]))
        assert all((a - b).is_zero()
                   for a, b in zip(recon, pyramid.normals[k - 1]))
    assert set(s.b_tilde.domain_labels) == \
        set(range(1, 6)) - set(I) - set(s.face.index_set)


def test_local_model_pyramid(pyramid):
    lat = pyramid.face_lattice()
    report = build_stratification(pyramid, lat)
    apex = lat.singular_faces()[0]
    lm = local_model(report, apex)
    assert lm.base_coords == ()
    assert lm.group.finite
    assert lm.cone_group_dim == 1 and lm.cone_group_dim_sliced == 2
    base = lat.face_of_active_set((5,))
    with pytest.raises(PreconditionError):
        local_model(report, base)


def test_derived_moment_data_sigma(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    md = derived_moment_data("sigma_F", link)
    assert md.d == 4 and md.m == 1
    # the cone point is on the zero level
    assert np.linalg.norm(psi(md, [0, 0, 0, 0])) < 1e-12
    assert np.allclose(upsilon(md, [0, 0, 0, 0]), 0)
    res = retract(md, [1, 1, 1, 1])
    assert res.residual <= 1e-9


def test_derived_moment_data_delta(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    md = derived_moment_data("delta_F", link)
    assert md.d == 4 and md.m == 2
    # pairing with the slicing direction is sum s_j |z_j|^2 - 1
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        ups = upsilon(md, z)
        assert ups.sum() == pytest.approx(float(np.abs(z) ** 2 @ np.ones(4)) - 1)
    res = retract(md, [1, 1, 1, 1])
    assert res.residual <= 1e-9


def test_derived_moment_data_rejects_unknown_kind(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    with pytest.raises(PreconditionError):
        derived_moment_data("nonsense", link)


def test_sigma_retract_rejects_nonface_support(pyramid):
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    md = derived_moment_data("sigma_F", link)
    # zeros on local coordinates {1, 2} = parent facets {1, 2}: opposite
    # slants meet only at the apex, so this is not a face pattern
    with pytest.raises(PreconditionError):
        retract(md, [0, 0, 1, 1])


def test_sigma_retract_on_proper_cone_face(pyramid):
    # zeros on adjacent slants {1, 3} match the edge above the apex, a
    # genuine face of the cone
    lat = pyramid.face_lattice()
    apex = lat.singular_faces()[0]
    link = build_link(pyramid, lat, apex)
    md = derived_moment_data("sigma_F", link)
    res = retract(md, [0, 2.0, 0, 0.5])
    assert res.residual <= 1e-9
    assert res.zero_set == (1, 3)


def test_sub_quasilattice_saturation(pyramid4):
    """The link quasilattice is the exact intersection of Z^4 with the
    span of the singular edge's normals (vectors with equal last two
    coordinates, here)."""
    from toricq.strata import _span_coords

    lat = pyramid4.face_lattice()
    edge = next(f for f in lat.singular_faces() if f.dim == 1)
    link = build_link(pyramid4, lat, edge)
    assert edge.index_set == (1, 2, 3, 4)
    field = pyramid4.field
    basis = link.d_F_basis

    def in_link_lattice(vec):
        coords = _span_coords(basis, [field.from_rational(c) for c in vec],
                              4, field)
        return link.q_f.contains(coords)

    # integer vectors inside the span belong to the saturation
    assert in_link_lattice([0, 0, 1, 1])
    assert in_link_lattice([1, 0, 0, 0])
    assert in_link_lattice([-2, 3, 5, 5])
    # and the span membership itself is equal-last-two-coordinates
    with pytest.raises(Exception):
        _span_coords(basis, [field.one(), field.zero(), field.zero(),
                             field.one()], 4, field)


def test_nonrational_pyramid_stratifies(pyramid_sqrt2):
    report = build_stratification(pyramid_sqrt2)
    assert len(report.strata) == 1
    s = report.strata[0]
    assert s.link.delta_F.d == 4 and s.link.delta_F.n == 2
    assert s.link.n_f_dim == 1 and s.link.n_f0_dim == 2


def _greedy_pivot_basis(p, labels):
    """Oracle: keep each active normal that raises the rank, in label order."""
    basis, basis_labels = [], []
    for j in labels:
        cand = basis + [p.normals[j - 1]]
        if linalg.rank(cand, p.n) == len(cand):
            basis = cand
            basis_labels.append(j)
    return basis, tuple(basis_labels)


@pytest.mark.parametrize("name", sorted(f.stem for f in INSTANCES.glob("*.json")))
def test_pivot_basis_matches_greedy_rank_loop(name):
    p = load_instance(str(INSTANCES / f"{name}.json")).polytope
    for face in p.face_lattice().singular_faces():
        assert _pivot_basis(p, face.index_set) == \
            _greedy_pivot_basis(p, face.index_set)
