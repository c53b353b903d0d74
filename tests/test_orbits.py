import gc
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from toricq import linalg, orbits
from toricq.errors import DomainError, PreconditionError
from toricq.groups import Quasilattice, _chart_preimage
from toricq.moment import retract
from toricq.orbits import (MAXIMAL_PIECE, ExactVector, _moment_for,
                           _phase_test, classify_orbit, equivalent,
                           n_orbit_equal, p_function, stratum_of)
from toricq.sampling import Sampler, nonclosed_flow_direction
from toricq.serialize import load_instance
from toricq.verify import run_verification

SQ2 = math.sqrt(0.5)
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = sorted(INSTANCES.glob("*.json"))


def test_classify_interior(pyramid):
    lat = pyramid.face_lattice()
    oc = classify_orbit(pyramid, lat, [1, 1, 1, 1, 1])
    assert oc.closed and oc.face_E is lat.interior
    assert np.allclose(oc.closed_rep, [1, 1, 1, 1, 1])


def test_classify_nonclosed_pyramid(pyramid):
    lat = pyramid.face_lattice()
    oc = classify_orbit(pyramid, lat, [0, 0, 0, 1, 1])
    assert not oc.closed
    assert oc.i_z == (1, 2, 3)
    assert oc.face_E.index_set == (1, 2, 3, 4)
    assert np.allclose(oc.closed_rep, [0, 0, 0, 0, 1])
    assert oc.retracted.zero_set == (1, 2, 3, 4)


def test_classify_closed_apex(pyramid):
    lat = pyramid.face_lattice()
    oc = classify_orbit(pyramid, lat, [0, 0, 0, 0, 1])
    assert oc.closed and oc.face_E.index_set == (1, 2, 3, 4)


def test_classify_outside_domain(pyramid):
    lat = pyramid.face_lattice()
    with pytest.raises(DomainError):
        classify_orbit(pyramid, lat, [0, 0, 0, 0, 0])


def test_classify_exactness_flag(pyramid, qq):
    lat = pyramid.face_lattice()
    ev = ExactVector(qq, [0, 0, 0, 0, 1], [0, 0, 0, 0, 0])
    oc = classify_orbit(pyramid, lat, ev)
    assert oc.exactness == "exact"
    oc2 = classify_orbit(pyramid, lat, [0, 0, 0, 0, 1])
    assert oc2.exactness == "approximate"


def test_canonical_idempotence(pyramid):
    lat = pyramid.face_lattice()
    s = Sampler(pyramid, 17)
    for _ in range(20):
        z = s.random_admissible_point()
        oc = classify_orbit(pyramid, lat, z)
        oc2 = classify_orbit(pyramid, lat, oc.closed_rep)
        assert oc2.closed
        assert np.allclose(oc2.closed_rep, oc.closed_rep)


def test_p_function_trivial(interval):
    pf = p_function(interval, [Fraction(1, 2)], [Fraction(1, 2)])
    assert all(c.is_zero() for c in pf.exponents)
    assert pf.evaluate([3 + 4j, 2j]) == 1.0


def test_p_function_interval(interval):
    pf = p_function(interval, [1], [0])
    assert [c.as_fraction() for c in pf.exponents] == [1, -1]
    w = np.array([2 + 1j, 0.5 - 0.25j])
    for t in (2.0, 0.3):
        assert pf.evaluate(t * w) == pytest.approx(pf.evaluate(w))
    # eta = 0 is the vertex with facet 1 active
    assert pf.domain_face.index_set == (1,)


def test_p_function_exponent_values_pyramid(pyramid):
    # apex vs base barycenter: exact pairings give -1 on slants, +1 on base
    pf = p_function(pyramid, [0, 0, 1], [0, 0, 0])
    vals = [c.as_fraction() for c in pf.exponents]
    assert vals == [-1, -1, -1, -1, 1]


def test_p_function_zero_exponents_on_shared_facets(pyramid):
    # edge point and apex both lie on slanted facets 1 and 3
    lat = pyramid.face_lattice()
    edge = lat.face_of_active_set((1, 3))
    xi = lat.relint_point(edge)
    pf = p_function(pyramid, xi, [0, 0, 1], lat)
    for j in (1, 3):
        assert pf.exponents[j - 1].is_zero()
    assert pf.domain_face.index_set == (1, 2, 3, 4)


def test_p_function_domain_error(interval):
    pf = p_function(interval, [1], [0])
    with pytest.raises(DomainError):
        pf.evaluate([1.0, 0.0])  # negative exponent at a zero coordinate


def test_p_function_outside_polytope(interval):
    with pytest.raises(PreconditionError):
        p_function(interval, [2], [0])


def test_p_invariance_sampled(pyramid):
    lat = pyramid.face_lattice()
    s = Sampler(pyramid, 23)
    verts = [lat.relint_point(v) for v in lat.vertices()]
    pf = p_function(pyramid, verts[0], verts[1], lat)
    w = s.point_with_zeros(())
    base = pf.evaluate(w)
    for _ in range(30):
        theta, Y = s.nc_pair()
        moved = s.apply(w, theta, Y)
        assert abs(pf.evaluate(moved) - base) <= 1e-7 * abs(base)


def test_n_orbit_equal_exact(interval, qq):
    half = Fraction(1, 2)
    x = ExactVector(qq, [half, half], [0, 0])
    y = ExactVector(qq, [half, half], [Fraction(1, 3), Fraction(1, 3)])
    v = n_orbit_equal(interval, x, y)
    assert v.equal and v.exactness == "exact"
    y2 = ExactVector(qq, [half, half], [Fraction(1, 3), 0])
    v2 = n_orbit_equal(interval, x, y2)
    assert not v2.equal and v2.exactness == "exact"


def test_n_orbit_equal_reflexive(interval):
    x = [SQ2, SQ2]
    v = n_orbit_equal(interval, x, x)
    assert v.equal


def test_n_orbit_equal_vertex_freedom(interval, qq):
    x = ExactVector(qq, [1, 0], [0, 0])
    y = ExactVector(qq, [1, 0], [Fraction(1, 7), 0])
    assert n_orbit_equal(interval, x, y).equal


def test_n_orbit_equal_moduli_mismatch(interval, qq):
    x = ExactVector(qq, [Fraction(1, 2), Fraction(1, 2)], [0, 0])
    bad = ExactVector(qq, [Fraction(1, 4), Fraction(3, 4)], [0, 0])
    v = n_orbit_equal(interval, x, bad)
    assert not v.equal and "moduli" in v.reason


def test_n_orbit_equal_precondition(interval):
    with pytest.raises(PreconditionError):
        n_orbit_equal(interval, [1, 1], [1, 1])


def test_equivalent_reflexive(interval):
    res = equivalent(interval, [1, 1], [1, 1])
    assert res.equivalent


def test_equivalent_diagonal_scaling(interval):
    res = equivalent(interval, [1, 1], [2, 2])
    assert res.equivalent
    assert np.allclose(np.abs(res.orbit_z.retracted.x), [SQ2, SQ2], atol=1e-8)
    assert np.allclose(np.abs(res.orbit_w.retracted.x), [SQ2, SQ2], atol=1e-8)


def test_equivalent_distinct_vertices(interval):
    res = equivalent(interval, [1, 0], [0, 1])
    assert not res.equivalent
    assert res.reason == "closure faces differ"


def test_equivalent_axioms_sampled(pyramid):
    lat = pyramid.face_lattice()
    s = Sampler(pyramid, 41)
    for _ in range(15):
        z = s.random_admissible_point()
        theta1, Y1 = s.nc_pair()
        theta2, Y2 = s.nc_pair()
        gz = s.apply(z, theta1, Y1)
        ggz = s.apply(gz, theta2, Y2)
        assert equivalent(pyramid, z, z).equivalent
        assert equivalent(pyramid, z, gz).equivalent
        assert equivalent(pyramid, gz, z).equivalent
        assert equivalent(pyramid, gz, ggz).equivalent
        assert equivalent(pyramid, z, ggz).equivalent


def test_equivalent_exact_phase_separation(interval, qq):
    half = Fraction(1, 2)
    x = ExactVector(qq, [half, half], [0, 0])
    y = ExactVector(qq, [half, half], [Fraction(1, 3), 0])
    res = equivalent(interval, x, y)
    assert not res.equivalent
    assert res.exactness == "exact"


def test_stratum_of(pyramid):
    lat = pyramid.face_lattice()
    assert stratum_of(pyramid, lat, [1, 1, 1, 1, 1]) == MAXIMAL_PIECE
    apex = stratum_of(pyramid, lat, [0, 0, 0, 0, 1])
    assert apex.index_set == (1, 2, 3, 4)
    assert stratum_of(pyramid, lat, [0, 1, 1, 1, 1]) == MAXIMAL_PIECE


def test_flow_confirms_nonclosedness(pyramid):
    lat = pyramid.face_lattice()
    oc = classify_orbit(pyramid, lat, [0, 0, 0, 1, 1])
    Y = nonclosed_flow_direction(pyramid, oc)
    z = np.array([0, 0, 0, 1, 1], dtype=complex)
    prev = None
    for t in np.linspace(0.0, 2.5, 11):
        moved = np.exp(-2 * math.pi * t * Y) * z
        decaying = abs(moved[3])  # label 4 = I_E \ I_z
        stable = abs(moved[4])
        if prev is not None:
            assert decaying < prev
        prev = decaying
        assert stable == pytest.approx(1.0)
    assert prev <= 1e-6


def test_flow_direction_requires_nonclosed(pyramid):
    lat = pyramid.face_lattice()
    oc = classify_orbit(pyramid, lat, [1, 1, 1, 1, 1])
    with pytest.raises(PreconditionError):
        nonclosed_flow_direction(pyramid, oc)


def test_canonical_reduced_witness(pyramid):
    lat = pyramid.face_lattice()
    z = np.array([0, 0, 0, 0, 1j], dtype=complex)
    oc = classify_orbit(pyramid, lat, z)
    x, xi = oc.canonical()
    support = np.flatnonzero(x != 0)
    assert np.angle(x[support[0]]) == pytest.approx(0.0)


def test_no_module_state_pins_a_polytope():
    def classify_fresh():
        p = load_instance(str(INSTANCES / "square_pyramid.json")).polytope
        classify_orbit(p, p.face_lattice(), [1, 1, 1, 1, 1])
        return weakref.ref(p)

    def equivalent_fresh():
        # fills both per-face caches of the polytope's moment data
        inst = load_instance(str(INSTANCES / "square_pyramid.json"))
        p = inst.polytope
        s = Sampler(p, 3)
        face = p.face_lattice().faces[0]
        z = s.exact_point_for_face(face)
        assert equivalent(p, z, z.with_phase_shift(s.n_element())).equivalent
        assert _moment_for(p).phase_tests
        return weakref.ref(p)

    refs = [classify_fresh(), equivalent_fresh()]
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_sampler_shares_the_moment_data_of_classify(monkeypatch):
    p = load_instance(str(INSTANCES / "square_pyramid.json")).polytope
    used = []

    def spy(md, *args, **kwargs):
        used.append(md)
        return retract(md, *args, **kwargs)

    monkeypatch.setattr(orbits, "retract", spy)
    classify_orbit(p, p.face_lattice(), [1, 1, 1, 1, 1])
    assert Sampler(p, 5).md is used[0]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda f: f.stem)
def test_phase_test_cache_matches_fresh_data(path):
    p = load_instance(str(path)).polytope
    md = _moment_for(p)
    for face in p.face_lattice().faces:
        test = _phase_test(md, face.index_set)
        assert _phase_test(md, face.index_set) is test
        ann = linalg.nullspace([p.normals[j - 1] for j in face.index_set],
                               p.n, p.field)
        assert test.ann == ann
        if not ann:
            assert test.group is None
            continue
        images = [[linalg.dot(f, g) for f in ann]
                  for g in p.quasilattice.generators]
        fresh = Quasilattice(p.field, images, validate=False)
        assert test.group.rank_certificate() == fresh.rank_certificate()
        assert not test.Ff.flags.writeable
        assert test.B is None or not test.B.flags.writeable


@pytest.mark.parametrize("path", SHIPPED, ids=lambda f: f.stem)
def test_per_face_caches_stay_within_the_face_lattice(path):
    inst = load_instance(str(path))
    assert run_verification(inst, samples=200, seed=7).passed
    md = _moment_for(inst.polytope)
    n_faces = len(inst.polytope.face_lattice().faces)
    assert 0 < len(md.subspaces) <= n_faces
    assert 0 < len(md.phase_tests) <= n_faces
    for R in md.subspaces.values():
        assert not R.flags.writeable
    for test in md.phase_tests.values():
        for a in (test.Ff, test.B):
            assert a is None or not a.flags.writeable


@pytest.mark.parametrize("path", SHIPPED, ids=lambda f: f.stem)
def test_n_element_matches_the_chart_solve_of_the_combination(path):
    p = load_instance(str(path)).polytope
    field = p.field
    fast, slow = Sampler(p, 11), Sampler(p, 11)
    chart = slow._charts[0]
    for _ in range(200):
        # the former formula: combine the generators, then solve on the chart
        q = [field.zero()] * p.n
        for g in p.quasilattice.generators:
            c = slow.rng.randint(-3, 3)
            if c:
                q = linalg.vec_add(q, linalg.vec_scale(field.from_rational(c), g))
        theta = [field.zero()] * p.d
        for j, t in zip(chart, _chart_preimage(p, chart, q)):
            theta[j - 1] = t
        assert fast.n_element() == theta
