"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (visible with pytest -s /
in the captured output); a failed assertion marks the criterion FAIL.
"""

import math
import time

import sympy
from sympy.matrices.normalforms import smith_normal_form

from toricq import verify
from toricq.groups import gamma_group
from toricq.moment import SolverConfig, moment_data, retract
from toricq.serialize import ProblemInstance
from toricq.strata import build_link, build_stratification

SQ2 = math.sqrt(0.5)


def _report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_interval_retraction(interval):
    md = moment_data(interval)
    start = time.perf_counter()
    res = retract(md, [1, 1])
    elapsed = time.perf_counter() - start
    assert abs(res.x[0] - SQ2) <= 1e-8 and abs(res.x[1] - SQ2) <= 1e-8
    assert abs(res.xi[0] - 0.5) <= 1e-8
    assert elapsed < 0.1
    _report(1, f"interval retraction x=(1/sqrt2,1/sqrt2), xi=1/2 "
               f"in {elapsed * 1e3:.2f} ms")


def test_criterion_02_square_pyramid_link(pyramid):
    start = time.perf_counter()
    lat = pyramid.face_lattice()
    singular = lat.singular_faces()
    assert len(singular) == 1
    apex = singular[0]
    assert apex.index_set == (1, 2, 3, 4) and apex.dim == 0
    depth = lat.polytope_depth
    assert depth == 1
    link = build_link(pyramid, apex)
    assert link.delta_F.n == 2
    assert link.delta_F.d == 4
    dlat = link.delta_F.face_lattice()
    assert sorted(f.dim for f in dlat.faces) == [0, 0, 0, 0, 1, 1, 1, 1, 2]
    assert link.n_f_dim == 1
    assert link.n_f0_dim == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"pyramid: one singular apex, depth 1, quadrilateral link, "
               f"kernel dims 1/2 in {elapsed * 1e3:.1f} ms")


def test_criterion_03_weighted_triangle_groups(weighted_triangle):
    g = gamma_group(weighted_triangle, (1, 3))
    assert g.finite and g.order == 2 and g.invariant_factors == [2]
    snf = smith_normal_form(sympy.Matrix([[1, -1], [0, -2]]))
    oracle = sorted(abs(snf[i, i]) for i in range(2) if snf[i, i] != 0)
    assert [f for f in oracle if f > 1] == [2]
    for I in ((1, 2), (2, 3)):
        assert gamma_group(weighted_triangle, I).order == 1
    _report(3, "weighted triangle: chart group Z/2 at vertex {1,3} matches "
               "the Smith-normal-form oracle; other charts trivial")


def test_criterion_04_nonrational_exact(interval_sqrt2):
    rank, basis = interval_sqrt2.quasilattice.rank_certificate()
    assert rank == 2
    assert interval_sqrt2.quasilattice.is_lattice is False
    g = gamma_group(interval_sqrt2, (1,))
    assert g.finite is False and g.order is None
    assert g.order_text == "infinite"
    _report(4, "Q = Z + sqrt2 Z: rank 2, not a lattice, chart group at {1} "
               "infinite, all exact")


def _run_suite(suite, p, seed: int, samples: int, cfg=None):
    """One verify suite on polytope p, drawing from Sampler(p, seed), with
    solver settings cfg (the defaults when None)."""
    instance = ProblemInstance(p, cfg or SolverConfig(), seed)
    return suite(verify._Context(instance, samples, seed))


def test_criterion_05_closed_orbit_suite(pyramid):
    start = time.perf_counter()
    result = _run_suite(verify.orbits_flow_nonclosed, pyramid, 20250810, 2500)
    elapsed = time.perf_counter() - start
    assert result.passed, result.witness
    assert result.samples == 500
    # the note reads "<k> nonclosed orbits among 500 samples"
    nonclosed = int(result.note.split()[0])
    closed = result.samples - nonclosed
    assert nonclosed > 0 and closed > 0
    assert elapsed < 10.0
    _report(5, f"closed-orbit theorem: flow oracle agrees on all "
               f"{nonclosed} nonclosed and {closed} closed samples "
               f"in {elapsed:.2f} s")


def test_criterion_06_p_invariance(pyramid):
    result = _run_suite(verify.orbits_p_invariance, pyramid, 77, 2000)
    assert result.passed, result.witness
    assert result.samples == 10000
    _report(6, "monomial-modulus invariance over 100 pairs x 100 subgroup "
               "elements within 1e-7 relative")


def test_criterion_07_retraction_uniqueness_and_a_invariance(pyramid):
    # the suites compare within 10x the solver tolerance: 1e-10 (stated: 1e-8)
    cfg = SolverConfig(tolerance=1e-11)
    tol = 10 * cfg.tolerance
    unique = _run_suite(verify.moment_retraction_unique, pyramid, 4242, 2000, cfg)
    assert unique.passed, unique.witness
    assert unique.samples == 200 and unique.tolerance == tol
    invariant = _run_suite(verify.moment_a_invariance, pyramid, 4242, 20000, cfg)
    assert invariant.passed, invariant.witness
    assert invariant.samples == 2000 and invariant.tolerance == tol
    _report(7, "retraction agrees over 3 starts on 200 seeded orbits and "
               "with 2000 orbit translates within 1e-10")


def test_criterion_08_equivalence_relation(pyramid):
    result = _run_suite(verify.orbits_equivalence_axioms, pyramid, 99, 2000)
    assert result.passed, result.witness
    assert result.samples == 200
    _report(8, "equivalence axioms hold on 200 seeded subgroup-action triples")


def test_criterion_09_rational_recovery(triangle, unit_square, cube):
    for p in (triangle, unit_square, cube):
        result = _run_suite(verify.orbits_face_orbit_bijection, p, 1234, 200)
        assert result.passed, result.witness
        assert result.samples > 0, result.note
        # the suite shows each face's orbit closes onto that face, so the
        # orbit poset is the face poset ordered by index sets
        lat = p.face_lattice()
        for a in lat.faces:
            for b in lat.faces:
                assert (set(a.index_set) > set(b.index_set)) == lat.lt(a, b)
        assert build_stratification(p).strata == []
    _report(9, "three rational simple instances reproduce the classical "
               "face-orbit correspondence with exact chart orders")


def test_criterion_10_gradient_hessian(pyramid, interval):
    for p, seed in ((pyramid, 5), (interval, 6)):
        for suite in (verify.moment_gradient_fd, verify.moment_hessian_pd):
            result = _run_suite(suite, p, seed, 500)
            assert result.passed, result.witness
            assert result.samples == 100
    _report(10, "analytic gradient matches finite differences at 1e-5 and "
                "the Hessian stays positive definite at 100 points per instance")
