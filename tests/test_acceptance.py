"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS line on success (visible with pytest -s /
in the captured output); a failed assertion marks the criterion FAIL.
"""

import math
import time

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from toricq import linalg
from toricq.groups import (chart_index_sets, gamma_group)
from toricq.moment import SolverConfig, moment_data, retract
from toricq.orbits import classify_orbit, equivalent, p_function
from toricq.sampling import Sampler, nonclosed_flow_direction
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
    link = build_link(pyramid, lat, apex)
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
    lat = weighted_triangle.face_lattice()
    g = gamma_group(weighted_triangle, (1, 3), lat)
    assert g.finite and g.order == 2 and g.invariant_factors == [2]
    snf = smith_normal_form(sympy.Matrix([[1, -1], [0, -2]]))
    oracle = sorted(abs(snf[i, i]) for i in range(2) if snf[i, i] != 0)
    assert [f for f in oracle if f > 1] == [2]
    for I in ((1, 2), (2, 3)):
        assert gamma_group(weighted_triangle, I, lat).order == 1
    _report(3, "weighted triangle: chart group Z/2 at vertex {1,3} matches "
               "the Smith-normal-form oracle; other charts trivial")


def test_criterion_04_nonrational_exact(interval_sqrt2):
    rank, basis = interval_sqrt2.quasilattice.rank_certificate()
    assert rank == 2
    assert interval_sqrt2.quasilattice.is_lattice is False
    g = gamma_group(interval_sqrt2, (1,), interval_sqrt2.face_lattice())
    assert g.finite is False and g.order is None
    assert g.order_text == "infinite"
    _report(4, "Q = Z + sqrt2 Z: rank 2, not a lattice, chart group at {1} "
               "infinite, all exact")


def test_criterion_05_closed_orbit_suite(pyramid):
    tol = 1e-6
    lat = pyramid.face_lattice()
    sampler = Sampler(pyramid, 20250810)
    start = time.perf_counter()
    nonclosed = 0
    closed = 0
    for _ in range(500):
        z = sampler.point_biased_nonclosed()
        oc = classify_orbit(pyramid, lat, z)
        zc = np.asarray(z, dtype=complex)
        if oc.closed:
            closed += 1
            Y = sampler.a_element()
            moved = sampler.apply(z, None, Y)
            moved_zeros = tuple(int(j) + 1 for j in np.flatnonzero(moved == 0))
            assert moved_zeros == oc.i_z  # stationary support
            continue
        nonclosed += 1
        Y = nonclosed_flow_direction(pyramid, oc)
        decay = [j for j in oc.face_E.index_set if j not in set(oc.i_z)]
        sizes = []
        for t in np.linspace(0.0, 2.5, 11):
            moved = np.exp(-2 * math.pi * t * Y) * zc
            sizes.append(max(abs(moved[j - 1]) for j in decay))
            off_face = [abs(moved[j - 1]) for j in range(1, 6)
                        if j not in set(oc.face_E.index_set)]
            assert min(off_face) > 0
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= tol * max(1.0, sizes[0])
    elapsed = time.perf_counter() - start
    assert nonclosed > 0 and closed > 0
    assert elapsed < 10.0
    _report(5, f"closed-orbit theorem: flow oracle agrees on all "
               f"{nonclosed} nonclosed and {closed} closed samples "
               f"in {elapsed:.2f} s")


def test_criterion_06_p_invariance(pyramid):
    tol = 1e-7
    lat = pyramid.face_lattice()
    sampler = Sampler(pyramid, 77)
    verts = lat.vertices()
    checked = 0
    for i in range(100):
        va = sampler.rng.choice(verts)
        vb = sampler.rng.choice(verts)
        pf = p_function(pyramid, lat.relint_point(va), lat.relint_point(vb), lat)
        w = sampler.point_with_zeros(())
        base = pf.evaluate(w)
        for _ in range(100):
            theta, Y = sampler.nc_pair()
            moved = sampler.apply(w, theta, Y)
            assert abs(pf.evaluate(moved) - base) <= tol * abs(base)
            checked += 1
    assert checked == 10000
    _report(6, "monomial-modulus invariance over 100 pairs x 100 subgroup "
               "elements within 1e-7 relative")


def test_criterion_07_retraction_uniqueness_and_a_invariance(pyramid):
    tol = 1e-8
    lat = pyramid.face_lattice()
    md = moment_data(pyramid)
    cfg = SolverConfig(tolerance=1e-11)
    sampler = Sampler(pyramid, 4242)
    faces = lat.faces
    from toricq.moment import _reduced_subspace
    for i in range(200):
        face = faces[i % len(faces)]
        z = sampler.point_for_face(face)
        base = retract(md, z, cfg)
        r = _reduced_subspace(md, base.zero_set).shape[1]
        for _ in range(2):
            start = np.array([sampler.rng.uniform(-0.5, 0.5) for _ in range(r)])
            res = retract(md, z, cfg, start=start)
            assert np.max(np.abs(res.x - base.x)) <= tol
        for _ in range(10):
            Y = sampler.a_element()
            moved = sampler.apply(z, None, Y)
            res = retract(md, moved, cfg)
            assert np.max(np.abs(res.x - base.x)) <= tol
    _report(7, "retraction agrees over 3 starts and 10 orbit translates "
               "within 1e-8 on 200 seeded orbits")


def test_criterion_08_equivalence_relation(pyramid):
    lat = pyramid.face_lattice()
    sampler = Sampler(pyramid, 99)
    for i in range(200):
        z = sampler.random_admissible_point()
        t1, Y1 = sampler.nc_pair()
        t2, Y2 = sampler.nc_pair()
        gz = sampler.apply(z, t1, Y1)
        ggz = sampler.apply(gz, t2, Y2)
        assert equivalent(pyramid, z, z, lat).equivalent          # reflexive
        assert equivalent(pyramid, z, gz, lat).equivalent
        assert equivalent(pyramid, gz, z, lat).equivalent         # symmetric
        assert equivalent(pyramid, gz, ggz, lat).equivalent
        assert equivalent(pyramid, z, ggz, lat).equivalent        # transitive
    _report(8, "equivalence axioms hold on 200 seeded subgroup-action triples")


def test_criterion_09_rational_recovery(triangle, unit_square, cube):
    for p in (triangle, unit_square, cube):
        lat = p.face_lattice()
        sampler = Sampler(p, 1234)
        reached = {}
        for f in lat.faces:
            z = sampler.point_for_face(f)
            oc = classify_orbit(p, lat, z)
            assert oc.closed and oc.face_E.index_set == f.index_set
            reached[f.index_set] = oc.face_E
        # orbit poset == face poset: same labels, same order relation
        assert set(reached) == {f.index_set for f in lat.faces}
        for a in lat.faces:
            for b in lat.faces:
                orbit_le = set(reached[a.index_set].index_set) >= \
                    set(reached[b.index_set].index_set)
                assert orbit_le == lat.le(a, b)
        for I in chart_index_sets(p, lat):
            g = gamma_group(p, I, lat)
            det = linalg.det([p.normals[j - 1] for j in I], p.field)
            assert g.finite and g.order == abs(det.as_fraction())
        report = build_stratification(p, lat)
        assert report.strata == []
    _report(9, "three rational simple instances reproduce the classical "
               "face-orbit correspondence with exact chart orders")


def test_criterion_10_gradient_hessian(pyramid, interval):
    from toricq.moment import FOUR_PI, _reduced_subspace

    rel_tol = 1e-5
    for p, seed in ((pyramid, 5), (interval, 6)):
        md = moment_data(p)
        sampler = Sampler(p, seed)
        R = _reduced_subspace(md, ())
        lam = md.offsets_float
        for _ in range(100):
            z = sampler.point_with_zeros(())
            z2 = np.abs(z) ** 2

            def f(u):
                w = R @ u
                return float(np.exp(-FOUR_PI * w) @ z2 / FOUR_PI - lam @ w)

            u = np.array([sampler.rng.uniform(-0.3, 0.3)
                          for _ in range(R.shape[1])])
            w = R @ u
            x2 = np.exp(-FOUR_PI * w) * z2
            grad = -(R.T @ (x2 + lam))
            h = 1e-6
            fd = np.array([(f(u + h * e) - f(u - h * e)) / (2 * h)
                           for e in np.eye(R.shape[1])])
            assert np.linalg.norm(fd - grad) <= rel_tol * max(1.0, np.linalg.norm(grad))
            H = FOUR_PI * (R.T * x2) @ R
            assert np.linalg.eigvalsh(H).min() > 0
    _report(10, "analytic gradient matches finite differences at 1e-5 and "
                "the Hessian stays positive definite at 100 points per instance")
