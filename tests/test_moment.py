import dataclasses
import math
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from toricq import moment
from toricq.errors import PreconditionError, SolverError, ValidationError
from toricq.moment import (FOUR_PI, LINE_SEARCH_SHRINK, MAX_ITERATIONS, TWO_PI,
                           RetractionResult, SolverConfig,
                           _compute_reduced_subspace, _gradient, _hessian,
                           _reduced_subspace, _zero_labels, moment_data,
                           polytope_point_of, psi, retract, upsilon)
from toricq.orbits import classify_orbit
from toricq.sampling import Sampler
from toricq.serialize import load_instance

SQ2 = math.sqrt(0.5)
INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = sorted(INSTANCES.glob("*.json"))


@pytest.fixture(scope="module")
def interval_md(interval):
    return moment_data(interval)


@pytest.fixture(scope="module")
def pyramid_md(pyramid):
    return moment_data(pyramid)


def test_upsilon_values(interval_md):
    assert np.allclose(upsilon(interval_md, [0, 0]), [0.0, -1.0])
    assert np.allclose(upsilon(interval_md, [1, 1]), [1.0, 0.0])
    assert np.allclose(upsilon(interval_md, [SQ2, SQ2]), [0.5, -0.5])


def test_psi_values(interval_md):
    assert abs(psi(interval_md, [SQ2, SQ2])[0]) < 1e-15
    assert np.allclose(psi(interval_md, [1, 1]), [1.0])
    assert np.allclose(psi(interval_md, [0, 0]), [-1.0])


def test_retract_interval_midpoint(interval_md):
    res = retract(interval_md, [1, 1])
    assert np.allclose(res.x, [SQ2, SQ2], atol=1e-9)
    assert np.allclose(res.xi, [0.5], atol=1e-9)
    assert res.residual <= 1e-9
    # oracle: the scalar equation 2 e^{-4 pi t} = 1
    t = math.log(2) / (4 * math.pi)
    assert np.allclose(res.y_star, [t, t], atol=1e-12)


def test_retract_already_on_level(interval_md):
    res = retract(interval_md, [SQ2, SQ2])
    assert res.iterations == 0
    assert np.allclose(res.x, [SQ2, SQ2])


def test_retract_vertex_orbit(interval_md):
    res = retract(interval_md, [1, 0])
    assert np.allclose(res.x, [1, 0], atol=1e-9)
    assert np.allclose(res.xi, [1.0], atol=1e-9)
    assert res.x[1] == 0


def test_retract_phase_carries_over(interval_md):
    z = np.array([1j, -1], dtype=complex)
    res = retract(interval_md, z)
    assert np.allclose(np.abs(res.x), [SQ2, SQ2], atol=1e-9)
    assert np.allclose(np.angle(res.x), np.angle(z), atol=1e-12)


def test_retract_rejects_nonclosed_support(pyramid_md):
    # zeros on facets {1,2} force the apex: not a face index set
    with pytest.raises(PreconditionError):
        retract(pyramid_md, [0, 0, 1, 1, 1])


def test_retract_apex_orbit(pyramid_md):
    res = retract(pyramid_md, [0, 0, 0, 0, 2.0])
    assert res.residual <= 1e-9
    # apex is (0,0,1)
    assert np.allclose(res.xi, [0, 0, 1], atol=1e-8)
    assert np.allclose(np.abs(res.x) ** 2, [0, 0, 0, 0, 1], atol=1e-8)


def test_retract_interior_orbit_pyramid(pyramid_md, pyramid):
    rng = np.random.default_rng(5)
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    res = retract(pyramid_md, z)
    assert res.residual <= 1e-9
    margins = res.xi @ pyramid_md.normals_float.T - pyramid_md.offsets_float
    assert margins.min() >= -1e-8
    assert np.allclose(margins, np.abs(res.x) ** 2, atol=1e-7)


def test_retract_uniqueness_from_starts(pyramid_md):
    z = np.array([0.5, 1.5, 2.0, 0.7, 1.1], dtype=complex)
    rng = np.random.default_rng(11)
    results = []
    for _ in range(3):
        start = rng.normal(size=2)
        results.append(retract(pyramid_md, z, start=start).x)
    for other in results[1:]:
        assert np.allclose(results[0], other, atol=1e-8)


def test_polytope_point_requires_zero_level(interval_md):
    with pytest.raises(PreconditionError):
        polytope_point_of(interval_md, [1, 1])


def test_polytope_point_reproduces_moduli(interval_md):
    xi = polytope_point_of(interval_md, [SQ2, SQ2])
    assert np.allclose(xi, [0.5], atol=1e-12)
    xi = polytope_point_of(interval_md, [0, 1])
    assert np.allclose(xi, [0.0], atol=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValidationError):
        SolverConfig(tolerance=0)
    with pytest.raises(ValidationError, match="finite"):
        SolverConfig(tolerance=math.inf)
    # the tolerance is the one setting; the rest are module constants
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tolerance"]


def test_zero_level_point_per_face(pyramid, pyramid_md):
    lat = pyramid.face_lattice()
    for f in lat.faces:
        xi = lat.relint_point(f)
        x = np.zeros(5, dtype=complex)
        for j in range(1, 6):
            slack = pyramid.slack(xi, j)
            if j not in f.index_set:
                x[j - 1] = math.sqrt(float(slack))
        assert np.linalg.norm(psi(pyramid_md, x)) < 1e-12
        got = tuple(int(j) + 1 for j in np.flatnonzero(x == 0))
        assert got == f.index_set


def test_retract_huge_moduli_raise_no_overflow_warning():
    # |z_j|^2 = 1e308: the start test K (|z|^2 + lambda) and the residual
    # norm overflow.  The solver still gives up exactly as it did before
    # they were guarded, but without a RuntimeWarning.
    p = load_instance(str(INSTANCES / "square_pyramid.json")).polytope
    z = np.full(p.d, 1e154, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as info:
            retract(moment_data(p), z)
    assert info.value.iterations == 100
    assert info.value.residual == pytest.approx(2.3472092590961647e+141,
                                                rel=1e-6)


def test_retract_moves_an_overflowing_point_along_its_orbit(interval_md):
    # |z_j|^2 = 1e320 overflows, |z_j| does not: the pre-translation comes
    # from 2 log|z|, so the point retracts like (1, 1) on its orbit, with
    # y* further along the orbit by log(1e160) / 2pi per coordinate
    small = retract(interval_md, [1, 1])
    shift = math.log(1e160) / TWO_PI
    # a start near the big point's minimizer, in its own coordinates
    near = _reduced_subspace(interval_md, ()).T @ (small.y_star + shift) + 0.5
    for start in (None, near):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = retract(interval_md, [1e160, 1e160], start=start)
        assert np.allclose(big.x, small.x, atol=1e-9)
        assert np.allclose(big.xi, small.xi, atol=1e-9)
        assert np.allclose(big.y_star, small.y_star + shift, atol=1e-9)
        assert big.residual <= 1e-9
    # the orbit of (1e160, 1) holds no point with both moduli squared in
    # range and off zero together, so it still fails as a SolverError
    with pytest.raises(SolverError):
        retract(interval_md, [1e160, 1])


@pytest.mark.parametrize("path", SHIPPED, ids=lambda f: f.stem)
def test_reduced_subspace_cache_matches_recomputation(path):
    p = load_instance(str(path)).polytope
    md = moment_data(p)
    faces = p.face_lattice().faces
    for face in faces:
        R = _reduced_subspace(md, face.index_set)
        assert np.array_equal(R, _compute_reduced_subspace(md, face.index_set))
        assert not R.flags.writeable
        assert _reduced_subspace(md, face.index_set) is R
    assert set(md.subspaces) == {f.index_set for f in faces}
    index_sets = set(md.subspaces)
    labels = range(1, p.d + 1)
    open_sets = [s for k in range(1, p.d + 1) for s in combinations(labels, k)
                 if s not in index_sets]
    for zero_labels in open_sets[:3]:
        _reduced_subspace(md, zero_labels)
    assert set(md.subspaces) == index_sets


# -- reference retraction loop: it recomputes |x|^2, f and the residual
# from u at every step and lets an overflowing objective raise.  retract
# must agree with it bit for bit wherever it returns.

def _oracle_objective(R, z2, lam, u) -> float:
    w = R @ u
    with np.errstate(over="raise"):
        x2 = np.exp(-FOUR_PI * w) * z2
    return float(x2.sum() / FOUR_PI - lam @ w)


def _oracle_level_residual(m, ups) -> float:
    if not m.m:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(m.kernel_float @ ups))
    return residual if math.isfinite(residual) else math.inf


def oracle_retract(m, z, cfg=None, start=None):
    """(RetractionResult, number of line-search trials)."""
    cfg = cfg or SolverConfig()
    z = np.asarray(z, dtype=complex)
    zero = _zero_labels(z)
    R = _reduced_subspace(m, zero)
    r = R.shape[1]
    lam = m.offsets_float
    z2 = np.abs(z) ** 2
    if start is None:
        u = np.zeros(r)
        at_zero = _oracle_level_residual(m, z2 + lam)
        support = np.flatnonzero(z2 > 0)
        if r and len(support) and at_zero > cfg.tolerance:
            balance = np.log(z2[support]) / FOUR_PI
            u = np.linalg.lstsq(R[support, :], balance, rcond=None)[0]
    else:
        u = np.asarray(start, dtype=float)
    trials = 0
    for it in range(MAX_ITERATIONS + 1):
        x2 = np.exp(-FOUR_PI * (R @ u)) * z2
        ups = x2 + lam
        residual = _oracle_level_residual(m, ups)
        if residual <= cfg.tolerance:
            break
        if it == MAX_ITERATIONS or r == 0:
            raise SolverError(
                f"retraction did not converge (residual {residual:.3e})",
                residual=residual, iterations=it)
        grad = _gradient(R, ups)
        hess = _hessian(R, x2)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        f0 = _oracle_objective(R, z2, lam, u)
        slope = float(grad @ step)
        slack = 1e-14 * (abs(f0) + 1.0)
        t = 1.0
        while True:
            trials += 1
            try:
                ft = _oracle_objective(R, z2, lam, u + t * step)
            except FloatingPointError:
                ft = math.inf
            if ft <= f0 + 1e-4 * t * slope + slack:
                break
            t *= LINE_SEARCH_SHRINK
            if t < 1e-18:
                raise SolverError("line search collapsed", residual=residual,
                                  iterations=it)
        u = u + t * step
        if not np.all(np.isfinite(u)):
            raise SolverError("iterates diverged", residual=residual,
                              iterations=it)
    w = R @ u
    x = np.exp(-TWO_PI * w) * z
    if zero:
        x[[j - 1 for j in zero]] = 0
    A = m.normals_float
    xi = np.linalg.solve(A.T @ A, A.T @ (np.abs(x) ** 2 + lam))
    return RetractionResult(x=x, y_star=w, residual=residual, iterations=it,
                            xi=xi, zero_set=zero), trials


def _retraction_cases(p, md, seed):
    """Seeded (closed point, start) pairs: closed representatives of
    biased-nonclosed points, the same scaled by 10^-6 and 10^6, and
    random start vectors."""
    sampler = Sampler(p, seed)
    lat = p.face_lattice()
    rng = np.random.default_rng(seed)
    for _ in range(12):
        z = sampler.point_biased_nonclosed()
        rep = classify_orbit(p, lat, z).closed_rep
        for scale in (1.0, 1e-6, 1e6):
            yield rep * scale, None
        r = _reduced_subspace(md, _zero_labels(rep)).shape[1]
        for spread in (0.3, 3.0):
            yield rep, rng.normal(size=r) * spread


def _outcome(solve):
    try:
        return solve()
    except (SolverError, FloatingPointError) as exc:
        return exc


@pytest.mark.parametrize("path", SHIPPED, ids=lambda f: f.stem)
def test_retract_matches_the_oracle_bit_for_bit(path):
    p = load_instance(str(path)).polytope
    md = moment_data(p)
    solved = 0
    for seed in (1, 2, 3):
        for z, start in _retraction_cases(p, md, seed):
            want = _outcome(lambda: oracle_retract(md, z, start=start))
            got = _outcome(lambda: retract(md, z, start=start))
            if isinstance(want, FloatingPointError):
                # the old loop let an overflowing objective escape
                assert isinstance(got, SolverError)
                continue
            if isinstance(want, SolverError):
                assert isinstance(got, SolverError)
                assert (str(got), got.residual, got.iterations) == \
                    (str(want), want.residual, want.iterations)
                continue
            want = want[0]
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y_star, want.y_star)
            assert got.residual == want.residual
            assert got.iterations == want.iterations
            assert np.array_equal(got.xi, want.xi)
            assert got.zero_set == want.zero_set
            solved += 1
    assert solved >= 150


def test_each_iterate_is_evaluated_once(monkeypatch):
    """The (|x|^2, f) helper runs once for the start iterate and once per
    line-search trial; the wrapper _objective is not on the solver's path."""
    calls = {"evaluate": 0, "objective": 0}
    evaluate, objective = moment._evaluate, moment._objective

    def counted_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    def counted_objective(*args):
        calls["objective"] += 1
        return objective(*args)

    monkeypatch.setattr(moment, "_evaluate", counted_evaluate)
    monkeypatch.setattr(moment, "_objective", counted_objective)
    p = load_instance(str(INSTANCES / "pyramid4.json")).polytope
    md = moment_data(p)
    solves = backtracked = 0
    for z, start in _retraction_cases(p, md, 4):
        want = _outcome(lambda: oracle_retract(md, z, start=start))
        if isinstance(want, Exception):
            continue
        trials = want[1]
        before = calls["evaluate"]
        res = retract(md, z, start=start)
        assert calls["evaluate"] - before == 1 + trials
        solves += 1
        backtracked += trials > res.iterations
    assert calls["objective"] == 0
    assert solves >= 55 and backtracked > 0


def test_retract_overflowing_start_is_a_solver_error():
    p = load_instance(str(INSTANCES / "square_pyramid.json")).polytope
    md = moment_data(p)
    r = _reduced_subspace(md, ()).shape[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as info:
            retract(md, np.ones(p.d), start=np.full(r, 100.0))
    assert str(info.value) == "objective overflows at the iterate"
    assert info.value.iterations == 0
    assert info.value.residual == math.inf


def test_polytope_point_reuses_the_normal_gram(pyramid_md):
    A = pyramid_md.normals_float
    assert np.array_equal(pyramid_md.normal_gram, A.T @ A)
    assert not pyramid_md.normal_gram.flags.writeable
