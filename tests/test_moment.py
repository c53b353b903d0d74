import dataclasses
import math
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from toricq.errors import PreconditionError, SolverError, ValidationError
from toricq.moment import (SolverConfig, _compute_reduced_subspace,
                           _reduced_subspace, moment_data, polytope_point_of,
                           psi, retract, upsilon)
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
