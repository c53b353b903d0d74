"""Moment maps and the strictly convex Newton retraction onto their zero
level.

For a point z with closed orbit support, the retraction minimizes

    f(Y) = (1/4pi) * sum_{k not in I_z} e^{-4 pi Y_k} |z_k|^2  -  lambda . Y

over the orthogonal complement (inside the kernel subspace, standard metric
on R^d) of the kernel directions supported on the zero coordinates.  Its
gradient is minus the projected moment image of x(Y), x_j = e^{-2 pi Y_j} z_j,
so the minimizer is the unique intersection of the orbit closure with the
zero level; the Hessian 4pi R^T diag(|x|^2) R is positive definite there.

The solver works in coordinates u, Y = R u, along an orthonormal basis R of
that complement.  |x|^2 together with f, the gradient and the Hessian in u
are written once, in :func:`_evaluate`, :func:`_gradient` and
:func:`_hessian`; :func:`retract` runs on them, and the ``verify`` suites
``moment.gradient_fd`` and ``moment.hessian_pd`` check them through the
thin wrappers :func:`_objective` and :func:`_squared_moduli`.  Its one
setting is the residual tolerance of :class:`SolverConfig`; at most
``MAX_ITERATIONS`` damped Newton steps are taken, each backtracking by
``LINE_SEARCH_SHRINK``.

Each iterate is evaluated once: the start, then every line-search trial,
whose |x|^2 and f become the next iterate's when the trial is accepted
(the next u is that trial's array).  The loop runs with float overflow and
invalid operations silenced: a trial that overflows reads f = inf or NaN
and fails the Armijo test, and an iterate whose f is not finite raises
:class:`SolverError`, with one exception: when a finite z has an
overflowing |z_j|^2, the start is moved along the orbit by the
pre-translation of 2 log|z| and retracted from there.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .errors import PreconditionError, SolverError, ValidationError
from .field import NumberField
from .groups import kernel_data

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
MAX_ITERATIONS = 100       # Newton steps before the retraction gives up
LINE_SEARCH_SHRINK = 0.5   # backtracking factor of the Armijo line search


@dataclass
class SolverConfig:
    """The one solver setting: the residual |Psi| at which to stop."""

    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be positive")
        if not math.isfinite(self.tolerance):
            raise ValidationError("tolerance must be finite")


@dataclass
class RetractionResult:
    x: np.ndarray            # complex d-vector on the zero level
    y_star: np.ndarray       # minimizer, as a vector in the kernel subspace
    residual: float          # |Psi(x)|
    iterations: int
    xi: np.ndarray           # polytope point with <xi,X_j> - lambda_j = |x_j|^2
    zero_set: tuple[int, ...]


@dataclass
class MomentData:
    """Float shadows of the moment-map data, with the exact sources kept
    alongside for stabilizer computations and consistency checks.

    Two caches hold per-face solver data, filled on first use and keyed by
    the face's index set (the sorted zero labels of a point whose orbit
    closure is that face): ``subspaces`` maps it to the read-only reduced
    subspace R of :func:`_reduced_subspace`, and ``phase_tests`` to the
    phase-test data of ``orbits._phase_test``.  A polytope has finitely
    many faces, so each cache holds at most one entry per face and dies
    with this object."""

    field: NumberField
    exact_normals: list                 # list of field n-vectors (d entries)
    exact_kernel: list                  # field d-vectors (d-n entries)
    normals_float: np.ndarray           # d x n
    offsets_float: np.ndarray           # d
    kernel_float: np.ndarray            # (d-n) x d rows = kernel basis
    lambda_vector: np.ndarray           # (d-n)
    shadow_error: float                 # max error bound over all shadows
    closed_support: Callable[[tuple[int, ...]], bool]
    polytope: object | None = None
    subspaces: dict = dataclasses.field(default_factory=dict, repr=False,
                                        compare=False)
    phase_tests: dict = dataclasses.field(default_factory=dict, repr=False,
                                          compare=False)
    # A^T A of the float normals A, for the normal equations of xi
    normal_gram: np.ndarray = dataclasses.field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        A = self.normals_float
        self.normal_gram = _read_only(A.T @ A)

    @property
    def d(self) -> int:
        return len(self.exact_normals)

    @property
    def n(self) -> int:
        return len(self.exact_normals[0])

    @property
    def m(self) -> int:
        return len(self.exact_kernel)

    def face_data(self, cache: dict, zero_labels: tuple[int, ...], build):
        """``build(zero_labels)``, computed once per face: kept in ``cache``
        when ``zero_labels`` is a face index set, rebuilt on every call
        otherwise, so that no cache outgrows the face lattice."""
        data = cache.get(zero_labels)
        if data is None:
            data = build(zero_labels)
            if self.closed_support(zero_labels):
                cache[zero_labels] = data
        return data


def _shadow_matrix(vectors) -> tuple[np.ndarray, float]:
    rows = []
    worst = 0.0
    for v in vectors:
        row = []
        for s in v:
            val, err = s.shadow(53)
            row.append(val)
            worst = max(worst, err)
        rows.append(row)
    return np.array(rows, dtype=float), worst


def _moment_data(field: NumberField, normals, offsets, kernel,
                 closed_support, polytope=None) -> MomentData:
    """Moment data from exact normals, offsets and kernel basis: their
    float shadows, the kernel pairing lambda of the offsets, and the worst
    shadow error bound."""
    Xf, e1 = _shadow_matrix(normals)
    lamf, e2 = _shadow_matrix([offsets])
    Kf, e3 = _shadow_matrix(kernel) if kernel \
        else (np.zeros((0, len(normals))), 0.0)
    lamf = lamf[0]
    return MomentData(
        field=field, exact_normals=normals, exact_kernel=kernel,
        normals_float=Xf, offsets_float=lamf, kernel_float=Kf,
        lambda_vector=Kf @ lamf if kernel else np.zeros(0),
        shadow_error=max(e1, e2, e3), closed_support=closed_support,
        polytope=polytope)


def moment_data(p) -> MomentData:
    """Moment-map data of a validated polytope."""
    lat = p.face_lattice()

    def closed_support(labels: tuple[int, ...]) -> bool:
        return lat.face_by_index_set(labels) is not None

    return _moment_data(p.field, p.normals, p.offsets,
                        kernel_data(p).kernel_basis, closed_support, p)


def derived_moment_data(link) -> MomentData:
    """Moment data of the cone sigma_F over a singular face's link (offsets
    zero, group of dimension r_F - n + p).  The link polytope delta_F is a
    polytope of its own: its data is ``moment_data(link.delta_F)``."""
    parent_lat = link.parent.face_lattice()
    labels = link.facet_labels

    def closed_support(local: tuple[int, ...]) -> bool:
        parent_labels = tuple(sorted(labels[i - 1] for i in local))
        return parent_lat.face_by_index_set(parent_labels) is not None

    field = link.parent.field
    return _moment_data(field, link.sigma_normals,
                        [field.zero()] * len(link.sigma_normals),
                        link.cone_kernel, closed_support)


def upsilon(m: MomentData, z: Sequence[complex]) -> np.ndarray:
    """(|z_j|^2 + lambda_j)_j."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (m.d,):
        raise ValidationError("point has wrong length")
    return np.abs(z) ** 2 + m.offsets_float


def psi(m: MomentData, z: Sequence[complex]) -> np.ndarray:
    """Moment map: the kernel pairing of upsilon."""
    return m.kernel_float @ upsilon(m, z)


def _zero_labels(z: np.ndarray) -> tuple[int, ...]:
    """The labels (1-based) of the zero coordinates of a complex vector."""
    return tuple(int(j) + 1 for j in np.flatnonzero(z == 0))


def _level_residual(m: MomentData, ups: np.ndarray) -> float:
    """|Psi| = |K ups|.  Huge moduli can overflow it; a value that is not
    finite reads as infinitely far from the zero level."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _level_residual_unguarded(m, ups)


def _level_residual_unguarded(m: MomentData, ups: np.ndarray) -> float:
    """:func:`_level_residual` for a caller that already silences float
    errors, by ``np.linalg.norm``'s own 1-D formula sqrt(v . v)."""
    v = m.kernel_float @ ups
    residual = math.sqrt(v.dot(v))
    return residual if math.isfinite(residual) else math.inf


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only so that callers cannot corrupt a cache."""
    a.flags.writeable = False
    return a


def _reduced_subspace(m: MomentData, zero_labels: tuple[int, ...]) -> np.ndarray:
    """Orthonormal basis (as columns) of the orthogonal complement of the
    kernel directions supported on the zero coordinates, inside the kernel
    subspace; computed once per face and kept read-only on ``m``."""
    return m.face_data(
        m.subspaces, tuple(zero_labels),
        lambda labels: _read_only(_compute_reduced_subspace(m, labels)))


def _compute_reduced_subspace(m: MomentData,
                              zero_labels: tuple[int, ...]) -> np.ndarray:
    """The uncached :func:`_reduced_subspace`.  The stabilizer directions
    come from an exact nullspace."""
    if m.m == 0:
        return np.zeros((m.d, 0))
    B = m.kernel_float.T  # d x m
    Qb, _ = np.linalg.qr(B)
    if not zero_labels:
        return Qb
    idx = [j - 1 for j in zero_labels]
    rows = [[m.exact_normals[j][i] for j in idx] for i in range(m.n)]
    stab_local = linalg.nullspace(rows, len(idx), m.field)
    s = len(stab_local)
    if s == 0:
        return Qb
    S = np.zeros((m.d, s))
    for c, v in enumerate(stab_local):
        for r, j in enumerate(idx):
            S[j, c] = float(v[r])
    C = Qb.T @ S
    u, sv, _ = np.linalg.svd(C, full_matrices=True)
    return Qb @ u[:, s:]


def _evaluate(R, z2, lam, u) -> tuple[np.ndarray, float]:
    """(|x|^2, f) at Y = R u for |z|^2 = z2: |x_j|^2 = e^{-4 pi Y_j} |z_j|^2
    and f = sum |x|^2 / 4pi - lambda . Y."""
    w = R @ u
    x2 = np.exp(-FOUR_PI * w) * z2
    return x2, float(x2.sum() / FOUR_PI - lam @ w)


def _objective(R, z2, lam, u) -> float:
    """f at Y = R u for |z|^2 = z2."""
    return _evaluate(R, z2, lam, u)[1]


def _squared_moduli(R, z2, u) -> np.ndarray:
    """|x|^2 at Y = R u for |z|^2 = z2 (it does not depend on lambda)."""
    return _evaluate(R, z2, np.zeros(len(z2)), u)[0]


def _gradient(R, ups) -> np.ndarray:
    """grad f = -R^T ups at the point where |x|^2 + lambda = ups."""
    return -(R.T @ ups)


def _hessian(R, x2) -> np.ndarray:
    """Hessian of f = 4 pi R^T diag(|x|^2) R at the point where |x|^2 = x2."""
    return FOUR_PI * (R.T * x2) @ R


def retract(m: MomentData, z: Sequence[complex],
            cfg: SolverConfig | None = None,
            start: np.ndarray | None = None) -> RetractionResult:
    """Damped Newton minimization returning the unique point of the orbit
    closure on the moment zero level, plus the matching polytope point.

    The orbit of z must already be closed: its zero set has to be a face
    index set.  Route arbitrary points through the orbit engine first.
    """
    cfg = cfg or SolverConfig()
    z = np.asarray(z, dtype=complex)
    if z.shape != (m.d,):
        raise ValidationError("point has wrong length")
    zero = _zero_labels(z)
    if not m.closed_support(zero):
        raise PreconditionError(
            f"support {zero} is not a face index set: the orbit is not closed")

    R = _reduced_subspace(m, zero)
    r = R.shape[1]
    lam = m.offsets_float
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = np.abs(z) ** 2
        if start is None:
            u = np.zeros(r)
            at_zero = _level_residual_unguarded(m, z2 + lam)
            support = np.flatnonzero(z2 > 0)
            if r and len(support) and at_zero > cfg.tolerance:
                # pre-translate along the orbit so the support moduli start
                # near 1; the minimizer is orbit-invariant, conditioning is not
                balance = np.log(z2[support]) / FOUR_PI
                u = np.linalg.lstsq(R[support, :], balance, rcond=None)[0]
        else:
            u = np.asarray(start, dtype=float)
        x2, f = _evaluate(R, z2, lam, u)
        for it in range(MAX_ITERATIONS + 1):
            ups = x2 + lam
            residual = _level_residual_unguarded(m, ups)
            iterations = it
            if residual <= cfg.tolerance:
                break
            if it == MAX_ITERATIONS or r == 0:
                raise SolverError(
                    f"retraction did not converge (residual {residual:.3e})",
                    residual=residual, iterations=it)
            if not math.isfinite(f):
                shift = _overflow_shift(R, z, z2) if it == 0 else None
                if shift is None:
                    raise SolverError("objective overflows at the iterate",
                                      residual=residual, iterations=it)
                moved = retract(m, np.exp(-TWO_PI * (R @ shift)) * z, cfg,
                                None if start is None else u - shift)
                return dataclasses.replace(moved,
                                           y_star=moved.y_star + R @ shift)
            grad = _gradient(R, ups)
            hess = _hessian(R, x2)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            slope = float(grad @ step)
            # rounding slack keeps the backtracking from stalling once the
            # true decrease drops below float resolution of the objective
            slack = 1e-14 * (abs(f) + 1.0)
            t = 1.0
            while True:
                trial = u + t * step
                x2_t, f_t = _evaluate(R, z2, lam, trial)
                if f_t <= f + 1e-4 * t * slope + slack:
                    break
                t *= LINE_SEARCH_SHRINK
                if t < 1e-18:
                    raise SolverError("line search collapsed",
                                      residual=residual, iterations=it)
            u, x2, f = trial, x2_t, f_t
            if not np.all(np.isfinite(u)):
                raise SolverError("iterates diverged", residual=residual,
                                  iterations=it)

    w = R @ u
    x = np.exp(-TWO_PI * w) * z
    if zero:
        x[[j - 1 for j in zero]] = 0
    xi = polytope_point_of(m, x, cfg, _residual=residual)
    return RetractionResult(x=x, y_star=w, residual=residual,
                            iterations=iterations, xi=xi, zero_set=zero)


def _overflow_shift(R, z, z2) -> np.ndarray | None:
    """For a finite z whose |z|^2 overflows, the pre-translation u taken
    from 2 log|z| instead of log |z|^2, when moving z along its orbit by it
    brings every |z_j|^2 into range; otherwise None."""
    if np.all(np.isfinite(z2)) or not np.all(np.isfinite(z)):
        return None
    support = np.flatnonzero(z)
    balance = 2 * np.log(np.abs(z[support])) / FOUR_PI
    shift = np.linalg.lstsq(R[support, :], balance, rcond=None)[0]
    moved = np.exp(-TWO_PI * (R @ shift)) * z   # the point retract moves to
    return shift if np.all(np.isfinite(np.abs(moved) ** 2)) else None


def polytope_point_of(m: MomentData, x: Sequence[complex],
                      cfg: SolverConfig | None = None,
                      _residual: float | None = None) -> np.ndarray:
    """The unique xi with <xi, X_j> = |x_j|^2 + lambda_j for all j, by
    normal equations on the (exact-rank-verified) normal matrix."""
    cfg = cfg or SolverConfig()
    x = np.asarray(x, dtype=complex)
    ups = np.abs(x) ** 2 + m.offsets_float
    resid = _residual
    if resid is None:
        resid = _level_residual(m, ups)
    if resid > 10 * cfg.tolerance:
        raise PreconditionError(
            f"point is off the moment zero level (|Psi| = {resid:.3e})")
    return np.linalg.solve(m.normal_gram, m.normals_float.T @ ups)
