"""Moment maps and the strictly convex Newton retraction onto their zero
level.

For a point z with closed orbit support, the retraction minimizes

    f(Y) = (1/4pi) * sum_{k not in I_z} e^{-4 pi Y_k} |z_k|^2  -  lambda . Y

over the orthogonal complement (inside the kernel subspace, standard metric
on R^d) of the kernel directions supported on the zero coordinates.  Its
gradient is minus the projected moment image of x(Y), x_j = e^{-2 pi Y_j} z_j,
so the minimizer is the unique intersection of the orbit closure with the
zero level; the Hessian 4pi R^T diag(|x|^2) R is positive definite there.
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
from .groups import SequenceData, kernel_data

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


@dataclass
class SolverConfig:
    tolerance: float = 1e-9
    max_iterations: int = 100
    line_search_shrink: float = 0.5
    precision_bits: int = 53

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValidationError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not 0 < self.line_search_shrink < 1:
            raise ValidationError("line_search_shrink must be in (0, 1)")


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
    exact_offsets: list                 # field scalars (d entries)
    exact_kernel: list                  # field d-vectors (d-n entries)
    normals_float: np.ndarray           # d x n
    offsets_float: np.ndarray           # d
    kernel_float: np.ndarray            # (d-n) x d rows = kernel basis
    alpha_vectors: np.ndarray           # (d-n) x d, column k is -2pi iota*(e_k*)
    lambda_vector: np.ndarray           # (d-n)
    shadow_error: float                 # max error bound over all shadows
    closed_support: Callable[[tuple[int, ...]], bool]
    polytope: object | None = None
    label: str = "polytope"
    subspaces: dict = dataclasses.field(default_factory=dict, repr=False,
                                        compare=False)
    phase_tests: dict = dataclasses.field(default_factory=dict, repr=False,
                                          compare=False)

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


def _shadow_matrix(vectors, precision) -> tuple[np.ndarray, float]:
    rows = []
    worst = 0.0
    for v in vectors:
        row = []
        for s in v:
            val, err = s.shadow(precision)
            row.append(val)
            worst = max(worst, err)
        rows.append(row)
    return np.array(rows, dtype=float), worst


def moment_data(p, seq: SequenceData | None = None,
                precision: int = 53) -> MomentData:
    """Moment-map data of a validated polytope."""
    seq = seq or kernel_data(p)
    lat = p.face_lattice()
    Xf, e1 = _shadow_matrix(p.normals, precision)
    lamf, e2 = _shadow_matrix([p.offsets], precision)
    Kf, e3 = _shadow_matrix(seq.kernel_basis, precision) if seq.kernel_basis \
        else (np.zeros((0, p.d)), 0.0)
    lamf = lamf[0]
    index_sets = {f.index_set for f in lat.faces}

    def closed_support(labels: tuple[int, ...]) -> bool:
        return tuple(sorted(labels)) in index_sets

    return MomentData(
        field=p.field, exact_normals=p.normals, exact_offsets=p.offsets,
        exact_kernel=seq.kernel_basis, normals_float=Xf, offsets_float=lamf,
        kernel_float=Kf, alpha_vectors=-TWO_PI * Kf,
        lambda_vector=Kf @ lamf if len(seq.kernel_basis) else np.zeros(0),
        shadow_error=max(e1, e2, e3), closed_support=closed_support,
        polytope=p)


def derived_moment_data(kind: str, link) -> MomentData:
    """Moment data of a singular face's link: ``"sigma_F"`` for the cone
    over the link (offsets zero, group of dimension r_F - n + p) or
    ``"delta_F"`` for the link polytope itself (one extra kernel direction
    along the slicing coefficients)."""
    if kind == "delta_F":
        return moment_data(link.delta_F)
    if kind != "sigma_F":
        raise PreconditionError(f"unknown derived moment data kind: {kind}")

    fld = link.parent.field
    normals = link.sigma_normals
    zero = fld.zero()
    offsets = [zero] * len(normals)
    kernel = link.cone_kernel
    precision = 53
    Xf, e1 = _shadow_matrix(normals, precision)
    Kf, e3 = _shadow_matrix(kernel, precision) if kernel \
        else (np.zeros((0, len(normals))), 0.0)
    lamf = np.zeros(len(normals))
    parent_lat = link.parent.face_lattice()
    labels = link.facet_labels

    def closed_support(local: tuple[int, ...]) -> bool:
        parent_labels = tuple(sorted(labels[i - 1] for i in local))
        return parent_lat.face_by_index_set(parent_labels) is not None

    return MomentData(
        field=fld, exact_normals=normals, exact_offsets=offsets,
        exact_kernel=kernel, normals_float=Xf, offsets_float=lamf,
        kernel_float=Kf, alpha_vectors=-TWO_PI * Kf,
        lambda_vector=Kf @ lamf if kernel else np.zeros(0),
        shadow_error=max(e1, e3), closed_support=closed_support,
        polytope=None, label="sigma_F")


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
    return tuple(int(j) + 1 for j in np.flatnonzero(z == 0))


def _level_residual(m: MomentData, ups: np.ndarray) -> float:
    """|Psi| = |K ups|.  Huge moduli can overflow it; a value that is not
    finite reads as infinitely far from the zero level."""
    if not m.m:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(m.kernel_float @ ups))
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
            S[j, c] = v[r].shadow(53)[0]
    C = Qb.T @ S
    u, sv, _ = np.linalg.svd(C, full_matrices=True)
    return Qb @ u[:, s:]


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
    z2 = np.abs(z) ** 2

    def objective(u):
        w = R @ u
        with np.errstate(over="raise"):
            x2 = np.exp(-FOUR_PI * w) * z2
        return float(x2.sum() / FOUR_PI - lam @ w)

    if start is None:
        u = np.zeros(r)
        at_zero = _level_residual(m, z2 + lam)
        support = np.flatnonzero(z2 > 0)
        if r and len(support) and at_zero > cfg.tolerance:
            # pre-translate along the orbit so the support moduli start
            # near 1; the minimizer is orbit-invariant, conditioning is not
            balance = np.log(z2[support]) / FOUR_PI
            u = np.linalg.lstsq(R[support, :], balance, rcond=None)[0]
    else:
        u = np.asarray(start, dtype=float)
    iterations = 0
    residual = float("inf")
    for it in range(cfg.max_iterations + 1):
        w = R @ u
        x2 = np.exp(-FOUR_PI * w) * z2
        ups = x2 + lam
        residual = _level_residual(m, ups)
        iterations = it
        if residual <= cfg.tolerance:
            break
        if it == cfg.max_iterations or r == 0:
            raise SolverError(
                f"retraction did not converge (residual {residual:.3e})",
                residual=residual, iterations=it)
        grad = -(R.T @ ups)
        hess = FOUR_PI * (R.T * x2) @ R
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        f0 = objective(u)
        slope = float(grad @ step)
        # rounding slack keeps the backtracking from stalling once the true
        # decrease drops below float resolution of the objective
        slack = 1e-14 * (abs(f0) + 1.0)
        t = 1.0
        while True:
            try:
                ft = objective(u + t * step)
            except FloatingPointError:
                ft = math.inf
            if ft <= f0 + 1e-4 * t * slope + slack:
                break
            t *= cfg.line_search_shrink
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
    xi = polytope_point_of(m, x, cfg, _residual=residual)
    return RetractionResult(x=x, y_star=w, residual=residual,
                            iterations=iterations, xi=xi, zero_set=zero)


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
    A = m.normals_float
    xi = np.linalg.solve(A.T @ A, A.T @ ups)
    return xi
