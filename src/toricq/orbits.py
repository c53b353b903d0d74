"""Closed-orbit classification, monomial-modulus invariants, canonical
retraction, and the orbit equivalence test defining the quotient space.

Points come in two flavours.  Plain complex vectors give tolerance-based
("approximate") verdicts.  An :class:`ExactVector` carries field-exact
squared moduli and phases measured in full turns, enabling exact verdicts:
two zero-level points differ by a kernel-subgroup phase exactly when the
image of the phase difference under the normal map lies in the quasilattice
plus the real span of the normals on the zero coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .errors import DomainError, PreconditionError, ValidationError
from .groups import Quasilattice
from .moment import (MomentData, RetractionResult, SolverConfig, _read_only,
                     _zero_labels, moment_data, retract)
from .polytope import Face, FaceLattice, Polytope

MAXIMAL_PIECE = "maximal piece"


def _moment_for(p: Polytope) -> MomentData:
    """The polytope's moment data, built once and kept on the polytope."""
    if p._moment is None:
        p._moment = moment_data(p)
    return p._moment


class ExactVector:
    """A complex vector with field-exact |z_j|^2 and phases (in turns)."""

    def __init__(self, field, mod2, phase):
        self.field = field
        self.mod2 = linalg.vec(field, mod2)
        self.phase = linalg.vec(field, phase)
        if len(self.mod2) != len(self.phase):
            raise ValidationError("moduli and phases disagree in length")
        for s in self.mod2:
            if s.sign() < 0:
                raise ValidationError("squared modulus must be nonnegative")

    def __len__(self):
        return len(self.mod2)

    def zero_labels(self) -> tuple[int, ...]:
        return tuple(j + 1 for j, s in enumerate(self.mod2) if s.is_zero())

    def to_complex(self) -> np.ndarray:
        out = np.zeros(len(self.mod2), dtype=complex)
        for j, (m2, ph) in enumerate(zip(self.mod2, self.phase)):
            if not m2.is_zero():
                r = math.sqrt(m2.shadow(53)[0])
                out[j] = r * cmath.exp(2j * math.pi * ph.shadow(53)[0])
        return out

    def zeroed(self, labels) -> "ExactVector":
        kill = set(labels)
        z = self.field.zero()
        mod2 = [z if j + 1 in kill else s for j, s in enumerate(self.mod2)]
        phase = [z if j + 1 in kill else s for j, s in enumerate(self.phase)]
        return ExactVector(self.field, mod2, phase)

    def with_phase_shift(self, theta) -> "ExactVector":
        """Exact action of a phase vector (in turns): moduli unchanged."""
        shift = linalg.vec(self.field, theta)
        return ExactVector(self.field, list(self.mod2),
                           [p + t for p, t in zip(self.phase, shift)])


def _as_point(z) -> tuple[np.ndarray, ExactVector | None]:
    if isinstance(z, ExactVector):
        return z.to_complex(), z
    return np.asarray(z, dtype=complex), None


def _zero_labels_of(z, exact: ExactVector | None) -> tuple[int, ...]:
    return exact.zero_labels() if exact is not None else _zero_labels(z)


@dataclass
class OrbitClass:
    z: object
    i_z: tuple[int, ...]            # labels of the zero coordinates
    closed: bool
    face_E: Face
    closed_rep: object
    retracted: RetractionResult
    exactness: str                  # "exact" | "approximate"

    def canonical(self) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic reduced witness (x with the first nonzero phase
        rotated away, and the polytope point)."""
        x = np.array(self.retracted.x, dtype=complex)
        support = np.flatnonzero(x != 0)
        if len(support):
            ref = x[support[0]]
            x = x * (abs(ref) / ref)
        return x, np.array(self.retracted.xi)


def classify_orbit(p: Polytope, lat: FaceLattice, z,
                   cfg: SolverConfig | None = None) -> OrbitClass:
    """Decide closedness of the orbit through z, produce the closed
    representative in its closure, and retract it onto the zero level."""
    zc, exact = _as_point(z)
    if zc.shape != (p.d,):
        raise ValidationError("point has wrong length")
    labels = _zero_labels_of(zc, exact)
    face = lat.face_of_active_set(labels)
    if face is None:
        raise DomainError(
            f"support pattern {labels} lies outside the admissible open set")
    closed = labels == face.index_set
    if exact is not None:
        rep = exact.zeroed(face.index_set)
        rep_c = rep.to_complex()
    else:
        rep = np.array(zc)
        for j in face.index_set:
            rep[j - 1] = 0
        rep_c = rep
    res = retract(_moment_for(p), rep_c, cfg)
    return OrbitClass(z=z, i_z=labels, closed=closed, face_E=face,
                      closed_rep=rep, retracted=res,
                      exactness="exact" if exact is not None else "approximate")


@dataclass
class PFunction:
    """Monomial-modulus invariant prod |w_j|^{c_j} attached to a pair of
    polytope points; constant on orbits of the kernel subgroup."""

    exponents: list                 # exact field scalars c_j
    exponents_float: np.ndarray
    domain_face: Face

    def evaluate(self, w: Sequence[complex]) -> float:
        w = np.asarray(w, dtype=complex)
        value = 1.0
        for j, c in enumerate(self.exponents):
            s = c.sign()
            if s == 0:
                continue
            a = abs(w[j])
            if a == 0:
                if s < 0:
                    raise DomainError(
                        f"coordinate {j + 1} vanishes but its exponent is negative")
                return 0.0
            value *= a ** self.exponents_float[j]
        return value


def p_function(p: Polytope, xi, eta, lat: FaceLattice | None = None) -> PFunction:
    """Exponents <xi - eta, X_j> for exact polytope points xi, eta; the
    domain is the chart of the face containing eta."""
    lat = lat or p.face_lattice()
    xi = linalg.vec(p.field, xi)
    eta = linalg.vec(p.field, eta)
    for mu, name in ((xi, "xi"), (eta, "eta")):
        if len(mu) != p.n:
            raise ValidationError(f"{name} has wrong dimension")
        if not p.contains_point(mu):
            raise PreconditionError(f"{name} is not in the polytope")
    diff = linalg.vec_sub(xi, eta)
    exponents = [linalg.dot(diff, x) for x in p.normals]
    face = lat.face_by_index_set(p.active_set(eta))
    return PFunction(exponents=exponents,
                     exponents_float=np.array([c.shadow(53)[0] for c in exponents]),
                     domain_face=face)


@dataclass
class OrbitEqualVerdict:
    equal: bool
    exactness: str                  # "exact" | "approximate"
    reason: str


@dataclass(frozen=True)
class _PhaseTest:
    """What the phase test of one zero set needs, whatever the shift: the
    exact functionals ``ann`` vanishing on the zero-set normals, the
    quasilattice's image ``group`` under them (the group phase differences
    are tested against), and the float shadows ``Ff`` of ``ann`` (k x n)
    and ``B`` of the group's Z-basis (k x r, None when r = 0).  Without
    functionals every shift passes and the other fields are None."""

    ann: list
    group: Quasilattice | None
    Ff: np.ndarray | None
    B: np.ndarray | None


def _phase_test(md: MomentData, zero_labels) -> _PhaseTest:
    """The phase-test data of a zero set, computed once per face and kept
    on the moment data."""
    return md.face_data(md.phase_tests, tuple(zero_labels),
                        lambda labels: _compute_phase_test(md, labels))


def _compute_phase_test(md: MomentData, zero_labels) -> _PhaseTest:
    """The uncached :func:`_phase_test`."""
    rows = [md.exact_normals[j - 1] for j in zero_labels]
    ann = linalg.nullspace(rows, md.n, md.field)
    if not ann:
        return _PhaseTest(ann, None, None, None)
    images = [[linalg.dot(f, g) for f in ann]
              for g in md.polytope.quasilattice.generators]
    group = Quasilattice(md.field, images, validate=False)
    _, basis = group.rank_certificate()
    Ff = _read_only(np.array([[s.shadow(53)[0] for s in f] for f in ann]))
    B = _read_only(np.array([[s.shadow(53)[0] for s in b]
                             for b in basis]).T) if basis else None
    return _PhaseTest(ann, group, Ff, B)


def _phase_shift_in_n_exact(p: Polytope, support, zero_labels, delta) -> bool:
    """Whether a phase shift (delta_j turns on the support, free elsewhere)
    extends to an element of the kernel subgroup: exact integer test."""
    test = _phase_test(_moment_for(p), zero_labels)
    if not test.ann:
        return True
    field = p.field
    u = [field.zero()] * p.n
    for j, dlt in zip(support, delta):
        u = linalg.vec_add(u, linalg.vec_scale(dlt, p.normals[j - 1]))
    return test.group.contains([linalg.dot(f, u) for f in test.ann])


def _phase_shift_in_n_float(p: Polytope, support, zero_labels, delta,
                            tol: float) -> bool:
    """Tolerance-based version of the phase test.

    The quasilattice image in the quotient by the zero-coordinate normals
    is reduced to an exact integer basis first; the float target is then
    expressed in that basis and its coefficients rounded.  When the image
    group is a genuine lattice (every rational instance) this is a sound
    membership-with-tolerance test; for dense images it degrades to a
    small-coefficient heuristic, which is why this path is always flagged
    approximate."""
    md = _moment_for(p)
    test = _phase_test(md, zero_labels)
    if not test.ann:
        return True
    Xf = md.normals_float
    u = np.zeros(p.n)
    for j, dlt in zip(support, delta):
        u += float(dlt) * Xf[j - 1]
    tgt = test.Ff @ u
    floor = max(tol, 1e-9)
    B = test.B
    if B is None:
        return bool(np.linalg.norm(tgt) <= floor)
    if B.shape[1] == len(test.ann):
        # the image group is a lattice: express in its basis and round
        coeffs = np.linalg.solve(B, tgt)
        return bool(np.linalg.norm(B @ np.round(coeffs) - tgt) <= floor)
    # dense image group: greedily round one coefficient at a time,
    # re-solving the rest; a heuristic, hence the approximate flag
    cols = list(range(B.shape[1]))
    residual = tgt.copy()
    while cols:
        sub = B[:, cols]
        sol = np.linalg.lstsq(sub, residual, rcond=None)[0]
        frac = np.abs(sol - np.round(sol))
        i = int(np.argmin(frac))
        residual = residual - float(np.round(sol[i])) * B[:, cols[i]]
        cols.pop(i)
    return bool(np.linalg.norm(residual) <= floor)


def n_orbit_equal(p: Polytope, x, y, tol: float = 1e-8) -> OrbitEqualVerdict:
    """Equality of two zero-level points as orbits of the kernel subgroup:
    supports match, moduli match (equivalently the polytope points match),
    and the phase difference exponentiates into the subgroup."""
    md = _moment_for(p)
    xc, xe = _as_point(x)
    yc, ye = _as_point(y)
    for vec_c, name in ((xc, "x"), (yc, "y")):
        if vec_c.shape != (p.d,):
            raise ValidationError(f"{name} has wrong length")
        ups = np.abs(vec_c) ** 2 + md.offsets_float
        if md.m and np.linalg.norm(md.kernel_float @ ups) > max(10 * tol, 1e-7):
            raise PreconditionError(f"{name} is off the moment zero level")
    exact = xe is not None and ye is not None
    zx = _zero_labels_of(xc, xe)
    zy = _zero_labels_of(yc, ye)
    if zx != zy:
        return OrbitEqualVerdict(False, "exact" if exact else "approximate",
                                 "supports differ")
    support = tuple(j for j in range(1, p.d + 1) if j not in set(zx))
    if exact:
        for j in support:
            if xe.mod2[j - 1] != ye.mod2[j - 1]:
                return OrbitEqualVerdict(False, "exact", "moduli differ")
        delta = [ye.phase[j - 1] - xe.phase[j - 1] for j in support]
        ok = _phase_shift_in_n_exact(p, support, zx, delta)
        return OrbitEqualVerdict(ok, "exact",
                                 "phase shift in subgroup" if ok else
                                 "phase shift not in subgroup")
    mods_x = np.abs(xc) ** 2
    mods_y = np.abs(yc) ** 2
    if not np.allclose(mods_x, mods_y, atol=10 * tol, rtol=0):
        return OrbitEqualVerdict(False, "approximate", "moduli differ")
    delta = [(np.angle(yc[j - 1]) - np.angle(xc[j - 1])) / (2 * math.pi)
             for j in support]
    ok = _phase_shift_in_n_float(p, support, zx, delta, tol)
    return OrbitEqualVerdict(ok, "approximate",
                             "phase shift in subgroup" if ok else
                             "phase shift not in subgroup")


@dataclass
class EquivalenceResult:
    equivalent: bool
    exactness: str
    orbit_z: OrbitClass
    orbit_w: OrbitClass
    reason: str


def equivalent(p: Polytope, z, w, lat: FaceLattice | None = None,
               cfg: SolverConfig | None = None) -> EquivalenceResult:
    """The quotient-defining equivalence: same closure face, and the
    canonical zero-level representatives differ by a kernel-subgroup
    phase."""
    lat = lat or p.face_lattice()
    cfg = cfg or SolverConfig()
    oz = classify_orbit(p, lat, z, cfg)
    ow = classify_orbit(p, lat, w, cfg)
    both_exact = oz.exactness == "exact" and ow.exactness == "exact"
    if oz.face_E.index_set != ow.face_E.index_set:
        return EquivalenceResult(False, "exact" if both_exact else "approximate",
                                 oz, ow, "closure faces differ")
    xi_gap = float(np.max(np.abs(oz.retracted.xi - ow.retracted.xi)))
    if xi_gap > 100 * cfg.tolerance:
        return EquivalenceResult(False, "approximate", oz, ow,
                                 "retracted polytope points differ")
    support = tuple(j for j in range(1, p.d + 1)
                    if j not in set(oz.face_E.index_set))
    if both_exact:
        delta = [ow.closed_rep.phase[j - 1] - oz.closed_rep.phase[j - 1]
                 for j in support]
        ok = _phase_shift_in_n_exact(p, support, oz.face_E.index_set, delta)
        # moduli agreement was decided with floats, so the overall verdict
        # stays approximate unless the phases alone already separate
        exactness = "exact" if not ok else "approximate"
        return EquivalenceResult(ok, exactness, oz, ow,
                                 "same face, moduli and phases agree" if ok
                                 else "phase shift not in subgroup")
    xc = np.asarray(oz.closed_rep if oz.exactness != "exact"
                    else oz.closed_rep.to_complex(), dtype=complex)
    wc = np.asarray(ow.closed_rep if ow.exactness != "exact"
                    else ow.closed_rep.to_complex(), dtype=complex)
    delta = [(np.angle(wc[j - 1]) - np.angle(xc[j - 1])) / (2 * math.pi)
             for j in support]
    ok = _phase_shift_in_n_float(p, support, oz.face_E.index_set, delta,
                                 cfg.tolerance)
    return EquivalenceResult(ok, "approximate", oz, ow,
                             "same face, moduli and phases agree" if ok
                             else "phase shift not in subgroup")


def stratum_of(p: Polytope, lat: FaceLattice, z):
    """The singular face labelling the stratum of z, or the maximal piece."""
    zc, exact = _as_point(z)
    if zc.shape != (p.d,):
        raise ValidationError("point has wrong length")
    labels = _zero_labels_of(zc, exact)
    face = lat.face_of_active_set(labels)
    if face is None:
        raise DomainError(
            f"support pattern {labels} lies outside the admissible open set")
    return face if not face.regular else MAXIMAL_PIECE
