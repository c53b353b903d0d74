"""Closed-orbit classification, monomial-modulus invariants, canonical
retraction, and the orbit equivalence test defining the quotient space.

Points are plain complex vectors or :class:`ExactVector`s, which carry
field-exact squared moduli and phases in full turns.  Two zero-level points
differ by a kernel-subgroup phase exactly when the image of the phase
difference under the normal map lies in the quasilattice plus the real span
of the normals on the zero coordinates: integer linear algebra for two exact
points, a tolerance-based rounding otherwise.  A verdict is "exact" only
when no float comparison decided it; ``equivalent`` compares the retracted
polytope points in floats, so only its negative verdicts can be exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .errors import DomainError, PreconditionError, ValidationError
from .groups import Quasilattice
from .moment import (MomentData, RetractionResult, SolverConfig, _level_residual,
                     _read_only, _zero_labels, moment_data, retract)
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
                r = math.sqrt(float(m2))
                out[j] = r * cmath.exp(2j * math.pi * float(ph))
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


def _as_point(z) -> tuple[np.ndarray, ExactVector | None, tuple[int, ...]]:
    """The point as a complex vector, its exact form (None for a float
    point), and the labels of its zero coordinates."""
    if isinstance(z, ExactVector):
        return z.to_complex(), z, z.zero_labels()
    zc = np.asarray(z, dtype=complex)
    return zc, None, _zero_labels(zc)


def _exactness(exact: bool) -> str:
    return "exact" if exact else "approximate"


def _support_face(p: Polytope, lat: FaceLattice, z):
    """The point split as by :func:`_as_point`, and the face whose active
    set its zero labels close up to; a point of the wrong length or outside
    the admissible open set is an error."""
    zc, exact, labels = _as_point(z)
    if zc.shape != (p.d,):
        raise ValidationError("point has wrong length")
    face = lat.face_of_active_set(labels)
    if face is None:
        raise DomainError(
            f"support pattern {labels} lies outside the admissible open set")
    return zc, exact, labels, face


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


class _Closure(NamedTuple):
    """The closure map's result, under the names of :class:`OrbitClass`."""
    i_z: tuple[int, ...]
    face_E: Face
    closed: bool
    closed_rep: object
    rep_c: np.ndarray


def _closure(p: Polytope, lat: FaceLattice, z) -> _Closure:
    """The closure map of the orbit through z, without the retraction: the
    labels of z's zero coordinates, its support face, whether the orbit is
    closed, the closed representative in its closure (an
    :class:`ExactVector` for an exact z) and that representative as a
    complex vector."""
    zc, exact, labels, face = _support_face(p, lat, z)
    closed = labels == face.index_set
    if exact is not None:
        rep = exact.zeroed(face.index_set)
        rep_c = rep.to_complex()
    else:
        rep = rep_c = zc.copy()
        rep[[j - 1 for j in face.index_set]] = 0
    return _Closure(labels, face, closed, rep, rep_c)


def classify_orbit(p: Polytope, lat: FaceLattice, z,
                   cfg: SolverConfig | None = None) -> OrbitClass:
    """Decide closedness of the orbit through z, produce the closed
    representative in its closure, and retract it onto the zero level."""
    labels, face, closed, rep, rep_c = _closure(p, lat, z)
    res = retract(_moment_for(p), rep_c, cfg)
    return OrbitClass(z=z, i_z=labels, closed=closed, face_E=face,
                      closed_rep=rep, retracted=res,
                      exactness=_exactness(isinstance(z, ExactVector)))


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
                     exponents_float=np.array([float(c) for c in exponents]),
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
    group = Quasilattice(md.field, images)
    _, basis = group.rank_certificate()
    Ff = _read_only(np.array([[float(s) for s in f] for f in ann]))
    B = _read_only(np.array([[float(s) for s in b]
                             for b in basis]).T) if basis else None
    return _PhaseTest(ann, group, Ff, B)


def _phase_verdict(p: Polytope, zero_labels, x, y,
                   tol: float) -> tuple[bool, bool]:
    """Whether the phase difference of two points with these zero labels
    (free off the support) extends to a kernel-subgroup element, and whether
    that was decided exactly: by the integer test for two
    :class:`ExactVector` points, else by rounding the float target in the
    exact integer basis of the quasilattice image, which is sound when that
    image is a lattice (every rational instance) and a small-coefficient
    heuristic when it is dense."""
    md = _moment_for(p)
    test = _phase_test(md, zero_labels)
    exact = isinstance(x, ExactVector) and isinstance(y, ExactVector)
    if not test.ann:
        return True, exact
    support = [j for j in range(1, p.d + 1) if j not in set(zero_labels)]
    if exact:
        u = linalg.mat_vec(linalg.transpose([p.normals[j - 1] for j in support]),
                           [y.phase[j - 1] - x.phase[j - 1] for j in support])
        return test.group.contains([linalg.dot(f, u) for f in test.ann]), True
    xc, yc = _as_point(x)[0], _as_point(y)[0]
    Xf = md.normals_float
    u = np.zeros(p.n)
    for j in support:
        dlt = (np.angle(yc[j - 1]) - np.angle(xc[j - 1])) / (2 * math.pi)
        u += float(dlt) * Xf[j - 1]
    tgt = test.Ff @ u
    floor = max(tol, 1e-9)
    B = test.B
    if B is None:
        return bool(np.linalg.norm(tgt) <= floor), False
    if B.shape[1] == len(test.ann):
        # the image group is a lattice: express in its basis and round
        coeffs = np.linalg.solve(B, tgt)
        return bool(np.linalg.norm(B @ np.round(coeffs) - tgt) <= floor), False
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
    return bool(np.linalg.norm(residual) <= floor), False


def n_orbit_equal(p: Polytope, x, y, tol: float = 1e-8) -> OrbitEqualVerdict:
    """Equality of two zero-level points as orbits of the kernel subgroup:
    supports match, moduli match (equivalently the polytope points match),
    and the phase difference exponentiates into the subgroup."""
    md = _moment_for(p)
    xc, xe, zx = _as_point(x)
    yc, ye, zy = _as_point(y)
    for vec_c, name in ((xc, "x"), (yc, "y")):
        if vec_c.shape != (p.d,):
            raise ValidationError(f"{name} has wrong length")
        ups = np.abs(vec_c) ** 2 + md.offsets_float
        if _level_residual(md, ups) > max(10 * tol, 1e-7):
            raise PreconditionError(f"{name} is off the moment zero level")
    exact = xe is not None and ye is not None
    if zx != zy:
        return OrbitEqualVerdict(False, _exactness(exact), "supports differ")
    # the supports agree, so every modulus is compared, not just theirs
    if exact:
        moduli_agree = xe.mod2 == ye.mod2
    else:
        moduli_agree = np.allclose(np.abs(xc) ** 2, np.abs(yc) ** 2,
                                   atol=10 * tol, rtol=0)
    if not moduli_agree:
        return OrbitEqualVerdict(False, _exactness(exact), "moduli differ")
    ok, exact = _phase_verdict(p, zx, x, y, tol)
    return OrbitEqualVerdict(ok, _exactness(exact),
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
    return equivalent_orbits(p, classify_orbit(p, lat, z, cfg),
                             classify_orbit(p, lat, w, cfg), cfg)


def equivalent_orbits(p: Polytope, oz: OrbitClass, ow: OrbitClass,
                      cfg: SolverConfig) -> EquivalenceResult:
    """The verdict of :func:`equivalent` on two classified orbits, so that a
    caller asking several questions of one point classifies it once."""
    if oz.face_E.index_set != ow.face_E.index_set:
        both_exact = oz.exactness == ow.exactness == "exact"
        return EquivalenceResult(False, _exactness(both_exact), oz, ow,
                                 "closure faces differ")
    xi_gap = float(np.max(np.abs(oz.retracted.xi - ow.retracted.xi)))
    if xi_gap > 100 * cfg.tolerance:
        return EquivalenceResult(False, "approximate", oz, ow,
                                 "retracted polytope points differ")
    ok, exact = _phase_verdict(p, oz.face_E.index_set, oz.closed_rep,
                               ow.closed_rep, cfg.tolerance)
    # moduli agreement was decided with floats, so the verdict stays
    # approximate unless the phases alone already separate
    return EquivalenceResult(ok, _exactness(exact and not ok), oz, ow,
                             "same face, moduli and phases agree" if ok
                             else "phase shift not in subgroup")


def stratum_of(p: Polytope, lat: FaceLattice, z):
    """The singular face labelling the stratum of z, or the maximal piece."""
    face = _support_face(p, lat, z)[3]
    return face if not face.regular else MAXIMAL_PIECE
