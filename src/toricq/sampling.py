"""Seeded samplers for admissible points and kernel-subgroup elements.

All randomness in the package flows through one :class:`Sampler` so that a
(seed, instance) pair reproduces every report byte for byte.  Subgroup
elements are sampled in polar pieces: an exact angle vector whose image
under the normal map is an integer combination of quasilattice generators,
and a float direction in the kernel span for the imaginary part.  The two
pieces are handed around as a pair and applied independently.
"""

from __future__ import annotations

import math
import random
from functools import cached_property

import numpy as np

from . import linalg
from .errors import InternalConsistencyError
from .groups import _chart_preimage, chart_index_sets
from .orbits import OrbitClass, _moment_for
from .polytope import Face, Polytope


class Sampler:
    def __init__(self, p: Polytope, seed: int):
        self.p = p
        self.lat = p.face_lattice()
        self.rng = random.Random(seed)
        self._charts = chart_index_sets(p, self.lat)
        self.md = _moment_for(p)

    # -- points -----------------------------------------------------------

    def _coord(self, lo=0.4, hi=1.6) -> complex:
        r = self.rng.uniform(lo, hi)
        phi = self.rng.uniform(0.0, 2 * math.pi)
        return r * complex(math.cos(phi), math.sin(phi))

    def point_with_zeros(self, zero_labels) -> np.ndarray:
        z = np.array([self._coord() for _ in range(self.p.d)], dtype=complex)
        for j in zero_labels:
            z[j - 1] = 0
        return z

    def point_for_face(self, face: Face) -> np.ndarray:
        """A point whose orbit is closed with closure face ``face``."""
        return self.point_with_zeros(face.index_set)

    def random_admissible_point(self) -> np.ndarray:
        """Zero pattern drawn inside a random face's active set, so the
        point always lies in the admissible open set (closed or not)."""
        face = self.rng.choice(self.lat.faces)
        k = self.rng.randint(0, len(face.index_set))
        zeros = self.rng.sample(face.index_set, k)
        return self.point_with_zeros(zeros)

    def point_biased_nonclosed(self) -> np.ndarray:
        """Like :meth:`random_admissible_point`, but half the draws zero a
        proper subset of a singular face's active set, where nonclosed
        orbits live."""
        singular = self.lat.singular_faces()
        if singular and self.rng.random() < 0.5:
            face = self.rng.choice(singular)
            k = self.rng.randint(1, len(face.index_set) - 1)
            zeros = self.rng.sample(face.index_set, k)
            return self.point_with_zeros(zeros)
        return self.random_admissible_point()

    def exact_point_for_face(self, face: Face):
        """A field-exact admissible point with closed orbit on the face:
        rational squared moduli and sixteenth-turn phases."""
        from .orbits import ExactVector

        field = self.p.field
        mod2 = []
        phase = []
        kill = set(face.index_set)
        from fractions import Fraction
        for j in range(1, self.p.d + 1):
            if j in kill:
                mod2.append(Fraction(0))
                phase.append(Fraction(0))
            else:
                mod2.append(Fraction(self.rng.randint(3, 30), 10))
                phase.append(Fraction(self.rng.randint(0, 15), 16))
        return ExactVector(field, mod2, phase)

    # -- subgroup elements ---------------------------------------------------

    @cached_property
    def _generator_preimages(self) -> list[list]:
        """For each quasilattice generator g, the angles theta on the first
        chart with sum theta_j X_j = g."""
        chart = self._charts[0]
        return [_chart_preimage(self.p, chart, g)
                for g in self.p.quasilattice.generators]

    def n_element(self, bound: int = 3):
        """Exact angle vector theta (in turns) with pi(theta) in Q: a
        random integer combination of the generator preimages."""
        field = self.p.field
        theta_chart = [field.zero()] * self.p.n
        for pre in self._generator_preimages:
            c = self.rng.randint(-bound, bound)
            if c:
                theta_chart = linalg.vec_add(
                    theta_chart, linalg.vec_scale(field.from_rational(c), pre))
        theta = [field.zero()] * self.p.d
        for j, t in zip(self._charts[0], theta_chart):
            theta[j - 1] = t
        return theta

    def a_element(self, bound: float = 2.0) -> np.ndarray:
        """Float direction in the kernel span (imaginary part)."""
        B = self.md.kernel_float  # m x d
        if B.shape[0] == 0:
            return np.zeros(self.p.d)
        coeffs = np.array([self.rng.uniform(-bound, bound)
                           for _ in range(B.shape[0])])
        return B.T @ coeffs

    def nc_pair(self, bound: int = 3, a_bound: float = 2.0):
        return self.n_element(bound), self.a_element(a_bound)

    def apply(self, z, theta=None, Y=None) -> np.ndarray:
        """Act by exp(2 pi i theta) exp(i iota(Y)): phases from the exact
        angle vector, positive scalings e^{-2 pi Y_j} from the direction."""
        z = np.asarray(z, dtype=complex).copy()
        if theta is not None:
            angles = np.array([t.shadow(53)[0] for t in theta])
            z = z * np.exp(2j * math.pi * angles)
        if Y is not None:
            z = z * np.exp(-2 * math.pi * np.asarray(Y))
        return z


def _positive_decay_rates(p: Polytope, decay, zero):
    """Exact strictly positive rates c_j with sum c_j X_j in the span of
    the zero-set normals.

    Such rates exist whenever the closure face comes from the active-set
    closure of the zero set: otherwise some direction inside the equality
    affine space would leave one closure-face constraint while keeping the
    rest, contradicting that the constraint is active on the whole face.
    The rates form a polytope {c >= 0, sum c = 1, projected combination 0};
    its vertex barycenter is strictly positive and exact.
    """
    from itertools import combinations

    field = p.field
    span_rows = [p.normals[k - 1] for k in zero]
    ann = linalg.nullspace(span_rows, p.n, field)  # functionals killing the span
    t = len(decay)
    rows = [[linalg.dot(f, p.normals[j - 1]) for j in decay] for f in ann]
    rows.append([field.one()] * t)
    rhs = [field.zero()] * len(ann) + [field.one()]
    vertices = []
    seen = set()
    for size in range(t):
        for off in combinations(range(t), size):
            sub_cols = [c for c in range(t) if c not in off]
            sub_rows = [[row[c] for c in sub_cols] for row in rows]
            if linalg.rank(sub_rows, len(sub_cols)) != len(sub_cols):
                continue
            sol = linalg.solve(sub_rows, rhs, len(sub_cols), field)
            if sol is None:
                continue
            if any(s.sign() < 0 for s in sol):
                continue
            full = [field.zero()] * t
            for c, s in zip(sub_cols, sol):
                full[c] = s
            key = tuple(s.coeffs for s in full)
            if key not in seen:
                seen.add(key)
                vertices.append(full)
    if not vertices:
        raise InternalConsistencyError("no positive contraction rates exist")
    acc = list(vertices[0])
    for v in vertices[1:]:
        acc = linalg.vec_add(acc, v)
    inv = field.one() / len(vertices)
    bary = linalg.vec_scale(inv, acc)
    if any(s.sign() <= 0 for s in bary):
        raise InternalConsistencyError("contraction rates are not positive")
    cmin = min(bary)
    return [c / cmin for c in bary]  # slowest rate exactly 1


def nonclosed_flow_direction(p: Polytope, orbit: OrbitClass) -> np.ndarray:
    """A kernel direction whose imaginary-time flow contracts exactly the
    closure-face coordinates of a nonclosed orbit (slowest rate 1), fixing
    every coordinate off the closure face."""
    from .errors import PreconditionError

    if orbit.closed:
        raise PreconditionError("orbit is closed: no contraction direction")
    field = p.field
    decay = [j for j in orbit.face_E.index_set if j not in set(orbit.i_z)]
    zero = list(orbit.i_z)
    rates = _positive_decay_rates(p, decay, zero)
    combo = [field.zero()] * p.n
    for j, c in zip(decay, rates):
        combo = linalg.vec_add(combo, linalg.vec_scale(c, p.normals[j - 1]))
    span_vectors = [p.normals[k - 1] for k in zero]
    coords = linalg.in_span(span_vectors, combo, p.n, field)
    if coords is None:
        raise InternalConsistencyError(
            "decay combination escapes the span of the zero-set normals")
    y = [field.zero()] * p.d
    for j, c in zip(decay, rates):
        y[j - 1] = c
    for k, c in zip(zero, coords):
        y[k - 1] = -c
    image = linalg.mat_vec([[p.normals[j][i] for j in range(p.d)]
                            for i in range(p.n)], y)
    if not all(s.is_zero() for s in image):
        raise InternalConsistencyError("flow direction is not in the kernel")
    return np.array([s.shadow(53)[0] for s in y])
