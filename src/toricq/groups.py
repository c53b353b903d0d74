"""Quasilattices, the kernel exact sequence of the normal map, chart index
sets, and the discrete chart groups with exact finiteness certificates.

The ambient torus never appears as an object; the dense subgroups it
contains exist only through exact membership tests and kernel data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from . import intlat, linalg
from .errors import PreconditionError, ValidationError
from .field import FieldScalar, NumberField

if TYPE_CHECKING:
    from .polytope import Face, FaceLattice, Polytope


def _expand(v: Sequence[FieldScalar]) -> list[Fraction]:
    """Rational coordinates of a field vector w.r.t. the power basis."""
    out: list[Fraction] = []
    for s in v:
        out.extend(s.coeffs)
    return out


def _unexpand(field: NumberField, flat: Sequence[Fraction], n: int) -> list[FieldScalar]:
    e = field.degree
    return [FieldScalar(field, tuple(flat[i * e:(i + 1) * e])) for i in range(n)]


class Quasilattice:
    """Finitely generated additive subgroup of the ambient space, spanned
    by generators that span over the reals."""

    def __init__(self, field: NumberField, generators, *, validate: bool = True):
        self.field = field
        self.generators = [linalg.vec(field, g) for g in generators]
        if not self.generators:
            raise ValidationError("quasilattice needs at least one generator")
        self.ambient_dim = len(self.generators[0])
        if any(len(g) != self.ambient_dim for g in self.generators):
            raise ValidationError("generators have inconsistent dimensions")
        if validate and linalg.rank(self.generators, self.ambient_dim) != self.ambient_dim:
            raise ValidationError("generators do not span the ambient space")
        self._echelon_data: tuple[int, list[list[int]]] | None = None
        self._rank_data: tuple[int, list[list[FieldScalar]]] | None = None

    def _echelon(self) -> tuple[int, list[list[int]]]:
        """Common denominator D of the generators' power-basis coordinates
        and the ``column_echelon`` basis of D times the group."""
        if self._echelon_data is None:
            denom, cleared = intlat.clear_denominators(
                [_expand(g) for g in self.generators])
            self._echelon_data = (denom, intlat.column_echelon(cleared))
        return self._echelon_data

    def rank_certificate(self) -> tuple[int, list[list[FieldScalar]]]:
        """Rank as a free abelian group plus a basis of the group."""
        if self._rank_data is None:
            denom, echelon = self._echelon()
            basis = [_unexpand(self.field,
                               [Fraction(c, denom) for c in col],
                               self.ambient_dim)
                     for col in echelon]
            self._rank_data = (len(echelon), basis)
        return self._rank_data

    @property
    def z_rank(self) -> int:
        return self.rank_certificate()[0]

    @property
    def is_lattice(self) -> bool:
        return self.z_rank == self.ambient_dim

    def contains(self, v) -> bool:
        """Exact membership in the integer span of the generators."""
        v = linalg.vec(self.field, v)
        if len(v) != self.ambient_dim:
            raise ValidationError("vector has wrong dimension")
        # every member of the group times D is integral
        denom, echelon = self._echelon()
        scaled = [x * denom for x in _expand(v)]
        if any(x.denominator != 1 for x in scaled):
            return False
        return intlat.in_echelon_lattice(echelon, [int(x) for x in scaled])

    def __repr__(self):
        return f"Quasilattice(n={self.ambient_dim}, generators={len(self.generators)})"


@dataclass
class SequenceData:
    """Exact data of 0 -> kernel -> R^d -> ambient -> 0 and its dual."""

    pi_rows: list[list[FieldScalar]]       # n x d, column j-1 is X_j
    kernel_basis: list[list[FieldScalar]]  # d-n vectors spanning the kernel
    field: NumberField

    @property
    def d(self) -> int:
        return len(self.pi_rows[0])

    @property
    def n(self) -> int:
        return len(self.pi_rows)

    def pi(self, theta) -> list[FieldScalar]:
        """Image of a d-vector under e_j -> X_j."""
        return linalg.mat_vec(self.pi_rows, theta)

    def iota_star(self, xi) -> list[FieldScalar]:
        """Pairing of a functional on R^d with the kernel basis."""
        return [linalg.dot(v, xi) for v in self.kernel_basis]

    def pi_star(self, mu) -> list[FieldScalar]:
        """(pi*)(mu) = (<mu, X_j>)_j."""
        cols = linalg.transpose(self.pi_rows)
        return [linalg.dot(mu, col) for col in cols]


def kernel_data(p: "Polytope") -> SequenceData:
    """Exact kernel basis of the normal map, with both maps verified to
    compose to zero.  It is computed once per polytope and kept on it."""
    if p._kernel is not None:
        return p._kernel
    field = p.field
    pi_rows = [[p.normals[j][i] for j in range(p.d)] for i in range(p.n)]
    if linalg.rank(p.normals, p.n) != p.n:
        raise ValidationError("facet normals do not span the ambient space")
    kernel = linalg.nullspace(pi_rows, p.d, field)
    seq = SequenceData(pi_rows=pi_rows, kernel_basis=kernel, field=field)
    for v in kernel:
        if not all(s.is_zero() for s in seq.pi(v)):
            raise ValidationError("kernel basis fails pi . iota = 0")
    for mu in _standard_basis(field, p.n):
        if not all(s.is_zero() for s in seq.iota_star(seq.pi_star(mu))):
            raise ValidationError("dual sequence fails iota* . pi* = 0")
    p._kernel = seq
    return seq


def _standard_basis(field: NumberField, n: int):
    return [[field.one() if i == j else field.zero() for i in range(n)]
            for j in range(n)]


def chart_index_sets(p: "Polytope", lat: "FaceLattice") -> list[tuple[int, ...]]:
    """All I with {X_j : j in I} a basis and I inside some vertex's active
    set, sorted lexicographically."""
    found = set()
    for v in lat.vertices():
        labels = v.index_set
        for sub in combinations(labels, p.n):
            if sub in found:
                continue
            rows = [p.normals[j - 1] for j in sub]
            if linalg.rank(rows, p.n) == p.n:
                found.add(sub)
    return sorted(found)


@dataclass
class DiscreteGroupPresentation:
    """A chart group, presented by quasilattice generator images in the
    torus coordinates of the chart (reduced mod 1 and deduplicated)."""

    chart_index_set: tuple[int, ...]
    coords: tuple[int, ...]                 # labels carrying the images
    generator_images: list[list[FieldScalar]]  # full d-vectors, zero off coords
    finite: bool
    invariant_factors: list[int] | None
    order: int | None                       # None means infinite

    @property
    def order_text(self) -> str:
        return "infinite" if self.order is None else str(self.order)


def _chart_preimage(p: "Polytope", index_set, target) -> list[FieldScalar]:
    """theta supported on the chart with sum theta_j X_j = target.

    The inverse of the chart matrix is computed once per chart and kept on
    the polytope."""
    I = tuple(index_set)
    inverse = p._chart_inverses.get(I)
    if inverse is None:
        chart = [[p.normals[j - 1][i] for j in I] for i in range(p.n)]
        inverse = linalg.inverse(chart, p.field)
        if inverse is None:
            raise PreconditionError("chart normals are not a basis")
        p._chart_inverses[I] = inverse
    return linalg.mat_vec(inverse, target)


def _validate_chart(p: "Polytope", lat: "FaceLattice", index_set) -> tuple[int, ...]:
    I = tuple(sorted(int(j) for j in index_set))
    if len(I) != p.n or len(set(I)) != p.n:
        raise PreconditionError("chart index set must have size n")
    if any(j < 1 or j > p.d for j in I):
        raise PreconditionError("chart index set out of range")
    rows = [p.normals[j - 1] for j in I]
    if linalg.rank(rows, p.n) != p.n:
        raise PreconditionError("chart normals are not a basis")
    if not any(set(I) <= set(v.index_set) for v in lat.vertices()):
        raise PreconditionError("chart index set is not contained in a vertex")
    return I


def _presentation(p: "Polytope", I, coords, images_on_chart) -> DiscreteGroupPresentation:
    """Reduce generator images mod 1, restrict to coords, decide finiteness."""
    field = p.field
    coord_list = tuple(coords)
    pos = {j: k for k, j in enumerate(I)}
    reduced = []
    seen = set()
    for theta in images_on_chart:
        full = [field.zero()] * p.d
        for j in coord_list:
            full[j - 1] = theta[pos[j]].frac_part()
        key = tuple(s.coeffs for s in full)
        if any(not s.is_zero() for s in full) and key not in seen:
            seen.add(key)
            reduced.append(full)
    finite = all(s.is_rational() for img in reduced for s in img)
    if finite:
        restricted = [[img[j - 1].as_fraction() for j in coord_list]
                      for img in reduced]
        order, factors = intlat.quotient_invariants(restricted, len(coord_list))
    else:
        order, factors = None, None
    return DiscreteGroupPresentation(
        chart_index_set=tuple(I), coords=coord_list, generator_images=reduced,
        finite=finite, invariant_factors=factors, order=order)


def gamma_group(p: "Polytope", index_set,
                lat: "FaceLattice | None" = None) -> DiscreteGroupPresentation:
    """The discrete group attached to a chart index set: quasilattice
    preimages under the chart basis, modulo the integer lattice."""
    lat = lat or p.face_lattice()
    I = _validate_chart(p, lat, index_set)
    images = [_chart_preimage(p, I, g) for g in p.quasilattice.generators]
    return _presentation(p, I, I, images)


def gamma_check(p: "Polytope", index_set, face: "Face",
                lat: "FaceLattice | None" = None) -> DiscreteGroupPresentation:
    """The quotient group acting on a stratum chart: generator images
    restricted to the chart coordinates away from the face."""
    lat = lat or p.face_lattice()
    I = _validate_chart(p, lat, index_set)
    overlap = set(I) & set(face.index_set)
    if len(overlap) != p.n - face.dim:
        raise PreconditionError(
            "chart must meet the face's active set in exactly n - p facets")
    coords = tuple(sorted(set(I) - overlap))
    images = [_chart_preimage(p, I, g) for g in p.quasilattice.generators]
    return _presentation(p, I, coords, images)


def n_membership(seq: SequenceData, q: Quasilattice, theta) -> bool:
    """Whether the angle vector theta (in full turns) exponentiates into
    the kernel subgroup: its image under the normal map lies in Q."""
    theta = linalg.vec(seq.field, theta)
    if len(theta) != seq.d:
        raise ValidationError("angle vector has wrong length")
    return q.contains(seq.pi(theta))
