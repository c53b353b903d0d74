"""Quasilattices, the kernel exact sequence of the normal map, chart index
sets, and the discrete chart groups with exact finiteness certificates.

The ambient torus never appears as an object; the dense subgroups it
contains exist only through exact membership tests and kernel data.

Each polytope owns one chart table, the only holder of chart data: chart
index set I -> the generators' preimages under the basis {X_j : j in I}.
It is built from the polytope's own face lattice (``p.face_lattice()``),
so no chart query takes a lattice argument.
A chart lies in exactly one vertex (n independent active normals fix it).
Per vertex, one elimination of the tableau [X_A | G] (active set A,
generators G) gives a first basis; a depth-first search over basis
exchanges inside A, one exchange per new basis, gives the others, each with
its preimages in the G columns (Avis & Fukuda 1992).  Both steps are
``linalg.first_basis`` and ``linalg.exchange``, the driver of every exact
elimination, which take rows of scalars: over Q they run fraction-free on
the rows scaled to integers, over a field of degree >= 2 they are
Gauss-Jordan steps on the scalars.  A basis is reached once, by the bit
mask of its tableau columns.

A table entry is (D, T): the tableau's denominator (over Q, +-det of the
scaled X_I; otherwise 1) and the G columns T, one list per generator in the
order of I, so the preimages are T / D; :func:`_chart` turns T / D into
scalars by ``linalg.over`` when asked.

Every integer question here and in ``strata`` reads the scalars' integer
numerators over one denominator (:func:`_numerators`), never ``Fraction``
values.  :func:`_group` gives the chart group in every degree, on the chart
coordinates it acts on (``coords``: I for ``gamma_group``, I minus the
face's facets for ``gamma_check``); each image is a vector on ``coords``,
in their order.  It reduces the images mod 1 to numerators over one
denominator (over Q, sign(D) T mod |D| over |D| off the integer tableau;
otherwise the numerators of the fractional parts over the lcm of their
denominators) and deduplicates on them.  The group is finite exactly when
no image has a numerator past the constant term; then the Smith form of
the constant terms modulo D (``intlat.quotient_invariants``) gives the
invariant factors.  They depend only on the generated group, so each
polytope memoises them by (frozenset of the distinct images' numerators,
coordinate count, D): one Smith form per key.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import intlat, linalg
from .errors import PreconditionError, ValidationError
from .field import FieldScalar, NumberField, _reduced

if TYPE_CHECKING:
    from .polytope import Face, Polytope


def _numerators(vectors) -> tuple[int, list[list[int]]]:
    """The power-basis numerators of field vectors over one denominator D,
    the lcm of their scalars' denominators: (D, one flat integer list per
    vector)."""
    denom = math.lcm(*(s.den for v in vectors for s in v))
    return denom, [[x * (denom // s.den) for s in v for x in s.num]
                   for v in vectors]


class Quasilattice:
    """Finitely generated additive subgroup of the ambient space, spanned
    by generators that span over the reals."""

    def __init__(self, field: NumberField, generators):
        self.field = field
        self.generators = [linalg.vec(field, g) for g in generators]
        if not self.generators:
            raise ValidationError("quasilattice needs at least one generator")
        self.ambient_dim = len(self.generators[0])
        if any(len(g) != self.ambient_dim for g in self.generators):
            raise ValidationError("generators have inconsistent dimensions")
        if linalg.rank(self.generators, self.ambient_dim) != self.ambient_dim:
            raise ValidationError("generators do not span the ambient space")
        self._echelon_data: tuple[int, list[list[int]]] | None = None
        self._rank_data: tuple[int, list[list[FieldScalar]]] | None = None

    def _echelon(self) -> tuple[int, list[list[int]]]:
        """Common denominator D of the generators' power-basis coordinates
        and the ``column_echelon`` basis of D times the group."""
        if self._echelon_data is None:
            denom, cleared = _numerators(self.generators)
            self._echelon_data = (denom, intlat.column_echelon(cleared))
        return self._echelon_data

    def rank_certificate(self) -> tuple[int, list[list[FieldScalar]]]:
        """Rank as a free abelian group plus a basis of the group."""
        if self._rank_data is None:
            denom, echelon = self._echelon()
            e = self.field.degree
            basis = [[_reduced(self.field, num, denom)
                      for num in zip(*[iter(col)] * e)] for col in echelon]
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
        scaled = [divmod(x * denom, s.den) for s in v for x in s.num]
        if any(r for _, r in scaled):
            return False
        return intlat.in_echelon_lattice(echelon, [q for q, _ in scaled])

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

    def pi(self, theta) -> list[FieldScalar]:
        """Image of a d-vector under e_j -> X_j."""
        return linalg.mat_vec(self.pi_rows, theta)

    def iota_star(self, xi) -> list[FieldScalar]:
        """Pairing of a functional on R^d with the kernel basis."""
        return [linalg.dot(v, xi) for v in self.kernel_basis]


def kernel_data(p: "Polytope") -> SequenceData:
    """Exact kernel basis of the normal map, verified to compose with it to
    zero (pi . iota = 0; the dual iota* . pi* = 0 is the same products,
    transposed).  It is computed once per polytope and kept on it."""
    if p._kernel is not None:
        return p._kernel
    field = p.field
    pi_rows = [[p.normals[j][i] for j in range(p.d)] for i in range(p.n)]
    kernel = linalg.nullspace(pi_rows, p.d, field)
    if len(kernel) != p.d - p.n:
        raise ValidationError("facet normals do not span the ambient space")
    seq = SequenceData(pi_rows=pi_rows, kernel_basis=kernel, field=field)
    for v in kernel:
        if not all(s.is_zero() for s in seq.pi(v)):
            raise ValidationError("kernel basis fails pi . iota = 0")
    p._kernel = seq
    return seq


def _chart_table(p: "Polytope") -> dict:
    """The polytope's chart table, built from its own face lattice on the
    first chart query.  A simple vertex's one chart is its active set; its
    entry waits for the first query of that chart."""
    if p._charts is None:
        p._charts = {}
        for active in p.face_lattice().vertex_active:
            p._charts.update(_vertex_charts(p, active) if len(active) > p.n
                             else {active: None})
    return p._charts


def _vertex_charts(p: "Polytope", active) -> dict:
    """Every basis inside one vertex's active set, with its table entry,
    by basis exchange from the first pivot basis."""
    # the tableau over Q holds integers, otherwise scalars
    is_zero = operator.not_ if p.field.degree == 1 else FieldScalar.is_zero
    a, k = len(active), len(p.quasilattice.generators)
    rows = [[p.normals[j - 1][i] for j in active]
            + [g[i] for g in p.quasilattice.generators] for i in range(p.n)]
    tableau, denom, basis, _ = linalg.first_basis(rows, a)
    # a basis is seen once, by the bit mask of its columns
    mask = sum(1 << c for c in basis)
    charts, seen, stack = {}, {mask}, [(tableau, denom, basis, mask)]
    while stack:
        tableau, denom, basis, mask = stack.pop()
        order = sorted(range(p.n), key=basis.__getitem__)
        charts[tuple(active[basis[r]] for r in order)] = (
            denom, [[tableau[r][a + t] for r in order] for t in range(k)])
        nonbasic = [c for c in range(a) if c not in basis]
        for r, row in enumerate(tableau):
            rest = mask & ~(1 << basis[r])
            for c in nonbasic:
                new = rest | 1 << c
                if is_zero(row[c]) or new in seen:
                    continue
                seen.add(new)
                swapped = basis[:r] + [c] + basis[r + 1:]
                # filled in when popped
                charts[tuple(sorted(active[x] for x in swapped))] = None
                stack.append((*linalg.exchange(tableau, denom, r, c), swapped, new))
    return charts


def chart_index_sets(p: "Polytope") -> list[tuple[int, ...]]:
    """All I with {X_j : j in I} a basis and I inside some vertex's active
    set, sorted lexicographically."""
    return sorted(_chart_table(p))


@dataclass
class DiscreteGroupPresentation:
    """A chart group, presented by quasilattice generator images in the
    torus coordinates of the chart (reduced mod 1 and deduplicated)."""

    chart_index_set: tuple[int, ...]
    coords: tuple[int, ...]                 # labels carrying the images
    generator_images: list[list[FieldScalar]]  # on coords, in its order
    finite: bool
    invariant_factors: list[int] | None
    order: int | None                       # None means infinite

    @property
    def order_text(self) -> str:
        return "infinite" if self.order is None else str(self.order)


def _table_entry(p: "Polytope", index_set):
    """The sorted chart index set and its chart table entry; the
    preconditions are checked in a fixed order."""
    I = tuple(sorted(int(j) for j in index_set))
    if len(I) != p.n or len(set(I)) != p.n:
        raise PreconditionError("chart index set must have size n")
    if any(j < 1 or j > p.d for j in I):
        raise PreconditionError("chart index set out of range")
    table = _chart_table(p)
    if I not in table:
        # a basis inside a vertex's active set would be in the table
        if linalg.rank([p.normals[j - 1] for j in I], p.n) != p.n:
            raise PreconditionError("chart normals are not a basis")
        raise PreconditionError("chart index set is not contained in a vertex")
    if table[I] is None:
        table[I] = _vertex_charts(p, I)[I]
    return I, table[I]


def _chart(p: "Polytope", index_set):
    """The sorted chart index set and its generator preimages, as
    scalars."""
    I, (denom, columns) = _table_entry(p, index_set)
    return I, linalg.over(p.field, columns, denom)


def _group(p: "Polytope", I, coords, entry) -> DiscreteGroupPresentation:
    """The chart group on coords of a table entry (D, T), in every degree:
    each generator's images on coords, reduced mod 1, as power-basis
    numerators over one denominator, deduplicated on those numerators.
    A finite group's invariants come from ``p``'s memo, keyed by (frozenset
    of the images' numerators, len(coords), D): they depend on the generated
    group alone, so no byte moves.  The memo holds the factors as a tuple;
    each presentation gets its own list."""
    denom, columns = entry
    field, e = p.field, p.field.degree
    at = [I.index(j) for j in coords]
    if e == 1:
        # the images mod 1 are (sign(D) T mod |D|) / |D|
        size, sign = abs(denom), (1 if denom > 0 else -1)
        images = [tuple(sign * col[k] % size for k in at) for col in columns]
    else:
        size, images = _numerators([[col[k].frac_part() for k in at]
                                    for col in columns])
    distinct = dict.fromkeys(tuple(nums) for nums in images if any(nums))
    # an image with an irrational coordinate has infinite order
    finite = not any(any(nums[c::e]) for nums in distinct for c in range(1, e))
    if finite:
        constant = [nums[::e] for nums in distinct]
        key = (frozenset(constant), len(coords), size)
        if key not in p._invariants:
            order, factors = intlat.quotient_invariants(constant, len(coords), size)
            p._invariants[key] = order, tuple(factors)
        order, factors = p._invariants[key]
        factors = list(factors)
    else:
        order, factors = None, None
    # one scalar per distinct coordinate
    scalars, reduced = {}, []
    for nums in distinct:
        image = []
        for num in zip(*[iter(nums)] * e):
            if num not in scalars:
                scalars[num] = _reduced(field, num, size)
            image.append(scalars[num])
        reduced.append(image)
    return DiscreteGroupPresentation(
        chart_index_set=tuple(I), coords=coords, generator_images=reduced,
        finite=finite, invariant_factors=factors, order=order)


def gamma_group(p: "Polytope", index_set) -> DiscreteGroupPresentation:
    """The discrete group attached to a chart index set: quasilattice
    preimages under the chart basis, modulo the integer lattice."""
    I, entry = _table_entry(p, index_set)
    return _group(p, I, I, entry)


def gamma_check(p: "Polytope", index_set, face: "Face") -> DiscreteGroupPresentation:
    """The quotient group acting on a stratum chart: generator images
    restricted to the chart coordinates away from the face."""
    I, entry = _table_entry(p, index_set)
    overlap = set(I) & set(face.index_set)
    if len(overlap) != p.n - face.dim:
        raise PreconditionError(
            "chart must meet the face's active set in exactly n - p facets")
    coords = tuple(sorted(set(I) - overlap))
    return _group(p, I, coords, entry)


def n_membership(seq: SequenceData, q: Quasilattice, theta) -> bool:
    """Whether the angle vector theta (in full turns) exponentiates into
    the kernel subgroup: its image under the normal map lies in Q."""
    theta = linalg.vec(seq.field, theta)
    if len(theta) != seq.d:
        raise ValidationError("angle vector has wrong length")
    return q.contains(seq.pi(theta))
