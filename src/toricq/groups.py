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
exchanges inside A, one pivot per new basis, gives the others, each with
its preimages in the G columns (Avis & Fukuda 1992).  One search loop
serves every field; :func:`_search` picks its tableau and pivot once per
field, as ``linalg.arithmetic`` does:

- over Q, each row of [X_A | G] is scaled to integers (which keeps every
  solution of X_I theta = g) and a pivot on (r, c) is the fraction-free
  exchange T'_ij = (T_ij T_rc - T_ic T_rj) / D for i != r, row r kept,
  D' = T_rc, as in lrs (Avis 2000); each division is exact because every
  entry is a minor (Bareiss 1968);
- over a field of degree >= 2 a pivot is the Gauss-Jordan step on raw
  scalars (see ``linalg``) and D stays 1.

A table entry is (D, T): the signed denominator of the chart's tableau
(over Q, +-det of the scaled X_I) and the G columns T, one list per
generator in the order of I, so the preimages are T / D.  Over Q a chart
group is read off the integers alone: the images mod 1 are
(sign(D) T mod |D|) / |D|, and their Smith form gives the invariant
factors; :func:`_chart` wraps T / D as scalars when asked.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import intlat, linalg
from .errors import PreconditionError, ValidationError
from .field import FieldScalar, NumberField

if TYPE_CHECKING:
    from .polytope import Face, Polytope


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


def _integer_rows(rows) -> list[list[int]]:
    """Each raw rational row times the lcm of its denominators."""
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _bareiss_pivot(tableau, denom: int, r: int, c: int):
    """The integer tableau after the basis exchange on its nonzero entry
    (r, c), and its new denominator T_rc: row r is kept and every other
    row i becomes (T_i T_rc - T_ic T_r) / denom.  Every entry is a minor of
    the scaled [X_A | G], so each division is exact (Bareiss 1968)."""
    top = tableau[r]
    new = top[c]
    out = []
    for i, row in enumerate(tableau):
        f = row[c]
        if i == r or (not f and new == denom):
            out.append(row)
        elif f:
            out.append([(x * new - f * t) // denom for x, t in zip(row, top)])
        else:
            out.append([x * new // denom for x in row])
    return out, new


def _scalar_pivot(tableau, denom, r: int, c: int):
    """The Gauss-Jordan basis exchange, which keeps the denominator 1."""
    return linalg.pivot(tableau, r, c), denom


def _integer_preimages(field: NumberField, entry) -> list[list[FieldScalar]]:
    denom, columns = entry
    return [[FieldScalar(field, (Fraction(x, denom),)) for x in col]
            for col in columns]


def _scalar_preimages(field: NumberField, entry) -> list[list[FieldScalar]]:
    return [linalg.wrapped(field, col) for col in entry[1]]


class _Search(NamedTuple):
    """One field's chart search: the tableau rows it starts from, its zero
    test and basis exchange, and how a table entry is read back as
    generator preimages and as a chart group."""

    start: Callable       # raw rows of [X_A | G] -> tableau rows
    is_zero: Callable
    pivot: Callable       # (tableau, denom, r, c) -> (tableau, denom)
    preimages: Callable   # (field, entry) -> FieldScalar preimages
    present: Callable     # (p, I, coords, entry) -> DiscreteGroupPresentation


def _search(field: NumberField) -> _Search:
    """The integer tableau over Q, the scalar one over a field of degree
    at least 2."""
    return _INTEGER if field.degree == 1 else _SCALAR


def _first_basis(search: _Search, tableau, ncols: int):
    """A first pivot basis among the columns < ncols by the search's own
    pivot, each on the first nonzero row at or below the next pivot row;
    returns (tableau, denominator, basis)."""
    denom, basis = 1, []
    for c in range(ncols):
        r = len(basis)
        i = next((i for i in range(r, len(tableau))
                  if not search.is_zero(tableau[i][c])), None)
        if i is None:
            continue
        tableau = list(tableau)
        tableau[r], tableau[i] = tableau[i], tableau[r]
        tableau, denom = search.pivot(tableau, denom, r, c)
        basis.append(c)
        if len(basis) == len(tableau):
            break
    return tableau, denom, basis


def _vertex_charts(p: "Polytope", active) -> dict:
    """Every basis inside one vertex's active set, with its table entry,
    by basis exchange from the first pivot basis."""
    field = p.field
    search = _search(field)
    a, k = len(active), len(p.quasilattice.generators)
    rows = [linalg.raw(field, [p.normals[j - 1][i] for j in active]
                       + [g[i] for g in p.quasilattice.generators])
            for i in range(p.n)]
    charts, stack = {}, [_first_basis(search, search.start(rows), a)]
    while stack:
        tableau, denom, basis = stack.pop()
        order = sorted(range(p.n), key=basis.__getitem__)
        charts[tuple(active[basis[r]] for r in order)] = (
            denom, [[tableau[r][a + t] for r in order] for t in range(k)])
        nonbasic = [c for c in range(a) if c not in basis]
        for r, row in enumerate(tableau):
            for c in nonbasic:
                if search.is_zero(row[c]):
                    continue
                swapped = basis[:r] + [c] + basis[r + 1:]
                key = tuple(sorted(active[x] for x in swapped))
                if key not in charts:
                    charts[key] = None   # filled in when popped
                    stack.append((*search.pivot(tableau, denom, r, c), swapped))
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
    generator_images: list[list[FieldScalar]]  # full d-vectors, zero off coords
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
    I, entry = _table_entry(p, index_set)
    return I, _search(p.field).preimages(p.field, entry)


def _presentation(p: "Polytope", I, coords, images_on_chart) -> DiscreteGroupPresentation:
    """Reduce generator images mod 1, restrict to coords, decide finiteness."""
    field = p.field
    coord_list = tuple(coords)
    pos = {j: k for k, j in enumerate(I)}
    distinct = {}
    for theta in images_on_chart:
        full = [field.zero()] * p.d
        for j in coord_list:
            full[j - 1] = theta[pos[j]].frac_part()
        if any(not s.is_zero() for s in full):
            distinct.setdefault(tuple(s.coeffs for s in full), full)
    reduced = list(distinct.values())
    finite = all(s.is_rational() for img in reduced for s in img)
    if finite:
        denom, cleared = intlat.clear_denominators(
            [[img[j - 1].as_fraction() for j in coord_list] for img in reduced])
        order, factors = intlat.quotient_invariants(cleared, len(coord_list), denom)
    else:
        order, factors = None, None
    return DiscreteGroupPresentation(
        chart_index_set=tuple(I), coords=coord_list, generator_images=reduced,
        finite=finite, invariant_factors=factors, order=order)


def _integer_presentation(p: "Polytope", I, coords, entry) -> DiscreteGroupPresentation:
    """``_presentation`` of an integer entry (D, T): the images mod 1 are
    (sign(D) T mod |D|) / |D|, restricted to coords and deduplicated on
    their integer numerators."""
    denom, columns = entry
    coord_list = tuple(coords)
    size, sign = abs(denom), (1 if denom > 0 else -1)
    at = [I.index(j) for j in coord_list]
    distinct = {}
    for col in columns:
        image = tuple(sign * col[k] % size for k in at)
        if any(image):
            distinct.setdefault(image)
    # a common factor of |D| and every numerator leaves the quotient alone
    common = math.gcd(size, *(x for image in distinct for x in image))
    order, factors = intlat.quotient_invariants(
        [[x // common for x in image] for image in distinct], len(coord_list),
        size // common)
    field = p.field
    scalars = {0: field.zero()}
    reduced = []
    for image in distinct:
        full = [scalars[0]] * p.d
        for j, x in zip(coord_list, image):
            if x not in scalars:
                scalars[x] = FieldScalar(field, (Fraction(x, size),))
            full[j - 1] = scalars[x]
        reduced.append(full)
    return DiscreteGroupPresentation(
        chart_index_set=tuple(I), coords=coord_list, generator_images=reduced,
        finite=True, invariant_factors=factors, order=order)


_INTEGER = _Search(_integer_rows, operator.not_, _bareiss_pivot,
                   _integer_preimages, _integer_presentation)
_SCALAR = _Search(list, FieldScalar.is_zero, _scalar_pivot,
                  _scalar_preimages,
                  lambda p, I, coords, entry: _presentation(p, I, coords, entry[1]))


def gamma_group(p: "Polytope", index_set) -> DiscreteGroupPresentation:
    """The discrete group attached to a chart index set: quasilattice
    preimages under the chart basis, modulo the integer lattice."""
    I, entry = _table_entry(p, index_set)
    return _search(p.field).present(p, I, I, entry)


def gamma_check(p: "Polytope", index_set, face: "Face") -> DiscreteGroupPresentation:
    """The quotient group acting on a stratum chart: generator images
    restricted to the chart coordinates away from the face."""
    I, entry = _table_entry(p, index_set)
    overlap = set(I) & set(face.index_set)
    if len(overlap) != p.n - face.dim:
        raise PreconditionError(
            "chart must meet the face's active set in exactly n - p facets")
    coords = tuple(sorted(set(I) - overlap))
    return _search(p.field).present(p, I, coords, entry)


def n_membership(seq: SequenceData, q: Quasilattice, theta) -> bool:
    """Whether the angle vector theta (in full turns) exponentiates into
    the kernel subgroup: its image under the normal map lies in Q."""
    theta = linalg.vec(seq.field, theta)
    if len(theta) != seq.d:
        raise ValidationError("angle vector has wrong length")
    return q.contains(seq.pi(theta))
