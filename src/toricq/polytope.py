"""H-representation polytopes over a number field: validation, exact face
lattice enumeration, regular/singular classification, singularity depth,
and membership in the admissible open subset of C^d.

One double-description kernel, :func:`cone_rays` (Motzkin et al. 1953;
Fukuda & Prodon 1996), finds the extreme rays of a pointed cone
{x : <row, x> >= 0}.  It starts from the simplicial cone on the first
independent rows, adds the others one at a time, and combines two rays
across a new row only when the combinatorial test on their zero sets says
they are adjacent.  It needs nothing but an exact sign, so it holds over
any declared field (over Q on primitive integer rays, normalised once at
the end).  It serves the contraction rates of nonclosed orbits
(``sampling._positive_decay_rates``) and the vertices, on the homogenised
cone {(y, t) : t >= 0, <X_j, y> >= lambda_j t}: a final ray with t = 0 is a
recession direction (the polytope is unbounded); the rays with t > 0 are
the vertices, and their zero sets are the vertex active sets.  The face
lattice is built from these vertex-facet incidences alone, on vertex bit
masks, walking down from the whole polytope: the facets of a face F are the
inclusion-maximal proper nonempty intersections of F with a facet, and dim F
is one more than the largest of theirs (Kaibel & Pfetsch 2002, "Computing
the face lattice of a polytope from its vertex-facet incidences").

Facets carry 1-based labels 1..d throughout; index sets are sorted tuples
of labels.  Coordinate arrays are 0-based, so coordinate j-1 belongs to
facet label j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import InternalConsistencyError, ValidationError
from .field import FieldScalar, NumberField


@dataclass(frozen=True)
class Face:
    """An open face, identified by the facets active on all of it."""

    index_set: tuple[int, ...]
    dim: int
    regular: bool
    depth: int
    vertex_ids: frozenset[int]

    @property
    def r(self) -> int:
        """Number of active facets."""
        return len(self.index_set)

    def __repr__(self):
        kind = "regular" if self.regular else "singular"
        return f"Face(I={list(self.index_set)}, dim={self.dim}, {kind})"


class FaceLattice:
    """All faces of a polytope with their containment partial order, kept
    as found by :meth:`Polytope._build_lattice`: faces keyed by vertex bit
    mask, facet masks, and the Hasse diagram as each face's upper covers.

    ``F <= G`` (F contained in the closure of G) holds exactly when the
    vertex sets are contained, and when the index sets reverse-contain:
    I_F >= I_G.  A link's lattice is its parent's interval above the face
    (:meth:`link_lattice`).
    """

    def __init__(self, polytope: "Polytope", by_mask: dict[int, Face],
                 upper: dict[tuple[int, ...], list[Face]], facet_masks: list[int],
                 vertex_coords: list[list[FieldScalar]] | None,
                 vertex_active: list[tuple[int, ...]]):
        self.polytope = polytope
        self.faces = list(by_mask.values())
        if vertex_coords is not None:
            self.vertex_coords = vertex_coords
        self.vertex_active = vertex_active
        self._by_index = {f.index_set: f for f in self.faces}
        self._by_mask, self._upper, self._facet_masks = by_mask, upper, facet_masks
        self.interior = self._by_index[()]
        self.polytope_depth = max(f.depth for f in self.faces)

    @cached_property
    def vertex_coords(self) -> list[list[FieldScalar]]:
        """Vertex coordinates; a link's lattice solves them on first read."""
        p = self.polytope
        return [linalg.solve([p.normals[j - 1] for j in a],
                             [p.offsets[j - 1] for j in a], p.n, p.field)
                for a in self.vertex_active]

    def link_lattice(self, face: Face, link: "Polytope") -> "FaceLattice":
        """The lattice of the link of ``face``: the interval [face, P] renumbered
        (Ziegler 1995, 2.1), vertices sorted as _enumerate_vertices sorts them."""
        return link._build_lattice(None, sorted(
            tuple(face.index_set.index(j) + 1 for j in g.index_set)
            for g in self._upper[face.index_set]))

    # -- order ------------------------------------------------------------

    @staticmethod
    def lt(a: Face, b: Face) -> bool:
        """a < b: a lies in the boundary of b."""
        return a.vertex_ids < b.vertex_ids

    def covers(self) -> list[tuple[Face, Face]]:
        """Hasse diagram edges (lower, upper), ordered by the positions of
        the lower, then the upper face in ``faces``."""
        return [(a, b) for a in self.faces for b in self._upper[a.index_set]]

    # -- queries ------------------------------------------------------------

    def vertices(self) -> list[Face]:
        return [f for f in self.faces if f.dim == 0]

    def singular_faces(self) -> list[Face]:
        return [f for f in self.faces if not f.regular]

    def face_by_index_set(self, index_set) -> Face | None:
        return self._by_index.get(tuple(sorted(index_set)))

    def face_of_active_set(self, index_set) -> Face | None:
        """The unique face on which every facet in ``index_set`` is active,
        with the smallest such index set; None when a label is not in 1..d
        or no point of the polytope satisfies all the equalities."""
        mask = (1 << len(self.vertex_active)) - 1
        for j in index_set:
            if not 1 <= j <= len(self._facet_masks):
                return None
            mask &= self._facet_masks[j - 1]
        return self._by_mask[mask] if mask else None

    def vertices_of(self, f: Face) -> list[list[FieldScalar]]:
        return [self.vertex_coords[v] for v in sorted(f.vertex_ids)]

    def relint_point(self, f: Face) -> list[FieldScalar]:
        """An exact point in the relative interior (vertex barycenter)."""
        return linalg.barycenter(self.vertices_of(f), self.polytope.field)


class Polytope:
    """A full-dimensional bounded H-polytope with chosen facet normals and
    a quasilattice containing them."""

    def __init__(self, field: NumberField, normals, offsets, quasilattice,
                 *, validate: bool = True):
        self.field = field
        self.normals = [linalg.vec(field, x) for x in normals]
        self.offsets = linalg.vec(field, offsets)
        self.quasilattice = quasilattice
        if not self.normals:
            raise ValidationError("no facets given")
        self.n = len(self.normals[0])
        self.d = len(self.normals)
        if not self.n:
            raise ValidationError("ambient dimension is 0: normals have no coordinates")
        if any(len(x) != self.n for x in self.normals):
            raise ValidationError("normals have inconsistent dimensions")
        if len(self.offsets) != self.d:
            raise ValidationError("offsets and normals disagree in length")
        self._lattice: FaceLattice | None = None
        self._charts = None    # chart table, built by groups._chart_table
        self._invariants = {}  # chart-group Smith invariants, by groups._group
        self._kernel = None    # SequenceData, built by groups.kernel_data
        self._moment = None    # MomentData, built by orbits._moment_for
        if validate:
            self._validate()

    # -- exact pairings ---------------------------------------------------

    def pair(self, mu, j: int) -> FieldScalar:
        """<mu, X_j> for facet label j."""
        return linalg.dot(mu, self.normals[j - 1])

    def slack(self, mu, j: int) -> FieldScalar:
        """<mu, X_j> - lambda_j."""
        return self.pair(mu, j) - self.offsets[j - 1]

    def contains_point(self, mu) -> bool:
        return all(self.slack(mu, j).sign() >= 0 for j in range(1, self.d + 1))

    def active_set(self, mu) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.d + 1)
                     if self.slack(mu, j).is_zero())

    # -- validation ---------------------------------------------------------

    def _validate(self):
        coords, active = self._enumerate_vertices()
        if self.quasilattice is None:
            raise ValidationError("polytope needs a quasilattice")
        for j, x in enumerate(self.normals, start=1):
            if not self.quasilattice.contains(x):
                raise ValidationError(
                    f"facet normal {j} is not in the quasilattice")
        self._build_lattice(coords, active)

    def _enumerate_vertices(self):
        """Vertex coordinates and active sets, in the order of the
        lexicographically first facet basis inside each active set.

        One double-description pass over the homogenised cone; raises
        ``ValidationError`` when a final ray has t = 0 (unbounded)."""
        field, n = self.field, self.n
        # row 0 is t >= 0, row j is facet j as (X_j, -lambda_j)
        rows = [[field.zero()] * n + [field.one()]]
        rows += [list(x) + [-lam] for x, lam in zip(self.normals, self.offsets)]
        cone = cone_rays(rows)
        if cone is None:
            raise ValidationError("facet normals do not span the ambient space")
        rays, zeros = cone
        if any(r[n].is_zero() for r in rays):
            raise ValidationError("polytope is unbounded")
        # Sorting by active set is sorting by the lexicographically first
        # basis inside it: where two active sets first differ, the smaller
        # label is active at one vertex only, so it is independent of the
        # common prefix (a dependent label would be tight on the prefix's
        # whole affine hull, at both vertices), and both bases differ there.
        found = sorted(((tuple(_bits(zero)), ray[:n])
                        for ray, zero in zip(rays, zeros)), key=lambda e: e[0])
        return [coords for _, coords in found], [act for act, _ in found]

    # -- face lattice ---------------------------------------------------------

    def face_lattice(self) -> FaceLattice:
        return self._lattice or self._build_lattice(*self._enumerate_vertices())

    def _build_lattice(self, coords, active) -> FaceLattice:
        """Builds and keeps the lattice on the given vertices (coordinates may
        be None); rejects empty, lower-dimensional and redundant descriptions.

        The walk down from the full vertex mask reaches every nonempty
        intersection of facets, valid input or not.  The lower covers of F
        are the inclusion-maximal proper nonempty F & m_j (m_j: facet j)."""
        if not active:
            raise ValidationError("polytope is empty")
        full = (1 << len(active)) - 1
        facet_masks = [0] * self.d
        for v, labels in enumerate(active):
            for j in labels:
                facet_masks[j - 1] |= 1 << v
        lower, index_sets, todo = {}, {}, [full]
        while todo:
            f = todo.pop()
            if f in lower:
                continue
            labels, below = [], set()   # index set, candidate lower covers
            for j, m in enumerate(facet_masks, start=1):
                c = f & m
                if c == f:
                    labels.append(j)
                elif c:
                    below.add(c)
            kept = []
            for c in sorted(below, key=int.bit_count, reverse=True):
                for k in kept:
                    if c & k == c:
                        break
                else:
                    kept.append(c)
            lower[f], index_sets[f] = kept, tuple(labels)
            todo += kept
        # the lattice is graded: a vertex has dim 0, any other face one
        # more than its largest lower cover
        dims = {}
        for f in sorted(lower, key=int.bit_count):
            dims[f] = 1 + max([dims[c] for c in lower[f]], default=-1)
        if dims[full] != self.n:
            raise ValidationError("polytope is lower-dimensional")
        for j, m in enumerate(facet_masks, start=1):
            if not m:
                raise ValidationError(f"facet {j} is never active (redundant)")
            if dims[m] != self.n - 1:
                raise ValidationError(f"facet {j} is not an (n-1)-face (redundant)")
        if len(set(index_sets.values())) != len(index_sets):
            raise InternalConsistencyError("two faces share an index set")
        if sum(1 for iset in index_sets.values() if len(iset) == 1) != self.d:
            raise ValidationError("duplicate or redundant facet detected")

        masks = sorted(lower, key=lambda f: (dims[f], index_sets[f]))
        upper = {f: [] for f in masks}
        for f in masks:
            for c in lower[f]:
                upper[c].append(f)
        # depth: the longest chain of singular faces in [F, P], found from
        # the top down over upper covers; regular faces sit at depth 0
        singular = {f: len(index_sets[f]) != self.n - dims[f] for f in masks}
        chain = {}
        for f in reversed(masks):
            chain[f] = singular[f] + max([chain[g] for g in upper[f]], default=0)
        faces = {f: Face(index_sets[f], dims[f], not singular[f],
                         chain[f] if singular[f] else 0, frozenset(_bits(f)))
                 for f in masks}
        self._lattice = FaceLattice(
            self, faces, {faces[f].index_set: [faces[g] for g in upper[f]]
                          for f in masks}, facet_masks, coords, active)
        return self._lattice

    def __repr__(self):
        return f"Polytope(n={self.n}, d={self.d})"


def _bits(mask: int):
    """The positions of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cone_rays(rows):
    """Extreme rays of the pointed cone {x : <row, x> >= 0 for every row}
    and their zero sets (bit k set when the ray is on rows[k]), or None when
    the rows do not span the space.

    One ``linalg.first_basis`` of [rows^T | I] gives the starting rows (its
    pivots) and the simplicial rays (its right-hand block over its
    denominator: ray i is zero on every starting row but start[i]); the
    other rows are added in order.  Over Q the rows are scaled to integers
    and the rays are primitive integer vectors until the end.  A returned
    ray has a last coordinate of absolute value 1, or, when that is 0, a
    first nonzero one."""
    field = rows[0][0].field
    dim, m = len(rows[0]), len(rows)
    identity = linalg.identity(dim, field)
    tableau, denom, start, _ = linalg.first_basis(
        [col + e for col, e in zip(linalg.transpose(rows), identity)], m)
    if len(start) != dim:
        return None
    rays = [_normalised([x if denom > 0 else -x for x in row[m:]]) for row in tableau]
    if field.degree == 1:
        scale = math.lcm(*(x.den for row in rows for x in row))
        rows = [[x.num[0] * (scale // x.den) for x in row] for row in rows]
    everything = sum(1 << k for k in start)
    zeros = [everything & ~(1 << k) for k in start]
    for k, row in enumerate(rows):
        if k not in start:
            rays, zeros = _add_constraint(row, 1 << k, rays, zeros, dim - 1)
    if field.degree == 1:
        rays = [[linalg._ratio(field, x, abs(r[-1] or next(filter(None, r))))
                 for x in r] for r in rays]
    return rays, zeros


def _normalised(ray):
    """An integer ray over the gcd of its entries; a ray of scalars scaled
    as :func:`cone_rays` returns it."""
    if type(ray[0]) is int:
        g = math.gcd(*ray)
        return ray if g == 1 else [x // g for x in ray]
    scale = ray[-1]
    if scale.is_zero():
        scale = next(x for x in ray if not x.is_zero())
    if scale.sign() < 0:
        scale = -scale
    if scale == 1:
        return ray
    inv = scale.inverse()
    return [inv * x for x in ray]


def _add_constraint(row, bit, rays, zeros, n):
    """One double-description step: the extreme rays of the cone cut by
    <row, .> >= 0, with their zero sets (bit masks over the rows added).
    ``n`` is the cone's dimension minus one; entries are ints or scalars."""
    if type(row[0]) is int:
        values = [sum([a * b for a, b in zip(row, r)]) for r in rays]
        signs = [(v > 0) - (v < 0) for v in values]
    else:
        values = [linalg.dot(row, r) for r in rays]
        signs = [v.sign() for v in values]
    keep = [i for i, s in enumerate(signs) if s >= 0]
    new_rays = [rays[i] for i in keep]
    new_zeros = [zeros[i] | bit if signs[i] == 0 else zeros[i] for i in keep]
    neg = [i for i, s in enumerate(signs) if s < 0]
    for i in (i for i, s in enumerate(signs) if s > 0):
        for j in neg:
            common = zeros[i] & zeros[j]
            # adjacent: n-1 shared independent constraints (checked by
            # count) and no third ray on all of them (combinatorial test)
            if common.bit_count() < n - 1:
                continue
            if any(zeros[k] & common == common
                   for k in range(len(rays)) if k != i and k != j):
                continue
            w = [values[i] * b - values[j] * a for a, b in zip(rays[i], rays[j])]
            new_rays.append(_normalised(w))
            new_zeros.append(common | bit)
    return new_rays, new_zeros
