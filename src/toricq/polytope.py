"""H-representation polytopes over a number field: validation, exact face
lattice enumeration, regular/singular classification, singularity depth,
and membership in the admissible open subset of C^d.

One double-description kernel, :func:`cone_rays` (Motzkin et al. 1953;
Fukuda & Prodon 1996), finds the extreme rays of a pointed cone
{x : <row, x> >= 0}.  It starts from the simplicial cone on the first
independent rows, adds the others one at a time, and combines two rays
across a new row only when the combinatorial test on their zero sets says
they are adjacent.  It needs nothing but an exact sign, so it holds over
any declared field.  It serves the contraction rates of nonclosed orbits
(``sampling._positive_decay_rates``) and the vertices, on the homogenised
cone {(y, t) : t >= 0, <X_j, y> >= lambda_j t}: a final ray with t = 0 is a
recession direction (the polytope is unbounded); the rays with t > 0 are
the vertices, and their zero sets are the vertex active sets.  Faces are
the intersections of facet vertex sets, and a face's dimension is read off
the grading of that lattice.

Facets carry 1-based labels 1..d throughout; index sets are sorted tuples
of labels.  Coordinate arrays are 0-based, so coordinate j-1 belongs to
facet label j.
"""

from __future__ import annotations

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
    """All faces of a polytope with their containment partial order.

    ``F <= G`` (F contained in the closure of G) holds exactly when the
    index sets reverse-contain: I_F >= I_G.  A link's lattice is its parent's
    interval above the face (:meth:`link_lattice`).
    """

    def __init__(self, polytope: "Polytope", faces: list[Face],
                 vertex_coords: list[list[FieldScalar]] | None,
                 vertex_active: list[tuple[int, ...]]):
        self.polytope = polytope
        self.faces = faces
        if vertex_coords is not None:
            self.vertex_coords = vertex_coords
        self.vertex_active = vertex_active
        self._by_index = {f.index_set: f for f in faces}
        self.interior = self._by_index[()]
        self.polytope_depth = max(f.depth for f in faces)

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
            for g in self.faces if g.dim == face.dim + 1 and self.lt(face, g)))

    # -- order ------------------------------------------------------------

    @staticmethod
    def le(a: Face, b: Face) -> bool:
        """a <= b: a lies in the closure of b."""
        return set(a.index_set) >= set(b.index_set)

    def lt(self, a: Face, b: Face) -> bool:
        return a != b and self.le(a, b)

    def covers(self) -> list[tuple[Face, Face]]:
        """Hasse diagram edges (lower, upper): the lattice is graded by
        dimension, so b covers a exactly when a < b and dim b = dim a + 1."""
        return [(a, b) for a in self.faces for b in self.faces
                if b.dim == a.dim + 1 and a.vertex_ids < b.vertex_ids]

    # -- queries ------------------------------------------------------------

    def vertices(self) -> list[Face]:
        return [f for f in self.faces if f.dim == 0]

    def singular_faces(self) -> list[Face]:
        return [f for f in self.faces if not f.regular]

    def face_by_index_set(self, index_set) -> Face | None:
        return self._by_index.get(tuple(sorted(index_set)))

    def face_of_active_set(self, index_set) -> Face | None:
        """The unique face on which every facet in ``index_set`` is active,
        with the smallest such index set; None when no point of the
        polytope satisfies all the equalities."""
        want = set(index_set)
        ids = [v for v, active in enumerate(self.vertex_active)
               if want <= set(active)]
        if not ids:
            return None
        face = self._by_index.get(_common_active(self.vertex_active, ids))
        if face is None:
            raise InternalConsistencyError("active-set closure missed the lattice")
        return face

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
        if any(len(x) != self.n for x in self.normals):
            raise ValidationError("normals have inconsistent dimensions")
        if len(self.offsets) != self.d:
            raise ValidationError("offsets and normals disagree in length")
        self._lattice: FaceLattice | None = None
        self._charts = None    # chart table, built by groups._chart_table
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
        field = self.field
        n, d = self.n, self.d
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
        found = sorted(((tuple(j for j in range(1, d + 1) if zero >> j & 1), ray[:n])
                        for ray, zero in zip(rays, zeros)), key=lambda e: e[0])
        return [coords for _, coords in found], [act for act, _ in found]

    # -- face lattice ---------------------------------------------------------

    def face_lattice(self) -> FaceLattice:
        return self._lattice or self._build_lattice(*self._enumerate_vertices())

    def _build_lattice(self, coords, active) -> FaceLattice:
        """Builds and keeps the lattice on the given vertices (coordinates may
        be None); rejects empty, lower-dimensional and redundant descriptions."""
        if not active:
            raise ValidationError("polytope is empty")
        nverts = len(active)
        all_ids = frozenset(range(nverts))
        facet_sets = [frozenset(v for v in range(nverts) if j in active[v])
                      for j in range(1, self.d + 1)]
        sets = {s for s in facet_sets if s}
        sets.add(all_ids)
        # close under intersection; every face is an intersection of facets
        frontier = set(sets)
        while frontier:
            new = set()
            for a in frontier:
                for b in sets:
                    c = a & b
                    if c and c not in sets and c not in new:
                        new.add(c)
            sets |= new
            frontier = new

        # the lattice is graded: a vertex has dim 0, any other face one
        # more than its largest proper subface
        by_size = sorted(sets, key=len)
        dims: dict[frozenset, int] = {}
        for i, vset in enumerate(by_size):
            below = [dims[u] for u in by_size[:i] if u < vset]
            dims[vset] = 1 + max(below) if below else 0
        if dims[all_ids] != self.n:
            raise ValidationError("polytope is lower-dimensional")
        for j, vset in enumerate(facet_sets, start=1):
            if not vset:
                raise ValidationError(f"facet {j} is never active (redundant)")
            if dims[vset] != self.n - 1:
                raise ValidationError(f"facet {j} is not an (n-1)-face (redundant)")

        entries = []
        index_sets = {}
        for vset in sets:
            iset = _common_active(active, vset)
            if iset in index_sets:
                raise InternalConsistencyError("two faces share an index set")
            index_sets[iset] = vset
            entries.append((iset, dims[vset], vset))
        if sum(1 for iset, _, _ in entries if len(iset) == 1) != self.d:
            raise ValidationError("duplicate or redundant facet detected")

        entries.sort(key=lambda e: (e[1], e[0]))
        regular = {e[0]: len(e[0]) == self.n - e[1] for e in entries}
        # depth: length of the longest ascent through singular faces before
        # reaching a regular one; regular faces sit at depth 0
        by_dim_desc = sorted(entries, key=lambda e: -e[1])
        depth: dict[tuple[int, ...], int] = {}
        for iset, dim, vset in by_dim_desc:
            if regular[iset]:
                depth[iset] = 0
                continue
            sing_above = [depth[e[0]] for e in by_dim_desc
                          if e[0] != iset and set(e[0]) < set(iset)
                          and not regular[e[0]]]
            depth[iset] = 1 + (max(sing_above) if sing_above else 0)

        faces = [Face(iset, dim, regular[iset], depth[iset], vset)
                 for iset, dim, vset in entries]
        self._lattice = FaceLattice(self, faces, coords, active)
        return self._lattice

    def __repr__(self):
        return f"Polytope(n={self.n}, d={self.d})"


def _common_active(active, ids) -> tuple[int, ...]:
    """The sorted labels active at every vertex in the nonempty ``ids``."""
    return tuple(sorted(set.intersection(*(set(active[v]) for v in ids))))


def cone_rays(rows):
    """Extreme rays of the pointed cone {x : <row, x> >= 0 for every row}
    and their zero sets (bit k set when the ray is on rows[k]), or None when
    the rows do not span the space.

    One double-description pass: the simplicial cone on the first
    independent rows, then the remaining rows one at a time, in order.  One
    elimination of [rows^T | I] gives the starting rows (its pivots) and the
    simplicial rays (its right-hand rows: ray i is zero on every starting
    row but start[i]).  Over Q that elimination runs fraction-free on
    integer rows and the pass on the scalars' Fraction values (see
    ``linalg``); only the returned rays are wrapped as scalars."""
    field = rows[0][0].field
    arith = linalg.arithmetic(field)
    rows = [linalg.raw(field, row) for row in rows]
    dim, m = len(rows[0]), len(rows)
    identity = [linalg.raw(field, e) for e in linalg.identity(dim, field)]
    tableau = [col + e for col, e in zip(linalg.transpose(rows), identity)]
    red, start, _ = linalg._rref(tableau, m)
    if len(start) != dim:
        return None
    rays = [_normalised(row[m:], arith) for row in red]
    everything = sum(1 << k for k in start)
    zeros = [everything & ~(1 << k) for k in start]
    for k, row in enumerate(rows):
        if k not in start:
            rays, zeros = _add_constraint(row, 1 << k, rays, zeros, dim - 1,
                                          arith)
    return [linalg.wrapped(field, ray) for ray in rays], zeros


def _normalised(ray, arith):
    """The raw ray scaled to a last coordinate of absolute value 1, or,
    when that is 0, to a first nonzero coordinate of absolute value 1."""
    scale = ray[-1]
    if arith.is_zero(scale):
        scale = next(x for x in ray if not arith.is_zero(x))
    if arith.sign(scale) < 0:
        scale = -scale
    if scale == 1:
        return ray
    inv = arith.inverse(scale)
    return [inv * x for x in ray]


def _add_constraint(row, bit, rays, zeros, n, arith):
    """One double-description step on raw entries: the extreme rays of the
    cone cut by <row, .> >= 0, with their zero sets (bit masks over the
    rows added).  ``n`` is the cone's dimension minus one."""
    values = [linalg.dot(row, r) for r in rays]
    signs = [arith.sign(v) for v in values]
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
            new_rays.append(_normalised(w, arith))
            new_zeros.append(common | bit)
    return new_rays, new_zeros
