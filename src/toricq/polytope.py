"""H-representation polytopes over a number field: validation, exact face
lattice enumeration, regular/singular classification, singularity depth,
and membership in the admissible open subset of C^d.

Facets carry 1-based labels 1..d throughout; index sets are sorted tuples
of labels.  Coordinate arrays are 0-based, so coordinate j-1 belongs to
facet label j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

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
    index sets reverse-contain: I_F >= I_G.
    """

    def __init__(self, polytope: "Polytope", faces: list[Face],
                 vertex_coords: list[list[FieldScalar]],
                 vertex_active: list[tuple[int, ...]]):
        self.polytope = polytope
        self.faces = faces
        self.vertex_coords = vertex_coords
        self.vertex_active = vertex_active
        self._by_index = {f.index_set: f for f in faces}
        self.interior = self._by_index[()]
        self.polytope_depth = max(f.depth for f in faces)

    # -- order ------------------------------------------------------------

    @staticmethod
    def le(a: Face, b: Face) -> bool:
        """a <= b: a lies in the closure of b."""
        return set(a.index_set) >= set(b.index_set)

    def lt(self, a: Face, b: Face) -> bool:
        return a != b and self.le(a, b)

    def faces_above(self, f: Face) -> list[Face]:
        return [g for g in self.faces if g != f and self.le(f, g)]

    def covers(self) -> list[tuple[Face, Face]]:
        """Hasse diagram edges (lower, upper)."""
        out = []
        for a in self.faces:
            ups = self.faces_above(a)
            for b in ups:
                if not any(self.lt(a, c) and self.lt(c, b) for c in ups):
                    out.append((a, b))
        return out

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
        ids = [v for v in range(len(self.vertex_coords))
               if want <= set(self.vertex_active[v])]
        if not ids:
            return None
        common = set(self.vertex_active[ids[0]])
        for v in ids[1:]:
            common &= set(self.vertex_active[v])
        face = self._by_index.get(tuple(sorted(common)))
        if face is None:
            raise InternalConsistencyError("active-set closure missed the lattice")
        return face

    def cd_delta_membership(self, z: Sequence[complex]) -> Face | None:
        """Face carrying the support pattern of z, or None for points
        outside the admissible open set.  Zero coordinates are detected
        exactly (== 0)."""
        if len(z) != self.polytope.d:
            raise ValidationError("point has wrong length")
        zero_labels = [j + 1 for j, w in enumerate(z) if w == 0]
        return self.face_of_active_set(zero_labels)

    def vertices_of(self, f: Face) -> list[list[FieldScalar]]:
        return [self.vertex_coords[v] for v in sorted(f.vertex_ids)]

    def relint_point(self, f: Face) -> list[FieldScalar]:
        """An exact point in the relative interior (vertex barycenter)."""
        vs = self.vertices_of(f)
        field = self.polytope.field
        acc = list(vs[0])
        for v in vs[1:]:
            acc = linalg.vec_add(acc, v)
        inv = field.from_rational(1) / len(vs)
        return linalg.vec_scale(inv, acc)

    def depths(self) -> dict[tuple[int, ...], int]:
        return {f.index_set: f.depth for f in self.faces}


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
        self._chart_inverses: dict[tuple[int, ...], list] = {}
        self._moment = None    # MomentData, built by orbits._moment_for
        if validate:
            self._validate()
            self.face_lattice()

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
        field = self.field
        if linalg.rank(self.normals, self.n) != self.n:
            raise ValidationError("facet normals do not span the ambient space")
        # unboundedness: a nonzero recession ray lies on n-1 independent
        # active constraints, so scanning those subsets is exhaustive
        for subset in combinations(range(self.d), self.n - 1):
            rows = [self.normals[i] for i in subset]
            kernel = linalg.nullspace(rows, self.n, field)
            if len(kernel) != 1:
                continue
            ray = kernel[0]
            signs = [linalg.dot(ray, x).sign() for x in self.normals]
            if all(s >= 0 for s in signs) or all(s <= 0 for s in signs):
                raise ValidationError("polytope is unbounded")
        if self.quasilattice is None:
            raise ValidationError("polytope needs a quasilattice")
        for j, x in enumerate(self.normals, start=1):
            if not self.quasilattice.contains(x):
                raise ValidationError(
                    f"facet normal {j} is not in the quasilattice")

    def _enumerate_vertices(self):
        field = self.field
        coords: list[list[FieldScalar]] = []
        seen: dict[tuple, int] = {}
        for subset in combinations(range(self.d), self.n):
            rows = [self.normals[i] for i in subset]
            rhs = [self.offsets[i] for i in subset]
            mu = linalg.solve_unique(rows, rhs, field)
            if mu is None:
                continue
            if not self.contains_point(mu):
                continue
            key = tuple(s.coeffs for s in mu)
            if key not in seen:
                seen[key] = len(coords)
                coords.append(mu)
        if not coords:
            raise ValidationError("polytope is empty")
        active = [self.active_set(mu) for mu in coords]
        base = coords[0]
        diffs = [linalg.vec_sub(v, base) for v in coords[1:]]
        if linalg.rank(diffs, self.n) != self.n:
            raise ValidationError("polytope is lower-dimensional")
        for j in range(1, self.d + 1):
            on = [coords[v] for v in range(len(coords)) if j in active[v]]
            if not on:
                raise ValidationError(f"facet {j} is never active (redundant)")
            ds = [linalg.vec_sub(v, on[0]) for v in on[1:]]
            if linalg.rank(ds, self.n) != self.n - 1:
                raise ValidationError(f"facet {j} is not an (n-1)-face (redundant)")
        return coords, active

    # -- face lattice ---------------------------------------------------------

    def face_lattice(self) -> FaceLattice:
        if self._lattice is not None:
            return self._lattice
        coords, active = self._enumerate_vertices()
        nverts = len(coords)
        all_ids = frozenset(range(nverts))
        sets = {frozenset(v for v in range(nverts) if j in active[v])
                for j in range(1, self.d + 1)}
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

        entries = []
        index_sets = {}
        for vset in sets:
            ids = sorted(vset)
            common = set(active[ids[0]])
            for v in ids[1:]:
                common &= set(active[v])
            iset = tuple(sorted(common))
            if iset in index_sets:
                raise InternalConsistencyError("two faces share an index set")
            index_sets[iset] = vset
            rows = [self.normals[j - 1] for j in iset]
            dim = self.n - linalg.rank(rows, self.n)
            entries.append((iset, dim, frozenset(vset)))
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
