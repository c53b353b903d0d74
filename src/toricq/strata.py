"""Stratification assembly: link cones and link polytopes of singular
faces, derived kernel data, chart/twisting groups, the symplectic chart
inequality systems, and the depth-indexed recursion into each link.

Everything geometric here is exact, and each exact question is one
elimination.  The active normals of a singular face, taken as columns, are
reduced once: the pivot columns are a basis of their span, the reduced
columns are the normals in that basis and the reduced rows cut out the cone
kernel.  The quasilattice is intersected with that span by integer
saturation, and the link polytope is cut out of the annihilator of the
slicing direction.  Its face lattice is read off the parent's
(:meth:`FaceLattice.link_lattice`) and kept on the link polytope, so the
whole recursion runs on one vertex enumeration.  Every function here reads
a polytope's lattice and chart table from the polytope itself
(``p.face_lattice()``); none takes a lattice argument.  Each link's own
exact work is its quasilattice, kernel and chart groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intlat, linalg
from .errors import InternalConsistencyError, PreconditionError
from .field import FieldScalar
from .groups import (DiscreteGroupPresentation, Quasilattice, chart_index_sets,
                     gamma_check, gamma_group, kernel_data)
from .polytope import Face, Polytope


@dataclass
class LinkData:
    """Exact link data of one singular face."""

    parent: Polytope
    face: Face
    facet_labels: tuple[int, ...]      # local coordinate i+1 <-> parent facet
    d_F_basis: list                    # pivot normals spanning the face's span
    d_F_basis_labels: tuple[int, ...]
    sigma_normals: list                # X_j in span coordinates, one per label
    sigma_offsets: list                # original offsets (cone H-representation)
    cone_kernel: list                  # exact kernel of the cone sequence
    q_f: Quasilattice                  # quasilattice intersected with the span
    s_coefficients: list               # slicing coefficients (all 1)
    x0: list                           # sum of s_j X_j, in span coordinates
    slice_level: FieldScalar
    xi0: list                          # exact point on the slicing hyperplane
    delta_F: Polytope                  # the link polytope, dimension n-p-1
    n_f_dim: int
    n_f0_dim: int
    recursive_report: "StratificationReport"


@dataclass
class BTildeData:
    """Inequality system of the symplectic chart domain: for each label k
    outside the chart and the face, sum_h a[h][k-1] (|z_h|^2 + lambda_h)
    - lambda_k > 0, with a the matrix of the normal map in the chart
    basis."""

    chart_index_set: tuple[int, ...]
    matrix: list                        # rows indexed by chart position
    domain_labels: tuple[int, ...]
    offsets: list


@dataclass
class StratumEntry:
    face: Face
    complex_dim: int
    depth: int
    chart_index_set: tuple[int, ...]
    chart_coords: tuple[int, ...]       # I minus the face's active set
    chart_model: str
    chart_group: DiscreteGroupPresentation   # quotient group on the chart
    gamma_full: DiscreteGroupPresentation    # full chart group
    link: LinkData
    b_tilde: BTildeData
    link_real_dim_computed: int
    link_real_dim_stated: int
    link_dim_discrepancy: bool


@dataclass
class MaximalPiece:
    complex_dim: int
    regular_face_count: int
    chart_count: int
    model: str


@dataclass
class StratificationReport:
    polytope: Polytope
    maximal: MaximalPiece
    strata: list[StratumEntry]
    poset_nodes: list[str]
    poset_edges: list[tuple[str, str]]
    polytope_depth: int

    def stratum_for(self, face: Face) -> StratumEntry | None:
        for s in self.strata:
            if s.face.index_set == face.index_set:
                return s
        return None


def node_key(face: Face | None) -> str:
    return "max" if face is None else "F" + str(list(face.index_set))


def _sub_quasilattice(p: Polytope, basis):
    """Generators of the quasilattice's intersection with the span of the
    basis, written in span coordinates, via integer saturation of the
    coefficient vectors."""
    field = p.field
    q = p.quasilattice
    ann = linalg.nullspace(basis, p.n, field)  # functionals vanishing on the span
    if not ann:
        kept = list(q.generators)
    else:
        rows_rational: list[list[Fraction]] = []
        per_gen = [[linalg.dot(f, g) for f in ann] for g in q.generators]
        e = field.degree
        for fi in range(len(ann)):
            for ci in range(e):
                rows_rational.append([per_gen[g][fi].coeffs[ci]
                                      for g in range(len(q.generators))])
        _, cleared = intlat.clear_denominators(rows_rational)
        kernel = intlat.integer_kernel(cleared, len(q.generators))
        columns = linalg.transpose(q.generators)
        kept = [linalg.mat_vec(columns, [field.from_rational(c) for c in combo])
                for combo in kernel]
    # span coordinates of every kept vector from one elimination of
    # [basis | kept]; a nonzero entry below the basis rows leaves the span
    k = len(basis)
    rows = [[b[i] for b in basis] + [g[i] for g in kept] for i in range(p.n)]
    red, _, _ = linalg._rref(rows, k, k)
    if any(not s.is_zero() for row in red[k:] for s in row):
        raise InternalConsistencyError("vector left the span of the face normals")
    coords = linalg.transpose(red[:k])
    return Quasilattice(field, [c for c in coords
                                if any(not s.is_zero() for s in c)])


def build_link(p: Polytope, face: Face) -> LinkData:
    """Link of a singular face: the cone over the link polytope, the link
    polytope itself with its inherited normals, offsets and quasilattice,
    and the recursive stratification of the link.  The link's lattice is
    read off ``p``'s and kept on the link polytope before the recursion."""
    if face.regular:
        raise PreconditionError("links are built only for singular faces")
    field = p.field
    labels = face.index_set
    normals = [p.normals[j - 1] for j in labels]
    # one elimination with the normals as columns (see the module docstring)
    red, pivots, _ = linalg._rref(linalg.transpose(normals), len(labels))
    k = len(pivots)                      # n - p
    if k != p.n - face.dim:
        raise InternalConsistencyError("span dimension disagrees with the face")
    basis = [normals[c] for c in pivots]
    basis_labels = tuple(labels[c] for c in pivots)
    sigma_normals = linalg.transpose(red[:k])
    sigma_offsets = [p.offsets[j - 1] for j in labels]

    cone_kernel = linalg._reduced_nullspace(red[:k], pivots, len(labels), field)
    n_f_dim = len(cone_kernel)
    if n_f_dim != face.r - p.n + face.dim:
        raise InternalConsistencyError("cone kernel dimension is off")

    q_f = _sub_quasilattice(p, basis)

    ones = [field.one()] * len(labels)
    x0 = [sum(col, field.zero()) for col in zip(*sigma_normals)]
    level = sum(sigma_offsets, field.one())
    ann_basis = linalg.nullspace([x0], k, field)
    if len(ann_basis) != k - 1:
        raise InternalConsistencyError("slicing direction vanished")
    xi0 = linalg.solve([x0], [level], k, field)

    delta_normals = [[linalg.dot(w, v) for w in ann_basis] for v in sigma_normals]
    delta_offsets = [sigma_offsets[jj] - linalg.dot(xi0, sigma_normals[jj])
                     for jj in range(len(labels))]
    images = ([linalg.dot(w, g) for w in ann_basis] for g in q_f.generators)
    q_f0_gens = [img for img in images if any(not s.is_zero() for s in img)]
    delta_f = Polytope(field, delta_normals, delta_offsets,
                       Quasilattice(field, q_f0_gens), validate=False)

    n_f0_dim = len(kernel_data(delta_f).kernel_basis)
    if n_f0_dim != n_f_dim + 1:
        raise InternalConsistencyError("link kernel dimensions disagree")

    p.face_lattice().link_lattice(face, delta_f)
    report = build_stratification(delta_f)
    return LinkData(parent=p, face=face, facet_labels=labels,
                    d_F_basis=basis, d_F_basis_labels=basis_labels,
                    sigma_normals=sigma_normals, sigma_offsets=sigma_offsets,
                    cone_kernel=cone_kernel, q_f=q_f, s_coefficients=ones,
                    x0=x0, slice_level=level, xi0=xi0,
                    delta_F=delta_f, n_f_dim=n_f_dim, n_f0_dim=n_f0_dim,
                    recursive_report=report)


def _chart_for_face(p: Polytope, face: Face, charts) -> tuple[int, ...]:
    want = p.n - face.dim
    for I in charts:
        if len(set(I) & set(face.index_set)) == want:
            return I
    raise InternalConsistencyError(
        f"no chart meets face {list(face.index_set)} correctly")


def _b_tilde(p: Polytope, face: Face, I) -> BTildeData:
    # M_I^-1 [X_1 ... X_d] from one elimination of [X_I | X_1 ... X_d]
    rows = [[p.normals[j - 1][i] for j in I] + [x[i] for x in p.normals]
            for i in range(p.n)]
    matrix_rows = linalg._rref(rows, p.n, p.n)[0]
    domain = tuple(k for k in range(1, p.d + 1)
                   if k not in set(I) | set(face.index_set))
    return BTildeData(chart_index_set=tuple(I), matrix=matrix_rows,
                      domain_labels=domain, offsets=list(p.offsets))


def build_stratification(p: Polytope) -> StratificationReport:
    """Full stratification report on the polytope's own face lattice: one
    maximal piece, one stratum per singular face with chart, twisting
    group, link and local data, and the stratum poset with its adjoined
    maximal element."""
    lat = p.face_lattice()
    charts = chart_index_sets(p)
    singular = sorted(lat.singular_faces(), key=lambda f: (f.dim, f.index_set))
    regular_count = sum(1 for f in lat.faces if f.regular)
    maximal = MaximalPiece(
        complex_dim=p.n, regular_face_count=regular_count,
        chart_count=len(charts),
        model="union of the torus orbits of the regular faces, one chart "
              "per admissible index set")
    entries = []
    for face in singular:
        I = _chart_for_face(p, face, charts)
        coords = tuple(sorted(set(I) - set(face.index_set)))
        chart_group = gamma_check(p, I, face)
        gamma_full = gamma_group(p, I)
        link = build_link(p, face)
        model = (f"(C*)^{list(coords)} modulo the order-{chart_group.order_text} "
                 f"chart quotient group")
        entries.append(StratumEntry(
            face=face, complex_dim=face.dim, depth=face.depth,
            chart_index_set=I, chart_coords=coords, chart_model=model,
            chart_group=chart_group, gamma_full=gamma_full, link=link,
            b_tilde=_b_tilde(p, face, I),
            link_real_dim_computed=2 * (p.n - face.dim - 1) + 1,
            link_real_dim_stated=2 * (p.n - face.dim) + 1,
            link_dim_discrepancy=True))

    nodes = [node_key(f) for f in singular] + ["max"]
    edges = []
    for a in singular:
        above = [b for b in singular if lat.lt(a, b)]
        covered = False
        for b in above:
            if not any(lat.lt(a, c) and lat.lt(c, b) for c in above):
                edges.append((node_key(a), node_key(b)))
                covered = True
        if not above:
            edges.append((node_key(a), "max"))
        elif not covered:
            raise InternalConsistencyError("poset cover computation failed")
    return StratificationReport(polytope=p, maximal=maximal, strata=entries,
                                poset_nodes=nodes, poset_edges=edges,
                                polytope_depth=lat.polytope_depth)


@dataclass
class LocalModel:
    """Twisted-product description around one singular stratum."""

    face: Face
    base_coords: tuple[int, ...]
    group: DiscreteGroupPresentation
    cone_facets: tuple[int, ...]
    cone_group_dim: int
    cone_group_dim_sliced: int
    link: LinkData
    b_tilde: BTildeData


def local_model(report: StratificationReport, face: Face) -> LocalModel:
    """Product-model data of a singular stratum: chart base and group,
    cone factor over the link, and the chart inequality system."""
    entry = report.stratum_for(face)
    if entry is None:
        raise PreconditionError("face has no stratum in this report")
    return LocalModel(face=entry.face, base_coords=entry.chart_coords,
                      group=entry.chart_group,
                      cone_facets=entry.link.facet_labels,
                      cone_group_dim=entry.link.n_f_dim,
                      cone_group_dim_sliced=entry.link.n_f0_dim,
                      link=entry.link, b_tilde=entry.b_tilde)
