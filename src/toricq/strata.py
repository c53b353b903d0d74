"""Stratification assembly: link cones and link polytopes of singular
faces, derived kernel data, chart/twisting groups, the symplectic chart
inequality systems, and the depth-indexed recursion into each link.

Everything geometric here is exact.  For a singular face the span of its
active normals is given a pivot basis from the normals themselves, the
quasilattice is intersected with that span by integer saturation, and the
link polytope is cut out of the annihilator of the slicing direction with
exact column pivoting, so it can be fed back through the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intlat, linalg
from .errors import (InternalConsistencyError, PreconditionError,
                     ValidationError)
from .field import FieldScalar
from .groups import (DiscreteGroupPresentation, Quasilattice, _chart_preimage,
                     chart_index_sets, gamma_check, gamma_group)
from .polytope import Face, FaceLattice, Polytope


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
    ann_basis: list                    # exact basis of ann(x0), column-pivoted
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


def _pivot_basis(p: Polytope, labels):
    """Greedy exact pivoting of the active normals, in label order: the
    pivot columns of one elimination with the normals as columns."""
    normals = [p.normals[j - 1] for j in labels]
    _, pivots, _ = linalg._rref(linalg.transpose(normals), len(normals))
    return [normals[c] for c in pivots], tuple(labels[c] for c in pivots)


def _span_coords(basis, v, n, field):
    coords = linalg.in_span(basis, v, n, field)
    if coords is None:
        raise InternalConsistencyError("vector left the span of the face normals")
    return coords


def _sub_quasilattice(p: Polytope, basis, basis_labels):
    """Generators of the quasilattice's intersection with the span of the
    basis, written in span coordinates, via integer saturation of the
    coefficient vectors."""
    field = p.field
    q = p.quasilattice
    k = len(basis)
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
        kept = []
        for combo in kernel:
            acc = [field.zero()] * p.n
            for c, g in zip(combo, q.generators):
                if c:
                    acc = linalg.vec_add(acc, linalg.vec_scale(
                        field.from_rational(c), g))
            kept.append(acc)
    gens = []
    for g in kept:
        coords = _span_coords(basis, g, p.n, field)
        if any(not s.is_zero() for s in coords):
            gens.append(coords)
    return Quasilattice(field, gens)


def build_link(p: Polytope, lat: FaceLattice, face: Face) -> LinkData:
    """Link of a singular face: the cone over the link polytope, the link
    polytope itself with its inherited normals, offsets and quasilattice,
    and the recursive stratification of the link."""
    if face.regular:
        raise PreconditionError("links are built only for singular faces")
    field = p.field
    labels = face.index_set
    basis, basis_labels = _pivot_basis(p, labels)
    k = len(basis)                       # n - p
    if k != p.n - face.dim:
        raise InternalConsistencyError("span dimension disagrees with the face")

    sigma_normals = [_span_coords(basis, p.normals[j - 1], p.n, field)
                     for j in labels]
    sigma_offsets = [p.offsets[j - 1] for j in labels]

    rows = [[sigma_normals[jj][i] for jj in range(len(labels))] for i in range(k)]
    cone_kernel = linalg.nullspace(rows, len(labels), field)
    n_f_dim = len(cone_kernel)
    if n_f_dim != face.r - p.n + face.dim:
        raise InternalConsistencyError("cone kernel dimension is off")

    q_f = _sub_quasilattice(p, basis, basis_labels)

    ones = [field.one()] * len(labels)
    x0 = [field.zero()] * k
    for v in sigma_normals:
        x0 = linalg.vec_add(x0, v)
    level = field.one()
    for lam in sigma_offsets:
        level = level + lam

    pivot = next((i for i, c in enumerate(x0) if not c.is_zero()), None)
    if pivot is None:
        raise InternalConsistencyError("slicing direction vanished")
    xi0 = [field.zero()] * k
    xi0[pivot] = level / x0[pivot]

    ann_basis = []
    for i in range(k):
        if i == pivot:
            continue
        w = [field.zero()] * k
        w[i] = field.one()
        w[pivot] = -(x0[i] / x0[pivot])
        ann_basis.append(w)

    delta_normals = [[linalg.dot(w, v) for w in ann_basis] for v in sigma_normals]
    delta_offsets = [sigma_offsets[jj] - linalg.dot(xi0, sigma_normals[jj])
                     for jj in range(len(labels))]
    q_f0_gens = []
    for g in q_f.generators:
        img = [linalg.dot(w, g) for w in ann_basis]
        if any(not s.is_zero() for s in img):
            q_f0_gens.append(img)
    try:
        q_f0 = Quasilattice(field, q_f0_gens)
        delta_f = Polytope(field, delta_normals, delta_offsets, q_f0)
    except ValidationError as exc:
        raise InternalConsistencyError(
            f"link polytope of face {list(labels)} failed validation: {exc}"
        ) from exc

    from .groups import kernel_data
    n_f0_dim = len(kernel_data(delta_f).kernel_basis)
    if n_f0_dim != n_f_dim + 1:
        raise InternalConsistencyError("link kernel dimensions disagree")

    report = build_stratification(delta_f, delta_f.face_lattice())
    return LinkData(parent=p, face=face, facet_labels=labels,
                    d_F_basis=basis, d_F_basis_labels=basis_labels,
                    sigma_normals=sigma_normals, sigma_offsets=sigma_offsets,
                    cone_kernel=cone_kernel, q_f=q_f, s_coefficients=ones,
                    x0=x0, slice_level=level, xi0=xi0, ann_basis=ann_basis,
                    delta_F=delta_f, n_f_dim=n_f_dim, n_f0_dim=n_f0_dim,
                    recursive_report=report)


def _chart_for_face(p: Polytope, lat: FaceLattice, face: Face,
                    charts) -> tuple[int, ...]:
    want = p.n - face.dim
    for I in charts:
        if len(set(I) & set(face.index_set)) == want:
            return I
    raise InternalConsistencyError(
        f"no chart meets face {list(face.index_set)} correctly")


def _b_tilde(p: Polytope, face: Face, I) -> BTildeData:
    matrix_cols = [_chart_preimage(p, I, x) for x in p.normals]
    matrix_rows = [[matrix_cols[k][h] for k in range(p.d)]
                   for h in range(len(I))]
    domain = tuple(k for k in range(1, p.d + 1)
                   if k not in set(I) | set(face.index_set))
    return BTildeData(chart_index_set=tuple(I), matrix=matrix_rows,
                      domain_labels=domain, offsets=list(p.offsets))


def build_stratification(p: Polytope,
                         lat: FaceLattice | None = None) -> StratificationReport:
    """Full stratification report: one maximal piece, one stratum per
    singular face with chart, twisting group, link and local data, and the
    stratum poset with its adjoined maximal element."""
    lat = lat or p.face_lattice()
    charts = chart_index_sets(p, lat)
    singular = sorted(lat.singular_faces(), key=lambda f: (f.dim, f.index_set))
    regular_count = sum(1 for f in lat.faces if f.regular)
    maximal = MaximalPiece(
        complex_dim=p.n, regular_face_count=regular_count,
        chart_count=len(charts),
        model="union of the torus orbits of the regular faces, one chart "
              "per admissible index set")
    entries = []
    for face in singular:
        I = _chart_for_face(p, lat, face, charts)
        coords = tuple(sorted(set(I) - set(face.index_set)))
        chart_group = gamma_check(p, I, face, lat)
        gamma_full = gamma_group(p, I, lat)
        link = build_link(p, lat, face)
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
