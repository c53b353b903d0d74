"""Canonical JSON and DOT serialization.

Exact data travels as rational strings "p/q" so parse(serialize(x)) == x
bit for bit; floats appear only in solver outputs and are tagged with the
tolerances that produced them.  Every dump is one line of key-sorted
compact JSON (no whitespace between tokens) ending in a newline, made by
one ``json.dumps`` call: only that form runs CPython's C encoder, while
``indent`` or a streaming ``json.dump`` falls back to the pure-Python one.
``python -m json.tool`` prints a report indented for reading.  File
writes are atomic.  The reader refuses floats and booleans and hands JSON
integers and strings to the field unparsed.

Each top-level encoding (a polytope, a face lattice, a chart group or the
chart-group table, a stratification report with all its links) encodes
its scalars through one :func:`scalar_encoder`, a memo keyed by the
scalar's integer numerators and denominator that lives only while that
report is built.  Equal scalars then share one list in the report's dict
tree, which ``json.dumps`` writes exactly as it writes equal separate
lists; nothing mutates an encoded report.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .field import FieldScalar, NumberField
from .groups import DiscreteGroupPresentation, Quasilattice
from .moment import (LINE_SEARCH_SHRINK, MAX_ITERATIONS, RetractionResult,
                     SolverConfig)
from .orbits import EquivalenceResult, OrbitClass
from .polytope import Face, FaceLattice, Polytope
from .strata import LinkData, StratificationReport


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".toricq-")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ValidationError(f"cannot write {path}: {exc}") from exc
        raise


# -- scalars and fields ----------------------------------------------------


def scalar_to_json(s: FieldScalar) -> list[str]:
    return [_ratio(x, s.den) for x in s.num]


def scalar_encoder():
    """One report's scalar encoding: ``scalar_to_json`` memoised by
    (num, den), so that equal scalars share one list."""
    memo = {}

    def encode(s: FieldScalar) -> list[str]:
        key = s.num, s.den
        try:
            return memo[key]
        except KeyError:
            out = memo[key] = scalar_to_json(s)
            return out
    return encode


def _ratio(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def scalar_from_json(field: NumberField, data) -> FieldScalar:
    if isinstance(data, (str, int, float)):
        return field.from_rational(_exact(data))
    return field.scalar([_exact(c) for c in data])


def _exact(value, what: str = "scalar entry"):
    """The JSON value as it is, for the field to read, refusing a float
    (read as its binary value, 0.1 as 3602879701896397/2**55) or a boolean
    (read as 0 or 1)."""
    if isinstance(value, (bool, float)):
        raise ValidationError(f"{what} {json.dumps(value)} is not exact: "
                              'write it as a string such as "1/10"')
    return value


def _integer(value) -> int:
    """``int(value)``, refusing to truncate a number with a fractional part
    or to read a JSON boolean as 0 or 1."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def field_to_json(f: NumberField) -> dict:
    return {"minpoly": list(f.minpoly),
            "root_interval": [str(f.root_interval[0]), str(f.root_interval[1])],
            "irreducibility_checked": f.irreducibility_checked}


def field_from_json(data) -> NumberField:
    try:
        minpoly = [_integer(c) for c in data["minpoly"]]
        lo, hi = (_exact(x, "root_interval entry")
                  for x in data["root_interval"])
        checked = bool(data.get("irreducibility_checked", True))
        return NumberField(minpoly, (lo, hi), check_irreducible=checked)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed field declaration: {exc}") from exc


def vector_to_json(v, enc) -> list:
    return [enc(s) for s in v]


def vector_from_json(field, data, name: str) -> list[FieldScalar]:
    if not isinstance(data, list):  # a string would iterate as its characters
        raise ValidationError(f"{name} is not a JSON list: {json.dumps(data)}")
    return [scalar_from_json(field, entry) for entry in data]


# -- polytopes and instances ----------------------------------------------


def polytope_to_json(p: Polytope, enc=None) -> dict:
    enc = enc or scalar_encoder()
    return {"field": field_to_json(p.field),
            "n": p.n,
            "normals": [vector_to_json(x, enc) for x in p.normals],
            "offsets": vector_to_json(p.offsets, enc),
            "quasilattice": [vector_to_json(g, enc)
                             for g in p.quasilattice.generators]}


def polytope_from_json(data) -> Polytope:
    try:
        field = field_from_json(data["field"])
        normals = [vector_from_json(field, x, f"normal {j}")
                   for j, x in enumerate(data["normals"], start=1)]
        offsets = vector_from_json(field, data["offsets"], "offsets")
        gens = [vector_from_json(field, g, f"quasilattice generator {j}")
                for j, g in enumerate(data["quasilattice"], start=1)]
        n = _integer(data["n"]) if "n" in data else None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed polytope: {exc}") from exc
    quasilattice = Quasilattice(field, gens)
    p = Polytope(field, normals, offsets, quasilattice)
    if n is not None and n != p.n:
        raise ValidationError("declared dimension disagrees with the normals")
    return p


@dataclass
class ProblemInstance:
    polytope: Polytope
    solver: SolverConfig
    seed: int


# solver keys that older instances carry, each accepted only at its one value
_FIXED_SOLVER_KEYS = {"precision_bits": 53, "max_iterations": MAX_ITERATIONS,
                      "line_search_shrink": LINE_SEARCH_SHRINK}


def solver_to_json(cfg: SolverConfig) -> dict:
    return {"tolerance": cfg.tolerance}


def solver_from_json(data) -> SolverConfig:
    if not isinstance(data, dict):
        raise ValidationError("solver settings must be a JSON object")
    for key, value in _FIXED_SOLVER_KEYS.items():
        if data.get(key, value) != value:
            raise ValidationError(f"solver.{key} must be {value}, got {data[key]!r}")
    try:
        return SolverConfig(tolerance=float(data.get("tolerance", 1e-9)))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed solver settings: {exc}") from exc


def instance_to_json(inst: ProblemInstance) -> dict:
    out = polytope_to_json(inst.polytope)
    out["solver"] = solver_to_json(inst.solver)
    out["seed"] = inst.seed
    return out


def instance_from_json(data) -> ProblemInstance:
    polytope = polytope_from_json(data)
    solver = solver_from_json(data.get("solver", {}))
    try:
        seed = _integer(data.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed seed: {exc}") from exc
    return ProblemInstance(polytope, solver, seed)


def load_instance(path: str) -> ProblemInstance:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read instance: {exc}") from exc
    return instance_from_json(data)


# -- complex vectors ---------------------------------------------------------


def complex_vector_to_json(z) -> list:
    return [[float(np.real(w)), float(np.imag(w))] for w in np.asarray(z)]


def complex_vector_from_json(data) -> np.ndarray:
    try:
        z = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed complex vector: {exc}") from exc
    if not np.isfinite(z).all():
        raise ValidationError("complex vector has a coordinate that is not finite")
    return z


# -- groups -----------------------------------------------------------------


def presentation_to_json(g: DiscreteGroupPresentation, enc=None) -> dict:
    enc = enc or scalar_encoder()
    return {"I": list(g.chart_index_set),
            "coords": list(g.coords),
            "finite": g.finite,
            "order": g.order if g.order is not None else "infinite",
            "invariant_factors": g.invariant_factors,
            "generators_mod_Z": [vector_to_json(img, enc)
                                 for img in g.generator_images]}


# -- faces ------------------------------------------------------------------


def face_key(f: Face) -> str:
    return str(list(f.index_set))


def face_to_json(f: Face) -> dict:
    return {"index_set": list(f.index_set), "dim": f.dim, "r": f.r,
            "regular": f.regular, "depth": f.depth,
            "vertex_count": len(f.vertex_ids)}


def lattice_to_json(lat: FaceLattice) -> dict:
    enc = scalar_encoder()
    return {"faces": {face_key(f): face_to_json(f) for f in lat.faces},
            "polytope_depth": lat.polytope_depth,
            "vertex_coordinates": [vector_to_json(v, enc)
                                   for v in lat.vertex_coords]}


def lattice_to_dot(lat: FaceLattice) -> str:
    lines = ["digraph face_lattice {", "  rankdir=BT;"]
    for f in lat.faces:
        shape = "box" if not f.regular else "ellipse"
        label = f"I={list(f.index_set)}\\ndim {f.dim}"
        if not f.regular:
            label += f"\\nsingular depth {f.depth}"
        lines.append(f'  "{face_key(f)}" [label="{label}", shape={shape}];')
    for lower, upper in lat.covers():
        lines.append(f'  "{face_key(lower)}" -> "{face_key(upper)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- solver output ---------------------------------------------------------


def retraction_to_json(res: RetractionResult, cfg: SolverConfig) -> dict:
    return {"x": complex_vector_to_json(res.x),
            "xi": [float(v) for v in res.xi],
            "y_star": [float(v) for v in res.y_star],
            "residual": res.residual,
            "iterations": res.iterations,
            "zero_set": list(res.zero_set),
            "tolerance": cfg.tolerance}


def _canonical_to_json(oc: OrbitClass) -> dict:
    x, xi = oc.canonical()
    return {"x": complex_vector_to_json(x),
            "xi": [float(v) for v in xi],
            "face": list(oc.face_E.index_set)}


def orbit_class_to_json(oc: OrbitClass, cfg: SolverConfig) -> dict:
    return {"zero_set": list(oc.i_z),
            "closed": oc.closed,
            "face": list(oc.face_E.index_set),
            "exactness": oc.exactness,
            "canonical": _canonical_to_json(oc),
            "retraction": retraction_to_json(oc.retracted, cfg)}


def equivalence_to_json(res: EquivalenceResult, cfg: SolverConfig) -> dict:
    return {"equivalent": res.equivalent,
            "exactness": res.exactness,
            "reason": res.reason,
            "canonical": _canonical_to_json(res.orbit_z),
            "canonical_other": _canonical_to_json(res.orbit_w)}


# -- stratification ----------------------------------------------------------


def link_to_json(link: LinkData, enc) -> dict:
    return {"face": list(link.face.index_set),
            "facet_labels": list(link.facet_labels),
            "span_basis_labels": list(link.d_F_basis_labels),
            "span_basis": [vector_to_json(v, enc) for v in link.d_F_basis],
            "quasilattice_in_span": [vector_to_json(g, enc)
                                     for g in link.q_f.generators],
            "s_coefficients": [_ratio(s.num[0], s.den) for s in link.s_coefficients],
            "x0": vector_to_json(link.x0, enc),
            "slice_level": enc(link.slice_level),
            "xi0": vector_to_json(link.xi0, enc),
            "cone": {"normals": [vector_to_json(v, enc)
                                 for v in link.sigma_normals],
                     "offsets": vector_to_json(link.sigma_offsets, enc)},
            "cone_kernel": [vector_to_json(v, enc) for v in link.cone_kernel],
            "N_F_dim": link.n_f_dim,
            "N_F0_dim": link.n_f0_dim,
            "delta_F": polytope_to_json(link.delta_F, enc),
            "report": report_to_json(link.recursive_report, enc)}


def report_to_json(report: StratificationReport, enc=None) -> dict:
    enc = enc or scalar_encoder()
    strata = []
    for s in report.strata:
        strata.append({
            "face": list(s.face.index_set),
            "complex_dim": s.complex_dim,
            "depth": s.depth,
            "chart_index_set": list(s.chart_index_set),
            "chart_coords": list(s.chart_coords),
            "chart_model": s.chart_model,
            "chart_group": presentation_to_json(s.chart_group, enc),
            "gamma_I": presentation_to_json(s.gamma_full, enc),
            "link": link_to_json(s.link, enc),
            "b_tilde": {
                "chart_index_set": list(s.b_tilde.chart_index_set),
                "matrix": [vector_to_json(row, enc)
                           for row in s.b_tilde.matrix],
                "domain_labels": list(s.b_tilde.domain_labels),
                "offsets": vector_to_json(s.b_tilde.offsets, enc)},
            "link_real_dim_computed": s.link_real_dim_computed,
            "link_real_dim_stated": s.link_real_dim_stated,
            "link_dim_discrepancy": s.link_dim_discrepancy})
    return {"polytope_depth": report.polytope_depth,
            "maximal_piece": {"complex_dim": report.maximal.complex_dim,
                              "regular_face_count": report.maximal.regular_face_count,
                              "chart_count": report.maximal.chart_count,
                              "model": report.maximal.model},
            "strata": strata,
            "poset_nodes": report.poset_nodes,
            "poset_edges": [list(e) for e in report.poset_edges]}


def report_to_dot(report: StratificationReport) -> str:
    lines = ["digraph strata {", "  rankdir=BT;"]
    lines.append('  "max" [label="maximal piece\\ndim '
                 f'{report.maximal.complex_dim}", shape=ellipse];')
    for s in report.strata:
        key = "F" + str(list(s.face.index_set))
        lines.append(f'  "{key}" [label="stratum {list(s.face.index_set)}\\n'
                     f'dim {s.complex_dim}, depth {s.depth}", shape=box];')
    for a, b in report.poset_edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
