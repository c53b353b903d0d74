"""Command-line interface.

Commands: analyze, faces, strata, retract, equiv, gamma, verify.  Instances
are JSON files (see serialize); each report prints to stdout as one line of
canonical compact JSON after any --json copy of the same bytes is written
atomically; faces and strata build a DOT digraph only for --dot.  Exit
codes: 0 success, 2 validation or precondition failure or an unwritable
output file, 3 solver nonconvergence, 4 property failure.  Set
TORICQ_LOG=DEBUG|INFO|... for logging.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import os
import sys

from . import serialize
from .errors import SolverError, ToricQError, ValidationError
from .groups import chart_index_sets, gamma_group
from .moment import SolverConfig
from .orbits import classify_orbit, equivalent
from .strata import build_stratification
from .verify import run_verification

log = logging.getLogger("toricq")


def _configure_logging():
    level = os.environ.get("TORICQ_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO),
                            format="%(name)s %(levelname)s %(message)s")


def analyze_report(instance) -> dict:
    """Aggregate combinatorial report: faces, singularity counts, depth,
    quasilattice rank, and the full chart-group table."""
    p = instance.polytope
    lat = p.face_lattice()
    rank, _ = p.quasilattice.rank_certificate()
    table = _gamma_table(p)
    return {"n": p.n, "d": p.d,
            "face_count": len(lat.faces),
            "vertex_count": len(lat.vertices()),
            "regular_faces": sum(1 for f in lat.faces if f.regular),
            "singular_faces": len(lat.singular_faces()),
            "depth": lat.polytope_depth,
            "face_depths": {serialize.face_key(f): f.depth for f in lat.faces},
            "quasilattice_rank": rank,
            "is_lattice": p.quasilattice.is_lattice,
            "chart_count": len(table),
            "gamma_table": table}


def _gamma_table(p) -> list[dict]:
    """The chart group of every chart index set, in chart order, encoded
    through one scalar encoder."""
    enc = serialize.scalar_encoder()
    return [serialize.presentation_to_json(gamma_group(p, I), enc)
            for I in chart_index_sets(p)]


def _emit(args, payload: dict):
    text = serialize.dumps(payload)
    if args.json:
        serialize.write_atomic(args.json, text)
    sys.stdout.write(text)


def _solver(instance, args) -> SolverConfig:
    if args.tol is not None:
        return dataclasses.replace(instance.solver, tolerance=args.tol)
    return instance.solver


def _parse_point(text: str):
    try:
        return serialize.complex_vector_from_json(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"point is not valid JSON: {exc}") from exc


def cmd_analyze(args) -> int:
    instance = serialize.load_instance(args.instance)
    _emit(args, analyze_report(instance))
    return 0


def cmd_faces(args) -> int:
    instance = serialize.load_instance(args.instance)
    lat = instance.polytope.face_lattice()
    if args.dot:
        serialize.write_atomic(args.dot, serialize.lattice_to_dot(lat))
    _emit(args, serialize.lattice_to_json(lat))
    return 0


def cmd_strata(args) -> int:
    instance = serialize.load_instance(args.instance)
    report = build_stratification(instance.polytope)
    if args.dot:
        serialize.write_atomic(args.dot, serialize.report_to_dot(report))
    _emit(args, serialize.report_to_json(report))
    return 0


def cmd_retract(args) -> int:
    instance = serialize.load_instance(args.instance)
    p = instance.polytope
    cfg = _solver(instance, args)
    z = _parse_point(args.point)
    lat = p.face_lattice()
    oc = classify_orbit(p, lat, z, cfg)
    _emit(args, serialize.orbit_class_to_json(oc, cfg))
    return 0


def cmd_equiv(args) -> int:
    instance = serialize.load_instance(args.instance)
    p = instance.polytope
    cfg = _solver(instance, args)
    try:
        pair = json.loads(args.points)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--points must be a JSON pair: {exc}") from exc
    if not isinstance(pair, list) or len(pair) != 2:
        raise ValidationError("--points must be a JSON pair")
    z, w = (serialize.complex_vector_from_json(v) for v in pair)
    res = equivalent(p, z, w, cfg=cfg)
    _emit(args, serialize.equivalence_to_json(res, cfg))
    return 0


def cmd_gamma(args) -> int:
    instance = serialize.load_instance(args.instance)
    p = instance.polytope
    if args.chart is not None:
        try:
            I = tuple(int(t) for t in args.chart.split(","))
        except ValueError as exc:
            raise ValidationError(f"--chart must be comma-separated labels: {exc}")
        payload = serialize.presentation_to_json(gamma_group(p, I))
    else:
        payload = {"charts": _gamma_table(p)}
    _emit(args, payload)
    return 0


def cmd_verify(args) -> int:
    instance = serialize.load_instance(args.instance)
    run = run_verification(instance, samples=args.samples, seed=args.seed)
    _emit(args, run.to_json())
    return 0 if run.passed else 4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="toricq",
        description="Stratification and orbit computations for toric spaces "
                    "from convex polytopes over quasilattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, dot=False):
        sp.add_argument("instance", help="instance JSON file")
        sp.add_argument("--json", help="also write the report to this file")
        if dot:
            sp.add_argument("--dot", help="write a DOT digraph to this file")

    sp = sub.add_parser("analyze", help="faces, depth, rank, chart groups")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("faces", help="face lattice JSON / DOT")
    common(sp, dot=True)
    sp.set_defaults(func=cmd_faces)

    sp = sub.add_parser("strata", help="full stratification report")
    common(sp, dot=True)
    sp.set_defaults(func=cmd_strata)

    sp = sub.add_parser("retract", help="canonical zero-level representative")
    common(sp)
    sp.add_argument("--point", required=True,
                    help='complex vector as JSON [[re, im], ...]')
    sp.add_argument("--tol", type=float, help="residual tolerance")
    sp.set_defaults(func=cmd_retract)

    sp = sub.add_parser("equiv", help="orbit equivalence verdict")
    common(sp)
    sp.add_argument("--points", required=True,
                    help="JSON pair of complex vectors")
    sp.add_argument("--tol", type=float, help="residual tolerance")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("gamma", help="chart group table or one chart group")
    common(sp)
    sp.add_argument("--chart", help='comma-separated facet labels, e.g. "1,3"')
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("verify", help="run all property suites")
    common(sp)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=None)
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToricQError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SolverError):
            # json would print a non-finite residual as the nonstandard Infinity
            finite = exc.residual is not None and math.isfinite(exc.residual)
            error["residual"] = exc.residual if finite else None
            error["iterations"] = exc.iterations
        sys.stdout.write(serialize.dumps({"error": error}))
        log.debug("command failed", exc_info=True)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
