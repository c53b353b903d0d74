"""Benchmark for toricq: one closed-loop run of one workload.

    python3 bench/run.py --workload lattice-qq --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/`` (it does not need to be installed).  One process, one thread: the
loop repeats the workload's round of operations (see ``workloads.py``)
until ``--seconds`` have passed and at least four rounds are done; every
CLI report is compared between passes.

With ``--trace 0`` the last line of stdout is the end-to-end result:
set-up time, per-pass command and verify times, per-call classify and
equivalence latencies, and peak memory; every time is scaled to a
reference host speed by speed probes between the timed calls (see
``SpeedScale``).  With ``--trace 1`` rounds
alternate untraced and traced; the last line holds the per-layer metrics
of the traced rounds (see ``tracing.py``) and ``overhead.<metric>``, the
traced minus the untraced value of each round-based end-to-end metric.
The line before it records the environment, the known-defect probes
asked after the loop (see ``workloads``), source line counts, the
scalar microtimings, the speed probes and the plain wall times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from math import ceil
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 4
# Seconds of light calls between two speed probes.
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 5
# The speed probe's time on the host the baseline was measured on (see
# speed_probe); every reported time is scaled to that speed.
REFERENCE_PROBE_S = 1.5e-3
END_TO_END = {"setup_s": "s", "analyze_s": "s", "faces_s": "s", "strata_s": "s",
              "classify_ms_p50": "ms", "equiv_ms_p50": "ms", "verify_s": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lattice-qq", "lattice-sqrt2", "orbit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload and exit (times set-up)")
    return ap.parse_args(argv)


def import_package():
    src = ROOT / "src"
    if not (src / "toricq" / "__init__.py").is_file():
        raise SystemExit(f"toricq sources not found under {src}")
    sys.path.insert(0, str(src))
    import toricq
    import toricq.cli  # noqa: F401  (not imported by the package itself)
    return toricq


def reference_kernel() -> Fraction:
    """Fixed work of the program's kind: small Fraction products and sums."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return total


def speed_probe() -> float:
    """Seconds the reference kernel takes now: the fastest of three runs,
    with the collector off so that the program's live objects do not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Scales wall times to the reference host speed.

    The speed of a shared virtual machine swings by up to 2x over tens of
    seconds, for every process alike, so a run's wall times measure the
    host as much as the program.  A speed probe runs between timed calls;
    each call's wall time is multiplied by REFERENCE_PROBE_S over the median
    of the last PROBE_WINDOW probes, the newest taken right after the call,
    so that one odd probe does not sway the scale."""

    def __init__(self):
        self.pending: list[tuple[list, list, float]] = []
        self.pending_s = 0.0
        self.probes = [speed_probe()]

    def add(self, scaled: list, wall: list, elapsed: float) -> None:
        self.pending.append((scaled, wall, elapsed))
        self.pending_s += elapsed

    def flush(self) -> None:
        self.probes.append(speed_probe())
        factor = REFERENCE_PROBE_S / statistics.median(self.probes[-PROBE_WINDOW:])
        for scaled, wall, elapsed in self.pending:
            scaled.append(elapsed * factor)
            wall.append(elapsed)
        self.pending.clear()
        self.pending_s = 0.0


def time_setups(args) -> list[float]:
    """Wall time of fresh processes that only set up, start to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("set-up failed")
    return times


def quantile(values, q):
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def pooled(samples, kind: str) -> list[float]:
    return [t for (k, _), ts in samples.items() if k == kind for t in ts]


def tails(samples) -> dict[str, float]:
    """p90 of the cheap calls, in ms.  The context record keeps it, but it
    is no metric: the host, not the program, set it.  In runs where the
    speed probe ran 1.5x faster than usual the median call ran 1.3x faster
    and the p90 call no faster, so neither its wall time nor its scaled
    time held steady over ten seeds (p99 followed host preemption)."""
    return {f"{kind}_ms_p90": 1e3 * quantile(pooled(samples, kind), 0.90)
            for kind in ("classify", "equiv")}


def end_to_end(samples, wl) -> dict[str, float]:
    """Round-based end-to-end metrics from {(kind, instance): [seconds]}.

    A heavy operation runs once per round; its time is the median over the
    rounds, summed over the instances."""
    m = {}
    for command in ("analyze", "faces", "strata"):
        m[f"{command}_s"] = sum(statistics.median(samples[(command, i)])
                                for i in wl.lattice_instances)
    for kind in ("classify", "equiv"):
        m[f"{kind}_ms_p50"] = 1e3 * statistics.median(pooled(samples, kind))
    m["verify_s"] = sum(statistics.median(samples[("verify", i)])
                        for i in wl.orbit_instances)
    return m


class Outcome:
    """Attempted and failed operations, and whether every output held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons: dict[str, int] = defaultdict(int)

    def record(self, failure):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.correct = False
        if self.reasons[failure.reason] == 0 and len(self.reasons) < 20:
            sys.stderr.write(f"failed: {failure.reason}\n")
        self.reasons[failure.reason] += 1


def run_op(op, outcome, tracer=None):
    rec = None
    if tracer is not None:
        tracer.op += 1
        rec = tracer.begin(f"op.{op.kind}")
    t0 = time.perf_counter()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # the loop must go on; the op counts as failed
        error = exc
        sys.stderr.write(traceback.format_exc(limit=3))
    elapsed = time.perf_counter() - t0
    if rec is not None:
        tracer.end(rec)
    if error is not None:
        outcome.record(workloads.Failure(
            f"{op.kind} {op.instance}: {type(error).__name__}: {error}"))
        return elapsed, None
    outcome.record(op.check(result))
    return elapsed, result


def measure(args, wl, tq):
    """The closed loop.  Returns scaled and wall-time samples, each per
    (traced, kind, instance), the outcome, the tracer (or None), the number
    of rounds of each sort and the speed probes."""
    tracer = Tracer(tq) if args.trace else None
    samples = {False: defaultdict(list), True: defaultdict(list)}
    wall = {False: defaultdict(list), True: defaultdict(list)}
    outcome = Outcome()
    rounds = {False: 0, True: 0}
    scale = SpeedScale()
    start = time.perf_counter()
    while (sum(rounds.values()) < MIN_ROUNDS
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and sum(rounds.values()) % 2 == 1
        if traced:
            tracer.install()
        try:
            for op in wl.ops:
                elapsed, result = run_op(op, outcome, tracer if traced else None)
                key = (op.kind, op.instance)
                scale.add(samples[traced][key], wall[traced][key], elapsed)
                if op.kind in workloads.HEAVY or scale.pending_s >= PROBE_EVERY_S:
                    scale.flush()
                if traced and op.kind in workloads.COMMANDS and result:
                    tracer.counts["serialize.report_bytes"] += len(result[1].encode())
            scale.flush()
        finally:
            if traced:
                tracer.uninstall()
        rounds[traced] += 1
    return samples, wall, outcome, tracer, rounds, scale.probes


def ask_defect_probes(wl) -> dict:
    """Asks each of the workload's known-defect operations once, untimed,
    and counts those that raise or fail their check (see ``workloads``)."""
    reasons = defaultdict(int)
    for op in wl.defect_probes:
        try:
            failure = op.check(op.call())
        except Exception as exc:
            failure = workloads.Failure(f"{op.kind} {op.instance}: "
                                        f"{type(exc).__name__}: {exc}")
        if failure is not None:
            reasons[failure.reason] += 1
    return {"asked": len(wl.defect_probes), "failed": sum(reasons.values()),
            "reasons": dict(reasons)}


def scalar_microtimings(tq, seed: int) -> dict[str, float]:
    """Median ns per FieldScalar mul (degree 1 and 2) and inverse (degree 2)
    over seeded operands."""
    out = {}
    for label, degree, fn in (("field.mul.ns-deg1", 1, lambda a, b: a * b),
                              ("field.mul.ns-deg2", 2, lambda a, b: a * b),
                              ("field.inverse.ns-deg2", 2, lambda a, b: a.inverse())):
        pairs = workloads.scalar_operands(tq, seed, degree, 600)
        reps = []
        for _ in range(5):
            t0 = time.perf_counter()
            for a, b in pairs:
                fn(a, b)
            reps.append((time.perf_counter() - t0) / len(pairs) * 1e9)
        out[label] = statistics.median(reps)
    return out


def source_lines() -> dict[str, int]:
    """Non-blank lines of each module of the package."""
    out = {}
    for path in sorted((ROOT / "src" / "toricq").glob("*.py")):
        if path.stem != "__init__":
            with open(path) as handle:
                out[f"loc.{path.stem}"] = sum(1 for line in handle if line.strip())
    return out


def environment() -> dict:
    import numpy
    import sympy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "sympy": sympy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    tq = import_package()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_only:
            build(tq, args.seed, str(ROOT), str(workdir))
            return 0
        setup_times = time_setups(args)
        wl = build(tq, args.seed, str(ROOT), str(workdir))
        samples, wall, outcome, tracer, rounds, probes = measure(args, wl, tq)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context = {"workload": args.workload, "seed": args.seed,
               "rounds": rounds[False] + rounds[True],
               "ops_per_round": len(wl.ops), "setup_runs_s": setup_times,
               "failures": dict(outcome.reasons),
               "known_defect": ask_defect_probes(wl),
               "environment": environment(),
               "speed_probe_s": {"reference": REFERENCE_PROBE_S,
                                 "median": statistics.median(probes),
                                 "min": min(probes), "max": max(probes),
                                 "count": len(probes)},
               "wall": {**end_to_end(wall[False], wl),
                        "setup_s": statistics.median(setup_times)},
               "tails": {"scaled": tails(samples[False]),
                         "wall": tails(wall[False])}}
    untraced = end_to_end(samples[False], wl)
    if args.trace:
        metrics = tracer.layer_metrics(rounds[True])
        traced = end_to_end(samples[True], wl)
        for key, value in untraced.items():
            metrics[f"overhead.{key}"] = traced[key] - value
        spans_path = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(str(spans_path))
        context["spans"] = str(spans_path.relative_to(ROOT))
        context["spans_count"] = len(tracer.spans)
    micro = scalar_microtimings(tq, args.seed)
    loc = source_lines()
    context.update(micro=micro, loc=loc)
    if args.trace:
        metrics.update(micro)
        metrics.update(loc)
    else:
        metrics = dict(untraced)
        # A parent that waits on a child probes unlike a busy one, so set-up
        # is scaled by the measuring loop's median probe.
        metrics["setup_s"] = (statistics.median(setup_times) * REFERENCE_PROBE_S
                              / statistics.median(probes))
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(context, sort_keys=True))
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.startswith("overhead."):
        return unit_of(name[len("overhead."):])
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith("loc."):
        return "lines"
    if ".ns-" in name:
        return "ns"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
