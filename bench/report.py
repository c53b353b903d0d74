"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py                      # all workloads, seed 1
    python3 bench/report.py --seeds 1-10 --workloads orbit --out runs.jsonl

One untraced ``run.py`` process at a time, each for the benchmark's
``run_seconds``.  For each workload it prints each metric
by name and unit with its median over the seeds, and with several seeds
the quartile spread as a share of the median, the statistic the
benchmark's bounds are set against, and the known-defect probes of the
context records (see ``README.md``).  ``--out`` appends every result line
(with its workload, seed and known-defect probes) to a JSON-lines file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    *_, context, result = proc.stdout.strip().splitlines()
    return {**json.loads(result),
            "known_defect": json.loads(context)["known_defect"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--out", help="append result lines to this JSON-lines file")
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            result = run_one(workload, seed)
            results.append(result)
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": workload, "seed": seed,
                                             **result}) + "\n")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"attempted={attempted} failed={failed} "
              f"failed_share={failed / attempted:.4f} runs={len(results)}")
        asked = sum(r["known_defect"]["asked"] for r in results)
        if asked:
            print(f"  known defect: {sum(r['known_defect']['failed'] for r in results)}"
                  f" of {asked} float subgroup-moved pairs on dense-image"
                  " instances judged inequivalent")
        for name, first in sorted(results[0]["metrics"].items()):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:32s} {median:14.6g} {first['unit']}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f"   spread {(q3 - q1) / abs(median):.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
