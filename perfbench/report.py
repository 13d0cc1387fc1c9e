"""Run every workload and print all metrics by name with their units.

    python3 perfbench/report.py [--seeds 0,1,2] [--seconds S] [--baseline FILE]

Run from the repository root.  For each workload and seed this runs
``run.py --trace 0``, then one ``run.py --trace 1`` on the first seed, and
prints the end-to-end metrics (median, and the quartile spread as a share
of the median when there are several seeds), ``failed_frac`` and the
per-layer metrics.  ``--baseline`` also writes the figures, the commit,
the Python version and the core count as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = str(Path(__file__).with_name("run.py"))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "samples": len(values)}
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0", help="comma-separated benchmark seeds")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--baseline", type=Path, help="write the figures to this JSON file")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    report = {}
    for workload in WORKLOADS:
        runs = [run(workload, s, args.seconds, 0) for s in seeds]
        traced = run(workload, seeds[0], args.seconds, 1)
        if not all(r["correct"] for r in runs + [traced]):
            print(f"{workload}: an output check failed", file=sys.stderr)
        e2e = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]}
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        report[workload] = {
            "end_to_end": e2e,
            "failed_frac": failed,
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        print(f"{workload} ({len(seeds)} seeds, {args.seconds:g} s each)")
        for m in spec["end_to_end"]:
            s = e2e[m["name"]]
            spread = f"  spread {s['spread']:.3f} (bound {m['bound']})" if "spread" in s else ""
            print(f"  {m['name']:30s} {s['median']:12.6g} {m['unit']}{spread}")
        print(f"  {'failed_frac':30s} {failed:12.6g} frac")
        for m in spec["per_layer"]:
            print(f"  {m['name']:30s} {traced['metrics'][m['name']]['value']:12.6g} {m['unit']}")

    if args.baseline:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown"
        args.baseline.write_text(json.dumps({
            "commit": commit,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seconds": args.seconds,
            "seeds": seeds,
            "workloads": report,
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
