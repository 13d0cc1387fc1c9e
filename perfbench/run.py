"""fblab benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  This process imports fblab from the
checkout's ``src`` and repeats the workload's CLI jobs, each through
``fblab.cli.dispatch``, in passes until the time is spent.  Every pass
starts with empty ``lru_cache``s, as a fresh CLI process would, and every
output is checked after its timed call.  With ``--trace 1`` untraced and
traced passes alternate: the traced ones give the per-layer metrics and
their ratio gives ``trace.overhead_frac``.  Set-up time comes from fresh
processes that only import fblab and build the CLI parser.  Job and set-up
times are rescaled to a reference machine speed (``speed.py``).  A summary
goes to stderr; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
SETUP_RESERVE_S = 3.0  # left of --seconds for the set-up probes
PROBE_TIMEOUT_S = 60


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fblab" / "__init__.py").is_file():
        raise SystemExit(f"no fblab package under {src}")
    sys.path.insert(0, str(src))
    from fblab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported fblab from {cli.__file__}, not from {src}")
    return cli


def run_job(dispatch, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one CLI job; returns (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = dispatch(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # job boundary: record the failure, keep the pass going
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), wall


def clear_caches() -> None:
    """Empty every lru_cache in fblab, so each pass starts like a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("fblab"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    gc.collect()


def run_pass(cli, workload: str, seed: int, golden: dict, tracer=None) -> dict:
    clear_caches()
    if tracer:
        tracer.install()
    results = []
    for i, argv in enumerate(workloads.jobs(workload, seed)):
        if tracer:
            tracer.job = i
        before = speed.sample()
        rc, out, err, wall = run_job(cli.dispatch, argv)
        after = speed.sample()
        ok, detail, rel_err = checks.check_job(workload, i, argv, rc, out, err, seed, golden, ROOT)
        results.append({
            "wall_s": wall,
            "ref_wall_s": speed.rescale(wall, before, after),
            "ok": ok,
            "known_failure": checks.known_failure(argv, rc, err),
            "rel_err": rel_err,
            "detail": detail,
            "mc_errors": json.loads(out)["stats"]["errors"] if ok and argv[0] == "simulate" else None,
        })
    if tracer:
        tracer.uninstall()
    return {"jobs": results, "traced": tracer is not None}


def run_passes(cli, workload: str, seed: int, budget_s: float, trace: bool) -> list[dict]:
    """Passes until ``budget_s`` is spent; with ``trace`` every second pass is traced."""
    golden = checks.load_golden()
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        tracer = tracing.Tracer() if trace and len(passes) % 2 else None
        report = run_pass(cli, workload, seed, golden, tracer)
        if tracer:
            walls = [j["wall_s"] for j in report["jobs"]]
            scales = [j["ref_wall_s"] / j["wall_s"] for j in report["jobs"]]
            report["layers"] = tracing.layer_metrics(tracer.spans, walls, scales)
            tracer.write(ROOT / workloads.OUT_DIR / f"spans-{workload}.jsonl")
        passes.append(report)
        now = time.perf_counter()
        if len(passes) >= (2 if trace else 1) and now - start + (now - t0) > budget_s:
            return passes


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_samples() -> list[float]:
    """Import-and-parser seconds at the reference speed, from fresh processes.

    The first probe warms the bytecode and file caches and is not counted.
    """
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py"))],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, text=True, check=True,
        )
        elapsed, sample = map(float, proc.stdout.split())
        samples.append(speed.rescale(elapsed, sample))
    return samples[1:]


def wall_s(passes: list[dict], key: str = "ref_wall_s") -> float:
    """Summed job time, each job taken at its median over the passes."""
    columns = zip(*[[j[key] for j in p["jobs"]] for p in passes])
    return sum(statistics.median(c) for c in columns)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    cli = import_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads.write_inputs(ROOT)

    budget = args.seconds - (0 if args.trace else SETUP_RESERVE_S)
    passes = run_passes(cli, args.workload, args.seed, budget, bool(args.trace))
    rss = peak_rss_mb()
    jobs = workloads.jobs(args.workload, args.seed)
    first = passes[0]["jobs"]
    mc_errors = {i: j["mc_errors"] for i, j in enumerate(first) if j["mc_errors"] is not None}
    for i, detail in checks.cross_check(jobs, mc_errors, args.seed).items():
        first[i].update(ok=False, detail=detail)
    results = [j for p in passes for j in p["jobs"]]
    failed = sum(not j["ok"] for j in results)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {m: statistics.median(p["layers"][m] for p in traced) for m in traced[0]["layers"]}
        values["exact_dp.float_rel_err_max"] = max(
            (j["rel_err"] for j in results if j["rel_err"] is not None), default=0.0)
        values["trace.overhead_frac"] = wall_s(traced) / wall_s(plain) - 1.0
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall_s(plain),
            "setup_s": statistics.median(setup_samples()),
            "peak_rss_mb": rss,
            "ok_frac": 1.0 - failed / len(results),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {len(plain)} untraced, "
          f"raw wall {wall_s(plain, 'wall_s'):.4g} s", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  {'failed_frac':30s} {failed / len(results):.6g} ({failed}/{len(results)} jobs)",
          file=sys.stderr)
    for detail in sorted({j["detail"] for j in results if not j["ok"]}):
        print(f"  failed: {detail}", file=sys.stderr)
    correct = all(j["ok"] or j["known_failure"] for j in results)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
