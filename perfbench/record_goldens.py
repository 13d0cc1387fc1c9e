"""Record golden.json from the current code: output digests and exact references.

Run from the repository root, once per intended change of outputs:

    python3 perfbench/record_goldens.py

* bellman-exact, forward-exact: SHA-256 and size of each job's output.
* log-float: the exact value of each float job, from the same job in
  rational mode with p as a fraction (the rational CLI is the reference).
* monte-carlo: the exact max-posterior error probability at the job's
  (p, n), and the error counts and trajectory dump digest at seed 0.
"""

from __future__ import annotations

import csv
import io
import json
import platform
import subprocess
from fractions import Fraction

import checks
import workloads
from run import ROOT, import_cli, run_job


def _fraction(doc: dict) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def _run(cli, argv: list[str]) -> str:
    rc, out, err, _ = run_job(cli.dispatch, argv)
    if rc != 0:
        raise SystemExit(f"job {argv} exited {rc}: {err}")
    return out


def _rational(argv: list[str]) -> list[str]:
    """The same job in rational mode with p written as a fraction."""
    out = [a for a in argv if a not in ("--mode", "float")]
    i = out.index("--p") + 1
    out[i] = str(Fraction(out[i]))
    return out


def float_reference(cli, argv: list[str]) -> dict:
    out = _run(cli, _rational(argv))
    if argv[0] == "sweep":
        return {"pe": [float(r[2]) for r in list(csv.reader(io.StringIO(out)))[1:]]}
    doc = json.loads(out)
    if argv[0] == "paths":
        return {"return_probability": float(_fraction(doc["return_probability"])),
                "exceeds": doc["closed_form_exceeds_exact"]}
    return {"pe": float(_fraction(doc["p_e"]))}


def mc_reference(cli, argv: list[str]) -> dict:
    out = _run(cli, argv)
    opt = dict(zip(argv[1::2], argv[2::2]))
    exact = _run(cli, ["exact", "--p", str(Fraction(opt["--p"])), "--n", opt["--n"]])
    ref = {"pe": float(_fraction(json.loads(exact)["p_e"])),
           "errors_seed0": json.loads(out)["stats"]["errors"]}
    if "--dump-trajectories" in argv:
        ref["dump_sha256_seed0"] = checks.digest((ROOT / workloads.DUMP_PATH).read_text())["sha256"]
    return ref


def main() -> None:
    cli = import_cli()
    workloads.write_inputs(ROOT)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    golden: dict = {"recorded_at": {"commit": commit, "python": platform.python_version()}}
    for name in workloads.WORKLOADS:
        refs = []
        for argv in workloads.jobs(name, seed=0):
            if name == "log-float":
                refs.append(float_reference(cli, argv))
            elif name == "monte-carlo":
                refs.append(mc_reference(cli, argv))
            else:
                refs.append(checks.digest(_run(cli, argv)))
            print(name, " ".join(argv), "recorded", flush=True)
        golden[name] = refs
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
