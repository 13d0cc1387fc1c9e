"""Output checks for every benchmark job.

* Exact JSON/CSV outputs must be byte-identical to goldens recorded with
  ``record_goldens.py`` (stored as SHA-256 digests in ``golden.json``).
* Float outputs must be finite and positive; their relative error against
  exact references computed by the rational code is reported, and a job
  fails its check when it exceeds FLOAT_REL_TOL.
* Monte Carlo error counts must lie within 6 sigma of the exact error
  probability for every seed, and equal the golden counts at seed 0.
  For every seed, ``cross_check`` also requires the scalar table-rule
  count to equal the vectorised max-posterior count, and ``--workers 1``
  to give the same count as ``--workers 2``.

A check never raises: it returns (ok, detail, relative error or None).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import DUMP_PATH, KNOWN_FAILURES, TABLE_PATH, mc_seed

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Loose on purpose: it catches float outputs that are wrong, not ones that
# are merely imprecise.  Float Bellman loses digits to cancellation (1 - V
# with V -> 1): 1.2e-3 at p=0.1, n=60 at the recorded baseline.  The worst
# error is reported as exact_dp.float_rel_err_max.
FLOAT_REL_TOL = 1e-2
MC_SIGMAS = 6.0


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(text: str) -> dict:
    data = text.encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def known_failure(argv: list[str], rc: int, err: str) -> bool:
    """True when the job failed exactly as its recorded known failure."""
    expected = KNOWN_FAILURES.get(tuple(argv))
    return expected is not None and rc == expected[0] and expected[1] in err


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _positive(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0.0


def _check_float(argv: list[str], out: str, ref: dict) -> tuple[bool, str, float | None]:
    if argv[0] == "sweep":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        values = [float(r[2]) for r in rows]
        if len(values) != len(ref["pe"]):
            return False, f"{len(values)} rows, expected {len(ref['pe'])}", None
        if not all(_positive(v) for v in values):
            return False, "non-finite or non-positive P_e in sweep", None
        err = max(_rel_err(v, r) for v, r in zip(values, ref["pe"]))
    elif argv[0] == "paths":
        doc = json.loads(out)
        value = doc["return_probability"]
        if not (_positive(value) and _positive(doc["value"])):
            return False, "non-finite or non-positive path probability", None
        if doc["closed_form_exceeds_exact"] is not ref["exceeds"]:
            return False, "closed_form_exceeds_exact disagrees with exact arithmetic", None
        err = _rel_err(value, ref["return_probability"])
    else:
        value = json.loads(out)["p_e"]
        if not _positive(value):
            return False, f"P_e {value!r} is not finite and positive", None
        err = _rel_err(value, ref["pe"])
    if err > FLOAT_REL_TOL:
        return False, f"relative error {err:.3e} above {FLOAT_REL_TOL:g}", err
    return True, "", err


def _check_mc(argv: list[str], out: str, ref: dict, seed: int, root: Path) -> tuple[bool, str]:
    doc = json.loads(out)
    stats = doc["stats"]
    trials = int(argv[argv.index("--trials") + 1])
    errors = stats["errors"]
    if stats["trials"] != trials or not 0 <= errors <= trials:
        return False, f"stats {stats} inconsistent with {trials} trials"
    pe = ref["pe"]
    if abs(errors - trials * pe) > MC_SIGMAS * math.sqrt(trials * pe * (1 - pe)) + 1:
        return False, f"{errors} errors in {trials} trials vs exact P_e {pe:.6e}"
    if seed == 0 and errors != ref["errors_seed0"]:
        return False, f"{errors} errors, golden {ref['errors_seed0']}"
    if "--dump-trajectories" in argv:
        text = (root / DUMP_PATH).read_text()
        records = [json.loads(line) for line in text.splitlines()]
        count = int(argv[argv.index("--dump-count") + 1])
        if len(records) != count:
            return False, f"{len(records)} dumped trajectories, expected {count}"
        dumped_errors = sum(r["decoded"] != r["true"] for r in records)
        if count == trials and dumped_errors != errors:
            return False, f"dump has {dumped_errors} errors, batch engine {errors}"
        if seed == 0 and digest(text)["sha256"] != ref["dump_sha256_seed0"]:
            return False, "trajectory dump differs from the golden dump"
    return True, ""


def check_job(
    workload: str,
    index: int,
    argv: list[str],
    rc: int,
    out: str,
    err: str,
    seed: int,
    golden: dict,
    root: Path,
) -> tuple[bool, str, float | None]:
    """Check one job's exit code and output against the stored references."""
    if rc != 0:
        tag = "known failure" if known_failure(argv, rc, err) else "failure"
        return False, f"{tag}: exit {rc} {err.strip()[:200]}", None
    ref = golden[workload][index]
    try:
        if workload == "log-float":
            return _check_float(argv, out, ref)
        if workload == "monte-carlo":
            ok, detail = _check_mc(argv, out, ref, seed, root)
            return ok, detail, None
        if digest(out) != ref:
            return False, "output differs from the golden bytes", None
        return True, "", None
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return False, f"unreadable output: {type(exc).__name__}: {exc}", None


def cross_check(jobs: list[list[str]], errors: dict[int, int], seed: int) -> dict[int, str]:
    """Recompute the simulate jobs that have a second code path.

    ``errors`` maps a job index to the error count it printed.  Returns a
    failure detail per job whose count the other path does not reproduce.
    """
    from fblab.channel import make_channel
    from fblab.montecarlo import run_trials
    from fblab.strategy import MAX_POSTERIOR

    failures = {}
    for i, argv in enumerate(jobs):
        if i not in errors:
            continue
        opt = dict(zip(argv[1::2], argv[2::2]))
        n, trials = int(opt["--n"]), int(opt["--trials"])
        ch = make_channel(opt["--p"], "float")
        if opt.get("--strategy") == f"table:{TABLE_PATH}":
            other, what = run_trials(n, ch, MAX_POSTERIOR, trials, mc_seed(seed)), "vectorised"
        elif "--workers" in opt:
            other, what = run_trials(n, ch, MAX_POSTERIOR, trials, mc_seed(seed), workers=1), "--workers 1"
        else:
            continue
        if other.errors != errors[i]:
            failures[i] = f"{errors[i]} errors, {what} path gives {other.errors}"
    return failures
