"""Workload definitions: the fixed CLI job lists and the inputs they need.

Every job is an argv list for ``fblab.cli.dispatch``.  The exact workloads
(bellman-exact, forward-exact, log-float) take no randomness: their jobs
are the same for every benchmark seed.  The monte-carlo jobs take their
``--seed`` from the benchmark seed, and seed 0 maps to the CLI default
seed 20220301, at which the golden error counts were recorded.

Paths are relative to the repository root, which is the working
directory of every benchmark process, so no output embeds a machine path.
"""

from __future__ import annotations

import json
from pathlib import Path

OUT_DIR = "perfbench/out"
TABLE_PATH = f"{OUT_DIR}/maxpost-table-n12.json"
DUMP_PATH = f"{OUT_DIR}/trajectories.jsonl"
CLI_DEFAULT_SEED = 20220301
WORKERS = 2  # the simulate job's worker count; the reference machine has nproc = 2
TABLE_N = 12

# The float Bellman job at n=100 exits 2 ("math domain error") because float
# backward induction computes 1 - V with V -> 1 and underflows to 0.  It stays
# in the workload so the defect shows in failed_frac until it is fixed.
KNOWN_FAILURES = {
    ("bellman", "--p", "0.1", "--n", "100", "--mode", "float"): (2, "math domain error"),
}


def mc_seed(seed: int) -> int:
    """Seed of every Monte Carlo job for benchmark seed ``seed``."""
    return CLI_DEFAULT_SEED + seed


def jobs(workload: str, seed: int) -> list[list[str]]:
    """The argv list of each job of ``workload``, in run order."""
    if workload == "bellman-exact":
        return [
            ["bellman", "--p", "1/10", "--n", "56"],
            ["verify-theorem2", "--p", "1/5", "--n", "36", "--detail"],
            ["sweep", "--p", "3/10", "--n-max", "40", "--strategy", "optimal"],
        ]
    if workload == "forward-exact":
        return [
            ["sweep", "--p", "1/10", "--n-max", "120"],
            ["exact", "--p", "1/20", "--n", "48", "--strategy", "round-robin"],
            ["paths", "--p", "1/10", "--n", "80", "--series", "loops", "--variant", "closed-form"],
            ["octopus", "--p", "1/10", "--depth", "30", "--verify"],
            ["bounds", "--p", "1/20,1/10,1/5,3/10,2/5", "--n", "60", "--format", "csv"],
        ]
    if workload == "log-float":
        return [
            ["sweep", "--p", "0.1", "--n-max", "200", "--mode", "float"],
            ["exact", "--p", "0.05", "--n", "72", "--strategy", "round-robin", "--mode", "float"],
            ["bellman", "--p", "0.1", "--n", "60", "--mode", "float"],
            ["bellman", "--p", "0.1", "--n", "100", "--mode", "float"],
            ["paths", "--p", "0.1", "--n", "200", "--series", "loops", "--variant", "closed-form",
             "--mode", "float"],
        ]
    if workload == "monte-carlo":
        s = str(mc_seed(seed))
        return [
            ["simulate", "--p", "0.1", "--n", "20", "--trials", "1000000", "--workers", str(WORKERS),
             "--seed", s],
            ["simulate", "--p", "0.2", "--n", "100", "--trials", "100000", "--seed", s],
            ["simulate", "--p", "0.2", "--n", str(TABLE_N), "--trials", "8000",
             "--strategy", f"table:{TABLE_PATH}", "--seed", s],
            ["simulate", "--p", "0.1", "--n", "20", "--trials", "1000",
             "--dump-trajectories", DUMP_PATH, "--dump-count", "1000", "--seed", s],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("bellman-exact", "forward-exact", "log-float", "monte-carlo")


def _leaders(s: tuple[int, int, int]) -> list[int]:
    lo = min(s)
    return [i + 1 for i, v in enumerate(s) if v == lo]


def write_inputs(root: Path) -> None:
    """Create the output directory and the max-posterior table strategy.

    The table holds the uniform-tie max-posterior rule on every normalised
    state with entries up to TABLE_N, which covers every state reachable in
    TABLE_N steps, so the scalar table path and the vectorised
    max-posterior engine must count the same errors.
    """
    (root / OUT_DIR).mkdir(parents=True, exist_ok=True)
    entries = []
    for a in range(TABLE_N + 1):
        for b in range(TABLE_N + 1):
            for c in range(TABLE_N + 1):
                s = (a, b, c)
                if min(s) != 0:
                    continue
                lead = _leaders(s)
                entries.append(
                    {"state": list(s), "distribution": {str(j): [1, len(lead)] for j in lead}}
                )
    (root / TABLE_PATH).write_text(json.dumps(entries, separators=(",", ":")) + "\n")
