"""Seeded episode simulation, trajectory audits, and exponent estimation.

Every random draw is a pure function of (seed, trial, purpose, step), so
results are identical for any worker count or batch size.  The batch
engine vectorizes the same draw discipline as the scalar path in
``strategy.step``; a test pins the two to each other bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .belief import MetricState, leaders, normalize
from .channel import (
    TAG_DECODE,
    TAG_NOISE,
    TAG_TIE,
    TAG_TRUE,
    ChannelParams,
    Seed,
    _MASK64,
    _MIX_A,
    _MIX_B,
    _PHI64,
    counter_hash,
    mix64,
    uniform_index,
)
from .strategy import MAX_POSTERIOR, StrategyRule, select_query, step

_U = np.uint64
_WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def _mix_np(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> _U(30))
    x = x * _U(_MIX_A)
    x = x ^ (x >> _U(27))
    x = x * _U(_MIX_B)
    return x ^ (x >> _U(31))


def _word(w: int) -> np.uint64:
    return _U((w * _PHI64) & _MASK64)


def noise_bits(ch: ChannelParams, seed: int, trial: int, count: int) -> np.ndarray:
    """Vectorized channel error bits for steps 0..count-1 of one trial;
    entry k equals the scalar ``sample_flip`` draw at step k."""
    ch.require_float("noise_bits")
    steps = np.arange(count, dtype=np.uint64)
    base = mix64(mix64(seed) ^ ((trial * _PHI64) & _MASK64))
    base_noise = mix64(base ^ ((TAG_NOISE * _PHI64) & _MASK64))
    h = _mix_np(_U(base_noise) ^ (steps * _U(_PHI64)))
    return ((h >> _U(11)) < _U(math.floor(ch.p * 2.0**53))).astype(np.int64)


@dataclass(frozen=True)
class SimulationStats:
    """Counts plus a score-type interval; shard merges add counts exactly."""

    trials: int
    errors: int
    seed: int
    elapsed_s: float
    ci_method: str = "wilson-99"

    @property
    def estimate(self) -> float:
        return self.errors / self.trials

    def confidence_interval(self) -> tuple[float, float]:
        """Wilson score interval at 99%, stable at low counts."""
        z2 = _WILSON_Z99**2
        nt, ph = self.trials, self.estimate
        denom = 1.0 + z2 / nt
        center = (ph + z2 / (2 * nt)) / denom
        half = (_WILSON_Z99 / denom) * math.sqrt(ph * (1 - ph) / nt + z2 / (4 * nt * nt))
        return max(0.0, center - half), min(1.0, center + half)


def merge_stats(parts: Sequence[SimulationStats]) -> SimulationStats:
    """Exact fold of shard results: integer counts add, order irrelevant."""
    if not parts:
        raise ValueError("nothing to merge")
    seed = parts[0].seed
    if any(p.seed != seed for p in parts):
        raise ValueError("refusing to merge stats from different seeds")
    return SimulationStats(
        trials=sum(p.trials for p in parts),
        errors=sum(p.errors for p in parts),
        seed=seed,
        elapsed_s=sum(p.elapsed_s for p in parts),
    )


def _batch_queries(rule: StrategyRule, d: np.ndarray, tie_draw: np.ndarray) -> np.ndarray:
    m = d - d.min(axis=0)
    zeros = m == 0
    if rule.kind == "max-posterior":
        if rule.tie_policy == "lowest-index":
            return zeros.argmax(axis=0)
        nz = zeros.sum(axis=0).astype(np.uint64)
        rank = (tie_draw % nz).astype(np.int64)
        csum = np.cumsum(zeros, axis=0)
        return ((csum == rank + 1) & zeros).argmax(axis=0)
    if rule.kind == "fixed":
        return np.full(d.shape[1], rule.fixed_query - 1, dtype=np.int64)
    if rule.kind == "round-robin":
        return (m.sum(axis=0) % 3).astype(np.int64)
    raise ValueError(f"batch engine has no vectorized path for rule kind {rule.kind!r}")


def _simulate_batch(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    seed: int,
    trial_lo: int,
    trial_hi: int,
    audit: bool = False,
    return_arrays: bool = False,
) -> dict:
    """Run trials [trial_lo, trial_hi); returns error count and audit tallies."""
    count = trial_hi - trial_lo
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    base = _mix_np(_U(mix64(seed)) ^ (trials * _U(_PHI64)))
    base_noise = _mix_np(base ^ _word(TAG_NOISE))
    base_tie = _mix_np(base ^ _word(TAG_TIE))
    base_true = _mix_np(base ^ _word(TAG_TRUE))
    base_decode = _mix_np(base ^ _word(TAG_DECODE))
    true = (_mix_np(base_true ^ _word(0)) % _U(3)).astype(np.int64)
    thresh = _U(math.floor(ch.p * 2.0**53))
    d = np.zeros((3, count), dtype=np.int64)
    zero_outputs = np.zeros(count, dtype=np.int64)
    chain_violations = 0
    spread_violations = 0
    for k in range(n):
        query = _batch_queries(rule, d, _mix_np(base_tie ^ _word(k)))
        x = query != true
        flip = (_mix_np(base_noise ^ _word(k)) >> _U(11)) < thresh
        y = x ^ flip
        onehot = np.arange(3, dtype=np.int64)[:, None] == query[None, :]
        d += np.where(y[None, :], onehot, ~onehot).astype(np.int64)
        zero_outputs += ~y
        if audit:
            ds = np.sort(d, axis=0)
            chain_violations += int((ds[2] > ds[1] + 1).sum())
            spread_violations += int((3 * ds[1] < d.sum(axis=0) - 1).sum())
    m = d - d.min(axis=0)
    zeros = m == 0
    nz = zeros.sum(axis=0).astype(np.uint64)
    rank = (_mix_np(base_decode ^ _word(n)) % nz).astype(np.int64)
    csum = np.cumsum(zeros, axis=0)
    decoded = ((csum == rank + 1) & zeros).argmax(axis=0)
    errors = decoded != true
    out = {"trials": count, "errors": int(errors.sum())}
    if return_arrays:
        out["true"] = true + 1
        out["decoded"] = decoded + 1
        out["votes"] = d
        out["zero_outputs"] = zero_outputs
    if audit:
        total = d.sum(axis=0)
        e = d[true, np.arange(count)]
        out["chain_violations"] = chain_violations
        out["spread_violations"] = spread_violations
        out["vote_identity_violations"] = int((total != n + zero_outputs).sum())
        bad_path = errors & (3 * e + 1 < n + zero_outputs)
        out["error_path_violations"] = int(bad_path.sum())
    return out


def run_trials(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    trials: int,
    seed: int,
    workers: int = 1,
    batch: int = 250_000,
) -> SimulationStats:
    """Estimate the error probability from ``trials`` simulated episodes.

    Trials are sharded by index across ``workers`` contiguous ranges, run
    one after another in this process (no parallelism), and processed in
    bounded batches; neither choice can affect the result.
    The true message is drawn uniformly per trial from the seed stream.
    """
    ch.require_float("run_trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("workers must be positive")
    t0 = time.perf_counter()
    bounds_list = [trials * w // workers for w in range(workers + 1)]
    parts = []
    for lo, hi in zip(bounds_list, bounds_list[1:]):
        errors = 0
        cur = lo
        while cur < hi:
            top = min(cur + batch, hi)
            if rule.kind == "table":
                for trial in range(cur, top):
                    rec = simulate_trajectory(n, ch, rule, seed, trial)
                    errors += rec.error
            else:
                errors += _simulate_batch(n, ch, rule, seed, cur, top)["errors"]
            cur = top
        parts.append(SimulationStats(hi - lo, errors, seed, 0.0))
    merged = merge_stats(parts)
    return SimulationStats(merged.trials, merged.errors, seed, time.perf_counter() - t0)


def run_trajectory_audit(
    n: int,
    ch: ChannelParams,
    trials: int,
    seed: int,
    rule: StrategyRule = MAX_POSTERIOR,
    batch: int = 100_000,
) -> dict:
    """Vectorized invariant sweep over many trajectories.

    Checks, at every step, the sorted-vote chain (greatest count at most
    one above the middle) and the middle-vs-average spread; at the end,
    the vote-total identity 3 * mean votes = n + zeros, and for erroneous
    trials the path-probability inequality in its exact integer form.
    """
    ch.require_float("run_trajectory_audit")
    tallies = {
        "trials": 0,
        "errors": 0,
        "chain_violations": 0,
        "spread_violations": 0,
        "vote_identity_violations": 0,
        "error_path_violations": 0,
    }
    cur = 0
    while cur < trials:
        top = min(cur + batch, trials)
        out = _simulate_batch(n, ch, rule, seed, cur, top, audit=True)
        for key in tallies:
            tallies[key] += out.get(key, 0)
        cur = top
    tallies["violations"] = sum(
        tallies[k] for k in tallies if k.endswith("_violations")
    )
    return tallies


@dataclass(frozen=True)
class TrajectoryRecord:
    """One full episode: per-step choices plus the final vote bookkeeping."""

    n: int
    true: int
    queries: tuple[int, ...]
    ys: tuple[int, ...]
    vote_history: tuple[tuple[int, int, int], ...]  # cumulative votes after each step
    votes: tuple[int, int, int]  # final absolute vote counts
    zero_outputs: int            # m, number of y = 0
    decoded: int
    rule_kind: str

    @property
    def e(self) -> int:
        """Votes against the true message."""
        return self.votes[self.true - 1]

    @property
    def error(self) -> bool:
        return self.decoded != self.true

    @property
    def mean_votes(self) -> Fraction:
        return Fraction(sum(self.votes), 3)


def simulate_trajectory(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    seed: int,
    trial: int,
    true: int | None = None,
) -> TrajectoryRecord:
    """Scalar reference episode; draws match the batch engine bit for bit."""
    ch.require_float("simulate_trajectory")
    if true is None:
        true = uniform_index(counter_hash(seed, trial, TAG_TRUE, 0), 3) + 1
    sd = Seed(seed, trial)
    s: MetricState = (0, 0, 0)
    d = [0, 0, 0]
    queries, ys, history = [], [], []
    zero_outputs = 0
    for t in range(n):
        q, y, s = step(rule, s, ch, true, sd, t)
        j = q.index
        if (y ^ int(q.inverted)) == 1:
            d[j - 1] += 1
        else:
            for i in range(3):
                if i != j - 1:
                    d[i] += 1
        zero_outputs += 1 - y
        queries.append(j)
        ys.append(y)
        history.append(tuple(d))
    lead = leaders(normalize(tuple(d)))
    rank = uniform_index(counter_hash(seed, trial, TAG_DECODE, n), len(lead))
    decoded = sorted(lead)[rank]
    return TrajectoryRecord(
        n=n,
        true=true,
        queries=tuple(queries),
        ys=tuple(ys),
        vote_history=tuple(history),
        votes=tuple(d),
        zero_outputs=zero_outputs,
        decoded=decoded,
        rule_kind=rule.kind,
    )


@dataclass(frozen=True)
class TrajectoryVerdict:
    ok: bool
    violations: tuple[str, ...]


def check_trajectory_invariants(record: TrajectoryRecord, ch: ChannelParams) -> TrajectoryVerdict:
    """Step-level and terminal invariants for a max-posterior trajectory.

    The path-probability inequality for erroneous trials is checked in its
    exact integer form (3e + 1 >= n + m, equivalent after cubing) and also
    evaluated in logs for the report.
    """
    problems: list[str] = []
    if record.rule_kind != "max-posterior":
        problems.append(f"record from rule {record.rule_kind!r}; invariants assume max-posterior")
    for k, votes in enumerate(record.vote_history, start=1):
        lo, mid, hi = sorted(votes)
        if hi > mid + 1:
            problems.append(f"step {k}: sorted votes {(lo, mid, hi)} break the +1 chain")
        if 3 * mid < sum(votes) - 1:
            problems.append(f"step {k}: middle count below the average - 1/3 floor")
    n, m = record.n, record.zero_outputs
    if sum(record.votes) != n + m:
        problems.append(f"vote total {sum(record.votes)} != n + zeros = {n + m}")
    if record.error:
        e = record.e
        if 3 * e + 1 < n + m:
            problems.append(f"erroneous path with e={e} below the (n+m)/3 - 1/3 floor")
        if not ch.degenerate:
            p, q = float(ch.p), float(ch.q)
            d13 = (n + m) / 3.0
            lhs = e * math.log(p) + (n - e) * math.log(q)
            rhs = math.log(q / p) / 3.0 + d13 * math.log(p) + (n - d13) * math.log(q)
            if lhs > rhs + 1e-9:
                problems.append("path log-probability exceeds the spread bound")
    return TrajectoryVerdict(ok=not problems, violations=tuple(problems))


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    slope_stderr: float
    points_used: int


def estimate_exponent(grid: Sequence[tuple[int, SimulationStats]]) -> ExponentFit:
    """Weighted least squares of -ln(estimate) against n.

    Weights are inverse delta-method variances (1-p)/(p * trials); points
    with zero observed errors carry no information and are dropped.
    """
    usable = [(n, st) for n, st in grid if st.errors > 0]
    if len(usable) < 3:
        raise ValueError(
            "need at least 3 grid points with nonzero error counts; "
            "increase trials or use the exact dynamic program"
        )
    xs = np.array([n for n, _ in usable], dtype=float)
    ps = np.array([st.estimate for _, st in usable])
    ts = np.array([st.trials for _, st in usable], dtype=float)
    ys = -np.log(ps)
    wts = ts * ps / (1.0 - ps)
    xbar = float((wts * xs).sum() / wts.sum())
    ybar = float((wts * ys).sum() / wts.sum())
    sxx = float((wts * (xs - xbar) ** 2).sum())
    slope = float((wts * (xs - xbar) * (ys - ybar)).sum() / sxx)
    return ExponentFit(
        slope=slope,
        intercept=ybar - slope * xbar,
        slope_stderr=math.sqrt(1.0 / sxx),
        points_used=len(usable),
    )
