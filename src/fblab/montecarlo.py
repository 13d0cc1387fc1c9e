"""Seeded episode simulation and the trajectory audit.

Every random draw is ``counter_hash(seed, trial, tag, step)``, a SplitMix64
chain with one purpose tag per substream.  The layout is frozen (stored
results and pinned counts depend on it), and no result depends on the batch
size.  One row-wise batch engine, ``_simulate_batch``, mirrors it bit for
bit and runs every rule kind, table rules included: it gives ``run_trials``
its counts, and its per-step arrays give ``run_trajectory_audit`` the
paper's vote-invariant tallies and ``trajectory_records`` the episode
records that the CLI dumps.  The scalar path, ``simulate_trajectory``
calling ``step`` once per channel use, is kept as the oracle only: tests
pin the batch engine to it per trial, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import MetricState, apply_outcome, leaders, normalize
from .channel import ChannelParams
from .strategy import MAX_POSTERIOR, StrategyRule, select_query

_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants; frozen, do not change (stored results
# and pinned test vectors depend on them).
_PHI64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Purpose tags: each draw purpose owns an independent substream.
TAG_NOISE = 1
TAG_TIE = 2
TAG_TRUE = 3
TAG_DECODE = 4


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def counter_hash(seed: int, trial: int, tag: int, step: int) -> int:
    """64-bit hash of (seed, trial, tag, step); the whole RNG is this function."""
    h = mix64(seed & _MASK64)
    h = mix64(h ^ ((trial * _PHI64) & _MASK64))
    h = mix64(h ^ ((tag * _PHI64) & _MASK64))
    h = mix64(h ^ ((step * _PHI64) & _MASK64))
    return h


_U = np.uint64
_WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_RECORD_STEPS = 1_000_000  # trial-steps per batch of trajectory records


def _mix_into(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``mix64`` of every word of ``x``, in place (``tmp`` is scratch)."""
    np.right_shift(x, _U(30), out=tmp)
    x ^= tmp
    x *= _U(_MIX_A)
    np.right_shift(x, _U(27), out=tmp)
    x ^= tmp
    x *= _U(_MIX_B)
    np.right_shift(x, _U(31), out=tmp)
    x ^= tmp
    return x


def _word(w: int) -> np.uint64:
    return _U((w * _PHI64) & _MASK64)


@dataclass(frozen=True)
class SimulationStats:
    """Counts plus a score-type interval."""

    trials: int
    errors: int
    seed: int
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


def _tie_ranks() -> np.ndarray:
    """Flat lookup, index 6 * pattern + r: the 0-based message of rank r % k
    among the k messages whose bits are set in ``pattern``.

    With r = h % 6 this is the scalar path's ``sorted(leaders)[h % k]``
    exactly, because k in {1, 2, 3} divides 6, so h % k == (h % 6) % k.
    """
    ranks = np.zeros((8, 6), dtype=np.uint8)
    for pattern in range(1, 8):
        members = [i for i in range(3) if pattern >> i & 1]
        ranks[pattern] = [members[r % len(members)] for r in range(6)]
    return ranks.ravel()


_TIE_RANKS = _tie_ranks()


def _mod6(h: np.ndarray) -> np.ndarray:
    """h % 6 of uint64 words, as uint8.  numpy divides by a scalar far faster
    than it takes a remainder, so the remainder h - 6 * (h // 6) is formed
    from the quotient; it is below 6, so uint8 wraparound arithmetic gives it
    exactly."""
    r = h.astype(np.uint8)
    r -= (h // _U(6)).astype(np.uint8) * np.uint8(6)
    return r


def _fewest_pattern(d: np.ndarray) -> np.ndarray:
    """Per trial, bit i set when message i + 1 has the fewest votes."""
    lo = np.minimum(np.minimum(d[0], d[1]), d[2])
    pattern = (d[0] == lo).view(np.uint8)
    pattern |= (d[1] == lo).view(np.uint8) << 1
    pattern |= (d[2] == lo).view(np.uint8) << 2
    return pattern


def _pick_fewest(d: np.ndarray, tie: np.ndarray) -> np.ndarray:
    """0-based fewest-votes message of rank h % k per trial, as ``step`` and
    the decoder choose."""
    index = _fewest_pattern(d) * 6 + _mod6(tie)
    return np.take(_TIE_RANKS, index.astype(np.intp))


class _TableQueries:
    """A table rule compiled for the batch engine.

    States are looked up by a sorted key of the normalised vote triple.  Per
    state the query is drawn as ``step`` draws it: a rank lookup
    ``sorted(choices)[h % k]`` when the weights are equal, otherwise the first
    choice whose cumulative weight acc satisfies h < acc * 2**64, i.e.
    h <= ceil(acc * 2**64) - 1, computed exactly from the weights.  Entries
    were checked when the rule was built, and only states with entries up to
    n can occur; a missing state raises ValueError when a trial visits it.
    """

    def __init__(self, table: dict, n: int):
        entries = sorted((s, w) for s, w in table.items() if max(s) <= n)
        self.radix = 2 + max((max(s) for s, _ in entries), default=0)
        if self.radix**3 >= 1 << 63:
            raise ValueError("table strategy states are too large for the batch engine")
        size = len(entries)
        # sorted keys, then a sentinel above every key, so a lookup always lands
        keys = [(s[0] * self.radix + s[1]) * self.radix + s[2] for s, _ in entries]
        self.keys = np.array(keys + [self.radix**3], dtype=np.int64)
        self.ranks = np.zeros((size, 6), dtype=np.uint8)
        self.cut = np.zeros((size, 2), dtype=np.uint64)
        self.pick = np.zeros((size, 3), dtype=np.uint8)
        self.by_cut = np.zeros(size, dtype=bool)
        for i, (_, weights) in enumerate(entries):
            choices = sorted(weights)
            if all(weights[c] == weights[choices[0]] for c in choices):
                self.ranks[i] = [choices[r % len(choices)] - 1 for r in range(6)]
            else:
                self.by_cut[i] = True
                self.cut[i], self.pick[i] = _cuts(weights, choices)

    def queries(self, d: np.ndarray, tie: np.ndarray) -> np.ndarray:
        m = d - np.minimum(np.minimum(d[0], d[1]), d[2])
        c = np.minimum(m, self.radix - 1).astype(np.int64)
        key = (c[0] * self.radix + c[1]) * self.radix + c[2]
        pos = np.searchsorted(self.keys, key)
        found = self.keys[pos] == key
        if not found.all():
            state = tuple(m[:, np.argmin(found)].tolist())
            raise ValueError(f"table strategy has no entry for reachable state {state}")
        q = np.take(self.ranks.ravel(), pos * 6 + _mod6(tie).astype(np.intp))
        sel = np.flatnonzero(self.by_cut[pos])
        if len(sel):
            at, h = pos[sel], tie[sel]
            cut, pick = self.cut[at], self.pick[at]
            q[sel] = np.where(
                h <= cut[:, 0], pick[:, 0], np.where(h <= cut[:, 1], pick[:, 1], pick[:, 2])
            )
        return q


def _cuts(weights: dict, choices: list[int]) -> tuple[list[int], list[int]]:
    """Cut points and 0-based picks for unequal weights: the query is pick[j]
    for the first j with h <= cut[j], else pick[2].  A choice no draw can
    take is skipped; one that every draw reaching it takes ends the list."""
    acc = Fraction(0)
    cuts: list[tuple[int, int]] = []
    last = choices[-1]
    for c in choices[:-1]:
        acc += weights[c]
        exact = Fraction(acc)
        bound = -((-exact.numerator << 64) // exact.denominator)  # ceil(acc * 2**64)
        if bound >= 1 << 64:
            last = c
            break
        if bound > 0:
            cuts.append((bound - 1, c))
    cuts += [(0, last)] * (2 - len(cuts))
    return [t for t, _ in cuts], [c - 1 for _, c in cuts] + [last - 1]


def _batch_outputs(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    seed: int,
    trials: int,
    size: int,
    return_arrays: bool = False,
):
    """``_simulate_batch`` outputs for trials [0, trials), at most ``size`` per
    batch; a table rule is compiled once for all of them."""
    if n < 0:
        raise ValueError(f"horizon n must be non-negative, got {n}")
    table = _TableQueries(rule.table, n) if rule.kind == "table" else None
    for lo in range(0, trials, size):
        yield _simulate_batch(n, ch, rule, table, seed, lo, min(lo + size, trials), return_arrays)


def _array_batches(n: int, ch: ChannelParams, rule: StrategyRule, seed: int, trials: int):
    """``_batch_outputs`` with the per-step arrays, in batches of about
    ``_RECORD_STEPS`` trial-steps, so memory stays bounded for any n."""
    return _batch_outputs(
        n, ch, rule, seed, trials, max(1, _RECORD_STEPS // max(n, 1)), return_arrays=True
    )


def _simulate_batch(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    table: _TableQueries | None,
    seed: int,
    trial_lo: int,
    trial_hi: int,
    return_arrays: bool = False,
) -> dict:
    """Run trials [trial_lo, trial_hi) of any rule kind (``table`` is the
    compiled table of a table rule); returns the error count, and with
    ``return_arrays`` the per-trial arrays, per-step queries, outputs and
    vote history included.

    Votes are three int32 rows, one per message.  Each draw is the scalar
    path's ``counter_hash(seed, trial, tag, step)``, vectorised over trials.
    """
    count = trial_hi - trial_lo
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    base = _U(mix64(seed)) ^ (trials * _U(_PHI64))
    scratch, h = np.empty_like(base), np.empty_like(base)
    _mix_into(base, scratch)
    streams = {
        tag: _mix_into(base ^ _word(tag), scratch)
        for tag in (TAG_NOISE, TAG_TIE, TAG_TRUE, TAG_DECODE)
    }

    def draw(tag: int, step: int, out: np.ndarray) -> np.ndarray:
        np.bitwise_xor(streams[tag], _word(step), out=out)
        return _mix_into(out, scratch)

    true = (draw(TAG_TRUE, 0, h) % _U(3)).astype(np.uint8)
    # the scalar flip (h >> 11) < floor(p * 2**53), as one comparison of h
    flip_below = _U(math.floor(ch.p * 2.0**53) << 11)
    tie = np.empty_like(base) if rule.kind in ("max-posterior", "table") else None
    d = np.zeros((3, count), dtype=np.int32)
    ones = np.zeros(count, dtype=np.int32)  # outputs y = 1 so far
    if return_arrays:
        queries = np.empty((n, count), dtype=np.uint8)
        ys = np.empty((n, count), dtype=np.uint8)
        history = np.empty((n, 3, count), dtype=np.int32)
    for k in range(n):
        if tie is not None:
            draw(TAG_TIE, k, tie)
        if table is not None:
            q = table.queries(d, tie)
        elif rule.kind == "max-posterior":
            q = _pick_fewest(d, tie)
        elif rule.kind == "fixed":
            q = np.full(count, rule.fixed_query - 1, dtype=np.uint8)
        else:  # round-robin on the vote total, which is 2k - ones after k steps
            q = ((2 * k - ones) % 3).astype(np.uint8)
        flip = draw(TAG_NOISE, k, h) < flip_below
        y = (q != true) ^ flip
        # y = 1 puts one vote on the query, y = 0 one on each other message
        for i in range(3):
            d[i] += (q == i) == y
        ones += y
        if return_arrays:
            queries[k] = q + 1
            ys[k] = y
            history[k] = d
    decoded = _pick_fewest(d, draw(TAG_DECODE, n, h))
    out = {"trials": count, "errors": int(np.count_nonzero(decoded != true))}
    if return_arrays:
        out.update(
            true=true + 1, decoded=decoded + 1, votes=d, zero_outputs=n - ones,
            queries=queries, ys=ys, history=history,
        )
    return out


def run_trials(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    trials: int,
    seed: int,
    workers: int = 1,
    batch: int = 1 << 16,
) -> SimulationStats:
    """Estimate the error probability from ``trials`` simulated episodes.

    Every rule kind runs on the batch engine, in bounded batches of one loop
    over trials [0, trials) in this process.  ``workers`` must be positive
    but changes nothing: there is no parallelism, and every draw is a pure
    function of (seed, trial), so neither it nor the batch size can affect
    the result.  The true message is drawn uniformly per trial from the seed
    stream.
    """
    ch.require_float("run_trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("workers must be positive")
    errors = sum(out["errors"] for out in _batch_outputs(n, ch, rule, seed, trials, batch))
    return SimulationStats(trials, errors, seed)


def run_trajectory_audit(
    n: int, ch: ChannelParams, trials: int, seed: int, rule: StrategyRule = MAX_POSTERIOR
) -> dict:
    """Tally the paper's vote invariants over trials [0, trials).

    Counted from the batch engine's arrays: the steps where the sorted votes
    lo <= mid <= hi break the chain (hi > mid + 1) or the spread
    (3 * mid < total - 1), and the trials where the vote total differs from
    n + m (m outputs y = 0) or that decode wrongly with 3e + 1 < n + m (e
    votes on the true message).  A fewest-votes rule violates none of them.
    No command calls it; it stays as the check of the paper's vote invariants.
    """
    ch.require_float("run_trajectory_audit")
    tallies = dict.fromkeys(
        ("trials", "errors", "chain_violations", "spread_violations",
         "vote_identity_violations", "error_path_violations"), 0)
    for out in _array_batches(n, ch, rule, seed, trials):
        history, votes, m = out["history"], out["votes"], out["zero_outputs"]
        lo, hi, total = history.min(axis=1), history.max(axis=1), history.sum(axis=1)
        mid = total - lo - hi
        e = votes[out["true"] - 1, np.arange(out["trials"])]
        error = out["decoded"] != out["true"]
        tallies["trials"] += out["trials"]
        tallies["errors"] += out["errors"]
        tallies["chain_violations"] += int(np.count_nonzero(hi > mid + 1))
        tallies["spread_violations"] += int(np.count_nonzero(3 * mid < total - 1))
        tallies["vote_identity_violations"] += int(np.count_nonzero(votes.sum(axis=0) != n + m))
        tallies["error_path_violations"] += int(np.count_nonzero(error & (3 * e + 1 < n + m)))
    tallies["violations"] = sum(v for k, v in tallies.items() if k.endswith("_violations"))
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


def step(
    rule: StrategyRule,
    s: MetricState,
    ch: ChannelParams,
    true: int,
    seed: int,
    trial: int,
    t: int,
) -> tuple[int, int, MetricState]:
    """One simulated channel use, as (query j, output y, next state); fully
    reproducible from (seed, trial, t)."""
    ch.require_float("step")
    weights = select_query(rule, s)
    choices = sorted(weights)
    if len(choices) == 1:
        j = choices[0]
    else:
        h = counter_hash(seed, trial, TAG_TIE, t)
        if all(weights[c] == weights[choices[0]] for c in choices):
            j = choices[h % len(choices)]  # modulo bias is < k * 2**-64
        else:
            u = Fraction(h, 1 << 64)
            acc = Fraction(0)
            j = choices[-1]
            for c in choices:
                acc += weights[c]
                if u < acc:
                    j = c
                    break
    # the top 53 hash bits against a fixed threshold: P(flip) = p up to 2**-53
    flip = int((counter_hash(seed, trial, TAG_NOISE, t) >> 11) < math.floor(ch.p * 2.0**53))
    y = int(true != j) ^ flip
    return j, y, apply_outcome(s, j, y)


def simulate_trajectory(
    n: int, ch: ChannelParams, rule: StrategyRule, seed: int, trial: int
) -> TrajectoryRecord:
    """Scalar reference episode; draws match the batch engine bit for bit.

    No command calls it; it stays as the oracle for the batch engine, and
    ``perfbench/tracing.py`` patches it (and ``step``) as a module attribute."""
    ch.require_float("simulate_trajectory")
    true = counter_hash(seed, trial, TAG_TRUE, 0) % 3 + 1
    s: MetricState = (0, 0, 0)
    d = [0, 0, 0]
    queries, ys, history = [], [], []
    zero_outputs = 0
    for t in range(n):
        j, y, s = step(rule, s, ch, true, seed, trial, t)
        if y == 1:
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
    decoded = sorted(lead)[counter_hash(seed, trial, TAG_DECODE, n) % len(lead)]
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


def trajectory_records(
    n: int, ch: ChannelParams, rule: StrategyRule, seed: int, count: int
) -> list[TrajectoryRecord]:
    """Records of trials [0, count) from the batch engine; record t equals
    ``simulate_trajectory(n, ch, rule, seed, t)``."""
    ch.require_float("trajectory_records")
    records = []
    for out in _array_batches(n, ch, rule, seed, count):
        columns = zip(
            out["true"].tolist(),
            out["queries"].T.tolist(),
            out["ys"].T.tolist(),
            out["history"].transpose(2, 0, 1).tolist(),
            out["votes"].T.tolist(),
            out["zero_outputs"].tolist(),
            out["decoded"].tolist(),
        )
        records += [
            TrajectoryRecord(
                n=n,
                true=true,
                queries=tuple(qs),
                ys=tuple(ys),
                vote_history=tuple(map(tuple, hist)),
                votes=tuple(votes),
                zero_outputs=zeros,
                decoded=decoded,
                rule_kind=rule.kind,
            )
            for true, qs, ys, hist, votes, zeros, decoded in columns
        ]
    return records
