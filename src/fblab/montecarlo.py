"""Seeded episode simulation and the trajectory audit.

Every random draw is ``counter_hash(seed, trial, tag, step)``, a SplitMix64
chain with one purpose tag per substream.  The layout is frozen (stored
results and pinned counts depend on it), and no result depends on the batch
size.  One row-wise batch engine, ``_simulate_batch``, mirrors it bit for
bit and runs every rule kind, table rules included.  A max-posterior query
and every decode take the fewest-votes message (``_pick_fewest``); any other
rule draws its query from ``exact_dp.compile_rule``'s rows, the rows of
``select_query`` that the forward pass also steps.  Like ``step``, the
engine hashes the tie substream only for the trials whose query or decode
has two or more candidates, so a draw nobody uses is never made, and a rule
none of whose rows has two choices never hashes it.  A run allocates one
workspace, the five uint64 streams of a batch, and every batch refills it.
Votes are held in the narrowest unsigned type that holds the horizon n
(``np.min_scalar_type(n)``, uint8 up to n = 255): one use adds at most one
vote to a message, so no count passes n, and every per-step pass over the
votes reads one byte per count.  The engine gives ``run_trials`` its
counts.  There a trial retires as soon as its fewest-votes leader is ahead
of every other message by more than the uses left: one use closes the gap
between any two messages by at most one, so its decode is fixed, and its
error is counted then.  ``exact_dp.contenders`` is that predicate, the one
by which the exact forward pass drops decided states.  Draws are pure
functions of (seed, trial), so the counts are those of running every step.
The records and the audit run every step of every trial, and so does a
table rule, so that a state missing from its table raises wherever a trial
reaches it.  The engine's per-step arrays give ``run_trajectory_audit`` the
paper's vote-invariant tallies and ``trajectory_records`` the episode
records that the CLI dumps.  Both take the arrays in batches of about
``_RECORD_STEPS`` trial-steps, and ``trajectory_records`` yields each
batch's records as they are consumed, so a dump holds one batch in memory
whatever its length.  A record is a plain dict of ints and lists in the
key order of its JSON line, so ``json``'s C encoder writes it with no
conversion hook.  The scalar path, ``simulate_trajectory`` calling ``step``
once per channel use, is kept as the oracle only: it returns the same dict,
and tests pin the batch engine's records to it per trial with ``==``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .belief import MetricState, apply_outcome, leaders, normalize
from .channel import ChannelParams
from .exact_dp import compile_rule, contenders
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
_RECORD_STEPS = 1 << 17  # trial-steps per batch of trajectory records
_BATCH = 1 << 16  # most trials per batch of run_trials
_PROBE = 1 << 10  # live trials that tell whether a batch of run_trials compacts


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


def _mod(h: np.ndarray, m: int, tmp: np.ndarray | None = None) -> np.ndarray:
    """h % m of uint64 words, as uint8, for 0 < m < 256 (``tmp``, if given, is
    uint64 scratch of h's shape).  numpy divides by a scalar far faster than
    it takes a remainder, so the remainder h - m * (h // m) is formed from the
    quotient; it is below m, so uint8 wraparound arithmetic gives it exactly."""
    r = h.astype(np.uint8)
    r -= np.floor_divide(h, _U(m), out=tmp).astype(np.uint8) * np.uint8(m)
    return r


def _rehash(x: np.ndarray, w: int, tmp: np.ndarray | None = None) -> np.ndarray:
    """``mix64(x ^ w * PHI)`` of every word of ``x``, in place: one link of
    the ``counter_hash`` chain (``tmp`` is scratch of x's shape)."""
    x ^= _word(w)
    return _mix_into(x, np.empty_like(x) if tmp is None else tmp)


def _pick_fewest(d: np.ndarray, draw) -> np.ndarray:
    """0-based fewest-votes message per trial, as ``step`` and the decoder
    choose: the one message with the fewest votes, or among k tied ones the
    one of rank h % k, where ``draw(rows)`` hashes h for the tied rows only,
    as ``step`` hashes only when it has two or more choices."""
    lo = np.minimum(np.minimum(d[0], d[1]), d[2])
    e0, e1, e2 = ((v == lo).view(np.uint8) for v in d)
    q = e2 + e2
    q += e1  # exact wherever a single message has the fewest votes
    k = e0 + e1
    k += e2
    tied = np.flatnonzero(k > 1)
    if len(tied):
        pattern = e0[tied] | q[tied] << 1  # the leader set's mask, whose row is pattern - 1
        q[tied] = _TIE_RANKS[pattern.astype(np.intp) * 6 + _mod(draw(tied), 6) - 6]
    return q


class _Queries:
    """A rule compiled for the batch engine: ``exact_dp.compile_rule``'s
    distinct rows up to horizon ``n`` (a table's states with counts up to n,
    the only ones n uses reach).

    Per row the query is drawn as ``step`` draws it: the one choice when
    there is one (no draw), a rank lookup ``sorted(choices)[h % k]`` when the
    weights are equal, otherwise the first choice whose cumulative weight acc
    satisfies h < acc * 2**64, i.e. h <= ceil(acc * 2**64) - 1, computed
    exactly from the weights.  ``draws`` says that some row has two or more
    choices.  A state missing from a table raises ValueError when a trial
    visits it.
    """

    def __init__(self, rule: StrategyRule, n: int):
        _, rows, self.row_of = compile_rule(rule, n)
        choice_sets = [sorted(weights) for weights in rows]
        # column r: the 0-based query of rank r % k among a row's k choices
        self.ranks = np.array([[c[r % len(c)] - 1 for r in range(6)] for c in choice_sets],
                              dtype=np.uint8).reshape(-1, 6)
        self.multi = np.array([len(c) > 1 for c in choice_sets], dtype=bool)
        self.cut = np.zeros((len(rows), 2), dtype=np.uint64)
        self.pick = np.zeros((len(rows), 3), dtype=np.uint8)
        self.by_cut = np.zeros(len(rows), dtype=bool)
        for i in np.flatnonzero(self.multi).tolist():
            weights, choices = rows[i], choice_sets[i]
            if any(weights[c] != weights[choices[0]] for c in choices):
                self.by_cut[i] = True
                self.cut[i], self.pick[i] = _cuts(weights, choices)
        self.first = self.ranks[:, 0].copy()
        self.draws = bool(self.multi.any())

    def queries(self, d: np.ndarray, draw) -> np.ndarray:
        """0-based query per trial; ``draw(rows)`` hashes h for the rows whose
        state has two or more choices, the only ones ``step`` draws for."""
        pos = self.row_of(*d)
        # with one row every trial takes its query, and np.full is far faster than take
        q = self.first.take(pos) if len(self.first) > 1 else np.full(len(pos), self.first[0])
        rows = np.flatnonzero(self.multi.take(pos)) if self.draws else ()
        if len(rows):
            at, h = pos[rows], draw(rows)
            pick = np.take(self.ranks.ravel(), at * 6 + _mod(h, 6))
            sel = np.flatnonzero(self.by_cut[at])
            if len(sel):
                at, h = at[sel], h[sel]
                cut, to = self.cut[at], self.pick[at]
                pick[sel] = np.where(
                    h <= cut[:, 0], to[:, 0], np.where(h <= cut[:, 1], to[:, 1], to[:, 2])
                )
            q[rows] = pick
        return q


# the decode's and max-posterior's tie lookup, index 6 * row + h % 6: the
# message of rank h % k among the row's k leaders (k divides 6, so
# h % k == (h % 6) % k)
_TIE_RANKS = _Queries(MAX_POSTERIOR, 0).ranks.ravel()


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


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= _MASK64:  # the hash takes seed mod 2**64: two seeds would give one run
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _batch_outputs(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    seed: int,
    trials: int,
    return_arrays: bool = False,
):
    """``_simulate_batch`` outputs for trials [0, trials), ``_BATCH`` trials per
    batch, or with the per-step arrays about ``_RECORD_STEPS`` trial-steps, so
    memory stays bounded for any n; a rule other than max-posterior is compiled
    once for all of them, and one workspace, the five uint64 streams of a
    batch, is allocated once and refilled by every batch."""
    if n < 0:
        raise ValueError(f"horizon n must be non-negative, got {n}")
    _check_seed(seed)
    size = max(1, _RECORD_STEPS // max(n, 1)) if return_arrays else _BATCH
    queries = None if rule.kind == "max-posterior" else _Queries(rule, n)
    # a lead of more than n - k needs more than k uses, so none retires before; a
    # table rule never retires, so that a state it lacks raises wherever it is reached
    retire_from = n if return_arrays or rule.kind == "table" else n // 2 + 1
    workspace = np.empty((5, max(1, min(size, trials))), dtype=np.uint64)
    for lo in range(0, trials, size):
        hi = min(lo + size, trials)
        yield _simulate_batch(n, ch, queries, seed, lo, hi, return_arrays, retire_from, workspace)


def _simulate_batch(
    n: int,
    ch: ChannelParams,
    queries: _Queries | None,
    seed: int,
    trial_lo: int,
    trial_hi: int,
    return_arrays: bool,
    retire_from: int,
    workspace: np.ndarray,
) -> dict:
    """Run trials [trial_lo, trial_hi) of any rule kind (``queries`` is the
    compiled rule, None for max-posterior, which picks the fewest-votes
    message by ``_pick_fewest``); returns the error count, and with
    ``return_arrays`` the per-trial arrays, per-step queries, outputs and
    vote history included.  ``workspace`` is uint64 scratch of shape
    (5, at least the batch size), overwritten here; no output aliases it.

    Votes are three rows of ``np.min_scalar_type(n)``, one per message, and
    leave as int32 (``votes``, ``history``), so that the audit's 3e + 1 does
    not wrap.  Each draw is the scalar path's ``counter_hash(seed, trial,
    tag, step)``, vectorised over the trials that take it: the noise draw
    over all of them, a tie or decode draw over those with two or more
    candidates only, as in ``step``.

    From step ``retire_from`` on, decided trials retire as ``run_trials``
    describes; a retired trial errs when its true message is no contender
    (``exact_dp.contenders``).  ``retire_from`` must be n when ``return_arrays``.
    """
    count = trial_hi - trial_lo
    base, scratch, noise, h, tie = workspace[:, :count]
    np.multiply(np.arange(trial_lo, trial_hi, dtype=np.uint64), _U(_PHI64), out=base)
    base ^= _U(mix64(seed))
    _mix_into(base, scratch)
    # only the noise and tie streams stay resident; the true message and the
    # decode draw are hashed from ``base`` where they are used
    np.copyto(noise, base)
    _rehash(noise, TAG_NOISE, scratch)
    np.copyto(h, base)
    # the step-0 link mix64(h ^ 0 * PHI) is mix64(h): no xor
    true = _mod(_mix_into(_rehash(h, TAG_TRUE, scratch), scratch), 3, scratch)
    # the scalar flip (h >> 11) < floor(p * 2**53), as one comparison of h
    flip_below = _U(math.floor(ch.p * 2.0**53) << 11)
    ties = queries is None or queries.draws  # whether a query can draw from the tie stream
    if ties:
        np.copyto(tie, base)
        _rehash(tie, TAG_TIE, scratch)
    d = np.zeros((3, count), dtype=np.min_scalar_type(n))  # no count exceeds the n uses
    errors = 0
    if return_arrays:
        qs = np.empty((n, count), dtype=np.uint8)
        ys = np.empty((n, count), dtype=np.uint8)
        history = np.empty((n, 3, count), dtype=np.int32)

    def tie_draw(rows: np.ndarray) -> np.ndarray:  # step k's tie draw for ``rows``
        return _rehash(tie[rows], k)

    for k in range(n):
        if k >= retire_from:
            # compacting costs about a step over the live trials: it waits until
            # a quarter of them, and a share 1/(uses left), have retired, as
            # counted on the first _PROBE of them (trials are independent)
            sample = contenders(d[:, :_PROBE], n - k)[0]
            if np.count_nonzero(sample == 1) * min(n - k, 4) >= len(sample):
                near, lim = contenders(d, n - k)
                gone = np.flatnonzero(near == 1)
                true_votes = d.ravel().take(true[gone].astype(np.intp) * count + gone)
                errors += int(np.count_nonzero(true_votes > lim.take(gone)))
                live = np.flatnonzero(near > 1)
                count = len(live)
                d, true = d.take(live, axis=1), true.take(live)
                for x in (base, noise, tie) if ties else (base, noise):
                    x[:count] = x.take(live)
                base, scratch, noise, h, tie = workspace[:, :count]
                if count == 0:
                    break
        q = _pick_fewest(d, tie_draw) if queries is None else queries.queries(d, tie_draw)
        np.bitwise_xor(noise, _word(k), out=h)
        flip = _mix_into(h, scratch) < flip_below
        y = (q != true) ^ flip
        # y = 1 puts one vote on the query, y = 0 one on each other message
        for i in range(3):
            d[i] += ((q == i) == y).view(np.uint8)
        if return_arrays:
            qs[k] = q + 1
            ys[k] = y
            history[k] = d
    decoded = _pick_fewest(d, lambda rows: _rehash(_rehash(base[rows], TAG_DECODE), n))
    out = {"trials": trial_hi - trial_lo, "errors": errors + int(np.count_nonzero(decoded != true))}
    if return_arrays:
        out.update(
            true=true + 1, decoded=decoded + 1, votes=d.astype(np.int32),
            zero_outputs=n - ys.sum(axis=0, dtype=np.int64),
            queries=qs, ys=ys, history=history,
        )
    return out


def run_trials(
    n: int,
    ch: ChannelParams,
    rule: StrategyRule,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimulationStats:
    """Estimate the error probability from ``trials`` simulated episodes.

    Every rule kind runs on the batch engine, in bounded batches of one loop
    over trials [0, trials) in this process, which refill one workspace.
    ``workers`` must be positive but changes nothing: there is no
    parallelism, and every draw is a pure function of (seed, trial), so
    neither it nor the batch size can affect the result.  The true message is
    drawn uniformly per trial from the seed stream.  ``seed`` must lie in
    [0, 2**64), as for ``trajectory_records``.

    From step k > n/2 on, a trial whose leader leads every other message by
    more than the n - k uses left retires: one use closes a gap by at most
    one, so it decodes to that leader with no tie draw, and it counts as an
    error if its true message has more votes than the fewest.  Draws are
    pure functions of (seed, trial), so the count is the one that running
    every step gives.  The live trials are compacted once, among the first
    ``_PROBE`` of them, at least a quarter and at least 1/(uses left) have
    retired.  A table rule runs every step, so that a state missing from its
    table raises wherever a trial reaches it.
    """
    ch.require_float("run_trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError("workers must be positive")
    errors = sum(out["errors"] for out in _batch_outputs(n, ch, rule, seed, trials))
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
    for out in _batch_outputs(n, ch, rule, seed, trials, return_arrays=True):
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
) -> dict:
    """Scalar reference episode; draws match the batch engine bit for bit.

    ``seed`` must lie in [0, 2**64), as for the batch engine.

    No command calls it; it stays as the oracle for the batch engine, and
    ``perfbench/tracing.py`` patches it (and ``step``) as a module attribute."""
    ch.require_float("simulate_trajectory")
    _check_seed(seed)
    true = counter_hash(seed, trial, TAG_TRUE, 0) % 3 + 1
    s: MetricState = (0, 0, 0)
    d = [0, 0, 0]
    queries, ys, history = [], [], []
    for t in range(n):
        j, y, s = step(rule, s, ch, true, seed, trial, t)
        if y == 1:
            d[j - 1] += 1
        else:
            for i in range(3):
                if i != j - 1:
                    d[i] += 1
        queries.append(j)
        ys.append(y)
        history.append(d.copy())
    lead = leaders(normalize(tuple(d)))
    decoded = sorted(lead)[counter_hash(seed, trial, TAG_DECODE, n) % len(lead)]
    return {"n": n, "true": true, "queries": queries, "ys": ys, "vote_history": history,
            "votes": d, "zero_outputs": n - sum(ys), "decoded": decoded, "rule_kind": rule.kind}


def trajectory_records(
    n: int, ch: ChannelParams, rule: StrategyRule, seed: int, count: int
) -> Iterator[dict]:
    """Records of trials [0, count) from the batch engine, made one batch at a
    time as they are consumed; record t equals
    ``simulate_trajectory(n, ch, rule, seed, t)``.

    A record is the dict of its JSON line: ``n``, the ``true`` message, each
    step's ``queries`` and outputs ``ys``, the ``vote_history`` of cumulative
    votes after each step, the final absolute ``votes``, ``zero_outputs`` m
    (the number of y = 0), the ``decoded`` message and the ``rule_kind``."""
    ch.require_float("trajectory_records")
    for out in _batch_outputs(n, ch, rule, seed, count, return_arrays=True):
        # a generator expression: its column lists go when it is spent, before
        # the next batch is made
        yield from (
            {"n": n, "true": true, "queries": qs, "ys": ys, "vote_history": hist, "votes": votes,
             "zero_outputs": zeros, "decoded": decoded, "rule_kind": rule.kind}
            for true, qs, ys, hist, votes, zeros, decoded in zip(
                out["true"].tolist(),
                out["queries"].T.tolist(),
                out["ys"].T.tolist(),
                out["history"].transpose(2, 0, 1).tolist(),
                out["votes"].T.tolist(),
                out["zero_outputs"].tolist(),
                out["decoded"].tolist(),
            )
        )
