import itertools
import math
import re
from fractions import Fraction

import pytest

from fblab import montecarlo
from fblab.belief import leaders
from fblab.channel import make_channel
from fblab.exact_dp import forward_error_prob
from fblab.montecarlo import (
    _batch_outputs,
    run_trajectory_audit,
    run_trials,
    simulate_trajectory,
    trajectory_records,
)
from fblab.strategy import MAX_POSTERIOR, StrategyRule

CHF = make_channel("0.1", "float")
CH10 = make_channel("1/10")


def table_rule(n, weights):
    """Table rule over every normalised state with entries up to n; the
    weights of state s are ``weights(leaders(s))``."""
    states = (s for s in itertools.product(range(n + 1), repeat=3) if min(s) == 0)
    return StrategyRule(kind="table", table={s: weights(leaders(s)) for s in states})


def two_sevenths(lead):
    return {lead[0]: Fraction(5, 7), lead[0] % 3 + 1: Fraction(2, 7)}


def lowest_leader(lead):
    return {lead[0]: Fraction(1)}


# every rule kind and every way a table rule draws its query: one choice,
# equal weights over two and over three queries, unequal weights, and
# unequal weights with a zero that ends the cut list or is skipped
ORACLE_RULES = {
    "max-posterior": MAX_POSTERIOR,
    "lowest-index": table_rule(10, lowest_leader),
    "fixed:2": StrategyRule(kind="fixed", fixed_query=2),
    "round-robin": StrategyRule(kind="round-robin"),
    "table-single": table_rule(10, lambda lead: {lead[-1]: Fraction(1)}),
    "table-equal-2": table_rule(10, lambda lead: {1: Fraction(1, 2), 3: Fraction(1, 2)}),
    "table-equal-3": table_rule(10, lambda lead: {j: Fraction(1, 3) for j in (1, 2, 3)}),
    "table-5/7-2/7": table_rule(10, two_sevenths),
    "table-1/2-1/3-1/6": table_rule(
        10, lambda lead: {1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 6)}
    ),
    "table-1/2-1/2-0": table_rule(
        10, lambda lead: {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0)}
    ),
    "table-0-1/3-2/3": table_rule(
        10, lambda lead: {1: Fraction(0), 2: Fraction(1, 3), 3: Fraction(2, 3)}
    ),
}


class TestDeterminism:
    def test_same_seed_same_stats(self):
        a = run_trials(10, CHF, MAX_POSTERIOR, trials=20_000, seed=99)
        b = run_trials(10, CHF, MAX_POSTERIOR, trials=20_000, seed=99)
        assert (a.trials, a.errors) == (b.trials, b.errors)

    def test_worker_count_is_irrelevant(self):
        runs = [
            run_trials(12, CHF, MAX_POSTERIOR, trials=30_000, seed=5, workers=w)
            for w in (1, 4, 16)
        ]
        assert len({(r.trials, r.errors) for r in runs}) == 1

    def test_batch_size_is_irrelevant(self, monkeypatch):
        want = run_trials(8, CHF, MAX_POSTERIOR, trials=10_000, seed=1).errors
        for size in (137, 10_000):
            monkeypatch.setattr(montecarlo, "_BATCH", size)
            outs = _batch_outputs(8, CHF, MAX_POSTERIOR, 1, 10_000)
            assert sum(out["errors"] for out in outs) == want

    @pytest.mark.parametrize("name", sorted(ORACLE_RULES))
    def test_batch_size_is_irrelevant_for_every_rule(self, name, monkeypatch):
        # the engine hashes tie draws for the tied trials of a batch only; n = 0
        # makes every decode a three-way tie, and batch 1 makes the tied subset
        # of a batch every trial or none
        trials, rule = 300, ORACLE_RULES[name]
        for n in (0, 1, 8):
            want = run_trials(n, CHF, rule, trials, seed=1).errors
            for size in (1, 137, trials):
                with monkeypatch.context() as m:
                    m.setattr(montecarlo, "_BATCH", size)
                    outs = _batch_outputs(n, CHF, rule, 1, trials)
                    assert sum(out["errors"] for out in outs) == want, (n, size)

    def test_scalar_and_batch_engines_agree_per_trial(self):
        # a record holds the true and decoded messages, the final votes, the
        # zero outputs, and the per-step queries, outputs and vote history
        for p in ("0.1", "0.4", "0.5"):
            ch = make_channel(p, "float")
            for name, rule in ORACLE_RULES.items():
                batch = trajectory_records(10, ch, rule, 999, 100)
                for trial, rec in enumerate(batch):
                    assert rec == simulate_trajectory(10, ch, rule, 999, trial), (p, name, trial)

    def test_engines_agree_at_horizon_zero(self):
        # no channel use: every decode is a three-way tie drawn from the seed
        for name, rule in ORACLE_RULES.items():
            batch = list(trajectory_records(0, CHF, rule, 5, 200))
            assert batch == [simulate_trajectory(0, CHF, rule, 5, t) for t in range(200)], name
            assert {rec["decoded"] for rec in batch} == {1, 2, 3}

    def test_records_are_made_one_batch_at_a_time(self, monkeypatch):
        # a dump of three batches runs the engine once for its first record
        calls = []
        engine = montecarlo._simulate_batch

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(montecarlo, "_RECORD_STEPS", 100)
        monkeypatch.setattr(montecarlo, "_simulate_batch", counted)
        records = iter(trajectory_records(10, CHF, MAX_POSTERIOR, 5, 30))  # 10 trials per batch
        first = next(records)
        assert len(calls) == 1
        rest = list(records)
        assert len(rest) == 29 and len(calls) == 3
        # every batch refills one workspace: a record that aliased it would
        # hold a later batch's draws
        want = [simulate_trajectory(10, CHF, MAX_POSTERIOR, 5, t) for t in range(30)]
        assert [first, *rest] == want

    @pytest.mark.parametrize("name", ["max-posterior", "fixed:2", "round-robin"])
    def test_retiring_counts_equal_the_full_path(self, name, monkeypatch):
        # run_trials retires a trial once its leader leads by more than the
        # uses left; the record path runs every step of every trial
        monkeypatch.setattr(montecarlo, "_BATCH", 40)  # ten batches, some of which retire whole
        monkeypatch.setattr(montecarlo, "_PROBE", 16)  # a batch compacts on a sample's share
        rule = ORACLE_RULES[name]
        for p, n, seed in itertools.product(("0.05", "0.3", "0.5"), (0, 1, 2, 7, 30), (0, 1, 2)):
            ch = make_channel(p, "float")
            outs = montecarlo._batch_outputs(n, ch, rule, seed, 400, return_arrays=True)
            full = sum(out["errors"] for out in outs)
            assert run_trials(n, ch, rule, 400, seed).errors == full, (p, n, seed)

    def test_table_rules_never_retire(self):
        # entries stop at 6, so a state with 7 votes on a message has no entry;
        # a fewest-votes rule reaches one only as (0, 6, 7) or (0, 7, 7) up to
        # order, after 7 or more uses, with a lead above the 5 or fewer uses
        # left, and still the engine must look the state up and raise
        rule = table_rule(6, lowest_leader)
        for seed in (0, 1, 2):
            with pytest.raises(ValueError, match="no entry for reachable state") as err:
                run_trials(12, make_channel("0.05", "float"), rule, 4000, seed)
            state = sorted(int(v) for v in re.findall(r"\d+", str(err.value)))
            assert state in ([0, 6, 7], [0, 7, 7]), str(err.value)

    def test_rejects_exact_channel(self):
        with pytest.raises(ValueError):
            run_trials(5, CH10, MAX_POSTERIOR, trials=10, seed=0)


class TestAgreementWithExactProgram:
    def test_moderate_horizon(self):
        exact = float(forward_error_prob(10, CH10, MAX_POSTERIOR))
        trials = 200_000
        stats = run_trials(10, CHF, MAX_POSTERIOR, trials=trials, seed=20220301)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(stats.estimate - exact) <= 4 * sigma

    def test_degenerate_channel(self):
        ch = make_channel("0.5", "float")
        trials = 100_000
        stats = run_trials(10, ch, MAX_POSTERIOR, trials=trials, seed=8)
        sigma = math.sqrt((2 / 3) * (1 / 3) / trials)
        assert abs(stats.estimate - 2 / 3) <= 4 * sigma

    def test_confidence_interval_brackets_estimate(self):
        stats = run_trials(10, CHF, MAX_POSTERIOR, trials=50_000, seed=4)
        lo, hi = stats.confidence_interval()
        assert 0.0 <= lo <= stats.estimate <= hi <= 1.0


class TestTrajectoryInvariants:
    def test_vote_identity_on_every_record(self):
        for trial in range(200):
            rec = simulate_trajectory(17, CHF, MAX_POSTERIOR, seed=61, trial=trial)
            assert sum(rec["votes"]) == rec["n"] + rec["zero_outputs"]

    def test_batch_audit_runs_clean(self):
        audit = run_trajectory_audit(40, CHF, trials=20_000, seed=123)
        assert audit["trials"] == 20_000
        assert audit["violations"] == 0


def test_table_rule_runs_on_batch_engine():
    table = {}
    for a in range(0, 7):
        for b in range(0, 7):
            for c in range(0, 7):
                s = (a, b, c)
                if min(s) == 0:
                    table[s] = {1: Fraction(1)}
    rule = StrategyRule(kind="table", table=table)
    stats = run_trials(4, CHF, rule, trials=200, seed=3)
    assert stats.trials == 200
    assert stats.errors == run_trials(4, CHF, StrategyRule(kind="fixed", fixed_query=1), 200, 3).errors


class TestTableFaults:
    """A missing state raises only when a trial visits it; any other table
    fault is rejected when the rule is built, visited or not.

    Always querying message 1 adds a vote to message 1 or one to each of
    messages 2 and 3, so only states (a, 0, 0) and (0, b, b) occur.
    """

    @staticmethod
    def query_one(n):
        table = {(a, 0, 0): {1: Fraction(1)} for a in range(n + 1)}
        table.update({(0, b, b): {1: Fraction(1)} for b in range(1, n + 1)})
        return table

    def test_unvisited_fault_is_rejected_when_built(self):
        table = self.query_one(6)
        table[(0, 1, 2)] = {1: Fraction(1, 2)}  # does not sum to 1, never visited
        with pytest.raises(ValueError, match=re.escape("state (0, 1, 2) must be nonnegative")):
            StrategyRule(kind="table", table=table)

    @pytest.mark.parametrize(
        "fault, message", [("missing", "no entry for reachable state (0, 0, 0)")]
    )
    def test_visited_fault_raises_like_scalar_path(self, fault, message):
        table = self.query_one(6)
        del table[(0, 0, 0)]
        rule = StrategyRule(kind="table", table=table)
        with pytest.raises(ValueError, match=re.escape(message)) as batch:
            run_trials(6, CHF, rule, 500, 8)
        with pytest.raises(ValueError) as scalar:
            simulate_trajectory(6, CHF, rule, 8, 0)
        assert str(batch.value) == str(scalar.value)


def test_negative_horizon_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        run_trials(-1, CHF, MAX_POSTERIOR, trials=10, seed=0)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_is_rejected(seed):
    # the hash reads a seed mod 2**64: -1 would repeat the run of 2**64 - 1, 2**64 that of 0
    message = re.escape(f"seed must lie in [0, 2**64), got {seed}")
    with pytest.raises(ValueError, match=message):
        run_trials(5, CHF, MAX_POSTERIOR, trials=10, seed=seed)
    with pytest.raises(ValueError, match=message):
        next(trajectory_records(5, CHF, MAX_POSTERIOR, seed, 1))
    with pytest.raises(ValueError, match=message):
        simulate_trajectory(5, CHF, MAX_POSTERIOR, seed, 0)


def test_largest_seed_runs():
    seed = (1 << 64) - 1
    assert run_trials(5, CHF, MAX_POSTERIOR, trials=10, seed=seed).seed == seed
    record = next(trajectory_records(5, CHF, MAX_POSTERIOR, seed, 1))
    assert record == simulate_trajectory(5, CHF, MAX_POSTERIOR, seed, 0)


# error counts of run_trials(12, p = 0.3, 20,000 trials), recorded before the
# batch engine became row-wise and took over table rules; a moved count means
# a draw is taken in a different order; lowest-index ties were a tie policy
# of the max-posterior rule then and are a table rule now
PINNED_TABLES = {"lowest-index": lowest_leader, "table-5/7-2/7": two_sevenths}
PINNED_ERRORS = {
    (7, "max-posterior"): 3450,
    (7, "lowest-index"): 3430,
    (7, "fixed:2"): 7724,
    (7, "round-robin"): 4233,
    (7, "table-5/7-2/7"): 3554,
    (20220301, "max-posterior"): 3383,
    (20220301, "lowest-index"): 3369,
    (20220301, "fixed:2"): 7778,
    (20220301, "round-robin"): 4126,
    (20220301, "table-5/7-2/7"): 3573,
}


@pytest.mark.parametrize("seed, name", sorted(PINNED_ERRORS))
def test_error_counts_are_pinned(seed, name):
    rule = table_rule(12, PINNED_TABLES[name]) if name in PINNED_TABLES else ORACLE_RULES[name]
    stats = run_trials(12, make_channel("0.3", "float"), rule, trials=20_000, seed=seed)
    assert stats.errors == PINNED_ERRORS[seed, name]


def scalar_tallies(n, records):
    """``run_trajectory_audit``'s tallies, recounted from scalar records."""
    expected = dict.fromkeys(
        ("errors", "chain_violations", "spread_violations", "vote_identity_violations",
         "error_path_violations"), 0)
    for rec in records:
        for votes in rec["vote_history"]:
            lo, mid, hi = sorted(votes)
            expected["chain_violations"] += hi > mid + 1
            expected["spread_violations"] += 3 * mid < sum(votes) - 1
        m, error = rec["zero_outputs"], rec["decoded"] != rec["true"]
        expected["vote_identity_violations"] += sum(rec["votes"]) != n + m
        expected["errors"] += error
        e = rec["votes"][rec["true"] - 1]
        expected["error_path_violations"] += error and 3 * e + 1 < n + m
    return expected


@pytest.mark.parametrize("name", ["fixed:2", "round-robin", "table-5/7-2/7", "max-posterior"])
def test_audit_tallies_match_scalar_recount(name):
    # every rule here but max-posterior can query off the fewest-votes set,
    # and so breaks the sorted-vote chain
    breaks_chain = name != "max-posterior"
    ch = make_channel("0.2", "float")
    n, trials, seed = 15, 1000, 11
    rule = table_rule(n, two_sevenths) if name.startswith("table") else ORACLE_RULES[name]
    audit = run_trajectory_audit(n, ch, trials, seed, rule=rule)
    expected = scalar_tallies(n, (simulate_trajectory(n, ch, rule, seed, t) for t in range(trials)))
    assert {k: audit[k] for k in expected} == expected
    assert (expected["chain_violations"] > 0) == breaks_chain
    assert (expected["spread_violations"] > 0) == breaks_chain


@pytest.mark.parametrize("n", [130, 255, 256, 300])
@pytest.mark.parametrize("name", ["max-posterior", "fixed:2", "round-robin"])
@pytest.mark.parametrize("p", ["0.05", "0.5"])
def test_narrow_vote_rows_agree_with_the_oracle(p, name, n):
    # the engine holds votes in the narrowest unsigned type that holds n: uint8 up
    # to n = 255, uint16 from 256 on.  From n = 128 on, round-robin's total of the
    # three counts passes 255; at p = 0.05 fixed:2 puts about 0.95n votes on its
    # query, past 255 at n = 300; at p = 0.5 trials err with about n/2 votes on
    # the true message, so the audit's 3e + 1 passes 255
    ch, rule, seed = make_channel(p, "float"), ORACLE_RULES[name], 3
    outs = montecarlo._batch_outputs(n, ch, rule, seed, 300, return_arrays=True)
    full = sum(out["errors"] for out in outs)
    assert run_trials(n, ch, rule, 300, seed).errors == full
    records = [simulate_trajectory(n, ch, rule, seed, t) for t in range(12)]
    assert list(trajectory_records(n, ch, rule, seed, 12)) == records
    audit = run_trajectory_audit(n, ch, 12, seed, rule=rule)
    expected = scalar_tallies(n, records)
    assert {k: audit[k] for k in expected} == expected
