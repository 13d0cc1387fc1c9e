import json
import re
from fractions import Fraction

import pytest

from fblab.belief import normalize
from fblab.channel import make_channel
from fblab.montecarlo import simulate_trajectory, step
from fblab.strategy import MAX_POSTERIOR, StrategyRule, load_table, select_query

CH10 = make_channel("1/10")
CHF = make_channel("0.1", "float")


def test_three_way_tie_splits_evenly():
    assert select_query(MAX_POSTERIOR, (0, 0, 0)) == {
        1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)
    }


def test_two_way_tie_splits_evenly():
    assert select_query(MAX_POSTERIOR, (1, 0, 0)) == {2: Fraction(1, 2), 3: Fraction(1, 2)}


def test_unique_leader_is_deterministic():
    assert select_query(MAX_POSTERIOR, (0, 1, 2)) == {1: Fraction(1)}


def test_depends_only_on_fewest_votes_set():
    # magnitudes are irrelevant, only the argmin pattern
    assert select_query(MAX_POSTERIOR, (0, 5, 9)) == {1: Fraction(1)}
    assert select_query(MAX_POSTERIOR, (3, 0, 3)) == {2: Fraction(1)}
    assert select_query(MAX_POSTERIOR, (0, 0, 7)) == {1: Fraction(1, 2), 2: Fraction(1, 2)}


def test_fixed_and_round_robin_rules():
    fixed = StrategyRule(kind="fixed", fixed_query=2)
    assert select_query(fixed, (0, 4, 4)) == {2: Fraction(1)}
    rr = StrategyRule(kind="round-robin")
    for s in [(0, 0, 0), (0, 1, 1), (0, 1, 2)]:
        dist = select_query(rr, s)
        assert dist == {(sum(s) % 3) + 1: Fraction(1)}


def test_table_rule_and_missing_state(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps([
        {"state": [0, 0, 0], "query": 1},
        {"state": [0, 1, 1], "distribution": {"1": [1, 2], "2": [1, 2]}},
    ]))
    rule = load_table(path)
    assert select_query(rule, (0, 0, 0)) == {1: Fraction(1)}
    assert select_query(rule, (0, 1, 1)) == {1: Fraction(1, 2), 2: Fraction(1, 2)}
    with pytest.raises(ValueError, match=r"\(1, 0, 0\)"):
        select_query(rule, (1, 0, 0))


@pytest.mark.parametrize(
    "state, weights, message",
    [
        ((True, 0, 0), {1: Fraction(1)}, "not three integers"),
        ((1.0, 0, 0), {1: Fraction(1)}, "not three integers"),
        ((0, 0), {1: Fraction(1)}, "not three integers"),
        ((1, 1, 1), {1: Fraction(1)}, "not a normalized metric state"),
        ((0, 0, 0), {4: Fraction(1)}, "message index must be 1..3"),
        ((0, 0, 0), {1: Fraction(2), 2: Fraction(-1)}, "nonnegative and sum to 1"),
        ((0, 0, 0), {1: Fraction(1, 2)}, "nonnegative and sum to 1"),
        ((0, 0, 0), {1: 0.5, 2: 0.5}, "must be ints or Fractions"),
    ],
)
def test_table_rule_is_checked_when_built(state, weights, message):
    table = {(0, 1, 1): {1: Fraction(1)}, state: weights}
    with pytest.raises(ValueError, match=re.escape(message)):
        StrategyRule(kind="table", table=table)


def test_equivariance_flag():
    assert MAX_POSTERIOR.equivariant
    assert not StrategyRule(kind="table", table={(0, 0, 0): {1: Fraction(1)}}).equivariant
    assert not StrategyRule(kind="fixed", fixed_query=1).equivariant


def test_step_requires_float_channel():
    with pytest.raises(ValueError):
        step(MAX_POSTERIOR, (0, 0, 0), CH10, 1, 1, 0, 0)


def test_step_replay_is_identical():
    first = [step(MAX_POSTERIOR, (0, 0, 0), CHF, 1, 42, 7, t) for t in range(50)]
    second = [step(MAX_POSTERIOR, (0, 0, 0), CHF, 1, 42, 7, t) for t in range(50)]
    assert first == second


def test_step_applies_vote_rule():
    # all outcomes from the uniform state land in the six one-vote states
    seen = set()
    for t in range(200):
        q, y, nxt = step(MAX_POSTERIOR, (0, 0, 0), CHF, 1, 3, t, 0)
        assert nxt == normalize(nxt)
        seen.add(nxt)
    assert seen == {(0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0)}


def test_degenerate_channel_outputs_uniform():
    ch = make_channel("0.5", "float")
    n = 10**5
    ones = sum(step(MAX_POSTERIOR, (0, 0, 0), ch, 1, 9, t, 0)[1] for t in range(n))
    assert abs(ones / n - 0.5) <= 4.0 * (0.25 / n) ** 0.5


def test_sorted_vote_chain_along_trajectories():
    # greatest vote count stays within one of the middle at every step
    for trial in range(200):
        rec = simulate_trajectory(50, CHF, MAX_POSTERIOR, seed=314, trial=trial)
        for k, votes in enumerate(rec["vote_history"]):
            lo, mid, hi = sorted(votes)
            assert hi <= mid + 1, (trial, k, votes)
