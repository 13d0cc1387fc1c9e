import random
from fractions import Fraction

import pytest

from fblab.belief import (
    apply_outcome,
    leaders,
    normalize,
    one_step_gap,
    one_step_values,
    outcome_distribution,
    posteriors,
)
from fblab.channel import make_channel

P_GRID = ["1/20", "1/10", "1/5", "3/10", "2/5"]
CH10 = make_channel("1/10")
CH_HALF = make_channel("1/2")


def random_states(count, max_votes, seed=0):
    rng = random.Random(seed)
    return [
        normalize((rng.randint(0, max_votes), rng.randint(0, max_votes), rng.randint(0, max_votes)))
        for _ in range(count)
    ]


class TestPosteriors:
    def test_uniform_state(self):
        assert posteriors((0, 0, 0), CH10) == (Fraction(1, 3),) * 3

    def test_single_gap(self):
        assert posteriors((0, 1, 1), CH10) == (Fraction(9, 11), Fraction(1, 11), Fraction(1, 11))

    def test_degenerate_channel_is_flat(self):
        assert posteriors((0, 1, 2), CH_HALF) == (Fraction(1, 3),) * 3

    def test_shift_invariance(self):
        for s in random_states(50, 15, seed=3):
            for c in (1, 2, 7):
                shifted = tuple(v + c for v in s)
                assert posteriors(shifted, CH10) == posteriors(s, CH10)

    def test_normalization_exact_and_float(self):
        chf = make_channel("1/20", "float")
        che = make_channel("1/20")
        for s in random_states(50, 200, seed=4):
            assert sum(posteriors(s, che)) == 1
            assert abs(sum(posteriors(s, chf)) - 1.0) <= 1e-12


class TestQueryUpdates:
    def test_vote_rule(self):
        assert apply_outcome((0, 0, 0), 1, 0) == (0, 1, 1)
        assert apply_outcome((0, 0, 0), 1, 1) == (1, 0, 0)
        assert apply_outcome((0, 1, 1), 1, 1) == (0, 0, 0)  # (1,1,1) renormalized

    @pytest.mark.parametrize("j", [0, 4])
    def test_bad_message_index(self, j):
        # at j = 0 an unchecked outcome_distribution would read pi[-1]
        with pytest.raises(ValueError, match="message index must be 1..3"):
            apply_outcome((0, 1, 1), j, 0)
        for mode in ("bayes", "paper"):
            with pytest.raises(ValueError, match="message index must be 1..3"):
                outcome_distribution((0, 1, 1), j, CH10, mode)

    def test_vote_conservation(self):
        # one channel use adds 1 vote (y=1) or 2 votes (y=0) before renormalizing
        for s in random_states(30, 8, seed=6):
            for j in (1, 2, 3):
                for y in (0, 1):
                    votes = list(s)
                    if y == 1:
                        votes[j - 1] += 1
                    else:
                        for i in range(3):
                            if i != j - 1:
                                votes[i] += 1
                    assert sum(votes) == sum(s) + (1 if y == 1 else 2)
                    assert apply_outcome(s, j, y) == normalize(tuple(votes))


class TestOutcomeDistribution:
    def test_bayes_leader_query(self):
        dist = outcome_distribution((0, 1, 1), 1, CH10, "bayes")
        assert dist[0] == Fraction(83, 110)

    def test_paper_off_leader_uses_leader_posterior(self):
        # querying message 2: the outcome that votes against it carries p + (q-p)pi_1
        dist = outcome_distribution((0, 1, 1), 2, CH10, "paper")
        assert dist[1] == Fraction(83, 110)

    def test_paper_equals_bayes_on_leader(self):
        for s in [(0, 1, 1), (0, 2, 3), (1, 0, 4)]:
            lead = leaders(s)[0]
            assert outcome_distribution(s, lead, CH10, "paper") == outcome_distribution(s, lead, CH10, "bayes")

    def test_distributions_sum_to_one(self):
        for s in random_states(25, 10, seed=7):
            for j in (1, 2, 3):
                dist = outcome_distribution(s, j, CH10, "bayes")
                assert dist[0] + dist[1] == 1

    def test_paper_mode_rejects_tied_leader(self):
        with pytest.raises(ValueError, match="tie"):
            outcome_distribution((0, 0, 1), 1, CH10, "paper")


class TestOneStepValues:
    def test_bayes_martingale_values(self):
        assert one_step_values((0, 1, 1), CH10, "bayes") == (Fraction(9, 11),) * 3

    def test_printed_law_values(self):
        e1, e2, e3 = one_step_values((0, 1, 1), CH10, "paper")
        assert e1 == Fraction(9, 11)
        assert e2 == e3 == Fraction(14985, 19019)
        assert abs(float(e1) - 0.818182) <= 1e-6
        assert abs(float(e2) - 0.787896) <= 1e-6

    def test_degenerate_values_frozen(self):
        for s in [(0, 1, 2), (0, 3, 3)]:
            vals = one_step_values(s, CH_HALF, "paper")
            assert vals == (max(posteriors(s, CH_HALF)),) * 3

    def test_tied_leader_rejected(self):
        with pytest.raises(ValueError):
            one_step_values((0, 0, 2), CH10, "paper")

    def test_bayes_expectation_is_posterior_everywhere(self):
        for pl in P_GRID:
            ch = make_channel(pl)
            for s in random_states(40, 12, seed=8):
                if len(leaders(s)) != 1:
                    continue
                i0 = leaders(s)[0]
                vals = one_step_values(s, ch, "bayes")
                assert vals == (posteriors(s, ch)[i0 - 1],) * 3


class TestOneStepGap:
    def test_matches_direct_difference_exactly(self):
        for pl in P_GRID:
            ch = make_channel(pl)
            for s in random_states(60, 10, seed=9):
                if len(leaders(s)) != 1:
                    continue
                vals = one_step_values(s, ch, "paper")
                assert one_step_gap(s, ch) == vals[0] - vals[1]

    def test_frozen_example(self):
        gap = one_step_gap((0, 1, 1), CH10)
        assert gap == Fraction(576, 19019)
        assert abs(float(gap) - 0.030286) <= 1e-6

    def test_degenerate_gap_vanishes(self):
        assert one_step_gap((0, 2, 5), CH_HALF) == 0

    def test_leader_query_never_loses(self):
        # includes far-ahead leaders, where the sign is carried by the third message
        for pl in P_GRID + ["1/2"]:
            ch = make_channel(pl)
            for s in random_states(80, 25, seed=10):
                if len(leaders(s)) != 1:
                    continue
                assert one_step_gap(s, ch) >= 0


class TestMartingale:
    def test_fixed_message_posterior_is_preserved(self):
        for pl in ("1/10", "2/5"):
            ch = make_channel(pl)
            for s in random_states(40, 15, seed=11):
                pis = posteriors(s, ch)
                for j in (1, 2, 3):
                    dist = outcome_distribution(s, j, ch, "bayes")
                    for i in range(3):
                        total = sum(
                            dist[y] * posteriors(apply_outcome(s, j, y), ch)[i] for y in (0, 1)
                        )
                        assert total == pis[i]

    def test_printed_law_is_not_a_martingale_off_leader(self):
        s = (0, 1, 1)
        dist = outcome_distribution(s, 2, CH10, "paper")
        total = sum(dist[y] * posteriors(apply_outcome(s, 2, y), CH10)[0] for y in (0, 1))
        assert total != posteriors(s, CH10)[0]
