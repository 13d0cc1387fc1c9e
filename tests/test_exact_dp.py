import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fblab.belief import QuerySet, apply_outcome, leaders, normalize, posteriors
from fblab.channel import make_channel
from fblab.exact_dp import (
    ResourceCapError,
    bellman_optimum,
    error_curve,
    forward_distribution,
    forward_error_prob,
    optimal_query_report,
    reachable_layers,
    sorted_lattice,
)
from fblab.strategy import MAX_POSTERIOR, StrategyRule
from witnesses import HALF_CONSTANT_WITNESSES

P_GRID = ["1/20", "1/10", "1/5", "3/10", "2/5"]
CH10 = make_channel("1/10")
CH10F = make_channel("0.1", "float")


# independent ground truth: enumerate every depth-n adaptive decision tree
# (a query at each output-history node) and evaluate it by path enumeration
def _all_trees(h):
    if h == 0:
        return [None]
    subs = _all_trees(h - 1)
    return [(q, t0, t1) for q in (1, 2, 3) for t0 in subs for t1 in subs]


def _tree_error(tree, ch):
    p, q = ch.p, ch.q

    def walk(tr, votes, true, prob):
        if tr is None:
            lead = leaders(normalize(votes))
            err = Fraction(1) - (Fraction(1, len(lead)) if true in lead else 0)
            return prob * err
        j, t0, t1 = tr
        total = Fraction(0)
        for y in (0, 1):
            x = 0 if true == j else 1
            py = q if y == x else p
            votes2 = list(votes)
            if y == 1:
                votes2[j - 1] += 1
            else:
                for i in range(3):
                    if i != j - 1:
                        votes2[i] += 1
            total += walk(t0 if y == 0 else t1, tuple(votes2), true, prob * py)
        return total

    return sum(walk(tree, (0, 0, 0), t, Fraction(1)) for t in (1, 2, 3)) / 3


# reference oracle: the Fraction value recursion V_t(s) = max_j E[V_{t-1}(s')]
# over posteriors that the integer error-mass kernel replaced
def _reference_bellman(n, ch):
    p, q = ch.p, ch.q

    def succ(s, j, y):
        return tuple(sorted(apply_outcome(s, QuerySet.singleton(j), y)))

    values = {(0, s): max(posteriors(s, ch)) for s in sorted_lattice(n)}
    argmax = {}
    for t in range(1, n + 1):
        for s in sorted_lattice(n - t):
            pi = posteriors(s, ch)
            vals = []
            for j in (1, 2, 3):
                p1 = pi[j - 1] * p + (1 - pi[j - 1]) * q
                v1, v0 = values[(t - 1, succ(s, j, 1))], values[(t - 1, succ(s, j, 0))]
                vals.append(p1 * v1 + (1 - p1) * v0)
            best = max(vals)
            values[(t, s)] = best
            argmax[(t, s)] = frozenset(j for j, v in zip((1, 2, 3), vals) if v == best)
    return values, argmax


def _rel_err(value, exact):
    return abs(value - float(exact)) / float(exact)


@st.composite
def _rational_p(draw):
    c = draw(st.integers(2, 50))
    return Fraction(draw(st.integers(1, c // 2)), c)


class TestForward:
    def test_no_transmission(self):
        assert forward_error_prob(0, CH10, MAX_POSTERIOR) == Fraction(2, 3)

    @pytest.mark.parametrize("pl", P_GRID)
    def test_single_use_closed_form(self, pl):
        ch = make_channel(pl)
        assert forward_error_prob(1, ch, MAX_POSTERIOR) == (1 + 2 * ch.p) / 3

    def test_single_use_value(self):
        assert forward_error_prob(1, CH10, MAX_POSTERIOR) == Fraction(2, 5)

    def test_two_uses_closed_form(self):
        # hand enumeration gives p(5 - 2p)/3 for the fewest-votes rule
        for pl in P_GRID:
            ch = make_channel(pl)
            assert forward_error_prob(2, ch, MAX_POSTERIOR) == ch.p * (5 - 2 * ch.p) / 3

    def test_hub_state_share_after_three_uses(self):
        dist = forward_distribution(3, CH10, MAX_POSTERIOR)
        term = dist[(0, 0, 0)] * Fraction(2, 3)
        assert dist[(0, 0, 0)] == CH10.p * CH10.q**2
        assert term == Fraction(27, 500)  # 0.054

    def test_distribution_is_normalized_with_valid_support(self):
        for n in (0, 1, 4, 9):
            dist = forward_distribution(n, CH10, MAX_POSTERIOR)
            assert sum(dist.values()) == 1
            for s in dist:
                assert min(s) == 0 and max(s) <= n

    def test_fixed_rule_averages_over_true_messages(self):
        # querying one fixed message once: same error as the fewest-votes rule
        rule = StrategyRule(kind="fixed", fixed_query=1)
        assert forward_error_prob(1, CH10, rule) == Fraction(2, 5)

    def test_log_float_matches_rational(self):
        chf = make_channel("0.1", "float")
        exact = forward_error_prob(25, CH10, MAX_POSTERIOR)
        log_fl = forward_error_prob(25, chf, MAX_POSTERIOR, mode="log-float")
        exact_f = float(exact)
        assert abs(math.log(log_fl) - math.log(exact_f)) <= 1e-10

    def test_rational_mode_rejects_float_channel(self):
        with pytest.raises(ValueError):
            forward_error_prob(3, make_channel("0.1", "float"), MAX_POSTERIOR, mode="rational")


class TestBellman:
    def test_horizon_one(self):
        pe, table = bellman_optimum(1, CH10)
        assert pe == Fraction(2, 5)
        assert table.argmax[(1, (0, 0, 0))] == frozenset({1, 2, 3})

    def test_degenerate_channel(self):
        for n in (0, 3, 6):
            pe, table = bellman_optimum(n, make_channel("1/2"))
            assert pe == Fraction(2, 3)
            if n:
                assert table.argmax[(n, (0, 0, 0))] == frozenset({1, 2, 3})

    @pytest.mark.parametrize("pl,n", [("1/10", 1), ("1/10", 2), ("1/10", 3), ("3/10", 2)])
    def test_matches_decision_tree_enumeration(self, pl, n):
        ch = make_channel(pl)
        best = min(_tree_error(t, ch) for t in _all_trees(n))
        pe, _ = bellman_optimum(n, ch)
        assert pe == best

    def test_frozen_small_horizon_values(self):
        assert bellman_optimum(2, CH10)[0] == Fraction(4, 25)
        assert bellman_optimum(3, CH10)[0] == Fraction(17, 125)

    def test_never_beaten_by_fixed_rules(self):
        rules = [
            MAX_POSTERIOR,
            StrategyRule(tie_policy="lowest-index"),
            StrategyRule(kind="fixed", fixed_query=1),
            StrategyRule(kind="round-robin"),
        ]
        for pl in ("1/10", "2/5"):
            ch = make_channel(pl)
            for n in (1, 3, 5):
                pe_star, _ = bellman_optimum(n, ch)
                for rule in rules:
                    assert pe_star <= forward_error_prob(n, ch, rule)

    def test_monotone_in_horizon(self):
        _, table = bellman_optimum(12, CH10)
        values = [table.optimal_error(t) for t in range(13)]
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_values_bounded(self):
        _, table = bellman_optimum(6, CH10)
        for v in table.values.values():
            assert Fraction(1, 3) <= v <= 1

    def test_float_mode_agrees(self):
        pe_r, _ = bellman_optimum(12, CH10)
        pe_f, table = bellman_optimum(12, make_channel("0.1", "float"), mode="log-float")
        assert abs(float(pe_r) - pe_f) <= 1e-12
        assert table.tie_tolerance == 1e-12

    @pytest.mark.parametrize("pl,n", [("1/10", 12), ("1/5", 30), ("2/5", 20), ("1/2", 6)])
    def test_matches_fraction_recursion(self, pl, n):
        ch = make_channel(pl)
        pe, table = bellman_optimum(n, ch)
        values, argmax = _reference_bellman(n, ch)
        for t in range(n + 1):
            assert table.optimal_error(t) == 1 - values[(t, (0, 0, 0))]
        assert pe == table.optimal_error(n)
        assert dict(table.values) == values
        assert dict(table.argmax) == argmax

    @pytest.mark.parametrize("n", [48, 120])
    def test_float_relative_error(self, n):
        _, exact = bellman_optimum(n, CH10)
        _, fl = bellman_optimum(n, CH10F, mode="log-float")
        for t in range(n + 1):
            assert _rel_err(fl.optimal_error(t), exact.optimal_error(t)) <= 1e-12
        if n == 48:
            assert dict(fl.argmax) == dict(exact.argmax)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            bellman_optimum(30, CH10, state_cap=10)

    def test_rejects_non_bayes_law(self):
        with pytest.raises(ValueError):
            bellman_optimum(2, CH10, probability_mode="paper")


class TestReachability:
    def test_state_count_is_quadratic(self):
        layers = reachable_layers(20)
        for k, layer in enumerate(layers):
            assert len(layer) <= (k + 1) * (k + 2) // 2
        assert layers[0] == {(0, 0, 0)}
        assert layers[1] == {(0, 0, 1), (0, 1, 1)}
        assert (0, 0, 0) in layers[2]


class TestQueryRuleReport:
    def test_one_step_deficits_vanish(self):
        rep = optimal_query_report(5, CH10)
        first = [ph for ph in rep["per_horizon"] if ph["t"] == 1][0]
        assert first["max_deficit"] == 0

    def test_fewest_votes_query_is_always_a_member(self):
        for pl in ("1/10", "3/10"):
            rep = optimal_query_report(6, make_channel(pl))
            assert rep["overall"]["all_member"]
            assert rep["overall"]["max_deficit"] == 0

    def test_degenerate_channel_all_tied(self):
        rep = optimal_query_report(4, make_channel("1/2"))
        assert rep["overall"]["all_member"]
        assert rep["overall"]["max_deficit"] == 0
        assert rep["overall"]["strict_states"] == 0


class TestLowerBoundLandscape:
    def test_half_constant_violation_pattern_is_known(self):
        # the half-constant converse bound provably fails at these exact
        # points (the optimal error, certified by backward induction and by
        # decision-tree enumeration at small n, sits below it); the
        # (1/3)-constant variant holds everywhere tested
        from fblab.bounds import error_lower_bound_exact

        expected = {
            pl: {n for n in want if n <= 20} for pl, want in HALF_CONSTANT_WITNESSES.items()
        }
        for pl, want in expected.items():
            ch = make_channel(pl)
            _, table = bellman_optimum(20, ch)
            got = set()
            third_ok = True
            for n in range(21):
                pe_star = table.optimal_error(n)
                half = error_lower_bound_exact(n, ch)
                if half > pe_star:
                    got.add(n)
                if half * Fraction(2, 3) > pe_star:
                    third_ok = False
            assert got == want, f"violation pattern changed at p={pl}: {sorted(got)}"
            assert third_ok, f"(1/3)-constant bound broke at p={pl}"


class TestQueryRuleDetail:
    def test_per_state_rows(self):
        rep = optimal_query_report(3, CH10, detail=True)
        rows = rep["per_state"]
        assert rows and all(r["verdict"] == "member" for r in rows)
        assert {r["t"] for r in rows} == {1, 2, 3}
        for r in rows:
            assert set(r["fewest_votes"]) & set(r["argmax"])


class TestErrorCurve:
    def test_first_row(self):
        rows = error_curve(CH10, MAX_POSTERIOR, 3)
        n, pe, expo = rows[0]
        assert (n, pe) == (1, Fraction(2, 5))
        assert abs(expo - math.log(2.5)) <= 1e-12

    def test_degenerate_flat(self):
        rows = error_curve(make_channel("1/2"), MAX_POSTERIOR, 6)
        for n, pe, expo in rows:
            assert pe == Fraction(2, 3)
            assert abs(expo - math.log(1.5) / n) <= 1e-12

    def test_optimal_curve_matches_bellman(self):
        rows = error_curve(CH10, "optimal", 6)
        for n, pe, _ in rows:
            assert pe == bellman_optimum(n, CH10)[0]

    @pytest.mark.parametrize(
        "ch, mode", [(CH10, "rational"), (CH10F, "log-float")], ids=["rational", "log-float"]
    )
    @pytest.mark.parametrize(
        "rule",
        [
            MAX_POSTERIOR,
            StrategyRule(tie_policy="lowest-index"),
            StrategyRule(kind="round-robin"),
            StrategyRule(kind="fixed", fixed_query=2),
        ],
        ids=["uniform-ties", "lowest-index-ties", "round-robin", "fixed-2"],
    )
    def test_matches_single_shot_forward(self, ch, mode, rule):
        rows = error_curve(ch, rule, 8, mode)
        assert [pe for _, pe, _ in rows] == [
            forward_error_prob(n, ch, rule, mode) for n in range(1, 9)
        ]


@settings(max_examples=60, deadline=None)
@given(p=_rational_p(), n=st.integers(0, 15))
def test_float_kernel_tracks_rational_kernel(p, n):
    _, exact = bellman_optimum(n, make_channel(p))
    _, fl = bellman_optimum(n, make_channel(p, "float"), mode="log-float")
    curve = [exact.optimal_error(t) for t in range(n + 1)]
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    for t, pe in enumerate(curve):
        assert _rel_err(fl.optimal_error(t), pe) <= 1e-12
