import collections
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblab import channel, exact_dp
from fblab.belief import apply_outcome, leaders, normalize, posteriors
from fblab.bounds import simplex_event_prob
from fblab.chain import derive_transitions, reach_prob
from fblab.channel import ResourceCapError, make_channel
from fblab.exact_dp import (
    _lattice_size,
    _successor_tables,
    backward_layers,
    bellman_optimum,
    error_curve,
    forward_error_prob,
    move_batch,
    optimal_query_report,
)
from fblab.montecarlo import run_trials
from fblab.strategy import MAX_POSTERIOR, StrategyRule, select_query
from oracles import (
    forward_distribution,
    full_backward_layers,
    full_error_curve,
    full_layers,
    sorted_lattice,
)
from witnesses import HALF_CONSTANT_WITNESSES

P_GRID = ["1/20", "1/10", "1/5", "3/10", "2/5"]


def logaddexp(a: float, b: float) -> float:
    """ln(e**a + e**b), -inf the log of 0: the scalar reference that numpy's
    logaddexp, and so every log-float fold in fblab, is held to bit for bit."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))

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
        return tuple(sorted(apply_outcome(s, j, y)))

    values = {(0, s): max(posteriors(s, ch)) for s in sorted_lattice(n)}
    argmax, queries = {}, {}
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
            queries[(t, s)] = tuple(vals)
    return values, argmax, queries


def _layer_masses(table, t, layer):
    """Layer t's (mass, per-query masses, tie mask) at every state of its
    lattice, in lattice order.  The layer holds the states at its lattice
    indices ``at``, in lattice order.  An exact layer's two-contender band,
    the states (0, a, b) with a <= t < b, gives queries 1 and 2 the mass
    move[a] + X and query 3 wait[a] + X, where X = step**t * A**b * B**(n - b)
    is half of Z(0, b, b) - 1 in the table's units.  Every other state gives
    each query the closed form step**t * E_0(s), in the table's units
    Z(s) - 1.  Z(s) is ``norms[i]``, and the leader's weight 1 is a third of
    Z(0, 0, 0)."""
    at, vals, best, ties, move, wait = layer
    assert at.tolist() == sorted(set(at.tolist()))
    column = {i: k for k, i in enumerate(at.tolist())}
    one = table.norms[0] // 3
    for i, (_, a, b) in enumerate(sorted_lattice(table.horizon - t)):
        if i in column:
            k = column[i]
            yield best[k], vals[:, k].tolist(), ties[:, k].tolist()
        elif a <= t:
            x = table.step**t * ((table.norms[_lattice_size(b) - 1] - one) // 2)
            masses = [move[a] + x, move[a] + x, wait[a] + x]
            low = min(masses)
            yield low, masses, [m == low for m in masses]
        else:
            mass = table.step**t * (table.norms[i] - one)
            yield mass, [mass] * 3, [True] * 3


def _stream(n, ch):
    """The backward pass read off ``backward_layers``, keyed like ``_reference_bellman``.

    Layer 0 is E_0 = Z(s) - 1 in the table's units: Z(s) is ``norms[i]`` and
    the leader's weight 1 is a third of Z(0, 0, 0).
    """
    table, layers = backward_layers(n, ch)
    one = table.norms[0] // 3
    values = {
        (0, s): 1 - table.probability(0, i, table.norms[i] - one)
        for i, s in enumerate(sorted_lattice(n))
    }
    argmax, queries = {}, {}
    for t, layer in enumerate(layers, 1):
        masses = _layer_masses(table, t, layer)
        for i, (s, (best, vals, ties)) in enumerate(zip(sorted_lattice(n - t), masses)):
            values[(t, s)] = 1 - table.probability(t, i, best)
            argmax[(t, s)] = frozenset(j + 1 for j in range(3) if ties[j])
            queries[(t, s)] = tuple(1 - table.probability(t, i, v) for v in vals)
    return values, argmax, queries


# reference oracle: the Fraction forward propagation that the integer kernel
# replaced; layer k of the result is the distribution after k uses
def _reference_forward(n, ch, rule, true):
    layers = [{(0, 0, 0): Fraction(1)}]
    for _ in range(n):
        nxt = {}
        for s, pr in layers[-1].items():
            for j, w in select_query(rule, s).items():
                x = 0 if true == j else 1
                for y in (0, 1):
                    t = apply_outcome(s, j, y)
                    nxt[t] = nxt.get(t, 0) + pr * w * (ch.q if y == x else ch.p)
        layers.append(nxt)
    return layers


def _reference_error(dists):
    """Terminal error from the distributions given true message 1, 2, ..."""

    def err(s, true):
        lead = leaders(s)
        return 1 - Fraction(1, len(lead)) if true in lead else Fraction(1)

    parts = [sum(pr * err(s, t) for s, pr in d.items()) for t, d in enumerate(dists, 1)]
    return parts[0] if len(parts) == 1 else sum(parts) / 3


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
        log_fl = forward_error_prob(25, chf, MAX_POSTERIOR)
        exact_f = float(exact)
        assert abs(math.log(log_fl) - math.log(exact_f)) <= 1e-10


@pytest.mark.parametrize("p", ["0.001", "0.02", "0.1", "0.3", "0.45", "0.49", "0.5"])
@pytest.mark.parametrize(
    "rule, n_max",
    [(MAX_POSTERIOR, 60), (StrategyRule(kind="round-robin"), 30),
     (StrategyRule(kind="fixed", fixed_query=2), 30)],
    ids=["max-posterior", "round-robin", "fixed-2"],
)
def test_log_float_forward_relative_error(p, rule, n_max):
    # log-float errors are absolute in the log, so they grow with n and |ln P_e|;
    # the worst measured ratio to n (1 + |ln P_e|) 2**-53 is about 1.2
    chf = make_channel(p, "float")
    exact = error_curve(make_channel(chf.p), rule, n_max)  # the double's own p
    for (n, pf, _), (_, px, _) in zip(error_curve(chf, rule, n_max), exact):
        bound = 4 * n * (1 + abs(math.log(px))) * 2**-53
        assert abs(Fraction(pf) - px) <= Fraction(bound) * px, n


# weight 5/7 on the lowest leader and 2/7 on the next message: L = 7
TWO_SEVENTHS = StrategyRule(
    kind="table",
    table={
        s: {leaders(s)[0]: Fraction(5, 7), leaders(s)[0] % 3 + 1: Fraction(2, 7)}
        for s in itertools.product(range(13), repeat=3)
        if min(s) == 0
    },
)
# lowest-index ties: the first of the fewest-votes messages, for n <= 20
LOWEST_INDEX = StrategyRule(
    kind="table",
    table={
        s: {leaders(s)[0]: Fraction(1)}
        for s in itertools.product(range(21), repeat=3)
        if min(s) == 0
    },
)
FORWARD_RULES = [
    MAX_POSTERIOR,
    LOWEST_INDEX,
    StrategyRule(kind="round-robin"),
    StrategyRule(kind="fixed", fixed_query=2),
    TWO_SEVENTHS,
]
FORWARD_RULE_IDS = ["uniform-ties", "lowest-index-ties", "round-robin", "fixed-2", "table-2/7"]


@pytest.mark.parametrize("pl", ["1/20", "1/6", "1/3", "1/2"])
@pytest.mark.parametrize("rule", FORWARD_RULES, ids=FORWARD_RULE_IDS)
def test_integer_forward_matches_fraction_propagation(pl, rule):
    ch = make_channel(pl)
    ref = {t: _reference_forward(12, ch, rule, t) for t in (1, 2, 3)}
    for t, layers in ref.items():
        for n, dist in enumerate(layers):
            assert forward_distribution(n, ch, rule, true=t) == dist
    trues = (1,) if rule.equivariant else (1, 2, 3)
    want = [_reference_error([ref[t][n] for t in trues]) for n in range(13)]
    assert [pe for _, pe, _ in error_curve(ch, rule, 12)] == want[1:]
    assert [forward_error_prob(n, ch, rule) for n in (0, 7, 12)] == [want[0], want[7], want[12]]


# reference oracle: the scalar log-float loop that the indexed frontier replaced,
# one logaddexp per move; layer k of the result is the log-distribution after k
# uses, its keys in order of first arrival
def _reference_log_forward(n, ch, rule, true):
    def factor(x):
        return math.log(float(x)) if x else -math.inf

    layers = [{(0, 0, 0): 0.0}]
    for _ in range(n):
        nxt = {}
        for s, pr in layers[-1].items():
            for j, w in select_query(rule, s).items():
                x = 0 if true == j else 1
                for y in (0, 1):
                    t = apply_outcome(s, j, y)
                    f2 = factor(ch.q if y == x else ch.p)
                    nxt[t] = logaddexp(nxt.get(t, -math.inf), pr + factor(w) + f2)
        layers.append(nxt)
    return layers


# log of the error by its sixths, as the scalar loop built it
_LOG_ERROR = {3: math.log(1.0 - 1.0 / 2), 4: math.log(1.0 - 1.0 / 3), 6: math.log(1.0)}


def _reference_log_error(dists):
    """The scalar fold: per true message, error states in layer order from -inf."""
    parts = []
    for true, dist in enumerate(dists, 1):
        acc = -math.inf
        for s, logp in dist.items():
            lead = leaders(s)
            sixths = 6 - 6 // len(lead) if true in lead else 6
            if sixths:
                acc = logaddexp(acc, logp + _LOG_ERROR[sixths])
        parts.append(math.exp(acc))
    return parts[0] if len(parts) == 1 else sum(parts) / 3


@pytest.mark.parametrize("p", ["1e-5", "0.05", "0.3", "0.49", "0.5"])
@pytest.mark.parametrize("rule", FORWARD_RULES, ids=FORWARD_RULE_IDS)
def test_log_float_forward_matches_scalar_loop_bit_for_bit(p, rule):
    ch = make_channel(p, "float")
    ref = {t: _reference_log_forward(12, ch, rule, t) for t in (1, 2, 3)}
    for t, layers in ref.items():
        for n in (1, 6, 12):
            assert list(forward_distribution(n, ch, rule, true=t).items()) == list(layers[n].items())
    trues = (1,) if rule.equivariant else (1, 2, 3)
    want = [_reference_log_error([ref[t][n] for t in trues]) for n in range(1, 13)]
    assert [pe for _, pe, _ in error_curve(ch, rule, 12)] == want


@pytest.mark.parametrize("p", ["1e-5", "0.05", "0.3", "0.49"])
def test_float_reach_prob_matches_scalar_loop_bit_for_bit(p):
    ch = make_channel(p, "float")
    for n in (0, 1, 2, 3, 7, 16, 30):
        table = derive_transitions(ch, max(2, n))
        dist = {(0, 0, 0): 0.0}
        for _ in range(n):
            nxt = {}
            for s, pr in dist.items():
                for tr in table.entries[s]:
                    nxt[tr.target] = logaddexp(nxt.get(tr.target, -math.inf), pr + math.log(tr.prob))
            dist = nxt
        assert reach_prob(n, ch) == math.exp(dist.get((0, 0, 0), -math.inf))


# every normalised state with counts up to 10; a table that lists its
# distribution keys out of order and puts weight 0 on a query
STATES_10 = [s for s in itertools.product(range(11), repeat=3) if min(s) == 0]
UNORDERED = StrategyRule(
    kind="table",
    table={
        s: [
            {3: Fraction(0), 1: Fraction(1, 3), 2: Fraction(2, 3)},
            {2: Fraction(1, 2), 1: Fraction(1, 2)},
            {leaders(s)[-1]: Fraction(1)},
        ][sum(s) % 3]
        for s in STATES_10
    },
)
# equal weights listed in two orders: the states compile to two rows, whose moves
# fold in opposite orders
HALF = Fraction(1, 2)
SWAPPED = StrategyRule(
    kind="table",
    table={s: {3: HALF, 1: HALF} if sum(s) % 2 else {1: HALF, 3: HALF} for s in STATES_10},
)
MOVE_ORDER_RULES = FORWARD_RULES + [
    StrategyRule(kind="fixed", fixed_query=1),
    StrategyRule(kind="fixed", fixed_query=3),
    UNORDERED,
    SWAPPED,
]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_move_order_matches_scalar_law(mode):
    # the batch move table holds each state's moves as the per-state law lists them;
    # that order is the order in which log-float masses fold
    ch = make_channel("1/10", mode)
    for rule in MOVE_ORDER_RULES:
        moves, weights = move_batch(rule)
        scale = math.lcm(*(w.denominator for w in weights))

        def factor(w):
            if ch.exact:
                return w.numerator * (scale // w.denominator)
            return math.log(float(w)) if w else -math.inf

        rows = zip(*(a.tolist() for a in moves(np.array(STATES_10))))
        for s, (targets, wids, codes, lives) in zip(STATES_10, rows):
            got = [(tuple(t), factor(weights[w]), c)
                   for t, w, c, live in zip(targets, wids, codes, lives) if live]
            want = [
                (apply_outcome(s, j, y), factor(w), 1 << (j - 1) if y == 0 else 7 ^ (1 << (j - 1)))
                for j, w in select_query(rule, s).items()
                for y in (0, 1)
            ]
            assert got == want, (rule.kind, s)


def test_chain_move_order_is_scalar_law_sorted_by_target():
    law, weights = move_batch(MAX_POSTERIOR, by_target=True)
    rows = zip(*(a.tolist() for a in law(np.array(STATES_10))))
    for s, (targets, wids, codes, lives) in zip(STATES_10, rows):
        got = [(tuple(t), weights[w], c & 1) for t, w, c, live in zip(targets, wids, codes, lives)
               if live]
        # bit 0 of the code: the answer is the bit that message 1's transmitter sends
        want = [(apply_outcome(s, j, y), w, int(y == (0 if j == 1 else 1)))
                for j, w in select_query(MAX_POSTERIOR, s).items() for y in (0, 1)]
        assert got == sorted(want, key=lambda row: row[0]), s


def test_compile_rule_rows_are_select_query_at_shifted_triples():
    # row_of reads a triple up to a common shift, in either layout: the columns of
    # (k, 3) intp votes, as the forward pass holds them, and the rows of (3, k)
    # votes, as the Monte Carlo engine holds them in the narrowest unsigned type
    # that holds n; there the shifts take counts up to the type's top, so that
    # round-robin's total of three counts passes it
    rng = np.random.default_rng(29)
    shifted = {
        dtype: np.array(STATES_10) + rng.integers(0, top, len(STATES_10))[:, None]
        for dtype, top in ((np.intp, 50), (np.int32, 50), (np.uint8, 245), (np.uint16, 65525))
    }
    layouts = [shifted[np.intp].T] + [v.T.astype(t) for t, v in shifted.items() if t != np.intp]
    assert all(v.sum(axis=0, dtype=np.int64).max() > np.iinfo(v.dtype).max for v in layouts[2:])
    for rule in MOVE_ORDER_RULES + [StrategyRule(kind="fixed", fixed_query=3)]:
        states, rows, row_of = exact_dp.compile_rule(rule)
        assert [list(select_query(rule, s).items()) for s in states] == [
            list(w.items()) for w in rows]
        want = [list(select_query(rule, s).items()) for s in STATES_10]
        for votes in layouts:
            got = row_of(*votes)
            assert [list(rows[r].items()) for r in got.tolist()] == want, (rule.kind, votes.dtype)


def test_compile_rule_gives_a_table_one_row_per_distinct_row():
    # the uniform-tie max-posterior table over every normalised state with counts
    # up to 30 has seven distinct rows, one per leader set, and runs as the rule does
    states = [s for s in itertools.product(range(31), repeat=3) if min(s) == 0]
    table = {s: {j: Fraction(1, len(leaders(s))) for j in leaders(s)} for s in states}
    rule = StrategyRule(kind="table", table=table)
    assert len(table) == 2791
    first, rows, _ = exact_dp.compile_rule(rule)
    assert len(rows) == 7
    assert rows == [select_query(rule, s) for s in first]
    # with a horizon it compiles the states with counts up to it, the only ones reached
    assert exact_dp.compile_rule(rule, 0)[0] == [(0, 0, 0)]
    assert forward_error_prob(12, CH10, rule) == forward_error_prob(12, CH10, MAX_POSTERIOR)
    ch = make_channel("0.2", "float")
    counts = [run_trials(12, ch, r, 2000, 7).errors for r in (rule, MAX_POSTERIOR)]
    assert counts[0] == counts[1]


def test_compile_rule_names_the_first_missing_table_state():
    table = {s: {1: Fraction(1)} for s in STATES_10 if s not in ((0, 3, 4), (4, 3, 0))}
    row_of = exact_dp.compile_rule(StrategyRule(kind="table", table=table))[2]
    v = np.array([[1, 1, 1], [9, 8, 5], [2, 5, 6], [5, 8, 9]]).T  # (0, 3, 4) sorts first
    with pytest.raises(ValueError, match=re.escape("reachable state (4, 3, 0)")):
        row_of(*v)
    # a count of 2**21 has no key: packed in 21 bits, (0, 2**21, 0) would read (1, 0, 0)
    assert (1, 0, 0) in table
    wide = [np.array([0]), np.array([1 << 21]), np.array([0])]
    with pytest.raises(ValueError, match=re.escape("reachable state (0, 2097152, 0)")):
        row_of(*wide)
    table[(0, 1 << 21, 0)] = {2: Fraction(1)}
    row_of = exact_dp.compile_rule(StrategyRule(kind="table", table=table))[2]
    with pytest.raises(ResourceCapError, match=re.escape("vote count of 2**21")):
        row_of(*(v + 7 for v in wide))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_missing_table_states_name_the_first_to_arrive(mode):
    # (4, 3, 0) and (0, 3, 4) are first reached after four uses, in that order, though
    # (0, 3, 4) sorts first; the pass names the first of a layer's missing states to arrive
    layers = [list(forward_distribution(n, CH10, MAX_POSTERIOR)) for n in range(5)]
    assert not {(4, 3, 0), (0, 3, 4)} & {s for layer in layers[:4] for s in layer}
    assert layers[4].index((4, 3, 0)) < layers[4].index((0, 3, 4))
    table = {s: {j: Fraction(1, len(leaders(s))) for j in leaders(s)}
             for s in STATES_10 if s not in ((4, 3, 0), (0, 3, 4))}
    rule = StrategyRule(kind="table", table=table)
    ch = make_channel("1/10", mode)
    message = re.escape("table strategy has no entry for reachable state (4, 3, 0)")
    with pytest.raises(ValueError, match=message):
        forward_error_prob(8, ch, rule)
    with pytest.raises(ValueError, match=message):
        error_curve(ch, rule, 8)


def test_vote_counts_past_the_key_width_hit_the_cap(monkeypatch):
    # a state's key holds each count in _KEY_BITS bits; a wider count stops the pass
    rule = StrategyRule(kind="fixed", fixed_query=1)
    want = forward_error_prob(7, CH10, rule)
    monkeypatch.setattr(exact_dp, "_KEY_BITS", 3)
    assert forward_error_prob(7, CH10, rule) == want  # counts up to 7
    with pytest.raises(ResourceCapError, match=re.escape("vote count of 2**3")):
        forward_error_prob(8, CH10, rule)


# the rule kinds whose exact pass drops decided states
RETIRING_RULES = [MAX_POSTERIOR, StrategyRule(kind="round-robin")] + [
    StrategyRule(kind="fixed", fixed_query=j) for j in (1, 2, 3)
]
RETIRING_RULE_IDS = ["max-posterior", "round-robin", "fixed-1", "fixed-2", "fixed-3"]


@settings(max_examples=30, deadline=None)
@given(p=_rational_p(), n=st.integers(1, 25), m=st.integers(0, 25),
       rule=st.sampled_from(RETIRING_RULES))
def test_retiring_pass_equals_the_full_pass(p, n, m, rule):
    # an exact pass drops each state once it is decided and adds its error mass to
    # every later horizon's; its Fractions are those of the pass that drops none
    ch = make_channel(p)
    full = full_error_curve(ch, rule, n)
    assert [pe for _, pe, _ in error_curve(ch, rule, n)] == full[1:]
    assert forward_error_prob(n, ch, rule) == full[n]
    assert forward_error_prob(min(m, n), ch, rule) == full[min(m, n)]


@pytest.mark.parametrize("rule", RETIRING_RULES, ids=RETIRING_RULE_IDS)
def test_retiring_pass_carries_the_undecided_states_and_the_cap_counts_them(monkeypatch, rule):
    # after k of n uses a sorted state (0, a, b) is decided when a > n - k, and a
    # decided state's successors are decided; so the pass carries exactly the full
    # layer's undecided states, in its order and with its masses, and the forward
    # cap counts those alone
    ch, n = make_channel("2/5"), 30
    trues = (1,) if rule.equivariant else (1, 2, 3)
    carried = 0
    full = full_layers(ch, rule, trues, n)
    for k, ((fv, fm, fden), (votes, mass, den, _)) in enumerate(
        zip(full, exact_dp._forward_layers(ch, rule, trues, n))
    ):
        undecided = np.array([sorted(s)[1] <= n - k for s in fv.tolist()])
        assert votes.tolist() == fv[undecided].tolist() and mass.tolist() == fm[undecided].tolist()
        assert den == fden
        carried += len(votes) if k else 0
    assert carried < sum(len(fv) for fv, _, _ in full[1:])
    want = full_error_curve(ch, rule, n)[n]
    monkeypatch.setattr(channel, "STATE_CAP", carried)
    assert forward_error_prob(n, ch, rule) == want
    monkeypatch.setattr(channel, "STATE_CAP", carried - 1)
    with pytest.raises(ResourceCapError, match=f"touches {carried} states"):
        forward_error_prob(n, ch, rule)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_table_pass_retires_no_state(mode):
    # (0, 5, 5) is first reached after five uses, where it is decided for horizon 8
    # (its runner-up trails by 5, with 3 uses left), so a pass that dropped decided
    # states would never ask the table for it; a table's pass carries every state,
    # so its absence raises wherever a pass reaches it
    layers = [forward_distribution(k, CH10, MAX_POSTERIOR) for k in range(6)]
    assert [(0, 5, 5) in layer for layer in layers] == [False] * 5 + [True]
    table = {s: {j: Fraction(1, len(leaders(s))) for j in leaders(s)}
             for s in STATES_10 if s != (0, 5, 5)}
    rule = StrategyRule(kind="table", table=table)
    ch = make_channel("1/10", mode)
    message = re.escape("table strategy has no entry for reachable state (0, 5, 5)")
    with pytest.raises(ValueError, match=message):
        forward_error_prob(8, ch, rule)
    with pytest.raises(ValueError, match=message):
        error_curve(ch, rule, 8)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_numpy_logaddexp_matches_scalar_helper_bit_for_bit():
    # the float pins of the forward programs rest on this property of numpy's build
    rng = np.random.default_rng(20220301)
    a = rng.uniform(-700.0, 0.0, 20_000)
    b = np.concatenate([rng.uniform(-700.0, 0.0, 10_000), a[10_000:] + rng.normal(0.0, 2.0, 10_000)])
    inf = np.array([-math.inf, -math.inf, -3.5, 0.0, -math.inf])
    a = np.concatenate([a, a[:1_000], inf])
    b = np.concatenate([b, a[:1_000], [-math.inf, -2.0, -math.inf, -math.inf, 0.0]])
    want = [logaddexp(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(_bits(np.logaddexp(a, b)), _bits(want))
    assert np.array_equal(_bits(np.logaddexp(b, a)), _bits(want))


@pytest.mark.parametrize("p", ["1e-300", "1e-5", "0.05", "0.3", "0.49", "0.5"])
def test_float_simplex_fold_matches_scalar_loop_bit_for_bit(p):
    ch = make_channel(p, "float")
    lp, lq = math.log(ch.p), math.log(ch.q)
    for n in (3, 6, 30, 99, 600):
        b, acc = n // 3, -math.inf
        for t in range(b + 1):
            term = 3.0 * math.lgamma(b + 1) - 3.0 * (
                math.lgamma(t + 1) + math.lgamma(b - t + 1)
            ) + (b + t) * lp + (2 * b - t) * lq
            acc = logaddexp(acc, term)
        assert _bits(simplex_event_prob(n, ch)) == _bits(math.exp(acc)), n


def test_numpy_logaddexp_at_folds_repeated_indices_in_order():
    rng = np.random.default_rng(7)
    index = rng.integers(0, 40, 5_000)
    values = rng.uniform(-60.0, 0.0, (5_000, 3))
    values[rng.random(5_000) < 0.05] = -math.inf
    want = np.full((40, 3), -math.inf)
    for i, row in zip(index.tolist(), values.tolist()):
        want[i] = [logaddexp(acc, v) for acc, v in zip(want[i].tolist(), row)]
    got = np.full((40, 3), -math.inf)
    np.logaddexp.at(got, index, values)
    assert np.array_equal(_bits(got), _bits(want))
    flat = np.full(40, -math.inf)
    np.logaddexp.at(flat, index, values[:, 0])
    assert np.array_equal(_bits(flat), _bits(want[:, 0]))
    acc = -math.inf
    for v in values[:, 1].tolist():
        acc = logaddexp(acc, v)
    assert _bits(np.logaddexp.accumulate(values[:, 1])[-1]) == _bits(acc)


@pytest.mark.parametrize("pl", ["1/20", "1/6", "1/3", "1/2"])
def test_reach_prob_matches_fraction_propagation(pl):
    ch = make_channel(pl)
    table = derive_transitions(ch, 20)
    dist = {(0, 0, 0): Fraction(1)}
    for n in range(21):
        assert reach_prob(n, ch) == dist.get((0, 0, 0), 0)
        nxt = {}
        for s, pr in dist.items():
            for tr in table.entries[s]:
                nxt[tr.target] = nxt.get(tr.target, 0) + pr * tr.prob
        dist = nxt


class TestBellman:
    def test_horizon_one(self):
        pe, _ = bellman_optimum(1, CH10)
        assert pe == Fraction(2, 5)
        assert _stream(1, CH10)[1][(1, (0, 0, 0))] == frozenset({1, 2, 3})

    def test_degenerate_channel(self):
        for n in (0, 3, 6):
            pe, _ = bellman_optimum(n, make_channel("1/2"))
            assert pe == Fraction(2, 3)
            if n:
                assert _stream(n, make_channel("1/2"))[1][(n, (0, 0, 0))] == frozenset({1, 2, 3})

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
            LOWEST_INDEX,
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
        values, _, queries = _stream(6, CH10)
        for v in itertools.chain(values.values(), *queries.values()):
            assert Fraction(1, 3) <= v <= 1

    def test_float_mode_agrees(self):
        pe_r, table_r = bellman_optimum(12, CH10)
        pe_f, table = bellman_optimum(12, make_channel("0.1", "float"))
        assert abs(float(pe_r) - pe_f) <= 1e-12
        assert table.tie_tolerance == 1e-12 and table_r.tie_tolerance == 0.0

    @pytest.mark.parametrize("pl,n", [("1/10", 12), ("1/5", 30), ("2/5", 20), ("1/2", 6)])
    def test_matches_fraction_recursion(self, pl, n):
        ch = make_channel(pl)
        pe, table = bellman_optimum(n, ch)
        reference = _reference_bellman(n, ch)
        values = reference[0]
        for t in range(n + 1):
            assert table.optimal_error(t) == 1 - values[(t, (0, 0, 0))]
        assert pe == table.optimal_error(n)
        assert _stream(n, ch) == reference

    @pytest.mark.parametrize("n", [48, 120])
    def test_float_relative_error(self, n):
        _, exact = bellman_optimum(n, CH10)
        _, fl = bellman_optimum(n, CH10F)
        for t in range(n + 1):
            assert _rel_err(fl.optimal_error(t), exact.optimal_error(t)) <= 1e-12
        if n == 48:
            assert _stream(n, CH10F)[1] == _stream(n, CH10)[1]

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            bellman_optimum(30, CH10, state_cap=10)

    def test_pass_holds_one_layer(self):
        # at n = 60 every layer together peaks at 4.4 MB of integers, one
        # layer and its query masses at 2.0 MB, and one layer's triangle with
        # its query masses and the band it carries at 1.1 MB
        ch = make_channel("49/100")

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        reduced = peak(lambda: bellman_optimum(60, ch))
        assert reduced < 3_200_000
        full = peak(lambda: collections.deque(full_backward_layers(60, ch)[1], maxlen=0))
        assert reduced < 1_600_000 <= full


@settings(max_examples=40, deadline=None)
@given(p=_rational_p(), n=st.integers(0, 25))
def test_reduced_bellman_equals_the_full_pass(p, n):
    # an exact pass evaluates only the undecided states; read with the decided ones
    # in closed form, every layer's masses and tie masks, P_e*(t) and the tie counts
    # are those of the pass that evaluates every state
    ch = make_channel(p)
    table, layers = backward_layers(n, ch)
    full_table, full = full_backward_layers(n, ch)
    for t, (layer, (fat, fvals, fbest, fties, _, _)) in enumerate(zip(layers, full), 1):
        assert fat.tolist() == list(range(fbest.size))
        for i, (best, vals, ties) in enumerate(_layer_masses(table, t, layer)):
            assert best == fbest[i] and vals == fvals[:, i].tolist()
            assert ties == fties[:, i].tolist()
    assert table.origin == full_table.origin and len(table.origin) == n + 1
    assert table.tie_counts() == full_table.tie_counts()


def _gap_walk(n, p):
    """(move_t, wait_t) for t = 1..n, lists over g = 0..min(t, n - 1), by the
    scalar recursion that backward_layers' docstring derives: for p = A/c and
    B = c - A (the weights w_shift and w_stay), from G_0(g) = A**g * B**(n - g),
    move_t(0) = 2B * G_{t-1}(1), move_t(g) = A * G_{t-1}(g - 1) + B * G_{t-1}(g + 1),
    wait_t(g) = c * G_{t-1}(g), and G_t = min(move_t, wait_t) there, c**t * G_0
    beyond."""
    w_shift, c = p.numerator, p.denominator
    w_stay = c - w_shift
    gap = [w_shift**k * w_stay ** (n - k) for k in range(n + 1)]
    walk = []
    for t in range(1, n + 1):
        move = [2 * w_stay * gap[1] if g == 0 else w_shift * gap[g - 1] + w_stay * gap[g + 1]
                for g in range(min(t, n - 1) + 1)]
        wait = [c * x for x in gap[:len(move)]]
        gap = [min(m, w) for m, w in zip(move, wait)] + [c * x for x in gap[len(move):]]
        walk.append((move, wait))
    return walk


@settings(max_examples=30, deadline=None)
@given(p=_rational_p(), n=st.integers(0, 25))
@example(p=Fraction(1, 3), n=14)
@example(p=Fraction(1, 10), n=18)
@example(p=Fraction(2, 5), n=22)
@example(p=Fraction(49, 100), n=16)
@example(p=Fraction(1, 2), n=10)
def test_two_contender_states_follow_the_gap_walk(p, n):
    # with t uses left every state (0, a, b) with a <= t < b of the full pass has
    # J_t = G_t(a) + X, X = c**t * A**b * B**(n - b), and per-query masses
    # [move + X, move + X, wait + X]: query 1, a fewest-votes query, is optimal
    # (move <= wait), and query 3 ties at p = 1/2 and where t - a is even.  The
    # reduced pass's move and wait are the same walk.
    ch = make_channel(p)
    w_shift, c = p.numerator, p.denominator
    w_stay = c - w_shift
    layers = zip(backward_layers(n, ch)[1], full_backward_layers(n, ch)[1], _gap_walk(n, p))
    for t, (layer, (_, fvals, fbest, _, _, _), (move, wait)) in enumerate(layers, 1):
        assert layer[4].tolist() == move[:layer[4].size]
        assert layer[5].tolist() == wait[:layer[5].size]
        for i, (_, a, b) in enumerate(sorted_lattice(n - t)):
            if a <= t < b:
                x = c**t * w_shift**b * w_stay ** (n - b)
                assert fvals[:, i].tolist() == [move[a] + x, move[a] + x, wait[a] + x]
                assert fbest[i] == min(move[a], wait[a]) + x and move[a] <= wait[a]
                assert (move[a] == wait[a]) == (2 * w_shift == c or (t - a) % 2 == 0)


@pytest.mark.parametrize("pl, mode", [("1/10", "rational"), ("2/5", "rational"),
                                      ("1/2", "rational"), ("0.1", "float")])
def test_bellman_evaluates_the_undecided_states(pl, mode):
    # with t uses left a sorted state (0, a, b) with b > t has at most two
    # contenders, and its successors too: an exact layer evaluates exactly the
    # three-contender triangle b <= t, in lattice order, with the full pass's
    # masses, which it can only have read from the two-contender and decided
    # states it carried in closed form; a float layer evaluates every state, so no
    # double moves.  The cap still counts every lattice state.
    ch, n = make_channel(pl, mode), 30
    table, layers = backward_layers(n, ch)
    evaluated = 0
    for t, ((at, vals, best, ties, _, _), (fat, fvals, fbest, fties, _, _)) in enumerate(
        zip(layers, full_backward_layers(n, ch)[1]), 1
    ):
        lattice = np.array(sorted_lattice(n - t))
        keep = lattice[:, 2] <= (t if ch.exact else n)
        assert at.tolist() == np.flatnonzero(keep).tolist() and best.size == keep.sum()
        assert fat.tolist() == list(range(len(lattice)))
        assert best.tolist() == fbest[keep].tolist() and vals.tolist() == fvals[:, keep].tolist()
        assert ties.tolist() == fties[:, keep].tolist()
        evaluated += best.size
    nominal = (n + 1) * (n + 2) * (n + 3) // 6
    full_evaluations = nominal - _lattice_size(n)  # every state of layers 1..n
    assert evaluated < full_evaluations if ch.exact else evaluated == full_evaluations
    bellman_optimum(n, ch, state_cap=nominal)
    with pytest.raises(ResourceCapError, match=f"needs {nominal} state evaluations"):
        bellman_optimum(n, ch, state_cap=nominal - 1)


@settings(max_examples=25, deadline=None)
@given(p=_rational_p(), n=st.integers(0, 20))
def test_reduced_report_equals_the_full_pass(p, n):
    # the report reads each exact layer at the states it names and gives every other,
    # decided, state the default row: with every state evaluated instead, each row,
    # count, deficit and the strict tally come out the same
    ch = make_channel(p)
    reduced = optimal_query_report(n, ch, detail=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_dp, "backward_layers", full_backward_layers)
        full = optimal_query_report(n, ch, detail=True)
    assert reduced == full


class TestReachability:
    def test_state_count_is_quadratic(self):
        # layer k holds the states reachable in k steps: the report's rows with t = 20 - k
        rows = optimal_query_report(20, CH10, detail=True)["per_state"]
        layers = [{row["state"] for row in rows if row["t"] == 20 - k} for k in range(20)]
        for k, layer in enumerate(layers):
            assert len(layer) <= (k + 1) * (k + 2) // 2
        assert layers[0] == {(0, 0, 0)}
        assert layers[1] == {(0, 0, 1), (0, 1, 1)}
        assert (0, 0, 0) in layers[2]

    def test_reachable_sets_are_whole_lattices(self):
        # optimal_query_report takes the states after k uses to be all of sorted_lattice(k)
        # but (0,0,0) at k = 1; step them here through the successor table with np.unique.
        # The table of horizon 60 is every smaller horizon's table extended, so its steps
        # are those of each horizon n <= 60 for every k < n.
        succ, _ = _successor_tables(59)
        for n in range(1, 61):
            size = _lattice_size(n - 1)
            np.testing.assert_array_equal(_successor_tables(n - 1)[0], succ[:, :, :size])
        reach = np.zeros(1, dtype=np.intp)
        for k in range(60):
            np.testing.assert_array_equal(reach, np.arange(int(k == 1), _lattice_size(k)))
            reach = np.unique(succ[:, :, reach])


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

    def test_subnormal_float_masses_tie(self):
        # from p near 1e-103 on, some error masses are subnormal, where doubles keep a
        # fixed spacing of 2**-1074; queries that tie exactly differ there by a rounding
        # of one such ulp (at p = 1e-104, n = 4, state (0, 3, 3), t = 1), and a purely
        # relative tie test called 42 of these (p, n) points outside
        reports = 0
        for k, n in itertools.product(range(100, 166), range(4, 9)):
            try:
                rep = optimal_query_report(n, make_channel(f"1e-{k}", "float"))
            except FloatingPointError:  # P_e* itself underflows: no report, exit 2
                continue
            reports += 1
            assert rep["overall"]["all_member"], (k, n)
        assert reports == 261

    def test_degenerate_channel_all_tied(self):
        rep = optimal_query_report(4, make_channel("1/2"))
        assert rep["overall"]["all_member"]
        assert rep["overall"]["max_deficit"] == 0
        assert rep["overall"]["strict_states"] == 0


def _random_fewest_votes_table(seed, kmax):
    """A table rule over the normalised states with entries up to kmax that
    puts integer weights 0..6, not all zero, on each state's fewest-votes set."""
    rng = random.Random(seed)
    table = {}
    for s in itertools.product(range(kmax + 1), repeat=3):
        if min(s) == 0:
            lead = leaders(s)
            w = [0] * len(lead)
            while not any(w):
                w = [rng.randint(0, 6) for _ in lead]
            table[s] = {j: Fraction(x, sum(w)) for j, x in zip(lead, w)}
    return StrategyRule(kind="table", table=table)


@pytest.mark.parametrize("pl", ["1/10", "2/5", "49/100"])
def test_every_fewest_votes_tie_break_is_optimal(pl):
    # Theorem 2 in its strong form: uniform, lowest-index and random ties all attain P_e*
    ch = make_channel(pl)
    _, table = bellman_optimum(20, ch)
    optimum = [(n, table.optimal_error(n)) for n in range(1, 21)]
    rules = (
        MAX_POSTERIOR,
        LOWEST_INDEX,
        _random_fewest_votes_table(20220301, 20),
    )
    for rule in rules:
        assert [(n, pe) for n, pe, _ in error_curve(ch, rule, 20)] == optimum


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

    @pytest.mark.parametrize("ch", [CH10, CH10F], ids=["rational", "log-float"])
    @pytest.mark.parametrize(
        "rule",
        [
            MAX_POSTERIOR,
            LOWEST_INDEX,
            StrategyRule(kind="round-robin"),
            StrategyRule(kind="fixed", fixed_query=2),
        ],
        ids=["uniform-ties", "lowest-index-ties", "round-robin", "fixed-2"],
    )
    def test_matches_single_shot_forward(self, ch, rule):
        rows = error_curve(ch, rule, 8)
        assert [pe for _, pe, _ in rows] == [
            forward_error_prob(n, ch, rule) for n in range(1, 9)
        ]


@settings(max_examples=60, deadline=None)
@given(p=_rational_p(), n=st.integers(0, 15))
def test_float_kernel_tracks_rational_kernel(p, n):
    _, exact = bellman_optimum(n, make_channel(p))
    _, fl = bellman_optimum(n, make_channel(p, "float"))
    curve = [exact.optimal_error(t) for t in range(n + 1)]
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    for t, pe in enumerate(curve):
        assert _rel_err(fl.optimal_error(t), pe) <= 1e-12
