"""Exact forward error probability and belief-state backward induction.

The channel decides the arithmetic: an exact channel
(``make_channel(p, "rational")``) runs every program here in rational
arithmetic, a float channel (``make_channel(p, "float")``) in log-float
arithmetic; ``ChannelParams.arithmetic`` names it.

The forward pass computes the terminal-error probability of a fixed
strategy by propagating the metric-state distribution conditioned on the
true message (equivariant rules need one conditioning; others are averaged
over the three), in exact integer numerators over one denominator per
layer or in log-domain floats.  The moves depend on the rule only, so the
three conditionings share one graph and one pass, with one mass column
each.  Its layer kernel, ``propagate``, steps an indexed frontier: the
moves sit in numpy tables (``MoveGraph``), each layer lists its states in
order of first arrival, and log-float masses meeting at a state combine by
``np.logaddexp.at`` in that order, bit for bit as a scalar loop would.
The same kernel steps the chain module's return probability.

The backward pass computes the minimum error over all metric-state
strategies under the bayes transition law.  The value function is
permutation symmetric, so it runs on sorted states, one numpy array per
layer, and keeps only the layer before the one it computes.  It runs on
the unnormalised error mass E_t(s) = Z(s) * (1 - V_t(s)),
Z(s) = sum_i z**s_i, a min-recursion of positive terms: for an exact
channel on Python integers (E scaled by powers of the numerator and
denominator of p), for a float channel on doubles with a relative error of
a few machine epsilons per layer.  See backward_layers.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .belief import MetricState, apply_outcome
from .channel import ChannelParams, Number
from .strategy import StrategyRule, select_query, weight_denominator

# Most states one dynamic program may touch: lattice states over all layers
# of backward induction, states summed over layers of a forward pass.
STATE_CAP = 2_000_000


class ResourceCapError(RuntimeError):
    """Raised when a dynamic program would exceed its configured state cap."""


def logaddexp(a: float, b: float) -> float:
    """ln(e**a + e**b) for natural-log probabilities; -inf is the log of 0."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_of(value: Number) -> float:
    """Natural log of a probability: of the exact value for a Fraction.

    A float that underflowed to 0.0 raises FloatingPointError, which the
    CLI reports as a failed check, never as a log of 0.
    """
    if not isinstance(value, float):
        f = Fraction(value)
        return math.log(f.numerator) - math.log(f.denominator)
    if value == 0.0:
        raise FloatingPointError("float probability underflowed to 0.0, below the smallest double")
    return math.log(value)


# Most moves out of one state: three queries, two answers each.
MOVES = 6


class MoveGraph:
    """States numbered in order of discovery, and their moves in numpy arrays.

    ``moves(s)`` lists the moves out of state s as (target, f1, code), at
    most MOVES of them.  Row i of ``target`` (state numbers), ``factor``
    (f1, of ``dtype``: object for integers) and ``code`` holds the moves of
    state i in that order, ``count[i]`` of them; ``count[i]`` is -1 until
    ``expand`` has called ``moves`` for state i.  ``votes[i]`` is state i.
    A move's code picks its row of the f2 table that ``propagate`` steps
    with.
    """

    def __init__(
        self,
        moves: Callable[[MetricState], Sequence[tuple[MetricState, Number, int]]],
        dtype: type,
    ) -> None:
        self._moves = moves
        self.number: dict[MetricState, int] = {}
        self.states: list[MetricState] = []
        self.votes = np.empty((0, 3), dtype=np.intp)
        self.count = np.empty(0, dtype=np.int8)
        self.target = np.empty((0, MOVES), dtype=np.intp)
        self.factor = np.empty((0, MOVES), dtype=dtype)
        self.code = np.empty((0, MOVES), dtype=np.int8)

    def ids(self, states: Iterable[MetricState]) -> np.ndarray:
        """State numbers of ``states``, numbering the new ones."""
        first_new = len(self.states)
        out = []
        for s in states:
            i = self.number.get(s)
            if i is None:
                i = self.number[s] = len(self.states)
                self.states.append(s)
            out.append(i)
        size = len(self.states)
        if size > self.count.size:  # grow every table to at least double
            extra = max(size, 2 * self.count.size) - self.count.size
            self.votes = _grow(self.votes, extra, 0)
            self.count = _grow(self.count, extra, -1)
            self.target, self.factor, self.code = (
                _grow(a, extra, 0) for a in (self.target, self.factor, self.code)
            )
        if size > first_new:
            self.votes[first_new:size] = self.states[first_new:]
        return np.array(out, dtype=np.intp)

    def expand(self, ids: np.ndarray) -> None:
        """Tabulate the moves of every state in ``ids`` that has none yet."""
        new = ids[self.count[ids] < 0]
        if not new.size:
            return
        rows = [self._moves(self.states[i]) for i in new.tolist()]
        count = np.array([len(row) for row in rows])
        moves = [move for row in rows for move in row]
        target = self.ids(t for t, _, _ in moves)  # may grow the tables
        row, col = np.nonzero(np.arange(MOVES) < count[:, None])
        cells = (new[row], col)
        self.target[cells] = target
        self.factor[cells] = [f for _, f, _ in moves]
        self.code[cells] = [c for _, _, c in moves]
        self.count[new] = count


def _grow(a: np.ndarray, extra: int, fill: int) -> np.ndarray:
    """``a`` with ``extra`` more rows of ``fill``."""
    return np.concatenate([a, np.full((extra, *a.shape[1:]), fill, a.dtype)])


def propagate(
    graph: MoveGraph, start: MetricState, mass: np.ndarray, f2: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (state numbers, masses) of the start layer, then of each further step.

    Masses have one column per conditioning: ``mass`` is the start state's
    row, and a move with factor f1 and code c scales column k of its
    source's row by f1 * f2[c, k] when ``f2`` holds (object) integers and
    adds f1 + f2[c, k] to it when ``f2`` holds log-floats.  A layer lists
    its states in order of first arrival: sources in their layer's order,
    each source's moves in ``graph`` order.  Masses meeting at a target add
    in that order, exactly for integers and by ``np.logaddexp.at`` for
    log-floats, which applies updates in array order and matches
    ``logaddexp`` bit for bit, so every double equals that of a scalar loop.
    A state without moves loses its mass.  Raises ResourceCapError once the
    layers after the start hold more than STATE_CAP states in total.
    """
    exact = f2.dtype == object
    ids, mass = graph.ids([start]), mass[None, :]
    touched = 0
    while True:
        yield ids, mass
        graph.expand(ids)
        count = graph.count[ids]
        live = np.arange(MOVES) < count[:, None]
        target = graph.target[ids][live]
        step = mass[np.repeat(np.arange(ids.size), count)]
        combine = np.multiply if exact else np.add  # (mass . f1) . f2, in place
        combine(step, graph.factor[ids][live][:, None], out=step)
        combine(step, f2[graph.code[ids][live]], out=step)
        # the targets in order of first arrival, and each move's row among them
        arrival = np.arange(target.size)
        slot = np.full(len(graph.states), target.size)
        np.minimum.at(slot, target, arrival)
        ids = target[slot[target] == arrival]
        touched += ids.size
        if touched > STATE_CAP:
            raise ResourceCapError(f"forward pass touches {touched} states, cap is {STATE_CAP}")
        slot[ids] = np.arange(ids.size)
        shape = (ids.size, mass.shape[1])
        mass = np.zeros(shape, dtype=object) if exact else np.full(shape, -math.inf)
        (np.add if exact else np.logaddexp).at(mass, slot[target], step)


def _error_sixths(votes: np.ndarray, trues: Sequence[int]) -> np.ndarray:
    """6 * the error of uniform-tie max-posterior decoding, per state and true message.

    Integers 0, 3, 4 or 6 of shape (states, trues).  States are normalised,
    so their leaders are the messages with 0 votes.
    """
    lead = votes == 0
    ties = lead.sum(axis=1, keepdims=True)
    return np.where(lead[:, np.asarray(trues) - 1], 6 - 6 // ties, 6)


# Log of that error by its sixths: 1 - 1/k when the truth is one of k = 2 or
# 3 tied leaders, 1 when it is not a leader.  The double of 1 - 1/3 is one
# ulp above that of 4/6, so the constants are built from 1 - 1/k.
_LOG_ERROR = np.full(7, math.nan)
_LOG_ERROR[[3, 4, 6]] = math.log(1.0 - 1.0 / 2), math.log(1.0 - 1.0 / 3), math.log(1.0)

# (state votes, masses with one column per true message, denominator)
Layer = tuple[np.ndarray, np.ndarray, int]


def _forward_layers(ch: ChannelParams, rule: StrategyRule, trues: Sequence[int]) -> Iterator[Layer]:
    """Layers after 0, 1, 2, ... uses, one mass column per true message in ``trues``.

    The moves and the order of first arrival depend on the rule only, so
    every conditioning steps on one graph; a move's code is the set of
    true messages its answer agrees with (bit t-1 for message t), and f2 is
    the channel factor for agreement or not.  Rational masses are integers
    over one denominator per layer, (L*c)**t after t uses, for p = a/c and L
    the least common denominator of the rule's query weights: querying j
    with weight w moves w*L times b = c - a when the answer agrees with the
    truth and w*L times a when it does not.  Log-float masses are natural
    logs (a zero weight moves -inf) and the denominator stays 1.
    """
    if ch.exact:
        scale = weight_denominator(rule)
        a, c = ch.p.numerator, ch.p.denominator
        fp, fq, start, step, dtype = a, c - a, 1, scale * c, object

        def factor(w: Fraction) -> int:
            return w.numerator * (scale // w.denominator)

    else:

        def factor(w: Number) -> float:
            return math.log(float(w)) if w else -math.inf

        fp, fq, start, step, dtype = factor(ch.p), factor(ch.q), 0.0, 1, float

    def moves(s: MetricState) -> list[tuple[MetricState, Number, int]]:
        out = []
        for j, w in select_query(rule, s).items():
            f1 = factor(w)
            for y in (0, 1):
                agree = 1 << (j - 1) if y == 0 else 7 ^ (1 << (j - 1))
                out.append((apply_outcome(s, j, y), f1, agree))
        return out

    f2 = np.array([[fq if code >> (t - 1) & 1 else fp for t in trues] for code in range(8)], dtype)
    graph = MoveGraph(moves, dtype)
    layers = propagate(graph, (0, 0, 0), np.full(len(trues), start, dtype), f2)
    dens = itertools.accumulate(itertools.repeat(step), operator.mul, initial=1)
    return ((graph.votes[ids], mass, den) for (ids, mass), den in zip(layers, dens))


def _forward_layer(n: int, ch: ChannelParams, rule: StrategyRule, trues: Sequence[int]) -> Layer:
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    return next(itertools.islice(_forward_layers(ch, rule, trues), n, None))


def _conditionings(rule: StrategyRule) -> tuple[int, ...]:
    return (1,) if rule.equivariant else (1, 2, 3)


def forward_distribution(
    n: int, ch: ChannelParams, rule: StrategyRule, true: int = 1
) -> dict[MetricState, Number]:
    """State distribution after n uses given the true message.

    An exact channel gives exact probabilities; a float channel gives
    natural-log probabilities.  Keys are in order of first arrival.  No
    command calls it; it stays as the layer view that the oracle tests and
    the chain's hub-mass cross-check compare against.
    """
    votes, mass, den = _forward_layer(n, ch, rule, (true,))
    dist = zip(map(tuple, votes.tolist()), mass[:, 0].tolist())
    if ch.exact:
        return {s: Fraction(m, den) for s, m in dist}
    return dict(dist)


def _mean_error(layer: Layer, trues: Sequence[int], exact: bool) -> Number:
    """Terminal error of a layer given true message ``trues`` (one or all three).

    Exact: one Fraction from the integer sum of mass * 6 * error.
    Log-float: per conditioning, the error states' masses folded in layer
    order by ``np.logaddexp.accumulate``, which folds sequentially.
    """
    votes, mass, den = layer
    sixths = _error_sixths(votes, trues)
    if exact:
        return Fraction((mass * sixths.astype(object)).sum(), 6 * len(trues) * den)
    parts = []
    for k in range(len(trues)):
        err = sixths[:, k] > 0
        terms = mass[err, k] + _LOG_ERROR[sixths[err, k]]
        parts.append(math.exp(np.logaddexp.accumulate(terms)[-1]) if terms.size else 0.0)
    return parts[0] if len(parts) == 1 else sum(parts) / 3


def forward_error_prob(n: int, ch: ChannelParams, rule: StrategyRule) -> Number:
    """Terminal decoding-error probability of ``rule`` at horizon n."""
    trues = _conditionings(rule)
    return _mean_error(_forward_layer(n, ch, rule, trues), trues, ch.exact)


def sorted_lattice(kmax: int) -> list[MetricState]:
    """All sorted metric states (0, a, b), a <= b <= kmax.

    State (0, a, b) has index b(b+1)/2 + a, so each lattice is a prefix of
    the next.  Public as the lattice order that the oracle tests use.
    """
    return [(0, a, b) for b in range(kmax + 1) for a in range(b + 1)]


def _lattice_size(kmax: int) -> int:
    return (kmax + 1) * (kmax + 2) // 2


def _lattice_coords(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of a and b over sorted_lattice(kmax), in lattice order."""
    b = np.repeat(np.arange(kmax + 1), np.arange(1, kmax + 2))
    return np.arange(b.size) - b * (b + 1) // 2, b


def _successor_tables(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Successor indices and min-shift flags of every state of sorted_lattice(kmax).

    Both arrays have shape (3 positional queries, 2 outcomes y, states).
    ``succ[j, y, i]`` is the lattice index of the sorted state reached when
    query j+1 is answered y at state i (y=1 votes against the queried
    message, y=0 against the other two); ``shift[j, y, i]`` says that the
    outcome voted against every message at the minimum, so the minimum rose
    by one.  Successors lie in sorted_lattice(kmax + 1), and the tables of
    kmax serve every smaller lattice by slicing.
    """
    a, b = _lattice_coords(kmax)
    votes = np.stack([np.zeros_like(a), a, b])
    succ = np.empty((3, 2, a.size), dtype=np.intp)
    shift = np.empty((3, 2, a.size), dtype=bool)
    for j in range(3):
        for y in (0, 1):
            v = votes.copy()
            if y == 1:
                v[j] += 1
            else:
                v[np.arange(3) != j] += 1
            low = v.min(axis=0)
            v = np.sort(v - low, axis=0)
            succ[j, y] = v[2] * (v[2] + 1) // 2 + v[1]
            shift[j, y] = low > 0
    return succ, shift


FLOAT_TIE_TOL = 1e-12

# One backward layer: (query error masses (3, states), their minimum, tie mask)
BackwardLayer = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(eq=False)
class ValueTable:
    """Scale and per-horizon results of backward induction up to ``horizon`` uses.

    Layer t (t = 0..horizon uses left) covers sorted_lattice(horizon - t) in
    lattice order.  A scaled error mass m at state i of layer t is the error
    probability m / (step**t * norms[i]) (``probability``), where
    ``norms[i]`` is the state's likelihood sum Z(s) under the same scale.
    ``exact`` follows the channel: exact masses are Python integers with
    step = c for p = a/c, float masses are doubles with step = 1.  The
    table keeps no layer: ``origin[t]`` is the mass of (0,0,0) in layer t,
    and ``ties[k]`` counts the (t >= 1, state) entries with k optimal
    queries; ``backward_layers`` fills both as it runs.
    """

    horizon: int
    exact: bool
    tie_tolerance: float
    norms: np.ndarray = field(repr=False)
    step: Number
    origin: list = field(repr=False)
    ties: np.ndarray = field(repr=False)

    def probability(self, t: int, i: int, mass) -> Number:
        """A mass at state index i of layer t, in probability units."""
        den = self.step**t * self.norms[i]
        return Fraction(mass, den) if self.exact else float(mass / den)

    def optimal_error(self, t: int | None = None) -> Number:
        """Minimum error probability at horizon t (defaults to the table's)."""
        t = self.horizon if t is None else t
        return self.probability(t, 0, self.origin[t])

    def tie_counts(self) -> tuple[int, int, int]:
        """Number of (t >= 1, state) entries with 1, 2 and 3 optimal queries."""
        return int(self.ties[1]), int(self.ties[2]), int(self.ties[3])


def backward_layers(
    n: int, ch: ChannelParams, state_cap: int = STATE_CAP
) -> tuple[ValueTable, Iterator[BackwardLayer]]:
    """Backward induction to horizon n as a stream of layers t = 1..n.

    It runs under the bayes transition law on the error mass over the
    sorted-state lattice.  For a sorted state s (minimum 0) let
    Z(s) = sum_i z**s_i; the error mass E_t(s) = Z(s) * (1 - V_t(s)) with
    t uses left obeys

        E_0(s) = z**s_2 + z**s_3                (Z(s) minus the leader's 1)
        E_t(s) = min_j  sum_y w_y * E_{t-1}(s'_y)

    where s'_y is the sorted state after query j is answered y, and w_y is
    p when that outcome raises the vote minimum and q otherwise.  Every
    term is positive, so nothing cancels; P_e*(t) = E_t(0,0,0) / 3.

    An exact channel writes p = a/c, b = c - a and runs on the integers
    J_t = c**t * b**n * E_t: J_0(s) = a**s_2 b**(n-s_2) + a**s_3 b**(n-s_3)
    and the weights are a and b, so there is no Fraction and no gcd, and
    optimal-query ties are exact integer equalities.  A float channel runs
    the same loop on doubles with weights (p, q); each layer adds at most a
    few roundings to positive terms, so the relative error of P_e* stays
    within about 4n * 2**-53 of the value for the given double p (measured
    against the exact kernel: 1.3e-15 at p = 0.1, n = 150; 5.3e-15 at
    p = 0.001, n = 150) while P_e* stays far above the smallest double.
    Leaf masses that underflow at the lattice edge add only absolute error
    below it.  Float ties are the queries within a relative FLOAT_TIE_TOL
    of the minimum mass.

    Returns the ValueTable, holding layer 0, and an iterator that computes
    each further layer from the one before alone, records it in the table
    and yields it as a BackwardLayer in lattice order.  Raises
    ResourceCapError up front when the layers exceed ``state_cap`` states.
    """
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    total_states = sum(_lattice_size(k) for k in range(n + 1))
    if total_states > state_cap:
        raise ResourceCapError(
            f"backward induction needs {total_states} state evaluations, cap is {state_cap}"
        )
    exact = ch.exact
    if exact:
        a, c = ch.p.numerator, ch.p.denominator
        b = c - a
        powers = np.array([a**k * b ** (n - k) for k in range(n + 1)], dtype=object)
        w_shift, w_stay, step = a, b, c
    else:
        powers = ch.z ** np.arange(n + 1.0)
        w_shift, w_stay, step = ch.p, ch.q, 1.0
    s2, s3 = _lattice_coords(n)
    start = powers[s2] + powers[s3]
    table = ValueTable(
        horizon=n,
        exact=exact,
        tie_tolerance=0.0 if exact else FLOAT_TIE_TOL,
        norms=powers[0] + start,
        step=step,
        origin=[start[0]],
        ties=np.zeros(4, dtype=np.int64),
    )
    succ, shift = _successor_tables(n - 1)
    weights = np.array([w_stay, w_shift], dtype=powers.dtype)[shift.astype(np.intp)]

    def layers() -> Iterator[BackwardLayer]:
        prev = start
        for t in range(1, n + 1):
            size = _lattice_size(n - t)
            to, w = succ[:, :, :size], weights[:, :, :size]
            vals = w[:, 0] * prev[to[:, 0]] + w[:, 1] * prev[to[:, 1]]
            prev = np.minimum(np.minimum(vals[0], vals[1]), vals[2])
            ties = vals == prev if exact else vals <= prev * (1 + FLOAT_TIE_TOL)
            table.origin.append(prev[0])
            table.ties += np.bincount(ties.sum(axis=0), minlength=4)
            yield vals, prev, ties
            del vals, ties  # the caller may drop its copies before the next layer

    return table, layers()


def bellman_optimum(
    n: int, ch: ChannelParams, state_cap: int = STATE_CAP
) -> tuple[Number, ValueTable]:
    """Minimum achievable error over all metric-state strategies.

    Drains ``backward_layers`` (which see), one layer at a time.  Returns
    (optimal error at horizon n, value table); the table also yields every
    shorter horizon via ``optimal_error(t)``.
    """
    table, layers = backward_layers(n, ch, state_cap)
    collections.deque(layers, maxlen=0)  # drains it, dropping each layer as it comes
    return table.optimal_error(), table


def optimal_query_report(n: int, ch: ChannelParams, detail: bool = False) -> dict:
    """Check, state by state, that some fewest-votes query is Bellman-optimal.

    For every reachable (remaining time t, state): the verdict is "member"
    when the argmax query set meets the fewest-votes set; the deficit is
    the value lost by the best fewest-votes query.  Strict multi-step
    dominance is counted but not asserted.  The check consumes
    ``backward_layers``, reading each layer's per-query error masses
    (integers for an exact channel) at the reachable states in (a, b)
    order; a deficit is converted to a probability only when nonzero.
    ``detail`` adds one verdict row per (t, state).

    After k uses the reachable states are all of sorted_lattice(k), except
    (0,0,0) at k = 1: a use raises b by at most one, and every outcome at
    (0,0,0) votes against one or two messages.  Each (0,a,b) of lattice k+1
    follows from one of lattice k: from (0,a,b+1) if b < k, (0,a+1,k) if
    a < b = k, (0,k-1,k-1) if a = b = k, (0,min(a,k),k) if b = k+1; and
    at k = 1, (0,0,1) gives (0,1,1).
    """
    table, layers = backward_layers(n, ch)
    zero: Number = Fraction(0) if ch.exact else 0.0
    coord_a, coord_b = _lattice_coords(n)
    per_horizon = []
    per_state = []
    strict = 0
    for t, (vals, best, opt) in enumerate(layers, 1):
        idx = np.arange(int(n - t == 1), _lattice_size(n - t))  # the states after n - t uses
        idx = idx[np.lexsort((coord_b[idx], coord_a[idx]))]
        a, b = coord_a[idx], coord_b[idx]
        vals, best, opt = vals[:, idx], best[idx], opt[:, idx]
        # normalised states (0, a, b): message 1 always has fewest votes
        lead = np.stack([np.ones_like(a, dtype=bool), a == 0, b == 0])
        loss = np.where(lead, vals, vals[0]).min(axis=0) - best
        member = (opt & lead).any(axis=0)
        others_lose = (lead | (vals > best)).all(axis=0)  # every other query is worse
        strict += int((member & ~lead.all(axis=0) & others_lose).sum())
        hit = np.flatnonzero(loss != 0).tolist()
        lost = [table.probability(t, idx[k], loss[k]) for k in hit]
        max_deficit, worst_state = max(lost, default=zero), None
        if max_deficit > zero:  # the first state with the largest deficit
            k = hit[lost.index(max_deficit)]
            worst_state = (0, int(a[k]), int(b[k]))
        per_horizon.append(
            {
                "t": t,
                "states": idx.size,
                "members": int(member.sum()),
                "max_deficit": max_deficit,
                "worst_state": worst_state,
            }
        )
        if detail:
            deficits = [zero] * idx.size
            for k, d in zip(hit, lost):
                deficits[k] = d
            rows = zip(a.tolist(), b.tolist(), member.tolist(), deficits,
                       opt.T.tolist(), lead.T.tolist())
            per_state.extend(
                {
                    "t": t,
                    "state": (0, sa, sb),
                    "verdict": "member" if m else "outside",
                    "deficit": d,
                    "argmax": [j for j, o in zip((1, 2, 3), row) if o],
                    "fewest_votes": [j for j, o in zip((1, 2, 3), fewest) if o],
                }
                for sa, sb, m, d, row, fewest in rows
            )
    pe_star = table.optimal_error()
    log_of(pe_star)  # raises if a float P_e* underflowed: never report it as 0
    report: dict = {
        "horizon": n,
        "p": ch.p,
        "mode": ch.arithmetic,
        "optimal_error": pe_star,
        "per_horizon": per_horizon,
        "overall": {
            "all_member": all(row["members"] == row["states"] for row in per_horizon),
            "max_deficit": max((row["max_deficit"] for row in per_horizon), default=zero),
            "strict_states": strict,
            "non_strict_states": sum(row["states"] for row in per_horizon) - strict,
        },
    }
    if detail:
        report["per_state"] = per_state
    return report


def error_curve(
    ch: ChannelParams,
    rule: StrategyRule | str,
    n_max: int,
) -> list[tuple[int, Number, float]]:
    """Rows (n, P_e, -ln(P_e)/n) for n = 1..n_max, one frontier pass.

    ``rule`` may be a StrategyRule or the string "optimal" for the
    backward-induction minimum.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if rule == "optimal":
        _, table = bellman_optimum(n_max, ch)
        pes = (table.optimal_error(n) for n in range(1, n_max + 1))
    else:
        assert isinstance(rule, StrategyRule)
        trues = _conditionings(rule)
        layers = itertools.islice(_forward_layers(ch, rule, trues), 1, n_max + 1)
        pes = (_mean_error(layer, trues, ch.exact) for layer in layers)
    return [(n, pe, -log_of(pe) / n) for n, pe in enumerate(pes, 1)]
