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
each.  Its layer kernel, ``propagate``, steps an indexed frontier: it
asks ``move_batch`` for the moves of each layer's new states in one batch
call, numbers states by a packed integer key, and tabulates each state's
live moves once, into flat lists of target, factor f1[weight index, code]
and code, which each layer gathers by repeat and take; it lists each
layer's states in order of first arrival; log-float masses meeting at a
state combine by ``np.logaddexp.at`` in that order, bit for bit as a
scalar loop would.
``compile_rule`` turns a rule into its distinct ``select_query`` rows and
a map from vote triples to rows; it is the one place that maps a rule kind
to a row key, and the Monte Carlo engine draws its queries from the same rows.
``move_batch`` builds each row's moves in the order of the per-state law,
which is the order in which masses fold.  The same kernel steps the chain
module's return probability, carrying the states that can still return.

An exact forward pass of a rule other than a table drops each state once
its decode is fixed (``contenders``, the predicate by which the Monte Carlo
engine retires trials) and keeps its error mass in one integer sum, so the
error is the same Fraction; see _forward_layers.

The backward pass computes the minimum error over all metric-state
strategies under the bayes transition law.  The value function is
permutation symmetric, so it runs on sorted states, one numpy array per
layer, and keeps only the layer before the one it computes.  It runs on
the unnormalised error mass E_t(s) = Z(s) * (1 - V_t(s)),
Z(s) = sum_i z**s_i, a min-recursion of positive terms: for an exact
channel on Python integers (E scaled by powers of the numerator and
denominator of p), for a float channel on doubles with a relative error of
a few machine epsilons per layer.  An exact pass evaluates the min-recursion
only at the states where all three messages can still have fewest votes, and
gives every other state's mass from a walk on the gap between the two
messages with fewer votes, one number per gap; a float pass evaluates every
state.  Each layer yields the masses of the lattice prefix it evaluated, and
an exact layer that walk's two candidates per gap; see backward_layers.

Both passes raise ``channel.ResourceCapError`` past ``channel.STATE_CAP``
states by ``channel.check_cap``, which reads the cap at the call (the forward
pass counts the states it carries on, not those it drops); the cap and its
check live in ``channel``, which the CLI loads without numpy.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import channel
from .belief import MetricState, apply_outcome
from .channel import ChannelParams, Number
from .strategy import QueryWeights, StrategyRule, select_query

# Most moves out of one state: three queries, two answers each.
MOVES = 6

# A batch of states' moves as (target votes, weight index, code, live); see
# move_batch and propagate.
Moves = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]

# _VOTES[j, y] is the votes that answer y to query j casts: y = 1 votes
# against message j, y = 0 against the other two.  _CODES[j, y] is the set of
# true messages that answer agrees with, bit t-1 for message t.  Row 0 is an
# empty query slot: no votes, no move.
_VOTES = np.zeros((4, 2, 3), dtype=np.intp)
_VOTES[1:, 0], _VOTES[1:, 1] = 1 - np.eye(3, dtype=np.intp), np.eye(3, dtype=np.intp)
_CODES = np.zeros((4, 2), dtype=np.int8)
_CODES[1:, 0] = 1, 2, 4
_CODES[1:, 1] = 7 - _CODES[1:, 0]

# A state's key packs its three counts into 21 bits each.  A pass reaches no
# count of 2**21: a count grows by at most one per step, and every layer holds
# a state, so that many steps pass channel.STATE_CAP first.
_KEY_BITS = 21
_NO_KEY = np.iinfo(np.int64).max  # above every key: a normalised state has a 0 count

ORIGIN: MetricState = (0, 0, 0)  # the state before any use, where every forward pass starts


def _state_keys(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """int64 keys of the vote triples (v1[i], v2[i], v3[i]), in their order."""
    v1, v2, v3 = (v.astype(np.int64, copy=False) for v in (v1, v2, v3))
    return v1 << 2 * _KEY_BITS | v2 << _KEY_BITS | v3


def _outcomes(votes: np.ndarray, cast: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalised states votes + cast, and how far their minimum rose.

    ``votes`` (k, 3) and ``cast`` (k or 1, m, 3) give (k, m, 3) and (k, m).
    """
    v = votes[:, None, :] + cast
    low = np.minimum(np.minimum(v[..., 0], v[..., 1]), v[..., 2])  # v.min(axis=2) is slower
    v -= low[..., None]
    return v, low


def compile_rule(
    rule: StrategyRule, horizon: int | None = None
) -> tuple[list[MetricState], list[QueryWeights], Callable[..., np.ndarray]]:
    """``rule`` as its distinct select_query rows, each at one state that has
    it: (states, rows, row_of), rows[i] = select_query(rule, states[i]).

    ``row_of(v1, v2, v3)`` gives the row of each triple (v1[i], v2[i], v3[i])
    of integer arrays (the rows of (3, k) votes or the columns of (k, 3)),
    taken up to a common shift.  The key is the leader set for max-posterior
    (row = uint8 bit mask - 1, bit i-1 for message i), the vote total mod 3
    for round-robin, none for fixed, and for a table the normalised state's
    packed key, found by binary search, whose position maps to its row: one
    per distinct ordered list of (query, weight) items, at the first state
    in key order that has it (weights listed in another order fold in
    another order).  A triple missing from a table raises select_query's
    ValueError for the first one; a count of 2**_KEY_BITS or more has no
    key and raises that error, or ResourceCapError if the table holds it.

    ``horizon``, when the caller knows it, is the most uses before any triple
    it asks about: a table then compiles only its states with counts up to
    ``horizon``, since one use raises a count by at most one.
    """
    if rule.kind == "max-posterior":
        states = [tuple(int(not mask >> i & 1) for i in range(3)) for mask in range(1, 8)]

        def row_of(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
            lo = np.minimum(np.minimum(v1, v2), v3)
            mask = (v1 == lo).view(np.uint8) | (v2 == lo).view(np.uint8) << 1
            mask |= (v3 == lo).view(np.uint8) << 2
            mask -= 1
            return mask
    elif rule.kind == "round-robin":
        states = [(0, 0, 0), (0, 0, 1), (0, 1, 1)]

        def row_of(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
            # three unsigned counts sum below 4 times their type's range, so the next
            # wider signed type holds the total (int16 for uint8 rows); signed rows,
            # the forward pass's intp, keep their type
            total = np.add(v1, v2, dtype=np.promote_types(v1.dtype, np.int16))
            total += v3
            total -= total // 3 * 3  # numpy divides by a scalar far faster than % does
            return total
    elif rule.kind == "fixed":
        states = [(0, 0, 0)]
        row_of = lambda v1, v2, v3: np.zeros(len(v1), dtype=np.uint8)
    else:
        assert rule.table is not None
        top = (1 << _KEY_BITS) - 1  # the largest count a key holds
        top = top if horizon is None else min(horizon, top)
        listed = sorted(s for s in rule.table if max(s) <= top)
        keys = np.append(_state_keys(*np.array(listed, dtype=np.int64).reshape(-1, 3).T), _NO_KEY)
        # a row is numbered by its items as ints, which hash faster than Fractions
        items = [tuple([(j, w.numerator, w.denominator) for j, w in rule.table[s].items()])
                 for s in listed]
        ids: dict[tuple, int] = {}
        row_at = np.array([ids.setdefault(row, len(ids)) for row in items], dtype=np.intp)
        states = [listed[i] for i in np.unique(row_at, return_index=True)[1].tolist()]

        def row_of(v1: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
            lo = np.minimum(np.minimum(v1, v2), v3)
            m = [np.subtract(v, lo, dtype=np.int64) for v in (v1, v2, v3)]
            key = _state_keys(*m)
            pos = np.searchsorted(keys, key)
            missing = keys[pos] != key
            missing |= (m[0] | m[1] | m[2]) >> _KEY_BITS != 0  # such a key aliases another's
            if missing.any():
                at = missing.argmax()
                select_query(rule, tuple(int(c[at]) for c in m))  # raises if the table lacks it
                raise channel.ResourceCapError(f"a vote count of 2**{_KEY_BITS} has no table key")
            return row_at.take(pos)
    return states, [select_query(rule, s) for s in states], row_of


def move_batch(
    rule: StrategyRule, by_target: bool = False, horizon: int | None = None
) -> tuple[Moves, list[Number]]:
    """``rule``'s moves at batches of normalised states: (moves, weights).

    ``moves(votes)`` gives, for states (k, 3), MOVES slots per state: target
    votes (k, MOVES, 3), the index in ``weights`` of the move's query weight,
    its code (the set of true messages its answer agrees with, bit t-1 for
    message t) and whether the slot holds a move, each (k, MOVES).  State s
    fills its slots in the order of
    ``[(apply_outcome(s, j, y), w, code) for j, w in select_query(rule, s).items()
    for y in (0, 1)]``, so in the order of a table's entry, or with
    ``by_target`` in the order of their targets.

    The slots are built once, here, per row of ``compile_rule``, which
    takes ``horizon``.
    ``by_target`` sorts a row's moves by their targets at the row's state,
    which needs rows that the leader set decides, so it takes max-posterior
    only: a move shifts the votes by a vector that the move and the leader
    set decide.
    """
    states, rows, row_of = compile_rule(rule, horizon)
    assert not by_target or rule.kind == "max-posterior"
    index: dict[Number, int] = {}  # each distinct weight's place in ``weights``
    slots = []  # (query j, answer y, weight index) of each move
    for s, weights in zip(states, rows):
        row = [(j, y, index.setdefault(w, len(index))) for j, w in weights.items() for y in (0, 1)]
        if by_target:
            row.sort(key=lambda move: apply_outcome(s, move[0], move[1]))
        slots.append(row + [(0, 0, 0)] * (MOVES - len(row)))
    j, y, wid = np.array(slots, dtype=np.intp).reshape(-1, MOVES, 3).transpose(2, 0, 1)
    cast, code, live = _VOTES[j, y], _CODES[j, y], j > 0

    def moves(votes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        row = row_of(*votes.T)
        return _outcomes(votes, cast[row])[0], wid[row], code[row], live[row]

    return moves, list(index)


class _MoveGraph:
    """States numbered in order of discovery, and their moves in flat numpy arrays.

    ``number`` maps a state's key to its number i, and ``votes[i]`` is the
    state.  ``expand`` tabulates each state's moves once, its live slots in
    ``moves`` order, as ``count[i]`` entries from ``start[i]`` of the flat
    ``target`` (state numbers), ``factor`` (the move's ``f1[w, code]``, of
    f1's dtype: object for integers) and ``code``, which hold ``size``
    entries.  ``expand`` asks ``moves`` for a state whose ``count[i]`` is 0:
    it has not asked for it yet, or the state has no move.
    """

    def __init__(self, moves: Moves, f1: np.ndarray) -> None:
        self._moves, self._f1 = moves, f1
        self.number: dict[int, int] = {}
        self.votes = np.empty((0, 3), dtype=np.intp)
        self.start = np.empty(0, dtype=np.intp)
        self.count = np.empty(0, dtype=np.intp)
        self.target = np.empty(0, dtype=np.intp)
        self.factor = np.empty(0, dtype=f1.dtype)
        self.code = np.empty(0, dtype=np.int8)
        self.size = 0

    def ids(self, votes: np.ndarray) -> np.ndarray:
        """State numbers of the rows of ``votes``, numbering the new ones."""
        if votes.max(initial=0) >> _KEY_BITS:
            raise channel.ResourceCapError(f"forward pass reaches a vote count of 2**{_KEY_BITS}")
        number = self.number
        keys = _state_keys(*votes.T).tolist()
        out = np.array([number.setdefault(k, len(number)) for k in keys], dtype=np.intp)
        self.votes, self.start, self.count = _grow((self.votes, self.start, self.count), len(number))
        self.votes[out] = votes
        return out

    def expand(self, ids: np.ndarray) -> None:
        """Tabulate the moves of every state in ``ids`` that has none yet."""
        new = ids[self.count.take(ids) == 0]
        if not new.size:
            return
        target, wid, code, live = self._moves(self.votes[new])
        number = self.ids(target[live])  # may grow the per-state tables
        low, high = self.size, self.size + number.size
        self.target, self.factor, self.code = _grow((self.target, self.factor, self.code), high)
        code = code[live]
        self.target[low:high], self.factor[low:high] = number, self._f1[wid[live], code]
        self.code[low:high], self.size = code, high
        count = live.sum(axis=1)
        self.count[new], self.start[new] = count, np.cumsum(count) - count + low


def _grow(arrays: tuple[np.ndarray, ...], rows: int) -> tuple[np.ndarray, ...]:
    """``arrays``, of one length, as they are if they hold ``rows`` rows, else
    with rows of zeros added up to ``rows`` and at least double their length."""
    size = len(arrays[0])
    if rows <= size:
        return arrays
    extra = max(rows, 2 * size) - size
    return tuple(np.concatenate([a, np.zeros((extra, *a.shape[1:]), a.dtype)]) for a in arrays)


def propagate(
    moves: Moves,
    f1: np.ndarray,
    mass: np.ndarray,
    f2: np.ndarray,
    settle: Callable[[int, np.ndarray, np.ndarray], np.ndarray | None] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (state votes, masses) of the start layer, ``ORIGIN``, then of each further step.

    ``moves`` is ``move_batch``'s: given a batch of states (k, 3), those of
    one layer that have not been asked for before, it gives their moves in
    MOVES slots per state: target votes (k, MOVES, 3), weight index w, code
    c (k, MOVES each) and a mask (k, MOVES) of the slots that hold a move.
    The pass tabulates each state's moves once, compacted into flat lists
    (see ``_MoveGraph``), and each layer gathers its sources' lists.
    Masses have one column per conditioning: ``mass`` is ``ORIGIN``'s row,
    and a move scales column k of its source's row by f1[w, c] * f2[c, k]
    when ``f2`` holds (object) integers and adds f1[w, c] + f2[c, k] to it
    when ``f2`` holds log-floats.  A layer lists
    its states in order of first arrival: sources in their layer's order,
    each source's moves in slot order.  Masses meeting at a target add in
    that order, exactly for integers and by ``np.logaddexp.at`` for
    log-floats, which applies updates in array order and matches a scalar
    max-plus-log1p fold bit for bit (tests/test_exact_dp.py holds numpy to
    it), so every double equals that of a scalar loop.
    A state without moves loses its mass.  ``settle``, when given, is called
    with each layer after the start as (uses k, state votes, masses) before
    it is yielded, and returns None or a mask of the states to carry on: the
    others leave the pass, which neither yields nor expands them.  Raises
    ResourceCapError once the layers after the start carry more than
    ``channel.STATE_CAP`` states in total (read at the call).
    """
    exact = f2.dtype == object
    graph = _MoveGraph(moves, f1)
    votes = np.array([ORIGIN], dtype=np.intp)
    ids, mass = graph.ids(votes), mass[None, :]
    touched = 0
    for k in itertools.count(1):
        yield votes, mass
        graph.expand(ids)
        # each source's moves, in layer order: flat entries start[i]:start[i] + count[i]
        count = graph.count.take(ids)
        first = np.cumsum(count) - count
        flat = np.repeat(graph.start.take(ids) - first, count) + np.arange(count.sum())
        target = graph.target.take(flat)
        step = mass.take(np.repeat(np.arange(ids.size), count), axis=0)
        combine = np.multiply if exact else np.add  # (mass . f1) . f2, in place
        combine(step, graph.factor.take(flat)[:, None], out=step)
        combine(step, f2[graph.code.take(flat)], out=step)
        # the targets in order of first arrival, and each move's row among them
        arrival = np.arange(target.size)
        slot = np.full(len(graph.number), target.size)
        np.minimum.at(slot, target, arrival)
        ids = target[slot[target] == arrival]
        slot[ids] = np.arange(ids.size)
        shape = (ids.size, mass.shape[1])
        mass = np.zeros(shape, dtype=object) if exact else np.full(shape, -math.inf)
        (np.add if exact else np.logaddexp).at(mass, slot[target], step)
        votes = graph.votes.take(ids, axis=0)  # take gathers rows faster than votes[ids]
        keep = None if settle is None else settle(k, votes, mass)
        if keep is not None:
            ids, votes, mass = ids[keep], votes[keep], mass[keep]
        touched += ids.size
        channel.check_cap(touched, "forward pass touches {} states")


def contenders(d: np.ndarray, left: int) -> tuple[np.ndarray, np.ndarray]:
    """``(near, lim)`` per vote triple (d[0][i], d[1][i], d[2][i]): ``lim`` is
    the fewest votes plus ``left``, in the votes' type, and ``near`` counts
    the messages with at most ``lim`` votes (uint8, 1 to 3), the only ones
    that ``left`` more uses could leave with the fewest votes.

    One use puts a vote on the query or on each of the other two messages,
    so it closes the gap between any two messages by at most one.  A triple
    with one contender is decided: it decodes to its present leader, with no
    tie, whatever its remaining uses give.  After k uses no gap exceeds k,
    so no triple is decided while k <= ``left``.  The Monte Carlo engine
    reads (3, trials) rows of the narrowest unsigned type that holds the
    horizon, in which lim (at most the horizon) fits; the forward pass reads
    the transposed (states, 3) intp votes.
    """
    lim = np.minimum(np.minimum(d[0], d[1]), d[2])
    lim += left
    near = (d[0] <= lim).view(np.uint8) + (d[1] <= lim).view(np.uint8)
    near += (d[2] <= lim).view(np.uint8)
    return near, lim


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

# (state votes, masses with one column per true message, denominator, settled):
# settled is the retired states' error mass over the same denominator (see
# _forward_layers), 0 for a pass that retires none
Layer = tuple[np.ndarray, np.ndarray, int, int]


def _error_mass(votes: np.ndarray, mass: np.ndarray, trues: Sequence[int]) -> int:
    """The integer sum of mass * 6 * error over integer masses of states ``votes``."""
    return (mass * _error_sixths(votes, trues).astype(object)).sum()


def _forward_factors(
    ch: ChannelParams, weights: list[Number], trues: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``propagate``'s factor tables for ``move_batch``'s ``weights``, with the
    start state's masses and the denominator's factor per use: (f1, f2,
    start masses, step).

    A move's code is the set of true messages its answer agrees with (bit
    t-1 for message t), and f2 is the channel factor for agreement or not.
    Rational masses are integers over one denominator per layer, (L*c)**t
    after t uses, for p = a/c and L the least common denominator of the
    weights: querying j with weight w moves w*L times b = c - a when the
    answer agrees with the truth and w*L times a when it does not.
    Log-float masses are natural logs (a zero weight moves -inf) and the
    denominator stays 1.
    """
    if ch.exact:
        a, c, scale = ch.p.numerator, ch.p.denominator, math.lcm(*(w.denominator for w in weights))
        fp, fq, start, step, dtype = a, c - a, 1, scale * c, object
        f1 = [w.numerator * (scale // w.denominator) for w in weights]
    else:
        fp, fq, start, step, dtype = math.log(ch.p), math.log(ch.q), 0.0, 1, float
        f1 = [math.log(float(w)) if w else -math.inf for w in weights]
    f1 = np.array([[f] * 8 for f in f1], dtype).reshape(-1, 8)  # one factor per weight, any code
    f2 = np.array([[fq if code >> (t - 1) & 1 else fp for t in trues] for code in range(8)], dtype)
    return f1, f2, np.full(len(trues), start, dtype), step


def _forward_layers(
    ch: ChannelParams, rule: StrategyRule, trues: Sequence[int], horizon: int
) -> Iterator[Layer]:
    """Layers after 0, 1, 2, ... uses, one mass column per true message in
    ``trues``, up to ``horizon`` uses, the last one a caller may take; the
    moves and the decided states are those of that horizon.

    The moves and the order of first arrival depend on the rule only, so
    every conditioning steps on one graph, with ``_forward_factors``' masses.
    An exact pass of a rule other than a table drops each decided state
    (``contenders`` with horizon - k uses left after k uses) from the layer
    in which it is decided: its decode is fixed, and such a rule's rows
    pass every mass on whole, so its mass reaches the horizon.  Its integer
    mass * 6 * error joins the layer's ``settled`` sum, which every later
    layer scales by L*c with the denominator, so each layer's error counts
    the states retired before it.  No state is decided before
    k = horizon // 2 + 1.
    A float pass keeps every state, so that its doubles fold in the same
    order, and so does a table, so that a state missing from it raises
    wherever a pass reaches it.
    """
    moves, weights = move_batch(rule, horizon=horizon)
    f1, f2, start, step = _forward_factors(ch, weights, trues)
    settled = 0

    def settle(k: int, votes: np.ndarray, mass: np.ndarray) -> np.ndarray | None:
        nonlocal settled
        settled *= step
        if k <= horizon // 2:
            return None
        gone = contenders(votes.T, horizon - k)[0] == 1
        if not gone.any():
            return None
        settled += _error_mass(votes[gone], mass[gone], trues)
        return ~gone

    retire = ch.exact and rule.kind != "table"
    den = 1
    for votes, mass in propagate(moves, f1, start, f2, settle if retire else None):
        yield votes, mass, den, settled
        den *= step


def _forward_layer(n: int, ch: ChannelParams, rule: StrategyRule, trues: Sequence[int]) -> Layer:
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    return next(itertools.islice(_forward_layers(ch, rule, trues, n), n, None))


def _conditionings(rule: StrategyRule) -> tuple[int, ...]:
    return (1,) if rule.equivariant else (1, 2, 3)


def _mean_error(layer: Layer, trues: Sequence[int], exact: bool) -> Number:
    """Terminal error of a layer given true message ``trues`` (one or all three).

    Exact: one Fraction from the integer sum of mass * 6 * error, the
    retired states' ``settled`` sum included.
    Log-float: per conditioning, the error states' masses folded in layer
    order by ``np.logaddexp.accumulate``, which folds sequentially.
    """
    votes, mass, den, settled = layer
    if exact:
        return Fraction(settled + _error_mass(votes, mass, trues), 6 * len(trues) * den)
    sixths = _error_sixths(votes, trues)
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


def _lattice_size(kmax: int) -> int:
    """The number of states in lattice kmax (see _lattice_coords)."""
    return (kmax + 1) * (kmax + 2) // 2


def _lattice_coords(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of a and b over lattice kmax in lattice order.

    Lattice kmax is the sorted metric states (0, a, b), a <= b <= kmax, and
    lattice order puts (0, a, b) at index b(b+1)/2 + a, so each lattice is
    a prefix of the next.
    """
    b = np.repeat(np.arange(kmax + 1), np.arange(1, kmax + 2))
    return np.arange(b.size) - b * (b + 1) // 2, b


def _successor_tables(kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Successor indices and min-shift flags of every state of lattice kmax.

    Both arrays have shape (3 positional queries, 2 outcomes y, states).
    ``succ[j, y, i]`` is the lattice index of the sorted state reached when
    query j+1 is answered y at state i (y=1 votes against the queried
    message, y=0 against the other two); ``shift[j, y, i]`` says that the
    outcome voted against every message at the minimum, so the minimum rose
    by one.  Successors lie in lattice kmax + 1, and the tables of
    kmax serve every smaller lattice by slicing.
    """
    a, b = _lattice_coords(kmax)
    votes = np.stack([np.zeros_like(a), a, b], axis=1)
    succ = np.empty((6, a.size), dtype=np.intp)
    shift = np.empty((6, a.size), dtype=bool)
    for i, cast in enumerate(_VOTES[1:].reshape(6, 1, 3)):  # one (j, y) at a time holds less
        v, low = _outcomes(votes, cast)
        x, y, z = v[:, 0, 0], v[:, 0, 1], v[:, 0, 2]
        hi = np.maximum(np.maximum(x, y), z)  # sorted, the successor is (0, x + y + z - hi, hi)
        succ[i], shift[i] = hi * (hi + 1) // 2 + x + y + z - hi, low[:, 0] > 0
    return succ.reshape(3, 2, -1), shift.reshape(3, 2, -1)


FLOAT_TIE_TOL = 1e-12
# Below the smallest normal double the spacing of doubles is fixed (2**-1074), so
# float ties also allow FLOAT_TIE_TOL of that double: each layer rounds a subnormal
# mass by at most 1.5 of those ulps, and this allows about 4,500 of them.  Above
# about 2e-304 the term is below half an ulp of the relative bound and adds nothing.
_SUBNORMAL_TIE = FLOAT_TIE_TOL * sys.float_info.min

# One backward layer: (the query error masses (3, states) of the lattice prefix it
# evaluated, their minimum, tie mask, and an exact layer's gap-walk candidates move
# and wait, None in a float layer); see backward_layers
BackwardLayer = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]


@dataclass(eq=False)
class ValueTable:
    """Scale and per-horizon results of backward induction up to ``horizon`` uses.

    Layer t (t = 0..horizon uses left) covers lattice horizon - t in
    lattice order (see _lattice_coords); each BackwardLayer evaluates a
    prefix of it, of ``best.size`` states.  A scaled error mass m at
    lattice index i of layer t is the error probability
    m / (step**t * norms[i]) (``probability``), where
    ``norms[i]`` is the state's likelihood sum Z(s) under the same scale.
    ``exact`` follows the channel: exact masses are Python integers with
    step = c for p = a/c, float masses are doubles with step = 1.  The
    table keeps no layer: ``origin[t]`` is the mass of (0,0,0) in layer t,
    and ``ties[k]`` counts the (t >= 1, state) entries with k optimal
    queries; ``backward_layers`` fills both as it runs.
    """

    horizon: int
    exact: bool
    norms: np.ndarray = field(repr=False)
    step: Number
    origin: list = field(repr=False)
    ties: np.ndarray = field(repr=False)

    def probability(self, t: int, i: int, mass) -> Number:
        """A mass at lattice index i of layer t, in probability units."""
        den = self.step**t * self.norms[i]
        return Fraction(mass, den) if self.exact else float(mass / den)

    def optimal_error(self, t: int | None = None) -> Number:
        """Minimum error probability at horizon t (defaults to the table's)."""
        t = self.horizon if t is None else t
        return self.probability(t, 0, self.origin[t])

    def tie_counts(self) -> tuple[int, int, int]:
        """Number of (t >= 1, state) entries with 1, 2 and 3 optimal queries."""
        return int(self.ties[1]), int(self.ties[2]), int(self.ties[3])

    @property
    def tie_tolerance(self) -> float:
        """The relative slack of a float tie (see backward_layers); exact ties are equalities."""
        return 0.0 if self.exact else FLOAT_TIE_TOL


def backward_layers(
    n: int, ch: ChannelParams, state_cap: int | None = None
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

    An exact channel writes p = A/c, B = c - A and runs on the integers
    J_t = c**t * B**n * E_t: J_0(s) = A**s_2 B**(n-s_2) + A**s_3 B**(n-s_3)
    and the weights are A and B, so there is no Fraction and no gcd, and
    optimal-query ties are exact integer equalities.  A float channel runs
    the same loop on doubles with weights (p, q); each layer adds at most a
    few roundings to positive terms, so the relative error of P_e* stays
    within about 4n * 2**-53 of the value for the given double p (measured
    against the exact kernel: 1.3e-15 at p = 0.1, n = 150; 5.3e-15 at
    p = 0.001, n = 150) while P_e* stays far above the smallest double.
    Leaf masses that underflow at the lattice edge add only absolute error
    below it.  Float ties are the queries within a relative FLOAT_TIE_TOL
    of the minimum mass plus FLOAT_TIE_TOL of the smallest normal double,
    since a subnormal mass keeps only an absolute precision.

    With t uses left an exact layer evaluates the min-of-sums only on the
    three-contender triangle, the states (0, a, b) with b <= min(t, n - t),
    which lattice order puts first, through the prefix of the successor
    table; the rest of its lattice follows from a walk on one gap.  One use
    closes a gap by at most one, so with b > t message 3 can never again
    have fewest votes.  Write G_0(g) = A**g * B**(n - g) and
    X_t(b) = c**t * A**b * B**(n - b), so that J_0(0, a, b) = G_0(a) + X_0(b).
    Then every state with b > t has

        J_t(0, a, b) = G_t(a) + X_t(b)
        G_t(g) = min(move_t(g), wait_t(g))     for g <= t
        G_t(g) = c**t * G_0(g)                 for g > t
        move_t(0) = 2B * G_{t-1}(1)
        move_t(g) = A * G_{t-1}(g - 1) + B * G_{t-1}(g + 1)    (g >= 1)
        wait_t(g) = c * G_{t-1}(g)

    Proof, by induction on t: every successor of (0, a, b) has a third count
    of b - 1, b or b + 1, all above t - 1, so the identity holds there.  At
    a >= 1, query 1 answered 1 (weight A, the minimum rises) reaches
    (0, a - 1, b - 1) and answered 0 (weight B) reaches (0, a + 1, b + 1);
    query 2 reaches (0, a + 1, b) by B and (0, a - 1, b) by A; query 3
    reaches (0, a, b + 1) by B and (0, a, b - 1) by A.  At a = 0 queries 1
    and 2 both reach (0, 1, b) and (0, 1, b + 1), each by B, and query 3
    moves as before.  In each sum the X terms add to
    c**(t-1) * A**b * B**(n-b) * (A + B) = X_t(b), and the G terms give
    move_t(a) for queries 1 and 2 and wait_t(a) for query 3: a walk on the
    gap between messages 1 and 2 in which query 3 waits one use.  At a > t
    the state is decided (``contenders`` gives it one contender): every
    query gives c**t * J_0, and move_t = wait_t = c**t * G_0 there.

    Query 1, which has fewest votes, is optimal at every such state, so
    Theorem 2 holds there: move_t <= wait_t.  Write S for the step
    G_{t-1} -> move_t; it has positive weights, so it keeps an order, and
    it commutes with the factor c.  At t = 1, S G_0 = c * G_0 = wait_1 at
    g >= 1 and S G_0(0) = 2A * B**n <= c * B**n = wait_1(0), since
    2A <= c; so G_1 = S G_0.  If G_t = S G_{t-1} (at g > t both are the
    closed form), then, since G_t <= c * G_{t-1},
    move_{t+1} = S G_t <= c * S G_{t-1} = c * G_t = wait_{t+1}.  So queries
    1 and 2 tie with mass move_t(a) + X_t(b), and query 3, with
    wait_t(a) + X_t(b), ties with them exactly when move_t(a) = wait_t(a).
    That is everywhere at p = 1/2, as 2A = c, and below it where t - a is
    even: wait_t - move_t = S**(t-1) of (c - 2A) * B**n at gap 0 alone, which
    reaches gap a only by a walk of t - 1 steps from a to 0.  Nothing here
    assumes that parity.  ``ties`` counts each such state with
    three or two optimal queries from that equality, and a decided state as
    a three-way tie.  The step keeps both candidates, so these are exact
    integer comparisons.

    Layer t + 1 reads successors with b up to min(t + 2, n - t), so the
    lattice array it reads holds layer t's triangle and, for b in
    {t + 1, t + 2}, G_t(a) + X_t(b) at every a: the band a <= t and the
    decided states.  A float layer evaluates every state, so that no double
    moves.  The state cap still counts every lattice state, C(n + 3, 3).

    Returns the ValueTable, holding layer 0, and an iterator that computes
    each further layer from the one before alone, records it in the table
    and yields it as a BackwardLayer (vals, best, ties, move, wait) over
    the lattice prefix it evaluates, lattice min(t, n - t) in an exact
    layer (the triangle) and lattice n - t in a float one: ``vals`` holds
    their per-query masses (3, states), ``best`` the minimum and ``ties``
    the optimal queries.  ``move`` and ``wait`` are an exact layer's
    move_t(g) and wait_t(g) for g = 0..min(t, n - t), which place the band;
    a float layer carries None for both.  The next layer reads the yielded
    minimum masses as the caller leaves them.  Raises ResourceCapError up
    front when the layers exceed ``state_cap`` states (by default
    ``channel.STATE_CAP``, read at the call).
    """
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    total = (n + 1) * (n + 2) * (n + 3) // 6  # C(n + 3, 3), the states of lattices 0..n
    channel.check_cap(total, "backward induction needs {} state evaluations", state_cap)
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
        norms=powers[0] + start,
        step=step,
        origin=[start[0]],
        ties=np.zeros(4, dtype=np.int64),
    )
    succ, shift = _successor_tables(n - 1)
    weights = np.array([w_stay, w_shift], dtype=powers.dtype)[shift.astype(np.intp)]

    def layers() -> Iterator[BackwardLayer]:
        prev, gap = start, powers[:3]  # gap: G_{t-1}(g) for g = 0..min(t + 1, n - t + 1)
        for t in range(1, n + 1):
            size = _lattice_size(n - t)
            k = _lattice_size(min(t, n - t)) if exact else size
            to, w = succ[:, :, :k], weights[:, :, :k]
            vals = w[:, 0] * prev[to[:, 0]] + w[:, 1] * prev[to[:, 1]]
            best = np.minimum(np.minimum(vals[0], vals[1]), vals[2])
            ties = vals == best if exact else vals <= best * (1 + FLOAT_TIE_TOL) + _SUBNORMAL_TIE
            table.origin.append(best[0])
            table.ties += np.bincount(ties.sum(axis=0), minlength=4)
            move = wait = None
            if exact:  # the gap walk, g = 0..min(t, n - t); see above
                top = min(t, n - t)
                move = np.empty(top + 1, dtype=object)
                move[0] = 2 * w_stay * gap[1]
                move[1:] = w_shift * gap[:top] + w_stay * gap[2:top + 2]
                wait = step * gap[:top + 1]
                # each g <= t has n - 2t band states, with two or three optimal queries
                band, tied = max(n - 2 * t, 0), int((move == wait).sum())
                table.ties[2] += band * (move.size - tied)
                table.ties[3] += band * tied + size - k - band * move.size  # and the decided
            yield vals, best, ties, move, wait
            del vals, ties  # the caller may drop its copies before the next layer
            if exact:  # G_t, then the lattice min(t + 2, n - t) that layer t + 1 reads
                scale, kmax = step**t, min(t + 2, n - t)
                gap = np.concatenate([np.minimum(move, wait), scale * powers[top + 1:kmax + 1]])
                prev = np.empty(_lattice_size(kmax), dtype=object)
                prev[:k] = best
                for row in range(t + 1, kmax + 1):  # J_t = G_t(a) + X_t(b) at b = row, every a
                    first = _lattice_size(row - 1)
                    prev[first:first + row + 1] = gap[:row + 1] + scale * powers[row]
            else:
                prev = best

    return table, layers()


def bellman_optimum(
    n: int, ch: ChannelParams, state_cap: int | None = None
) -> tuple[Number, ValueTable]:
    """Minimum achievable error over all metric-state strategies.

    Drains ``backward_layers`` (which see), one layer at a time.  Returns
    (optimal error at horizon n, value table); the table also yields every
    shorter horizon via ``optimal_error(t)``.
    """
    table, layers = backward_layers(n, ch, state_cap)
    collections.deque(layers, maxlen=0)  # drains it, dropping each layer as it comes
    return table.optimal_error(), table


# a query set as a 3-bit mask, bit j - 1 for query j, and the queries of each mask
_QUERY_BITS = np.array([1, 2, 4])
_QUERY_SETS = [tuple(j for j in (1, 2, 3) if mask >> (j - 1) & 1) for mask in range(8)]


def optimal_query_report(n: int, ch: ChannelParams, detail: bool = False) -> dict:
    """Check, state by state, that some fewest-votes query is Bellman-optimal.

    For every reachable (remaining time t, state): the verdict is "member"
    when the argmax query set meets the fewest-votes set; the deficit is
    the value lost by the best fewest-votes query.  Strict multi-step
    dominance is counted but not asserted.  The check consumes
    ``backward_layers``, reading each layer's per-query error masses
    (integers for an exact channel) at the lattice prefix it evaluates, and
    scatters their membership, loss and argmax into arrays over the whole
    lattice; a deficit is converted to a probability only when nonzero.
    Every other state is decided or on an exact layer's two-contender band.
    A decided state ties all three queries and only message 1 has fewest
    votes, so it keeps the defaults, a member with deficit 0, argmax
    (1, 2, 3) and fewest-votes (1,), and is never strict.  A band state
    (0, a, b), a <= t < b, is a member with deficit 0 too, since query 1
    is optimal there (see backward_layers); its argmax is (1, 2, 3) where
    the layer's move and wait tie at a, else (1, 2), and it is strict just
    at a = 0 when query 3 loses, since then queries 1 and 2 are its
    fewest-votes queries.
    ``detail`` adds one verdict row per reachable (t, state), all built in
    one pass in (a, b) order.  Rows share their immutable parts: one state
    tuple per lattice state, the query-set tuples and one zero, which
    ``serialize`` writes once each.

    After k uses the reachable states are all of lattice k, the sorted
    states with counts up to k (see _lattice_coords), except
    (0,0,0) at k = 1: a use raises b by at most one, and every outcome at
    (0,0,0) votes against one or two messages.  Each (0,a,b) of lattice k+1
    follows from one of lattice k: from (0,a,b+1) if b < k, (0,a+1,k) if
    a < b = k, (0,k-1,k-1) if a = b = k, (0,min(a,k),k) if b = k+1; and
    at k = 1, (0,0,1) gives (0,1,1).
    """
    table, layers = backward_layers(n, ch)
    zero: Number = Fraction(0) if ch.exact else 0.0
    # --detail rows share their parts: one tuple per state of lattice n - 1, in lattice order
    states = [(0, a, b) for b in range(n) for a in range(b + 1)] if detail else []
    coord_a, coord_b = _lattice_coords(n)
    # normalised states (0, a, b): message 1 always has fewest votes
    lead = np.stack([np.ones_like(coord_a, dtype=bool), coord_a == 0, coord_b == 0])
    fewest = _QUERY_BITS @ lead
    per_horizon = []
    per_state = []
    strict = 0
    for t, (vals, best, opt, move, wait) in enumerate(layers, 1):
        size, evaluated = _lattice_size(n - t), slice(best.size)  # a lattice prefix
        here = lead[:, evaluated]
        meets = (opt & here).any(axis=0)
        others_lose = (here | (vals > best)).all(axis=0)  # every other query is worse
        strict += int((meets & ~here.all(axis=0) & others_lose).sum())  # (0, 0, 0) never is
        # a state the layer did not evaluate is decided or on the band: deficit 0, a member
        loss, member, argmax = np.zeros(size, best.dtype), np.ones(size, bool), np.full(size, 7)
        loss[evaluated] = np.where(here, vals, vals[0]).min(axis=0) - best
        member[evaluated], argmax[evaluated] = meets, _QUERY_BITS @ opt
        if move is not None:  # the band rows b = t + 1..n - t, each a = 0..t
            rows = np.arange(t + 1, n - t + 1)
            argmax[(rows * (rows + 1) // 2)[:, None] + np.arange(move.size)] = np.where(
                move == wait, 7, 3)
            strict += rows.size * int(wait[0] > move[0])
        # the reachable states by (a, b): lattice n - t, without (0, 0, 0) when n - t = 1
        order = np.lexsort((coord_b[:size], coord_a[:size]))[int(n - t == 1):]
        loss, member = loss[order], member[order]
        hit = np.flatnonzero(loss != 0).tolist()
        lost = [table.probability(t, order[k], loss[k]) for k in hit]
        max_deficit, worst_state = max(lost, default=zero), None
        if max_deficit > zero:  # the first state with the largest deficit
            i = order[hit[lost.index(max_deficit)]]
            worst_state = (0, int(coord_a[i]), int(coord_b[i]))
        per_horizon.append(
            {
                "t": t,
                "states": order.size,
                "members": int(member.sum()),
                "max_deficit": max_deficit,
                "worst_state": worst_state,
            }
        )
        if detail:
            deficits = [zero] * order.size
            for k, d in zip(hit, lost):
                deficits[k] = d
            rows = zip(order.tolist(), member.tolist(), deficits,
                       argmax[order].tolist(), fewest[order].tolist())
            per_state.extend(
                {
                    "t": t,
                    "state": states[i],
                    "verdict": "member" if inside else "outside",
                    "deficit": d,
                    "argmax": _QUERY_SETS[best_set],
                    "fewest_votes": _QUERY_SETS[fewest_set],
                }
                for i, inside, d, best_set, fewest_set in rows
            )
    pe_star = table.optimal_error()
    channel.log_of(pe_star)  # raises if a float P_e* underflowed: never report it as 0
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
        layers = itertools.islice(_forward_layers(ch, rule, trues, n_max), 1, n_max + 1)
        pes = (_mean_error(layer, trues, ch.exact) for layer in layers)
    return [(n, pe, -channel.log_of(pe) / n) for n, pe in enumerate(pes, 1)]
