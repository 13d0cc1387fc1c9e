"""Markov chain of metric states under the max-posterior strategy.

The diagram is derived mechanically by composing the strategy's query
distribution, the channel law conditioned on message 1 being true, and the
vote update; the printed transition tables serve as test vectors, never as
the source.  The shape is a hub (the all-zero state), six states one vote
away, and nine infinite tentacles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import bounds, channel, exact_dp
from .belief import MetricState
from .channel import ChannelParams, Number
from .cubicfield import CubicExt
from .strategy import MAX_POSTERIOR

ChainState = MetricState

MAIN_STATE: ChainState = (0, 0, 0)


def depth(s: ChainState) -> int:
    return max(s)


def classify(s: ChainState) -> str:
    return ("main", "basic", "tentacle")[min(depth(s), 2)]


@dataclass(frozen=True)
class Transition:
    target: ChainState
    prob: Number
    label: str  # exact symbolic probability, e.g. "q/3"


@dataclass
class TransitionTable:
    """Transitions among states up to a tentacle depth bound.

    States with an out-edge beyond the bound are boundary states; their
    kept rows are partial.
    """

    depth_bound: int
    entries: dict[ChainState, tuple[Transition, ...]]
    boundary: frozenset[ChainState]

    @property
    def states(self) -> list[ChainState]:
        return sorted(self.entries, key=lambda s: (depth(s), s))


def derive_transitions(ch: ChannelParams, depth_bound: int) -> TransitionTable:
    """Build the chain by breadth-first expansion from the all-zero state.

    Depth d gives 9d - 2 states, so this raises ResourceCapError before
    expanding when that exceeds ``channel.STATE_CAP`` (read at the call).

    The moves are ``exact_dp.move_batch``'s max-posterior moves, each
    state's sorted by target; bit 0 of a move's code says that its answer
    is the bit that message 1's transmitter sends (the channel factor q,
    else p).  A move adds e_j or 1 - e_j to the votes, and no two of these
    differ by a constant vector, so no two moves reach the same normalised
    target.
    """
    if depth_bound < 1:
        raise ValueError("depth bound must be at least 1")
    channel.check_cap(9 * depth_bound - 2, "chain derivation reaches {} states")
    moves, weights = exact_dp.move_batch(MAX_POSTERIOR, by_target=True)
    # (probability, label) by weight index and agreement
    edges = [[(w * f if ch.exact else float(w) * f, sym if w == 1 else f"{sym}/{w.denominator}")
              for sym, f in (("p", ch.p), ("q", ch.q))] for w in weights]
    entries: dict[ChainState, tuple[Transition, ...]] = {}
    boundary = set()
    frontier = [MAIN_STATE]
    seen = {MAIN_STATE}
    while frontier:
        nxt = []
        rows = (a.tolist() for a in moves(np.array(frontier, dtype=np.intp)))
        for s, targets, wids, codes, lives in zip(frontier, *rows):
            kept = []
            for target, w, code, live in zip(map(tuple, targets), wids, codes, lives):
                if not live:
                    continue
                if depth(target) > depth_bound:
                    boundary.add(s)
                    continue
                kept.append(Transition(target, *edges[w][code & 1]))
                if target not in seen:
                    seen.add(target)
                    nxt.append(target)
            entries[s] = tuple(kept)
        frontier = nxt
    return TransitionTable(depth_bound=depth_bound, entries=entries, boundary=frozenset(boundary))


# Printed reference tables: (target, weight denominator, channel factor).
# Seven groups, one per source state, in the printed order.
REFERENCE_TRANSITIONS: dict[ChainState, tuple[tuple[ChainState, int, str], ...]] = {
    (0, 0, 0): (
        ((0, 1, 1), 3, "q"), ((1, 0, 0), 3, "p"), ((1, 0, 1), 3, "p"),
        ((0, 1, 0), 3, "q"), ((1, 1, 0), 3, "p"), ((0, 0, 1), 3, "q"),
    ),
    (0, 1, 1): (((0, 0, 0), 1, "p"), ((0, 2, 2), 1, "q")),
    (1, 0, 1): (((0, 0, 0), 1, "q"), ((2, 0, 2), 1, "p")),
    (1, 1, 0): (((0, 0, 0), 1, "q"), ((2, 2, 0), 1, "p")),
    (1, 0, 0): (
        ((1, 0, 1), 2, "q"), ((2, 1, 0), 2, "p"),
        ((1, 1, 0), 2, "q"), ((2, 0, 1), 2, "p"),
    ),
    (0, 1, 0): (
        ((0, 2, 1), 2, "q"), ((1, 1, 0), 2, "p"),
        ((1, 2, 0), 2, "p"), ((0, 1, 1), 2, "q"),
    ),
    (0, 0, 1): (
        ((0, 1, 2), 2, "q"), ((1, 0, 1), 2, "p"),
        ((1, 0, 2), 2, "p"), ((0, 1, 1), 2, "q"),
    ),
}


def verify_reference_transitions(ch: ChannelParams) -> dict:
    """Compare the derived table against the seven reference groups.

    Mismatches are report entries, not exceptions; probabilities must
    match exactly.
    """
    table = derive_transitions(ch, depth_bound=2)
    groups = []
    all_match = True
    for state, expected in REFERENCE_TRANSITIONS.items():
        derived = {tr.target: tr.prob for tr in table.entries[state]}
        wanted: dict[ChainState, Number] = {}
        for target, den, sym in expected:
            factor = ch.q if sym == "q" else ch.p
            w = Fraction(1, den) if ch.exact else 1.0 / den
            wanted[target] = wanted.get(target, Fraction(0) if ch.exact else 0.0) + w * factor
        verdict = "match" if derived == wanted else "mismatch"
        if verdict != "match":
            all_match = False
        groups.append(
            {
                "state": state,
                "verdict": verdict,
                "derived": sorted((t, str(v)) for t, v in derived.items()),
                "expected": sorted((t, str(v)) for t, v in wanted.items()),
            }
        )
    return {"all_match": all_match, "groups": groups}


def reach_prob(n: int, ch: ChannelParams) -> Number:
    """Probability of sitting at the all-zero state at time n, from time 0.

    An exact channel propagates integer masses over (L*c)**t for p = a/c, L
    the lcm of the denominators of ``move_batch``'s weights, and returns a
    Fraction; a float channel propagates log-probabilities and returns a
    float.  The forward programs' kernel, ``exact_dp.propagate``, steps the
    chain's moves (those of ``derive_transitions``), with f1[w, code] the
    scaled integer or the log of the probability of a move of query weight
    w whose code's bit 0 picks q, else p, and f2 all ones.  A state that
    ``exact_dp.contenders`` gives one contender with n - k uses left after k
    can never return to the hub, nor can its successors, so the pass drops
    it; none is decided before k = n // 2 + 1.  The states it keeps, their
    order and so every fold are those of the pass that keeps all.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    exact = ch.exact
    moves, weights = exact_dp.move_batch(MAX_POSTERIOR, by_target=True)
    scale = math.lcm(*(w.denominator for w in weights)) * ch.p.denominator if exact else 1
    one, dtype = (1, object) if exact else (0.0, float)  # one: 1, or its log
    f1 = np.array([[int(w * f * scale) if exact else channel.log_of(float(w) * f)
                    for f in (ch.p, ch.q) * 4] for w in weights], dtype)  # by code & 1
    start, f2 = np.full(1, one, dtype), np.full((8, 1), one, dtype)

    def settle(k: int, votes: np.ndarray, mass: np.ndarray) -> np.ndarray | None:
        if k <= n // 2:
            return None
        keep = exact_dp.contenders(votes.T, n - k)[0] > 1
        return None if keep.all() else keep

    layers = exact_dp.propagate(moves, f1, start, f2, settle)
    votes, mass = next(itertools.islice(layers, n, None))
    at_hub = mass[(votes == 0).all(axis=1), 0].tolist()
    if exact:
        return Fraction(at_hub[0] if at_hub else 0, scale**n)
    return math.exp(at_hub[0] if at_hub else -math.inf)


@dataclass(frozen=True)
class PathComposition:
    """One feasible mix of building blocks in a return-path family."""

    n2: int  # hub-to-hub blocks of length 2
    n3: int  # hub-to-hub blocks of length 3
    k2: int  # generic 2-loops
    m: int   # total blocks

    @property
    def weight(self) -> int:
        return comb(self.m, self.n2 if self.n2 else self.k2)


def path_series(n: int, ch: ChannelParams, loops: bool, variant: str):
    """Return-path series over compositions of n into 2-blocks and 3-blocks,
    as (value, compositions).  The 3-blocks are hub-to-hub blocks; so are the
    2-blocks, or with ``loops`` they are generic 2-loops.

    restricted: the exact sum of weight * (pq)**(2-blocks) * (pq**2)**n3, a
    lower bound on the return probability (without loops, the exact
    basic-only one).  With loops the weight is the sequential-arrangement
    count C(k2+n3, k2); the printed C(n, k2) overcounts at small n.
    closed-form, in doubles: (1/n) (pq^2)^(n/3) (1+z^(1/3))^(n(1+a0)/3), a0
    the optimal 2-block density, or with loops (1/2) (pq^2)^(n/3)
    (1+z^(1/3))^n, which the divisibility relaxation lets exceed the exact
    return probability.
    """
    if n < 2:
        raise ValueError("series need n >= 2")
    if variant not in ("restricted", "closed-form"):
        raise ValueError(f"unknown variant {variant!r}")
    comps = []
    for k in range(n // 2 + 1):
        n3, rem = divmod(n - 2 * k, 3)
        if not rem:
            n2, k2 = (0, k) if loops else (k, 0)
            comps.append(PathComposition(n2=n2, n3=n3, k2=k2, m=k + n3))
    if variant == "restricted":
        two, three = ch.p * ch.q, ch.p * ch.q * ch.q
        try:
            return sum((c.weight * two ** (c.n2 + c.k2)) * three**c.n3 for c in comps), comps
        except OverflowError:  # a weight past the largest double: n >= 2538, series < e**-1003
            return 0.0, comps
    p, q, z = float(ch.p), float(ch.q), float(ch.z)
    if loops:
        lead, blocks = math.log(0.5), n
    else:
        lead, blocks = -math.log(n), n * (1.0 + bounds.optimal_loop_density(ch.p)) / 3.0
    log_v = lead + (n / 3.0) * channel.log_of(p * q * q) + blocks * math.log1p(z ** (1.0 / 3.0))
    return math.exp(log_v), comps


def closed_form_loop_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """(1/2) (pq^2)^(n/3) (1+z^(1/3))^n as an exact cubic-field element.

    (pq^2)^(1/3) = q z^(1/3), so this is ``bounds.error_lower_bound_exact``.
    """
    return bounds.error_lower_bound_exact(n, ch)


def _node_name(s: ChainState) -> str:
    return "".join(map(str, s)) if max(s) <= 9 else ",".join(map(str, s))


def export_dot(table: TransitionTable) -> str:
    """Deterministic DOT text for the chain diagram."""
    lines = ["digraph metric_chain {", "  rankdir=LR;"]
    for s in table.states:
        kind = classify(s)
        attrs = {
            "main": 'shape=doublecircle',
            "basic": 'shape=circle',
            "tentacle": 'shape=circle, style=dashed',
        }[kind]
        if s in table.boundary:
            attrs += ", color=gray"
        lines.append(f'  "{_node_name(s)}" [{attrs}];')
    for s in table.states:
        for tr in table.entries[s]:
            lines.append(f'  "{_node_name(s)}" -> "{_node_name(tr.target)}" [label="{tr.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_to_json(table: TransitionTable) -> dict:
    """JSON-ready dump: state, class, boundary flag, labeled out-edges."""
    return {
        "depth_bound": table.depth_bound,
        "states": [
            {
                "state": list(s),
                "class": classify(s),
                "boundary": s in table.boundary,
                "out": [
                    {"state": list(tr.target), "prob": tr.label} for tr in table.entries[s]
                ],
            }
            for s in table.states
        ],
    }
