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

from . import bounds, exact_dp
from .belief import MetricState, QuerySet, apply_outcome
from .channel import ChannelParams, Number
from .cubicfield import CubicExt
from .strategy import MAX_POSTERIOR, select_query

ChainState = MetricState

MAIN_STATE: ChainState = (0, 0, 0)
BASIC_STATES: tuple[ChainState, ...] = (
    (0, 1, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1),
)


def classify(s: ChainState) -> str:
    if s == MAIN_STATE:
        return "main"
    if s in BASIC_STATES:
        return "basic"
    return "tentacle"


def depth(s: ChainState) -> int:
    return max(s)


@dataclass(frozen=True)
class Transition:
    target: ChainState
    prob: Number
    label: str  # exact symbolic probability, e.g. "q/3"


@dataclass
class TransitionTable:
    """Transitions among states up to a tentacle depth bound.

    States with an out-edge beyond the bound are boundary states; their
    kept rows are partial and propagation treats the lost mass as gone
    (it cannot return within the horizons the bound admits).
    """

    depth_bound: int
    entries: dict[ChainState, tuple[Transition, ...]]
    boundary: frozenset[ChainState]

    @property
    def states(self) -> list[ChainState]:
        return sorted(self.entries, key=lambda s: (depth(s), s))


def _raw_transitions(s: ChainState, ch: ChannelParams) -> list[tuple[ChainState, Fraction, str]]:
    out: dict[ChainState, list[tuple[Fraction, str]]] = {}
    for j, w in select_query(MAX_POSTERIOR, s, ch).items():
        q_obj = QuerySet.singleton(j)
        for y in (0, 1):
            x = 0 if j == 1 else 1  # transmitter's bit when message 1 is true
            sym = "q" if y == x else "p"
            target = apply_outcome(s, q_obj, y)
            out.setdefault(target, []).append((w, sym))
    rows = []
    for target, pieces in out.items():
        label = " + ".join(
            sym if w == 1 else f"{sym}/{w.denominator}" for w, sym in pieces
        )
        rows.append((target, pieces, label))
    return sorted(rows, key=lambda r: r[0])


def _numeric(pieces, ch: ChannelParams) -> Number:
    total: Number = Fraction(0) if ch.exact else 0.0
    for w, sym in pieces:
        factor = ch.q if sym == "q" else ch.p
        total = total + (w * factor if ch.exact else float(w) * factor)
    return total


def derive_transitions(ch: ChannelParams, depth_bound: int) -> TransitionTable:
    """Build the chain by breadth-first expansion from the all-zero state."""
    if depth_bound < 1:
        raise ValueError("depth bound must be at least 1")
    entries: dict[ChainState, tuple[Transition, ...]] = {}
    boundary = set()
    frontier = [MAIN_STATE]
    seen = {MAIN_STATE}
    while frontier:
        nxt = []
        for s in frontier:
            kept = []
            for target, pieces, label in _raw_transitions(s, ch):
                if depth(target) > depth_bound:
                    boundary.add(s)
                    continue
                kept.append(Transition(target, _numeric(pieces, ch), label))
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


def reach_prob(
    n: int,
    ch: ChannelParams,
    mode: str = "rational",
    depth_bound: int | None = None,
) -> Number:
    """Probability of sitting at the all-zero state at time n, from time 0.

    Needs a tentacle depth of at least ceil(n/2): a path that dives deeper
    cannot climb back within the horizon, so truncation is exact.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    needed = max(1, -(-n // 2))
    if depth_bound is None:
        depth_bound = max(2, n)
    if depth_bound < needed:
        raise ValueError(f"depth bound {depth_bound} < required {needed} for n={n}")
    exact = mode == "rational"
    if exact:
        ch.require_exact("rational-mode reach probability")
    table = derive_transitions(ch, depth_bound)
    edges = {
        s: [(tr.target, tr.prob, 1) if exact else (tr.target, math.log(tr.prob), 0.0) for tr in row]
        for s, row in table.entries.items()
    }
    start = {MAIN_STATE: Fraction(1) if exact else 0.0}
    dist = next(itertools.islice(exact_dp.propagate(start, edges.__getitem__, mode), n, None))
    mass = dist.get(MAIN_STATE, Fraction(0) if exact else -math.inf)
    return mass if exact else math.exp(mass)


def enumerate_two_loops(s: ChainState, table: TransitionTable) -> list[tuple[ChainState, Number]]:
    """All length-2 closed paths at s, as (intermediate state, probability)."""
    if s not in table.entries:
        raise ValueError(f"state {s} not in table")
    loops = []
    for tr in table.entries[s]:
        for back in table.entries.get(tr.target, ()):
            if back.target == s:
                loops.append((tr.target, tr.prob * back.prob))
    return sorted(loops)


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


def _block_probs(ch: ChannelParams) -> tuple[Number, Number]:
    two = ch.p * ch.q
    three = ch.p * ch.q * ch.q
    return two, three


def series_basic(n: int, ch: ChannelParams, variant: str = "restricted"):
    """Return-probability series over hub-and-basic paths.

    restricted: exact sum over integer-feasible compositions (a valid lower
    bound; it equals the exact basic-only return probability).
    closed-form: the analytic stand-in (1/n) (pq^2)^(n/3) (1+z^(1/3))^(n(1+a0)/3)
    with a0 the optimal 2-block density.
    """
    if n < 2:
        raise ValueError("series need n >= 2")
    two, three = _block_probs(ch)
    comps = []
    for n2 in range(0, n // 2 + 1):
        rem = n - 2 * n2
        if rem % 3:
            continue
        n3 = rem // 3
        comps.append(PathComposition(n2=n2, n3=n3, k2=0, m=n2 + n3))
    if variant == "restricted":
        value = sum(
            (comb(c.m, c.n2) * two**c.n2) * three**c.n3 for c in comps
        )
        return value, comps
    if variant == "closed-form":
        p, q, z = float(ch.p), float(ch.q), float(ch.z)
        a0 = bounds.optimal_loop_density(ch.p).root
        log_v = (
            -math.log(n)
            + (n / 3.0) * math.log(p * q * q)
            + (n * (1.0 + a0) / 3.0) * math.log1p(z ** (1.0 / 3.0))
        )
        return math.exp(log_v), comps
    raise ValueError(f"unknown variant {variant!r}")


def closed_form_loop_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """(1/2) (pq^2)^(n/3) (1+z^(1/3))^n as an exact cubic-field element."""
    ch.require_exact("exact closed form")
    z = Fraction(ch.z)
    c = CubicExt.root(z)
    qc = c * Fraction(ch.q)  # (p q^2)^(1/3)
    return (qc**n) * ((CubicExt.of(1, z) + c) ** n) * Fraction(1, 2)


def series_with_loops(n: int, ch: ChannelParams, variant: str = "restricted"):
    """Return-probability series allowing generic 2-loops.

    restricted: exact sum over integer-feasible (k2, n3) with the
    sequential-arrangement count C(k2+n3, k2) (the looser printed count
    C(n, k2) overcounts at small n and is not a valid probability).
    closed-form: (1/2) (pq^2)^(n/3) (1+z^(1/3))^n; returns a flag marking
    whenever it exceeds the exact return probability, which the
    divisibility relaxation makes possible.
    """
    if n < 2:
        raise ValueError("series need n >= 2")
    two, three = _block_probs(ch)
    comps = []
    for k2 in range(0, n // 2 + 1):
        rem = n - 2 * k2
        if rem % 3:
            continue
        n3 = rem // 3
        comps.append(PathComposition(n2=0, n3=n3, k2=k2, m=k2 + n3))
    if variant == "restricted":
        value = sum(
            (comb(c.m, c.k2) * two**c.k2) * three**c.n3 for c in comps
        )
        return value, comps, None
    if variant == "closed-form":
        p, q, z = float(ch.p), float(ch.q), float(ch.z)
        log_v = (
            math.log(0.5)
            + (n / 3.0) * math.log(p * q * q)
            + n * math.log1p(z ** (1.0 / 3.0))
        )
        value = math.exp(log_v)
        if ch.exact:
            exceeds = closed_form_loop_bound_exact(n, ch) > reach_prob(n, ch)
        else:
            exceeds = value > reach_prob(n, ch, mode="log-float")
        return value, comps, exceeds
    raise ValueError(f"unknown variant {variant!r}")


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
