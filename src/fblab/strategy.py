"""Query strategies: metric state -> weights on the message indices 1..3;
``montecarlo.step`` draws a simulated query from them."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .belief import MetricState, check_state, leaders

QueryWeights = dict[int, Fraction]


@dataclass(frozen=True)
class StrategyRule:
    """A strategy is a pure function of the metric state.

    kinds: ``max-posterior`` splits its weight evenly over the fewest-votes
    messages; ``fixed`` always queries one message; ``round-robin`` cycles
    with the vote total (kept a state function on purpose); ``table`` looks
    the state up in an explicit map, as any other tie-break must.

    A rule is checked once, here.  Every table key must be a normalised
    state of three ints, and every value nonnegative int or Fraction
    weights on messages 1..3 that sum to exactly 1.  A state missing from
    the table fails only when a program reaches it, since which states
    occur depends on the horizon.
    """

    kind: str = "max-posterior"
    fixed_query: int | None = None
    table: dict[MetricState, QueryWeights] | None = field(default=None, hash=False)

    def __post_init__(self):
        if self.kind not in ("max-posterior", "fixed", "round-robin", "table"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.kind == "fixed" and self.fixed_query not in (1, 2, 3):
            raise ValueError("fixed strategy needs fixed_query in 1..3")
        if self.kind == "table":
            if self.table is None:
                raise ValueError("table strategy needs a table")
            for s, weights in self.table.items():
                _check_entry(s, weights)

    @property
    def equivariant(self) -> bool:
        """True when the rule commutes with message relabeling, so the exact
        DP may condition on a single true message."""
        return self.kind == "max-posterior"


def _check_entry(s: MetricState, weights: QueryWeights) -> None:
    if not (type(s) is tuple and len(s) == 3 and all(type(v) is int for v in s)):
        raise ValueError(f"table state {s!r} is not three integers")
    check_state(s)
    if not set(weights) <= {1, 2, 3}:
        raise ValueError(
            f"table entry for state {s} queries {sorted(weights)}: message index must be 1..3"
        )
    if any(type(w) not in (int, Fraction) for w in weights.values()):
        raise ValueError(f"table weights for state {s} must be ints or Fractions")
    if sum(weights.values()) != 1 or min(weights.values()) < 0:
        raise ValueError(f"table weights for state {s} must be nonnegative and sum to 1")


MAX_POSTERIOR = StrategyRule()


def select_query(rule: StrategyRule, s: MetricState) -> QueryWeights:
    """Weights on the message indices to query at state ``s``.

    The max-posterior rule depends only on the fewest-votes set, never on
    posterior magnitudes or the channel (at p = 1/2 all posteriors tie, but
    the vote ordering still defines the rule).
    """
    check_state(s)
    if rule.kind == "max-posterior":
        lead = leaders(s)
        w = Fraction(1, len(lead))
        return {j: w for j in lead}
    if rule.kind == "fixed":
        return {rule.fixed_query: Fraction(1)}
    if rule.kind == "round-robin":
        return {(sum(s) % 3) + 1: Fraction(1)}
    assert rule.table is not None
    try:
        return rule.table[s]
    except KeyError:
        raise ValueError(f"table strategy has no entry for reachable state {s}") from None


def _json_int(v: object, what: str) -> int:
    """``v`` if it is a JSON integer: neither a bool nor a float."""
    if type(v) is not int:
        raise ValueError(f"{what} {v!r} is not an integer")
    return v


def load_table(path: str | Path) -> StrategyRule:
    """Read a table rule from JSON: a list of {state: [i,j,l], query: k} or
    {state: ..., distribution: {"k": [num, den], ...}} entries.

    A query, numerator or denominator must be a JSON integer (not a bool or
    a float) and a distribution key exactly "1", "2" or "3".  A file that
    cannot be read or parsed, an object with a repeated key, a malformed
    entry, a state listed twice, or a table ``StrategyRule`` rejects raises
    ValueError naming the path.
    """
    try:
        entries = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read table strategy {path}: {exc}") from None
    if not isinstance(entries, list):
        raise ValueError(f"table strategy {path} must hold a JSON list of entries")
    table: dict[MetricState, QueryWeights] = {}
    for entry in entries:
        try:
            state = tuple(entry["state"])
            if state in table:
                raise ValueError(f"state {state} is listed twice")
            if "query" in entry:
                table[state] = {_json_int(entry["query"], "query"): Fraction(1)}
            else:
                table[state] = {}
                for k, (num, den) in entry["distribution"].items():
                    if k not in ("1", "2", "3"):
                        raise ValueError(f'distribution key {k!r} is not "1", "2" or "3"')
                    table[state][int(k)] = Fraction(
                        _json_int(num, "numerator"), _json_int(den, "denominator")
                    )
        except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"malformed entry {entry!r} in table strategy {path}: {exc!r}"
            ) from None
    try:
        return StrategyRule(kind="table", table=table)
    except ValueError as exc:
        raise ValueError(f"invalid table strategy {path}: {exc}") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object as a dict, raising ValueError where json keeps a repeated key's last value."""
    keys = [k for k, _ in pairs]
    for k in keys:
        if keys.count(k) > 1:
            raise ValueError(f"key {k!r} is repeated in one object")
    return dict(pairs)
