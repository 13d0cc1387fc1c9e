"""Exact forward error probability and belief-state backward induction.

The channel decides the arithmetic: an exact channel
(``make_channel(p, "rational")``) runs every program here in rational
arithmetic, a float channel (``make_channel(p, "float")``) in log-float
arithmetic; ``ChannelParams.arithmetic`` names it.

The forward pass computes the terminal-error probability of a fixed
strategy by propagating the metric-state distribution conditioned on the
true message (equivariant rules need one pass; others are averaged over
the three conditionings), in exact integer numerators over one denominator
per layer or in log-domain floats.  Its layer kernel, ``propagate``, also
steps the chain module's return probability.

The backward pass computes the minimum error over all metric-state
strategies under the bayes transition law.  The value function is
permutation symmetric, so it is tabulated on sorted states, one numpy
array per layer.  It runs on the unnormalised error mass
E_t(s) = Z(s) * (1 - V_t(s)), Z(s) = sum_i z**s_i, a min-recursion of
positive terms: for an exact channel on Python integers (E scaled by
powers of the numerator and denominator of p), for a float channel on
doubles with a relative error of a few machine epsilons per layer.  See
bellman_optimum.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .belief import MetricState, QuerySet, apply_outcome, leaders
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


def propagate(
    dist: dict[MetricState, Number],
    edges: Callable[[MetricState], Sequence[tuple[MetricState, Number, Number]]],
    exact: bool,
) -> Iterator[dict[MetricState, Number]]:
    """Yield ``dist``, then the distribution after each further step.

    ``edges(s)`` lists the moves out of state s as (target, f1, f2): with
    ``exact`` masses are exact (callers pass integers scaled to one
    common denominator per layer) and the move multiplies its source mass
    by f1 * f2; otherwise masses are natural logs, f1 + f2 is the
    move's log-probability and masses meeting at a target combine by
    logaddexp.  A state without moves loses its mass.  Raises ResourceCapError once the layers after
    ``dist`` hold more than STATE_CAP states in total.
    """
    touched = 0
    while True:
        yield dist
        nxt: dict[MetricState, Number] = {}
        for s, pr in dist.items():
            for target, f1, f2 in edges(s):
                if exact:
                    nxt[target] = nxt.get(target, 0) + pr * f1 * f2
                else:
                    nxt[target] = logaddexp(nxt.get(target, -math.inf), pr + f1 + f2)
        touched += len(nxt)
        if touched > STATE_CAP:
            raise ResourceCapError(f"forward pass touches {touched} states, cap is {STATE_CAP}")
        dist = nxt


def _error_sixths(s: MetricState, true: int) -> int:
    """6 * the error of uniform-tie max-posterior decoding given the true message.

    An integer: 0, 3, 4 or 6.  ``s`` is normalised, so its leaders are the
    messages with 0 votes.
    """
    return 6 - 6 // s.count(0) if s[true - 1] == 0 else 6


# Log of that error by its sixths: 1 - 1/k when the truth is one of k = 2 or
# 3 tied leaders, 1 when it is not a leader.  The double of 1 - 1/3 is one
# ulp above that of 4/6, so the constants are built from 1 - 1/k.
_LOG_ERROR = {3: math.log(1.0 - 1.0 / 2), 4: math.log(1.0 - 1.0 / 3), 6: math.log(1.0)}


Layer = tuple[dict[MetricState, Number], int]


def _forward_layers(ch: ChannelParams, rule: StrategyRule, true: int) -> Iterator[Layer]:
    """(distribution, denominator) given the true message after 0, 1, 2, ... uses.

    Rational masses are integers over one denominator per layer, (L*c)**t
    after t uses, for p = a/c and L the least common denominator of the
    rule's query weights: querying j with weight w moves w*L times b = c - a
    when the answer agrees with the truth and w*L times a when it does not.
    Log-float masses are natural logs and the denominator stays 1.
    """
    if ch.exact:
        scale = weight_denominator(rule)
        a, c = ch.p.numerator, ch.p.denominator
        fp, fq, start, step = a, c - a, 1, scale * c

        def factor(w: Fraction) -> int:
            return w.numerator * (scale // w.denominator)

    else:
        # cached so that the memoised edges share one factor object per weight
        factor = functools.cache(lambda x: math.log(float(x)))
        fp, fq, start, step = factor(ch.p), factor(ch.q), 0.0, 1

    @functools.cache
    def edges(s: MetricState) -> tuple[tuple[MetricState, Number, Number], ...]:
        out = []
        for j, w in select_query(rule, s, ch).items():
            q_obj = QuerySet.singleton(j)
            x = 0 if true == j else 1
            for y in (0, 1):
                out.append((apply_outcome(s, q_obj, y), factor(w), fq if y == x else fp))
        return tuple(out)

    dens = itertools.accumulate(itertools.repeat(step), operator.mul, initial=1)
    return zip(propagate({(0, 0, 0): start}, edges, ch.exact), dens)


def _forward_layer(n: int, ch: ChannelParams, rule: StrategyRule, true: int) -> Layer:
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    return next(itertools.islice(_forward_layers(ch, rule, true), n, None))


def forward_distribution(
    n: int, ch: ChannelParams, rule: StrategyRule, true: int = 1
) -> dict[MetricState, Number]:
    """State distribution after n uses given the true message.

    An exact channel gives exact probabilities; a float channel gives
    natural-log probabilities.
    """
    dist, den = _forward_layer(n, ch, rule, true)
    if ch.exact:
        return {s: Fraction(mass, den) for s, mass in dist.items()}
    return dist


def _terminal_error(dist: dict[MetricState, Number], true: int, exact: bool) -> Number:
    """Exact: the integer sum of mass * 6 * error; log-float: the error probability."""
    if exact:
        return sum(pr * _error_sixths(s, true) for s, pr in dist.items())
    acc = -math.inf
    for s, logp in dist.items():
        sixths = _error_sixths(s, true)
        if sixths:
            acc = logaddexp(acc, logp + _LOG_ERROR[sixths])
    return math.exp(acc)


def _mean_error(layers: Iterable[Layer], exact: bool) -> Number:
    """Terminal error from the layers given true message 1, 2, ... (one or all three).

    Exact layers give one Fraction built from the integer parts.
    """
    parts, dens = zip(
        *((_terminal_error(d, t, exact), den) for t, (d, den) in enumerate(layers, 1))
    )
    if exact:
        return Fraction(sum(parts), 6 * len(parts) * dens[0])
    return parts[0] if len(parts) == 1 else sum(parts) / 3


def forward_error_prob(n: int, ch: ChannelParams, rule: StrategyRule) -> Number:
    """Terminal decoding-error probability of ``rule`` at horizon n."""
    trues = (1,) if rule.equivariant else (1, 2, 3)
    return _mean_error((_forward_layer(n, ch, rule, t) for t in trues), ch.exact)


def sorted_lattice(kmax: int) -> list[MetricState]:
    """All sorted metric states (0, a, b), a <= b <= kmax.

    State (0, a, b) has index b(b+1)/2 + a, so each lattice is a prefix of
    the next.
    """
    return [(0, a, b) for b in range(kmax + 1) for a in range(b + 1)]


def _lattice_size(kmax: int) -> int:
    return (kmax + 1) * (kmax + 2) // 2


def _lattice_index(s: MetricState) -> int:
    return s[2] * (s[2] + 1) // 2 + s[1]


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


def reachable_layers(n: int) -> list[set[MetricState]]:
    """Sorted states reachable from (0,0,0) in exactly k steps, k = 0..n."""
    succ, _ = _successor_tables(n - 1)
    lattice = sorted_lattice(n)
    layers = [np.zeros(1, dtype=np.intp)]
    for _ in range(n):
        layers.append(np.unique(succ[:, :, layers[-1]]))
    return [{lattice[i] for i in layer} for layer in layers]


FLOAT_TIE_TOL = 1e-12


class _LayerView(Mapping):
    """Read-only {(t, sorted state): item} view of per-layer arrays, t = first..horizon."""

    def __init__(self, horizon: int, first: int, item: Callable[[int, int], object]) -> None:
        self._horizon, self._first, self._item = horizon, first, item

    def __getitem__(self, key):
        t, s = key
        if not (self._first <= t <= self._horizon and s[0] == 0
                and 0 <= s[1] <= s[2] <= self._horizon - t):
            raise KeyError(key)
        return self._item(t, _lattice_index(s))

    def __iter__(self):
        for t in range(self._first, self._horizon + 1):
            for s in sorted_lattice(self._horizon - t):
                yield (t, s)

    def __len__(self) -> int:
        return sum(_lattice_size(self._horizon - t) for t in range(self._first, self._horizon + 1))


@dataclass(eq=False)
class ValueTable:
    """Backward-induction error masses and optimal query sets on sorted states.

    Layer t (t = 0..horizon uses left) covers sorted_lattice(horizon - t) in
    lattice order.  ``masses[t][i]`` is the scaled error mass of state i:
    the error probability under optimal play from it is
    masses[t][i] / (step**t * norms[i]), where ``norms[i]`` is the state's
    likelihood sum Z(s) under the same scale.  ``exact`` follows the
    channel: an exact table stores Python integers with step = c for
    p = a/c, a float one stores doubles with step = 1.  ``ties[t][j, i]``
    says that query j+1 attains the minimum mass (t >= 1; ``ties[0]`` is
    None).

    ``values[(t, s)]`` (V_t(s), the probability of a correct decision as a
    Fraction or float) and ``argmax[(t, s)]`` (the frozenset of optimal
    queries) are read-only views built on access.
    """

    horizon: int
    exact: bool
    tie_tolerance: float
    masses: list[np.ndarray] = field(repr=False)
    ties: list[np.ndarray | None] = field(repr=False)
    norms: np.ndarray = field(repr=False)
    step: Number
    successors: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def probability(self, t: int, i: int, mass) -> Number:
        """A mass at state index i of layer t, in probability units."""
        den = self.step**t * self.norms[i]
        if self.exact:
            return Fraction(mass, den)
        return float(mass / den)

    def optimal_error(self, t: int | None = None) -> Number:
        """Minimum error probability at horizon t (defaults to the table's)."""
        t = self.horizon if t is None else t
        return self.probability(t, 0, self.masses[t][0])

    def query_masses(self, t: int) -> np.ndarray:
        """Error mass of every query at every state of layer t >= 1, shape (3, states).

        Needs only layer t - 1, so the kernel calls it while it builds the table.
        """
        size = _lattice_size(self.horizon - t)
        succ, w, prev = self.successors[:, :, :size], self.weights[:, :, :size], self.masses[t - 1]
        return w[:, 0] * prev[succ[:, 0]] + w[:, 1] * prev[succ[:, 1]]

    def tie_counts(self) -> tuple[int, int, int]:
        """Number of (t >= 1, state) entries with 1, 2 and 3 optimal queries."""
        counts = np.zeros(4, dtype=np.int64)
        for ties in self.ties[1:]:
            counts += np.bincount(ties.sum(axis=0), minlength=4)
        return int(counts[1]), int(counts[2]), int(counts[3])

    @property
    def values(self) -> Mapping[tuple[int, MetricState], Number]:
        return _LayerView(
            self.horizon, 0, lambda t, i: 1 - self.probability(t, i, self.masses[t][i])
        )

    @property
    def argmax(self) -> Mapping[tuple[int, MetricState], frozenset[int]]:
        return _LayerView(
            self.horizon, 1, lambda t, i: frozenset(j + 1 for j in range(3) if self.ties[t][j, i])
        )


def bellman_optimum(
    n: int, ch: ChannelParams, state_cap: int = STATE_CAP
) -> tuple[Number, ValueTable]:
    """Minimum achievable error over all metric-state strategies.

    Backward induction, under the bayes transition law, on the error mass
    over the sorted-state lattice.
    For a sorted state s (minimum 0) let Z(s) = sum_i z**s_i; the error
    mass E_t(s) = Z(s) * (1 - V_t(s)) with t uses left obeys

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

    Returns (optimal error at horizon n, full value table); the table also
    yields every shorter horizon via ``optimal_error(t)``.
    """
    if n < 0:
        raise ValueError("horizon must be nonnegative")
    exact = ch.exact
    total_states = sum(_lattice_size(k) for k in range(n + 1))
    if total_states > state_cap:
        raise ResourceCapError(
            f"backward induction needs {total_states} state evaluations, cap is {state_cap}"
        )
    if exact:
        a, c = ch.p.numerator, ch.p.denominator
        b = c - a
        powers = np.array([a**k * b ** (n - k) for k in range(n + 1)], dtype=object)
        w_shift, w_stay, step = a, b, c
    else:
        powers = ch.z ** np.arange(n + 1.0)
        w_shift, w_stay, step = ch.p, ch.q, 1.0
    succ, shift = _successor_tables(n - 1)
    weights = np.empty(shift.shape, dtype=powers.dtype)
    weights[shift] = w_shift
    weights[~shift] = w_stay
    s2, s3 = _lattice_coords(n)
    start = powers[s2] + powers[s3]
    table = ValueTable(
        horizon=n,
        exact=exact,
        tie_tolerance=0.0 if exact else FLOAT_TIE_TOL,
        masses=[start],
        ties=[None],
        norms=powers[0] + start,
        step=step,
        successors=succ,
        weights=weights,
    )
    for t in range(1, n + 1):
        vals = table.query_masses(t)
        best = np.minimum(np.minimum(vals[0], vals[1]), vals[2])
        table.masses.append(best)
        table.ties.append(vals == best if exact else vals <= best * (1 + FLOAT_TIE_TOL))
    return table.optimal_error(), table


def optimal_query_report(n: int, ch: ChannelParams, detail: bool = False) -> dict:
    """Check, state by state, that some fewest-votes query is Bellman-optimal.

    For every reachable (remaining time t, state): the verdict is "member"
    when the argmax query set meets the fewest-votes set; the deficit is
    the value lost by the best fewest-votes query.  Strict multi-step
    dominance is counted but not asserted.  Membership and strictness
    compare the kernel's per-query error masses (integers for an exact
    channel); a deficit is converted to a probability only when nonzero.
    ``detail`` adds one verdict row per (t, state).
    """
    pe_star, table = bellman_optimum(n, ch)
    log_of(pe_star)  # raises if a float P_e* underflowed: never report it as 0
    zero: Number = Fraction(0) if ch.exact else 0.0
    layers = reachable_layers(n)
    per_horizon = []
    per_state = []
    all_member = True
    overall_deficit = zero
    strict = tied = 0
    for t in range(1, n + 1):
        states = sorted(layers[n - t])
        masses = table.query_masses(t).T.tolist()
        ties = table.ties[t].T.tolist()
        max_deficit = zero
        worst_state = None
        members = 0
        for s in states:
            i = _lattice_index(s)
            vals, opt = masses[i], ties[i]
            best = min(vals)
            lead = leaders(s)
            lead_best = min(vals[j - 1] for j in lead)
            deficit = table.probability(t, i, lead_best - best) if lead_best != best else zero
            member = any(opt[j - 1] for j in lead)
            members += member
            if not member:
                all_member = False
            if deficit > max_deficit:
                max_deficit = deficit
                worst_state = s
            others = [vals[j - 1] for j in (1, 2, 3) if j not in lead]
            if member and others and all(v > best for v in others):
                strict += 1
            else:
                tied += 1
            if detail:
                per_state.append(
                    {
                        "t": t,
                        "state": s,
                        "verdict": "member" if member else "outside",
                        "deficit": deficit,
                        "argmax": [j for j in (1, 2, 3) if opt[j - 1]],
                        "fewest_votes": list(lead),
                    }
                )
        if max_deficit > overall_deficit:
            overall_deficit = max_deficit
        per_horizon.append(
            {
                "t": t,
                "states": len(states),
                "members": members,
                "max_deficit": max_deficit,
                "worst_state": worst_state,
            }
        )
    report: dict = {
        "horizon": n,
        "p": ch.p,
        "mode": ch.arithmetic,
        "optimal_error": pe_star,
        "per_horizon": per_horizon,
        "overall": {
            "all_member": all_member,
            "max_deficit": overall_deficit,
            "strict_states": strict,
            "non_strict_states": tied,
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
        trues = (1,) if rule.equivariant else (1, 2, 3)
        layers = zip(*(_forward_layers(ch, rule, t) for t in trues))
        pes = (_mean_error(layer, ch.exact) for layer in itertools.islice(layers, 1, n_max + 1))
    return [(n, pe, -log_of(pe) / n) for n, pe in enumerate(pes, 1)]
