"""Oracles that only the tests read: the forward pass with every state
carried to the horizon, its layer view and error curve, and the sorted-state
lattice of backward induction."""

from fractions import Fraction

from fblab import exact_dp
from fblab.belief import leaders


def sorted_lattice(kmax):
    """All sorted metric states (0, a, b), a <= b <= kmax, in lattice order:
    (0, a, b) at index b(b+1)/2 + a, so each lattice is a prefix of the next."""
    return [(0, a, b) for b in range(kmax + 1) for a in range(b + 1)]


def full_layers(ch, rule, trues, n):
    """Layers 0..n of the forward pass that drops no state, as (state votes,
    masses with one column per true message in ``trues``, denominator):
    integer masses over the denominator for an exact channel, natural logs
    (denominator 1) for a float one."""
    moves, weights = exact_dp.move_batch(rule, horizon=n)
    f1, f2, start, step = exact_dp._forward_factors(ch, weights, trues)
    layers = exact_dp.propagate(moves, f1, (0, 0, 0), start, f2)
    return [(votes, mass, step**k) for k, (votes, mass) in zip(range(n + 1), layers)]


def forward_distribution(n, ch, rule, true=1):
    """State distribution after n uses given the true message, its keys in
    order of first arrival: exact probabilities for an exact channel,
    natural-log probabilities for a float one."""
    votes, mass, den = full_layers(ch, rule, (true,), n)[n]
    dist = zip(map(tuple, votes.tolist()), mass[:, 0].tolist())
    if ch.exact:
        return {s: Fraction(m, den) for s, m in dist}
    return dict(dist)


def full_error_curve(ch, rule, n_max):
    """Exact P_e at horizons 0..n_max from the full layers: the error is
    1 - 1/k when the true message is one of k tied leaders, 1 when it is
    not, averaged over the true messages a rule that is not equivariant
    needs."""
    trues = (1,) if rule.equivariant else (1, 2, 3)
    curve = []
    for votes, mass, den in full_layers(ch, rule, trues, n_max):
        sixths = 0
        for s, row in zip(map(tuple, votes.tolist()), mass.tolist()):
            lead = leaders(s)
            sixths += sum(m * (6 - 6 // len(lead) if t in lead else 6) for t, m in zip(trues, row))
        curve.append(Fraction(sixths, 6 * len(trues) * den))
    return curve
