"""Oracles that only the tests read: the forward pass with every state
carried to the horizon, its layer view and error curve, and the sorted-state
lattice of backward induction with the backward pass that evaluates every
state of it."""

from fractions import Fraction

import numpy as np

from fblab import channel, exact_dp
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
    layers = exact_dp.propagate(moves, f1, start, f2)
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


def full_backward_layers(n, ch, state_cap=None):
    """``exact_dp.backward_layers`` as it was before it skipped decided states:
    every layer evaluates every state of its lattice, in lattice order, for
    an exact channel as for a float one, so its prefix is the whole lattice;
    like a float layer, it carries no gap walk (move and wait are None)."""
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
    s2, s3 = exact_dp._lattice_coords(n)
    start = powers[s2] + powers[s3]
    table = exact_dp.ValueTable(
        horizon=n,
        exact=exact,
        norms=powers[0] + start,
        step=step,
        origin=[start[0]],
        ties=np.zeros(4, dtype=np.int64),
    )
    succ, shift = exact_dp._successor_tables(n - 1)
    weights = np.array([w_stay, w_shift], dtype=powers.dtype)[shift.astype(np.intp)]

    def layers():
        prev = start
        for t in range(1, n + 1):
            size = exact_dp._lattice_size(n - t)
            to, w = succ[:, :, :size], weights[:, :, :size]
            vals = w[:, 0] * prev[to[:, 0]] + w[:, 1] * prev[to[:, 1]]
            prev = np.minimum(np.minimum(vals[0], vals[1]), vals[2])
            ties = (vals == prev if exact
                    else vals <= prev * (1 + exact_dp.FLOAT_TIE_TOL) + exact_dp._SUBNORMAL_TIE)
            table.origin.append(prev[0])
            table.ties += np.bincount(ties.sum(axis=0), minlength=4)
            yield vals, prev, ties, None, None
            del vals, ties  # the caller may drop its copies before the next layer

    return table, layers()
