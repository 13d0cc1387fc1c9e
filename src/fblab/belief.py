"""Vote-count metric states, posteriors, and one-step query analysis.

A metric state is the triple of negative-vote counts above the running
minimum; it is a sufficient statistic for the decoder.  A query is a
message index j in {1, 2, 3}, the question "is the true message theta_j?".
Posteriors follow pi_i proportional to z**m_i with z = p/q.  Two
outcome-probability modes coexist:

* ``bayes`` -- mix over the queried message's own posterior; this is the
               coherent transition law (fixed-message posteriors are
               martingales under it).
* ``paper`` -- the printed one-step law that always mixes over the
               *leading* message's posterior, whichever message is
               queried.  It differs from bayes for queries off the
               leader; both are kept first-class on purpose.

Given the true message instead, the forward dynamic program and the
simulator encode agreement with it themselves.
"""

from __future__ import annotations

from .channel import ChannelParams, Number

MetricState = tuple[int, int, int]


def normalize(votes: tuple[int, int, int]) -> MetricState:
    """Shift a vote triple so its minimum is zero."""
    m = min(votes)
    return (votes[0] - m, votes[1] - m, votes[2] - m)


def check_state(s: MetricState) -> None:
    if len(s) != 3 or any(v < 0 for v in s) or min(s) != 0:
        raise ValueError(f"not a normalized metric state: {s}")


def leaders(s: MetricState) -> tuple[int, ...]:
    """Message indices with the fewest votes (the max-posterior set)."""
    lo = min(s)
    return tuple(i + 1 for i, v in enumerate(s) if v == lo)


def posteriors(s: tuple[int, int, int], ch: ChannelParams) -> tuple[Number, Number, Number]:
    """Posterior triple pi_i = z**m_i / sum_j z**m_j; exact in rational mode.

    Accepts unnormalized vote triples; posteriors are shift-invariant.
    """
    m = normalize(s)
    z = ch.z
    weights = [z**v for v in m]
    total = sum(weights)
    return tuple(wt / total for wt in weights)  # type: ignore[return-value]


def check_query(j: int) -> None:
    if j not in (1, 2, 3):
        raise ValueError(f"message index must be 1..3, got {j}")


def apply_outcome(s: MetricState, j: int, y: int) -> MetricState:
    """Advance the state one channel use of query j: y=1 votes against
    message j, y=0 votes against each other message; then renormalize."""
    check_state(s)
    check_query(j)
    if y not in (0, 1):
        raise ValueError(f"channel output must be 0 or 1, got {y}")
    votes = list(s)
    if y == 1:
        votes[j - 1] += 1
    else:
        for i in range(3):
            if i != j - 1:
                votes[i] += 1
    return normalize(tuple(votes))


def outcome_distribution(
    s: MetricState,
    j: int,
    ch: ChannelParams,
    mode: str = "bayes",
) -> dict[int, Number]:
    """Distribution of the channel output y for query j.

    bayes:        P(y=1) = pi_j p + (1 - pi_j) q with pi_j the queried
                  message's posterior.
    paper:        requires a unique leader; the outcome favorable to the
                  leader has probability p + (q - p) * pi_leader.
    """
    check_state(s)
    check_query(j)
    p, qq = ch.p, ch.q
    if mode == "bayes":
        pi_j = posteriors(s, ch)[j - 1]
        p1 = pi_j * p + (1 - pi_j) * qq
        dist = {0: 1 - p1, 1: p1}
    elif mode == "paper":
        lead = leaders(s)
        if len(lead) != 1:
            raise ValueError(
                "paper mode needs a unique leading message; tied leaders fall "
                "under the symmetric tie cases handled by the caller"
            )
        pi_lead = posteriors(s, ch)[lead[0] - 1]
        fav = p + (qq - p) * pi_lead
        y_fav = 0 if j == lead[0] else 1  # outcome that widens the leader's gap
        dist = {y_fav: fav, 1 - y_fav: 1 - fav}
    else:
        raise ValueError(f"unknown outcome mode {mode!r}")
    return {0: dist[0], 1: dist[1]}


def _leader_and_others(s: MetricState) -> tuple[int, int, int]:
    lead = leaders(s)
    if len(lead) != 1:
        raise ValueError("state has tied leaders; one-step values need a unique leader")
    i0 = lead[0]
    u, v = sorted(set((1, 2, 3)) - {i0})
    return i0, u, v


def one_step_values(s: MetricState, ch: ChannelParams, mode: str = "paper") -> tuple[Number, Number, Number]:
    """Expected next-step posterior of the current leader, per query.

    Returned in role order (query the leader, query the lower-indexed
    other, query the higher-indexed other).  Requires a unique leader.
    No command calls it; it stays in ``src/`` as the paper's printed one-step
    law, which the acceptance checks evaluate.
    """
    check_state(s)
    if mode not in ("paper", "bayes"):
        raise ValueError(f"one_step_values mode must be paper or bayes, got {mode!r}")
    i0, u, v = _leader_and_others(s)
    out = []
    for j in (i0, u, v):
        dist = outcome_distribution(s, j, ch, mode=mode)
        val = sum(
            dist[y] * posteriors(apply_outcome(s, j, y), ch)[i0 - 1] for y in (0, 1)
        )
        out.append(val)
    return tuple(out)  # type: ignore[return-value]


def one_step_gap(s: MetricState, ch: ChannelParams) -> Number:
    """Closed-form advantage of querying the leader over the lower-indexed
    rival under the paper-mode law; equals one_step_values(paper)[0] - [1].
    No command calls it; it stays in ``src/`` as the paper's printed one-step
    gap, which the acceptance checks evaluate."""
    check_state(s)
    i0, u, v = _leader_and_others(s)
    z = ch.z
    q = ch.q
    a2 = z ** (s[u - 1] - s[i0 - 1])
    a3 = z ** (s[v - 1] - s[i0 - 1])
    pi1 = posteriors(s, ch)[i0 - 1]
    term1 = (z + (1 - z) * pi1) / ((1 + (a2 + a3) * z) * (1 + a2 * z + a3))
    term2 = (1 - (1 - z) * pi1) / ((z + a2 + a3) * (1 + a2 / z + a3))
    return q * a3 * (1 - z) * (term1 - term2)
