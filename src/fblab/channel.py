"""Binary symmetric channel parameters.

Probabilities come in two modes: exact (``fractions.Fraction``) and
float.  The mode is the one arithmetic choice: the dynamic programs and
closed forms run in rational arithmetic on an exact channel and in
log-float arithmetic on a float one; Monte Carlo needs a float channel.
Sampling the channel's noise is ``montecarlo``'s job.

The programs' shared limits live here too, in a module that loads no
numpy, so the CLI can read them before it imports a kernel: the state cap,
its error, its one check ``check_cap``, and ``log_of``, the log of a
probability in either mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Number = Fraction | float

# Most states one dynamic program may touch: lattice states over all layers
# of backward induction, states summed over layers of a forward pass, states
# the chain derivation reaches.  Every program checks it by check_cap, at the call.
STATE_CAP = 2_000_000


class ResourceCapError(RuntimeError):
    """Raised when a dynamic program would exceed its configured state cap."""


def check_cap(count: int, what: str, cap: int | None = None) -> None:
    """Raise ResourceCapError if ``count`` passes ``cap`` (STATE_CAP, read at the
    call, when None), with the message ``what.format(count)`` + ", cap is {cap}"."""
    cap = STATE_CAP if cap is None else cap
    if count > cap:
        raise ResourceCapError(f"{what.format(count)}, cap is {cap}")


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


@dataclass(frozen=True)
class ChannelParams:
    """BSC crossover probability p, complement q = 1 - p, ratio z = p/q."""

    p: Number
    q: Number
    z: Number
    exact: bool
    degenerate: bool  # p == 1/2 exactly; z == 1, posteriors frozen

    @property
    def arithmetic(self) -> str:
        """The dynamic programs' arithmetic, as results label it."""
        return "rational" if self.exact else "log-float"

    def require_exact(self, what: str) -> None:
        if not self.exact:
            raise ValueError(f"{what} requires a rational-mode channel")

    def require_float(self, what: str) -> None:
        if self.exact:
            raise ValueError(
                f"{what} requires a float-mode channel; exact analyses must not sample"
            )


def make_channel(literal: str | Fraction | float, mode: str = "rational") -> ChannelParams:
    """Build a channel from a probability literal ("a/b" or decimal).

    ``mode`` selects exact rational or float arithmetic.  p must lie in
    (0, 1/2], and in float mode its double must not be 0.0; p = 1/2 is
    accepted and flagged degenerate.
    """
    if mode not in ("rational", "float"):
        raise ValueError(f"unknown channel mode {mode!r}")
    try:
        frac = Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed probability literal {literal!r}: {exc}") from None
    if not 0 < frac <= Fraction(1, 2):
        raise ValueError(f"p must lie in (0, 1/2], got {literal!r}")
    degenerate = frac == Fraction(1, 2)
    if mode == "rational":
        p: Number = frac
        q: Number = 1 - frac
        z: Number = frac / (1 - frac)
    else:
        p = float(frac)
        if p == 0.0:
            raise ValueError(f"p = {literal!r} is 0.0 as a double; rational mode takes it exactly")
        q = 1.0 - p
        z = p / q
    return ChannelParams(p=p, q=q, z=z, exact=(mode == "rational"), degenerate=degenerate)
