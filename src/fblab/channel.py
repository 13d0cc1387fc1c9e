"""Binary symmetric channel parameters and reproducible noise sampling.

Probabilities come in two modes: exact (``fractions.Fraction``) and
float.  The mode is the one arithmetic choice: the dynamic programs and
closed forms run in rational arithmetic on an exact channel and in
log-float arithmetic on a float one; Monte Carlo needs a float channel.
Noise is generated by a counter-based generator: every bit is a pure
function of (seed, trial, purpose tag, step), so neither a replay nor the
batch size can change a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Number = Fraction | float

_MASK64 = (1 << 64) - 1

# SplitMix64 finalizer constants; frozen, do not change (stored results
# and pinned test vectors depend on them).
_PHI64 = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Purpose tags: each draw purpose owns an independent substream.
TAG_NOISE = 1
TAG_TIE = 2
TAG_TRUE = 3
TAG_DECODE = 4


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
        frac = Fraction(literal) if not isinstance(literal, float) else Fraction(literal)
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


@dataclass(frozen=True)
class Seed:
    """Root seed plus trial index; together they name one noise trajectory."""

    value: int
    trial: int = 0


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK64
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK64
    return x ^ (x >> 31)


def counter_hash(seed: int, trial: int, tag: int, step: int) -> int:
    """64-bit hash of (seed, trial, tag, step); the whole RNG is this function."""
    h = mix64(seed & _MASK64)
    h = mix64(h ^ ((trial * _PHI64) & _MASK64))
    h = mix64(h ^ ((tag * _PHI64) & _MASK64))
    h = mix64(h ^ ((step * _PHI64) & _MASK64))
    return h


def bernoulli_bit(h: int, p: float) -> int:
    """Top 53 hash bits against a fixed threshold; P(1) = p up to 2**-53."""
    return 1 if (h >> 11) < math.floor(p * 2.0**53) else 0


def uniform_index(h: int, k: int) -> int:
    """Uniform draw from range(k); modulo bias is < k * 2**-64."""
    return h % k


def sample_flip(ch: ChannelParams, seed: Seed, step: int) -> int:
    """Channel error bit for one use; 1 means the transmitted bit was flipped."""
    ch.require_float("sample_flip")
    h = counter_hash(seed.value, seed.trial, TAG_NOISE, step)
    return bernoulli_bit(h, ch.p)
