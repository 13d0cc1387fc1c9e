"""Closed-form exponents, non-asymptotic bounds, and the simplex-code event.

Everything here is analytic: the decay exponents for two and three
codewords, the upper/lower bounds on the three-message error probability
(with exact cubic-field versions for tolerance-free comparisons), the
cubic root giving the optimal 2-loop density in the return-path series,
and the equal-likelihood event of the three-codeword simplex code.

Identity checks run at 50 significant digits (stdlib ``decimal``) so verdicts
never hinge on double rounding; plain doubles are used everywhere else.
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb

from .channel import ChannelParams, Number, log_of
from .cubicfield import CubicExt

IDENTITY_DPS = 50


@dataclass(frozen=True)
class ErrorExponents:
    f_fb: float  # three messages with noiseless feedback
    e2: float    # two codewords, no feedback needed
    e3: float    # three-codeword simplex, no feedback


def error_exponents(ch: ChannelParams) -> ErrorExponents:
    """(f_fb, e2, e3); strict ordering e2 > f_fb > e3 away from p = 1/2."""
    p, q = float(ch.p), float(ch.q)
    if p == 0.0:
        raise ArithmeticError("p underflows to 0.0 as a double, and the exponents use doubles")
    # 0.0 - x, not -x: at p = 1/2 the log is 0.0 and f_fb must not print as -0.0
    f_fb = 0.0 - math.log(p ** (1 / 3) * q ** (2 / 3) + p ** (2 / 3) * q ** (1 / 3))
    e2 = 0.5 * math.log(1.0 / (4.0 * p * q))
    e3 = e2 * 2.0 / 3.0
    if not ch.degenerate and not e2 > f_fb > e3:
        # in doubles 4pq rounds to 1 a few ulps below p = 1/2, and 1/(4pq) overflows for subnormal p
        raise ArithmeticError(
            f"exponent ordering e2 > f_fb > e3 fails in double precision at p={p}: "
            f"{e2}, {f_fb}, {e3}"
        )
    return ErrorExponents(f_fb=f_fb, e2=e2, e3=e3)


def _generator(ch: ChannelParams) -> CubicExt:
    ch.require_exact("exact bound arithmetic")
    return CubicExt.root(Fraction(ch.z))


def error_upper_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """Exact cubic-field value of the upper bound: q^n c^(n-1) (1+c)^n, c = z^(1/3).

    (q/p)^(1/3) = 1/c = c^2/z, so this is 2 c^2 / z times
    ``error_lower_bound_exact``.  No command calls it yet; the acceptance
    check that the upper bound dominates the strategy's error uses it, and
    ROADMAP item 3 gives it one."""
    return error_lower_bound_exact(n, ch) * (_generator(ch) ** 2 * (2 / Fraction(ch.z)))


def error_lower_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """Exact cubic-field value of the lower bound: (1/2) (q c (1+c))^n.

    This is the printed (1/2)-constant claim on the optimal three-message
    error probability.  It is false: the exact optimal error sits below it at
    220 points of the p in {1/20, 1/10, 1/5, 3/10, 2/5}, n = 0..48 grid (e.g.
    4/25 < 0.2052 at p=1/10, n=2).  Two thirds of it, the (1/3)-constant
    bound, holds at every point of that grid.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _generator(ch)
    z = Fraction(ch.z)
    one = CubicExt.of(1, z)
    return ((c * Fraction(ch.q)) ** n) * ((one + c) ** n) * Fraction(1, 2)


def _real_cbrt(x: Decimal) -> Decimal:  # exp(ln|x| / 3) with the sign of x
    return (abs(x).ln() / 3).exp().copy_sign(x)


def _decimal(f: Fraction) -> Decimal:  # rounded to the current context
    return Decimal(f.numerator) / f.denominator


def optimal_loop_density(p: Fraction | float) -> float:
    """Unique root in (0, 1/2) of (27-31p) a^3 + 3 p a - p = 0, as a double.

    This density of length-2 blocks maximizes the return-path count rate: the
    closed form with sign-preserving real cube roots (the inner radicand is
    negative), rounded to a double.  The cubic rises on (0, 1/2), so the root
    is within one ulp of that double iff the exact cubic is negative one ulp
    below it and positive one ulp above; else this raises (a branch bug).
    """
    pf = Fraction(p)
    if not Fraction(0) < pf < Fraction(1, 2):
        raise ValueError(f"p must lie in (0, 1/2), got {p}")
    with localcontext(Context(prec=IDENTITY_DPS)):
        pd = _decimal(pf)
        lead = 27 - 31 * pd
        disc = (27 * (1 - pd) / lead).sqrt()
        pref = _real_cbrt(pd / (2 * lead))
        # 1 - disc as -4p / (lead (1 + disc)): the subtraction loses its digits for tiny p
        root = float(pref * (_real_cbrt(1 + disc) + _real_cbrt(-4 * pd / (lead * (1 + disc)))))

    def cubic(a: float) -> Fraction:
        a = Fraction(a)
        return (27 - 31 * pf) * a**3 + 3 * pf * a - pf

    if not cubic(math.nextafter(root, 0.0)) < 0 < cubic(math.nextafter(root, 1.0)):
        raise ArithmeticError(f"closed-form root {root} is not within one ulp of the root at p={p}")
    return root


def loop_density_objective(p: Fraction | float, a: float) -> tuple[float, float]:
    """Rate of the return-path series at 2-block density a, with derivative.

    value = (1+a)ln(1+a) - 3a ln(3a) - (1-2a)ln(1-2a) - a ln(q/p)
    derivative = ln[p (1+a)(1-2a)^2 / (27 q a^3)]
    Defined on the open interval 0 < a < 1/2 (boundary logs diverge).
    """
    pf = float(Fraction(p))
    if not 0.0 < pf <= 0.5:
        raise ValueError(f"p must lie in (0, 1/2], got {p}")
    if not 0.0 < a < 0.5:
        raise ValueError(f"density must lie strictly inside (0, 1/2), got {a}")
    q = 1.0 - pf
    value = (
        (1.0 + a) * math.log(1.0 + a)
        - 3.0 * a * math.log(3.0 * a)
        - (1.0 - 2.0 * a) * math.log(1.0 - 2.0 * a)
        - a * math.log(q / pf)
    )
    derivative = math.log(pf) + math.log(1.0 + a) + 2.0 * math.log(1.0 - 2.0 * a) - math.log(
        27.0 * q
    ) - 3.0 * math.log(a)
    return value, derivative


def simplex_codewords(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Three blocklength-n words of weight n/3 and pairwise distance 2n/3."""
    if n % 3:
        raise ValueError(f"simplex construction needs 3 | n, got {n}")
    b = n // 3
    x1 = (1,) * b + (0,) * (2 * b)
    x2 = (0,) * b + (1,) * b + (0,) * b
    x3 = (0,) * (2 * b) + (1,) * b
    return x1, x2, x3


def simplex_event_prob(n: int, ch: ChannelParams, method: str = "block-sum") -> Number:
    """Probability, given the first word sent, that all three likelihoods tie.

    Equal likelihood means equal distances, which forces equal ones counts
    in the three blocks; the block-sum method evaluates
    sum_t C(n/3, t)^3 p^(n/3+t) q^(2n/3-t).  The enumeration method walks
    all 2^n outputs (n <= 15) as an independent oracle.
    """
    if n < 3 or n % 3:
        raise ValueError(f"simplex event needs n >= 3 with 3 | n, got {n}")
    b = n // 3
    p, q = ch.p, ch.q
    if method == "block-sum":
        if ch.exact:
            return sum(
                Fraction(comb(b, t)) ** 3 * p ** (b + t) * q ** (2 * b - t)
                for t in range(b + 1)
            )
        import numpy as np  # only here: every other path of this module runs without numpy

        lp, lq = math.log(p), math.log(q)
        terms = [
            3.0 * math.lgamma(b + 1) - 3.0 * (math.lgamma(t + 1) + math.lgamma(b - t + 1))
            + (b + t) * lp + (2 * b - t) * lq
            for t in range(b + 1)
        ]
        return math.exp(np.logaddexp.accumulate(terms)[-1])  # folds in order of t
    if method == "enumeration":
        if n > 15:
            raise ValueError("enumeration method is limited to n <= 15")
        words = simplex_codewords(n)
        ints = [int("".join(map(str, w)), 2) for w in words]
        total: Number = Fraction(0) if ch.exact else 0.0
        for y in range(1 << n):
            d = [(y ^ xi).bit_count() for xi in ints]
            if d[0] == d[1] == d[2]:
                total = total + p ** d[0] * q ** (n - d[0])
        return total
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class SimplexEventReport:
    n: int
    prob: Number
    log_prob: float
    exponent: float  # -ln(prob)/n
    u_grid: tuple[tuple[int, float], ...]  # (per-block ones count t, u = t/(n/3))
    u0: float
    g_at_u0: float


def simplex_event_report(n: int, ch: ChannelParams, method: str = "block-sum") -> SimplexEventReport:
    prob = simplex_event_prob(n, ch, method)
    log_prob = log_of(prob)
    asym = simplex_asymptote(ch)
    b = n // 3
    grid = tuple((t, t / b) for t in range(b + 1))
    return SimplexEventReport(
        n=n,
        prob=prob,
        log_prob=log_prob,
        exponent=-log_prob / n,
        u_grid=grid,
        u0=asym.u0,
        g_at_u0=asym.g_at_u0,
    )


@dataclass(frozen=True)
class SimplexAsymptote:
    u0: float             # ones-density that dominates the tie event
    g_at_u0: float
    lnq_plus_g: float     # ln q + g(u0), the identity's left side: -f_fb only to 1e-12 absolute
    f_fb: float
    gprime_at_u0: float


def simplex_asymptote(ch: ChannelParams) -> SimplexAsymptote:
    """Maximizing ones-density u0 and the identity ln q + g(u0) = -f_fb.

    g(u) = h(u) + (1+u) ln(z)/3.  u0 is computed both as 1/(1+z^(-1/3))
    and as p^(1/3)/(p^(1/3)+q^(1/3)); the two must agree, and the identity
    must hold to 1e-12, else this raises.
    """
    with localcontext(Context(prec=IDENTITY_DPS)):
        p = _decimal(Fraction(ch.p))
        q = 1 - p
        ln_z, ln_q = (p / q).ln(), q.ln()
        c = (ln_z / 3).exp()  # z^(1/3)
        u0 = 1 / (1 + 1 / c)
        p3, q3 = (p.ln() / 3).exp(), (ln_q / 3).exp()
        u0_b = p3 / (p3 + q3)
        if abs(u0 - u0_b) > Decimal(10) ** (10 - IDENTITY_DPS):
            raise ArithmeticError(f"u0 forms disagree: {u0} vs {u0_b}")
        ln_u, ln_v = u0.ln(), (1 - u0).ln()
        g = -u0 * ln_u - (1 - u0) * ln_v + (1 + u0) * ln_z / 3
        lhs = ln_q + g
        # ln(qc(1 + c)) = ln(ab(a + b)) with a = p^(1/3), b = q^(1/3) is ln(1 - x) for
        # x = 1 - ab(a + b) = (a + b)(a - b)^2, where a - b = (p - q)/(a^2 + ab + b^2) is
        # free of the cancellation that ab(a + b), next to 1, suffers near p = 1/2
        x = (p3 + q3) * (_decimal(2 * Fraction(ch.p) - 1) / (p3 * p3 + p3 * q3 + q3 * q3)) ** 2
        if x > Decimal("1e-12"):  # the direct form keeps over 35 of its 50 digits
            rhs = (q * c * (1 + c)).ln()
        else:  # ln(1 - x) to x^3, exactly 0 at p = 1/2
            rhs = -x * (1 + x / 2 + x * x / 3)
        if abs(lhs - rhs) > Decimal("1e-12"):
            raise ArithmeticError(f"asymptote identity violated: {lhs} vs {rhs}")
        gprime = ln_v - ln_u + ln_z / 3
        return SimplexAsymptote(
            u0=float(u0),
            g_at_u0=float(g),
            lnq_plus_g=float(lhs),
            f_fb=float(-rhs),
            gprime_at_u0=float(gprime),
        )


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one (p, n)."""

    p: Number
    n: int | None
    f_fb: float
    e2: float
    e3: float
    upper: float | None               # (q/p)^(1/3) exp(-n f_fb)
    lower: float | None               # (1/2) exp(-n f_fb), refuted: see error_lower_bound_exact
    lower_loop_variant: float | None  # (1/3) exp(-n f_fb)
    a0: float | None
    f1_at_a0: float | None
    u0: float
    simplex_exponent: float


def bound_report(ch: ChannelParams, n: int | None = None) -> BoundReport:
    if n is not None and n < 0:
        raise ValueError("n must be nonnegative")
    exps = error_exponents(ch)
    asym = simplex_asymptote(ch)
    a0 = f1 = None
    if not ch.degenerate:
        a0 = optimal_loop_density(ch.p)
        f1 = loop_density_objective(ch.p, a0)[0]
    upper = lower = variant = None
    if n is not None:
        base = math.exp(-n * exps.f_fb)
        upper = math.exp(math.log(float(ch.q) / float(ch.p)) / 3.0 - n * exps.f_fb)
        lower, variant = 0.5 * base, base / 3.0
    return BoundReport(
        p=ch.p,
        n=n,
        f_fb=exps.f_fb,
        e2=exps.e2,
        e3=exps.e3,
        upper=upper,
        lower=lower,
        lower_loop_variant=variant,
        a0=a0,
        f1_at_a0=f1,
        u0=asym.u0,
        simplex_exponent=asym.f_fb,
    )
