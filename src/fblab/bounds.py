"""Closed-form exponents, non-asymptotic bounds, and the simplex-code event.

Everything here is analytic: the decay exponents for two and three
codewords, the upper/lower bounds on the three-message error probability
(with exact cubic-field versions for tolerance-free comparisons), the
cubic root giving the optimal 2-loop density in the return-path series,
and the equal-likelihood event of the three-codeword simplex code.

Identity checks run at 50 significant digits (mpmath) so verdicts never
hinge on double rounding; plain doubles are used everywhere else.
All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath

from .channel import ChannelParams, Number
from .cubicfield import CubicExt
from .exact_dp import log_of, logaddexp

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
    f_fb = -math.log(p ** (1 / 3) * q ** (2 / 3) + p ** (2 / 3) * q ** (1 / 3))
    e2 = 0.5 * math.log(1.0 / (4.0 * p * q))
    e3 = e2 * 2.0 / 3.0
    if not ch.degenerate and not e2 > f_fb > e3:
        # in doubles 4pq rounds to 1 a few ulps below p = 1/2, and 1/(4pq) overflows for subnormal p
        raise ArithmeticError(
            f"exponent ordering e2 > f_fb > e3 fails in double precision at p={p}: "
            f"{e2}, {f_fb}, {e3}"
        )
    return ErrorExponents(f_fb=f_fb, e2=e2, e3=e3)


def error_upper_bound(n: int, ch: ChannelParams) -> float:
    """(q/p)^(1/3) exp(-n f_fb); the achievability bound, log-domain."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = float(ch.p), float(ch.q)
    f_fb = error_exponents(ch).f_fb
    return math.exp(math.log(q / p) / 3.0 - n * f_fb)


def _generator(ch: ChannelParams) -> CubicExt:
    ch.require_exact("exact bound arithmetic")
    return CubicExt.root(Fraction(ch.z))


def error_upper_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """Exact cubic-field value of the upper bound: q^n c^(n-1) (1+c)^n, c = z^(1/3).

    No command calls it yet; the acceptance check that the upper bound
    dominates the strategy's error uses it, and ROADMAP item 2 gives it one."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _generator(ch)
    z = Fraction(ch.z)
    one = CubicExt.of(1, z)
    if n == 0:
        # c^(-1) = c^2 / z
        return CubicExt(Fraction(0), Fraction(0), 1 / z, z)
    return (c ** (n - 1)) * Fraction(ch.q) ** n * ((one + c) ** n)


@dataclass(frozen=True)
class LowerBound:
    main: float         # (1/2) exp(-n f_fb)
    loop_variant: float  # (1/3) (pq^2)^(n/3) (1+z^(1/3))^n, same exponent


def error_lower_bound(n: int, ch: ChannelParams) -> LowerBound:
    """Candidate converse bounds on the optimal three-message error probability.

    ``main`` is the printed (1/2)-constant claim.  It is false: the exact
    optimal error sits below it at 220 points of the p in {1/20, 1/10, 1/5,
    3/10, 2/5}, n = 0..48 grid (e.g. 4/25 < 0.2052 at p=1/10, n=2).
    ``loop_variant``, the (1/3)-constant form, holds at every point of that grid.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    f_fb = error_exponents(ch).f_fb
    base = math.exp(-n * f_fb)
    return LowerBound(main=0.5 * base, loop_variant=base / 3.0)


def error_lower_bound_exact(n: int, ch: ChannelParams) -> CubicExt:
    """Exact cubic-field value of ``main``: (1/2) (q c (1+c))^n.

    This is the printed (1/2)-constant claim, which fails at 220 points of the
    tested grid (see ``error_lower_bound``); two thirds of it is the
    (1/3)-constant bound, which holds there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = _generator(ch)
    z = Fraction(ch.z)
    one = CubicExt.of(1, z)
    return ((c * Fraction(ch.q)) ** n) * ((one + c) ** n) * Fraction(1, 2)


def _mp_real_cbrt(x):
    return mpmath.sign(x) * mpmath.cbrt(abs(x))


def _mp_from(p: Fraction | float):
    f = Fraction(p)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


@dataclass(frozen=True)
class LoopDensityRoot:
    root: float        # closed form, real cube-root branch
    bisection: float   # independent bracketing on the cubic
    residual: float    # |cubic(root)|


def optimal_loop_density(p: Fraction | float) -> LoopDensityRoot:
    """Unique root in (0, 1/2) of (27-31p) a^3 + 3 p a - p = 0.

    This density of length-2 blocks maximizes the return-path count rate.
    Evaluated two ways: the closed form (with sign-preserving real cube
    roots; the inner radicand is negative) and exact-sign bisection.
    Disagreement beyond 1e-10 raises, flagging a branch-handling bug.
    """
    pf = Fraction(p)
    if not Fraction(0) < pf < Fraction(1, 2):
        raise ValueError(f"p must lie in (0, 1/2), got {p}")
    with mpmath.workdps(IDENTITY_DPS):
        pm = _mp_from(pf)
        disc = mpmath.sqrt(27 * (1 - pm) / (27 - 31 * pm))
        pref = mpmath.cbrt(pm / (2 * (27 - 31 * pm)))
        a0 = pref * (_mp_real_cbrt(1 + disc) + _mp_real_cbrt(1 - disc))
        residual = abs((27 - 31 * pm) * a0**3 + 3 * pm * a0 - pm)
        closed = float(a0)
        resid = float(residual)

    def cubic(a: Fraction) -> Fraction:
        return (27 - 31 * pf) * a**3 + 3 * pf * a - pf

    lo, hi = Fraction(0), Fraction(1, 2)
    for _ in range(140):
        mid = (lo + hi) / 2
        if cubic(mid) <= 0:
            lo = mid
        else:
            hi = mid
    bisected = float((lo + hi) / 2)
    if abs(closed - bisected) > 1e-10:
        raise ArithmeticError(
            f"closed-form root {closed} and bisection {bisected} disagree at p={p}"
        )
    return LoopDensityRoot(root=closed, bisection=bisected, residual=resid)


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
        lp, lq = math.log(p), math.log(q)
        acc = -math.inf
        for t in range(b + 1):
            term = 3.0 * math.lgamma(b + 1) - 3.0 * (
                math.lgamma(t + 1) + math.lgamma(b - t + 1)
            ) + (b + t) * lp + (2 * b - t) * lq
            acc = logaddexp(acc, term)
        return math.exp(acc)
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
    lnq_plus_g: float     # ln q + g(u0); equals -f_fb exactly
    f_fb: float
    gprime_at_u0: float


def simplex_asymptote(ch: ChannelParams) -> SimplexAsymptote:
    """Maximizing ones-density u0 and the identity ln q + g(u0) = -f_fb.

    g(u) = h(u) + (1+u) ln(z)/3.  u0 is computed both as 1/(1+z^(-1/3))
    and as p^(1/3)/(p^(1/3)+q^(1/3)); the two must agree, and the identity
    must hold to 1e-12, else this raises.
    """
    with mpmath.workdps(IDENTITY_DPS):
        p = _mp_from(Fraction(ch.p))
        q = 1 - p
        z = p / q
        u0_a = 1 / (1 + z ** mpmath.mpf("-1/3"))
        u0_b = p ** mpmath.mpf("1/3") / (p ** mpmath.mpf("1/3") + q ** mpmath.mpf("1/3"))
        if abs(u0_a - u0_b) > mpmath.mpf(10) ** (-(IDENTITY_DPS - 10)):
            raise ArithmeticError(f"u0 forms disagree: {u0_a} vs {u0_b}")
        u0 = u0_a
        h = -u0 * mpmath.log(u0) - (1 - u0) * mpmath.log(1 - u0)
        g = h + (1 + u0) * mpmath.log(z) / 3
        lhs = mpmath.log(q) + g
        rhs = mpmath.log(p ** mpmath.mpf("1/3") * q ** mpmath.mpf("2/3")
                         + p ** mpmath.mpf("2/3") * q ** mpmath.mpf("1/3"))
        if abs(lhs - rhs) > mpmath.mpf("1e-12"):
            raise ArithmeticError(f"asymptote identity violated: {lhs} vs {rhs}")
        gprime = mpmath.log((1 - u0) / u0) + mpmath.log(z) / 3
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
    upper: float | None
    lower: float | None
    lower_loop_variant: float | None
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
        a0 = optimal_loop_density(ch.p).root
        f1 = loop_density_objective(ch.p, a0)[0]
    upper = lower = variant = None
    if n is not None:
        upper = error_upper_bound(n, ch)
        lb = error_lower_bound(n, ch)
        lower, variant = lb.main, lb.loop_variant
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
