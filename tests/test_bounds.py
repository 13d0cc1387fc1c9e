import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest

from fblab import bounds
from fblab.bounds import (
    bound_report,
    error_exponents,
    error_lower_bound_exact,
    error_upper_bound_exact,
    loop_density_objective,
    optimal_loop_density,
    simplex_asymptote,
    simplex_codewords,
    simplex_event_prob,
    simplex_event_report,
)
from fblab.channel import make_channel
from fblab.cubicfield import CubicExt, _rational_cbrt, cbrt_bounds, icbrt

CH10 = make_channel("1/10")
CH_HALF = make_channel("1/2")


def binary_entropy(u: float) -> float:
    """Natural-log binary entropy; 0 at the endpoints."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"entropy argument must be in [0,1], got {u}")
    if u in (0.0, 1.0):
        return 0.0
    return -u * math.log(u) - (1.0 - u) * math.log1p(-u)


class TestCubicField:
    def test_integer_cube_root(self):
        for n in [0, 1, 7, 8, 26, 27, 10**18, 10**18 + 1]:
            r = icbrt(n)
            assert r**3 <= n < (r + 1) ** 3
        # every n of up to 19 bits: the floor root is c on [c**3, (c + 1)**3)
        top = 1 << 19
        want = [c for c in range(81) for _ in range(c**3, min((c + 1) ** 3, top))]
        assert list(map(icbrt, range(top))) == want
        # either side of a cube, for roots of every length up to 256 bits, then of
        # lengths spread up to 3,000 bits
        rng = random.Random(3000)
        for bits in [*range(1, 257), *range(275, 3001, 25)]:
            for c in (1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)):
                assert (icbrt(c**3 - 1), icbrt(c**3), icbrt(c**3 + 1)) == (c - 1, c, c)

    def test_cbrt_bounds_bracket(self):
        lo, hi = cbrt_bounds(Fraction(1, 9), 25)
        assert lo**3 <= Fraction(1, 9) <= hi**3
        assert hi - lo == Fraction(1, 10**25)

    def test_cube_identity(self):
        z = Fraction(1, 9)
        c = CubicExt.root(z)
        cube = (CubicExt.of(1, z) + c) ** 3
        # (1+c)^3 = (1+z) + 3c + 3c^2
        assert cube == CubicExt(1 + z, Fraction(3), Fraction(3), z)
        assert (c**3 - z).sign() == 0

    def test_sign_decisions(self):
        z = Fraction(1, 9)
        c = CubicExt.root(z)
        assert (c - Fraction(48074, 100000)).sign() > 0
        assert (c - Fraction(48075, 100000)).sign() < 0
        assert (c * c * c - z).sign() == 0

    def test_sign_of_a_sixty_digit_gap(self):
        c = CubicExt.root(Fraction(2))
        lo, hi = cbrt_bounds(Fraction(2), 60)
        assert (c - lo).sign() == 1
        assert (c - hi).sign() == -1

    def test_sign_of_a_gap_below_ten_to_the_minus_thirteen_hundred(self):
        # c agrees with lo and hi to 1,400 digits, so both differences are below 10**-1399
        c = CubicExt.root(Fraction(2))
        lo, hi = cbrt_bounds(Fraction(2), 1400)
        assert (c - lo).sign() == 1
        assert (c - hi).sign() == -1

    def test_sign_matches_the_real_value(self):
        # the field norm's sign against a 60-digit evaluation, on random elements
        rng = random.Random(20220301)
        for _ in range(300):
            base = Fraction(rng.randint(1, 200), rng.randint(1, 200))
            if _rational_cbrt(base) is not None:
                continue
            e = CubicExt(*(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
                           for _ in range(3)), base)
            lo = cbrt_bounds(base, 60)[0]
            value = e.x + e.y * lo + e.w * lo * lo
            assert abs(value) > Fraction(1, 10**40)  # far from zero at this precision
            assert e.sign() == (1 if value > 0 else -1)

    def test_perfect_cube_base_collapses(self):
        c = CubicExt.root(Fraction(1, 8))
        assert (c - Fraction(1, 2)).sign() == 0
        assert (c - Fraction(49, 100)).sign() > 0
        # a nonzero element whose norm vanishes: 1 + 2c + 4c**2 = 3 at c = 1/2
        assert CubicExt(Fraction(1), Fraction(2), Fraction(4), Fraction(1, 8)).sign() == 1

    @pytest.mark.parametrize("base", [Fraction(1, 9), Fraction(2), Fraction(8, 27)])
    def test_comparisons_at_equality(self, base):
        # 8/27 is a perfect cube, whose root is 2/3 exactly
        c = CubicExt.root(base)
        e = CubicExt.of(Fraction(1, 3), base) + 5 * c - c * c
        assert e <= e and e >= e and not e < e and not e > e
        for r in (Fraction(0), Fraction(-7, 3), Fraction(10**30, 3)):
            f = CubicExt.of(r, base)
            assert f.compare(r) == 0 and f <= r and f >= r and not f < r
            assert (f - r).sign() == 0
        if base == Fraction(8, 27):
            r = Fraction(2, 3)
            assert c.compare(r) == 0 and c <= r and c >= r and not c < r and not c > r
            assert (c - r).sign() == 0 and (c * c - r * r).sign() == 0
            assert e.compare(Fraction(1, 3) + 5 * r - r * r) == 0

    def test_float_conversion(self):
        c = CubicExt.root(Fraction(1, 9))
        assert abs(float(c) - (1 / 9) ** (1 / 3)) < 1e-15


class TestExponents:
    def test_degenerate_all_zero(self):
        exps = error_exponents(CH_HALF)
        assert exps.f_fb == exps.e2 == exps.e3 == 0.0

    def test_frozen_values_at_p_tenth(self):
        exps = error_exponents(CH10)
        assert abs(exps.f_fb - 0.4452200886568928) <= 1e-12
        assert abs(exps.e2 - 0.5108256237659906) <= 1e-12
        assert abs(exps.e3 - 0.34055041584399376) <= 1e-12
        assert exps.e2 > exps.f_fb > exps.e3

    def test_strictly_decreasing_in_p(self):
        values = [error_exponents(make_channel(Fraction(k, 100))) for k in range(2, 50, 4)]
        for a, b in zip(values, values[1:]):
            assert a.f_fb > b.f_fb and a.e2 > b.e2 and a.e3 > b.e3


class TestUpperBound:
    def test_vacuous_at_zero(self):
        assert abs(bound_report(CH10, 0).upper - 2.0800838230519041) <= 1e-12

    def test_frozen_at_twenty(self):
        value = bound_report(CH10, 20).upper
        assert abs(value - 2.8245435922587e-4) <= 1e-15
        assert abs(value - 2.8279e-4) <= 0.01 * 2.8279e-4

    def test_degenerate_is_one(self):
        for n in (0, 5, 40):
            assert bound_report(CH_HALF, n).upper == pytest.approx(1.0, abs=1e-12)

    def test_exact_agrees_with_float(self):
        for n in (0, 1, 7, 33, 60):
            exact = float(error_upper_bound_exact(n, CH10))
            approx = bound_report(CH10, n).upper
            assert abs(exact - approx) <= 1e-12 * exact

    def test_exact_zero_horizon_cubes_to_inverse_ratio(self):
        # upper = (q/p)^(1/3) * 2 * lower at every horizon, n = 0 included
        ratio = Fraction(CH10.q) / Fraction(CH10.p)
        for n in (0, 1, 7, 20):
            upper, lower = error_upper_bound_exact(n, CH10), error_lower_bound_exact(n, CH10)
            assert upper**3 == (lower * 2) ** 3 * ratio
        assert error_upper_bound_exact(0, CH10) ** 3 == CubicExt.of(ratio, Fraction(CH10.z))


class TestLowerBound:
    def test_zero_horizon(self):
        report = bound_report(CH10, 0)
        assert report.lower == 0.5 and abs(report.lower_loop_variant - 1 / 3) <= 1e-15

    def test_single_use(self):
        lower = bound_report(CH10, 1).lower
        assert abs(lower - 0.32034162669870646) <= 1e-12
        assert lower <= 0.4  # exact optimum at one use

    def test_degenerate(self):
        assert bound_report(CH_HALF, 4).lower == pytest.approx(0.5, abs=1e-12)

    def test_exact_agrees_with_float(self):
        for n in (0, 1, 12, 48):
            exact = float(error_lower_bound_exact(n, CH10))
            assert abs(exact - bound_report(CH10, n).lower) <= 1e-12 * exact

    def test_float_of_exact_bound_is_relative_for_small_p(self):
        # the cube root is bracketed relative to its size, not to within 1e-40
        assert float(CubicExt.root(Fraction(1, 10**300))) == 1e-100
        ch = make_channel("1e-300")
        exact = float(error_lower_bound_exact(3, ch))
        assert abs(exact - bound_report(ch, 3).lower) <= 1e-12 * exact

    def test_exact_lower_below_exact_upper(self):
        for n in (1, 5, 20):
            assert error_lower_bound_exact(n, CH10) < error_upper_bound_exact(n, CH10)


def _brackets_cubic_root(p, a0: float) -> bool:
    """The cubic (27-31p) a^3 + 3pa - p, evaluated exactly, changes sign
    between the doubles one ulp either side of a0."""
    pf = Fraction(p)

    def cubic(a: float) -> Fraction:
        return (27 - 31 * pf) * Fraction(a) ** 3 + 3 * pf * Fraction(a) - pf

    return cubic(math.nextafter(a0, 0.0)) < 0 < cubic(math.nextafter(a0, 1.0))


class TestLoopDensity:
    def test_frozen_root_at_p_tenth(self):
        root = optimal_loop_density(Fraction(1, 10))
        assert abs(root - 0.13543269388597468) <= 1e-12
        assert _brackets_cubic_root(Fraction(1, 10), root)

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.3, 0.49])
    def test_closed_form_meets_bisection_on_grid(self, p):
        # the two-ulp bracket is where a bisection over the doubles would stop
        root = optimal_loop_density(p)
        assert _brackets_cubic_root(p, root)
        assert 0 < root < 0.5

    def test_wrong_cube_root_branch_raises(self, monkeypatch):
        # the principal cube root of the negative inner radicand is not real
        monkeypatch.setattr(bounds, "_real_cbrt", lambda x: abs(x) ** (Decimal(1) / 3))
        with pytest.raises(ArithmeticError, match="one ulp"):
            optimal_loop_density(Fraction(1, 10))

    def test_small_p_scaling_law(self):
        root = optimal_loop_density(1e-6)
        assert abs(3 * root / 1e-2 - 1) <= 0.1

    def test_rejects_boundary(self):
        for bad in (0, Fraction(1, 2), 0.7):
            with pytest.raises(ValueError):
                optimal_loop_density(bad)

    def test_derivative_vanishes_at_root(self):
        for p in (0.05, 0.1, 0.3):
            a0 = optimal_loop_density(p)
            _, deriv = loop_density_objective(p, a0)
            assert abs(deriv) <= 1e-8

    def test_objective_is_concave_on_grid(self):
        h = 1e-3
        for p in (0.1, 0.3):
            for a in [0.05 + 0.05 * k for k in range(8)]:
                f = lambda x: loop_density_objective(p, x)[0]
                second = f(a + h) - 2 * f(a) + f(a - h)
                assert second < 0

    def test_derivative_changes_sign_at_root(self):
        a0 = optimal_loop_density(0.1)
        assert loop_density_objective(0.1, a0 - 1e-4)[1] > 0
        assert loop_density_objective(0.1, a0 + 1e-4)[1] < 0

    def test_degenerate_objective_drops_asymmetry_term(self):
        for a in (0.1, 0.2, 0.3):
            value, _ = loop_density_objective(0.5, a)
            expected = (1 + a) * binary_entropy(3 * a / (1 + a))
            assert abs(value - expected) <= 1e-12

    def test_objective_domain(self):
        with pytest.raises(ValueError):
            loop_density_objective(0.1, 0.0)
        with pytest.raises(ValueError):
            loop_density_objective(0.1, 0.5)


class TestSimplexCode:
    def test_three_bit_words(self):
        x1, x2, x3 = simplex_codewords(3)
        assert (x1, x2, x3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_six_bit_words_and_distances(self):
        words = simplex_codewords(6)
        assert words == ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))
        for i in range(3):
            assert sum(words[i]) == 2
            for j in range(i + 1, 3):
                assert sum(a != b for a, b in zip(words[i], words[j])) == 4

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            simplex_codewords(4)


class TestSimplexEvent:
    def test_exact_three_bit_value(self):
        value = simplex_event_prob(3, CH10)
        assert value == Fraction(9, 100)
        assert value == CH10.p * CH10.q**2 + CH10.p**2 * CH10.q

    def test_degenerate_three_bit(self):
        assert simplex_event_prob(3, CH_HALF) == Fraction(1, 4)

    @pytest.mark.parametrize("n", [3, 6, 9])
    @pytest.mark.parametrize("pl", ["1/10", "1/3"])
    def test_block_sum_equals_enumeration(self, n, pl):
        ch = make_channel(pl)
        assert simplex_event_prob(n, ch, "block-sum") == simplex_event_prob(n, ch, "enumeration")

    def test_float_block_sum_tracks_exact(self):
        chf = make_channel("0.1", "float")
        exact = float(simplex_event_prob(30, CH10))
        approx = simplex_event_prob(30, chf)
        assert abs(approx - exact) <= 1e-12 * exact

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            simplex_event_prob(18, CH10, "enumeration")

    def test_report_fields(self):
        rep = simplex_event_report(6, CH10)
        assert rep.n == 6 and rep.prob == simplex_event_prob(6, CH10)
        assert rep.u_grid[0] == (0, 0.0) and rep.u_grid[-1] == (2, 1.0)
        assert abs(rep.exponent + rep.log_prob / 6) <= 1e-15


class TestSimplexAsymptote:
    def test_frozen_values(self):
        asym = simplex_asymptote(CH10)
        assert abs(asym.u0 - 0.3246664887870321) <= 1e-12
        assert abs(asym.lnq_plus_g + 0.4452200886568928) <= 1e-12
        assert abs(asym.f_fb - error_exponents(CH10).f_fb) <= 1e-12
        assert abs(asym.gprime_at_u0) <= 1e-8

    def test_degenerate(self):
        asym = simplex_asymptote(CH_HALF)
        assert asym.u0 == pytest.approx(0.5, abs=1e-12)
        assert asym.lnq_plus_g == pytest.approx(0.0, abs=1e-12)


# p = 1/2 - k * 10^-e, k in [1, 997], e = 6..43, so delta runs from about 1e-3 to
# 1e-41: ln(p^(1/3) q^(2/3) + p^(2/3) q^(1/3)) is of order delta^2 while its argument
# rounds next to 1
@pytest.mark.parametrize("e", range(6, 44))
def test_f_fb_is_correctly_rounded_near_one_half(e):
    p = Fraction(1, 2) - Fraction(1 + e * 7919 % 997, 10**e)
    with localcontext(Context(prec=200)):
        pd = Decimal(p.numerator) / p.denominator
        a, b = (pd.ln() / 3).exp(), ((1 - pd).ln() / 3).exp()
        want = float(-(a * b * (a + b)).ln())  # over 100 digits survive the cancellation
    ch = make_channel(str(p))
    assert simplex_asymptote(ch).f_fb == want
    if p <= Fraction(1, 2) - Fraction(1, 10**6):  # nearer 1/2 the double exponents may fail
        assert bound_report(ch).simplex_exponent == want


# The 50-digit values as doubles, bit for bit, recorded while they were evaluated
# with mpmath: (u0, g_at_u0, lnq_plus_g, f_fb) of simplex_asymptote, then
# optimal_loop_density (None at p = 1/2, outside its domain).
FIFTY_DIGIT_DOUBLES = {
    ("1/20", "rational"): ("0x1.17240144d3ccep-2", "-0x1.538f610919eb7p-1", "-0x1.6dd27e64e604ap-1",
                           "0x1.6dd27e64e604ap-1", "0x1.c121350c9c862p-4"),
    ("1/10", "rational"): ("0x1.4c755f3dca314p-2", "-0x1.5c0425dd0dd6fp-2", "-0x1.c7e7c66136dc6p-2",
                           "0x1.c7e7c66136dc6p-2", "0x1.155dbc7865410p-3"),
    ("1/5", "rational"): ("0x1.8bc390b179247p-2", "0x1.b17b89a3c4ca8p-6", "-0x1.92d00b453108dp-3",
                          "0x1.92d00b453108dp-3", "0x1.588fb66ecc702p-3"),
    ("3/10", "rational"): ("0x1.b82c8fb39db59p-2", "0x1.1e248d3489059p-2", "-0x1.3c5e94662bbd7p-4",
                           "0x1.3c5e94662bbd7p-4", "0x1.8a96fcb3361f6p-3"),
    ("2/5", "rational"): ("0x1.dd73f03111c22p-2", "0x1.f8855db6b1370p-2", "-0x1.2908199715337p-6",
                          "0x1.2908199715337p-6", "0x1.b6586ef9a058dp-3"),
    ("49/100", "rational"): ("0x1.fc961544c4ea5p-2", "0x1.58a94fa4bf530p-1", "-0x1.74e61aaf7fcafp-13",
                             "0x1.74e61aaf7fcafp-13", "0x1.dc095c3a51cacp-3"),
    ("1/2", "rational"): ("0x1.0000000000000p-1", "0x1.62e42fefa39efp-1", "0x0.0p+0", "0x0.0p+0", None),
    ("0.1", "float"): ("0x1.4c755f3dca314p-2", "-0x1.5c0425dd0dd6fp-2", "-0x1.c7e7c66136dc6p-2",
                       "0x1.c7e7c66136dc6p-2", "0x1.155dbc7865411p-3"),
    ("1e-6", "float"): ("0x1.446f8d5a97466p-7", "-0x1.2618139b79cbap+2", "-0x1.261817cd37d70p+2",
                        "0x1.261817cd37d70p+2", "0x1.b37352d4368b4p-9"),
    ("1e-300", "float"): ("0x1.bff2ee48e0530p-333", "-0x1.cc845b54b54f2p+7", "-0x1.cc845b54b54f2p+7",
                          "0x1.cc845b54b54f2p+7", "0x1.2aa1f430958cbp-334"),
}


@pytest.mark.parametrize("p, mode", sorted(FIFTY_DIGIT_DOUBLES))
def test_fifty_digit_doubles_are_pinned(p, mode):
    ch = make_channel(p, mode)
    asym = simplex_asymptote(ch)
    root = None if ch.degenerate else optimal_loop_density(ch.p).hex()
    # float.hex keeps the sign of zero: f_fb at p = 1/2 is 0.0, not -0.0
    got = (asym.u0.hex(), asym.g_at_u0.hex(), asym.lnq_plus_g.hex(), asym.f_fb.hex(), root)
    assert got == FIFTY_DIGIT_DOUBLES[p, mode]


def test_bound_report_is_complete():
    rep = bound_report(CH10, 20)
    assert rep.n == 20 and rep.p == Fraction(1, 10)
    assert rep.upper is not None and rep.lower is not None
    assert abs(rep.f1_at_a0 - 0.4429107171354914) <= 1e-12
    degenerate = bound_report(CH_HALF)
    assert degenerate.a0 is None and degenerate.upper is None
