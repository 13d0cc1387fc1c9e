import math
from fractions import Fraction

import pytest

from fblab.bounds import (
    bound_report,
    error_exponents,
    error_lower_bound,
    error_lower_bound_exact,
    error_upper_bound,
    error_upper_bound_exact,
    loop_density_objective,
    optimal_loop_density,
    simplex_asymptote,
    simplex_codewords,
    simplex_event_prob,
    simplex_event_report,
)
from fblab.channel import make_channel
from fblab.cubicfield import CubicExt, cbrt_bounds, icbrt

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

    def test_sign_refines_past_twenty_digits(self):
        # c agrees with its 60-digit bounds to 40 digits, so only the
        # third, 80-digit refinement decides the sign
        c = CubicExt.root(Fraction(2))
        lo, hi = cbrt_bounds(Fraction(2), 60)
        assert (c - lo).sign() == 1
        assert (c - hi).sign() == -1

    def test_perfect_cube_base_collapses(self):
        c = CubicExt.root(Fraction(1, 8))
        assert (c - Fraction(1, 2)).sign() == 0
        assert (c - Fraction(49, 100)).sign() > 0

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
        assert abs(error_upper_bound(0, CH10) - 2.0800838230519041) <= 1e-12

    def test_frozen_at_twenty(self):
        value = error_upper_bound(20, CH10)
        assert abs(value - 2.8245435922587e-4) <= 1e-15
        assert abs(value - 2.8279e-4) <= 0.01 * 2.8279e-4

    def test_degenerate_is_one(self):
        for n in (0, 5, 40):
            assert error_upper_bound(n, CH_HALF) == pytest.approx(1.0, abs=1e-12)

    def test_exact_agrees_with_float(self):
        for n in (0, 1, 7, 33, 60):
            exact = float(error_upper_bound_exact(n, CH10))
            approx = error_upper_bound(n, CH10)
            assert abs(exact - approx) <= 1e-12 * exact

    def test_exact_zero_horizon_cubes_to_inverse_ratio(self):
        b0 = error_upper_bound_exact(0, CH10)
        assert b0**3 == CubicExt.of(Fraction(CH10.q) / Fraction(CH10.p), Fraction(CH10.z))


class TestLowerBound:
    def test_zero_horizon(self):
        lb = error_lower_bound(0, CH10)
        assert lb.main == 0.5 and abs(lb.loop_variant - 1 / 3) <= 1e-15

    def test_single_use(self):
        lb = error_lower_bound(1, CH10)
        assert abs(lb.main - 0.32034162669870646) <= 1e-12
        assert lb.main <= 0.4  # exact optimum at one use

    def test_degenerate(self):
        assert error_lower_bound(4, CH_HALF).main == pytest.approx(0.5, abs=1e-12)

    def test_exact_agrees_with_float(self):
        for n in (0, 1, 12, 48):
            exact = float(error_lower_bound_exact(n, CH10))
            assert abs(exact - error_lower_bound(n, CH10).main) <= 1e-12 * exact

    def test_exact_lower_below_exact_upper(self):
        for n in (1, 5, 20):
            assert error_lower_bound_exact(n, CH10) < error_upper_bound_exact(n, CH10)


class TestLoopDensity:
    def test_frozen_root_at_p_tenth(self):
        root = optimal_loop_density(Fraction(1, 10))
        assert abs(root.root - 0.13543269388597468) <= 1e-12
        assert abs(root.root - root.bisection) <= 1e-10
        assert root.residual <= 1e-10

    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.1, 0.3, 0.49])
    def test_closed_form_meets_bisection_on_grid(self, p):
        root = optimal_loop_density(p)
        assert abs(root.root - root.bisection) <= 1e-10
        assert root.residual <= 1e-10
        assert 0 < root.root < 0.5

    def test_small_p_scaling_law(self):
        root = optimal_loop_density(1e-6).root
        assert abs(3 * root / 1e-2 - 1) <= 0.1

    def test_rejects_boundary(self):
        for bad in (0, Fraction(1, 2), 0.7):
            with pytest.raises(ValueError):
                optimal_loop_density(bad)

    def test_derivative_vanishes_at_root(self):
        for p in (0.05, 0.1, 0.3):
            a0 = optimal_loop_density(p).root
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
        a0 = optimal_loop_density(0.1).root
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


def test_bound_report_is_complete():
    rep = bound_report(CH10, 20)
    assert rep.n == 20 and rep.p == Fraction(1, 10)
    assert rep.upper is not None and rep.lower is not None
    assert abs(rep.f1_at_a0 - 0.4429107171354914) <= 1e-12
    degenerate = bound_report(CH_HALF)
    assert degenerate.a0 is None and degenerate.upper is None
