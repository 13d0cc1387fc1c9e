"""End-to-end acceptance checks; each test prints one pass/fail line.

Exact comparisons are genuinely exact: rational dynamic programming on one
side, cubic-field arithmetic for the closed-form bounds on the other.
"""

import math
import random
from fractions import Fraction

from fblab import serialize
from fblab.belief import apply_outcome, leaders, normalize, one_step_gap, one_step_values, outcome_distribution, posteriors
from fblab.bounds import (
    error_exponents,
    error_lower_bound_exact,
    error_upper_bound_exact,
    optimal_loop_density,
    simplex_asymptote,
    simplex_event_prob,
)
from fblab.chain import path_series, reach_prob, verify_reference_transitions
from fblab.channel import make_channel
from fblab.exact_dp import bellman_optimum, error_curve, forward_distribution
from fblab.montecarlo import run_trajectory_audit, run_trials
from fblab.strategy import MAX_POSTERIOR
from witnesses import HALF_CONSTANT_WITNESSES

P_GRID = ["1/20", "1/10", "1/5", "3/10", "2/5"]
MC_SEED = 20220301


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {tag}{suffix}")


def test_upper_bound_dominates_strategy_error():
    # exact forward error of the fewest-votes strategy never exceeds
    # (q/p)^(1/3) (p^(1/3) q^(2/3) + p^(2/3) q^(1/3))^n, n = 1..60
    witnesses = []
    for pl in P_GRID:
        ch = make_channel(pl)
        rows = error_curve(ch, MAX_POSTERIOR, 60)
        for n, pe, _ in rows:
            if not (error_upper_bound_exact(n, ch) >= pe):
                witnesses.append((pl, n))
    _verdict("upper bound dominates exact strategy error (n 1..60)", not witnesses,
             f"{len(witnesses)} violations")
    assert not witnesses, f"upper bound violated at {witnesses}"


def test_half_constant_lower_bound_on_optimal_error():
    # printed claim: optimal error >= (1/2)(p^(1/3) q^(2/3) + p^(2/3) q^(1/3))^n
    # for n = 0..48.  It is refuted: the points where it fails must be exactly
    # HALF_CONSTANT_WITNESSES (see witnesses.py), while the (1/3)-constant
    # bound holds everywhere.
    # Both sides are compared exactly in the cubic field.
    witnesses = {pl: set() for pl in P_GRID}
    third_failures = []
    optimal = {}
    for pl in P_GRID:
        ch = make_channel(pl)
        _, table = bellman_optimum(48, ch)
        for n in range(49):
            pe_star = optimal[pl, n] = table.optimal_error(n)
            half = error_lower_bound_exact(n, ch)
            if half > pe_star:
                witnesses[pl].add(n)
            if half * Fraction(2, 3) > pe_star:
                third_failures.append((pl, n))
    # smallest witness: at p=1/10, n=2 the optimum is 4/25 (certified by
    # decision-tree enumeration in test_exact_dp) against a bound of 0.2052...
    pe2 = optimal["1/10", 2]
    count = sum(len(w) for w in witnesses.values())
    pattern_ok = witnesses == HALF_CONSTANT_WITNESSES
    ok = pattern_ok and pe2 == Fraction(4, 25) and not third_failures
    _verdict("half-constant lower bound on the optimal error (n 0..48)", ok,
             f"claim refuted at {count} certified points; (1/3)-constant holds at "
             f"{len(optimal) - len(third_failures)} of {len(optimal)}")
    changed = {
        pl: sorted(witnesses[pl] ^ HALF_CONSTANT_WITNESSES[pl])
        for pl in P_GRID if witnesses[pl] != HALF_CONSTANT_WITNESSES[pl]
    }
    assert pattern_ok, f"half-constant witness set changed; differing n per p: {changed}"
    assert pe2 == Fraction(4, 25), f"optimal error at p=1/10, n=2 is {pe2}, not 4/25"
    assert not third_failures, f"(1/3)-constant bound fails at {third_failures}"


def test_exponent_convergence_of_strategy_error():
    ch = make_channel("1/10", "float")
    rows = error_curve(ch, MAX_POSTERIOR, 120)
    f_fb = error_exponents(ch).f_fb
    e120 = rows[-1][2]
    ok = abs(e120 - 0.445215) <= 0.02
    sandwich_ok = True
    for n, _, en in rows:
        if 10 <= n <= 120:
            lo = f_fb - math.log(ch.q / ch.p) / (3 * n)
            hi = f_fb + math.log(3) / n
            if not lo <= en <= hi:
                sandwich_ok = False
    _verdict("exponent convergence at horizon 120", ok and sandwich_ok,
             f"e_120={e120:.6f}")
    assert ok, f"e_120 = {e120} strays from 0.445215 by more than 0.02"
    assert sandwich_ok, "exponent left the finite-n sandwich"


def test_chain_matches_reference_tables_and_return_probabilities():
    ok = True
    for pl in P_GRID + ["1/2"]:
        ch = make_channel(pl)
        report = verify_reference_transitions(ch)
        ok &= report["all_match"]
    ch = make_channel("1/10")
    ok &= reach_prob(2, ch) == ch.p * ch.q
    ok &= reach_prob(3, ch) == ch.p * ch.q**2
    # conditional decode error at the hub: the true message ties two others
    hub_error = 1 - Fraction(1, 3)
    ok &= hub_error == Fraction(2, 3)
    _verdict("chain fidelity: reference tables and short returns", ok)
    assert ok


def test_chain_and_dp_agree_on_hub_mass():
    ch = make_channel("1/10")
    ok = True
    for n in range(31):
        dp_mass = forward_distribution(n, ch, MAX_POSTERIOR).get((0, 0, 0), Fraction(0))
        rp = reach_prob(n, ch)
        ok &= dp_mass == rp
        if n >= 2:
            restricted, _ = path_series(n, ch, True, "restricted")
            ok &= restricted <= rp
    _verdict("forward DP and chain agree on hub mass (n 0..30)", ok)
    assert ok


def test_bayes_posterior_martingale_exact():
    rng = random.Random(1234)
    states = [
        normalize((rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40)))
        for _ in range(1000)
    ]
    failures = 0
    for pl in P_GRID:
        ch = make_channel(pl)
        for s in states:
            pis = posteriors(s, ch)
            for j in (1, 2, 3):
                dist = outcome_distribution(s, j, ch, "bayes")
                for i in range(3):
                    lhs = sum(
                        dist[y] * posteriors(apply_outcome(s, j, y), ch)[i] for y in (0, 1)
                    )
                    if lhs != pis[i]:
                        failures += 1
    _verdict("bayes posterior martingale, exact (1000 states x 3 queries x p grid)",
             failures == 0, f"{failures} failures")
    assert failures == 0


def test_one_step_printed_values_literal():
    # The printed E2 = 0.787905 is a misprint.  By hand, under the printed
    # paper law at (0,1,1), p=1/10 (z = 1/9): pi = (9/11, 1/11, 1/11), so
    # E1 = 9/11.  Querying a rival, the outcome favourable to the leader has
    # probability p + (q - p) 9/11 = 83/110 and moves the state to (0,2,1),
    # leader posterior 81/91; the other outcome (27/110) moves it to (0,0,1),
    # leader posterior 9/19.  E2 = 83/110 81/91 + 27/110 9/19 = 14985/19019
    # = 0.78789631..., and E1 - E2 = 576/19019 is the printed closed form.
    printed_e2 = 0.787905
    ch = make_channel("1/10")
    e1, e2, _ = one_step_values((0, 1, 1), ch, "paper")
    gap = one_step_gap((0, 1, 1), ch)
    ok1 = abs(float(e1) - 0.818182) <= 1e-6 and e1 == Fraction(9, 11)
    ok2 = e2 == Fraction(14985, 19019)
    ok_gap = e1 - e2 == gap
    misprint = abs(float(e2) - printed_e2) > 1e-6
    _verdict("printed one-step values at (0,1,1), p=1/10",
             ok1 and ok2 and ok_gap and misprint,
             f"E1={e1}, E2={e2}={float(e2):.9f}, E1-E2={e1 - e2}; "
             f"printed E2={printed_e2} refuted")
    assert ok1, f"leader-query value {e1} = {float(e1)} is not 9/11 = 0.818182"
    assert ok2, f"E2 = {e2} = {float(e2):.9f}, hand derivation gives 14985/19019"
    assert ok_gap, f"E1 - E2 = {e1 - e2} but the closed form gives {gap}"
    assert misprint, f"E2 = {float(e2):.9f} agrees with the printed {printed_e2}"


def test_one_step_gap_closed_form_and_leader_dominance():
    ch = make_channel("1/10")
    vals = one_step_values((0, 1, 1), ch, "paper")
    gap = one_step_gap((0, 1, 1), ch)
    ok_gap = abs(float(gap) - float(vals[0] - vals[1])) <= 1e-12 and gap == vals[0] - vals[1]
    rng = random.Random(99)
    checked = 0
    dominated = True
    per_p = 2000  # 5 x 2000 = 1e4 unique-leader states
    for pl in P_GRID:
        chp = make_channel(pl)
        count = 0
        while count < per_p:
            s = normalize((rng.randint(0, 40), rng.randint(0, 40), rng.randint(0, 40)))
            if len(leaders(s)) != 1:
                continue
            count += 1
            checked += 1
            e1, e2, e3 = one_step_values(s, chp, "paper")
            if not (e1 >= e2 and e1 >= e3):
                dominated = False
    _verdict("one-step gap identity and leader-query dominance",
             ok_gap and dominated, f"{checked} states")
    assert ok_gap
    assert dominated


def test_simplex_event_identities():
    ok = True
    for n in (3, 6, 9, 12, 15):
        for pl in ("1/10", "1/3"):
            ch = make_channel(pl)
            ok &= simplex_event_prob(n, ch, "block-sum") == simplex_event_prob(n, ch, "enumeration")
    ch = make_channel("1/10")
    ok &= simplex_event_prob(3, ch) == Fraction(9, 100)
    chf = make_channel("1/10", "float")
    prob300 = simplex_event_prob(300, chf, "block-sum")
    f_fb = error_exponents(chf).f_fb
    ok &= abs(-math.log(prob300) / 300 - f_fb) <= 0.03
    asym = simplex_asymptote(ch)
    ok &= abs(asym.lnq_plus_g + asym.f_fb) <= 1e-12
    _verdict("simplex event: block sum vs enumeration, exponent, identity", ok)
    assert ok


def test_loop_density_root_agreement():
    ok = True
    for p in (1e-6, 1e-3, 0.1, 0.3, 0.49):
        root = optimal_loop_density(p)
        ok &= abs(root.root - root.bisection) <= 1e-10
        ok &= root.residual <= 1e-10
    small = optimal_loop_density(1e-6).root
    ok &= abs(3 * small / 1e-2 - 1) <= 0.1
    _verdict("loop-density cubic: closed form vs bisection", ok)
    assert ok


def test_monte_carlo_consistency():
    from fblab.exact_dp import forward_error_prob

    ch = make_channel("1/10")
    chf = make_channel("0.1", "float")
    exact = float(forward_error_prob(20, ch, MAX_POSTERIOR))
    trials = 10**6
    runs = [
        run_trials(20, chf, MAX_POSTERIOR, trials=trials, seed=MC_SEED, workers=w)
        for w in (1, 4, 16)
    ]
    identical = len({(r.trials, r.errors) for r in runs}) == 1
    sigma = math.sqrt(exact * (1 - exact) / trials)
    within = abs(runs[0].estimate - exact) <= 4 * sigma
    audit = run_trajectory_audit(50, chf, trials=10**5, seed=MC_SEED)
    clean = audit["violations"] == 0
    _verdict(
        "Monte Carlo: 4-sigma agreement, worker invariance, trajectory audit",
        identical and within and clean,
        f"est={runs[0].estimate:.3e} exact={exact:.3e}",
    )
    assert identical, "worker count changed the result"
    assert within, f"estimate {runs[0].estimate} vs exact {exact} beyond 4 sigma"
    assert clean, f"trajectory audit found violations: {audit}"


def test_optimal_query_rule_instrumentation(tmp_path):
    from fblab.exact_dp import optimal_query_report

    ok_member = ok_deficit = ok_order = True
    reports = {}
    for pl in P_GRID:
        ch = make_channel(pl)
        report = optimal_query_report(12, ch)
        reports[pl] = report
        ok_member &= report["overall"]["all_member"]
        t1 = [ph for ph in report["per_horizon"] if ph["t"] == 1][0]
        ok_deficit &= t1["max_deficit"] == 0
        rows = error_curve(ch, MAX_POSTERIOR, 12)
        _, table = bellman_optimum(12, ch)
        for n, pe, _ in rows:
            ok_order &= table.optimal_error(n) <= pe
    out = tmp_path / "query_rule_report.json"
    out.write_text(serialize.dumps(reports))
    emitted = out.exists() and out.stat().st_size > 0
    _verdict(
        "fewest-votes query rule: membership, one-step deficits, optimality order",
        ok_member and ok_deficit and ok_order and emitted,
        f"report at {out}",
    )
    assert ok_member and ok_deficit and ok_order and emitted
