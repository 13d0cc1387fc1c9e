import json
import math
from fractions import Fraction

import pytest

from fblab.bounds import error_exponents
from fblab.chain import (
    classify,
    depth,
    closed_form_loop_bound_exact,
    derive_transitions,
    export_dot,
    path_series,
    reach_prob,
    table_to_json,
    verify_reference_transitions,
)
from fblab.channel import make_channel

CH10 = make_channel("1/10")
P, Q = Fraction(1, 10), Fraction(9, 10)


def test_state_classification():
    assert classify((0, 0, 0)) == "main"
    for s in [(0, 1, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)]:
        assert classify(s) == "basic"
    assert classify((0, 2, 2)) == "tentacle"
    assert classify((2, 1, 0)) == "tentacle"


def test_hub_transitions_match_printed_values():
    table = derive_transitions(CH10, 2)
    rows = {tr.target: (tr.prob, tr.label) for tr in table.entries[(0, 0, 0)]}
    assert rows == {
        (0, 1, 1): (Q / 3, "q/3"),
        (1, 0, 0): (P / 3, "p/3"),
        (1, 0, 1): (P / 3, "p/3"),
        (0, 1, 0): (Q / 3, "q/3"),
        (1, 1, 0): (P / 3, "p/3"),
        (0, 0, 1): (Q / 3, "q/3"),
    }


def test_unique_leader_transitions():
    table = derive_transitions(CH10, 2)
    rows = {tr.target: tr.prob for tr in table.entries[(0, 1, 1)]}
    assert rows == {(0, 0, 0): P, (0, 2, 2): Q}


def test_two_way_tie_transitions():
    table = derive_transitions(CH10, 2)
    rows = {tr.target: tr.prob for tr in table.entries[(1, 0, 0)]}
    assert rows == {(1, 0, 1): Q / 2, (2, 1, 0): P / 2, (1, 1, 0): Q / 2, (2, 0, 1): P / 2}


@pytest.mark.parametrize("pl", ["1/10", "1/5", "1/2"])
def test_reference_tables_all_match(pl):
    report = verify_reference_transitions(make_channel(pl))
    assert report["all_match"]
    assert all(g["verdict"] == "match" for g in report["groups"])
    assert len(report["groups"]) == 7


def test_rows_are_stochastic_and_octopus_shaped():
    table = derive_transitions(CH10, 8)
    for s, rows in table.entries.items():
        hi, mid, _ = sorted(s, reverse=True)
        assert hi <= mid + 1  # nine tentacles, nothing else
        assert len({tr.target for tr in rows}) == len(rows)  # no two moves meet
        if s not in table.boundary:
            assert sum(tr.prob for tr in rows) == 1


def test_depth_two_ring():
    table = derive_transitions(CH10, 2)
    tips = {s for s in table.entries if depth(s) == 2}
    assert tips == {
        (0, 2, 2), (2, 0, 2), (2, 2, 0),
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    }


class TestReachProbability:
    def test_no_single_step_return(self):
        assert reach_prob(1, CH10) == 0

    def test_two_step_return(self):
        assert reach_prob(2, CH10) == P * Q

    def test_three_step_return(self):
        assert reach_prob(3, CH10) == P * Q**2

    def test_log_float_agrees_with_exact(self):
        chf = make_channel("0.1", "float")
        for n in (2, 5, 9):
            exact = float(reach_prob(n, CH10))
            approx = reach_prob(n, chf)
            assert abs(approx - exact) <= 1e-12 * exact

    def test_exponent_approaches_limit(self):
        chf = make_channel("0.1", "float")
        r = reach_prob(300, chf)
        f_fb = error_exponents(chf).f_fb
        assert abs(-math.log(r) / 300 - f_fb) <= 0.03


class TestTwoLoops:
    # a 2-loop at s is an edge s -> t followed by the edge t -> s
    ROWS = {s: {tr.target: tr.prob for tr in rows}
            for s, rows in derive_transitions(CH10, 3).entries.items()}

    def test_hub_loops(self):
        hub = self.ROWS[(0, 0, 0)]
        back = {t for t in hub if (0, 0, 0) in self.ROWS[t]}
        assert back == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
        assert all(hub[t] * self.ROWS[t][(0, 0, 0)] == P * Q / 3 for t in back)

    def test_tentacle_loop(self):
        assert self.ROWS[(0, 1, 1)][(0, 2, 2)] * self.ROWS[(0, 2, 2)][(0, 1, 1)] == Q * P

    def test_split_tentacle_loops(self):
        rows = self.ROWS[(1, 0, 0)]
        back = {t for t in rows if (1, 0, 0) in self.ROWS[t]}
        assert back == {(2, 0, 1), (2, 1, 0)}
        assert all(rows[t] * self.ROWS[t][(1, 0, 0)] == Q * P / 2 for t in back)


class TestSeries:
    def test_three_step_block_only(self):
        value, comps = path_series(3, CH10, False, "restricted")
        assert value == P * Q**2
        assert [(c.n2, c.n3) for c in comps] == [(0, 1)]

    def test_two_step_block_only(self):
        value, comps = path_series(2, CH10, False, "restricted")
        assert value == P * Q
        assert [(c.n2, c.n3) for c in comps] == [(1, 0)]

    def test_composition_feasibility(self):
        for n in range(2, 20):
            _, comps = path_series(n, CH10, False, "restricted")
            for c in comps:
                assert 2 * c.n2 + 3 * c.n3 == n
                assert c.m == c.n2 + c.n3

    def test_matches_basic_path_enumeration(self):
        # independent oracle: propagate over the hub+basic subchain only
        table = derive_transitions(CH10, 2)
        basic = {(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 1)}

        def basic_return(n):
            dist = {(0, 0, 0): Fraction(1)}
            for _ in range(n):
                nxt = {}
                for s, pr in dist.items():
                    for tr in table.entries[s]:
                        if tr.target in basic:
                            nxt[tr.target] = nxt.get(tr.target, Fraction(0)) + pr * tr.prob
                dist = nxt
            return dist.get((0, 0, 0), Fraction(0))

        for n in range(2, 13):
            value, _ = path_series(n, CH10, False, "restricted")
            assert value == basic_return(n)

    def test_loop_series_small_horizons_meet_exact(self):
        v2, comps2 = path_series(2, CH10, True, "restricted")
        assert v2 == reach_prob(2, CH10) == Fraction(9, 100)
        assert [(c.k2, c.n3) for c in comps2] == [(1, 0)]
        v3, comps3 = path_series(3, CH10, True, "restricted")
        assert v3 == reach_prob(3, CH10)
        assert [(c.k2, c.n3) for c in comps3] == [(0, 1)]

    def test_loop_series_never_exceeds_exact(self):
        for n in range(2, 31):
            value, _ = path_series(n, CH10, True, "restricted")
            assert value <= reach_prob(n, CH10)

    def test_closed_form_value_and_flag(self):
        value, _ = path_series(3, CH10, True, "closed-form")
        # independent high-precision evaluation of (1/2) pq^2 (1+z^(1/3))^3
        assert abs(value - 0.13149223920865075) <= 1e-12
        reach = reach_prob(3, CH10)
        assert reach == Fraction(81, 1000)
        assert closed_form_loop_bound_exact(3, CH10) > reach  # 0.1315 > 0.081, exactly

    def test_basic_closed_form_is_finite_and_positive(self):
        value, _ = path_series(9, CH10, False, "closed-form")
        assert 0 < value < 1


class TestDotExport:
    def test_depth_one_shape(self):
        table = derive_transitions(CH10, 1)
        text = export_dot(table)
        assert text.count("[shape=") == 7
        assert text.count('"000" ->') == 6
        assert 'label="q/3"' in text and 'label="p"' in text

    def test_depth_two_contains_ring_labels(self):
        text = export_dot(derive_transitions(CH10, 2))
        for label in ["022", "202", "220", "012", "021", "102", "120", "201", "210"]:
            assert f'"{label}"' in text

    def test_idempotent_and_deterministic(self):
        a = export_dot(derive_transitions(CH10, 3))
        b = export_dot(derive_transitions(make_channel("1/10"), 3))
        assert a == b


def test_table_json_dump_roundtrips():
    table = derive_transitions(CH10, 2)
    doc = table_to_json(table)
    text = json.dumps(doc, indent=2)
    assert json.dumps(json.loads(text), indent=2) == text
    states = {tuple(e["state"]) for e in doc["states"]}
    assert (0, 0, 0) in states and len(states) == 16
