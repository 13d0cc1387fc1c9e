import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblab import channel, serialize
from fblab.belief import leaders
from fblab.channel import make_channel
from fblab.cli import _parse_strategy, build_parser, dispatch
from fblab.exact_dp import bellman_optimum
from fblab.montecarlo import simulate_trajectory


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--p", "1/10", "--n", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["subcommand"] == "bounds"
    assert abs(doc["report"]["f_fb"] - 0.44522) <= 1e-5
    assert abs(doc["report"]["upper"] - 2.83e-4) <= 0.01 * 2.83e-4


def test_bounds_json_roundtrips_bytes(tmp_path, capsys):
    out_file = tmp_path / "bounds.json"
    code, _, _ = run_cli(capsys, "bounds", "--p", "1/10", "--n", "20", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert json.dumps(json.loads(text), indent=2, ensure_ascii=False) + "\n" == text


def test_bounds_csv_header_and_rows(tmp_path, capsys):
    out_file = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--p", "1/20,1/10", "--n", "10", "--format", "csv",
        "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_bytes().decode().split("\r\n")
    assert lines[0] == "p,n,f_fb,e2,e3,upper,lower"
    assert len(lines) == 4 and lines[3] == ""
    assert json.loads(out)["written"] == str(out_file)  # run config goes to stdout


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_f_fb_at_one_half_is_positive_zero(capsys, mode):
    _, out, _ = run_cli(capsys, "bounds", "--p", "1/2", "--n", "3", "--mode", mode)
    f_fb = json.loads(out)["report"]["f_fb"]
    assert f_fb == 0.0 and math.copysign(1.0, f_fb) == 1.0
    _, out, _ = run_cli(capsys, "bounds", "--p", "1/2", "--format", "csv", "--mode", mode)
    assert out.split("\r\n")[1].split(",")[2] == "0.0"


# one job per subcommand and output format
_OUTPUT_JOBS = {
    "bounds": ("bounds", "--p", "1/10", "--n", "6"),
    "bounds-csv": ("bounds", "--p", "1/10,1/5", "--n", "6", "--format", "csv"),
    "exact": ("exact", "--p", "1/10", "--n", "6"),
    "bellman": ("bellman", "--p", "1/5", "--n", "6"),
    "verify-theorem2": ("verify-theorem2", "--p", "1/5", "--n", "6", "--detail"),
    "octopus": ("octopus", "--p", "1/10", "--depth", "3", "--verify"),
    "octopus-dot": ("octopus", "--p", "1/10", "--depth", "3", "--format", "dot"),
    "paths": ("paths", "--p", "1/10", "--n", "6"),
    "simulate": ("simulate", "--p", "0.1", "--n", "6", "--trials", "200"),
    "simplex": ("simplex", "--p", "1/10", "--n", "6"),
    "sweep": ("sweep", "--p", "1/10", "--n-max", "6"),
}


@pytest.mark.parametrize("job", sorted(_OUTPUT_JOBS))
def test_out_file_holds_what_stdout_gets_without_it(tmp_path, capsys, job):
    argv, path = _OUTPUT_JOBS[job], tmp_path / "result"
    code, text, _ = run_cli(capsys, *argv)
    assert code == 0
    code, echo, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    written = path.read_bytes().decode()
    if text.startswith("{"):  # JSON carries its configuration, whose "out" is the path
        out_key = f'\n    "out": {json.dumps(str(path))},'
        assert echo == "" and written == text.replace('\n    "out": null,', out_key, 1)
    else:  # a CSV or DOT file has no place for the configuration, so stdout gets it
        assert written == text
        doc = json.loads(echo)
        assert list(doc) == ["config", "written"] and doc["written"] == str(path)
        assert doc["config"]["subcommand"] == argv[0] and doc["config"]["out"] == str(path)


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def run(p):
        argv = [sys.executable, "-m", "fblab", "bounds", "--p", p, "--n", "2"]
        return subprocess.run(argv, env=env, capture_output=True, text=True)

    ok, bad = run("1/10"), run("2")
    assert ok.returncode == 0 and json.loads(ok.stdout)["config"]["subcommand"] == "bounds"
    assert bad.returncode == 2 and bad.stdout == ""
    assert json.loads(bad.stderr)["error"] == "invalid-input"


def test_exact_emits_exact_rational(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--p", "1/10", "--n", "1", "--strategy", "max-posterior",
        "--mode", "rational",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p_e"] == {"num": "2", "den": "5"}
    assert doc["config"]["n"] == 1


def test_exact_rerun_is_byte_identical(capsys):
    argv = ("exact", "--p", "1/10", "--n", "4", "--strategy", "max-posterior", "--mode", "rational")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_bellman_summary(capsys):
    code, out, _ = run_cli(capsys, "bellman", "--p", "1/10", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["p_e"] == {"num": "4", "den": "25"}
    assert doc["argmax_summary"]["states"] > 0


def test_bellman_resource_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "bellman", "--p", "1/10", "--n", "30", "--state-cap", "10")
    assert code == 4
    assert json.loads(err)["error"] == "resource-cap"


def test_bellman_state_cap_counts_every_lattice_state(capsys):
    # lattices 0..5 hold 1 + 3 + 6 + 10 + 15 + 21 = 56 states
    code, _, _ = run_cli(capsys, "bellman", "--p", "1/10", "--n", "5", "--state-cap", "56")
    assert code == 0
    code, out, err = run_cli(capsys, "bellman", "--p", "1/10", "--n", "5", "--state-cap", "55")
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "resource-cap",
        "detail": "backward induction needs 56 state evaluations, cap is 55",
    }


@pytest.mark.parametrize(
    "argv, detail",
    [
        # valid input whose float P_e lies below the smallest double
        (("exact", "--p", "0.001", "--n", "400", "--mode", "float"), "underflow"),
        # 1/(4pq) overflows for a subnormal p; 4pq rounds to 1 a few ulps below 1/2
        (("bounds", "--p", "1e-320", "--mode", "float"), "double precision"),
        (("bounds", "--p", "0.49999999999999994", "--n", "5"), "double precision"),
        # exact p whose double is 0.0: the exponents and closed forms run on doubles
        (("bounds", "--p", "1e-400", "--n", "3"), "underflow"),
        (("paths", "--p", "1e-400", "--n", "3", "--variant", "closed-form"), "underflow"),
        # the float chain's transition probability p/3 underflows
        (("paths", "--p", "5e-324", "--n", "3", "--mode", "float"), "underflow"),
        (("verify-theorem2", "--p", "5e-324", "--n", "4", "--mode", "float"), "underflow"),
        # a positive series value that underflowed is never printed as 0.0
        (("paths", "--p", "0.001", "--n", "400", "--mode", "float"), "underflow"),
        # rational mode, but the closed form runs on doubles
        (("paths", "--p", "1/1000", "--n", "400", "--variant", "closed-form"), "underflow"),
        # a binomial weight of the restricted sum is past the largest double
        (("paths", "--p", "0.1", "--n", "2600", "--mode", "float", "--series", "basic"),
         "underflow"),
    ],
    ids=["exact-p-e", "bounds-subnormal-p", "bounds-below-half", "bounds-zero-double",
         "paths-closed-form", "paths-reach", "verify-theorem2-p-e", "paths-series-value",
         "paths-rational-closed-form-value", "paths-restricted-weight-overflow"],
)
def test_float_underflow_is_a_failed_check(capsys, argv, detail):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "check-failed"
    assert detail in diag["detail"]


def _inflate_a_float_layer(monkeypatch):
    """Make backward induction double the error mass of (0, 0, 0) with one use left
    after the report has read that layer, so that the next layer, computed from it,
    has a real deficit: at (0, 1, 1) with two uses left the fewest-votes query,
    which leads back to (0, 0, 0), is no longer optimal."""
    from fblab import exact_dp

    backward_layers = exact_dp.backward_layers

    def inflated(n, ch, state_cap=None):
        table, layers = backward_layers(n, ch, state_cap)

        def stream():
            for t, layer in enumerate(layers, 1):
                yield layer
                if t == 1:
                    at, _, best = layer[:3]
                    assert at[0] == 0  # (0, 0, 0) is the first state a layer evaluates
                    best[0] *= 2  # in place: the layer the next one is computed from

        return table, stream()

    monkeypatch.setattr(exact_dp, "backward_layers", inflated)


def _break_a_reference_transition(monkeypatch):
    from fblab import chain

    broken = dict(chain.REFERENCE_TRANSITIONS)
    broken[(0, 1, 1)] = (((0, 0, 0), 1, "q"), ((0, 2, 2), 1, "p"))  # swapped factors
    monkeypatch.setattr(chain, "REFERENCE_TRANSITIONS", broken)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
@pytest.mark.parametrize(
    "argv, breaks, failed",
    [
        (("verify-theorem2", "--p", "0.1", "--n", "4", "--mode", "float"), _inflate_a_float_layer,
         lambda doc: doc["report"]["per_horizon"][1]["worst_state"] == [0, 1, 1]
         and not doc["report"]["overall"]["all_member"]),
        (("octopus", "--p", "1/10", "--depth", "2", "--verify"), _break_a_reference_transition,
         lambda doc: not doc["verification"]["all_match"]),
    ],
    ids=["verify-theorem2-float-deficit", "octopus-verify-mismatch"],
)
def test_exit_3_reports_go_where_results_go(capsys, monkeypatch, tmp_path, argv, breaks, failed,
                                            to_file):
    # a report whose check fails exits 3 and is written as a passing one is, to
    # stdout or to --out, with nothing on stderr
    out_file = tmp_path / "report.json"
    extra = ("--out", str(out_file)) if to_file else ()
    assert run_cli(capsys, *argv, *extra)[0] == 0
    breaks(monkeypatch)
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 3 and err == ""
    if to_file:
        assert out == ""
        out = out_file.read_text()
    assert failed(json.loads(out))


def test_exit_3_diagnostics_go_to_stderr_alone(capsys):
    # a check that fails before any report exists (here P_e* underflows) writes one
    # JSON diagnostic to stderr and nothing to stdout, as exits 2 and 4 do
    code, out, err = run_cli(capsys, "verify-theorem2", "--p", "5e-324", "--n", "4", "--mode", "float")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "check-failed"


def test_paths_underflowed_return_probability_is_a_failed_check(capsys, monkeypatch):
    from fblab import chain

    monkeypatch.setattr(chain, "reach_prob", lambda n, ch: 0.0)
    code, out, err = run_cli(capsys, "paths", "--p", "0.1", "--n", "6", "--mode", "float")
    assert code == 3 and out == ""
    assert "underflow" in json.loads(err)["detail"]


def test_closed_form_underflow_does_not_point_to_rational_mode(capsys):
    # the closed forms run on doubles for an exact channel too: rational mode is what ran
    code, _, err = run_cli(capsys, "paths", "--p", "1e-400", "--n", "3", "--variant", "closed-form")
    assert code == 3
    detail = json.loads(err)["detail"]
    assert "underflow" in detail
    assert "rational" not in detail


def test_float_simplex_underflow_is_a_failed_check(capsys):
    # valid p whose tie-event probability lies below the smallest double
    code, _, err = run_cli(capsys, "simplex", "--p", "1e-300", "--n", "30", "--mode", "float")
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "check-failed"
    assert "underflow" in diag["detail"]


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--p", "1/10", "--n", "30"),
        ("sweep", "--p", "0.1", "--n-max", "30", "--mode", "float"),
        ("paths", "--p", "1/10", "--n", "30"),
        ("bellman", "--p", "1/10", "--n", "30"),
        ("verify-theorem2", "--p", "1/10", "--n", "30"),
        ("sweep", "--p", "1/10", "--n-max", "30", "--strategy", "optimal"),
        ("octopus", "--p", "1/10", "--depth", "30"),  # 9 * 30 - 2 = 268 chain states
    ],
)
def test_every_program_respects_state_cap(capsys, monkeypatch, argv):
    monkeypatch.setattr(channel, "STATE_CAP", 100)
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert json.loads(err)["error"] == "resource-cap"


def test_octopus_state_cap_boundary(capsys, monkeypatch):
    # depth 3 reaches 9 * 3 - 2 = 25 chain states
    monkeypatch.setattr(channel, "STATE_CAP", 25)
    assert run_cli(capsys, "octopus", "--p", "1/10", "--depth", "3")[0] == 0
    monkeypatch.setattr(channel, "STATE_CAP", 24)
    code, out, err = run_cli(capsys, "octopus", "--p", "1/10", "--depth", "3")
    assert code == 4 and out == ""
    assert json.loads(err) == {
        "error": "resource-cap", "detail": "chain derivation reaches 25 states, cap is 24"
    }


# stdout digests of float jobs: a change in the order of any float operation of the
# forward programs, the chain or the simplex block-sum shows here, and so does one in
# verify-theorem2's float deficits (76 states of the n = 12 job have a nonzero one) or
# in its choice of the first state with the largest deficit (the n = 36 job has layers
# where several states share it)
FLOAT_OUTPUT_SHA256 = {
    "sweep --p 0.2 --n-max 30 --strategy round-robin --mode float":
        "9db80ec324dbf0d0485a00a75c63586cc100dd07e232b5fb753cc9eb64b6ab4c",
    "sweep --p 0.1 --n-max 60 --mode float":
        "c8551bb37efb6d3c3e1d440773b7311c82a9e9f29111ca6473f17149cb2ef301",
    "exact --p 0.1 --n 30 --strategy fixed:2 --mode float":
        "63921130b6d5afd7a01bd6d1531cd3ef9163be03c18b41da43cd4b9d5790c3f8",
    "paths --p 0.1 --n 60 --series loops --variant closed-form --mode float":
        "4d976352c70715ca08f62c440a1559b5a37db521abdb4132ec495a92a0a8d1d0",
    "simplex --p 0.1 --n 60 --mode float":
        "c4d1c04a6dda17423dbfa59adce5793f81d7ffe48ce47703b29d4ff76c21f71e",
    "verify-theorem2 --p 0.1 --n 12 --mode float --detail":
        "d5097c7bff3a3a8480a8aee7204e599837a96f83a2103f5b0ec4d32ecabac51c",
    "verify-theorem2 --p 0.2 --n 36 --mode float":
        "abbb9ec865e563af627d4c39cf632a44d82256704a2646931a72377e7fd4dfba",
    "bounds --p 0.1 --n 20 --mode float":
        "a241a421e1df8c55c0bdb11e5a626d8a5ee3bc8f32874e3eda8139c719310b10",
    "octopus --p 0.1 --depth 3 --mode float":
        "e643e4df7338bb46a8ad8611ba68b585ed49116b1f3d599d870227e8657f7ee0",
}


@pytest.mark.parametrize("job", sorted(FLOAT_OUTPUT_SHA256))
def test_float_outputs_are_pinned(capsys, job):
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLOAT_OUTPUT_SHA256[job]


def _write_table(path, n, entry):
    """A table rule over every normalised state with entries up to n."""
    states = [s for s in itertools.product(range(n + 1), repeat=3) if min(s) == 0]
    path.write_text(json.dumps([{"state": list(s), **entry(leaders(s))} for s in states]))


def _lowest_leader(lead):
    return {"query": lead[0]}


def _two_sevenths(lead):
    # weight 5/7 on the lowest leader and 2/7 on the next message: L = 7
    return {"distribution": {str(lead[0]): [5, 7], str(lead[0] % 3 + 1): [2, 7]}}


# stdout digests of rational jobs that the benchmark goldens do not cover, recorded
# before the forward pass moved to integer numerators (the verify-theorem2 jobs before
# its report moved to lattice index arrays: at p = 1/2 every query ties); the table
# jobs read their tables from the working directory so that the echoed configuration
# holds no path
RATIONAL_OUTPUT_SHA256 = {
    "exact --p 1/10 --n 240":
        "9afcb37c9b0be69236a2fd5c58b3d684fd88590535284f38e3fb3e678733bc3b",
    "sweep --p 1/6 --n-max 40 --strategy table:lowest-index.json":
        "b4213993a38ae9b943c1b8614aef939a915ed36d846229f243775029dfccc55f",
    "exact --p 1/7 --n 30 --strategy table:two-sevenths.json":
        "d166fbcf2cbf928c9690f1c64472f13e71830902b1045d1e25b6e44ecc204d64",
    "sweep --p 1/3 --n-max 40 --strategy round-robin":
        "ff116c6e6e877cfaba5f3a666f023afce81e0d6f40994e97dd4ee3bb82e82e76",
    "paths --p 1/3 --n 30 --series loops --variant closed-form":
        "a96961def8711dcab094e623afae2e8a55faa079e231174c25f2b473267903e4",
    "verify-theorem2 --p 1/2 --n 6 --detail":
        "6f4cdafbd26b557a3324f322dc7ee718a569d7941fe4534b70435afa0593e687",
    # p = 1/2 ties every query; here the argmax and fewest-votes sets of the rows vary
    "verify-theorem2 --p 1/5 --n 12 --detail":
        "2c73d2f6371de5974de30d08cad17b8e9929e8baf2ea440ccccd9551f7f1da83",
    "verify-theorem2 --p 3/10 --n 24":
        "511eaece2e9988d08989b06f119de1e039be5d04ff926b7b5348bc09b5aecf08",
    "bounds --p 1/10 --n 20":
        "7e350b9a556fa4acaae1afd2f0cc98e4946bbaa34a319e580ef526c8709ad93d",
    "bounds --p 1/2 --n 4":
        "4cf5a9173fc8f6152adf44b2296bd73bb0908eaf622156f7fcd055ea6aba11f3",
    "octopus --p 1/10 --depth 3":
        "5aaa3552975bf8a385b95a54f0ebc8ea53dcafd94a2cb46f779ea3ee5fc08975",
    # the one command whose output rests on the loop-density root; recorded while the
    # root's closed form was still evaluated with mpmath
    "paths --p 1/10 --n 30 --series basic --variant closed-form":
        "1bbe4a9cda119f9b104ce97513cd1fbdf44b455ae94eee324c8ef6e9e66cfe37",
}


def _zero_weight(lead):
    # all weight on the lowest leader; the next message is listed with weight 0
    return {"distribution": {str(lead[0]): [1, 1], str(lead[0] % 3 + 1): [0, 1]}}


def test_zero_weight_table_entry_runs_in_both_modes(capsys, tmp_path):
    table = tmp_path / "zero.json"
    _write_table(table, 10, _zero_weight)
    argv = ("--p", "0.1", "--strategy", f"table:{table}")
    pe = {}
    for mode in ("rational", "float"):
        code, out, err = run_cli(capsys, "exact", *argv, "--n", "10", "--mode", mode)
        assert code == 0, err
        pe[mode] = json.loads(out)["p_e"]
        code, out, err = run_cli(capsys, "sweep", *argv, "--n-max", "10", "--mode", mode)
        assert code == 0, err
    exact = int(pe["rational"]["num"]) / int(pe["rational"]["den"])
    assert abs(pe["float"] - exact) <= 1e-12 * exact


@pytest.mark.parametrize("job", sorted(RATIONAL_OUTPUT_SHA256))
def test_rational_outputs_are_pinned(capsys, tmp_path, monkeypatch, job):
    monkeypatch.chdir(tmp_path)
    _write_table(tmp_path / "lowest-index.json", 40, _lowest_leader)
    _write_table(tmp_path / "two-sevenths.json", 30, _two_sevenths)
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RATIONAL_OUTPUT_SHA256[job]


def test_float_bellman_past_cancellation(capsys):
    code, out, _ = run_cli(capsys, "bellman", "--p", "0.1", "--n", "150", "--mode", "float")
    assert code == 0
    pe = json.loads(out)["p_e"]
    exact = float(bellman_optimum(150, make_channel("1/10"))[0])
    assert math.isfinite(pe) and pe > 0
    assert abs(pe - exact) <= 1e-12 * exact


def test_float_optimal_sweep_long_horizon(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "0.1", "--n-max", "150", "--mode", "float", "--strategy", "optimal"
    )
    assert code == 0
    rows = out.split("\r\n")[1:-1]
    assert len(rows) == 150
    assert all(0.0 < float(r.split(",")[2]) < 1.0 for r in rows)


def test_verify_theorem2_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem2", "--p", "1/10", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["overall"]["all_member"] is True


def test_octopus_verify(capsys):
    code, out, _ = run_cli(capsys, "octopus", "--p", "1/10", "--verify", "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["all_match"] is True
    assert all(g["verdict"] == "match" for g in doc["verification"]["groups"])


def test_octopus_dot_idempotent(tmp_path, capsys):
    f1, f2 = tmp_path / "a.dot", tmp_path / "b.dot"
    run_cli(capsys, "octopus", "--p", "1/10", "--depth", "2", "--format", "dot", "--out", str(f1))
    run_cli(capsys, "octopus", "--p", "1/10", "--depth", "2", "--format", "dot", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_text().startswith("digraph")


def test_paths_subcommand(capsys):
    code, out, _ = run_cli(capsys, "paths", "--p", "1/10", "--n", "3", "--series", "loops")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"num": "81", "den": "1000"}
    assert doc["return_probability"] == {"num": "81", "den": "1000"}


def test_simulate_reports_interval(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.1", "--n", "8", "--trials", "5000",
        "--seed", "11", "--workers", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["trials"] == 5000
    assert doc["ci99"][0] <= doc["estimate"] <= doc["ci99"][1]


def test_simulate_rerun_is_byte_identical(capsys):
    argv = ("simulate", "--p", "0.1", "--n", "8", "--trials", "5000", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_simplex_subcommand(capsys):
    code, out, _ = run_cli(capsys, "simplex", "--p", "1/10", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["prob"] == {"num": "9", "den": "100"}


def test_sweep_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--p", "1/10", "--n-max", "4", "--out", str(out_file)
    )
    assert code == 0
    lines = out_file.read_bytes().decode().split("\r\n")
    assert lines[0] == "n,p,pe,exponent"
    assert lines[1].startswith("1,0.1,0.4,")
    assert len(lines) == 6
    rerun = tmp_path / "sweep2.csv"
    run_cli(capsys, "sweep", "--p", "1/10", "--n-max", "4", "--out", str(rerun))
    assert rerun.read_bytes() == out_file.read_bytes()


def test_sweep_csv_rereads_and_reserializes_identically(tmp_path, capsys):
    import csv as csv_mod
    import io

    out_file = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--p", "1/10", "--n-max", "5", "--out", str(out_file))
    original = out_file.read_bytes().decode()
    with open(out_file, newline="") as fh:
        rows = list(csv_mod.reader(fh))
    buf = io.StringIO()
    csv_mod.writer(buf).writerows(rows)
    assert buf.getvalue() == original


def test_simulate_trajectory_dump(tmp_path, capsys):
    dump = tmp_path / "episodes.jsonl"
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.1", "--n", "6", "--trials", "50",
        "--seed", "3", "--dump-trajectories", str(dump), "--dump-count", "10",
    )
    assert code == 0
    assert json.loads(out)["trajectory_dump"]["count"] == 10
    lines = dump.read_text().splitlines()
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert rec["n"] == 6 and len(rec["queries"]) == 6


def test_verify_theorem2_detail_rows(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem2", "--p", "1/10", "--n", "3", "--detail")
    assert code == 0
    rows = json.loads(out)["report"]["per_state"]
    assert rows and all(r["verdict"] == "member" for r in rows)


# sha256 of the dump file of "simulate --p 0.2 --n 20 --trials 300 --seed 5
# --dump-count 300", recorded while dumps still came from the scalar path (fixed:2
# and round-robin while records were still dataclass objects, before they became dicts)
DUMP_SHA256 = {
    "fixed:2": "d76adad268a50abaf7432d67a9f06e248ce8c5a325d166e15653ba067f83a99d",
    "max-posterior": "ab426e509655dca58f61d86ec33e5b348c8a1042f42e482493691bcfd2d38ba5",
    "round-robin": "0cc2b6c36b276912acdfa751a767b2a1d334336619d2c2f3f86d8cf3acd2800b",
    "table:two-sevenths.json": "0ea5c16931485cc8bb300ad2a7e5bfe447202f1701effcffb33bc02333ef3461",
}
DUMP_ARGV = ("simulate", "--p", "0.2", "--n", "20", "--trials", "300", "--seed", "5",
             "--dump-trajectories", "dump.jsonl", "--dump-count", "300")


@pytest.mark.parametrize("strategy", sorted(DUMP_SHA256))
def test_trajectory_dump_is_pinned(tmp_path, monkeypatch, capsys, strategy):
    monkeypatch.chdir(tmp_path)
    _write_table(tmp_path / "two-sevenths.json", 20, _two_sevenths)
    code, _, _ = run_cli(capsys, *DUMP_ARGV, "--strategy", strategy)
    assert code == 0
    digest = hashlib.sha256((tmp_path / "dump.jsonl").read_bytes()).hexdigest()
    assert digest == DUMP_SHA256[strategy]


@pytest.mark.parametrize("strategy", sorted(DUMP_SHA256))
def test_trajectory_dump_needs_no_default_hook(tmp_path, monkeypatch, strategy):
    # a record is JSON's own dict of ints and lists, so json's C encoder writes
    # every line without serialize._default; the command runs without dispatch,
    # whose stdout result holds a dataclass
    def refuse(value):
        raise AssertionError(f"default hook called on {type(value).__name__}")

    monkeypatch.chdir(tmp_path)
    _write_table(tmp_path / "two-sevenths.json", 20, _two_sevenths)
    monkeypatch.setattr(serialize, "_default", refuse)
    args = build_parser().parse_args([*DUMP_ARGV, "--strategy", strategy])
    assert args.func(args)["trajectory_dump"]["count"] == 300
    data = (tmp_path / "dump.jsonl").read_bytes()
    assert data.count(b"\n") == 300
    assert hashlib.sha256(data).hexdigest() == DUMP_SHA256[strategy]
    first = json.loads(data.split(b"\n", 1)[0])
    rule = _parse_strategy(strategy)
    assert first == simulate_trajectory(20, make_channel("0.2", "float"), rule, 5, 0)


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "-1"),
        ("--n", "4", "--dump-trajectories", "dump.jsonl", "--dump-count", "-5"),
        ("--n", "4", "--trials", "0"),
    ],
    ids=["negative-horizon", "negative-dump-count", "zero-trials"],
)
def test_simulate_bad_input_is_invalid_input(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "simulate", "--p", "0.1", "--trials", "10", *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "invalid-input"
    assert not (tmp_path / "dump.jsonl").exists()


@pytest.mark.parametrize(
    "entry",
    [
        lambda lead: None if lead == (1, 2, 3) else {"query": 1},  # no entry for (0, 0, 0)
        lambda lead: {"distribution": {"1": [1, 2]}},
    ],
    ids=["missing-state", "weights-not-summing-to-1"],
)
def test_simulate_table_fault_is_invalid_input(tmp_path, capsys, entry):
    path = tmp_path / "table.json"
    states = [s for s in itertools.product(range(5), repeat=3) if min(s) == 0]
    entries = [(s, entry(leaders(s))) for s in states]
    path.write_text(json.dumps([{"state": list(s), **e} for s, e in entries if e is not None]))
    code, _, err = run_cli(
        capsys, "simulate", "--p", "0.1", "--n", "4", "--trials", "10",
        "--strategy", f"table:{path}",
    )
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def _bad_tables():
    """JSON texts of tables over the states with entries up to 4, each with one fault.

    A repeated key is written as raw text, since a dict cannot hold one; the
    last value of each is a valid entry, so only the repetition is at fault.
    """
    states = [s for s in itertools.product(range(5), repeat=3) if min(s) == 0]
    base = [{"state": list(s), "query": leaders(s)[0]} for s in states]
    tables = {
        "weights-2-and-minus-1": [
            {"state": list(s), "distribution": {str(leaders(s)[0]): [2, 1],
                                                str(leaders(s)[0] % 3 + 1): [-1, 1]}}
            for s in states
        ],
        "query-4": [{"state": [0, 0, 0], "query": 4}] + base[1:],
        "query-float": [{"state": [0, 0, 0], "query": 1.7}] + base[1:],
        "query-bool": [{"state": [0, 0, 0], "query": True}] + base[1:],
        "distribution-key-01": [
            {"state": [0, 0, 0], "distribution": {"1": [1, 2], "01": [1, 2], "2": [1, 2]}}
        ] + base[1:],
        "numerator-bool": [
            {"state": [0, 0, 0], "distribution": {"1": [True, 2], "2": [1, 2]}}
        ] + base[1:],
        "denominator-bool": [{"state": [0, 0, 0], "distribution": {"1": [1, True]}}] + base[1:],
        "distribution-not-an-object": [{"state": [0, 0, 0], "distribution": [1]}] + base[1:],
        "state-listed-twice": base + [{"state": [1.0, 0, 0], "query": 2}],
        "unvisited-unnormalised-state": base + [{"state": [1, 1, 1], "query": 1}],
    }
    rest = json.dumps(base[1:])[1:]  # the entries after (0, 0, 0), and the closing bracket
    repeated = {
        "repeated-distribution-key":
            '{"state": [0, 0, 0], "distribution": {"1": [1, 2], "1": [1, 1]}}',
        "repeated-state": '{"state": [0, 1, 1], "state": [0, 0, 0], "query": 1}',
        "repeated-query": '{"state": [0, 0, 0], "query": 4, "query": 1}',
    }
    return {name: json.dumps(table) for name, table in tables.items()} | {
        name: f"[{entry}, {rest}" for name, entry in repeated.items()
    }


@pytest.mark.parametrize("fault", sorted(_bad_tables()))
def test_bad_table_is_rejected_by_every_command(tmp_path, capsys, fault):
    # every fault but a missing state is found when the table is loaded, so
    # the detail does not depend on the command, the arithmetic or the horizon
    path = tmp_path / "table.json"
    path.write_text(_bad_tables()[fault])
    strategy = ("--n", "4", "--strategy", f"table:{path}")
    details = set()
    for argv in (
        ("exact", "--p", "1/10", *strategy),
        ("exact", "--p", "0.1", "--mode", "float", *strategy),
        ("simulate", "--p", "0.1", "--trials", "1000", *strategy),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        diag = json.loads(err)
        assert diag["error"] == "invalid-input"
        assert str(path) in diag["detail"]
        details.add(diag["detail"])
    assert len(details) == 1, details


def test_simulate_worker_count_is_not_a_shard_count(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.1", "--n", "4", "--trials", "10", "--workers", "100000000"
    )
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 100_000_000


def test_octopus_verify_mismatch_exits_nonzero(monkeypatch, capsys):
    _break_a_reference_transition(monkeypatch)
    code, out, _ = run_cli(capsys, "octopus", "--p", "1/10", "--verify", "--depth", "2")
    assert code == 3
    doc = json.loads(out)
    verdicts = {tuple(g["state"]): g["verdict"] for g in doc["verification"]["groups"]}
    assert verdicts[(0, 1, 1)] == "mismatch"
    assert verdicts[(0, 0, 0)] == "match"


@pytest.mark.parametrize(
    "content",
    [
        None,
        '[{"state": [0, 0, 0], "query": 1',
        '[{"state": [0, 0, 0]}]',
        '{"state": [0, 0, 0], "query": 1}',
        '[{"state": [0, 0, 0], "query": "one"}]',
        '[{"state": [0, 0, 0], "distribution": {"1": [1, 0]}}]',
        '[{"state": [0, 0, 0], "distribution": {"1": [1]}}]',
    ],
    ids=["missing", "bad-json", "no-query", "not-a-list", "bad-query", "zero-den", "short-weight"],
)
def test_table_strategy_load_errors_are_invalid_input(capsys, tmp_path, content):
    path = tmp_path / "table.json"
    if content is not None:
        path.write_text(content)
    argv = ("exact", "--p", "1/10", "--n", "3", "--strategy", f"table:{path}")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert str(path) in diag["detail"]


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simplex_horizon_below_three_is_invalid_input(capsys, n):
    code, _, err = run_cli(capsys, "simplex", "--p", "1/10", "--n", n)
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--p", "0.6"),
        # a float-mode literal whose double is 0.0
        ("exact", "--p", "1e-400", "--n", "3", "--mode", "float"),
        ("verify-theorem2", "--p", "1e-400", "--n", "3", "--mode", "float"),
    ],
    ids=["above-half", "exact-zero-double", "verify-theorem2-zero-double"],
)
def test_invalid_probability_exit_code(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert argv[2] in diag["detail"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        # DOT output has no place for the verdict report
        (("octopus", "--p", "1/10", "--format", "dot", "--verify"),
         "--verify needs --format json"),
        (("bellman", "--p", "1/10", "--n", "3", "--state-cap", "0"),
         "--state-cap must be at least 1, got 0"),
        (("bellman", "--p", "1/10", "--n", "3", "--state-cap", "-1"),
         "--state-cap must be at least 1, got -1"),
        # the hash reads a seed mod 2**64, so these would repeat the runs of 2**64 - 1 and 0
        (("simulate", "--p", "0.2", "--n", "30", "--trials", "100", "--seed", "-1"),
         "seed must lie in [0, 2**64), got -1"),
        (("simulate", "--p", "0.2", "--n", "30", "--trials", "100", "--seed", str(1 << 64)),
         f"seed must lie in [0, 2**64), got {1 << 64}"),
        # a fixed query that is not an integer: the detail names the strategy as given
        (("exact", "--p", "1/10", "--n", "3", "--strategy", "fixed:x"), "strategy 'fixed:x'"),
        (("exact", "--p", "1/10", "--n", "3", "--strategy", "fixed:"), "strategy 'fixed:'"),
    ],
    ids=["octopus-dot-verify", "bellman-zero-state-cap", "bellman-negative-state-cap",
         "simulate-negative-seed", "simulate-seed-past-64-bits", "exact-fixed-not-a-query",
         "exact-fixed-no-query"],
)
def test_invalid_flag_values_are_invalid_input(capsys, argv, detail):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert detail in diag["detail"]


@pytest.mark.parametrize("series", ["basic", "loops"])
def test_paths_checks_the_series_before_the_return_probability(capsys, monkeypatch, series):
    # both fail: the closed form underflows (exit 3) and the forward pass hits its cap (exit 4)
    monkeypatch.setattr(channel, "STATE_CAP", 100)
    code, _, err = run_cli(capsys, "paths", "--p", "1e-400", "--n", "30",
                           "--series", series, "--variant", "closed-form")
    assert code == 3
    assert "underflow" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "extra, calls",
    [
        ((), ["reach_prob"]),
        (("--mode", "float"), ["path_series", "reach_prob"]),
        (("--variant", "closed-form"), ["path_series", "reach_prob"]),
    ],
)
def test_paths_sums_an_exact_restricted_series_after_the_return_probability(
    capsys, monkeypatch, extra, calls
):
    # an exact restricted series cannot fail its check, and its sum can outlast the
    # capped return probability by minutes; every other series is checked first
    from fblab import chain

    monkeypatch.setattr(channel, "STATE_CAP", 100)
    seen = []
    for name in ("path_series", "reach_prob"):
        fn = getattr(chain, name)
        monkeypatch.setattr(chain, name, lambda *a, fn=fn, name=name: seen.append(name) or fn(*a))
    code, out, err = run_cli(capsys, "paths", "--p", "1/10", "--n", "40", *extra)
    assert code == 4 and out == ""
    assert "forward pass touches" in json.loads(err)["detail"]
    assert seen == calls


def test_bounds_json_with_several_probabilities_is_invalid_input(capsys):
    code, out, err = run_cli(capsys, "bounds", "--p", "1/10,1/5", "--format", "json")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "invalid-input", "detail": "json format takes a single --p literal"
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bounds_negative_horizon_is_invalid_input(capsys, fmt):
    # the exponents fail their check at this p (exit 3), so n is checked first
    code, out, err = run_cli(capsys, "bounds", "--p", "1e-400", "--n", "-1", "--format", fmt)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "invalid-input", "detail": "n must be nonnegative"}


@pytest.mark.parametrize(
    "argv",
    [
        ("exact", "--p", "1/10", "--n", "3", "--out"),
        ("simulate", "--p", "0.1", "--n", "3", "--trials", "5", "--dump-trajectories"),
    ],
    ids=["out", "dump-trajectories"],
)
def test_unwritable_output_path_is_invalid_input(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "result"
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["error"] == "invalid-input"
    assert str(path) in diag["detail"]


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["exact", "--p", "1/10", "--n", "1", "--bogus"])
    assert exc.value.code == 2


# p literals at the numeric edges: a few ulps below 1/2, subnormal doubles,
# 1/10**k written both ways (its double is 0.0 past k = 323), and random a/c
_EDGE_P = st.one_of(
    st.integers(1, 8).map(lambda k: repr(0.5 - k * 2.0**-54)),
    st.integers(1, 2**52 - 1).map(lambda m: repr(math.ldexp(m, -1074))),
    st.integers(1, 400).flatmap(lambda k: st.sampled_from([f"1e-{k}", "1/1" + "0" * k])),
    st.integers(2, 10**6).flatmap(lambda c: st.integers(1, c).map(lambda a: f"{a}/{c}")),
)
_HORIZON_FLAG = {
    "bounds": "--n", "exact": "--n", "bellman": "--n", "verify-theorem2": "--n",
    "simplex": "--n", "paths": "--n", "sweep": "--n-max", "octopus": "--depth",
    "simulate": "--n",
}


@pytest.fixture(scope="module")
def edge_tables(tmp_path_factory):
    """Table rules covering every state the fuzz can reach (n <= 8), by name."""
    root = tmp_path_factory.mktemp("edge-tables")
    tables = {"lowest-index": _lowest_leader, "two-sevenths": _two_sevenths}
    for name, entry in tables.items():
        _write_table(root / f"{name}.json", 8, entry)
    return {name: f"table:{root / name}.json" for name in tables}


@settings(max_examples=150, deadline=None)
@given(
    cmd=st.sampled_from(sorted(_HORIZON_FLAG)),
    p=_EDGE_P,
    n=st.integers(0, 8),
    mode=st.sampled_from(["rational", "float"]),
    series=st.sampled_from(["basic", "loops"]),
    variant=st.sampled_from(["restricted", "closed-form"]),
    detail=st.booleans(),
    trials=st.integers(1, 20),
    strategy=st.sampled_from([
        "max-posterior", "round-robin", "fixed:1", "fixed:2", "fixed:3",
        "lowest-index", "two-sevenths",
    ]),
    bounds_format=st.sampled_from(["json", "csv"]),
    octopus_format=st.sampled_from(["json", "dot"]),
    verify=st.booleans(),
    method=st.sampled_from(["block-sum", "enumeration"]),
)
# the masses of p = 1e-104 go subnormal: one query at (0, 3, 3), t = 1, rounds one
# subnormal ulp above the fewest-votes one, which a purely relative tie test calls a deficit
@example(cmd="verify-theorem2", p="1e-104", n=4, mode="float", series="basic",
         variant="restricted", detail=False, trials=1, strategy="max-posterior",
         bounds_format="json", octopus_format="json", verify=False, method="block-sum")
def test_numeric_edges_exit_with_a_contract_code(
    edge_tables, cmd, p, n, mode, series, variant, detail, trials, strategy,
    bounds_format, octopus_format, verify, method,
):
    argv = [cmd, "--p", p, _HORIZON_FLAG[cmd], str(n)]
    if cmd in ("simulate", "exact"):
        argv += ["--strategy", edge_tables.get(strategy, strategy)]
    if cmd == "simulate":  # Monte Carlo runs in float only and takes no --mode
        argv += ["--trials", str(trials)]
    else:
        argv += ["--mode", mode]
    if cmd == "paths":
        argv += ["--series", series, "--variant", variant]
    if cmd == "verify-theorem2" and detail:
        argv.append("--detail")
    fmt = {"bounds": bounds_format, "octopus": octopus_format}.get(cmd, "json")
    if cmd in ("bounds", "octopus"):
        argv += ["--format", fmt]
    if cmd == "octopus" and verify:
        argv.append("--verify")
    if cmd == "simplex":
        argv += ["--method", method]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 2, 3, 4)
    # one JSON document per run: the result (sweep's is CSV) or the diagnostic, and
    # re-reading and re-serializing it gives the same bytes (the README's property)
    doc, other = (out.getvalue(), err.getvalue()) if code == 0 else (err.getvalue(), out.getvalue())
    assert other == ""
    if code or (cmd != "sweep" and fmt == "json"):
        assert json.dumps(json.loads(doc), indent=2, ensure_ascii=False) + "\n" == doc
