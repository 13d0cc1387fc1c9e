import hashlib
import json
import math

import pytest

from fblab import exact_dp
from fblab.channel import make_channel
from fblab.cli import dispatch
from fblab.exact_dp import bellman_optimum


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


def test_float_underflow_is_a_failed_check(capsys):
    # valid input whose float P_e lies below the smallest double
    code, _, err = run_cli(capsys, "exact", "--p", "0.001", "--n", "400", "--mode", "float")
    assert code == 3
    diag = json.loads(err)
    assert diag["error"] == "check-failed"
    assert "underflow" in diag["detail"]


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
    ],
)
def test_forward_programs_respect_state_cap(capsys, monkeypatch, argv):
    monkeypatch.setattr(exact_dp, "STATE_CAP", 100)
    code, _, err = run_cli(capsys, *argv)
    assert code == 4
    assert json.loads(err)["error"] == "resource-cap"


# stdout digests of float jobs: a change in the order of any float operation of the
# forward programs, the chain or the simplex block-sum shows here
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
}


@pytest.mark.parametrize("job", sorted(FLOAT_OUTPUT_SHA256))
def test_float_outputs_are_pinned(capsys, job):
    code, out, _ = run_cli(capsys, *job.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FLOAT_OUTPUT_SHA256[job]


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


def test_simulate_rerun_identical_up_to_wall_clock(capsys):
    argv = ("simulate", "--p", "0.1", "--n", "8", "--trials", "5000", "--seed", "11")
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1["stats"]["elapsed_s"] = d2["stats"]["elapsed_s"] = None
    assert d1 == d2


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


def test_workers_default_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("FBLAB_WORKERS", "3")
    code, out, _ = run_cli(
        capsys, "simulate", "--p", "0.1", "--n", "4", "--trials", "900", "--seed", "2"
    )
    assert code == 0
    assert json.loads(out)["config"]["workers"] == 3


def test_octopus_verify_mismatch_exits_nonzero(monkeypatch, capsys):
    import fblab.chain as chain_mod

    broken = dict(chain_mod.REFERENCE_TRANSITIONS)
    broken[(0, 1, 1)] = (((0, 0, 0), 1, "q"), ((0, 2, 2), 1, "p"))  # swapped factors
    monkeypatch.setattr(chain_mod, "REFERENCE_TRANSITIONS", broken)
    code, out, _ = run_cli(capsys, "octopus", "--p", "1/10", "--verify", "--depth", "2")
    assert code == 3
    doc = json.loads(out)
    verdicts = {tuple(g["state"]): g["verdict"] for g in doc["verification"]["groups"]}
    assert verdicts[(0, 1, 1)] == "mismatch"
    assert verdicts[(0, 0, 0)] == "match"


def test_invalid_probability_exit_code(capsys):
    code, _, err = run_cli(capsys, "bounds", "--p", "0.6")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["exact", "--p", "1/10", "--n", "1", "--bogus"])
    assert exc.value.code == 2
