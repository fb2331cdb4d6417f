import hashlib
import json
from pathlib import Path

import pytest

from goaltensor.cli import main
from goaltensor.scenario import default_document, save_scenario

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture()
def scenario_file(tmp_path):
    return str(save_scenario(default_document(), tmp_path / "scenario.json"))


def test_validate_ok():
    assert main(["validate", "--scenario", str(SCENARIO)]) == 0


def test_validate_rejects_bad_scenario(tmp_path, capsys):
    doc = default_document()
    doc["context_dynamics"][1] = [0.3, 0.6]
    path = save_scenario(doc, tmp_path / "bad.json")
    assert main(["validate", "--scenario", str(path)]) == 1
    assert "context_dynamics[1]" in capsys.readouterr().err


def test_solve_writes_report_policy_manifest(tmp_path, scenario_file):
    out = tmp_path / "solve"
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "jesp",
                 "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "average_cost:" in report and "decision_policy:" in report
    policy = json.loads((out / "policy.json").read_text())
    assert len(policy["decision"]) == 3
    assert len(policy["sampling"]["decisions"]) == 18
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario_sha256"] == digest(scenario_file)
    assert sorted(manifest["outputs"]) == ["policy.json", "report.txt"]


def test_solve_algorithms_agree_on_reported_policy(tmp_path, scenario_file):
    out_b = tmp_path / "brute"
    out_j = tmp_path / "jesp"
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "brute",
                 "--out", str(out_b)]) == 0
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "jesp",
                 "--out", str(out_j)]) == 0
    cost_b = json.loads((out_b / "policy.json").read_text())["average_cost"]
    cost_j = json.loads((out_j / "policy.json").read_text())["average_cost"]
    assert cost_j >= cost_b - 1e-6
    assert (cost_j - cost_b) / cost_b <= 0.05


def test_solve_rvi_fixed_decision(tmp_path, scenario_file):
    out = tmp_path / "fixed"
    assert main(["solve", "--scenario", scenario_file,
                 "--algorithm", "rvi-fixed-decision", "--out", str(out)]) == 0
    policy = json.loads((out / "policy.json").read_text())
    assert policy["decision"] == [0, 3, 7]


def test_simulate_trace_rows_and_determinism(tmp_path, scenario_file):
    out1 = tmp_path / "sim1"
    out2 = tmp_path / "sim2"
    out3 = tmp_path / "sim3"
    base = ["simulate", "--scenario", scenario_file, "--policy", "aoii",
            "--horizon", "100"]
    assert main(base + ["--seed", "42", "--out", str(out1)]) == 0
    assert main(base + ["--seed", "42", "--out", str(out2)]) == 0
    assert main(base + ["--seed", "43", "--out", str(out3)]) == 0
    lines = (out1 / "trace.csv").read_text().splitlines()
    assert len(lines) == 101
    assert lines[0] == "t,x,xhat,phi,aS,aA,h,aoi,aos,aoii,aoci,mse,got,cost"
    assert digest(out1 / "trace.csv") == digest(out2 / "trace.csv")
    assert digest(out1 / "trace.csv") != digest(out3 / "trace.csv")


def test_simulate_with_policy_file(tmp_path, scenario_file):
    solve_out = tmp_path / "solve"
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "jesp",
                 "--out", str(solve_out)]) == 0
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--scenario", scenario_file,
                 "--policy-file", str(solve_out / "policy.json"),
                 "--horizon", "200", "--seed", "1", "--out", str(sim_out)]) == 0
    assert len((sim_out / "trace.csv").read_text().splitlines()) == 201


def test_sweep_emits_rows_per_family(tmp_path):
    doc = default_document()
    doc["sweep"]["uniform_periods"] = [1, 2, 4]
    doc["sweep"]["age_threshold_max"] = 3
    doc["sweep"]["seeds"] = [0, 1]
    path = save_scenario(doc, tmp_path / "scenario.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--horizon", "2000",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "policy,param,rate,cost,stderr"
    assert len(lines) == 1 + 3 + 4          # uniform periods + thresholds 0..3


def test_compare_and_gap_small_grid(tmp_path, scenario_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario_file, "--grid", "ps=0.8;cs=2",
                 "--out", str(out)]) == 0
    compare_lines = (out / "compare.csv").read_text().splitlines()
    assert compare_lines[0] == "pS,CS,policy,cost"
    assert len(compare_lines) == 4          # codesign + aoii + mse
    decomp_lines = (out / "decomp.csv").read_text().splitlines()
    assert decomp_lines[0] == "pS,CS,sampling,actuation,inherent"
    assert len(decomp_lines) == 2

    out_gap = tmp_path / "gap"
    assert main(["gap", "--scenario", scenario_file, "--grid", "ps=0.8;cs=2,4",
                 "--out", str(out_gap)]) == 0
    gap_lines = (out_gap / "gap.csv").read_text().splitlines()
    assert gap_lines[0] == "pS,CS,theta_bf,theta_jesp,gap"
    assert len(gap_lines) == 3
    for line in gap_lines[1:]:
        assert float(line.split(",")[-1]) >= -1e-6


def test_compare_reruns_are_byte_identical(tmp_path, scenario_file):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = ["compare", "--scenario", scenario_file, "--grid", "ps=0.8;cs=2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert digest(out1 / "compare.csv") == digest(out2 / "compare.csv")
    assert digest(out1 / "decomp.csv") == digest(out2 / "decomp.csv")


def test_missing_scenario_file_fails_cleanly(tmp_path, capsys):
    assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "cannot read file" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0"])
def test_epsilon_flag_rejects_non_positive_and_non_finite(tmp_path, capsys,
                                                          scenario_file, epsilon):
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "brute",
                 f"--epsilon={epsilon}", "--out", str(tmp_path / "out")]) == 1
    assert "solver.epsilon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_gap_on_empty_grid_fails_cleanly(tmp_path, capsys):
    doc = default_document()
    doc["grid"]["sampling_costs"] = []
    path = save_scenario(doc, tmp_path / "empty.json")
    assert main(["gap", "--scenario", str(path), "--out", str(tmp_path / "gap")]) == 1
    assert "grid.sampling_costs" in capsys.readouterr().err
