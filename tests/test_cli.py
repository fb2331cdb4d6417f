import argparse
import ast
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goaltensor
import goaltensor.solvers as solvers
from goaltensor.benchmarks import StatePolicyRule, aoii_optimal_policy
from goaltensor.cli import _load_policy_file, _simulation_rule, main
from goaltensor.errors import NonConvergenceError, PolicyFileError
from goaltensor.harness import simulate_closed_loop, write_decomp_csv
from goaltensor.scenario import (GridConfig, default_document, default_scenario,
                                 load_scenario, save_scenario)
from goaltensor.solvers import flatten_sampling, greedy_decision_policy
from conftest import assert_no_child_process, generated_scenario
from oracles import decomposition_grid, simulate_records, write_records_csv

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


@pytest.mark.parametrize("command, section, key, value, field", [
    ("validate", "solver", "max_pi_rounds", float("inf"), "solver.max_pi_rounds"),
    ("validate", "simulation", "horizon", float("nan"), "simulation.horizon"),
    ("validate", "sweep", "uniform_periods", [float("inf")], "sweep.uniform_periods[0]"),
    ("validate", "grid", "success_probs", [float("nan")], "grid.success_probs[0]"),
    pytest.param("validate", "cost", "gain_weight", 10 ** 400, "cost.gain_weight",
                 id="validate-cost-gain_weight-10**400-cost.gain_weight"),
    ("validate", "sweep", "seeds", [], "sweep.seeds"),
    ("validate", "sweep", "uniform_periods", [], "sweep.uniform_periods"),
    ("sweep", "sweep", "seeds", [], "sweep.seeds"),
    ("gap", "solver", "algorithm", "bogus", "solver.algorithm"),
    ("gap", "solver", "step_schedule", "bogus", "solver.step_schedule"),
])
def test_bad_scenario_numbers_and_choices_fail_in_one_line(tmp_path, capsys, command,
                                                           section, key, value, field):
    doc = default_document()
    doc[section][key] = value
    path = save_scenario(doc, tmp_path / "bad.json")
    argv = [command, "--scenario", str(path)]
    if command == "sweep":
        argv += ["--horizon", "100", "--out", str(tmp_path / "out")]
    elif command != "validate":
        argv += ["--grid", "ps=0.8;cs=2", "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err
    assert not (tmp_path / "out").exists()


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


def test_manifest_records_the_command_main_parsed(tmp_path, scenario_file, monkeypatch):
    # not the host's command line: a caller may hand main arguments of its own
    out = tmp_path / "solve out"
    argv = ["solve", "--scenario", scenario_file, "--algorithm", "rvi-fixed-decision",
            "--out", str(out)]
    commands = []
    for host, args in ((["host.py", "-x", "foo"], argv), (["goaltensor", *argv], None)):
        monkeypatch.setattr(sys, "argv", host)
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        commands.append(shlex.split(manifest["command"]))
        assert manifest["arguments"]["algorithm"] == "rvi-fixed-decision"
        assert "argv" not in manifest["arguments"]
    assert commands == [["goaltensor", *argv]] * 2


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


def test_sweep_manifest_records_the_seeds_its_replicas_ran(tmp_path):
    doc = default_document()
    doc["sweep"]["seeds"] = [4, 9]
    listed = save_scenario(doc, tmp_path / "listed.json")
    doc["sweep"]["seeds"] = [7, 8]
    shifted = save_scenario(doc, tmp_path / "shifted.json")
    manifests = {}
    for name, path, flag in (("listed", listed, []), ("flag", listed, ["--seed", "7"]),
                             ("shifted", shifted, [])):
        assert main(["sweep", "--scenario", str(path), "--families", "change",
                     "--horizon", "100", "--out", str(tmp_path / name), *flag]) == 0
        manifests[name] = json.loads((tmp_path / name / "manifest.json").read_text())
    # sweep.seeds, not simulation.seed, which no sweep reads
    assert manifests["listed"]["seeds"] == [4, 9] and "seed" not in manifests["listed"]
    # --seed 7 runs one seed per sweep.seeds entry from 7 on
    assert manifests["flag"]["seeds"] == manifests["shifted"]["seeds"] == [7, 8]
    assert (digest(tmp_path / "flag" / "sweep.csv")
            == digest(tmp_path / "shifted" / "sweep.csv"))


@pytest.mark.parametrize("command", [["sweep", "--families", "change", "--horizon", "50"],
                                     ["simulate", "--policy", "change"]])
def test_costs_near_the_float_limit_give_a_finite_stderr(tmp_path, capsys, command):
    # the standard errors square values near 1e299: scaled first, they stay
    # finite, and numpy prints no overflow warning
    doc = default_document()
    doc["cost"]["inherent"] = [[1e300 if c else 0 for c in row]
                               for row in doc["cost"]["inherent"]]
    path = save_scenario(doc, tmp_path / "scenario.json")
    out = tmp_path / "out"
    assert main([*command, "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if command[0] == "sweep":
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(row.split(",")[4])) for row in rows)


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
    assert_no_child_process()


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


@pytest.mark.parametrize("grid, bad", [("ps=a;cs=1", "'a'"), ("ps=0.5,;cs=1", "''")])
def test_grid_flag_rejects_non_numbers(tmp_path, capsys, scenario_file, grid, bad):
    assert main(["gap", "--scenario", scenario_file, "--grid", grid,
                 "--out", str(tmp_path / "gap")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid value " + bad) and err.count("\n") == 1


@pytest.mark.parametrize("grid, outcome", [
    ("cs=0", ["0.5,0.0"]),                      # the scenario's success probs stay
    ("ps=0.6;ps=0.2", "error: grid key 'ps' given twice in 'ps=0.6;ps=0.2'\n"),
    ("ps=1.5;cs=0", "scenario error: grid.success_probs[0]: value 1.5 above maximum 1.0\n"),
    ("ps=0.5;cs=-1", "scenario error: grid.sampling_costs[0]: value -1.0 below minimum 0.0\n"),
], ids=["omitted-key", "repeated-key", "ps-out-of-range", "cs-out-of-range"])
def test_grid_flag_replaces_only_the_keys_it_names_and_checks_them(tmp_path, capsys, grid,
                                                                   outcome):
    doc = default_document()
    doc["grid"]["success_probs"] = [0.5]
    path = save_scenario(doc, tmp_path / "scenario.json")
    out = tmp_path / "gap"
    code = main(["gap", "--scenario", str(path), "--grid", grid, "--out", str(out)])
    if isinstance(outcome, str):
        assert code == 1 and capsys.readouterr().err == outcome
        assert not out.exists()
    else:
        assert code == 0
        rows = (out / "gap.csv").read_text().splitlines()[1:]
        assert [",".join(row.split(",")[:2]) for row in rows] == outcome


def _spy(monkeypatch, name):
    """Record the keyword arguments of every call to ``solvers.<name>``."""
    calls, real = [], getattr(solvers, name)

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, name, spy)
    return calls


def test_compare_solves_each_cell_once(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setattr(solvers, "CORES", 1)    # the spy counts in this process
    calls = _spy(monkeypatch, "jesp_search")
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario_file, "--grid", "ps=0.8;cs=2,4",
                 "--out", str(out)]) == 0
    assert len(calls) == 2
    scenario = replace(load_scenario(scenario_file),
                       grid=GridConfig(success_probs=(0.8,), sampling_costs=(2.0, 4.0)))
    expected = write_decomp_csv(tmp_path / "expected.csv", decomposition_grid(scenario))
    assert (out / "decomp.csv").read_bytes() == expected.read_bytes()


def test_compare_failed_cell_is_left_out_of_both_files(tmp_path, capsys, scenario_file,
                                                       monkeypatch):
    real = solvers.jesp_search

    def fail_on_cs4(model, *args, **kwargs):
        if model.cost.sampling_cost == 4.0:
            raise NonConvergenceError("forced failure")
        return (yield from real(model, *args, **kwargs))

    monkeypatch.setattr(solvers, "jesp_search", fail_on_cs4)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", scenario_file, "--grid", "ps=0.8;cs=2,4",
                 "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "cell pS=0.8 CS=4.0 failed: forced failure" in printed.err
    assert printed.out == "compared 3 rows over 1x2 grid\n"
    compare_lines = (out / "compare.csv").read_text().splitlines()
    decomp_lines = (out / "decomp.csv").read_text().splitlines()
    assert len(compare_lines) == 4 and all(",2.0," in line for line in compare_lines[1:])
    assert len(decomp_lines) == 2 and decomp_lines[1].startswith("0.8,2.0,")


@pytest.mark.parametrize("command, failing, files", [
    ("gap", (4.0,), {"gap.csv": 1}),
    ("gap", (2.0, 4.0), {"gap.csv": 1}),
    ("compare", (2.0, 4.0), {"compare.csv": 3, "decomp.csv": 1}),
])
def test_failed_cells_are_left_out_and_named(tmp_path, capsys, scenario_file, monkeypatch,
                                             command, failing, files):
    monkeypatch.setattr(solvers, "CORES", 3)    # gap's cells run on worker processes
    real = solvers.jesp_search

    def fail_on(model, *args, **kwargs):
        if model.cost.sampling_cost in failing:
            raise NonConvergenceError("forced failure")
        return (yield from real(model, *args, **kwargs))

    monkeypatch.setattr(solvers, "jesp_search", fail_on)
    out = tmp_path / command
    assert main([command, "--scenario", scenario_file, "--grid", "ps=0.8;cs=2,4",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"cell pS=0.8 CS={cs} failed: forced failure" for cs in failing]
    for name, rows_per_cell in files.items():
        lines = (out / name).read_text().splitlines()
        assert len(lines) == 1 + rows_per_cell * (2 - len(failing)), name
        assert all(line.startswith("0.8,2.0,") for line in lines[1:]), name
    assert (out / "manifest.json").exists()
    assert_no_child_process()


def test_solver_settings_reach_every_solver_call(tmp_path, monkeypatch):
    doc = default_document()
    doc["solver"].update(max_pi_rounds=77, max_jesp_rounds=9)
    path = str(save_scenario(doc, tmp_path / "caps.json"))
    jesp_calls = _spy(monkeypatch, "jesp_search")
    # every brute force solve, a grid cell's or ``solve``'s, makes one search
    brute_calls = _spy(monkeypatch, "brute_force_search")
    assert main(["gap", "--scenario", path, "--grid", "ps=0.8;cs=2",
                 "--out", str(tmp_path / "gap")]) == 0
    assert main(["compare", "--scenario", path, "--grid", "ps=0.8;cs=2",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert main(["solve", "--scenario", path, "--algorithm", "brute",
                 "--out", str(tmp_path / "solve")]) == 0
    assert main(["simulate", "--scenario", path, "--policy", "codesign",
                 "--epsilon", "1e-5", "--horizon", "50", "--out", str(tmp_path / "sim")]) == 0
    caps = {"max_rounds": 9, "pi_rounds": 77}
    assert [{k: c[k] for k in caps} for c in jesp_calls] == [caps] * 3
    assert [c["epsilon"] for c in jesp_calls] == [1e-6, 1e-6, 1e-5]
    assert [c["max_sweeps"] for c in brute_calls] == [77, 77]


def test_sweep_has_no_epsilon_flag(tmp_path, scenario_file):
    with pytest.raises(SystemExit):
        main(["sweep", "--scenario", scenario_file, "--epsilon", "1e-3",
              "--out", str(tmp_path / "sweep")])


def test_unexpected_failure_is_one_line_not_a_traceback(monkeypatch, capsys):
    import goaltensor.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", broken)
    assert main(["validate", "--scenario", str(SCENARIO)]) == 1
    assert capsys.readouterr().err == "error: RuntimeError: boom\n"


SIMULATE_POLICIES = [("uniform", "3"), ("age", "2"), ("change", None), ("aoii", None),
                     ("mse", None), ("codesign", None), ("policy-file", None)]


@pytest.mark.parametrize("policy, param", SIMULATE_POLICIES)
def test_simulate_trace_equals_record_loop_oracle(tmp_path, capsys, scenario_file,
                                                  policy, param):
    argv = ["simulate", "--scenario", scenario_file, "--horizon", "1500", "--seed", "7",
            "--out", str(tmp_path / "sim")]
    policy_file = None
    if policy == "policy-file":
        assert main(["solve", "--scenario", scenario_file, "--algorithm", "jesp",
                     "--out", str(tmp_path / "solve")]) == 0
        policy_file = str(tmp_path / "solve" / "policy.json")
        argv += ["--policy-file", policy_file]
    else:
        argv += ["--policy", policy] + (["--param", param] if param else [])
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out

    scenario = load_scenario(scenario_file)
    rule, decision = _simulation_rule(argparse.Namespace(
        policy=policy, param=None if param is None else float(param),
        policy_file=policy_file), scenario)
    initial = scenario.simulation.initial
    records, expected = simulate_records(scenario.model, rule, decision, 1500, 7,
                                         initial=initial,
                                         state_values=scenario.state_values)
    oracle = write_records_csv(tmp_path / "oracle.csv", records)
    assert (tmp_path / "sim" / "trace.csv").read_bytes() == oracle.read_bytes()
    _, summary = simulate_closed_loop(scenario.model, rule, decision, 1500, 7,
                                      record_trace=False, initial=initial)
    assert repr(summary) == repr(expected)
    assert f"average cost {expected.average_cost!r}" in printed


@pytest.mark.parametrize("extra", [
    ["--policy", "uniform", "--param", "0"],
    ["--policy", "uniform", "--param", "1.7"],
    ["--policy", "uniform", "--param", "nan"],
    ["--policy", "age", "--param", "2.5"],
    ["--policy", "age", "--param", "-1"],
    ["--policy", "codesign", "--param", "2"],
    ["--policy", "aoii", "--param", "2"],
    ["--policy", "mse", "--param", "2"],
    ["--policy", "change", "--param", "2"],
    ["--policy-file", "policy.json", "--param", "2"],
])
def test_simulate_param_mistakes_fail_in_one_line(tmp_path, capsys, scenario_file, extra):
    assert main(["simulate", "--scenario", scenario_file, "--horizon", "20",
                 "--out", str(tmp_path / "out")] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--param" in err) or ("period" in err) or ("threshold" in err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy, label", [("uniform", "uniform(1)"), ("age", "age(0)")])
def test_simulate_param_defaults_when_absent(tmp_path, capsys, scenario_file, policy,
                                             label):
    assert main(["simulate", "--scenario", scenario_file, "--horizon", "20",
                 "--policy", policy, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith(f"{label}: horizon=20 ")


def test_simulate_policy_and_policy_file_together_fail_in_one_line(tmp_path, capsys,
                                                                  scenario_file):
    assert main(["solve", "--scenario", scenario_file, "--algorithm", "jesp",
                 "--out", str(tmp_path / "solve")]) == 0
    capsys.readouterr()
    policy_file = str(tmp_path / "solve" / "policy.json")
    assert main(["simulate", "--scenario", scenario_file, "--horizon", "20",
                 "--policy", "uniform", "--policy-file", policy_file,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --policy uniform and --policy-file ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "--policy", "uniform", "--horizon", "20"],
    ["sweep", "--families", "change", "--horizon", "20"],
    ["solve", "--algorithm", "jesp"],
])
def test_negative_seed_flag_fails_in_one_line(tmp_path, capsys, scenario_file, command):
    assert main(command[:1] + ["--scenario", scenario_file, "--seed", "-1",
                               "--out", str(tmp_path / "out")] + command[1:]) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "out").exists()


def test_compare_and_gap_seed_flag_is_the_solver_seed(tmp_path):
    doc = default_document()
    doc["solver"]["restarts"] = 2
    flagged = str(save_scenario(doc, tmp_path / "flagged.json"))
    doc["solver"]["seed"] = 5
    seeded = str(save_scenario(doc, tmp_path / "seeded.json"))
    for command, csvs in (("compare", ("compare.csv", "decomp.csv")), ("gap", ("gap.csv",))):
        cell = [command, "--grid", "ps=0.2;cs=0"]
        assert main(cell + ["--scenario", flagged, "--seed", "5",
                            "--out", str(tmp_path / f"{command}-flag")]) == 0
        assert main(cell + ["--scenario", seeded,
                            "--out", str(tmp_path / f"{command}-doc")]) == 0
        for name in csvs:
            assert (digest(tmp_path / f"{command}-flag" / name)
                    == digest(tmp_path / f"{command}-doc" / name))
        manifest = json.loads((tmp_path / f"{command}-flag" / "manifest.json").read_text())
        assert manifest["seed"] == 5


def _package_env():
    """This environment, with the package under test first on ``PYTHONPATH``."""
    source = str(Path(goaltensor.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [source, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; the package must not import it
    env = _package_env()
    code = ("import sys, goaltensor.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "[]\n"


def test_csvs_do_not_depend_on_blas_threads_the_caller_left_unset(tmp_path):
    # the package runs BLAS on one thread unless told otherwise: this cell's
    # 192-state change-aware chain (generated document 0, N = 48) rounds
    # differently on two threads, which an unset variable gives a two-core
    # machine
    document = save_scenario(generated_scenario(0).document, tmp_path / "large-0.json")
    runs = []
    for threads in (None, "1"):
        env = _package_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run([sys.executable, "-m", "goaltensor", "compare",
                               "--scenario", str(document), "--include-classic",
                               "--algorithm", "brute", "--grid", "ps=0.6;cs=0.5",
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append([(out / name).read_bytes() for name in ("compare.csv", "decomp.csv")])
    assert runs[0] == runs[1]


def test_gap_output_through_pipes_does_not_depend_on_the_worker_count(tmp_path):
    # text a caller left in the pipes' buffers is written once, not once per
    # worker; one worker runs the cells in this process
    env = _package_env()
    env.pop("PYTHONUNBUFFERED", None)       # pipes block-buffered, as by default
    code = ("import sys; import goaltensor.solvers as solvers; "
            "from goaltensor.cli import main; "
            "solvers.CORES = int(sys.argv[1]) or solvers.CORES; "
            "sys.stdout.write('started '); sys.stderr.write('started '); "
            "sys.exit(main(sys.argv[2:]))")
    runs = []
    for workers in (1, 0):                  # 0: one worker per core
        out = tmp_path / f"gap-{workers}"
        done = subprocess.run([sys.executable, "-c", code, str(workers), "gap",
                               "--scenario", str(SCENARIO), "--out", str(out)],
                              env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, done.stderr, (out / "gap.csv").read_bytes()))
    assert runs[0][0].startswith(b"started max gap ") and runs[0][1] == b"started "
    assert len(runs[0][2].splitlines()) == 31
    assert runs[1] == runs[0]


# Top-level definitions no command reaches, each kept for a release criterion
# of tests/test_acceptance.py that checks a claim of the paper.
UNREACHED_BY_COMMANDS = {
    ("tensor", "GoTensor"): "criterion 1",
    ("tensor", "build_got_tensor"): "criterion 1",
    ("tensor", "degenerate_tensor"): "criterion 2",
    # compare scans its periods with ``evaluate_uniform_periods``; the one-period
    # view is also the name perfbench's tracer hooks
    ("benchmarks", "evaluate_uniform"): "criteria 8 and 10",
}


def _definitions(package):
    """Each top-level definition of the package's modules, as (module, name), with
    the definitions its statement names; dunder names (``__all__``) are left out."""
    defs, modules = {}, {path.stem for path in package.glob("*.py")}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        local = {}                           # name bound by a relative import -> target
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        local[alias.asname or alias.name] = (node.module, alias.name)
                    elif alias.name in modules:
                        local[alias.asname or alias.name] = alias.name
                    else:
                        local[alias.asname or alias.name] = ("__init__", alias.name)
        names = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = node
            elif isinstance(node, ast.Assign):
                names.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        for name, node in names.items():
            edges = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = (path.stem, sub.id) if sub.id in names else local.get(sub.id)
                    if isinstance(target, tuple):
                        edges.add(target)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                        and isinstance(local.get(sub.value.id), str):
                    edges.add((local[sub.value.id], sub.attr))
            if not name.startswith("__"):
                defs[(path.stem, name)] = edges
    return defs


def test_every_definition_is_reached_by_a_command_or_kept_for_a_criterion():
    root = Path(__file__).resolve().parents[1]
    defs = _definitions(root / "src" / "goaltensor")
    todo = [("cli", "main")]
    for script in (root / "scripts").glob("*.py"):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("goaltensor."):
                todo += [(node.module.partition(".")[2], alias.name) for alias in node.names]
    seen = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in seen:
            seen.add(key)
            todo += defs[key]
    unreached = sorted(".".join(key) for key in defs.keys() - seen - UNREACHED_BY_COMMANDS.keys())
    assert unreached == []
    assert seen.isdisjoint(UNREACHED_BY_COMMANDS)       # a kept name a command now reaches


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module: another module of
    # the package neither imports it nor reads it as ``module._name``
    package = Path(__file__).resolve().parents[1] / "src" / "goaltensor"
    modules = {path.stem for path in package.glob("*.py")}
    private = lambda name: name.startswith("_") and not name.startswith("__")  # noqa: E731
    found = []
    for path in sorted(package.glob("*.py")):
        tree, bound = ast.parse(path.read_text()), set()   # package modules bound by name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.stem}: from .{node.module or ''} import {alias.name}"
                          for alias in node.names if private(alias.name)]
                bound |= {alias.asname or alias.name for alias in node.names
                          if not node.module and alias.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in bound and private(node.attr):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert found == []


@pytest.mark.parametrize("families, message", [
    ("", "--families '' names no policy family"),
    (" , ", "--families ' , ' names no policy family"),
    ("uniform,bogus", "unknown sweep family 'bogus'; choose from "),
    ("mse", "unknown sweep family 'mse'; choose from "),
])
def test_sweep_families_mistakes_fail_in_one_line(tmp_path, capsys, scenario_file,
                                                 families, message):
    assert main(["sweep", "--scenario", scenario_file, "--families", families,
                 "--horizon", "20", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("address, value", [
    ("solver", 5), ("channel", 0.5), ("simulation", {"initial": [0, 0, 0]})])
def test_validate_names_a_section_that_is_not_an_object(tmp_path, capsys, address, value):
    doc = default_document()
    doc[address] = value
    path = save_scenario(doc, tmp_path / "bad.json")
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and err.count("\n") == 1
    assert "expected an object" in err


def _policy_doc(scenario):
    """A valid policy document: greedy actuation, sampling on mismatch."""
    model = scenario.model
    return {"scenario": scenario.name, "average_cost": 1.0,
            "decision": greedy_decision_policy(model).actions.tolist(),
            "sampling": {"order": "flat", "decisions":
                         flatten_sampling(aoii_optimal_policy(model)).tolist()}}


def _mutated(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, field", [
    (lambda doc: _mutated(doc, lambda d: d.pop("sampling")), "sampling.decisions"),
    (lambda doc: _mutated(doc, lambda d: d.pop("decision")), "decision"),
    (lambda doc: "{not json", "line 1 column 2"),
    (lambda doc: _mutated(doc, lambda d: d["sampling"]["decisions"].pop()),
     "sampling.decisions"),
    (lambda doc: _mutated(doc, lambda d: d["decision"].__setitem__(0, 99)), "decision[0]"),
    (lambda doc: _mutated(doc, lambda d: d["decision"].__setitem__(1, 1.5)), "decision[1]"),
    (lambda doc: _mutated(doc, lambda d: d["sampling"]["decisions"].__setitem__(4, 2)),
     "sampling.decisions[4]"),
    (lambda doc: _mutated(doc, lambda d: d["sampling"]["decisions"].__setitem__(5, "1")),
     "sampling.decisions[5]"),
    (lambda doc: '{"decision": ' + "7" * 5000 + "}", "document"),
])
def test_bad_policy_file_fails_in_one_line(tmp_path, capsys, scenario_file, text, field):
    path = tmp_path / "policy.json"
    path.write_text(text(_policy_doc(load_scenario(scenario_file))))
    assert main(["simulate", "--scenario", scenario_file, "--horizon", "20",
                 "--policy-file", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: policy file {path}: {field}") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_missing_policy_file_fails_in_one_line(tmp_path, capsys, scenario_file):
    path = tmp_path / "nope.json"
    assert main(["simulate", "--scenario", scenario_file, "--policy-file", str(path),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: policy file {path}: file: cannot read")


POLICY_LISTS = ("decision", "sampling.decisions")
NOT_ENTRIES = st.one_of(
    st.integers().filter(lambda k: not 0 <= k < 2),
    st.floats(allow_nan=True).filter(lambda f: f % 1 != 0 or not 0 <= f < 2),
    st.text(max_size=3), st.none(), st.booleans(), st.lists(st.integers(0, 1), max_size=2))
MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(
        ["decision", "sampling", "sampling.decisions", "scenario", "average_cost"])),
    st.tuples(st.just("truncate"), st.sampled_from(POLICY_LISTS), st.integers(0, 20)),
    st.tuples(st.just("set"), st.sampled_from(POLICY_LISTS), st.integers(0, 20),
              NOT_ENTRIES),
)


def _apply(doc, mutation):
    kind, address = mutation[:2]
    *parents, key = address.split(".")
    holder = doc
    for part in parents:
        holder = holder.get(part) if isinstance(holder, dict) else None
    if not isinstance(holder, dict) or key not in holder:
        return
    if kind == "drop":
        del holder[key]
    elif isinstance(holder[key], list) and holder[key]:
        index = mutation[2] % len(holder[key])
        if kind == "truncate":
            del holder[key][index:]
        else:
            holder[key][index] = mutation[3]


@given(st.lists(MUTATIONS, min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_mutated_policy_file_is_rejected_by_field_or_runs(tmp_path_factory, mutations):
    scenario = default_scenario()
    doc = _policy_doc(scenario)
    for mutation in mutations:
        _apply(doc, mutation)
    path = tmp_path_factory.mktemp("policy") / "policy.json"
    path.write_text(json.dumps(doc))
    try:
        sampling, decision = _load_policy_file(path, scenario)
    except PolicyFileError as exc:
        assert exc.field and exc.field in str(exc) and str(path) in str(exc)
        assert "\n" not in str(exc)
        return
    trace, _ = simulate_closed_loop(scenario.model, StatePolicyRule(sampling), decision,
                                    30, seed=1)
    assert len(trace) == 30


@pytest.mark.parametrize("command", [
    ["simulate", "--policy", "uniform", "--horizon", "20"],
    ["sweep", "--horizon", "20"],
    ["solve", "--algorithm", "jesp"],
])
def test_out_naming_a_file_fails_in_one_line(tmp_path, capsys, scenario_file, command):
    target = tmp_path / "taken"
    target.write_text("a file, not a directory\n")
    assert main(command[:1] + ["--scenario", scenario_file, "--out", str(target)]
                + command[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {target}: ") and err.count("\n") == 1
    assert target.read_text() == "a file, not a directory\n"


def test_oversized_integer_literal_fails_with_the_file_address(tmp_path, capsys):
    text = json.dumps(default_document()).replace('"gain_weight": ',
                                                  '"gain_weight": ' + "9" * 5000 + ", "
                                                  '"unused": ', 1)
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: {path}: ") and err.count("\n") == 1


def uniform_document(states, contexts, actions):
    """A valid scenario of the given alphabets whose every row is uniform."""
    return {
        "alphabets": {"states": states, "contexts": contexts, "actions": actions},
        "source_dynamics": [[[[1.0 / states] * states] * actions] * contexts] * states,
        "context_dynamics": [[1.0 / contexts] * contexts] * contexts,
        "channel": {"success_prob": 0.5},
        "cost": {"inherent": [list(range(states))] * contexts, "gain": {"linear": 1.0},
                 "expenditure": {"linear": 1.0}, "sampling_cost": 1.0},
    }


def test_brute_force_refuses_oversized_kernels_before_allocating(tmp_path, capsys):
    # 16 x 17 x 2: N = 4,352, so even one candidate's kernels would take
    # 2 * 4,352**2 * 8 bytes, over the 256 MiB limit (smaller batches cannot help)
    path = str(save_scenario(uniform_document(16, 17, 2), tmp_path / "large.json"))
    tracemalloc.start()
    try:
        code = main(["solve", "--scenario", path, "--algorithm", "brute",
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("error: 16 states x 17 contexts x 2 actions (N = 4352")
    assert f"the kernels of one candidate need {2 * 4352 ** 2 * 8:,} bytes" in err
    assert peak < 10 * 2 ** 20


def _digest_script(monkeypatch):
    """``scripts/output_digests.py`` as a module; its ``sys.path`` edits are undone."""
    import importlib.util
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_check_prints_each_moved_output(monkeypatch):
    module = _digest_script(monkeypatch)
    saved = ["a" * 64 + "  run/x.csv", "b" * 64 + "  run/y.csv", ""]
    assert module.moved(saved, ["a" * 64 + "  run/x.csv", "b" * 64 + "  run/y.csv"]) == []
    assert module.moved(saved, ["c" * 64 + "  run/x.csv", "d" * 64 + "  run/z.csv"]) == [
        f"changed run/x.csv: {'a' * 64} -> {'c' * 64}", f"added run/z.csv: {'d' * 64}",
        f"missing run/y.csv: {'b' * 64}"]


def test_digest_check_exits_1_when_an_output_moved(monkeypatch, tmp_path, capsys):
    module = _digest_script(monkeypatch)
    monkeypatch.setattr(module, "runs", lambda work: iter([(
        "solve-rvi", ["solve", "--scenario", SCENARIO, "--algorithm", "rvi-fixed-decision"])]))
    assert module.main_digests([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines] == ["solve-rvi/policy.json",
                                                       "solve-rvi/report.txt"]
    saved = tmp_path / "digests.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert module.main_digests(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == "all 2 digests unchanged\n"
    saved.write_text("\n".join(["0" * 64 + "  solve-rvi/policy.json", lines[1]]) + "\n")
    assert module.main_digests(["--check", str(saved)]) == 1
    assert capsys.readouterr().out == (
        f"changed solve-rvi/policy.json: {'0' * 64} -> {lines[0].split()[0]}\n")
