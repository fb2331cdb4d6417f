"""Command-line front end: scenario ingestion, solving, simulation, sweeps.

Every run that writes files also writes ``manifest.json`` beside them with the
scenario digest, tool version, command line, seed, and timestamps.  All CSV
and report files are byte-reproducible for a fixed (scenario, command, seed);
the manifest is the one file carrying wall-clock timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmarks import FAMILIES, StatePolicyRule
from .errors import GoalTensorError, ParameterError, PolicyFileError, ScenarioError
from .harness import (compare_policies, optimality_gap, simulate_closed_loop, solve_cell,
                      sweep_rate_vs_cost, write_compare_csv, write_decomp_csv,
                      write_gap_csv, write_sweep_csv, write_trace_csv)
from .scenario import (ALGORITHMS, GridConfig, Scenario, checked_epsilon, checked_grid,
                       load_scenario, scenario_digest)
from .solvers import SolveReport, flatten_sampling, greedy_decision_policy
from .tensor import DecisionPolicy, SamplingPolicy


def _grid_value(value, text) -> float:
    try:
        return float(value)
    except ValueError:
        raise ParameterError(f"grid value {value!r} in {text!r} is not a number") from None


def _parse_grid(text, grid: GridConfig) -> GridConfig:
    """``grid`` with the lists ``ps=0.2,0.4;cs=0,2,4`` names replaced, each key at
    most once, checked as the scenario's ``grid`` section is."""
    keys = {"ps": "success_probs", "cs": "sampling_costs"}
    parts = {}
    for chunk in text.split(";"):
        key, _, values = chunk.partition("=")
        key = key.strip().lower()
        if key not in keys or not values:
            raise ParameterError(f"grid spec must look like 'ps=...;cs=...', got {text!r}")
        if keys[key] in parts:
            raise ParameterError(f"grid key {key!r} given twice in {text!r}")
        parts[keys[key]] = [_grid_value(v, text) for v in values.split(",")]
    return checked_grid(parts, grid)


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    """The scenario with the ``--grid`` and ``--epsilon`` flags applied."""
    if getattr(args, "grid", None):
        scenario = replace(scenario, grid=_parse_grid(args.grid, scenario.grid))
    if getattr(args, "epsilon", None) is not None:
        scenario = replace(scenario, solver=replace(scenario.solver, epsilon=args.epsilon))
    return scenario


def _solver_scenario(args) -> Scenario:
    """The scenario with ``--grid``, ``--epsilon`` and ``--seed`` as the solver's seed."""
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    if args.seed is not None:
        scenario = replace(scenario, solver=replace(scenario.solver, seed=args.seed))
    return scenario


def _output_dir(path) -> Path:
    """The ``--out`` directory, created if missing."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"--out {path}: cannot create the output directory: "
                             f"{exc.strerror}") from None
    return out_dir


def _write_manifest(out_dir: Path, args, scenario_path, seed, outputs, started):
    manifest = {
        "tool": "goaltensor",
        "version": __version__,
        "command": " ".join([Path(sys.argv[0]).name] + sys.argv[1:])
        if sys.argv else "goaltensor",
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "scenario": str(scenario_path),
        "scenario_sha256": scenario_digest(scenario_path),
        "seed": seed,
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": sorted(str(p.name) for p in outputs),
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


def _policy_document(report: SolveReport, scenario: Scenario) -> dict:
    return {
        "scenario": scenario.name,
        "average_reward": report.average_reward,
        "average_cost": report.average_cost,
        "decision": report.decision_policy.actions.tolist(),
        "sampling": {
            "order": "flat index = x + n_states * xhat + n_states^2 * phi",
            "decisions": flatten_sampling(report.sampling_policy).tolist(),
        },
    }


def _policy_entries(path, doc, address, length, top):
    """The list at ``address`` (its last key read from ``doc``) as ``length``
    whole numbers in ``[0, top)``."""
    key = address.rpartition(".")[2]
    if not isinstance(doc, dict) or key not in doc:
        raise PolicyFileError(path, address, "missing")
    values = doc[key]
    if not isinstance(values, list) or len(values) != length:
        raise PolicyFileError(path, address, f"expected a list of {length} entries")
    for i, value in enumerate(values):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value < top or value % 1):
            raise PolicyFileError(path, f"{address}[{i}]",
                                  f"expected a whole number in [0, {top}), got {value!r}")
    return np.array(values, dtype=int)


def _load_policy_file(path, scenario: Scenario):
    """The (sampling, decision) pair of a ``policy.json``, checked against the scenario."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PolicyFileError(path, "file", f"cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise PolicyFileError(path, f"line {exc.lineno} column {exc.colno}",
                              exc.msg) from None
    except ValueError as exc:               # e.g. an integer literal too long to convert
        raise PolicyFileError(path, "document", str(exc)) from None
    alphabets = scenario.model.alphabets
    n, v = alphabets.n_states, alphabets.n_contexts
    decision = _policy_entries(path, doc, "decision", n, alphabets.n_actions)
    flat = _policy_entries(path, doc.get("sampling"), "sampling.decisions", n * n * v, 2)
    sampling = SamplingPolicy(flat.reshape(v, n, n).transpose(2, 1, 0))
    return sampling, DecisionPolicy(decision)


def _report_text(report: SolveReport, scenario: Scenario, algorithm) -> str:
    lines = [
        f"scenario: {scenario.name}",
        f"algorithm: {algorithm}",
        f"average_reward: {report.average_reward!r}",
        f"average_cost: {report.average_cost!r}",
        f"iterations: {report.iterations}",
        f"residual: {report.residual!r}",
        f"converged: {str(report.converged).lower()}",
        "decision_policy:",
    ]
    for xhat, action in enumerate(report.decision_policy.actions):
        lines.append(f"  estimate {xhat} -> action {int(action)}")
    lines.append("sampling_policy:")
    decisions = report.sampling_policy.decisions
    n, _, v = decisions.shape
    for phi in range(v):
        for xhat in range(n):
            for x in range(n):
                lines.append(f"  x={x} xhat={xhat} phi={phi} -> {int(decisions[x, xhat, phi])}")
    counts = {key: len(val) if isinstance(val, (list, tuple)) else val
              for key, val in report.diagnostics.items()
              if key in ("candidates_evaluated", "multichain_candidates",
                         "stalled_candidates", "theta_trace")}
    if counts:
        lines.append("diagnostics: " + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return "\n".join(lines) + "\n"


def cmd_validate(args):
    scenario = load_scenario(args.scenario)
    n = scenario.model.alphabets
    print(f"ok: {scenario.name}: {n.n_states} states x {n.n_states} estimates x "
          f"{n.n_contexts} contexts = {scenario.model.n_global_states} global states, "
          f"{n.n_actions} actuations")
    return 0


def cmd_solve(args):
    scenario = _solver_scenario(args)
    seed = scenario.solver.seed
    algorithm = args.algorithm or scenario.solver.algorithm
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = solve_cell(scenario, algorithm)
    out_dir = _output_dir(args.out)
    report_path = out_dir / "report.txt"
    report_path.write_text(_report_text(report, scenario, algorithm))
    policy_path = out_dir / "policy.json"
    policy_path.write_text(json.dumps(_policy_document(report, scenario), indent=2) + "\n")
    _write_manifest(out_dir, args, args.scenario, seed, [report_path, policy_path],
                    started)
    print(f"{algorithm}: average cost {report.average_cost!r} "
          f"({'converged' if report.converged else 'NOT converged'})")
    return 0 if report.converged else 1


def _simulation_rule(args, scenario: Scenario):
    """The (rule, decision policy) pair that ``simulate`` runs.

    ``--policy-file`` and ``--policy codesign`` (the default) bring their own
    decision policy; a ``FAMILIES`` entry runs with the greedy one.
    """
    family = FAMILIES.get(args.policy)
    if args.param is not None and (family is None or family.param is None):
        used = ("--policy-file" if args.policy_file
                else f"--policy {args.policy or 'codesign'}")
        takes = " or ".join(f"the {f.param} of --policy {name}"
                            for name, f in FAMILIES.items() if f.param)
        raise ParameterError(f"--param is {takes}; {used} takes none")
    if args.policy_file:
        sampling, decision = _load_policy_file(args.policy_file, scenario)
        return StatePolicyRule(sampling, label="policy-file"), decision
    if family is None:
        report = solve_cell(scenario, "jesp")
        return (StatePolicyRule(report.sampling_policy, label="got-codesign"),
                report.decision_policy)
    greedy = greedy_decision_policy(scenario.model)
    param = family.default if args.param is None else args.param
    return family.rule(scenario.model, param, greedy, scenario.state_values), greedy


def cmd_simulate(args):
    if args.policy is not None and args.policy_file:
        raise ParameterError(f"--policy {args.policy} and --policy-file each name the "
                             f"policy to simulate; give one")
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    seed = args.seed if args.seed is not None else scenario.simulation.seed
    horizon = args.horizon if args.horizon is not None else scenario.simulation.horizon
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    rule, decision = _simulation_rule(args, scenario)
    initial = (scenario.simulation.initial_state, scenario.simulation.initial_estimate,
               scenario.simulation.initial_context)
    trace, summary = simulate_closed_loop(
        scenario.model, rule, decision, horizon, seed,
        record_trace=True, initial=initial, state_values=scenario.state_values)
    out_dir = _output_dir(args.out)
    outputs = [write_trace_csv(out_dir / "trace.csv", trace)]
    _write_manifest(out_dir, args, args.scenario, seed, outputs, started)
    print(f"{rule.label}: horizon={horizon} average cost {summary.average_cost!r} "
          f"sampling rate {summary.sampling_rate!r}")
    return 0


def cmd_sweep(args):
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    swept = [name for name, family in FAMILIES.items() if family.grid]
    if not families:
        raise ParameterError(f"--families {args.families!r} names no policy family")
    for family in families:
        if family not in swept:
            raise ParameterError(f"unknown sweep family {family!r}; "
                                 f"choose from {', '.join(swept)}")
    scenario = load_scenario(args.scenario)
    seed = args.seed if args.seed is not None else scenario.simulation.seed
    horizon = args.horizon if args.horizon is not None else scenario.simulation.horizon
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    seeds = [seed + k for k in range(len(scenario.sweep.seeds))] \
        if args.seed is not None else list(scenario.sweep.seeds)
    decision = greedy_decision_policy(scenario.model)
    initial = (scenario.simulation.initial_state, scenario.simulation.initial_estimate,
               scenario.simulation.initial_context)
    results = []
    for family in families:
        results.extend(sweep_rate_vs_cost(scenario.model, family,
                                          FAMILIES[family].grid(scenario.sweep), decision,
                                          horizon, seeds, initial=initial))
    out_dir = _output_dir(args.out)
    outputs = [write_sweep_csv(out_dir / "sweep.csv", results)]
    _write_manifest(out_dir, args, args.scenario, seed, outputs, started)
    print(f"swept {len(results)} points over families {', '.join(families)}")
    return 0


def _finish_grid(out_dir: Path, args, scenario: Scenario, outputs, started, failed):
    """The tail of ``compare`` and ``gap``, whose CSVs hold the cells that
    succeeded: write the manifest, name each failed cell on stderr, and return
    the exit status, 1 if any cell failed."""
    _write_manifest(out_dir, args, args.scenario, scenario.solver.seed, outputs, started)
    for p_success, sampling_cost, message in failed:
        print(f"cell pS={p_success} CS={sampling_cost} failed: {message}", file=sys.stderr)
    return 1 if failed else 0


def cmd_compare(args):
    """Write compare.csv and decomp.csv from one solve per grid cell."""
    scenario = _solver_scenario(args)
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    algorithm = args.algorithm or scenario.solver.algorithm
    rows, splits, failed = compare_policies(scenario, algorithm=algorithm,
                                            include_classic=args.include_classic)
    out_dir = _output_dir(args.out)
    outputs = [write_compare_csv(out_dir / "compare.csv", rows),
               write_decomp_csv(out_dir / "decomp.csv", splits)]
    status = _finish_grid(out_dir, args, scenario, outputs, started, failed)
    print(f"compared {len(rows)} rows over {len(scenario.grid.success_probs)}x"
          f"{len(scenario.grid.sampling_costs)} grid")
    return status


def cmd_gap(args):
    """Write gap.csv from one brute-force and one jesp solve per grid cell."""
    scenario = _solver_scenario(args)
    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    rows, failed = optimality_gap(scenario)
    out_dir = _output_dir(args.out)
    outputs = [write_gap_csv(out_dir / "gap.csv", rows)]
    status = _finish_grid(out_dir, args, scenario, outputs, started, failed)
    if rows:
        worst = max(rows, key=lambda r: r["gap"])
        print(f"max gap {worst['gap']!r} at pS={worst['pS']} CS={worst['CS']}")
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="goaltensor",
        description="Goal-cost tensor solvers and closed-loop sampling benchmarks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, solver=True):
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if solver:
            p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("validate", help="schema-check a scenario file")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the joint sampling/actuation problem")
    common(p)
    p.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run the closed loop and write trace.csv")
    common(p)
    p.add_argument("--policy", default=None, choices=["codesign", *FAMILIES],
                   help="policy to simulate (default: codesign; not with --policy-file)")
    p.add_argument("--param", type=float, default=None,
                   help="period for uniform, threshold for age")
    p.add_argument("--policy-file", default=None,
                   help="policy.json written by the solve command")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate cost-versus-rate curves, write sweep.csv")
    common(p, solver=False)
    p.add_argument("--families", default="uniform,age")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="co-design versus baselines per grid cell")
    common(p)
    p.add_argument("--algorithm", choices=["brute", "jesp"], default=None)
    p.add_argument("--grid", default=None, help="override, e.g. 'ps=0.2,0.6;cs=0,4'")
    p.add_argument("--include-classic", action="store_true",
                   help="also evaluate uniform-best and change-aware")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gap", help="exact-versus-equilibrium gap per grid cell")
    common(p)
    p.add_argument("--grid", default=None)
    p.set_defaults(func=cmd_gap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "epsilon", None) is not None:
            checked_epsilon(args.epsilon)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ParameterError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except GoalTensorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # any other failure is a defect; report it in one line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
