#!/usr/bin/env python3
"""Run the full benchmark study on a scenario and emit all result CSVs.

Produces, under --out:
    sweep.csv     simulated cost-versus-rate curves (uniform and age families)
    compare.csv   co-design versus baselines per (success prob, sampling cost)
    decomp.csv    cost split of the co-designed policy per grid cell
    gap.csv       exact versus equilibrium solver gap per grid cell

compare.csv and decomp.csv come from one pass that solves each cell once, as
in ``goaltensor compare``; gap.csv solves each cell with both algorithms.

Usage:
    python scripts/run_grid_experiments.py --out results [--scenario path.json]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from goaltensor.harness import (compare_policies, decomposition_rows, optimality_gap,
                                sweep_rate_vs_cost, write_compare_csv,
                                write_decomp_csv, write_gap_csv, write_sweep_csv)
from goaltensor.scenario import default_scenario, load_scenario
from goaltensor.solvers import greedy_decision_policy


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=None, help="scenario JSON (default: bundled)")
    parser.add_argument("--out", default="results")
    parser.add_argument("--horizon", type=int, default=200_000)
    parser.add_argument("--algorithm", choices=["jesp", "brute"], default="jesp")
    args = parser.parse_args()

    scenario = load_scenario(args.scenario) if args.scenario else default_scenario()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    greedy = greedy_decision_policy(scenario.model)
    initial = (scenario.simulation.initial_state, scenario.simulation.initial_estimate,
               scenario.simulation.initial_context)

    t0 = time.time()
    sweep = sweep_rate_vs_cost(scenario.model, "uniform",
                               list(scenario.sweep.uniform_periods), greedy,
                               args.horizon, list(scenario.sweep.seeds),
                               initial=initial)
    sweep += sweep_rate_vs_cost(scenario.model, "age",
                                list(range(scenario.sweep.age_threshold_max + 1)),
                                greedy, args.horizon, list(scenario.sweep.seeds),
                                initial=initial)
    write_sweep_csv(out / "sweep.csv", sweep)
    print(f"sweep.csv: {len(sweep)} points ({time.time() - t0:.0f}s)")

    t0 = time.time()
    rows = compare_policies(scenario, algorithm=args.algorithm, include_classic=True,
                            progress=lambda p, c: print(f"  compare cell {p} {c}"))
    write_compare_csv(out / "compare.csv", [r for r in rows if "error" not in r])
    decomp = decomposition_rows(rows)
    write_decomp_csv(out / "decomp.csv", decomp)
    print(f"compare.csv: {len(rows)} rows, decomp.csv: {len(decomp)} rows "
          f"({time.time() - t0:.0f}s)")

    t0 = time.time()
    gaps = optimality_gap(scenario,
                          progress=lambda p, c: print(f"  gap cell {p} {c}"))
    write_gap_csv(out / "gap.csv", gaps)
    worst = max(gaps, key=lambda r: r["gap"])
    print(f"gap.csv: worst gap {worst['gap']:.3e} at pS={worst['pS']} "
          f"CS={worst['CS']} ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
