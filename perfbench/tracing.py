"""Span tracing around the public functions of each goaltensor module.

The wrappers live here, not in the package: ``install`` rebinds every module
attribute that refers to a traced function (including names other modules
imported with ``from .x import f``) and returns the patches so ``uninstall``
can put the originals back.  Spans (name, start, end, parent, op id) are kept
in memory and written out once the run ends; a layer's self time is its span
durations minus the time its child spans cover.  Counters come from the
arguments and the returned reports, never from timing.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "goaltensor"

# chain evaluation and the evaluators of the classic baselines each map
# several public functions onto one layer name
TARGETS = [
    ("cli", "main", "cli.main"),
    ("scenario", "load_scenario", "scenario.load"),
    ("scenario", "scenario_from_dict", "scenario.load"),
    ("model", "dense_kernels", "model.dense_kernels"),
    ("model", "induced_mdp", "model.induced"),
    ("model", "induced_pomdp", "model.induced"),
    ("solvers", "brute_force_joint", "solvers.brute_force_joint"),
    ("solvers", "jesp", "solvers.jesp"),
    ("solvers", "pi_step_size", "solvers.pi_step_size"),
    ("solvers", "_rvi_batch", "solvers.rvi"),
    ("solvers", "rvi_solve", "solvers.rvi"),
    ("solvers", "closed_classes", "solvers.closed_classes"),
    ("solvers", "stationary_distribution", "solvers.chain_eval"),
    ("solvers", "cesaro_limit", "solvers.chain_eval"),
    ("solvers", "analyze_chain", "solvers.chain_eval"),
    ("benchmarks", "evaluate_uniform", "benchmarks.evaluate"),
    ("benchmarks", "evaluate_change_aware", "benchmarks.evaluate"),
    ("benchmarks", "evaluate_age_threshold", "benchmarks.evaluate"),
    ("benchmarks", "evaluate_state_policy", "benchmarks.evaluate"),
    ("benchmarks", "mse_optimal_policy", "benchmarks.mse_optimal_policy"),
    ("harness", "compare_policies", "harness.grid"),
    ("harness", "optimality_gap", "harness.grid"),
    ("harness", "decomposition_grid", "harness.grid"),
    ("harness", "sweep_rate_vs_cost", "harness.grid"),
    ("harness", "simulate_closed_loop", "harness.simulate_closed_loop"),
    ("harness", "write_trace_csv", "harness.csv"),
    ("harness", "write_sweep_csv", "harness.csv"),
    ("harness", "write_compare_csv", "harness.csv"),
    ("harness", "write_gap_csv", "harness.csv"),
    ("harness", "write_decomp_csv", "harness.csv"),
]

# per-layer metric name -> unit; the order is the order of the result line
LAYER_UNITS = {
    "model.dense_kernels.calls": "count",
    "model.dense_kernels.self_s": "s",
    "model.kernel_bytes": "bytes",
    "model.induced.calls": "count",
    "model.induced.self_s": "s",
    "solvers.rvi.member_sweeps": "count",
    "solvers.rvi.member_sweeps_per_s": "1/s",
    "solvers.rvi.self_s": "s",
    "solvers.brute_force_joint.self_s": "s",
    "solvers.brute_force_joint.candidates": "count",
    "solvers.brute_force_joint.multichain": "count",
    "solvers.brute_force_joint.stalled": "count",
    "solvers.closed_classes.calls": "count",
    "solvers.closed_classes.self_s": "s",
    "solvers.jesp.calls": "count",
    "solvers.jesp.self_s": "s",
    "solvers.jesp.rounds": "count",
    "solvers.pi_step_size.calls": "count",
    "solvers.pi_step_size.self_s": "s",
    "solvers.pi_step_size.rounds": "count",
    "solvers.chain_eval.calls": "count",
    "solvers.chain_eval.self_s": "s",
    "benchmarks.evaluate.calls": "count",
    "benchmarks.evaluate.self_s": "s",
    "benchmarks.augmented_states": "count",
    "benchmarks.mse_optimal_policy.self_s": "s",
    "harness.solves_per_cell": "ratio",
    "harness.grid.self_s": "s",
    "harness.simulate_closed_loop.calls": "count",
    "harness.simulate_closed_loop.slots": "count",
    "harness.ns_per_slot": "ns",
    "harness.ns_per_slot.traced": "ns",
    "harness.csv.self_s": "s",
    "harness.csv.bytes": "bytes",
    "scenario.load.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span log plus named counters."""

    def __init__(self):
        self.spans = []             # [name, start, end, parent index, op id]
        self.stack = []
        self.op = "-"
        self.counters = defaultdict(float)
        self._replicas = 0

    def wrap(self, name, fn):
        hook = HOOKS.get(fn.__name__)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs) if hook else None
            span_name, op = name, tracer.op
            # a replica is an op of its own; traced and untraced slots differ
            # in cost several times over, so they get separate spans
            if fn.__name__ == "simulate_closed_loop":
                if bound.arguments.get("record_trace", True):
                    span_name += ".traced"
                tracer._replicas += 1
                tracer.op = f"{op}:replica{tracer._replicas}"
            index = len(tracer.spans)
            span = [span_name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.spans.append(span)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                tracer.op = op
            if hook:
                hook(tracer.counters, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def cells(self, fn):
        """Wrap the grid-cell generator so that each cell's spans share an op id."""
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            try:
                for p_success, sampling_cost, cell in fn(*args, **kwargs):
                    tracer.op = f"{op}:cell{p_success!r},{sampling_cost!r}"
                    yield p_success, sampling_cost, cell
            finally:
                tracer.op = op

        return traced

    def self_times(self):
        """Per-name (calls, self seconds)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name][0] += 1
            totals[name][1] += end - start - child
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _count_kernels(counters, args, result):
    model = args["model"]
    counters["model.kernel_bytes"] += 16 * model.alphabets.n_actions * model.n_global_states ** 2


def _count_rvi_batch(counters, args, result):
    counters["solvers.rvi.member_sweeps"] += int(result[3].sum())


def _count_rvi_solve(counters, args, result):
    counters["solvers.rvi.member_sweeps"] += int(result.iterations)


def _count_brute(counters, args, result):
    diagnostics = result.diagnostics
    counters["solver_entries"] += 1
    counters["solvers.brute_force_joint.candidates"] += diagnostics["candidates_evaluated"]
    counters["solvers.brute_force_joint.multichain"] += len(diagnostics["multichain_candidates"])
    counters["solvers.brute_force_joint.stalled"] += len(diagnostics["stalled_candidates"])


def _count_jesp(counters, args, result):
    counters["solver_entries"] += 1
    counters["solvers.jesp.rounds"] += result.iterations


def _count_pi(counters, args, result):
    counters["solvers.pi_step_size.rounds"] += result.iterations


def _augmented(size_of):
    def count(counters, args, result):
        counters["benchmarks.augmented_states"] += size_of(args)
    return count


def _count_slots(counters, args, result):
    key = "slots.traced" if args.get("record_trace", True) else "slots"
    counters[key] += args["horizon"]


def _count_csv(counters, args, result):
    counters["harness.csv.bytes"] += os.path.getsize(result)


HOOKS = {
    "dense_kernels": _count_kernels,
    "_rvi_batch": _count_rvi_batch,
    "rvi_solve": _count_rvi_solve,
    "brute_force_joint": _count_brute,
    "jesp": _count_jesp,
    "pi_step_size": _count_pi,
    "evaluate_uniform": _augmented(lambda a: a["model"].n_global_states * int(a["period"])),
    "evaluate_change_aware": _augmented(
        lambda a: a["model"].n_global_states * a["model"].alphabets.n_states),
    "evaluate_age_threshold": _augmented(
        lambda a: a["model"].n_global_states * (int(a["threshold"]) + 2)),
    "evaluate_state_policy": _augmented(lambda a: a["model"].n_global_states),
    "simulate_closed_loop": _count_slots,
    "write_trace_csv": _count_csv,
    "write_sweep_csv": _count_csv,
    "write_compare_csv": _count_csv,
    "write_gap_csv": _count_csv,
    "write_decomp_csv": _count_csv,
}


def install(tracer: Tracer):
    """Rebind every traced function in every loaded goaltensor module."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    replacements = {}
    for module_name, attr, span_name in TARGETS:
        original = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), attr, None)
        if original is not None:
            replacements[id(original)] = tracer.wrap(span_name, original)
    harness = sys.modules.get(f"{PACKAGE}.harness")
    cells = getattr(harness, "_cell_scenarios", None)
    if cells is not None:
        replacements[id(cells)] = tracer.cells(cells)
    patches = []
    for module in modules:
        for key, value in list(vars(module).items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None:
                setattr(module, key, wrapped)
                patches.append((module, key, value))
    return patches


def uninstall(patches):
    for module, key, original in reversed(patches):
        setattr(module, key, original)


def layer_metrics(tracer: Tracer, pairs, overhead_s):
    """Every per-layer metric of the traced round, by name: (value, unit)."""
    times = tracer.self_times()
    counters = tracer.counters

    def calls(name):
        return times[name][0] if name in times else 0

    def self_s(name):
        return times[name][1] if name in times else 0.0

    sweeps = counters["solvers.rvi.member_sweeps"]
    rvi_s = self_s("solvers.rvi")
    sim = "harness.simulate_closed_loop"
    slots, traced_slots = counters["slots"], counters["slots.traced"]
    values = {
        "model.dense_kernels.calls": calls("model.dense_kernels"),
        "model.dense_kernels.self_s": self_s("model.dense_kernels"),
        "model.kernel_bytes": counters["model.kernel_bytes"],
        "model.induced.calls": calls("model.induced"),
        "model.induced.self_s": self_s("model.induced"),
        "solvers.rvi.member_sweeps": sweeps,
        "solvers.rvi.member_sweeps_per_s": sweeps / rvi_s if rvi_s > 0 else 0.0,
        "solvers.rvi.self_s": rvi_s,
        "solvers.brute_force_joint.self_s": self_s("solvers.brute_force_joint"),
        "solvers.closed_classes.calls": calls("solvers.closed_classes"),
        "solvers.closed_classes.self_s": self_s("solvers.closed_classes"),
        "solvers.jesp.calls": calls("solvers.jesp"),
        "solvers.jesp.self_s": self_s("solvers.jesp"),
        "solvers.pi_step_size.calls": calls("solvers.pi_step_size"),
        "solvers.pi_step_size.self_s": self_s("solvers.pi_step_size"),
        "solvers.chain_eval.calls": calls("solvers.chain_eval"),
        "solvers.chain_eval.self_s": self_s("solvers.chain_eval"),
        "benchmarks.evaluate.calls": calls("benchmarks.evaluate"),
        "benchmarks.evaluate.self_s": self_s("benchmarks.evaluate"),
        "benchmarks.mse_optimal_policy.self_s": self_s("benchmarks.mse_optimal_policy"),
        "harness.solves_per_cell": counters["solver_entries"] / pairs if pairs else 0.0,
        "harness.grid.self_s": self_s("harness.grid"),
        "harness.simulate_closed_loop.calls": calls(sim) + calls(sim + ".traced"),
        "harness.simulate_closed_loop.slots": slots + traced_slots,
        "harness.ns_per_slot": 1e9 * self_s(sim) / slots if slots else 0.0,
        "harness.ns_per_slot.traced":
            1e9 * self_s(sim + ".traced") / traced_slots if traced_slots else 0.0,
        "harness.csv.self_s": self_s("harness.csv"),
        "scenario.load.self_s": self_s("scenario.load"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_s": overhead_s,
    }
    for name in LAYER_UNITS:
        values.setdefault(name, counters[name])
    return {name: (float(values[name]), unit) for name, unit in LAYER_UNITS.items()}
