"""Seeded closed-loop simulation and the figure-style experiment sweeps.

Slot ordering: observe the global state, let the sampling rule decide, draw the
channel only when transmitting, actuate on the current estimate, charge the
slot's cost, then step source and context; a delivered update changes the
estimate from the next slot on.

Randomness discipline: the master seed spawns one named stream per stochastic
component (source, context, channel).  Source and context consume exactly one
draw per slot, the channel one draw per transmission, so runs with different
sampling rules still see identical source/context paths (common random
numbers), and a fixed seed reproduces a trace bit for bit.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .benchmarks import StatePolicyRule
from .errors import GoalTensorError, ParameterError
from .model import DecPomdpModel
from .tensor import DecisionPolicy

TRACE_HEADER = ["t", "x", "xhat", "phi", "aS", "aA", "h",
                "aoi", "aos", "aoii", "aoci", "mse", "got", "cost"]
SWEEP_HEADER = ["policy", "param", "rate", "cost", "stderr"]
COMPARE_HEADER = ["pS", "CS", "policy", "cost"]
GAP_HEADER = ["pS", "CS", "theta_bf", "theta_jesp", "gap"]
DECOMP_HEADER = ["pS", "CS", "sampling", "actuation", "inherent"]


@dataclass(frozen=True)
class TraceRecord:
    t: int
    x: int
    xhat: int
    phi: int
    a_s: int
    a_a: int
    h: int | None           # channel draw; present exactly when a_s == 1
    aoi: int
    aos: int
    aoii: float
    aoci: int
    mse: float
    got: float
    cost: float


@dataclass(frozen=True)
class SimulationSummary:
    horizon: int
    seed: int
    average_cost: float
    sampling_rate: float
    stderr: float           # batch-means standard error of the average cost
    inherent_cost: float    # raw status cost average
    gain_offset: float      # actuation gain clipped by the ramp (nonpositive)
    expenditure: float      # weighted actuation expenditure average
    sampling_cost: float    # transmission charge average

    @property
    def decomposition(self):
        """Three-way split; terms sum to the average cost."""
        return {"sampling": self.sampling_cost, "actuation": self.expenditure,
                "inherent": self.inherent_cost + self.gain_offset}


def _cumulative_rows(probs):
    flat = np.cumsum(probs, axis=-1)
    flat[..., -1] = 1.0
    return flat


def simulate_closed_loop(model: DecPomdpModel, rule, decision: DecisionPolicy,
                         horizon, seed, record_trace=True, initial=(0, 0, 0),
                         state_values=None, batches=100):
    """Run the sampler/actuator loop for ``horizon`` slots.

    Returns ``(records, summary)``; ``records`` is None when ``record_trace``
    is false (long runs accumulate sums only).  ``rule`` is any object with
    ``reset/decide/notify`` (see the benchmark rules); wrap a plain
    ``SamplingPolicy`` with ``StatePolicyRule``.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    n = model.alphabets.n_states
    if state_values is None:
        state_values = np.arange(n, dtype=float)
    x, xhat, phi = initial

    src_stream, ctx_stream, ch_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    src_u = src_stream.random(horizon).tolist()
    ctx_u = ctx_stream.random(horizon).tolist()
    ch_u = ch_stream.random(horizon).tolist()

    src_cum = _cumulative_rows(model.source.probs)
    src_rows = [[[src_cum[i, k, m].tolist() for m in range(model.alphabets.n_actions)]
                 for k in range(model.alphabets.n_contexts)]
                for i in range(n)]
    ctx_rows = _cumulative_rows(model.context.probs).tolist()

    ramp3 = np.maximum(
        model.cost.inherent.T[:, :, None]
        - model.cost.gain_weight * model.cost.gain[None, None, :], 0.0).tolist()
    spend = (model.cost.expenditure_weight * model.cost.expenditure).tolist()
    inherent2 = model.cost.inherent.T.tolist()
    sq_err = ((state_values[:, None] - state_values[None, :]) ** 2).tolist()
    acts = decision.actions.tolist()
    p_success = model.channel.success_prob
    charge = model.cost.sampling_cost

    rule.reset(x, xhat, phi)
    records = [] if record_trace else None
    n_batches = max(1, min(batches, horizon))
    batch_cost = [0.0] * n_batches
    batch_len = [0] * n_batches
    cost_sum = raw_sum = ramp_sum = spend_sum = 0.0
    samples = 0
    channel_cursor = 0
    aoi, aoci = 1, 1
    aos_prev = 0

    for t in range(horizon):
        a_s = rule.decide(t, x, xhat, phi)
        h = None
        delivered = False
        if a_s:
            h = 1 if ch_u[channel_cursor] < p_success else 0
            channel_cursor += 1
            delivered = h == 1
            samples += 1
        a_a = acts[xhat]
        ramp_term = ramp3[x][phi][a_a]
        got = ramp_term + spend[a_a]
        slot_cost = got + charge * a_s
        aos = 0 if x == xhat else aos_prev + 1

        cost_sum += slot_cost
        raw_sum += inherent2[x][phi]
        ramp_sum += ramp_term
        spend_sum += spend[a_a]
        b = t * n_batches // horizon
        batch_cost[b] += slot_cost
        batch_len[b] += 1

        if record_trace:
            records.append(TraceRecord(
                t=t, x=x, xhat=xhat, phi=phi, a_s=a_s, a_a=a_a, h=h,
                aoi=aoi, aos=aos, aoii=float(aos if x != xhat else 0),
                aoci=aoci, mse=sq_err[x][xhat], got=got, cost=slot_cost))

        rule.notify(x, xhat, phi, a_s, delivered)
        next_xhat = x if delivered else xhat
        aoi = 1 if delivered else aoi + 1
        aoci = 1 if (delivered and x != xhat) else aoci + 1
        x = bisect_right(src_rows[x][phi][a_a], src_u[t])
        phi = bisect_right(ctx_rows[phi], ctx_u[t])
        xhat = next_xhat
        aos_prev = aos

    means = [batch_cost[i] / batch_len[i] for i in range(n_batches) if batch_len[i]]
    if len(means) > 1:
        stderr = float(np.std(means, ddof=1) / np.sqrt(len(means)))
    else:
        stderr = float("nan")
    summary = SimulationSummary(
        horizon=horizon, seed=seed,
        average_cost=cost_sum / horizon,
        sampling_rate=samples / horizon,
        stderr=stderr,
        inherent_cost=raw_sum / horizon,
        gain_offset=(ramp_sum - raw_sum) / horizon,
        expenditure=spend_sum / horizon,
        sampling_cost=charge * samples / horizon,
    )
    return records, summary


def metric_traces(records):
    """Per-slot metric series extracted from a trace."""
    if not records:
        raise ParameterError("trace is empty")
    keys = ("aoi", "aos", "aoii", "aoci", "mse", "got", "cost")
    return {key: np.array([getattr(r, key) for r in records]) for key in keys}


def cost_decomposition(source, model: DecPomdpModel = None) -> dict:
    """Average-cost split {sampling, actuation, inherent-after-actuation}.

    Accepts a ``SimulationSummary``, a benchmark ``CostSummary``, or a trace
    (list of records, which needs ``model`` to price the recorded actuations);
    components sum to the average cost.
    """
    from .benchmarks import CostSummary
    if isinstance(source, (SimulationSummary, CostSummary)):
        split = source.decomposition
    elif isinstance(source, (list, tuple)):
        if not source:
            raise ParameterError("trace is empty")
        if model is None:
            raise ParameterError("trace-level decomposition needs the model")
        spend = model.cost.expenditure_weight * model.cost.expenditure
        horizon = len(source)
        sampling = sum(r.cost - r.got for r in source) / horizon
        actuation = sum(float(spend[r.a_a]) for r in source) / horizon
        inherent = sum(r.got for r in source) / horizon - actuation
        split = {"sampling": sampling, "actuation": actuation, "inherent": inherent}
    else:
        raise ParameterError(f"cannot decompose {type(source).__name__}")
    return {"sampling_cost_avg": split["sampling"],
            "actuation_cost_avg": split["actuation"],
            "inherent_cost_avg": split["inherent"]}


@dataclass(frozen=True)
class SweepResult:
    policy: str
    param: object
    sampling_rate: float
    average_cost: float
    stderr: float
    cost_breakdown: dict = field(default_factory=dict)
    n_seeds: int = 1


def _rule_for(family, param, model):
    from .benchmarks import (AgeThresholdRule, ChangeAwareRule, UniformRule,
                             aoii_optimal_policy)
    if family == "uniform":
        return UniformRule(param)
    if family == "age":
        return AgeThresholdRule(param)
    if family == "change":
        return ChangeAwareRule()
    if family == "aoii":
        return StatePolicyRule(aoii_optimal_policy(model), label="aoii-optimal")
    raise ParameterError(f"unknown policy family {family!r}")


def sweep_rate_vs_cost(model: DecPomdpModel, family, grid, decision: DecisionPolicy,
                       horizon, seeds, state_values=None, initial=(0, 0, 0)):
    """Simulated cost-versus-rate curve for one policy family.

    One ``SweepResult`` per grid parameter, aggregated over the given seeds
    with the standard error of the per-seed average costs.
    """
    results = []
    for param in grid:
        costs, rates, splits = [], [], []
        for seed in seeds:
            rule = _rule_for(family, param, model)
            _, summary = simulate_closed_loop(model, rule, decision, horizon, seed,
                                              record_trace=False, initial=initial,
                                              state_values=state_values)
            costs.append(summary.average_cost)
            rates.append(summary.sampling_rate)
            splits.append((summary.inherent_cost, summary.gain_offset,
                           summary.expenditure, summary.sampling_cost))
        if len(costs) > 1:
            stderr = float(np.std(costs, ddof=1) / np.sqrt(len(costs)))
        else:
            stderr = float("nan")
        mean_split = np.mean(np.array(splits), axis=0)
        results.append(SweepResult(
            policy=family, param=param,
            sampling_rate=float(np.mean(rates)),
            average_cost=float(np.mean(costs)),
            stderr=stderr,
            cost_breakdown={"inherent": float(mean_split[0]),
                            "actuation_gain_offset": float(mean_split[1]),
                            "actuation_expenditure": float(mean_split[2]),
                            "sampling": float(mean_split[3])},
            n_seeds=len(costs)))
    return results


def _cell_scenarios(scenario, grid):
    for p_success in grid.success_probs:
        for sampling_cost in grid.sampling_costs:
            yield p_success, sampling_cost, scenario.with_channel(
                p_success).with_sampling_cost(sampling_cost)


def solve_cell(cell, algorithm):
    """Run the scenario's configured solver on one scenario or grid cell.

    The one place that turns ``cell.solver`` into solver arguments: epsilon,
    budget and every round cap, scored from the scenario's start state.
    ``algorithm`` is ``"brute"`` (``brute_force_joint``) or ``"jesp"``.
    """
    from .solvers import brute_force_joint, jesp
    solver = cell.solver
    if algorithm == "brute":
        return brute_force_joint(cell.model, epsilon=solver.epsilon, budget=solver.budget,
                                 max_sweeps=solver.max_pi_rounds,
                                 start_state=cell.start_state)
    if algorithm == "jesp":
        return jesp(cell.model, epsilon=solver.epsilon, step_schedule=solver.step_schedule,
                    restarts=solver.restarts, seed=solver.seed,
                    max_rounds=solver.max_jesp_rounds, pi_rounds=solver.max_pi_rounds,
                    start_state=cell.start_state)
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def _decomposition(p_success, sampling_cost, cell, report):
    """The ``decomp.csv`` row of one cell: the exact cost split of the solved pair."""
    from .benchmarks import evaluate_state_policy
    summary = evaluate_state_policy(cell.model, report.sampling_policy,
                                    report.decision_policy, cell.start_state)
    return {"pS": p_success, "CS": sampling_cost, "sampling": summary.sampling,
            "actuation": summary.actuation, "inherent": summary.inherent}


def compare_policies(scenario, algorithm="jesp", include_classic=False,
                     progress=None):
    """Average cost of the co-designed pair versus the separate-design baselines.

    One row per (channel success, sampling cost, policy); the co-design row
    carries the solver's value, baselines are evaluated exactly, and each
    baseline row includes its relative saving deficit versus the co-design.
    The co-design row also carries the cell's cost split under
    ``decomposition`` (read it with ``decomposition_rows``), so each cell is
    solved once for both ``compare.csv`` and ``decomp.csv``.

    A failed cell is recorded as a single row with an ``error`` entry and the
    run continues; having no co-design row, it has no decomposition either.
    (``goaltensor compare`` thus writes ``decomp.csv`` without the failed
    cells, where it used to stop at the first failing cell and write none.)
    """
    from .benchmarks import (aoii_optimal_policy, evaluate_change_aware,
                             evaluate_state_policy, evaluate_uniform,
                             mse_optimal_policy)
    from .solvers import greedy_decision_policy
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        model, start = cell.model, cell.start_state
        try:
            report = solve_cell(cell, algorithm)
            co_cost = report.average_cost
            codesign = {"pS": p_success, "CS": sampling_cost, "policy": "got-codesign",
                        "cost": co_cost, "saving_vs_codesign": None,
                        "decomposition": _decomposition(p_success, sampling_cost, cell,
                                                        report)}
            greedy = greedy_decision_policy(model)
            baselines = [("aoii-optimal", evaluate_state_policy(
                model, aoii_optimal_policy(model), greedy, start).average_cost)]
            baselines.append(("mse-optimal", evaluate_state_policy(
                model, mse_optimal_policy(model, greedy, cell.state_values),
                greedy, start).average_cost))
            if include_classic:
                uniform_costs = [evaluate_uniform(model, d, greedy, start).average_cost
                                 for d in cell.sweep.uniform_periods]
                baselines.append(("uniform-best", min(uniform_costs)))
                baselines.append(("change-aware", evaluate_change_aware(
                    model, greedy, start).average_cost))
            rows.append(codesign)
            rows.extend({"pS": p_success, "CS": sampling_cost, "policy": policy,
                         "cost": cost, "saving_vs_codesign": (cost - co_cost) / cost}
                        for policy, cost in baselines)
        except GoalTensorError as exc:
            rows.append({"pS": p_success, "CS": sampling_cost, "policy": algorithm,
                         "cost": float("nan"), "error": str(exc)})
        if progress:
            progress(p_success, sampling_cost)
    return rows


def decomposition_rows(compare_rows):
    """The ``decomp.csv`` rows carried by ``compare_policies`` rows, in grid order."""
    return [row["decomposition"] for row in compare_rows if "decomposition" in row]


def optimality_gap(scenario, progress=None):
    """Exact-versus-equilibrium cost gap per grid cell, in cost units."""
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        bf = solve_cell(cell, "brute")
        je = solve_cell(cell, "jesp")
        rows.append({"pS": p_success, "CS": sampling_cost,
                     "theta_bf": bf.average_cost, "theta_jesp": je.average_cost,
                     "gap": je.average_cost - bf.average_cost})
        if progress:
            progress(p_success, sampling_cost)
    return rows


def decomposition_grid(scenario, algorithm="jesp", progress=None):
    """Cost split of the co-designed policy per grid cell; a failing cell raises.

    ``goaltensor compare`` does not call this: it reads the same rows from its
    ``compare_policies`` pass (``decomposition_rows``), one solve per cell.
    """
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        rows.append(_decomposition(p_success, sampling_cost, cell,
                                   solve_cell(cell, algorithm)))
        if progress:
            progress(p_success, sampling_cost)
    return rows


# ---------------------------------------------------------------------------
# CSV emission (fixed headers, shortest round-trip float formatting)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def write_trace_csv(path, records):
    return _write_csv(path, TRACE_HEADER,
                      [(r.t, r.x, r.xhat, r.phi, r.a_s, r.a_a, r.h, r.aoi, r.aos,
                        r.aoii, r.aoci, r.mse, r.got, r.cost) for r in records])


def write_sweep_csv(path, results):
    return _write_csv(path, SWEEP_HEADER,
                      [(r.policy, r.param, r.sampling_rate, r.average_cost, r.stderr)
                       for r in results])


def write_compare_csv(path, rows):
    return _write_csv(path, COMPARE_HEADER,
                      [(r["pS"], r["CS"], r["policy"], r["cost"]) for r in rows])


def write_gap_csv(path, rows):
    return _write_csv(path, GAP_HEADER,
                      [(r["pS"], r["CS"], r["theta_bf"], r["theta_jesp"], r["gap"])
                       for r in rows])


def write_decomp_csv(path, rows):
    return _write_csv(path, DECOMP_HEADER,
                      [(r["pS"], r["CS"], r["sampling"], r["actuation"], r["inherent"])
                       for r in rows])
