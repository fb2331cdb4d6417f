"""Scenario documents: a single JSON file describing model, costs, and run setup.

Schema (all probability rows must sum to 1 within 1e-9; nothing is silently
renormalized):

    alphabets         {"states": S, "contexts": V, "actions": A}
    source_dynamics   nested [i][k][m] -> row over next states (length S)
    context_dynamics  [k] -> row over next contexts (length V)
    channel           {"success_prob": p}
    cost              {"inherent": V x S table,
                       "gain": length-A list or {"linear": coefficient},
                       "expenditure": same,
                       "gain_weight", "expenditure_weight", "sampling_cost"}
    state_values      optional numeric embedding of the semantic states
                      (defaults to the state indices; used by squared-error
                      metrics only)
    solver / simulation / sweep / grid   optional run-configuration sections

The bundled default scenario is a hand-authored reference instance: three
semantic states with upward cost drift, two contexts, eleven actuation levels
whose gain/expenditure grow linearly, and source rows that blend an
uncontrolled drift matrix with a strong pull toward state 0 as the actuation
level rises.  Its dynamics tables are chosen for ergodicity, not fitted to any
external data set.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .model import (ChannelModel, ContextDynamics, DecPomdpModel, ROW_SUM_TOL,
                    SourceDynamics)
from .solvers import DEFAULT_BUDGET, DEFAULT_EPSILON, MAX_JESP_ROUNDS, MAX_PI_ROUNDS
from .tensor import Alphabets, CostModel


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "jesp"
    epsilon: float = DEFAULT_EPSILON
    max_pi_rounds: int = MAX_PI_ROUNDS
    max_jesp_rounds: int = MAX_JESP_ROUNDS
    step_schedule: object = "harmonic"
    restarts: int = 0
    seed: int = 0
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class SimulationConfig:
    horizon: int = 100_000
    seed: int = 12345
    initial: tuple = (0, 0, 0)      # (state, estimate, context) of every run's first slot


MAX_SWEEP_PARAMETER = 1_000     # longest sampling period or age threshold a sweep may list


@dataclass(frozen=True)
class SweepConfig:
    uniform_periods: tuple = tuple(range(1, 21))
    age_threshold_max: int = 50
    seeds: tuple = (0, 1, 2)


@dataclass(frozen=True)
class GridConfig:
    success_probs: tuple = (0.2, 0.4, 0.6, 0.8, 1.0)
    sampling_costs: tuple = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: DecPomdpModel
    state_values: np.ndarray
    solver: SolverConfig
    simulation: SimulationConfig
    sweep: SweepConfig
    grid: GridConfig
    document: dict = field(repr=False)

    @property
    def start_state(self) -> int:
        """Global-state index of the simulation's initial (state, estimate, context)."""
        return self.model.state_index(*self.simulation.initial)

    def with_channel(self, success_prob):
        """Same scenario with a different channel success probability."""
        return replace(self, model=replace(self.model, channel=ChannelModel(success_prob)))

    def with_sampling_cost(self, sampling_cost):
        """Same scenario with a different per-transmission cost."""
        cost = replace(self.model.cost, sampling_cost=float(sampling_cost))
        return replace(self, model=replace(self.model, cost=cost))


def _require(doc, key, where):
    if key not in doc:
        raise ScenarioError(f"{where}.{key}" if where else key, "missing required field")
    return doc[key]


def _section(doc, key, where="", required=False):
    """The object at ``<where>.<key>``; an absent optional one reads as empty."""
    value = _require(doc, key, where) if required else doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}.{key}" if where else key,
                            f"expected an object, got {type(value).__name__}")
    return value


def _as_number(value, address, minimum=None, maximum=None, integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(address, f"expected a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(address, f"expected a finite number, got {value}")
    if integer and int(value) != value:
        raise ScenarioError(address, f"expected an integer, got {value}")
    if minimum is not None and value < minimum:
        raise ScenarioError(address, f"value {value} below minimum {minimum}")
    if maximum is not None and value > maximum:
        raise ScenarioError(address, f"value {value} above maximum {maximum}")
    if integer:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(address, "integer too large for a float") from None


def checked_epsilon(value):
    """Solver tolerance, which must be a finite number above zero."""
    epsilon = _as_number(value, "solver.epsilon")
    if not epsilon > 0.0:
        raise ScenarioError("solver.epsilon", f"expected a number above 0, got {epsilon}")
    return epsilon


ALGORITHMS = ("brute", "jesp", "rvi-fixed-decision")


def _as_algorithm(value):
    if value not in ALGORITHMS:
        raise ScenarioError("solver.algorithm",
                            f"expected one of {', '.join(ALGORITHMS)}, got {value!r}")
    return value


def _as_step_schedule(value):
    """``"harmonic"`` or a constant step size in (0, 1]."""
    if value == "harmonic":
        return value
    if isinstance(value, str) or not 0.0 < _as_number(value, "solver.step_schedule") <= 1.0:
        raise ScenarioError("solver.step_schedule",
                            f'expected "harmonic" or a number in (0, 1], got {value!r}')
    return value


def _as_field(doc, config, section, key, **bounds):
    """The number at ``<section>.<key>``, or the ``config`` class's default."""
    return _as_number(doc.get(key, getattr(config, key)), f"{section}.{key}", **bounds)


def _as_values(doc, section, key, default, **bounds):
    """Non-empty list of numbers at ``<section>.<key>``."""
    raw = doc.get(key, default)
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ScenarioError(f"{section}.{key}", "expected a non-empty list of numbers")
    return tuple(_as_number(x, f"{section}.{key}[{i}]", **bounds) for i, x in enumerate(raw))


def _as_row(value, length, address):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioError(address, f"expected a list of {length} numbers")
    row = [_as_number(x, f"{address}[{i}]") for i, x in enumerate(value)]
    total = sum(row)
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise ScenarioError(address, f"row sums to {total!r}, not 1 within {ROW_SUM_TOL:g}")
    return row


def _cost_table(value, length, address):
    if isinstance(value, dict):
        coeff = _as_number(_require(value, "linear", address), f"{address}.linear", minimum=0)
        return coeff * np.arange(length, dtype=float)
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioError(address, f"expected {length} entries or a linear coefficient")
    return np.array([_as_number(x, f"{address}[{i}]", minimum=0)
                     for i, x in enumerate(value)], dtype=float)


def scenario_from_dict(doc: dict, name="<memory>") -> Scenario:
    """Validate a scenario document and assemble the model bundle."""
    if not isinstance(doc, dict):
        raise ScenarioError("<document>", "top level must be an object")
    alpha_doc = _section(doc, "alphabets", required=True)
    n = _as_number(_require(alpha_doc, "states", "alphabets"), "alphabets.states",
                   minimum=2, integer=True)
    v = _as_number(_require(alpha_doc, "contexts", "alphabets"), "alphabets.contexts",
                   minimum=1, integer=True)
    a = _as_number(_require(alpha_doc, "actions", "alphabets"), "alphabets.actions",
                   minimum=1, integer=True)
    alphabets = Alphabets(n_states=n, n_contexts=v, n_actions=a)

    src_doc = _require(doc, "source_dynamics", "")
    if not isinstance(src_doc, list) or len(src_doc) != n:
        raise ScenarioError("source_dynamics", f"expected {n} state blocks")
    rows = []                                # checked before any array is sized
    for i, by_context in enumerate(src_doc):
        if not isinstance(by_context, list) or len(by_context) != v:
            raise ScenarioError(f"source_dynamics[{i}]", f"expected {v} context blocks")
        for k, by_action in enumerate(by_context):
            if not isinstance(by_action, list) or len(by_action) != a:
                raise ScenarioError(f"source_dynamics[{i}][{k}]", f"expected {a} action rows")
            rows.extend(_as_row(row, n, f"source_dynamics[{i}][{k}][{m}]")
                        for m, row in enumerate(by_action))
    source = np.array(rows).reshape(n, v, a, n)

    ctx_doc = _require(doc, "context_dynamics", "")
    if not isinstance(ctx_doc, list) or len(ctx_doc) != v:
        raise ScenarioError("context_dynamics", f"expected {v} rows")
    context = np.array([_as_row(row, v, f"context_dynamics[{k}]")
                        for k, row in enumerate(ctx_doc)])

    channel_doc = _section(doc, "channel", required=True)
    p_success = _as_number(_require(channel_doc, "success_prob", "channel"),
                           "channel.success_prob", minimum=0.0, maximum=1.0)

    cost_doc = _section(doc, "cost", required=True)
    inherent_doc = _require(cost_doc, "inherent", "cost")
    if not isinstance(inherent_doc, list) or len(inherent_doc) != v:
        raise ScenarioError("cost.inherent", f"expected {v} context rows")
    inherent = np.zeros((v, n))
    for k, row in enumerate(inherent_doc):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioError(f"cost.inherent[{k}]", f"expected {n} entries")
        for i, x in enumerate(row):
            inherent[k, i] = _as_number(x, f"cost.inherent[{k}][{i}]", minimum=0)
    try:
        with np.errstate(over="raise"):     # weights times tables, and their sums
            cost = CostModel(
                inherent=inherent,
                gain=_cost_table(_require(cost_doc, "gain", "cost"), a, "cost.gain"),
                expenditure=_cost_table(_require(cost_doc, "expenditure", "cost"), a,
                                        "cost.expenditure"),
                gain_weight=_as_field(cost_doc, CostModel, "cost", "gain_weight"),
                expenditure_weight=_as_field(cost_doc, CostModel, "cost", "expenditure_weight"),
                sampling_cost=_as_field(cost_doc, CostModel, "cost", "sampling_cost", minimum=0),
            )
            model = DecPomdpModel(alphabets=alphabets, source=SourceDynamics(source),
                                  context=ContextDynamics(context),
                                  channel=ChannelModel(p_success), cost=cost)
    except FloatingPointError:
        raise ScenarioError("cost", "weighted cost tables overflow a float") from None

    if "state_values" in doc:
        raw = doc["state_values"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ScenarioError("state_values", f"expected {n} numbers")
        state_values = np.array([_as_number(x, f"state_values[{i}]")
                                 for i, x in enumerate(raw)], dtype=float)
    else:
        state_values = np.arange(n, dtype=float)

    solver_doc = _section(doc, "solver")
    solver = SolverConfig(
        algorithm=_as_algorithm(solver_doc.get("algorithm", SolverConfig.algorithm)),
        epsilon=checked_epsilon(solver_doc.get("epsilon", SolverConfig.epsilon)),
        max_pi_rounds=_as_field(solver_doc, SolverConfig, "solver", "max_pi_rounds",
                                minimum=1, integer=True),
        max_jesp_rounds=_as_field(solver_doc, SolverConfig, "solver", "max_jesp_rounds",
                                  minimum=1, integer=True),
        step_schedule=_as_step_schedule(solver_doc.get("step_schedule",
                                                       SolverConfig.step_schedule)),
        restarts=_as_field(solver_doc, SolverConfig, "solver", "restarts", minimum=0,
                           integer=True),
        seed=_as_field(solver_doc, SolverConfig, "solver", "seed", minimum=0, integer=True),
        budget=_as_field(solver_doc, SolverConfig, "solver", "budget", minimum=1, integer=True),
    )

    sim_doc = _section(doc, "simulation")
    initial = _section(sim_doc, "initial", "simulation")
    simulation = SimulationConfig(
        horizon=_as_field(sim_doc, SimulationConfig, "simulation", "horizon", minimum=1,
                          integer=True),
        seed=_as_field(sim_doc, SimulationConfig, "simulation", "seed", minimum=0,
                       integer=True),
        initial=tuple(_as_number(initial.get(key, default), f"simulation.initial.{key}",
                                 minimum=0, maximum=top, integer=True)
                      for key, top, default in zip(("state", "estimate", "context"),
                                                   (n - 1, n - 1, v - 1),
                                                   SimulationConfig.initial)),
    )

    sweep_doc = _section(doc, "sweep")
    sweep = SweepConfig(
        uniform_periods=_as_values(sweep_doc, "sweep", "uniform_periods",
                                   SweepConfig.uniform_periods, minimum=1,
                                   maximum=MAX_SWEEP_PARAMETER, integer=True),
        age_threshold_max=_as_field(sweep_doc, SweepConfig, "sweep", "age_threshold_max",
                                    minimum=0, maximum=MAX_SWEEP_PARAMETER, integer=True),
        seeds=_as_values(sweep_doc, "sweep", "seeds", SweepConfig.seeds, minimum=0,
                         integer=True),
    )

    return Scenario(name=doc.get("name", name), model=model, state_values=state_values,
                    solver=solver, simulation=simulation, sweep=sweep,
                    grid=checked_grid(_section(doc, "grid")), document=doc)


def checked_grid(grid_doc, default=GridConfig()) -> GridConfig:
    """The ``grid`` section's lists, each non-empty and within its bounds; a list
    the section omits is ``default``'s."""
    return GridConfig(
        success_probs=_as_values(grid_doc, "grid", "success_probs", default.success_probs,
                                 minimum=0.0, maximum=1.0),
        sampling_costs=_as_values(grid_doc, "grid", "sampling_costs",
                                  default.sampling_costs, minimum=0.0),
    )


def load_scenario(path) -> Scenario:
    """Parse, validate, and assemble a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}", exc.msg) from exc
    except ValueError as exc:               # e.g. an integer literal too long to convert
        raise ScenarioError(str(path), str(exc)) from None
    return scenario_from_dict(doc, name=path.stem)


def save_scenario(document: dict, path):
    """Write a scenario document; the written file reloads to an equivalent model."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def scenario_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# bundled reference scenario


_DRIFT = {
    # uncontrolled source drift per context: a slow upward ratchet with long
    # dwell times, so stale estimates actually hurt
    0: [[0.90, 0.08, 0.02],
        [0.03, 0.87, 0.10],
        [0.02, 0.03, 0.95]],
    1: [[0.85, 0.12, 0.03],
        [0.05, 0.85, 0.10],
        [0.03, 0.07, 0.90]],
}

_PULL = [
    # source rows under full actuation: strong pull toward state 0
    [0.95, 0.04, 0.01],
    [0.90, 0.08, 0.02],
    [0.85, 0.10, 0.05],
]


def default_document(success_prob=0.8, sampling_cost=2.0) -> dict:
    """Document of the bundled reference scenario.

    Source rows interpolate between the context's drift matrix (actuation 0)
    and the pull matrix (actuation 10), so stronger actuation steers the source
    toward the zero-cost state.  The context chain is symmetric, making its
    stationary law uniform.
    """
    n_actions = 11
    source = []
    for i in range(3):
        by_context = []
        for k in range(2):
            rows = []
            for m in range(n_actions):
                w = m / (n_actions - 1)
                row = [round((1.0 - w) * _DRIFT[k][i][u] + w * _PULL[i][u], 12)
                       for u in range(3)]
                rows.append(row)
            by_context.append(rows)
        source.append(by_context)
    return {
        "name": "default",
        "alphabets": {"states": 3, "contexts": 2, "actions": n_actions},
        "source_dynamics": source,
        "context_dynamics": [[0.8, 0.2], [0.2, 0.8]],
        "channel": {"success_prob": success_prob},
        "cost": {
            "inherent": [[0, 20, 50], [0, 10, 20]],
            "gain": {"linear": 8.0},
            "expenditure": {"linear": 1.0},
            "gain_weight": 1.0,
            "expenditure_weight": 1.0,
            "sampling_cost": sampling_cost,
        },
        "solver": {"algorithm": "jesp", "epsilon": 1e-6, "seed": 0},
        "simulation": {"horizon": 100_000, "seed": 12345,
                       "initial": {"state": 0, "estimate": 0, "context": 0}},
        "sweep": {"uniform_periods": list(range(1, 21)), "age_threshold_max": 50,
                  "seeds": [0, 1, 2]},
        "grid": {"success_probs": [0.2, 0.4, 0.6, 0.8, 1.0],
                 "sampling_costs": [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]},
    }


def default_scenario(success_prob=0.8, sampling_cost=2.0) -> Scenario:
    return scenario_from_dict(default_document(success_prob, sampling_cost),
                              name="default")
