import os

import numpy as np
import pytest

from goaltensor.scenario import default_scenario
from goaltensor.solvers import (CORES, brute_force_joint, heuristic_initial_decision, jesp,
                                pool_map)
from goaltensor.tensor import CostModel, DecisionPolicy


@pytest.fixture(scope="session")
def worked_cost():
    """The small three-state, two-context worked cost instance."""
    return CostModel(inherent=[[0, 1, 3], [0, 2, 5]], gain=[0, 2, 4],
                     expenditure=[0, 1, 2], sampling_cost=1.0)


@pytest.fixture(scope="session")
def worked_policy():
    return DecisionPolicy([0, 1, 2])


GRID_PS = (0.2, 0.4, 0.6, 0.8, 1.0)
GRID_CS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)


# full hand evaluation of the worked instance, values[x][phi][xhat]
WORKED_TENSOR = np.array([
    [[0, 1, 2], [0, 1, 2]],
    [[1, 1, 2], [2, 1, 2]],
    [[3, 2, 2], [5, 4, 3]],
], dtype=float)


@pytest.fixture(scope="session")
def shipped():
    return default_scenario()


@pytest.fixture(scope="session")
def grid_solutions():
    """Brute-force and equilibrium solves over the bundled scenario's full
    evaluation grid, by (pS, CS): (cell scenario, brute-force report, jesp
    report).  Each brute force solves every candidate, with no grid anchor.
    The cells are spread over worker processes as ``goaltensor gap`` spreads
    them."""
    def solve(cell):
        model = default_scenario(*cell).model
        return brute_force_joint(model), jesp(model, heuristic_initial_decision(model))

    cells = [(p_success, sampling_cost) for p_success in GRID_PS for sampling_cost in GRID_CS]
    return {cell: (default_scenario(*cell), bf, je)
            for cell, (bf, je) in zip(cells, pool_map(solve, cells, CORES))}


def assert_no_child_process():
    """Fail if this process has a child, running or exited and not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def generated_scenario(gen):
    """Scenario of ``perfbench/generate.py``'s document ``gen`` (N = 48)."""
    import importlib.util
    from pathlib import Path
    from goaltensor.scenario import scenario_from_dict
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return scenario_from_dict(module.large_document(gen))
