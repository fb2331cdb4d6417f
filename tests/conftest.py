import os

# one BLAS thread, as the package pins it, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from goaltensor.scenario import default_scenario  # noqa: E402
from goaltensor.solvers import (CORES, brute_force_joint, heuristic_initial_decision,  # noqa: E402
                                jesp, pool_map)
from goaltensor.tensor import CostModel, DecisionPolicy  # noqa: E402

from oracles import exhaustive_brute_force  # noqa: E402


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
    report).  Each brute-force report is the exhaustive oracle's, every
    candidate solved; on every cell ``brute_force_joint``, which screens,
    returns its decision table, sampling policy and gain to the bit.  The
    cells are spread over worker processes as ``goaltensor gap`` spreads
    them."""
    def solve(cell):
        model = default_scenario(*cell).model
        return (exhaustive_brute_force(model), brute_force_joint(model),
                jesp(model, heuristic_initial_decision(model)))

    cells = [(p_success, sampling_cost) for p_success in GRID_PS for sampling_cost in GRID_CS]
    solutions = {}
    for cell, (bf, screened, je) in zip(cells, pool_map(solve, cells, CORES)):
        assert [screened.decision_policy.actions.tobytes(),
                screened.sampling_policy.decisions.tobytes(), repr(screened.average_reward)] == [
            bf.decision_policy.actions.tobytes(), bf.sampling_policy.decisions.tobytes(),
            repr(bf.average_reward)]
        diagnostics = screened.diagnostics
        assert diagnostics["candidates_evaluated"] + diagnostics["candidates_pruned"] == 11 ** 3
        solutions[cell] = default_scenario(*cell), bf, je
    return solutions


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
