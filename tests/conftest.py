import os

import numpy as np
import pytest

from goaltensor.scenario import default_scenario
from goaltensor.tensor import CostModel, DecisionPolicy


@pytest.fixture(scope="session")
def worked_cost():
    """The small three-state, two-context worked cost instance."""
    return CostModel(inherent=[[0, 1, 3], [0, 2, 5]], gain=[0, 2, 4],
                     expenditure=[0, 1, 2], sampling_cost=1.0)


@pytest.fixture(scope="session")
def worked_policy():
    return DecisionPolicy([0, 1, 2])


# full hand evaluation of the worked instance, values[x][phi][xhat]
WORKED_TENSOR = np.array([
    [[0, 1, 2], [0, 1, 2]],
    [[1, 1, 2], [2, 1, 2]],
    [[3, 2, 2], [5, 4, 3]],
], dtype=float)


@pytest.fixture(scope="session")
def shipped():
    return default_scenario()


def assert_no_child_process():
    """Fail if this process has a child, running or exited and not yet reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
