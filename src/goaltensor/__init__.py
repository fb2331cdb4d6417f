"""Goal cost tensor, sampler/actuator co-design solvers, and benchmark harness."""

__version__ = "0.1.0"

import os as _os

# One BLAS thread unless the caller chose a count, set before numpy loads: a
# large dense solve (``solvers._balance`` at N = 48) can round differently on
# several threads, and a fixed input should give the same CSV bytes on every
# machine.  A process that loaded numpy first keeps the count it started with.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .tensor import (Alphabets, CostModel, DecisionPolicy, GoTensor, SamplingPolicy,
                     build_got_tensor, degenerate_tensor, validate_cost_model)
from .model import (ChannelModel, ContextDynamics, DecPomdpModel, SourceDynamics,
                    TabularMdp, heuristic_mdp, induced_mdp, induced_pomdp)
from .solvers import (SolveReport, brute_force_joint, greedy_decision_policy, jesp,
                      solve_sampler_for_decision, stationary_distribution)
from .benchmarks import (FAMILIES, CostSummary, aoii_optimal_policy,
                         evaluate_age_threshold, evaluate_change_aware,
                         evaluate_state_policy, evaluate_uniform, mse_optimal_policy)
from .harness import (SimulationSummary, SweepResult, Trace, compare_policies,
                      optimality_gap, simulate_closed_loop, sweep_rate_vs_cost)
from .scenario import (Scenario, default_document, default_scenario, load_scenario,
                       save_scenario, scenario_from_dict)

__all__ = [name for name in dir() if not name.startswith("_")]
