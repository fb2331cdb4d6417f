"""Goal cost tensor, sampler/actuator co-design solvers, and benchmark harness."""

__version__ = "0.1.0"

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
