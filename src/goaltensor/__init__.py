"""Goal cost tensor, sampler/actuator co-design solvers, and benchmark harness."""

__version__ = "0.1.0"

from .tensor import (Alphabets, CostModel, DecisionPolicy, GoTensor, SamplingPolicy,
                     build_got_tensor, degenerate_tensor, got_value,
                     validate_cost_model)
from .model import (ChannelModel, ContextDynamics, DecPomdpModel, GlobalState,
                    JointAction, SourceDynamics, TabularMdp, estimate_kernel,
                    heuristic_mdp, induced_mdp, induced_pomdp, observation_fn,
                    reward, transition_kernel)
from .solvers import (QTables, SolveReport, brute_force_joint, greedy_decision_policy,
                      jesp, pi_step_size, policy_chain, q_tables,
                      solve_sampler_for_decision, stationary_distribution)
from .benchmarks import (FAMILIES, CostSummary, aoii_optimal_policy,
                         evaluate_age_threshold, evaluate_change_aware,
                         evaluate_state_policy, evaluate_uniform, mse_optimal_policy,
                         tune_age_threshold)
from .harness import (SimulationSummary, SweepResult, Trace, compare_policies,
                      cost_decomposition, optimality_gap, simulate_closed_loop,
                      sweep_rate_vs_cost)
from .scenario import (Scenario, default_document, default_scenario, load_scenario,
                       save_scenario, scenario_from_dict)

__all__ = [name for name in dir() if not name.startswith("_")]
