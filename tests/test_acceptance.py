"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The grid solves are shared through a session-scoped fixture
(``conftest.py``), so the whole module stays well inside its time budget.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from goaltensor.benchmarks import (StatePolicyRule, aoii_optimal_policy,
                                   evaluate_age_threshold, evaluate_change_aware,
                                   evaluate_state_policy, evaluate_uniform,
                                   mse_optimal_policy)
from goaltensor.cli import main as cli_main
from goaltensor.harness import simulate_closed_loop
from goaltensor.model import dense_kernels, induced_mdp
from goaltensor.scenario import default_document, default_scenario, save_scenario
from goaltensor.solvers import (_FixedSamplingProblem, _one_hot, _run, brute_force_joint,
                                closed_classes, greedy_decision_policy)
from goaltensor.tensor import (DecisionPolicy, SamplingPolicy, build_got_tensor,
                               degenerate_tensor)
from conftest import WORKED_TENSOR
from oracles import (analyze_chain, exhaustive_joint_search, global_states, kernel_by_hand,
                     policy_chain, random_model, rvi_solve, tiny_two_state_model)

def report(number, text):
    print(f"\n[criterion {number:02d}] PASS: {text}")


def test_criterion_1_worked_tensor_reproduction(worked_cost, worked_policy):
    tensor = build_got_tensor(worked_cost, worked_policy)
    assert tensor.values.shape == (3, 2, 3)
    np.testing.assert_array_equal(tensor.values, WORKED_TENSOR)
    report(1, "all 18 worked-instance tensor entries match hand evaluation exactly")


def test_criterion_2_degeneration_suite():
    rng = np.random.default_rng(20240 + 2)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        freshness = np.concatenate([[1.0], rng.uniform(0.0, 20.0, k - 1)])
        values = rng.normal(0.0, 3.0, n)
        aoi = degenerate_tensor("aoi", n_states=n, context_values=freshness)
        aoii = degenerate_tensor("aoii", n_states=n, context_values=freshness)
        uoi = degenerate_tensor("uoi", n_states=n, context_values=freshness,
                                state_values=values)
        mse = degenerate_tensor("mse", n_states=n, n_contexts=k, state_values=values)
        coae_mat = rng.uniform(0.0, 7.0, (n, n))
        np.fill_diagonal(coae_mat, 0.0)
        coae = degenerate_tensor("coae", error_matrix=coae_mat, n_contexts=k)
        for level in range(k):
            assert np.ptp(aoi[:, level, :]) == 0.0
            assert np.all(aoi[:, level, :] == freshness[level])
            np.testing.assert_allclose(aoii[:, level, :],
                                       freshness[level] * aoii[:, 0, :])
            np.testing.assert_allclose(uoi[:, level, :],
                                       freshness[level] * uoi[:, 0, :])
            np.testing.assert_array_equal(mse[:, level, :], mse[:, 0, :])
            np.testing.assert_array_equal(coae[:, level, :], coae_mat)
        mismatch = ~np.eye(n, dtype=bool)
        assert np.all((aoii[:, 0, :] == 0) == ~mismatch)
        np.testing.assert_allclose(mse[:, 0, :],
                                   (values[:, None] - values[None, :]) ** 2)
        checked += 1
    report(2, f"classic-metric identities hold exactly on {checked} random instances")


def test_criterion_3_kernel_equals_channel_enumeration(shipped):
    model = shipped.model
    count = 0
    dense = dense_kernels(model)
    for w in global_states(model):
        for a_s in (0, 1):
            for a_a in range(model.alphabets.n_actions):
                np.testing.assert_allclose(
                    dense[a_s, a_a, model.state_index(*w)],
                    kernel_by_hand(model, w, a_s, a_a), atol=1e-12)
                count += 1
    rng = np.random.default_rng(333)
    for _ in range(50):
        small = random_model(rng, n_states=int(rng.integers(2, 4)),
                             n_contexts=int(rng.integers(1, 3)),
                             n_actions=int(rng.integers(1, 4)))
        dense = dense_kernels(small)
        assert np.abs(dense.sum(axis=-1) - 1.0).max() < 1e-12
        for w in global_states(small):
            for a_s in (0, 1):
                for a_a in range(small.alphabets.n_actions):
                    np.testing.assert_allclose(
                        dense[a_s, a_a, small.state_index(*w)],
                        kernel_by_hand(small, w, a_s, a_a), atol=1e-12)
                    count += 1
    report(3, f"closed-form kernel equals channel-enumeration oracle at {count} "
              f"(state, action) pairs within 1e-12")


def test_criterion_4_exact_solver_cross_check():
    rng = np.random.default_rng(444)
    worst_eq = 0.0
    for trial in range(5):
        model = tiny_two_state_model(rng, success_prob=float(rng.uniform(0.3, 1.0)),
                                     sampling_cost=float(rng.uniform(0.0, 2.0)))
        bf = brute_force_joint(model)
        best, results = exhaustive_joint_search(model, start=0)
        assert len(results) == 64
        worst_eq = max(worst_eq, abs(bf.average_reward - best))
        assert bf.average_reward == pytest.approx(best, abs=1e-6)
        for _, _, value in results:
            assert bf.average_cost <= -value + 1e-6        # dominance, cost units
    report(4, f"brute force equals the 64-pair exhaustive oracle on 5 tiny instances "
              f"(max |difference| {worst_eq:.2e}), dominance holds for every pair")


def test_criterion_5_residual_certificates(shipped, grid_solutions):
    model = shipped.model
    decision = DecisionPolicy([0, 3, 7])
    sol = rvi_solve(induced_mdp(model, decision))
    assert sol.residual < 1e-6
    _, bf, je = grid_solutions[(0.8, 2.0)]
    assert bf.residual < 1e-6
    poisson_worst = 0.0
    for sampling, dec in [(aoii_optimal_policy(model), decision),
                          (je.sampling_policy, je.decision_policy)]:
        problem = _FixedSamplingProblem(model, sampling)
        table = _one_hot(dec.actions, model.alphabets.n_actions)
        P, rbar = problem.chain(table)
        evaluation = _run(problem.evaluation(table, shipped.start_state))  # raises above 1e-8
        residual = np.abs(evaluation.eta_vec + evaluation.g - rbar - P @ evaluation.g).max()
        poisson_worst = max(poisson_worst, residual)
        assert residual < 1e-8
    report(5, f"optimality-equation residuals < 1e-6 and differential-reward "
              f"residuals < 1e-8 (worst {poisson_worst:.2e})")


def test_criterion_6_greedy_policy_reproduction(shipped):
    policy = greedy_decision_policy(shipped.model, context_weights=[0.5, 0.5])
    assert policy.actions.tolist() == [0, 3, 7]
    assert greedy_decision_policy(shipped.model).actions.tolist() == [0, 3, 7]
    report(6, "greedy decision policy is [a0, a3, a7] under uniform context weights "
              "with the high-action tie break")


def test_criterion_7_equilibrium_near_optimality(grid_solutions):
    worst_gap = -np.inf
    worst_rel = 0.0
    for (p_success, sampling_cost), (_, bf, je) in grid_solutions.items():
        assert bf.diagnostics["candidates_evaluated"] == 11 ** 3
        gap = je.average_cost - bf.average_cost
        rel = gap / abs(bf.average_cost)
        assert gap >= -1e-6, (p_success, sampling_cost, gap)
        assert rel <= 0.05, (p_success, sampling_cost, rel)
        worst_gap = max(worst_gap, gap)
        worst_rel = max(worst_rel, rel)
    report(7, f"equilibrium search within brute force (1331 candidates each) on all "
              f"30 grid cells (max gap {worst_gap:.3e} cost units, max relative gap "
              f"{worst_rel:.2%})")


def test_criterion_8_dominance_ordering(grid_solutions):
    corner = None
    for (p_success, sampling_cost), (scenario, bf, _) in grid_solutions.items():
        model = scenario.model
        greedy = greedy_decision_policy(model)
        co = bf.average_cost
        aoii = evaluate_state_policy(model, aoii_optimal_policy(model), greedy
                                     ).average_cost
        mse = evaluate_state_policy(model, mse_optimal_policy(model, greedy), greedy
                                    ).average_cost
        uniform_best = min(evaluate_uniform(model, period, greedy).average_cost
                           for period in range(1, 21))
        change = evaluate_change_aware(model, greedy).average_cost
        assert co <= aoii + 1e-6, (p_success, sampling_cost)
        assert co <= mse + 1e-6, (p_success, sampling_cost)
        assert co <= uniform_best + 1e-6, (p_success, sampling_cost)
        assert co <= change + 1e-6, (p_success, sampling_cost)
        # semantics-aware sampling beats the semantics-blind rules
        assert aoii <= max(uniform_best, change) + 1e-6, (p_success, sampling_cost)
        if (p_success, sampling_cost) == (0.2, 10.0):
            corner = (co, aoii, mse, uniform_best, change)
    co, aoii, mse, uniform_best, change = corner
    best_baseline = min(aoii, mse, uniform_best, change)
    report(8, "co-design dominates every baseline on all 30 cells; at the harshest "
              f"cell (success 0.2, charge 10) the co-design costs {co:.4f} versus "
              f"best baseline {best_baseline:.4f} "
              f"({(best_baseline - co) / best_baseline:.1%} saving; "
              f"{(aoii - co) / aoii:.1%} versus the mismatch-triggered baseline)")


def test_criterion_9_simulation_matches_analysis():
    rng = np.random.default_rng(999)
    checked = 0
    for pair in range(10):
        model = random_model(rng, n_states=int(rng.integers(2, 4)),
                             n_contexts=int(rng.integers(1, 3)),
                             n_actions=int(rng.integers(1, 4)),
                             success_prob=float(rng.uniform(0.3, 1.0)))
        decision = DecisionPolicy(rng.integers(0, model.alphabets.n_actions,
                                               size=model.alphabets.n_states))
        while True:
            kind = rng.integers(0, 3)
            if kind == 0:
                sampling = aoii_optimal_policy(model)
            elif kind == 1:
                sampling = SamplingPolicy.always(model.alphabets)
            else:
                bits = rng.integers(0, 2, size=(model.alphabets.n_states,
                                                model.alphabets.n_states,
                                                model.alphabets.n_contexts))
                sampling = SamplingPolicy(bits)
            P, rbar = policy_chain(model, sampling, decision)
            if len(closed_classes(P)) == 1:
                break
        eta = analyze_chain(P, rbar).average_reward
        _, summary = simulate_closed_loop(model, StatePolicyRule(sampling), decision,
                                          1_000_000, seed=7_000 + pair,
                                          record_trace=False)
        assert summary.average_cost == pytest.approx(-eta, abs=3 * summary.stderr), pair
        checked += 1
    report(9, f"{checked} random policy/model pairs: one-million-slot averages match "
              f"the exact value within three standard errors")


def test_criterion_10_curve_shapes():
    # periodic sampling shows an interior optimum at a moderate charge
    scenario = default_scenario(sampling_cost=6.0)
    greedy = greedy_decision_policy(scenario.model)
    uniform_costs = [evaluate_uniform(scenario.model, period, greedy).average_cost
                     for period in range(1, 21)]
    best = int(np.argmin(uniform_costs))
    assert 0 < best < 19
    assert uniform_costs[best] < uniform_costs[0] - 1e-9
    assert uniform_costs[best] < uniform_costs[-1] - 1e-9

    # age-triggered sampling never loses to periodic sampling at matched rates
    scenario = default_scenario()
    greedy = greedy_decision_policy(scenario.model)
    uniform = [evaluate_uniform(scenario.model, period, greedy)
               for period in range(1, 21)]
    age = [evaluate_age_threshold(scenario.model, threshold, greedy)
           for threshold in range(0, 41)]
    rates = np.array([s.sampling_rate for s in age])[::-1]
    costs = np.array([s.average_cost for s in age])[::-1]
    compared = 0
    for summary in uniform:
        if rates.min() <= summary.sampling_rate <= rates.max():
            interpolated = float(np.interp(summary.sampling_rate, rates, costs))
            assert interpolated <= summary.average_cost + 1e-9
            compared += 1
    assert compared >= 10
    report(10, f"periodic curve is strictly U-shaped at charge 6 (best period "
               f"{best + 1}); age-triggered curve at-or-below periodic at "
               f"{compared} matched rates")


def test_criterion_11_cli_determinism(tmp_path):
    scenario_path = save_scenario(default_document(), tmp_path / "scenario.json")

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    solve_hashes = []
    for run in ("a", "b"):
        out = tmp_path / f"solve_{run}"
        assert cli_main(["solve", "--scenario", str(scenario_path),
                         "--algorithm", "jesp", "--seed", "3",
                         "--out", str(out)]) == 0
        solve_hashes.append((digest(out / "report.txt"), digest(out / "policy.json")))
    assert solve_hashes[0] == solve_hashes[1]

    trace_hashes = []
    for run in ("a", "b"):
        out = tmp_path / f"sim_{run}"
        assert cli_main(["simulate", "--scenario", str(scenario_path),
                         "--policy", "aoii", "--horizon", "5000", "--seed", "11",
                         "--out", str(out)]) == 0
        trace_hashes.append(digest(out / "trace.csv"))
    assert trace_hashes[0] == trace_hashes[1]

    out = tmp_path / "sim_c"
    assert cli_main(["simulate", "--scenario", str(scenario_path),
                     "--policy", "aoii", "--horizon", "5000", "--seed", "12",
                     "--out", str(out)]) == 0
    assert digest(out / "trace.csv") != trace_hashes[0]
    report(11, "repeated runs with fixed seeds hash identically (reports, policies, "
               "traces); changing the seed changes the trace")
