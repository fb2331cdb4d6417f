import itertools
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goaltensor.errors import (EnumerationBudgetError, ErgodicityError, MemoryBudgetError,
                               NonConvergenceError, ParameterError)
from goaltensor import benchmarks
from goaltensor import model as model_module
from goaltensor.model import (ChannelModel, ContextDynamics, DecPomdpModel,
                              SourceDynamics, TabularMdp, induced_mdp)
from goaltensor import solvers
from goaltensor.scenario import GridConfig, default_scenario
from goaltensor.solvers import (_ChainEval, _balance, _balance_batch, _closed_classes_batch,
                                _evaluate_batch, _unichain_batch, brute_force_joint,
                                cesaro_limit, chain_law,
                                closed_classes, flatten_sampling,
                                greedy_decision_policy, heuristic_initial_decision,
                                jesp, _FixedSamplingProblem, _local_search, _one_hot,
                                _policy_iteration_batch, _run, _soft_pi, sampling_from_flat,
                                solve_mdps,
                                solve_sampler_for_decision, stationary_distribution)
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy

from conftest import assert_no_child_process, generated_scenario

from oracles import (_general_analysis, _rvi_batch, analyze_chain, average_reward,
                     balance_alone, closed_classes_by_components, closed_classes_by_squaring,
                     evaluate_by_closure, exhaustive_joint_search,
                     gain_from, heuristic_decision_by_rvi, jesp_once_every_round, jesp_sequential,
                     joint_chain_by_hand, limit_matrix, local_search_one_by_one,
                     pi_step_size_every_table, policy_chain, policy_gain,
                     policy_iteration_copying, random_model, relative_reward, rvi_solve,
                     dense_screen_bounds, screen_factors, tiny_two_state_model,
                     whole_cell_skips)


def _evaluate(problem, table, start=0):
    """Soft policy iteration's evaluation of ``table`` (``_FixedSamplingProblem.evaluation``), run alone."""
    return _run(problem.evaluation(table, start))


def pi_step_size(model, sampling, initial_decision, epsilon=solvers.DEFAULT_EPSILON,
                 step_schedule=None, max_rounds=solvers.MAX_PI_ROUNDS, start_state=0):
    """Soft policy iteration (``solvers._soft_pi``), run alone."""
    return _run(_soft_pi(model, sampling, initial_decision, epsilon, step_schedule, max_rounds,
                         start_state))


# --- stationary analysis -----------------------------------------------------


def test_stationary_two_state_closed_form():
    mu = stationary_distribution(np.array([[0.9, 0.1], [0.5, 0.5]]))
    np.testing.assert_allclose(mu, [5 / 6, 1 / 6], atol=1e-14)


def test_stationary_rejects_identity():
    with pytest.raises(ErgodicityError) as info:
        stationary_distribution(np.eye(2))
    assert info.value.unreachable == [1]


def test_stationary_doubly_stochastic_is_uniform():
    P = np.array([[0.2, 0.5, 0.3], [0.5, 0.2, 0.3], [0.3, 0.3, 0.4]])
    np.testing.assert_allclose(stationary_distribution(P), np.ones(3) / 3, atol=1e-12)


def test_stationary_handles_transients():
    # state 0 drains into the closed pair {1, 2}
    P = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]])
    mu = stationary_distribution(P)
    assert mu[0] == 0.0
    np.testing.assert_allclose(mu @ P, mu, atol=1e-12)


def test_stationary_periodic_chain_is_fine():
    mu = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-14)


@given(st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_stationary_matches_limit_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    P = rng.gamma(1.0, size=(n, n)) + 0.02
    P /= P.sum(axis=1, keepdims=True)
    mu = stationary_distribution(P)
    np.testing.assert_allclose(mu, limit_matrix(P)[0], atol=1e-9)
    np.testing.assert_allclose(mu @ P, mu, atol=1e-12)
    assert mu.sum() == pytest.approx(1.0, abs=1e-10)


def test_average_reward_small_cases():
    assert average_reward(np.array([0.5, 0.5]), np.array([0.0, -2.0])) == -1.0
    assert average_reward(np.array([0.0, 1.0]), np.array([7.0, -3.0])) == -3.0


def test_relative_reward_constant_reward_is_flat():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    mu = stationary_distribution(P)
    g = relative_reward(P, np.array([2.5, 2.5]), mu, 2.5)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_relative_reward_poisson_residual_and_normalization():
    P = np.array([[0.9, 0.1], [0.5, 0.5]])
    rbar = np.array([0.0, -1.0])
    mu = stationary_distribution(P)
    eta = average_reward(mu, rbar)
    assert eta == pytest.approx(-1 / 6, abs=1e-14)
    g = relative_reward(P, rbar, mu, eta)
    assert np.abs(eta + g - rbar - P @ g).max() < 1e-10
    assert abs(mu @ g) < 1e-12


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_analyze_chain_properties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    P = rng.gamma(1.0, size=(n, n)) + 0.02
    P /= P.sum(axis=1, keepdims=True)
    rbar = rng.normal(0, 5, n)
    analysis = analyze_chain(P, rbar)
    residual = np.abs(analysis.average_reward + analysis.relative_reward
                      - rbar - P @ analysis.relative_reward).max()
    assert residual < 1e-8
    assert abs(analysis.distribution @ analysis.relative_reward) < 1e-9


def test_cesaro_limit_multichain():
    # two absorbing states, one transient splitting between them
    P = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, 0.7, 0.0]])
    star = cesaro_limit(P)
    np.testing.assert_allclose(star[2], [0.3, 0.7, 0.0], atol=1e-12)
    rbar = np.array([1.0, 3.0, 100.0])
    assert chain_law(P, 2) @ rbar == pytest.approx(0.3 * 1 + 0.7 * 3, abs=1e-12)
    np.testing.assert_allclose(star[2], limit_matrix(P)[2], atol=1e-9)


def _sparse_chain(rng, n, absorbing=0.15):
    """Random chain with one to three successors per state, each state absorbing
    with probability ``absorbing``."""
    P = np.zeros((n, n))
    for i in range(n):
        if rng.random() < absorbing:
            P[i, i] = 1.0
        else:
            successors = rng.choice(n, size=min(n, int(rng.integers(1, 4))), replace=False)
            P[i, successors] = rng.gamma(1.0, size=successors.size) + 0.05
    return P / P.sum(axis=1, keepdims=True)


def test_closed_classes_match_component_oracle():
    shapes = set()
    for n in (1, 2, 5, 18, 54):
        for seed in range(40):
            P = _sparse_chain(np.random.default_rng([n, seed]), n)
            got = [c.tolist() for c in closed_classes(P)]
            want = sorted((c.tolist() for c in closed_classes_by_components(P)),
                          key=min)
            assert got == want
            shapes.add((len(got) > 1, sum(map(len, got)) < n))
    # one and several classes, with and without transient states
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("n", [1, 2, 5, 18, 48])
def test_unichain_certificate_matches_component_oracle(monkeypatch, n):
    # 80 chains per size, half of them with absorbing states: the certificate
    # never passes a chain with several closed classes, and the evaluator
    # classifies exactly the members it leaves
    chains = [_sparse_chain(np.random.default_rng([n, seed]), n, absorbing)
              for absorbing in (0.15, 0.0) for seed in range(40)]
    P = np.array(chains)
    r = np.random.default_rng(n).normal(size=(len(P), n))
    certified = _unichain_batch(P)
    assert certified.tolist() == [bool(_unichain_batch(c[None])[0]) for c in chains]
    n_classes = np.array([len(closed_classes_by_components(c)) for c in chains])
    assert (n_classes[certified] == 1).all()
    classified = []
    monkeypatch.setattr(solvers, "_closed_classes_batch",
                        lambda Q: classified.append(len(Q)) or _closed_classes_batch(Q))
    got = _evaluate_batch(P, r)
    assert got[2].tolist() == n_classes.tolist()
    assert classified == ([] if certified.all() else [int((~certified).sum())])
    _assert_same_bits(got, evaluate_by_closure(P, r))
    if n >= 5:
        # certified, uncertified unichain (the fallback) and multichain members
        kinds = set(zip(certified.tolist(), (n_classes > 1).tolist()))
        assert kinds == {(True, False), (False, False), (False, True)}


def test_unichain_with_transient_target_takes_the_fallback(monkeypatch):
    # state 0 is the one closed class, but transient state 2 has the largest
    # column sum (2.5 against 1.5), so the certificate cannot pass the chain
    P = np.array([[1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.5, 0.0, 0.5, 0.0],
                  [0.0, 0.0, 1.0, 0.0]])
    assert P.sum(axis=0).argmax() == 2
    assert not _unichain_batch(P[None])[0]
    classified = []
    monkeypatch.setattr(solvers, "_closed_classes_batch",
                        lambda Q: classified.append(len(Q)) or _closed_classes_batch(Q))
    g, h, n_closed = _evaluate_batch(P[None], np.arange(4.0)[None])
    assert classified == [1] and n_closed.tolist() == [1]
    np.testing.assert_allclose(g[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(chain_law(P, 3), [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_unichain_certificate_on_empty_and_one_state_batches():
    # an empty batch is what local search scores for a one-action model
    assert _unichain_batch(np.zeros((0, 3, 3))).shape == (0,)
    g, h, n_closed = _evaluate_batch(np.zeros((0, 3, 3)), np.zeros((0, 3)))
    assert g.shape == h.shape == (0, 3) and n_closed.shape == (0,)
    assert _unichain_batch(np.ones((2, 1, 1))).tolist() == [True, True]
    g, h, n_closed = _evaluate_batch(np.ones((2, 1, 1)), np.array([[2.0], [-1.0]]))
    assert g.tolist() == [[2.0], [-1.0]] and h.tolist() == [[0.0], [0.0]]
    assert n_closed.tolist() == [1, 1]
    model = random_model(np.random.default_rng(5), n_states=2, n_contexts=2, n_actions=1)
    problem = _FixedSamplingProblem(model, SamplingPolicy.always(model.alphabets))
    eta = _evaluate(problem, _one_hot([0, 0], 1)).eta
    actions, value = _run(_local_search(problem, [0, 0], eta, 0))
    assert actions.tolist() == [0, 0] and value == eta


def test_certified_batch_never_runs_the_classifier(monkeypatch):
    def forbidden(P):
        raise AssertionError("a certified chain was classified")

    rng = np.random.default_rng(11)
    P = rng.gamma(1.0, size=(16, 12, 12)) * (rng.random((16, 12, 12)) < 0.3)
    P[:, :, 0] += 5.0                       # every state steps to state 0, the target
    P /= P.sum(axis=-1, keepdims=True)
    r = rng.normal(size=(16, 12))
    want, law = evaluate_by_closure(P, r), stationary_distribution(P[0])
    monkeypatch.setattr(solvers, "_closed_classes_batch", forbidden)
    got = _evaluate_batch(P, r)
    _assert_same_bits(got, want)
    assert got[2].tolist() == [1] * 16
    np.testing.assert_array_equal(chain_law(P[0], 5), law)


def _multichain_with_transients(rng):
    """Two to four closed blocks (one of them periodic) and transient states."""
    blocks = []
    for size in rng.integers(1, 5, size=int(rng.integers(2, 5))):
        block = rng.gamma(1.0, size=(size, size)) + 0.02
        blocks.append(block / block.sum(axis=1, keepdims=True))
    blocks[0] = np.roll(np.eye(len(blocks[0])), 1, axis=1)
    closed = sum(len(b) for b in blocks)
    n = closed + int(rng.integers(1, 5))
    P = np.zeros((n, n))
    at = 0
    for block in blocks:
        P[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    leaks = rng.gamma(1.0, size=(n - closed, n)) * (rng.random((n - closed, n)) < 0.5)
    leaks[:, :closed] += 0.01
    P[closed:] = leaks / leaks.sum(axis=1, keepdims=True)
    order = rng.permutation(n)
    return P[np.ix_(order, order)], len(blocks)


@pytest.mark.parametrize("seed", range(10))
def test_chain_law_matches_limit_oracle_from_every_start(seed):
    rng = np.random.default_rng(seed)
    P, n_classes = _multichain_with_transients(rng)
    assert len(closed_classes(P)) == n_classes
    limit = limit_matrix(P)
    for start in range(len(P)):
        np.testing.assert_allclose(chain_law(P, start), limit[start], atol=1e-9)
    # stacked with a certified unichain chain, a chain of absorbing states and
    # P relabelled, classified in one closure: each law to the bit what the
    # chain alone gets
    n = len(P)
    V = rng.gamma(1.0, size=(n, n)) + 0.01
    order = rng.permutation(n)
    stack = np.stack([P, V / V.sum(axis=1, keepdims=True), np.eye(n), P[np.ix_(order, order)]])
    assert _unichain_batch(stack).tolist() == [False, True, False, False]
    for start in range(n):
        want = np.array([chain_law(Q, start) for Q in stack])
        assert chain_law(stack, start).tobytes() == want.tobytes(), start
    # every state leads to state 0, so one closed class: the stationary law,
    # whatever the start
    U = rng.gamma(1.0, size=(6, 6)) * (rng.random((6, 6)) < 0.5) + 0.01 * np.eye(6)[0]
    U = U / U.sum(axis=1, keepdims=True)
    for start in range(6):
        np.testing.assert_array_equal(chain_law(U, start), stationary_distribution(U))


def test_stacked_chain_law_equals_one_law_per_chain(monkeypatch):
    rng = np.random.default_rng(23)
    certified = rng.gamma(1.0, size=(5, 4, 4)) * (rng.random((5, 4, 4)) < 0.5)
    certified[:, :, 0] += 5.0               # every state steps to state 0, the target
    certified /= certified.sum(axis=-1, keepdims=True)
    # one closed class whose target, state 2, is transient; and two absorbing
    # states that transient states 2 and 3 split between
    fallback = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                         [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 1.0, 0.0]])
    multichain = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                           [0.3, 0.7, 0.0, 0.0], [0.0, 0.5, 0.25, 0.25]])
    assert _unichain_batch(certified).all()
    assert not _unichain_batch(np.stack([fallback, multichain])).any()
    stacks = {"every chain certified": certified,
              "none certified": np.stack([fallback, multichain, multichain]),
              "mixed": np.stack([certified[0], multichain, fallback, certified[1]]),
              "K = 1": multichain[None]}
    balanced = []
    monkeypatch.setattr(solvers, "_balance_batch",
                        lambda P: balanced.append(len(P)) or _balance_batch(P))
    for name, stack in stacks.items():
        for start in range(4):
            balanced.clear()
            got = chain_law(stack, start)
            # every chain with one closed class in one balance batch
            assert balanced[0] == sum(len(closed_classes(P)) == 1 for P in stack), name
            want = np.array([chain_law(P, start) for P in stack])
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, start)
    # the multichain member's law is the Cesaro row of the start
    laws = [chain_law(stacks["mixed"], start)[1] for start in range(4)]
    assert laws[0].tolist() == [1.0, 0.0, 0.0, 0.0] and laws[1].tolist() == [0.0, 1.0, 0.0, 0.0]
    np.testing.assert_allclose(laws[2], [0.3, 0.7, 0.0, 0.0], atol=1e-12)


def test_solve_mdps_names_the_failing_mdp():
    model = random_model(np.random.default_rng(3), n_states=2, n_contexts=2, n_actions=2)
    mdp = induced_mdp(model, DecisionPolicy([0, 1]))
    # member 0's transmissions change nothing and cost 10, so it idles from
    # the first round; member 1 is paid to transmit, so its policy still
    # changes after one round
    transitions = np.stack([mdp.transitions[[0, 0]], mdp.transitions])
    rewards = np.stack([mdp.rewards[:, [0, 0]] - [0.0, 10.0], mdp.rewards + [0.0, 50.0]])
    solve_mdps(transitions[:1], rewards[:1], 1e-6, 1, "the idle MDP")
    with pytest.raises(NonConvergenceError) as info:
        solve_mdps(transitions, rewards, 1e-6, 1, "the paid MDP")
    assert str(info.value) == "the paid MDP still changing policy after 1 policy-iteration rounds"
    assert info.value.iterations == 1
    # no residual is below 0
    with pytest.raises(NonConvergenceError) as info:
        solve_mdps(transitions, rewards, 0.0, 100, "the exact MDP")
    assert str(info.value).startswith("the exact MDP optimality-equation residual ")
    assert str(info.value).endswith(" not below 0") and info.value.residual >= 0.0


# --- relative value iteration (the test oracle) ------------------------------


def one_state_mdp():
    return TabularMdp(transitions=np.ones((2, 1, 1)),
                      rewards=np.array([[0.0, -1.0]]))


def test_rvi_one_state_never_samples():
    sol = rvi_solve(one_state_mdp())
    assert sol.gain == 0.0
    assert sol.policy.tolist() == [0]
    assert sol.values.values[0] == 0.0


def two_state_toy():
    # costless state 0, costly state 1; transmitting flips 1 -> 0 surely
    transitions = np.array([
        [[0.5, 0.5], [0.0, 1.0]],    # idle
        [[0.5, 0.5], [1.0, 0.0]],    # transmit
    ])
    rewards = np.array([[0.0, -0.5], [-1.0, -1.5]])
    return TabularMdp(transitions=transitions, rewards=rewards)


def test_rvi_two_state_toy_matches_policy_enumeration():
    mdp = two_state_toy()
    best = -np.inf
    for pol in itertools.product((0, 1), repeat=2):
        P = mdp.transitions[list(pol), [0, 1], :]
        rbar = mdp.rewards[[0, 1], list(pol)]
        best = max(best, gain_from(P, rbar, 0))
    sol = rvi_solve(mdp)
    assert best == pytest.approx(-0.5, abs=1e-9)
    assert sol.gain == pytest.approx(best, abs=1e-6)
    assert sol.policy.tolist() == [0, 1]


def test_rvi_bellman_residual_certificate():
    sol = rvi_solve(two_state_toy(), epsilon=1e-8)
    assert sol.residual < 1e-8
    assert sol.values.values[sol.values.reference_state] == 0.0


def test_rvi_gain_matches_stationary_analysis(shipped):
    # the oracle and the package's best response both earn the stationary gain
    model = shipped.model
    decision = DecisionPolicy([0, 3, 7])
    sol = rvi_solve(induced_mdp(model, decision))
    sampling, gain, _ = solve_sampler_for_decision(model, decision)
    for policy, value in ((sampling_from_flat(sol.policy, model), sol.gain),
                          (sampling, gain)):
        P, rbar = policy_chain(model, policy, decision)
        assert value == pytest.approx(analyze_chain(P, rbar).average_reward, abs=1e-6)


def test_rvi_periodic_chain_raises_with_hint():
    # deterministic two-cycle with asymmetric rewards never settles
    mdp = TabularMdp(transitions=np.array([[[0.0, 1.0], [1.0, 0.0]]]),
                     rewards=np.array([[1.0], [0.0]]))
    with pytest.raises(NonConvergenceError) as info:
        rvi_solve(mdp, max_sweeps=200)
    assert "aperiodicity" in str(info.value)


@given(st.integers(0, 10**9))
# each has a model on which plain relative value iteration does not settle in
# 10,000 sweeps: its reference state leaves its class slowly (511, 543591513),
# or its greedy policy has two closed classes whose gains differ by 1e-6 to
# 4e-4 (393679212, 338942365, 65841304)
@example(511)
@example(393679212)
@example(338942365)
@example(65841304)
@example(543591513)
@settings(max_examples=25, deadline=None)
def test_rvi_batch_equals_sequential(seed):
    rng = np.random.default_rng(seed)
    models = [random_model(rng, n_states=2, n_contexts=1, n_actions=2)
              for _ in range(4)]
    decision = DecisionPolicy(rng.integers(0, 2, size=2))
    mdps = [induced_mdp(m, decision) for m in models]
    T = np.stack([m.transitions for m in mdps])
    R = np.stack([m.rewards for m in mdps])
    pol_b, gains, V_b, iters, residuals, stalled = _rvi_batch(T, R, 1e-6, 0, 10_000)
    assert not stalled.any()
    for k, mdp in enumerate(mdps):
        sol = rvi_solve(mdp)
        assert gains[k] == pytest.approx(sol.gain, abs=0)
        assert pol_b[k].tolist() == sol.policy.tolist()
        assert iters[k] == sol.iterations
        np.testing.assert_array_equal(V_b[k], sol.values.values)
    # the certified gains, after moves to determined values too, are policy
    # iteration's from the reference state within epsilon
    pi_gains = _policy_iteration_batch(T, R, 1e-6, 100, initial_action=0)[1]
    np.testing.assert_allclose(gains, pi_gains[:, 0], rtol=0, atol=1e-6)


# --- policy chain and q tables ----------------------------------------------


def test_policy_chain_deterministic_collapse(shipped):
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    P_hand, rbar_hand = joint_chain_by_hand(model, flatten_sampling(sampling),
                                            decision.actions)
    np.testing.assert_allclose(P, P_hand, atol=1e-12)
    np.testing.assert_allclose(rbar, rbar_hand, atol=1e-12)


def test_policy_chain_stochastic_mixture_is_convex(shipped):
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    table = np.zeros((3, 11))
    table[:, 2] = 0.5
    table[:, 5] = 0.5
    P, rbar = policy_chain(model, sampling, table)
    P2, r2 = policy_chain(model, sampling, DecisionPolicy([2, 2, 2]))
    P5, r5 = policy_chain(model, sampling, DecisionPolicy([5, 5, 5]))
    np.testing.assert_allclose(P, 0.5 * P2 + 0.5 * P5, atol=1e-12)
    np.testing.assert_allclose(rbar, 0.5 * r2 + 0.5 * r5, atol=1e-12)


def q_values(model, sampling, decision):
    """(q_global, q_obs, posterior, reachable) of a deterministic decision
    policy, evaluated from state 0 as soft policy iteration does."""
    problem = _FixedSamplingProblem(model, sampling)
    return problem.q_values(_evaluate(problem, _one_hot(decision.actions,
                                                      model.alphabets.n_actions)))


def test_q_tables_posterior_restricts_to_observation(shipped):
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    analysis = analyze_chain(P, rbar)
    q_global, q_obs, posterior, reachable = q_values(model, sampling, decision)
    _, xhats, _ = model.state_components()
    for obs in range(3):
        assert reachable[obs]
        row = posterior[obs]
        assert row[xhats != obs].sum() == 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-10)
        expected = np.where(xhats == obs, analysis.distribution, 0.0)
        np.testing.assert_allclose(row, expected / expected.sum(), atol=1e-12)
    # q_obs is the posterior-weighted q_global
    np.testing.assert_allclose(q_obs, np.nan_to_num(posterior) @ q_global, atol=1e-12)


def test_q_tables_unreachable_observation_is_nan(shipped):
    model = shipped.model
    # transmit only when the source sits at 0: estimates 1 and 2 die out
    decisions = np.zeros((3, 3, 2), dtype=int)
    decisions[0, :, :] = 1
    sampling = SamplingPolicy(decisions)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    assert len(closed_classes(P)) == 1
    _, q_obs, _, reachable = q_values(model, sampling, decision)
    assert reachable.tolist() == [True, False, False]
    assert np.isnan(q_obs[1]).all()


def test_q_tables_match_monte_carlo_differential_return(shipped):
    # long-run differential return started from (observation, action) pairs
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    analysis = analyze_chain(P, rbar)
    _, q_obs, posterior, _ = q_values(model, sampling, decision)
    from goaltensor.model import induced_pomdp
    pomdp = induced_pomdp(model, sampling)
    horizon = 4000
    for obs, action in [(0, 3), (1, 0), (2, 7)]:
        # exact expectation: one forced first step, then the policy chain
        start = posterior[obs]
        first = float(start @ pomdp.rewards[:, action])
        dist = start @ pomdp.transitions[action]
        total = first - analysis.average_reward
        for _ in range(horizon):
            total += float(dist @ rbar) - analysis.average_reward
            dist = dist @ P
        assert total == pytest.approx(q_obs[obs, action], abs=1e-4)


def test_evaluate_matches_stationary_and_cesaro_oracles(monkeypatch):
    # the unichain oracle on unichain chains, the Cesaro-limit Poisson solve on
    # multichain ones (odd seeds freeze estimates 0 and 1)
    kinds = set()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states=3, n_contexts=2, n_actions=3)
        bits = (rng.random(model.n_global_states) < 0.6).astype(int)
        if seed % 2:
            _, xhats, _ = model.state_components()
            bits[xhats < 2] = 0
        problem = _FixedSamplingProblem(model, sampling_from_flat(bits, model))
        table = rng.dirichlet(np.ones(3), size=3)
        P, rbar = problem.chain(table)
        classes = closed_classes(P)
        kinds.add((len(classes) > 1, sum(map(len, classes)) < len(P)))
        for start in range(len(P)):
            got = _evaluate(problem, table, start)
            if len(classes) > 1:
                want = _general_analysis(P, rbar, start)
            else:
                analysis = analyze_chain(P, rbar)
                want = _ChainEval(mu=analysis.distribution, eta=analysis.average_reward,
                                  eta_vec=np.full(len(P), analysis.average_reward),
                                  g=analysis.relative_reward)
            np.testing.assert_allclose(got.mu, want.mu, rtol=0, atol=1e-12)
            assert got.eta == pytest.approx(want.eta, abs=1e-12)
            np.testing.assert_allclose(got.eta_vec, want.eta_vec, rtol=0, atol=1e-12)
            shift = problem.q_values(got)[0] - problem.q_values(want)[0]
            np.testing.assert_allclose(shift, shift.flat[0], rtol=0, atol=1e-9)
    # one and several classes, with and without transient states
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}
    # the Poisson residual is certified
    monkeypatch.setattr("goaltensor.solvers.POISSON_TOL", -1.0)
    with pytest.raises(NonConvergenceError, match="residual"):
        _evaluate(problem, table, 0)


# --- greedy decision policy --------------------------------------------------


def test_greedy_reproduces_published_actions(shipped):
    policy = greedy_decision_policy(shipped.model)
    assert policy.actions.tolist() == [0, 3, 7]


def test_greedy_hand_enumeration_for_middle_estimate(shipped):
    # with uniform context weights the per-action myopic costs at estimate 1
    # are [15, 8, 4, 3, 4, 5, 6, 7, 8, 9, 10]: strict minimum at action 3
    model = shipped.model
    weights = np.array([0.5, 0.5])
    costs = np.einsum("p,pa->a", weights,
                      np.maximum(model.cost.inherent[:, [1]] - 8.0 * np.arange(11), 0)
                      + np.arange(11))
    assert costs.argmin() == 3 and costs[3] == 3.0
    assert costs[2] == 4.0 and costs[4] == 4.0


def test_greedy_tie_break_knobs(shipped):
    # estimate 2 ties at actions 6 and 7 (both cost 7) under uniform weights
    high = greedy_decision_policy(shipped.model, context_weights=[0.5, 0.5])
    assert high.actions[2] == 7 and high.actions[0] == 0


def test_greedy_zero_cost_state_prefers_no_actuation(shipped):
    assert greedy_decision_policy(shipped.model).actions[0] == 0


# --- policy iteration with step size -----------------------------------------


def test_pi_two_action_model_picks_better_action():
    model = tiny_two_state_model()
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    res = pi_step_size(model, sampling, DecisionPolicy([0, 0]))
    assert res.converged
    # exhaustive check over the 4 deterministic decision policies
    best = max(
        analyze_chain(*policy_chain(model, sampling, DecisionPolicy(list(pair)))
                      ).average_reward
        for pair in itertools.product(range(2), repeat=2))
    assert res.average_reward == pytest.approx(best, abs=1e-6)


@given(st.integers(0, 10**9))
@settings(max_examples=15, deadline=None)
def test_pi_local_optimum_from_every_start(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=2, n_contexts=1, n_actions=2)
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    values = {pair: analyze_chain(*policy_chain(model, sampling,
                                                DecisionPolicy(list(pair)))
                                  ).average_reward
              for pair in itertools.product(range(2), repeat=2)}
    for start in values:
        res = pi_step_size(model, sampling, DecisionPolicy(list(start)))
        final = tuple(res.decision_policy.actions.tolist())
        eta = values[final]
        assert res.average_reward == pytest.approx(eta, abs=1e-9)
        # no single-observation deviation improves
        for obs in range(2):
            for a in range(2):
                if a == final[obs]:
                    continue
                trial = list(final)
                trial[obs] = a
                assert values[tuple(trial)] <= eta + 1e-6


def test_pi_eta_trace_monotone_on_shipped(shipped):
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    res = pi_step_size(model, sampling, DecisionPolicy([0, 0, 0]))
    trace = np.array(res.eta_trace)
    assert np.all(np.diff(trace) >= -1e-9)


def test_pi_multichain_scores_from_start_state(shipped):
    model = shipped.model
    never = SamplingPolicy.never(model.alphabets)
    res = pi_step_size(model, never, DecisionPolicy([0, 3, 7]), start_state=0)
    # estimate frozen at 0: the gain only prices the estimate-0 slice, and the
    # chosen first-slot action for estimate 0 must be a local optimum there
    assert np.isfinite(res.average_reward)


@pytest.mark.parametrize("seed", range(12))
def test_local_search_matches_one_by_one_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=3)
    bits = (rng.random(model.n_global_states) < 0.6).astype(int)
    if seed % 2:
        # estimates 0 and 1 never refresh: two closed classes at least
        _, xhats, _ = model.state_components()
        bits[xhats < 2] = 0
    problem = _FixedSamplingProblem(model, sampling_from_flat(bits, model))
    start = int(rng.integers(model.n_global_states))
    initial = rng.integers(0, 3, size=3)
    eta = _evaluate(problem, _one_hot(initial, 3), start).eta
    actions, value = _run(_local_search(problem, initial, eta, start))
    want_actions, want_value = local_search_one_by_one(problem, initial, eta, start)
    assert actions.tolist() == want_actions.tolist()
    assert value == pytest.approx(want_value, abs=1e-12)


def test_local_search_scores_multichain_deviations_from_start():
    # actuation 0 freezes the source; with fresh estimates, decision [0, 0]
    # makes both (0, 0) and (1, 1) absorbing, the best chain from (1, 1)
    src = np.zeros((2, 1, 2, 2))
    src[:, 0, 0, :] = np.eye(2)
    src[:, 0, 1, :] = 0.5
    model = DecPomdpModel(alphabets=Alphabets(2, 1, 2), source=SourceDynamics(src),
                          context=ContextDynamics(np.eye(1)), channel=ChannelModel(1.0),
                          cost=CostModel(inherent=[[5, 0]], gain=[0, 0],
                                         expenditure=[0, 1], sampling_cost=0.0))
    problem = _FixedSamplingProblem(model, SamplingPolicy.always(model.alphabets))
    start = model.state_index(1, 1, 0)
    eta = _evaluate(problem, _one_hot([0, 1], 2), start).eta
    actions, value = _run(_local_search(problem, [0, 1], eta, start))
    assert actions.tolist() == [0, 0]
    oracle = local_search_one_by_one(problem, [0, 1], eta, start)
    assert oracle[0].tolist() == [0, 0]
    assert value == pytest.approx(oracle[1], abs=1e-12)


# --- brute force and equilibrium search --------------------------------------


def test_brute_force_budget_error_names_count(shipped):
    with pytest.raises(EnumerationBudgetError) as info:
        brute_force_joint(shipped.model, budget=100)
    assert "11^3 = 1331" in str(info.value)


def test_brute_force_single_action_equals_rvi(shipped):
    # both routes certify their optimality equations below epsilon, so the
    # gains agree within epsilon; sampling policies may differ only on ties,
    # so they are compared by the gain each one earns
    rng = np.random.default_rng(5)
    model = random_model(rng, n_states=2, n_contexts=2, n_actions=1)
    epsilon = 1e-6
    report = brute_force_joint(model, epsilon=epsilon)
    decision = DecisionPolicy([0, 0])
    sol = rvi_solve(induced_mdp(model, decision), epsilon=epsilon)
    sampling, gain = sampling_from_flat(sol.policy, model), sol.gain
    assert report.average_reward == pytest.approx(gain, abs=epsilon)
    assert report.decision_policy.actions.tolist() == [0, 0]
    for policy in (report.sampling_policy, sampling):
        P, rbar = policy_chain(model, policy, decision)
        assert gain_from(P, rbar, 0) == pytest.approx(gain, abs=epsilon)
    assert report.diagnostics["candidates_evaluated"] == 1


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_policy_iteration_gains_match_rvi_batch(seed):
    # every candidate's PI gain against the RVI oracle, wherever RVI converges
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=2, n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(1, 4)))
    n_actions = model.alphabets.n_actions
    mdps = [induced_mdp(model, DecisionPolicy(list(d)))
            for d in itertools.product(range(n_actions), repeat=2)]
    T = np.stack([m.transitions for m in mdps])
    R = np.stack([m.rewards for m in mdps])
    epsilon = 1e-6
    _, gains, _, rounds, residuals, _ = _policy_iteration_batch(T, R, epsilon, 100,
                                                                initial_action=1)
    assert np.all(residuals < epsilon)
    assert np.all(rounds >= 1)
    _, rvi_gains, _, _, _, stalled = _rvi_batch(T, R, epsilon, 0, 10_000,
                                                on_stall="estimate")
    converged = ~stalled
    np.testing.assert_allclose(gains[converged, 0], rvi_gains[converged], rtol=0,
                               atol=epsilon)


def test_policy_iteration_multichain_gain_vector():
    # two absorbing states with distinct rewards and a transient state that
    # chooses where to go: the gain vector differs by class, and the
    # transient state picks the better class
    T = np.zeros((1, 2, 3, 3))
    T[0, :, 0, 0] = 1.0
    T[0, :, 1, 1] = 1.0
    T[0, 0, 2, 0] = 1.0
    T[0, 1, 2, 1] = 1.0
    R = np.array([[[-1.0, -1.0], [-3.0, -3.0], [-10.0, -10.0]]])
    policy, gains, biases, _, residuals, n_closed = _policy_iteration_batch(
        T, R, 1e-9, 50, initial_action=1)
    np.testing.assert_allclose(gains[0], [-1.0, -3.0, -1.0], atol=1e-12)
    # bias is 0 at each closed class's representative; the transient state
    # pays -10 once against the gain of -1 it joins
    np.testing.assert_allclose(biases[0], [0.0, 0.0, -9.0], atol=1e-12)
    assert policy[0, 2] == 0
    assert n_closed[0] == 2
    assert residuals[0] < 1e-9


def test_policy_iteration_round_cap_raises():
    rng = np.random.default_rng(3)
    model = random_model(rng, n_states=2, n_contexts=2, n_actions=2)
    mdp = induced_mdp(model, DecisionPolicy([0, 1]))
    # always-sample is rarely optimal when sampling costs something, so one
    # round cannot be enough
    mdp_rewards = mdp.rewards - np.array([0.0, 50.0])
    with pytest.raises(NonConvergenceError):
        _policy_iteration_batch(mdp.transitions[None], mdp_rewards[None], 1e-6, 1,
                                initial_action=1)


def _sparse_pi_batch(rng, n, k=32, n_actions=4, density=0.15):
    """A batch of k random sparse MDPs on n states, with planted members:

    * 0-3 give every action the same kernel and favour the initial action 1
      by 10 in reward, so they finish in the first round;
    * 4-9 hold states 0 and 1 absorbing under every action, so every policy
      has several closed classes;
    * 10 (when n > 2) walks the directed path 0 -> 1 -> ... -> n - 1 under
      every action; at n = 10 its closure needs every squaring (2**3 < 9).
    """
    support = rng.random((k, n_actions, n, n)) < density
    np.put_along_axis(support, rng.integers(0, n, size=(k, n_actions, n, 1)), True, axis=-1)
    T = rng.gamma(1.0, size=(k, n_actions, n, n)) * support
    T /= T.sum(axis=-1, keepdims=True)
    R = rng.normal(size=(k, n, n_actions))
    T[:4] = T[:4, :1]
    R[:4, :, 1] += 10.0
    absorbing = np.eye(n)[:2]
    T[4:10, :, :len(absorbing)] = absorbing
    if n > 2:
        T[10] = np.eye(n, k=1)
        T[10, :, -1, -1] = 1.0
    return T, R


def _assert_same_bits(got, want):
    for ours, theirs in zip(got, want, strict=True):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("n, seed", [(10, 0), (10, 1), (10, 2), (2, 0), (2, 1), (1, 0)])
def test_policy_iteration_matches_copying_oracle(n, seed):
    # policies, gains, biases, rounds, residuals and class counts are the bits
    # of policy iteration that copies every round and classifies every member
    # by squaring a fixed number of times
    T, R = _sparse_pi_batch(np.random.default_rng(seed), n)
    got = _policy_iteration_batch(T, R, 1e-6, 100, initial_action=1)
    want = policy_iteration_copying(T, R, 1e-6, 100, initial_action=1)
    _assert_same_bits(got, want)
    rounds, n_closed = got[3], got[5]
    if n > 1:
        assert (n_closed > 1).any()
    if n == 10:
        assert set(range(1, 6)) <= set(rounds.tolist())
        # the held kernels were compacted while some members were still changing
        assert any(0 < (rounds > r).sum() <= len(rounds) // 2 for r in range(1, rounds.max()))


@pytest.mark.parametrize("seed", range(4))
def test_closed_classes_batch_matches_fixed_squaring_oracle(seed):
    # a long path shares the batch with chains that close in one squaring
    rng = np.random.default_rng(seed)
    n = 10
    P = rng.gamma(1.0, size=(12, n, n)) * (rng.random((12, n, n)) < 0.2)
    P[np.arange(12)[:, None], np.arange(n), rng.integers(0, n, size=(12, n))] += 1.0
    P[0] = np.eye(n, k=1)
    P[0, -1, -1] = 1.0
    P[1] = 1.0
    P /= P.sum(axis=-1, keepdims=True)
    _assert_same_bits(_closed_classes_batch(P), closed_classes_by_squaring(P))
    # the path alone: the last state is the one closed class, found by both
    representative, closed = _closed_classes_batch(P[:1])
    assert closed[0].tolist() == [False] * (n - 1) + [True]
    assert representative[0].tolist() == list(range(n))


def _brute_outcome(model):
    report = brute_force_joint(model)
    return (repr(report.average_reward), report.decision_policy.actions.tolist(),
            report.sampling_policy.decisions.tolist(), report.iterations,
            repr(report.residual), report.diagnostics["multichain_candidates"])


def _in_flight(monkeypatch, model, count):
    """``count`` sampler MDPs in one batch, set both by ``BRUTE_CHUNK`` and by
    the byte limit: ``_served`` keeps each member's working set
    (``_MEMBER_ARRAYS``) within half of the limit."""
    model.kernels                                 # built while they fit
    monkeypatch.setattr(solvers, "BRUTE_CHUNK", count)
    monkeypatch.setattr(model_module, "MAX_KERNEL_BYTES", 2 * (count + 1) * _member(model) - 1)


def _member(model):
    """Bytes of one sampler MDP's working set, as ``_served`` counts them."""
    return solvers._MEMBER_ARRAYS[solvers._SAMPLERS] * model.n_global_states ** 2 * 8


@pytest.mark.parametrize("model, multichain", [
    (default_scenario(0.2, 10.0).model, True),
    (default_scenario(1.0, 0.0).model, False),
    (random_model(np.random.default_rng(7), n_states=3, n_contexts=2, n_actions=3), True),
    # N = 48 and 1,296 candidates, the shape exact-large's generated documents have
    (random_model(np.random.default_rng(7), n_states=4, n_contexts=3, n_actions=6), True),
], ids=["bundled-0.2-10", "bundled-1.0-0", "random", "random-48"])
def test_brute_force_is_chunk_invariant(monkeypatch, model, multichain):
    n_candidates = model.alphabets.n_actions ** model.alphabets.n_states
    outcomes = [_brute_outcome(model)]            # the default chunk and cores
    # the cores set no pool for a search alone: each chunk runs at one and three
    for chunk, workers in itertools.product((1, 7, 128, n_candidates), (1, 3)):
        monkeypatch.setattr(solvers, "CORES", workers)
        _in_flight(monkeypatch, model, chunk)
        outcomes.append(_brute_outcome(model))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert bool(outcomes[0][-1]) == multichain


@pytest.mark.parametrize("limits, failure", [
    ({"epsilon": 1e-15}, "decision policy (0, 0, 0) optimality-equation residual "),
    ({"max_sweeps": 2}, "decision policy (0, 0, 9) still changing policy after 2 "),
], ids=["epsilon", "max_sweeps"])
def test_brute_force_failure_names_the_same_policy_for_every_chunk(monkeypatch, shipped,
                                                                    limits, failure):
    # the lexicographically first failing decision policy, not a chunk's index
    # or count, so the message depends neither on BRUTE_CHUNK nor on the workers
    messages = set()
    for chunk, workers in itertools.product((1, 7, 128, 11 ** 3), (1, 3)):
        monkeypatch.setattr(solvers, "CORES", workers)
        _in_flight(monkeypatch, shipped.model, chunk)
        with pytest.raises(NonConvergenceError) as info:
            brute_force_joint(shipped.model, **limits)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert messages.pop().startswith(failure)


def test_brute_force_sizes_chunks_by_the_byte_limit(monkeypatch):
    model = default_scenario(0.2, 10.0).model     # multichain candidates, N = 18
    want = _brute_outcome(model)                  # also builds the model's kernels
    batches = []
    def spy(T, *args, **kwargs):
        batches.append(len(T))
        return _policy_iteration_batch(T, *args, **kwargs)
    monkeypatch.setattr(solvers, "_policy_iteration_batch", spy)
    # room for 7 sampler MDPs' working sets in half the limit, far below
    # BRUTE_CHUNK's 128
    monkeypatch.setattr(model_module, "MAX_KERNEL_BYTES", 2 * 8 * _member(model) - 1)
    assert _brute_outcome(model) == want
    assert max(batches) == 7 and sum(batches) == 11 ** 3


def test_brute_force_workers_share_the_byte_limit(monkeypatch):
    # at any number of cores, one batch is in flight at a time, within the limit
    model = default_scenario(0.2, 10.0).model
    want = _brute_outcome(model)
    batches = []
    in_flight = peak = 0
    def spy(T, *args, **kwargs):
        nonlocal in_flight, peak
        batches.append(len(T))
        in_flight += len(T)
        peak = max(peak, in_flight)
        try:
            return _policy_iteration_batch(T, *args, **kwargs)
        finally:
            in_flight -= len(T)
    monkeypatch.setattr(solvers, "_policy_iteration_batch", spy)
    monkeypatch.setattr(solvers, "CORES", 2)
    _in_flight(monkeypatch, model, 130)
    assert _brute_outcome(model) == want
    assert max(batches) <= 130 and sum(batches) == 11 ** 3
    assert peak == max(batches)


def test_brute_force_leaves_no_worker_thread(monkeypatch, shipped):
    monkeypatch.setattr(solvers, "CORES", 3)
    _in_flight(monkeypatch, shipped.model, 64)
    before = set(threading.enumerate())
    brute_force_joint(shipped.model)
    assert set(threading.enumerate()) == before
    with pytest.raises(NonConvergenceError):
        brute_force_joint(shipped.model, max_sweeps=2)
    assert set(threading.enumerate()) == before

    # the first piece raises: no later piece is served
    calls = 0
    def failing(*args, **kwargs):
        nonlocal calls
        calls += 1
        raise RuntimeError("injected")
    monkeypatch.setattr(solvers, "_policy_iteration_batch", failing)
    with pytest.raises(RuntimeError, match="injected"):
        brute_force_joint(shipped.model)
    assert set(threading.enumerate()) == before
    assert calls == 1


def test_a_failing_member_ends_its_request(monkeypatch, shipped):
    # nearly every candidate fails at two rounds: once (0, 0, 9) fails, none
    # of the request's later candidates is solved, in its batch or after it
    members = []
    def spy(T, *args, **kwargs):
        members.append(len(T))
        return _policy_iteration_batch(T, *args, **kwargs)
    monkeypatch.setattr(solvers, "_policy_iteration_batch", spy)
    with pytest.raises(NonConvergenceError) as info:
        brute_force_joint(shipped.model, max_sweeps=2)
    assert str(info.value).startswith("decision policy (0, 0, 9) still changing policy after 2")
    assert sum(members) <= 2 * solvers.BRUTE_CHUNK


def test_served_pieces_give_the_outcomes_of_one_batch(monkeypatch):
    # three requests of 300 two-state MDPs, failing members in the first and
    # the last, cut into pieces of every size at one and three cores: every
    # outcome is the one batch's, to the bit, and no member of a request is
    # solved after the piece that met its first failure
    rng = np.random.default_rng(5)
    T = rng.random((900, 2, 2, 2)) + 0.1
    T /= T.sum(axis=-1, keepdims=True)
    R = rng.normal(size=(900, 2, 2))
    R[[5, 70, 71, 200, 299, 610, 899]] -= 200.0
    member = {value: j for j, value in enumerate(R[:, 0, 1])}
    real = _policy_iteration_batch
    solved = []

    def failing(T, R, *args, **kwargs):
        solved.extend(member[value] for value in R[:, 0, 1])
        j = np.flatnonzero(R.max(axis=(1, 2)) < -100)
        if j.size:
            raise NonConvergenceError(f"candidate {j[0]} forced failure", candidate=int(j[0]))
        return real(T, R, *args, **kwargs)

    def served():
        solved.clear()
        return [(ok, str(value) if not ok else [field.tobytes() for field in value])
                for ok, value in solvers._served([solvers._Request(
                    solvers._SAMPLERS, (1e-6, 100, 0), 2, 300,
                    lambda lo, hi, k=k: (T[k + lo:k + hi], R[k + lo:k + hi]))
                    for k in (0, 300, 600)])]

    monkeypatch.setattr(solvers, "_policy_iteration_batch", failing)
    monkeypatch.setattr(solvers, "BRUTE_CHUNK", 900)
    want = served()
    assert [ok for ok, _ in want] == [False, True, False]
    assert want[0][1] == "candidate 5 forced failure" and want[2][1].startswith("candidate 10 ")
    for chunk, cores in itertools.product((1, 7, 128), (1, 3)):
        monkeypatch.setattr(solvers, "BRUTE_CHUNK", chunk)
        monkeypatch.setattr(solvers, "CORES", cores)
        assert served() == want
        # the first request stops with the piece of its member 5, the last
        # with that of its member 10 (610), a piece holding at most ``chunk``
        assert max(j for j in solved if j < 300) < 5 + chunk
        assert max(j for j in solved if j >= 600) < 610 + chunk
        assert set(range(300, 600)) <= set(solved)


def test_brute_searches_in_lockstep_equal_each_alone(shipped):
    models = [default_scenario(0.2, 10.0).model, shipped.model]
    alone = [brute_force_joint(model) for model in models]
    # each model whole, then each model in three interleaved slices
    searches = [solvers.brute_force_search(model) for model in models]
    searches += [solvers.brute_force_search(model, members=range(w, 11 ** 3, 3))
                 for model in models for w in range(3)]
    together = solvers.lockstep(searches)
    assert all(ok for ok, _ in together)
    parts = [part for _, part in together]
    reports = [solvers.brute_force_report(model, [part]) for model, part in zip(models, parts)]
    reports += [solvers.brute_force_report(model, parts[2 + 3 * i:5 + 3 * i])
                for i, model in enumerate(models)]
    for report, want in zip(reports, alone + alone):
        assert repr(report) == repr(want)
        for key in ("candidates_evaluated", "candidates_pruned", "multichain_candidates"):
            assert report.diagnostics[key] == want.diagnostics[key]
        np.testing.assert_array_equal(report.diagnostics["candidate_gains"],
                                      want.diagnostics["candidate_gains"])
        assert (report.iterations, repr(report.residual)) == (want.iterations,
                                                              repr(want.residual))


def test_pool_map_forks_return_in_order_and_raise_the_first_failure():
    import multiprocessing
    # later items finish first, and still come back in item order
    slow_first = solvers.pool_map(lambda i: time.sleep((6 - i) * 0.005) or i, range(6), 3)
    assert slow_first == list(range(6))
    assert_no_child_process()

    # item 1 fails first, then item 0: item 0's error is raised, as map raises it
    failed = multiprocessing.Event()
    started = multiprocessing.Value("i", 0)
    def work(i):
        with started.get_lock():
            started.value += 1
        if i == 0:
            failed.wait(timeout=10)
            raise RuntimeError("item 0")
        if i == 1:
            failed.set()
            raise RuntimeError("item 1")
        time.sleep(0.05)
        return i
    with pytest.raises(RuntimeError, match="^item 0$"):
        solvers.pool_map(work, range(12), 2)
    assert_no_child_process()
    # the items not yet started were cancelled
    assert started.value < 12


def test_brute_force_workers_call_no_wrapped_function(monkeypatch):
    # perfbench/tracing.py wraps module functions such as these with one span
    # stack; brute force alone calls them in the calling thread only
    model = default_scenario(0.2, 10.0).model      # a fresh model: no kernels yet
    threads = []
    for module, name in ((model_module, "dense_kernels"), (solvers, "closed_classes")):
        def spy(*args, _original=getattr(module, name), **kwargs):
            threads.append(threading.current_thread())
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    monkeypatch.setattr(solvers, "CORES", 2)
    brute_force_joint(model)
    assert len(threads) == 2 and set(threads) == {threading.main_thread()}


def test_brute_force_refuses_a_candidate_over_the_byte_limit(monkeypatch):
    model = default_scenario().model
    pair = 2 * model.n_global_states ** 2 * 8
    monkeypatch.setattr(model_module, "MAX_KERNEL_BYTES", pair - 1)
    def unexpected(*args, **kwargs):
        raise AssertionError("kernels gathered before the refusal")
    monkeypatch.setattr(solvers, "DecisionRows", unexpected)
    with pytest.raises(MemoryBudgetError, match=f"the kernels of one candidate need {pair:,} "
                       f"bytes, over the {pair - 1:,}-byte limit"):
        brute_force_joint(model)


def _ceiling_run(monkeypatch, model, ceiling, floor):
    """``brute_force_joint`` with ``ceiling`` and ``floor``, spied on: its
    report, the enumeration indices of each sampler request it made, in
    order, with their results, the batch sizes policy iteration saw, and the
    indices of each screen request with their upper bounds, lower bounds
    and h.  Every request lists its candidates in ascending order, so the
    indices its pieces took, sorted, are the request's, whatever threads
    took them."""
    n_actions, n_states = model.alphabets.n_actions, model.alphabets.n_states
    chunks, batches, taken, screened = [], [], [], []
    real_rows, real_served = solvers.DecisionRows, solvers._served
    real_batch = solvers._policy_iteration_batch

    def rows_spy(model, policies):
        taken.append(np.ravel_multi_index(policies.T, (n_actions,) * n_states))
        return real_rows(model, policies)

    def served_spy(requests):
        outcomes = real_served(requests)
        (ok, results), = outcomes
        indices = np.sort(np.concatenate(taken))
        (screened if requests[0].kind == solvers._SCREENS else chunks).append((indices, results))
        taken.clear()
        return outcomes

    def batch_spy(T, *args, **kwargs):
        batches.append(len(T))
        return real_batch(T, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "DecisionRows", rows_spy)
        patch.setattr(solvers, "_served", served_spy)
        patch.setattr(solvers, "_policy_iteration_batch", batch_spy)
        report = brute_force_joint(model, ceiling=ceiling, floor=floor)
    return report, chunks, batches, screened


@pytest.mark.parametrize("floor", ["jesp", -np.inf], ids=["jesp-floor", "no-floor"])
@pytest.mark.parametrize("chunk", [7, 128])
def test_brute_force_skips_only_candidates_the_ceiling_proves_worse(monkeypatch, floor, chunk):
    ceiling = brute_force_joint(default_scenario(1.0, 0.0).model).diagnostics["candidate_gains"]
    model = default_scenario(0.6, 4.0).model
    full = brute_force_joint(model)
    if floor == "jesp":
        floor = jesp(model, heuristic_initial_decision(model)).average_reward
    monkeypatch.setattr(solvers, "BRUTE_CHUNK", chunk)
    report, chunks, batches, screened = _ceiling_run(monkeypatch, model, ceiling, floor)
    diagnostics = report.diagnostics
    gains, bounds = diagnostics["candidate_gains"], diagnostics["candidate_bounds"]
    solved = np.concatenate([indices for indices, _ in chunks])
    skipped = np.flatnonzero(np.isnan(gains))
    # skipped candidates never reach policy iteration
    assert sum(batches) == solved.size == diagnostics["candidates_evaluated"]
    assert np.array_equal(np.sort(solved), np.flatnonzero(~np.isnan(gains)))
    assert diagnostics["candidates_pruned"] == skipped.size
    assert diagnostics["candidates_evaluated"] + diagnostics["candidates_pruned"] == 11 ** 3
    target = floor - solvers.DEFAULT_EPSILON
    kept = np.flatnonzero(~(ceiling < target))
    if floor == -np.inf:
        # no floor: no screen, and what the ceiling keeps (every candidate) in one request
        assert screened == [] and [indices.tolist() for indices, _ in chunks] == [kept.tolist()]
        assert np.isinf(bounds).all() and skipped.size == 0
    else:
        # the whole cell: rounds of screens, the first over what the ceiling
        # keeps and each over what is left, against a target the best lower
        # bound raises, then one sampler request for what is still above it
        rule = whole_cell_skips(model, ceiling, floor, solvers.DEFAULT_EPSILON)
        assert [indices.tolist() for indices, _ in screened] == rule.screened
        assert rule.screened[0] == kept.tolist() and len(rule.screened) > 1
        assert [indices.tolist() for indices, _ in chunks] == [
            np.flatnonzero(~rule.skipped).tolist()]
        assert rule.target > target
        # each bound the least of its rounds', and every skip proved: below
        # the raised target by the ceiling or that bound
        assert bounds.tobytes() == rule.bounds.tobytes()
        assert np.array_equal(np.isfinite(bounds), np.isin(np.arange(11 ** 3), kept))
        assert np.array_equal(skipped, np.flatnonzero(np.minimum(ceiling, bounds) < rule.target))
        # the ceiling, the floor and the raised target each skip what the others keep
        assert np.isnan(gains[kept]).any()
        assert ((bounds >= target) & (bounds < rule.target) & np.isnan(gains)).any()
    # solved gains, the winner and its certificate are the unpruned solve's, to the bit
    assert np.array_equal(gains[solved], full.diagnostics["candidate_gains"][solved])
    assert (repr(report.average_reward), repr(report.residual)) == (
        repr(full.average_reward), repr(full.residual))
    np.testing.assert_array_equal(report.decision_policy.actions, full.decision_policy.actions)
    np.testing.assert_array_equal(report.sampling_policy.decisions,
                                  full.sampling_policy.decisions)


def test_screen_bounds_every_candidate_gain_from_every_start_state(monkeypatch):
    multichain = 0
    for seed, (p_success, sampling_cost) in enumerate(
            itertools.product((0.3, 1.0), (0.0, 2.0, 0.0, 2.0))):
        # half the models concentrate their source rows, which leaves more
        # estimates that idling freezes: several closed classes
        model = random_model(np.random.default_rng(900 + seed), n_states=3, n_contexts=2,
                             n_actions=3, success_prob=p_success, sampling_cost=sampling_cost,
                             concentration=0.1 if seed >= 4 else 1.0)
        rows = solvers.DecisionRows(model, np.stack(np.unravel_index(np.arange(27), (3,) * 3),
                                                    axis=1))
        # policy iteration as brute force runs it, from sampling everywhere:
        # the optimal gain of every candidate from every start state
        _, gains, _, _, _, n_closed = _policy_iteration_batch(
            rows.kernels, rows.rewards, solvers.DEFAULT_EPSILON, solvers.MAX_PI_ROUNDS, 1)
        multichain += int((n_closed > 1).sum())
        # every round a search can make, each from the h the last one reached:
        # each encloses every gain between its lower and upper bounds
        h, bounds = np.zeros((27, model.n_global_states)), np.full(27, np.inf)
        for _ in range(4):
            upper, lower, h = solvers._screen_bounds(rows.source, rows.rewards, h, -np.inf,
                                                     solvers.SCREEN_SWEEPS, *screen_factors(model))
            assert (lower[:, None] <= gains).all() and (gains <= upper[:, None]).all(), seed
            bounds = np.minimum(bounds, upper)
        # a search under a floor keeps the bound where its sweeps stopped
        # early, never below the full sweeps' bound, and skips a candidate
        # where its bound is below the target its rounds raised
        floor = np.median(gains[:, 0])
        report, chunks, _, screened = _ceiling_run(monkeypatch, model, None, floor)
        found = report.diagnostics["candidate_bounds"]
        assert (found >= bounds).all()
        rule = whole_cell_skips(model, np.full(27, np.inf), floor, solvers.DEFAULT_EPSILON)
        assert [indices.tolist() for indices, _ in screened] == rule.screened
        assert np.array_equal(np.isnan(report.diagnostics["candidate_gains"]), rule.skipped)
        assert np.array_equal(rule.skipped, found < rule.target)
    assert multichain > 0


@pytest.mark.parametrize("model", [
    default_scenario(0.6, 4.0).model,
    random_model(np.random.default_rng(904), n_states=3, n_contexts=2, n_actions=3,
                 concentration=0.1),
], ids=["bundled", "multichain"])
def test_screen_rounds_continue_where_the_last_one_stopped(model):
    # four rounds, each from the h the last reached, give to the bit what
    # one screen of four times the sweeps gives: no sweep is made twice
    shape = (model.alphabets.n_actions,) * model.alphabets.n_states
    rows = solvers.DecisionRows(model, np.stack(np.unravel_index(np.arange(np.prod(shape)), shape),
                                                axis=1))
    h = np.zeros((len(rows.source), model.n_global_states))
    whole = solvers._screen_bounds(rows.source, rows.rewards, h, -np.inf,
                                   4 * solvers.SCREEN_SWEEPS, *screen_factors(model))
    upper = np.full(len(h), np.inf)
    for _ in range(4):
        found, lower, h = solvers._screen_bounds(rows.source, rows.rewards, h, -np.inf,
                                                 solvers.SCREEN_SWEEPS, *screen_factors(model))
        upper = np.minimum(upper, found)
    assert [a.tobytes() for a in (upper, lower, h)] == [a.tobytes() for a in whole]
    assert np.isfinite(lower).all() and (lower <= upper).all()


@pytest.mark.parametrize("model, count", [
    (default_scenario(0.6, 4.0).model, 11 ** 3),
    (random_model(np.random.default_rng(904), n_states=3, n_contexts=2, n_actions=3,
                  concentration=0.1), 27),
    (generated_scenario(0).model, 216),
], ids=["bundled", "multichain", "generated-0"])
def test_factored_screen_agrees_with_the_dense_oracle(model, count):
    # four rounds from h = 0: the kernel's factors and the dense kernels give
    # bounds within the margin of each other, and each encloses every
    # candidate's gain from every start state
    shape = (model.alphabets.n_actions,) * model.alphabets.n_states
    rows = solvers.DecisionRows(model, np.stack(np.unravel_index(np.arange(count), shape), axis=1))
    _, gains, _, _, _, _ = _policy_iteration_batch(
        rows.kernels, rows.rewards, solvers.DEFAULT_EPSILON, solvers.MAX_PI_ROUNDS, 1)
    factored = dense = np.zeros((count, model.n_global_states))
    scale = 1.0 + np.abs(rows.rewards).max(axis=(1, 2))
    for _ in range(4):
        margin = solvers.PI_NOISE * (scale + np.abs(dense).max(axis=1))
        upper, lower, factored = solvers._screen_bounds(
            rows.source, rows.rewards, factored, -np.inf, solvers.SCREEN_SWEEPS,
            *screen_factors(model))
        *want, dense = dense_screen_bounds(rows.kernels, rows.rewards, dense, -np.inf,
                                           solvers.SCREEN_SWEEPS)
        for found, oracle in zip((upper, lower), want):
            assert (np.abs(found - oracle) <= margin).all()
        assert (lower[:, None] <= gains).all() and (gains <= upper[:, None]).all()


def test_factored_screen_rounds_keep_the_dense_oracles_tables(monkeypatch):
    # the 12 generated cells of the exact-large benchmark under jesp's floor:
    # every round keeps the tables that rounds of the dense screen keep
    epsilon = solvers.DEFAULT_EPSILON
    for gen, p_success in itertools.product(range(6), (0.6, 1.0)):
        model = generated_scenario(gen).with_channel(p_success).with_sampling_cost(0.5).model
        floor = jesp(model, heuristic_initial_decision(model)).average_reward
        _, _, _, screened = _ceiling_run(monkeypatch, model, None, floor)
        shape = (model.alphabets.n_actions,) * model.alphabets.n_states
        left, target = np.arange(np.prod(shape)), floor - epsilon
        h, bounds = np.zeros((left.size, model.n_global_states)), np.full(left.size, np.inf)
        rounds = []
        while left.size and len(rounds) < 4 and (left.size > 1 or not rounds):
            rounds.append(left.tolist())
            rows = solvers.DecisionRows(model, np.stack(np.unravel_index(left, shape), axis=1))
            upper, lower, h = dense_screen_bounds(rows.kernels, rows.rewards, h, target,
                                                  solvers.SCREEN_SWEEPS)
            bounds = np.minimum(bounds, upper)
            target = max(target, lower.max() - epsilon)
            keep = ~(bounds < target)
            left, h, bounds = left[keep], h[keep], bounds[keep]
        assert [indices.tolist() for indices, _ in screened] == rounds, (gen, p_success)


@pytest.mark.parametrize("model", [
    default_scenario(0.6, 4.0).model,
    random_model(np.random.default_rng(7), n_states=4, n_contexts=3, n_actions=6),
], ids=["bundled", "random-48"])
def test_screen_bounds_do_not_depend_on_the_batching(monkeypatch, model):
    floor = jesp(model, heuristic_initial_decision(model)).average_reward
    outcomes = []
    for chunk, workers in itertools.product((1, 7, 128), (1, 3)):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "CORES", workers)
            patch.setattr(solvers, "BRUTE_CHUNK", chunk)
            report = brute_force_joint(model, floor=floor)
        outcomes.append((report.diagnostics["candidate_bounds"].tobytes(),
                         report.diagnostics["candidate_gains"].tobytes(), repr(report)))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert 0 < brute_force_joint(model, floor=floor).diagnostics["candidates_pruned"]


@pytest.mark.parametrize("model", [
    default_scenario(0.6, 4.0).model,
    random_model(np.random.default_rng(7), n_states=4, n_contexts=3, n_actions=6),
], ids=["bundled", "random-48"])
def test_probe_and_solved_candidates_do_not_depend_on_the_batching(monkeypatch, model):
    # the screen rounds probe every candidate; the sampler solves those they
    # keep: each request's indices and results, the bounds and the report
    # agree at every chunk size and number of cores
    floor = jesp(model, heuristic_initial_decision(model)).average_reward
    runs = []
    for chunk, cores in itertools.product((1, 7, 128), (1, 3)):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "CORES", cores)
            patch.setattr(solvers, "BRUTE_CHUNK", chunk)
            report, chunks, _, screened = _ceiling_run(patch, model, None, floor)
        runs.append(([(indices.tobytes(), [field.tobytes() for field in results])
                      for indices, results in screened + chunks],
                     report.diagnostics["candidate_bounds"].tobytes(), repr(report)))
        # the rounds ran: several screen requests, then one sampler request
        assert len(screened) > 1 and len(chunks) == 1
    assert all(run == runs[0] for run in runs)
    assert 0 < report.diagnostics["candidates_pruned"]


def test_brute_force_without_a_ceiling_solves_every_candidate(shipped):
    diagnostics = brute_force_joint(shipped.model).diagnostics
    assert (diagnostics["candidates_evaluated"], diagnostics["candidates_pruned"]) == (11 ** 3, 0)
    assert np.isfinite(diagnostics["candidate_gains"]).all()


def test_pruned_brute_force_failure_names_the_first_failing_policy_it_solves(monkeypatch,
                                                                           shipped):
    # unpruned, (0, 0, 9) is the first to fail; skip it and the nine before it
    # by their ceilings, under a floor below every screen bound, in a search
    # over every candidate that keeps its floor fixed, as a grid slice does
    ceiling = np.zeros(11 ** 3)
    ceiling[:10] = -np.inf
    messages = set()
    for chunk in (1, 7, 128):
        _in_flight(monkeypatch, shipped.model, chunk)
        with pytest.raises(NonConvergenceError) as info:
            _run(solvers.brute_force_search(shipped.model, max_sweeps=2, ceiling=ceiling,
                                            floor=-1e3, members=np.arange(11 ** 3)))
        messages.add(str(info.value))
    # with one candidate a chunk, the first failure met is the first failing
    # policy among those solved; every chunk size names the same one
    assert len(messages) == 1
    assert messages.pop().startswith("decision policy (0, 0, 10) still changing policy after 2 ")


def test_whole_cell_failure_names_the_lowest_failing_policy_the_rounds_keep(monkeypatch,
                                                                           shipped):
    # the ceilings keep three tables, the rounds two of them: (0, 0, 9)
    # fails within two policy-iteration rounds but is skipped; of the two
    # kept, the lower settles and the higher fails
    model = shipped.model
    ceiling = np.full(11 ** 3, -np.inf)
    ceiling[[9, 182, 248]] = 0.0
    rule = whole_cell_skips(model, ceiling, -1e3, solvers.DEFAULT_EPSILON)
    kept = np.flatnonzero(~rule.skipped).tolist()
    assert kept == [182, 248]
    rows = solvers.DecisionRows(model, np.stack(np.unravel_index([9] + kept, (11,) * 3), axis=1))
    failing = []
    for j, k in enumerate([9] + kept):
        try:
            _policy_iteration_batch(rows.kernels[j:j + 1], rows.rewards[j:j + 1],
                                    solvers.DEFAULT_EPSILON, 2, 1)
        except NonConvergenceError:
            failing.append(k)
    assert failing == [9, 248]
    messages = set()
    for chunk in (1, 7, 128):
        _in_flight(monkeypatch, model, chunk)
        with pytest.raises(NonConvergenceError) as info:
            brute_force_joint(model, max_sweeps=2, ceiling=ceiling, floor=-1e3)
        messages.add((str(info.value), info.value.candidate))
    (message, candidate), = messages
    assert candidate == 248 and message.startswith("decision policy (2, 0, 6) ")


def test_brute_force_refuses_a_ceiling_of_the_wrong_shape_or_below_the_floor(shipped):
    with pytest.raises(ParameterError, match="not one value for each of the 1331"):
        brute_force_joint(shipped.model, ceiling=np.zeros(10))
    with pytest.raises(ParameterError, match="none is left to solve"):
        brute_force_joint(shipped.model, ceiling=np.zeros(11 ** 3), floor=1.0)


def _starts_with_name_not_index(exc_info, name):
    message = str(exc_info.value)
    assert message.startswith(name + " still changing policy after 1 policy-iteration")
    assert "candidate" not in message


def test_sampler_best_response_failure_names_the_decision_policy(shipped):
    with pytest.raises(NonConvergenceError) as info:
        solve_sampler_for_decision(shipped.model, DecisionPolicy([0, 3, 7]), max_sweeps=1)
    _starts_with_name_not_index(info, "sampler best response to decision policy (0, 3, 7)")


def test_jesp_restart_outcomes_name_the_failing_best_response(shipped):
    # the heuristic seed is (0, 3, 7); one round cannot settle its best response
    with pytest.raises(NonConvergenceError) as info:
        jesp(shipped.model, heuristic_initial_decision(shipped.model), pi_rounds=1)
    assert str(info.value) == (
        "all 1 equilibrium searches failed: [{'start': [0, 3, 7], 'error': 'sampler best "
        "response to decision policy (0, 3, 7) still changing policy after 1 "
        "policy-iteration rounds'}]")


@pytest.mark.parametrize("module, solve, name", [
    (solvers, heuristic_initial_decision, "perfect-estimate actuation MDP"),
    (benchmarks, benchmarks.mse_optimal_policy, "squared-error sampler MDP"),
], ids=["heuristic", "mse"])
def test_single_mdp_failures_name_the_mdp(monkeypatch, shipped, module, solve, name):
    monkeypatch.setattr(module, "MAX_PI_ROUNDS", 1)
    with pytest.raises(NonConvergenceError) as info:
        solve(shipped.model)
    _starts_with_name_not_index(info, name)


def test_brute_force_certificate_refuses_unreachable_epsilon(shipped):
    # double-precision residuals sit near 1e-13 here: a tolerance below that
    # must raise instead of returning an uncertified optimum
    with pytest.raises(NonConvergenceError, match="residual"):
        brute_force_joint(shipped.model, epsilon=1e-15)


def test_brute_force_scores_from_start_state():
    # a source that never moves splits the world by source state: the optimum
    # depends on where the run starts, and brute force must score from there
    rng = np.random.default_rng(17)
    base = random_model(rng, n_states=2, n_contexts=1, n_actions=2, success_prob=0.7,
                        sampling_cost=0.5)
    model = DecPomdpModel(alphabets=base.alphabets,
                          source=SourceDynamics(np.broadcast_to(
                              np.eye(2)[:, None, None, :], (2, 1, 2, 2)).copy()),
                          context=base.context, channel=base.channel, cost=base.cost)
    values = {}
    for start in (0, 3):
        with pytest.warns(UserWarning, match="not unichain") as warned:
            report = brute_force_joint(model, start_state=start)
        # the warning points at brute_force_joint's caller, here
        assert [w.filename for w in warned] == [__file__]
        best, _ = exhaustive_joint_search(model, start=start)
        assert report.average_reward == pytest.approx(best, abs=1e-6)
        values[start] = best
    assert abs(values[0] - values[3]) > 1e-3
    with pytest.raises(ParameterError):
        brute_force_joint(model, start_state=4)


def test_brute_force_matches_exhaustive_joint_oracle():
    model = tiny_two_state_model()
    report = brute_force_joint(model)
    best, results = exhaustive_joint_search(model, start=0)
    assert len(results) == 64
    assert report.average_reward == pytest.approx(best, abs=1e-6)
    # dominance: the reported optimum is at least as good as every pair
    for _, _, value in results:
        assert report.average_reward >= value - 1e-6


def test_jesp_matches_brute_force_on_tiny_instance():
    model = tiny_two_state_model()
    bf = brute_force_joint(model)
    je = jesp(model, heuristic_initial_decision(model))
    assert je.average_reward == pytest.approx(bf.average_reward, abs=1e-6)


def test_jesp_theta_trace_monotone(shipped):
    report = jesp(shipped.model, heuristic_initial_decision(shipped.model))
    trace = np.array(report.diagnostics["theta_trace"])
    assert np.all(np.diff(trace) >= -1e-9)
    assert report.converged


def test_jesp_nash_property(shipped):
    model = shipped.model
    report = jesp(model, heuristic_initial_decision(model))
    # sampler side: a fresh best response cannot improve the value
    _, gain, _ = solve_sampler_for_decision(model, report.decision_policy)
    assert gain <= report.average_reward + 1e-6
    assert gain >= report.average_reward - 1e-6
    # actuator side: no single-observation deviation improves
    base_actions = report.decision_policy.actions
    for obs in range(3):
        for a in range(11):
            if a == base_actions[obs]:
                continue
            trial = base_actions.copy()
            trial[obs] = a
            P, rbar = policy_chain(model, report.sampling_policy, DecisionPolicy(trial))
            eta = chain_law(P, 0) @ rbar
            assert eta <= report.average_reward + 1e-6


def test_prohibitive_sampling_cost_converges_to_silent_optimum(shipped):
    # once the transmission charge dwarfs every other cost, the solved design
    # stops transmitting and its value no longer depends on the charge
    from goaltensor.scenario import GridConfig, default_scenario
    # policy iteration takes about four rounds per candidate here, far below
    # the round cap of 1500
    model = default_scenario(sampling_cost=1e5).model
    costly = brute_force_joint(model, max_sweeps=1500)
    costlier = brute_force_joint(default_scenario(sampling_cost=1e6).model,
                                 max_sweeps=1500)
    assert costly.average_cost == pytest.approx(costlier.average_cost, abs=1e-6)
    P, _ = policy_chain(model, costly.sampling_policy, costly.decision_policy)
    rate = float(cesaro_limit(P)[0] @ flatten_sampling(costly.sampling_policy))
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_jesp_restarts_recorded(shipped):
    report = jesp(shipped.model, heuristic_initial_decision(shipped.model), restarts=2, seed=11)
    outcomes = report.diagnostics["restart_outcomes"]
    assert len(outcomes) == 3
    assert all("average_reward" in o or "error" in o for o in outcomes)


# --- reuse of results already computed: against the every-round oracles -------


def _grid_cells(scenario):
    return [scenario.with_channel(p_success).with_sampling_cost(sampling_cost)
            for p_success in scenario.grid.success_probs
            for sampling_cost in scenario.grid.sampling_costs]


def _outcome(solve):
    try:
        return solve()
    except NonConvergenceError as exc:
        return str(exc)


def _assert_same_report(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for name in ("average_reward", "iterations", "residual", "converged"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.diagnostics == want.diagnostics          # theta_trace and restart_outcomes
    np.testing.assert_array_equal(got.sampling_policy.decisions, want.sampling_policy.decisions)
    np.testing.assert_array_equal(got.decision_policy.actions, want.decision_policy.actions)


def _jesp_against_oracle(model, initial, solve=None, **settings):
    """``solve()``'s report or error message, by default ``jesp``'s on ``model``
    from ``initial`` with ``settings``, asserted equal to the every-round
    oracle's (``jesp_sequential`` with ``jesp_once_every_round``)."""
    got = _outcome(solve or (lambda: jesp(model, initial, **settings)))
    want = _outcome(lambda: jesp_sequential(model, initial, once=jesp_once_every_round,
                                            **settings))
    _assert_same_report(got, want)
    return got


def test_jesp_matches_every_round_oracle_on_the_bundled_grid(shipped):
    from goaltensor.harness import solve_cell
    replayed = []
    for cell in _grid_cells(shipped):
        initial = heuristic_initial_decision(cell.model)
        report = _jesp_against_oracle(cell.model, initial, lambda: solve_cell(cell, "jesp"),
                                      start_state=cell.start_state)
        trace = report.diagnostics["theta_trace"]
        if report.iterations == 2 and trace[0] == trace[1]:
            replayed.append(cell)            # round 1 returned the policy it started from
        for max_rounds in (1, 2):
            capped = _jesp_against_oracle(cell.model, initial, max_rounds=max_rounds,
                                          start_state=cell.start_state)
            assert capped.iterations <= max_rounds
    assert replayed
    # the replay found on the last allowed round is not counted
    for cell in replayed:
        capped = jesp(cell.model, heuristic_initial_decision(cell.model), max_rounds=1,
                      start_state=cell.start_state)
        assert (capped.iterations, capped.converged) == (1, False)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("max_rounds", [1, 2, solvers.MAX_JESP_ROUNDS])
def test_jesp_matches_every_round_oracle_on_random_models(seed, max_rounds):
    rng = np.random.default_rng(100 + seed)
    model = random_model(rng, n_states=int(rng.integers(2, 4)),
                         n_contexts=int(rng.integers(1, 3)), n_actions=int(rng.integers(2, 5)))
    _jesp_against_oracle(model, heuristic_initial_decision(model), restarts=2, seed=seed,
                         max_rounds=max_rounds, start_state=1)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("schedule", ["harmonic", 1.0, 0.5])
def test_pi_step_size_matches_every_table_oracle(seed, schedule):
    rng = np.random.default_rng(200 + seed)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=int(rng.integers(2, 5)))
    shape = (model.alphabets.n_states,) * 2 + (model.alphabets.n_contexts,)
    sampling = SamplingPolicy(rng.integers(0, 2, size=shape))
    initial = DecisionPolicy(rng.integers(0, model.alphabets.n_actions, size=3))
    got = pi_step_size(model, sampling, initial, step_schedule=schedule, start_state=2)
    want = pi_step_size_every_table(model, sampling, initial, step_schedule=schedule,
                                    start_state=2)
    np.testing.assert_array_equal(got.decision_policy.actions, want.decision_policy.actions)
    assert (got.average_reward, got.iterations, got.eta_trace, got.converged) == (
        want.average_reward, want.iterations, want.eta_trace, want.converged)


def test_compare_grid_runs_no_round_twice_and_scores_the_start_table_once(monkeypatch,
                                                                          shipped):
    from goaltensor.harness import compare_policies
    responses, starts, scored, rounds = {}, [], {}, []
    once = solvers._jesp_once
    respond = solvers._best_response
    step = solvers._soft_pi
    evaluate = _FixedSamplingProblem.evaluation

    # the searches run in lockstep: each spy files what it sees under the
    # cell's model or the soft-PI call's problem
    def search(model, *args):
        responses[model] = []
        report = yield from once(model, *args)
        rounds.append(report.iterations)
        return report

    def response(model, decision, *args):
        responses[model].append(decision.actions.tobytes())
        return respond(model, decision, *args)

    def scoring(problem, table, *args):
        scored.setdefault(problem, []).append(table.tobytes())
        return evaluate(problem, table, *args)

    def soft_pi(model, sampling, initial, *args):
        # a soft-PI call builds its problem and scores its first table as it
        # starts, before any other search moves: calls and problems pair up in order
        starts.append(_one_hot(initial.actions, model.alphabets.n_actions).tobytes())
        return step(model, sampling, initial, *args)

    monkeypatch.setattr(solvers, "_jesp_once", search)
    monkeypatch.setattr(solvers, "_best_response", response)
    monkeypatch.setattr(solvers, "_soft_pi", soft_pi)
    monkeypatch.setattr(_FixedSamplingProblem, "evaluation", scoring)
    compare_policies(shipped, "jesp", include_classic=True)
    assert len(responses) == 30
    assert all(len(set(tables)) == len(tables) for tables in responses.values())
    assert all(tables[0] == start for start, tables in zip(starts, scored.values()))
    start_scores = [tables.count(start) for start, tables in zip(starts, scored.values())]
    assert start_scores and set(start_scores) == {1}
    # the rounds counted outnumber the rounds run: some were replayed
    assert sum(rounds) > sum(map(len, responses.values())) == len(start_scores) == len(scored)


# --- the grid's searches in lockstep: against the sequential oracle -----------


def _described(outcome):
    """A report's repr with its diagnostics' (``theta_trace``, ``restart_outcomes``),
    or an error's message."""
    if isinstance(outcome, (str, Exception)):
        return str(outcome)
    return repr(outcome) + repr(outcome.diagnostics)


def _lockstep_against_sequential(cells, in_flight=None, **settings):
    """Every cell ``(model, initial decision, start state)`` searched in one
    ``lockstep`` pass, ``in_flight`` at once, each outcome asserted equal to
    ``jesp_sequential``'s on that cell alone; returns the outcomes."""
    got = [value for _, value in solvers.lockstep([
        solvers.jesp_search(model, initial, start_state=start, **settings)
        for model, initial, start in cells], in_flight)]
    for (model, initial, start), outcome in zip(cells, got):
        want = _outcome(lambda: jesp_sequential(model, initial, start_state=start, **settings))
        assert _described(outcome) == _described(want)
    return got


def _bundled_cells(shipped, grid=None):
    initial = heuristic_initial_decision(shipped.model)
    return [(cell.model, initial, cell.start_state)
            for cell in _grid_cells(replace(shipped, grid=grid) if grid else shipped)]


def _random_cells(seed):
    """Cells of a random model at pS = 0 (the estimate never refreshes: every
    chain is multichain), 0.5 and 1, and CS = 0, 1 and 1 again."""
    rng = np.random.default_rng(300 + seed)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=int(rng.integers(2, 5)))
    base = replace(default_scenario(), model=model, state_values=np.arange(3.0),
                   grid=GridConfig(success_probs=(0.0, 0.5, 1.0), sampling_costs=(0.0, 1.0, 1.0)))
    initial = heuristic_initial_decision(model)
    return [(cell.model, initial, int(rng.integers(model.n_global_states)))
            for cell in _grid_cells(base)]


@pytest.mark.parametrize("restarts", [0, 2])
def test_lockstep_equals_sequential_jesp_on_the_bundled_grid(shipped, restarts):
    reports = _lockstep_against_sequential(_bundled_cells(shipped), restarts=restarts, seed=5)
    assert len(reports) == 30 and not any(isinstance(r, Exception) for r in reports)


@pytest.mark.parametrize("restarts, in_flight", [(0, None), (2, None), (2, 5)])
def test_lockstep_equals_sequential_jesp_on_random_grids(monkeypatch, restarts, in_flight):
    multichain, real = [], solvers._chain_laws

    def spy(P, starts, single):
        multichain.append(int((~single).sum()))
        return real(P, starts, single)

    monkeypatch.setattr(solvers, "_chain_laws", spy)
    _lockstep_against_sequential([cell for seed in range(4) for cell in _random_cells(seed)],
                                 in_flight, restarts=restarts, seed=9)
    assert sum(multichain) > 0          # soft policy iteration met multichain chains


@pytest.mark.parametrize("step", ["sampler", "chain"])
def test_a_failing_cell_leaves_every_other_cell_unchanged(monkeypatch, shipped, step):
    # one cell's inherent costs are raised by 200: every reward its searches
    # hand the solvers is below -100, which marks its members in any batch.
    # The sampler step's error names its member; the chain step's names none.
    marked = lambda rewards: rewards.max(axis=tuple(range(1, rewards.ndim))) < -100  # noqa: E731
    real_pi, real_eval = solvers._policy_iteration_batch, solvers._evaluate_batch

    def failing_pi(T, R, *args, **kwargs):
        j = np.flatnonzero(marked(R))
        if j.size:
            raise NonConvergenceError(f"candidate {j[0]} forced failure", candidate=int(j[0]))
        return real_pi(T, R, *args, **kwargs)

    def failing_eval(P, r):
        if marked(r).any():
            raise ErgodicityError("forced failure")
        return real_eval(P, r)

    cells = _bundled_cells(shipped, GridConfig(success_probs=(0.4, 0.8),
                                               sampling_costs=(2.0, 4.0)))
    model, initial, start = cells[1]
    costly = replace(model, cost=replace(model.cost, inherent=model.cost.inherent + 200.0))
    cells.insert(2, (costly, initial, start))
    clean = solvers.lockstep([solvers.jesp_search(m, i, start_state=s) for m, i, s in cells])
    assert all(ok for ok, _ in clean)
    if step == "sampler":
        monkeypatch.setattr(solvers, "_policy_iteration_batch", failing_pi)
    else:
        monkeypatch.setattr(solvers, "_evaluate_batch", failing_eval)
    reports = _lockstep_against_sequential(cells)
    for (cell_model, _, _), report, (_, clean_report) in zip(cells, reports, clean):
        if cell_model is costly:
            assert isinstance(report, NonConvergenceError)
            assert "forced failure" in str(report)
        else:
            assert _described(report) == _described(clean_report)


def test_lockstep_batches_stay_within_the_byte_limit(monkeypatch):
    # N = 48: every local-search pass stacks 20 deviation chains per cell
    rng = np.random.default_rng(41)
    model = random_model(rng, n_states=4, n_contexts=3, n_actions=6)
    base = replace(default_scenario(), model=model, state_values=np.arange(4.0),
                   grid=GridConfig(success_probs=(0.3, 0.6, 1.0), sampling_costs=(0.5, 2.0)))
    initial = heuristic_initial_decision(model)
    cells = [(cell.model, initial, 0) for cell in _grid_cells(base)]
    for cell_model, _, _ in cells:
        cell_model.kernels                      # built before the measured runs

    def peak_of_run(in_flight=None):
        tracemalloc.start()
        try:
            outcomes = solvers.lockstep([solvers.jesp_search(m, i, start_state=s)
                                         for m, i, s in cells], in_flight)
            return tracemalloc.get_traced_memory()[1], [_described(v) for _, v in outcomes]
        finally:
            tracemalloc.stop()

    unbounded_peak, unbounded = peak_of_run()
    limit = 2 ** 20
    monkeypatch.setattr(model_module, "MAX_KERNEL_BYTES", limit)
    in_flight = solvers.jesp_in_flight(model)
    assert 1 < in_flight < len(cells)
    peak, outcomes = peak_of_run(in_flight)
    assert outcomes == unbounded
    # the cells' kernels, built before, are not traced: the searches in
    # flight and each step's sub-batches keep within the limit
    assert peak <= limit
    # with every search under way at once, what they hold passes it
    all_peak, outcomes = peak_of_run()
    assert outcomes == unbounded
    assert all_peak > limit and unbounded_peak > 4 * limit


def test_balance_batch_matches_one_solve_per_chain():
    rng = np.random.default_rng(3)
    for n, k in [(1, 1), (2, 5), (18, 20), (48, 3)]:
        P = rng.random((k, n, n)) * (rng.random((k, n, n)) < 0.3)
        P[:, np.arange(n), (np.arange(n) + 1) % n] += 0.1           # one closed class
        P /= P.sum(axis=2, keepdims=True)
        laws = _balance_batch(P)
        for member, law in zip(P, laws):
            np.testing.assert_array_equal(law, balance_alone(member))
            np.testing.assert_array_equal(_balance(member), law)
    # rows summing to 1 with a negative entry: the first such member is named
    good = np.full((2, 2), 0.5)
    bad = [np.array([[0.5, 0.5], [-0.4, 1.4]]), np.array([[0.5, 0.5], [-0.2, 1.2]])]
    with pytest.raises(ErgodicityError, match=r"has negative mass -4\.000e\+00$"):
        _balance_batch(np.stack([good, *bad]))
    with pytest.raises(ErgodicityError, match=r"has negative mass -6\.667e-01$"):
        _balance(bad[1])


def test_heuristic_initial_decision_is_total(shipped):
    policy = heuristic_initial_decision(shipped.model)
    assert policy.actions.shape == (3,)
    assert np.all((0 <= policy.actions) & (policy.actions < 11))


# --- sampler best responses against the RVI oracle ----------------------------


@pytest.mark.parametrize("seed", [None, *range(8)])
def test_heuristic_initial_decision_matches_rvi_oracle(shipped, seed):
    if seed is None:
        model = shipped.model
    else:
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_states=int(rng.integers(2, 4)),
                             n_contexts=int(rng.integers(1, 3)),
                             n_actions=int(rng.integers(2, 6)))
    assert (heuristic_initial_decision(model).actions.tolist()
            == heuristic_decision_by_rvi(model).tolist())


@pytest.mark.parametrize("seed", range(10))
def test_solve_sampler_for_decision_matches_rvi_oracle(shipped, seed):
    # gains agree within epsilon everywhere; on the bundled scenario the
    # policies agree too, also at zero sampling cost, where sampling ties with
    # idling wherever the estimate already equals the state and both solvers
    # stay idle (on random models RVI's sweep noise can break such ties either way)
    rng = np.random.default_rng(seed)
    bundled = seed < 3
    if bundled:
        model = shipped.with_sampling_cost(2.0 * seed).model
        decision = DecisionPolicy(rng.integers(0, 11, size=3))
    else:
        model = random_model(rng, n_states=int(rng.integers(2, 4)),
                             n_contexts=int(rng.integers(1, 3)), n_actions=3,
                             sampling_cost=0.0 if seed % 2 else None)
        decision = DecisionPolicy(rng.integers(0, 3, size=model.alphabets.n_states))
    epsilon = 1e-6
    sampling, gain, bias = solve_sampler_for_decision(model, decision, epsilon=epsilon)
    mdp = induced_mdp(model, decision)
    sol = rvi_solve(mdp, epsilon=epsilon)
    assert gain == pytest.approx(sol.gain, abs=epsilon)
    assert bias.shape == (model.n_global_states,)
    policy = flatten_sampling(sampling)
    assert policy_gain(mdp, policy) == pytest.approx(gain, abs=1e-9)
    if bundled:
        assert policy.tolist() == sol.policy.tolist()
