import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goaltensor.errors import (EnumerationBudgetError, ErgodicityError, MemoryBudgetError,
                               NonConvergenceError, ParameterError,
                               UnreachableObservationError)
from goaltensor import benchmarks
from goaltensor import model as model_module
from goaltensor.model import (ChannelModel, ContextDynamics, DecPomdpModel,
                              SourceDynamics, TabularMdp, induced_mdp)
from goaltensor import solvers
from goaltensor.scenario import default_scenario
from goaltensor.solvers import (_ChainEval, _closed_classes_batch, _evaluate_batch,
                                _unichain_batch, brute_force_joint,
                                cesaro_limit, chain_law,
                                closed_classes, flatten_sampling,
                                greedy_decision_policy, heuristic_initial_decision,
                                jesp, pi_step_size, policy_chain,
                                q_tables, _FixedSamplingProblem,
                                _local_search, _one_hot,
                                _policy_iteration_batch, sampling_from_flat,
                                solve_sampler_for_decision, stationary_distribution)
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy

from oracles import (_general_analysis, _rvi_batch, analyze_chain, average_reward,
                     closed_classes_by_components, closed_classes_by_squaring,
                     evaluate_by_closure, exhaustive_joint_search,
                     gain_from, heuristic_decision_by_rvi, joint_chain_by_hand,
                     limit_matrix, local_search_one_by_one, policy_gain,
                     policy_iteration_copying, random_model, relative_reward, rvi_solve,
                     tiny_two_state_model)


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
    eta = problem.eta_of(_one_hot([0, 0], 1))
    actions, value = _local_search(problem, [0, 0], eta, 0)
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
    # every state leads to state 0, so one closed class: the stationary law,
    # whatever the start
    U = rng.gamma(1.0, size=(6, 6)) * (rng.random((6, 6)) < 0.5) + 0.01 * np.eye(6)[0]
    U = U / U.sum(axis=1, keepdims=True)
    for start in range(6):
        np.testing.assert_array_equal(chain_law(U, start), stationary_distribution(U))


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


def test_q_tables_posterior_restricts_to_observation(shipped):
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    analysis = analyze_chain(P, rbar)
    tables = q_tables(model, sampling, decision)
    _, xhats, _ = model.state_components()
    for obs in range(3):
        assert tables.reachable[obs]
        row = tables.posterior[obs]
        assert row[xhats != obs].sum() == 0.0
        assert row.sum() == pytest.approx(1.0, abs=1e-10)
        expected = np.where(xhats == obs, analysis.distribution, 0.0)
        np.testing.assert_allclose(row, expected / expected.sum(), atol=1e-12)
    # q_obs is the posterior-weighted q_global
    np.testing.assert_allclose(tables.q_obs,
                               np.nan_to_num(tables.posterior) @ tables.q_global,
                               atol=1e-12)


def test_q_tables_unreachable_observation_raises(shipped):
    model = shipped.model
    # transmit only when the source sits at 0: estimates 1 and 2 die out
    decisions = np.zeros((3, 3, 2), dtype=int)
    decisions[0, :, :] = 1
    sampling = SamplingPolicy(decisions)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    assert len(closed_classes(P)) == 1
    with pytest.raises(UnreachableObservationError):
        q_tables(model, sampling, decision)
    tables = q_tables(model, sampling, decision, on_unreachable="keep")
    assert tables.reachable.tolist() == [True, False, False]
    assert np.isnan(tables.q_obs[1]).all()


def test_q_tables_match_monte_carlo_differential_return(shipped):
    # long-run differential return started from (observation, action) pairs
    model = shipped.model
    sampling = SamplingPolicy.on_mismatch(model.alphabets)
    decision = DecisionPolicy([0, 3, 7])
    P, rbar = policy_chain(model, sampling, decision)
    analysis = analyze_chain(P, rbar)
    tables = q_tables(model, sampling, decision)
    from goaltensor.model import induced_pomdp
    pomdp = induced_pomdp(model, sampling)
    horizon = 4000
    for obs, action in [(0, 3), (1, 0), (2, 7)]:
        # exact expectation: one forced first step, then the policy chain
        start = tables.posterior[obs]
        first = float(start @ pomdp.rewards[:, action])
        dist = start @ pomdp.transitions[action]
        total = first - analysis.average_reward
        for _ in range(horizon):
            total += float(dist @ rbar) - analysis.average_reward
            dist = dist @ P
        assert total == pytest.approx(tables.q_obs[obs, action], abs=1e-4)


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
            got = problem.evaluate(table, start)
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
        problem.evaluate(table, 0)


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
    model = shipped.model
    high = greedy_decision_policy(model, context_weights=[0.5, 0.5], tie_break="high")
    low = greedy_decision_policy(model, context_weights=[0.5, 0.5], tie_break="low")
    assert high.actions[2] == 7 and low.actions[2] == 6
    assert high.actions[0] == low.actions[0] == 0


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
    eta = problem.eta_of(_one_hot(initial, 3), start)
    actions, value = _local_search(problem, initial, eta, start)
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
    eta = problem.eta_of(_one_hot([0, 1], 2), start)
    actions, value = _local_search(problem, [0, 1], eta, start)
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


@pytest.mark.parametrize("model, multichain", [
    (default_scenario(0.2, 10.0).model, True),
    (default_scenario(1.0, 0.0).model, False),
    (random_model(np.random.default_rng(7), n_states=3, n_contexts=2, n_actions=3), True),
], ids=["bundled-0.2-10", "bundled-1.0-0", "random"])
def test_brute_force_is_chunk_invariant(monkeypatch, model, multichain):
    n_candidates = model.alphabets.n_actions ** model.alphabets.n_states
    outcomes = []
    for chunk in (1, 7, 128, n_candidates):
        monkeypatch.setattr(solvers, "BRUTE_CHUNK", chunk)
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
    # or count, so the message does not depend on BRUTE_CHUNK
    messages = set()
    for chunk in (1, 7, 128, 11 ** 3):
        monkeypatch.setattr(solvers, "BRUTE_CHUNK", chunk)
        with pytest.raises(NonConvergenceError) as info:
            brute_force_joint(shipped.model, **limits)
        messages.add(str(info.value))
    assert len(messages) == 1
    assert messages.pop().startswith(failure)


def test_brute_force_sizes_chunks_by_the_byte_limit(monkeypatch):
    model = default_scenario(0.2, 10.0).model     # multichain candidates, N = 18
    want = _brute_outcome(model)                  # also builds the model's kernels
    pair = 2 * model.n_global_states ** 2 * 8     # one candidate's kernels, in bytes
    batches = []
    def spy(T, *args, **kwargs):
        batches.append(len(T))
        return _policy_iteration_batch(T, *args, **kwargs)
    monkeypatch.setattr(solvers, "_policy_iteration_batch", spy)
    # room for 7 candidates' kernels, far below BRUTE_CHUNK's 128
    monkeypatch.setattr(model_module, "MAX_KERNEL_BYTES", 8 * pair - 1)
    assert _brute_outcome(model) == want
    assert max(batches) == 7 and sum(batches) == 11 ** 3


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
        jesp(shipped.model, pi_rounds=1)
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
        with pytest.warns(UserWarning, match="not unichain"):
            report = brute_force_joint(model, start_state=start)
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
    je = jesp(model)
    assert je.average_reward == pytest.approx(bf.average_reward, abs=1e-6)


def test_jesp_theta_trace_monotone(shipped):
    report = jesp(shipped.model)
    trace = np.array(report.diagnostics["theta_trace"])
    assert np.all(np.diff(trace) >= -1e-9)
    assert report.converged


def test_jesp_nash_property(shipped):
    model = shipped.model
    report = jesp(model)
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
    from goaltensor.scenario import default_scenario
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
    report = jesp(shipped.model, restarts=2, seed=11)
    outcomes = report.diagnostics["restart_outcomes"]
    assert len(outcomes) == 3
    assert all("average_reward" in o or "error" in o for o in outcomes)


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
