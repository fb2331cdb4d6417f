import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goaltensor import model as model_module
from goaltensor.errors import MemoryBudgetError, ModelIncompleteError
from goaltensor.model import (MAX_KERNEL_BYTES, ChannelModel, ContextDynamics, DecisionRows,
                              DecPomdpModel, SourceDynamics, TabularMdp, check_kernel_bytes,
                              dense_kernels, heuristic_mdp, induced_mdp, induced_pomdp,
                              success_kernels)
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy

from oracles import global_states, kernel_by_hand, random_model, tensor_entry_by_hand


def identity_model(sampling_cost=0.0, success_prob=0.5, n_states=2):
    # frozen world: source and context never move
    n, v, a = n_states, 2, 2
    src = np.zeros((n, v, a, n))
    src[np.arange(n), :, :, np.arange(n)] = 1.0
    return DecPomdpModel(
        alphabets=Alphabets(n, v, a),
        source=SourceDynamics(src),
        context=ContextDynamics(np.eye(v)),
        channel=ChannelModel(success_prob),
        cost=CostModel(inherent=np.ones((v, n)), gain=[0.0, 1.0],
                       expenditure=[0.0, 1.0], sampling_cost=sampling_cost),
    )


def test_estimate_kernel_cases():
    # in a frozen world a kernel row is the next estimate's law
    def estimate_law(success_prob, x, xhat, sample):
        model = identity_model(success_prob=success_prob, n_states=3)
        row = model.kernels[sample, 0, model.state_index(x, xhat, 1)]
        return row[[model.state_index(x, e, 1) for e in range(3)]]

    np.testing.assert_array_equal(estimate_law(0.7, 2, 1, 0), [0, 1, 0])
    np.testing.assert_array_equal(estimate_law(1.0, 2, 0, 1), [0, 0, 1])
    np.testing.assert_allclose(estimate_law(0.7, 2, 0, 1), [0.3, 0.0, 0.7])
    assert estimate_law(0.7, 1, 1, 1).sum() == 1.0


def test_state_indexing_round_trip(shipped):
    model = shipped.model
    xs, xhats, phis = model.state_components()
    seen = set()
    for x in range(3):
        for xhat in range(3):
            for phi in range(2):
                idx = model.state_index(x, xhat, phi)
                assert (xs[idx], xhats[idx], phis[idx]) == (x, xhat, phi)
                seen.add(idx)
    assert seen == set(range(18))
    # documented order: x fastest, then xhat, then phi
    assert model.state_index(1, 0, 0) == 1
    assert model.state_index(0, 1, 0) == 3
    assert model.state_index(0, 0, 1) == 9


def test_transition_rows_are_stochastic(shipped):
    dense = dense_kernels(shipped.model)
    np.testing.assert_allclose(dense.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(success_kernels(shipped.model).sum(axis=-1), 1.0,
                               atol=1e-12)


def test_idle_keeps_estimate_marginal(shipped):
    model = shipped.model
    _, xhats, _ = model.state_components()
    for i, w in enumerate(global_states(model)):
        row = model.kernels[0, 4, i]
        for est in range(3):
            mass = row[xhats == est].sum()
            assert mass == pytest.approx(1.0 if est == w.xhat else 0.0, abs=1e-15)


def test_frozen_world_is_a_fixed_point():
    model = identity_model()
    index = model.state_index(1, 0, 1)
    expected = np.zeros(model.n_global_states)
    expected[index] = 1.0
    np.testing.assert_array_equal(model.kernels[0, 1, index], expected)


def test_kernel_matches_channel_enumeration_oracle(shipped):
    model = shipped.model
    for i, w in enumerate(global_states(model)):
        for a_s in (0, 1):
            for a_a in range(model.alphabets.n_actions):
                np.testing.assert_allclose(model.kernels[a_s, a_a, i],
                                           kernel_by_hand(model, w, a_s, a_a), atol=1e-12)


@given(st.integers(0, 10**9))
@settings(max_examples=50, deadline=None)
def test_kernel_oracle_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=int(rng.integers(2, 4)),
                         n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(1, 4)))
    dense = dense_kernels(model)
    np.testing.assert_allclose(dense.sum(axis=-1), 1.0, atol=1e-12)
    for w in global_states(model):
        for a_s in (0, 1):
            for a_a in range(model.alphabets.n_actions):
                np.testing.assert_allclose(dense[a_s, a_a, model.state_index(*w)],
                                           kernel_by_hand(model, w, a_s, a_a),
                                           atol=1e-12)


def test_copies_build_their_own_kernels():
    from goaltensor.scenario import default_scenario
    base = default_scenario()
    cached = base.model.kernels             # fill the 0.8 model's cache first
    moved = base.with_channel(0.3).model
    np.testing.assert_array_equal(moved.kernels,
                                  dense_kernels(default_scenario(success_prob=0.3).model))
    assert not np.array_equal(moved.kernels, cached)
    assert base.model.kernels is cached and moved.kernels is moved.kernels
    with pytest.raises(ValueError):
        cached[0, 0, 0, 0] = 1.0            # shared, so read-only
    decision = np.zeros(3, dtype=int)
    costly = DecisionRows(base.with_sampling_cost(5.0).model, decision)
    np.testing.assert_array_equal(costly.rewards[:, 1], -(costly.got + 5.0))


def test_models_compare_and_hash_by_identity():
    from goaltensor.scenario import default_scenario
    one, other = default_scenario().model, default_scenario().model
    assert one == one and one != other          # equal tables, distinct models
    assert isinstance(hash(one), int) and len({one, other, one}) == 2
    cache = {one: "one", other: "other"}
    assert cache[one] == "one" and cache[other] == "other"


@pytest.mark.parametrize("seed", range(6))
def test_decision_rows_match_oracles_on_random_models(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=int(rng.integers(2, 4)),
                         n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(1, 4)))
    cost = replace(model.cost, gain_weight=float(rng.uniform(0, 2)),
                   expenditure_weight=float(rng.uniform(0, 2)))
    model = replace(model, cost=cost)
    delivered = replace(model, channel=ChannelModel(1.0))
    ramp_only = replace(cost, expenditure_weight=0.0)
    n, a, N = model.alphabets.n_states, model.alphabets.n_actions, model.n_global_states
    tables = rng.integers(0, a, size=(2, 3, n))
    batched = DecisionRows(model, tables)
    assert batched.kernels.shape == (2, 3, 2, N, N)
    assert batched.success.shape == (2, 3, N, N)
    for index in np.ndindex(tables.shape[:-1]):
        policy = DecisionPolicy(tables[index])
        single = DecisionRows(model, policy.actions)
        for name in ("actions", "ramp", "spend", "got", "rewards", "kernels", "success",
                     "source"):
            np.testing.assert_array_equal(getattr(batched, name)[index],
                                          getattr(single, name), err_msg=name)
        for w in global_states(model):
            s = model.state_index(*w)
            act = policy(w.xhat)
            assert single.actions[s] == act
            assert single.ramp[s] == tensor_entry_by_hand(ramp_only, policy, w.x, w.phi,
                                                          w.xhat)
            assert single.got[s] == tensor_entry_by_hand(cost, policy, w.x, w.phi, w.xhat)
            assert single.rewards[s, 1] == -(single.got[s] + cost.sampling_cost)
            np.testing.assert_array_equal(single.source[s], model.source.probs[w.x, w.phi, act])
            for a_s in (0, 1):
                np.testing.assert_allclose(single.kernels[a_s, s],
                                           kernel_by_hand(model, w, a_s, act), atol=1e-12)
            np.testing.assert_allclose(single.success[s],
                                       kernel_by_hand(delivered, w, 1, act), atol=1e-12)


def test_source_context_marginal_ignores_sampling(shipped):
    # sampling only moves the estimate coordinate
    model = shipped.model
    xs, _, phis = model.state_components()
    for s in range(0, model.n_global_states, 5):
        idle, tx = model.kernels[:, 3, s]
        for u in range(3):
            for r in range(2):
                mask = (xs == u) & (phis == r)
                assert idle[mask].sum() == pytest.approx(tx[mask].sum(), abs=1e-12)


def test_reward_examples(worked_cost, worked_policy):
    model = DecPomdpModel(
        alphabets=Alphabets(3, 2, 3),
        source=SourceDynamics(np.full((3, 2, 3, 3), 1 / 3)),
        context=ContextDynamics(np.full((2, 2), 0.5)),
        channel=ChannelModel(0.5),
        cost=worked_cost,
    )
    rewards = DecisionRows(model, worked_policy.actions).rewards
    assert rewards[model.state_index(2, 2, 0), 1] == -3.0
    assert rewards[model.state_index(0, 0, 0), 0] == 0.0
    assert rewards[model.state_index(2, 0, 1), 0] == -5.0


def test_induced_mdp_collapses_observation_sum(shipped):
    model = shipped.model
    policy = DecisionPolicy([0, 3, 7])
    mdp = induced_mdp(model, policy)
    assert mdp.transitions.shape == (2, 18, 18)
    for i, w in enumerate(global_states(model)):
        for a_s in (0, 1):
            np.testing.assert_array_equal(mdp.transitions[a_s, i],
                                          model.kernels[a_s, policy(w.xhat), i])
            expected = -(tensor_entry_by_hand(model.cost, policy, w.x, w.phi, w.xhat)
                         + model.cost.sampling_cost * a_s)
            assert mdp.rewards[i, a_s] == pytest.approx(expected, abs=1e-12)


def test_induced_mdp_identity_dynamics_idle_is_identity():
    model = identity_model()
    mdp = induced_mdp(model, DecisionPolicy([0, 0]))
    np.testing.assert_array_equal(mdp.transitions[0], np.eye(model.n_global_states))


@given(st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_induced_mdp_matches_observation_average_oracle(seed):
    # the actuator observation is a point mass, so the observation-weighted
    # mixture over actions reduces to the single decision the policy assigns
    rng = np.random.default_rng(seed)
    model = random_model(rng, n_states=2, n_contexts=1, n_actions=3)
    policy = DecisionPolicy(rng.integers(0, 3, size=2))
    mdp = induced_mdp(model, policy)
    for i, w in enumerate(global_states(model)):
        for a_s in (0, 1):
            mix = np.zeros(model.n_global_states)
            for obs in range(2):                 # explicit sum over observations
                p_obs = 1.0 if obs == w.xhat else 0.0
                if p_obs:
                    mix += p_obs * kernel_by_hand(model, w, a_s, policy(obs))
            np.testing.assert_allclose(mdp.transitions[a_s, i], mix, atol=1e-12)


def test_induced_pomdp_substitutes_sampling_policy(shipped):
    model = shipped.model
    never = SamplingPolicy.never(model.alphabets)
    pomdp = induced_pomdp(model, never)
    np.testing.assert_array_equal(pomdp.transitions, dense_kernels(model)[0])
    # mixed policy: per-state substitution oracle
    rng = np.random.default_rng(3)
    mixed = SamplingPolicy(rng.integers(0, 2, size=(3, 3, 2)))
    pomdp = induced_pomdp(model, mixed)
    for i, w in enumerate(global_states(model)):
        bit = mixed(w.x, w.xhat, w.phi)
        for a_a in range(model.alphabets.n_actions):
            np.testing.assert_allclose(pomdp.transitions[a_a, i],
                                       kernel_by_hand(model, w, bit, a_a), atol=1e-12)
            cost = model.action_cost[w.x, w.phi, a_a] + model.cost.sampling_cost * bit
            assert pomdp.rewards[i, a_a] == pytest.approx(-cost, abs=1e-12)


def test_induced_pomdp_perfect_channel_always_sample(shipped):
    model = shipped.model.__class__(
        alphabets=shipped.model.alphabets, source=shipped.model.source,
        context=shipped.model.context, channel=ChannelModel(1.0),
        cost=shipped.model.cost)
    pomdp = induced_pomdp(model, SamplingPolicy.always(model.alphabets))
    xs, xhats, _ = model.state_components()
    for i in range(model.n_global_states):
        for a_a in range(model.alphabets.n_actions):
            row = pomdp.transitions[a_a, i]
            assert row[xhats == xs[i]].sum() == pytest.approx(1.0, abs=1e-12)


def test_heuristic_mdp_shape_and_outer_product(shipped):
    model = shipped.model
    mdp = heuristic_mdp(model)
    assert mdp.n_states == 6                      # states x contexts
    for x in range(3):
        for phi in range(2):
            j = x + 3 * phi
            for a in range(model.alphabets.n_actions):
                expected = np.einsum("u,r->ru", model.source.probs[x, phi, a],
                                     model.context.probs[phi]).reshape(-1)
                np.testing.assert_allclose(mdp.transitions[a, j], expected, atol=1e-12)
                assert mdp.rewards[j, a] == pytest.approx(
                    -model.action_cost[x, phi, a], abs=0)


def test_heuristic_mdp_identity_context_freezes_context():
    model = identity_model()
    mdp = heuristic_mdp(model)
    n = 2
    for x in range(n):
        for phi in range(n):
            j = x + n * phi
            for a in range(2):
                row = mdp.transitions[a, j].reshape(n, n)   # (phi', x')
                assert row[1 - phi].sum() == 0.0


def test_row_sum_validation_rejects_bad_rows():
    src = np.full((2, 1, 1, 2), 0.5)
    src[0, 0, 0] = [0.5, 0.4999999]               # off by 1e-7 > tolerance
    with pytest.raises(ModelIncompleteError):
        SourceDynamics(src)
    with pytest.raises(ModelIncompleteError):
        ContextDynamics([[0.5, 0.5], [1.1, -0.1]])
    with pytest.raises(ModelIncompleteError):
        ChannelModel(1.5)


def test_model_mdps_skip_the_row_check_and_hand_built_ones_keep_it(shipped, monkeypatch):
    model = shipped.model
    checked = []
    monkeypatch.setattr(model_module, "_check_rows", lambda probs, name: checked.append(name))
    mdps = [induced_mdp(model, DecisionPolicy([0, 3, 7])),
            induced_pomdp(model, SamplingPolicy.always(model.alphabets)), heuristic_mdp(model)]
    assert checked == []
    TabularMdp(transitions=mdps[0].transitions, rewards=mdps[0].rewards)
    assert checked == ["mdp_transitions"]
    monkeypatch.undo()
    for mdp in mdps:
        # what the check would have seen passes it
        TabularMdp(transitions=mdp.transitions, rewards=mdp.rewards)
        assert mdp.rewards.shape == (mdp.n_states, mdp.n_actions)
    with pytest.raises(ModelIncompleteError, match=r"mdp_transitions\[0, 1, 0\] outside"):
        TabularMdp(transitions=np.array([[[1.0, 0.0], [1.5, -0.5]]]), rewards=np.zeros((2, 1)))
    with pytest.raises(ModelIncompleteError, match=r"mdp_transitions row \[0, 0\] sums"):
        TabularMdp(transitions=np.array([[[0.5, 0.4999], [0.0, 1.0]]]), rewards=np.zeros((2, 1)))


def test_dense_kernels_refuse_oversized_alphabets_before_allocating():
    # 16 x 16 x 2: N = 4,096, so the kernels would take 2 * 2 * 4,096**2 * 8 bytes
    n, v, a = 16, 16, 2
    model = DecPomdpModel(
        alphabets=Alphabets(n, v, a),
        source=SourceDynamics(np.full((n, v, a, n), 1.0 / n)),
        context=ContextDynamics(np.full((v, v), 1.0 / v)),
        channel=ChannelModel(0.5),
        cost=CostModel(inherent=np.zeros((v, n)), gain=[0.0, 1.0], expenditure=[0.0, 1.0]))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetError) as info:
            dense_kernels(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        f"16 states x 16 contexts x 2 actions (N = 4096 global states): the dense kernels "
        f"need {2 * 2 * 4096 ** 2 * 8:,} bytes, over the {MAX_KERNEL_BYTES:,}-byte limit")
    assert peak < 2 ** 20


@pytest.mark.parametrize("shape", [(3, 2, 11), (4, 3, 6)], ids=["bundled", "generated"])
def test_bundled_and_generated_kernels_fit_the_byte_limit(shape):
    # the bundled scenario and the benchmark's generated 4 x 3 x 6 documents
    from goaltensor.solvers import BRUTE_CHUNK
    alphabets = Alphabets(*shape)
    check_kernel_bytes(alphabets, alphabets.n_actions, "the dense kernels")
    candidates = alphabets.n_actions ** alphabets.n_states
    check_kernel_bytes(alphabets, min(BRUTE_CHUNK, candidates), "one batch")
