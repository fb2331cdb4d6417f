import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goaltensor.errors import ModelIncompleteError, ParameterError
from goaltensor.tensor import (Alphabets, CostModel, DecisionPolicy,
                               build_got_tensor, degenerate_tensor, validate_cost_model)

from conftest import WORKED_TENSOR
from oracles import tensor_entry_by_hand


def test_worked_instance_matches_hand_evaluation(worked_cost, worked_policy):
    tensor = build_got_tensor(worked_cost, worked_policy)
    assert tensor.values.shape == (3, 2, 3)
    np.testing.assert_array_equal(tensor.values, WORKED_TENSOR)


def test_worked_instance_spot_values(worked_cost, worked_policy):
    values = build_got_tensor(worked_cost, worked_policy).values     # [x, phi, xhat]
    assert values[2, 0, 2] == 2       # ramp clips 3 - 4, expenditure 2
    assert values[0, 0, 0] == 0
    assert values[2, 1, 0] == 5
    assert values[1, 0, 1] == 1
    assert values[0, 1, 0] == 0
    assert values[1, 1, 2] == 2


def test_build_rejects_incomplete_model(worked_cost):
    with pytest.raises(ModelIncompleteError):
        build_got_tensor(worked_cost, DecisionPolicy([0, 1]))          # short policy
    with pytest.raises(ModelIncompleteError):
        build_got_tensor(worked_cost, DecisionPolicy([0, 1, 9]))       # unknown action


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_tensor_matches_scalar_oracle(seed):
    rng = np.random.default_rng(seed)
    n, v, a = rng.integers(2, 5), rng.integers(1, 4), rng.integers(1, 5)
    cost = CostModel(inherent=rng.uniform(0, 9, (v, n)), gain=rng.uniform(0, 9, a),
                     expenditure=rng.uniform(0, 4, a),
                     gain_weight=float(rng.uniform(0, 2)),
                     expenditure_weight=float(rng.uniform(0, 2)))
    policy = DecisionPolicy(rng.integers(0, a, n))
    tensor = build_got_tensor(cost, policy)
    for x in range(n):
        for phi in range(v):
            for xhat in range(n):
                assert tensor.values[x, phi, xhat] == pytest.approx(
                    tensor_entry_by_hand(cost, policy, x, phi, xhat), abs=0)


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_ramp_floor_property(seed):
    # every entry sits at or above the expenditure term, with equality exactly
    # when the weighted gain covers the inherent cost
    rng = np.random.default_rng(seed)
    n, v, a = 3, 2, 4
    cost = CostModel(inherent=rng.uniform(0, 9, (v, n)), gain=rng.uniform(0, 9, a),
                     expenditure=rng.uniform(0, 4, a))
    policy = DecisionPolicy(rng.integers(0, a, n))
    tensor = build_got_tensor(cost, policy)
    for x in range(n):
        for phi in range(v):
            for xhat in range(n):
                action = policy(xhat)
                floor = cost.expenditure_weight * cost.expenditure[action]
                value = tensor.values[x, phi, xhat]
                assert value >= floor
                covered = cost.inherent[phi, x] <= cost.gain_weight * cost.gain[action]
                assert (value == floor) == covered


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_raising_inherent_cost_never_lowers_entries(seed):
    rng = np.random.default_rng(seed)
    n, v, a = 3, 2, 4
    inherent = rng.uniform(0, 9, (v, n))
    cost = CostModel(inherent=inherent, gain=rng.uniform(0, 9, a),
                     expenditure=rng.uniform(0, 4, a))
    policy = DecisionPolicy(rng.integers(0, a, n))
    before = build_got_tensor(cost, policy).values
    x, phi = rng.integers(0, n), rng.integers(0, v)
    bumped = inherent.copy()
    bumped[phi, x] += rng.uniform(0, 5)
    after = build_got_tensor(CostModel(inherent=bumped, gain=cost.gain,
                                       expenditure=cost.expenditure), policy).values
    assert np.all(after[x, phi, :] >= before[x, phi, :])
    mask = np.ones_like(before, dtype=bool)
    mask[x, phi, :] = False
    np.testing.assert_array_equal(after[mask], before[mask])


# --- degenerations -----------------------------------------------------------


def test_degenerate_aoi_is_flat_per_context():
    table = degenerate_tensor("aoi", n_states=3, context_values=[1, 4, 9])
    assert table[1, 1, 2] == 4
    assert np.all(table[:, 0, :] == 1) and np.all(table[:, 2, :] == 9)


def test_degenerate_aoii_vanishes_on_match():
    table = degenerate_tensor("aoii", n_states=3, context_values=[3])
    assert table[2, 0, 2] == 0
    assert table[2, 0, 0] == 3


def test_degenerate_mse_squares_index_gap():
    table = degenerate_tensor("mse", n_states=3, n_contexts=2)
    assert table[2, 0, 0] == 4
    assert table[2, 1, 0] == 4
    assert table[1, 0, 1] == 0


def test_degenerate_coae_requires_zero_diagonal():
    with pytest.raises(ParameterError):
        degenerate_tensor("coae", error_matrix=[[0, 1], [2, 1]])
    table = degenerate_tensor("coae", error_matrix=[[0, 5], [1, 0]], n_contexts=3)
    assert table[0, 2, 1] == 5 and table[1, 0, 0] == 1


@given(st.integers(0, 10**9))
@settings(max_examples=120, deadline=None)
def test_degeneration_identities(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, 5))
    freshness = np.concatenate([[1.0], rng.uniform(0, 20, k - 1)])  # base layer first
    values = rng.normal(0, 3, n)

    aoi = degenerate_tensor("aoi", n_states=n, context_values=freshness)
    for level in range(k):                       # flat slices per context
        assert np.ptp(aoi[:, level, :]) == 0

    aoii = degenerate_tensor("aoii", n_states=n, context_values=freshness)
    uoi = degenerate_tensor("uoi", n_states=n, context_values=freshness,
                            state_values=values)
    for level in range(k):                       # every layer scales the base layer
        np.testing.assert_allclose(aoii[:, level, :], freshness[level] * aoii[:, 0, :])
        np.testing.assert_allclose(uoi[:, level, :], freshness[level] * uoi[:, 0, :])
    assert np.all((aoii == 0) == np.eye(n, dtype=bool)[:, None, :] | (freshness[None, :, None] == 0))

    mse = degenerate_tensor("mse", n_states=n, n_contexts=k, state_values=values)
    coae_mat = rng.uniform(0, 7, (n, n))
    np.fill_diagonal(coae_mat, 0.0)
    coae = degenerate_tensor("coae", error_matrix=coae_mat, n_contexts=k)
    for level in range(1, k):                    # context-agnostic metrics
        np.testing.assert_array_equal(mse[:, level, :], mse[:, 0, :])
        np.testing.assert_array_equal(coae[:, level, :], coae[:, 0, :])
    np.testing.assert_allclose(mse[:, 0, :], (values[:, None] - values[None, :]) ** 2)
    np.testing.assert_array_equal(coae[:, 0, :], coae_mat)


# --- validation --------------------------------------------------------------


def test_validate_worked_instance_is_clean(worked_cost):
    assert validate_cost_model(worked_cost, Alphabets(3, 2, 3)) == []


def test_validate_reports_nan_and_negative():
    cost = CostModel(inherent=[[0, np.nan, 3], [0, 2, 5]], gain=[0, 2, 4],
                     expenditure=[0, 1, 2])
    problems = validate_cost_model(cost, Alphabets(3, 2, 3))
    assert len(problems) == 1
    assert "non-finite" in problems[0].message and problems[0].field == "inherent"

    cost = CostModel(inherent=[[0, 1, 3], [0, 2, 5]], gain=[0, -2, 4],
                     expenditure=[0, 1, 2])
    problems = validate_cost_model(cost, Alphabets(3, 2, 3))
    assert [p.field for p in problems] == ["gain"]


def test_validate_catches_shape_mismatch(worked_cost):
    problems = validate_cost_model(worked_cost, Alphabets(3, 2, 5))
    assert {p.field for p in problems} == {"gain", "expenditure"}


def test_empty_action_alphabet_rejected():
    with pytest.raises(ModelIncompleteError):
        Alphabets(3, 2, 0)


def test_negative_weight_is_not_an_error():
    cost = CostModel(inherent=[[0, 1], [0, 2]], gain=[0, 2], expenditure=[0, 1],
                     gain_weight=-1.0)
    assert validate_cost_model(cost, Alphabets(2, 2, 2)) == []
