from dataclasses import replace

import numpy as np
import pytest

from goaltensor import benchmarks, solvers
from goaltensor.benchmarks import (FAMILIES, AgeThresholdRule, ChangeAwareRule,
                                   StatePolicyRule, UniformRule, aoii_optimal_policy,
                                   evaluate_age_threshold, evaluate_change_aware,
                                   evaluate_state_policy, evaluate_uniform,
                                   evaluate_uniform_periods, mse_optimal_policy, priced)
from goaltensor.errors import NonConvergenceError, ParameterError
from goaltensor.harness import (_cell_scenarios, simulate_closed_loop, solve_cell,
                                sweep_rate_vs_cost)
from goaltensor.model import (ChannelModel, ContextDynamics, DecPomdpModel,
                              SourceDynamics)
from goaltensor.scenario import GridConfig
from goaltensor.solvers import flatten_sampling, greedy_decision_policy
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy

from oracles import (age_threshold_by_augmented_chain, mse_sampler_by_rvi, policy_chain,
                     policy_gain, random_model, uniform_by_augmented_chain,
                     uniform_period_by_period)


@pytest.fixture(scope="module")
def greedy(shipped):
    return greedy_decision_policy(shipped.model)


# --- rules --------------------------------------------------------------------


def family_rule(name, param=None):
    """The simulation rule of a ``FAMILIES`` entry; these rules need no model."""
    return FAMILIES[name].rule(None, param, None, None)


def test_uniform_rule_examples():
    rule = family_rule("uniform", 1)
    assert all(rule.decide(t, 0, 0, 0) == 1 for t in range(5))
    rule = family_rule("uniform", 4)
    assert rule.decide(8, 0, 0, 0) == 1
    assert rule.decide(9, 0, 0, 0) == 0
    with pytest.raises(ParameterError):
        family_rule("uniform", 0)


def test_uniform_rate_counting(shipped, greedy):
    for period in (3, 7):
        # over a window that is a whole number of periods the rate is exact
        horizon = period * 5_000
        _, summary = simulate_closed_loop(shipped.model, UniformRule(period), greedy,
                                          horizon, seed=1, record_trace=False)
        assert summary.sampling_rate == 1 / period
        # otherwise it is off by at most one slot's worth
        _, ragged = simulate_closed_loop(shipped.model, UniformRule(period), greedy,
                                         horizon + 1, seed=1, record_trace=False)
        assert abs(ragged.sampling_rate - 1 / period) <= 1 / (horizon + 1) + 1e-12


def test_age_rule_examples():
    rule = family_rule("age", 0)
    assert rule.decide(0, 0, 0, 0) == 1          # age starts at 1 > 0
    rule = family_rule("age", 2)
    fires = []
    for _ in range(3):                           # ages 1, 2, 3 with no deliveries
        fires.append(rule.decide(0, 1, 0, 0))
        rule.notify(1, 0, 0, fires[-1], False)
    assert fires == [0, 0, 1]
    rule.notify(1, 0, 0, 1, True)
    assert rule.age == 1
    with pytest.raises(ParameterError):
        family_rule("age", -1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, -1])
@pytest.mark.parametrize("family", ["uniform", "age"])
def test_rule_and_evaluator_check_a_parameter_alike(shipped, greedy, family, value):
    with pytest.raises(ParameterError) as by_rule:
        family_rule(family, value)
    with pytest.raises(ParameterError) as by_evaluator:
        FAMILIES[family].evaluate(shipped.model, [value], greedy, 0, None)
    assert str(by_rule.value) == str(by_evaluator.value)
    assert str(by_rule.value).startswith(FAMILIES[family].param)


def test_change_rule_examples():
    rule = family_rule("change")
    rule.reset(0, 0, 0)
    assert rule.decide(0, 0, 0, 0) == 0          # no history yet
    rule.notify(0, 0, 0, 0, False)
    assert rule.decide(1, 0, 0, 0) == 0          # constant source stays silent
    rule.notify(0, 0, 0, 0, False)
    assert rule.decide(2, 1, 0, 0) == 1          # change fires
    rule.notify(1, 0, 0, 1, True)
    assert rule.decide(3, 0, 0, 0) == 1


def test_change_rate_equals_change_frequency(shipped, greedy):
    trace, summary = simulate_closed_loop(shipped.model, ChangeAwareRule(), greedy,
                                          20_000, seed=3)
    xs = trace.x.tolist()
    changes = sum(1 for a, b in zip(xs, xs[1:]) if a != b)
    assert summary.sampling_rate == pytest.approx(changes / len(xs), abs=1e-12)


def test_aoii_policy_samples_exactly_on_mismatch(shipped):
    policy = aoii_optimal_policy(shipped.model)
    for x in range(3):
        for xhat in range(3):
            for phi in range(2):
                assert policy(x, xhat, phi) == int(x != xhat)


def test_aoii_resets_after_successful_unchanged_delivery(shipped, greedy):
    trace, _ = simulate_closed_loop(
        shipped.model, StatePolicyRule(aoii_optimal_policy(shipped.model)), greedy,
        20_000, seed=9)
    for t in range(1, len(trace)):
        if trace.a_s[t - 1] == 1 and trace.h[t - 1] == 1 and trace.x[t] == trace.x[t - 1]:
            assert trace.aoii[t] == 0


# --- exact evaluation vs simulation ------------------------------------------


def _sim_cost(model, rule, decision, seed=0, horizon=400_000):
    _, summary = simulate_closed_loop(model, rule, decision, horizon, seed,
                                      record_trace=False)
    return summary


@pytest.mark.parametrize("period", [1, 3, 8])
def test_uniform_analytic_matches_simulation(shipped, greedy, period):
    exact = evaluate_uniform(shipped.model, period, greedy)
    sim = _sim_cost(shipped.model, UniformRule(period), greedy)
    assert exact.sampling_rate == pytest.approx(1 / period, abs=1e-9)
    assert sim.average_cost == pytest.approx(exact.average_cost,
                                             abs=3.5 * max(sim.stderr, 1e-4))


@pytest.mark.parametrize("threshold", [0, 2, 5])
def test_age_analytic_matches_simulation(shipped, greedy, threshold):
    exact = evaluate_age_threshold(shipped.model, threshold, greedy)
    sim = _sim_cost(shipped.model, AgeThresholdRule(threshold), greedy)
    assert sim.average_cost == pytest.approx(exact.average_cost,
                                             abs=3.5 * max(sim.stderr, 1e-4))
    assert sim.sampling_rate == pytest.approx(exact.sampling_rate, abs=5e-3)


def test_age_zero_threshold_always_samples(shipped, greedy):
    exact = evaluate_age_threshold(shipped.model, 0, greedy)
    always = evaluate_state_policy(shipped.model,
                                   SamplingPolicy.always(shipped.model.alphabets),
                                   greedy)
    assert exact.sampling_rate == pytest.approx(1.0, abs=1e-12)
    assert exact.average_cost == pytest.approx(always.average_cost, abs=1e-9)


@pytest.mark.parametrize("p_success", [1e-17, 1e-300])
def test_age_evaluator_refuses_an_uncertified_solve(shipped, p_success):
    # (I - (1 - p) * idle)^-1 loses every digit as p -> 0: uncertified, the
    # bundled model scored -0.89 at 1e-17 and 2.0 at 1e-300
    from goaltensor.solvers import POISSON_TOL
    model = shipped.with_channel(p_success).model
    with pytest.raises(NonConvergenceError, match="age-threshold") as info:
        evaluate_age_threshold(model, 0, greedy_decision_policy(model))
    assert info.value.residual > POISSON_TOL


# (pS, threshold) -> average cost, from the evaluator before its certificate
AGE_COSTS = {(0.2, 0): 9.101151858062646, (0.2, 5): 9.138769428036168,
             (1e-3, 0): 15.869211287098919, (1e-3, 5): 15.85378487340586,
             (1e-6, 0): 15.941446039534878, (1e-6, 5): 15.941430356702128}


@pytest.mark.parametrize("p_success,threshold", sorted(AGE_COSTS))
def test_age_evaluator_certificate_keeps_small_channel_values(shipped, p_success,
                                                              threshold):
    model = shipped.with_channel(p_success).model
    exact = evaluate_age_threshold(model, threshold, greedy_decision_policy(model))
    assert exact.average_cost == pytest.approx(AGE_COSTS[p_success, threshold], rel=1e-9)
    assert exact.sampling_rate == 1.0 / (1.0 + p_success * threshold)


def test_change_aware_analytic_matches_simulation(shipped, greedy):
    exact = evaluate_change_aware(shipped.model, greedy)
    sim = _sim_cost(shipped.model, ChangeAwareRule(), greedy)
    assert sim.average_cost == pytest.approx(exact.average_cost,
                                             abs=3.5 * max(sim.stderr, 1e-4))
    assert sim.sampling_rate == pytest.approx(exact.sampling_rate, abs=5e-3)


def test_state_policy_analytic_matches_simulation(shipped, greedy):
    policy = aoii_optimal_policy(shipped.model)
    exact = evaluate_state_policy(shipped.model, policy, greedy)
    sim = _sim_cost(shipped.model, StatePolicyRule(policy), greedy)
    assert sim.average_cost == pytest.approx(exact.average_cost,
                                             abs=3.5 * max(sim.stderr, 1e-4))


def test_decomposition_sums_exactly(shipped, greedy):
    for summary in (evaluate_uniform(shipped.model, 4, greedy),
                    evaluate_change_aware(shipped.model, greedy),
                    evaluate_age_threshold(shipped.model, 3, greedy)):
        total = summary.inherent + summary.actuation + summary.sampling
        assert total == pytest.approx(summary.average_cost, abs=1e-12)


# --- optimal baselines --------------------------------------------------------


def test_mse_optimal_free_perfect_channel_matches_exhaustive():
    # persistent source, perfect free channel: transmitting every slot keeps
    # the estimate one step behind the source, which no policy can beat
    import itertools

    from oracles import gain_from, joint_chain_by_hand
    from goaltensor.solvers import flatten_sampling

    n, v, a = 2, 1, 2
    src = np.zeros((n, v, a, n))
    src[0, 0, :, :] = [0.8, 0.2]
    src[1, 0, :, :] = [0.3, 0.7]
    model = DecPomdpModel(
        alphabets=Alphabets(n, v, a),
        source=SourceDynamics(src),
        context=ContextDynamics(np.eye(1)),
        channel=ChannelModel(1.0),
        cost=CostModel(inherent=np.zeros((v, n)), gain=[0.0, 0.0],
                       expenditure=[0.0, 0.0], sampling_cost=0.0),
    )
    policy = mse_optimal_policy(model, DecisionPolicy([0, 0]))
    xs, xhats, _ = model.state_components()
    sq = (xs - xhats).astype(float) ** 2

    def mse_value(bits):
        P, _ = joint_chain_by_hand(model, bits, [0, 0])
        return gain_from(P, -sq, 0)

    best = max(mse_value(c) for c in itertools.product((0, 1), repeat=4))
    assert mse_value(flatten_sampling(policy)) == pytest.approx(best, abs=1e-6)
    always = flatten_sampling(SamplingPolicy.always(model.alphabets))
    assert mse_value(always) == pytest.approx(best, abs=1e-6)


def test_mse_optimal_huge_cost_never_samples():
    # symmetric source: every frozen-estimate slice carries the same error, so
    # with a prohibitive sampling charge staying silent is optimal everywhere
    n, v, a = 2, 1, 2
    src = np.full((n, v, a, n), 0.5)
    model = DecPomdpModel(
        alphabets=Alphabets(n, v, a),
        source=SourceDynamics(src),
        context=ContextDynamics(np.eye(1)),
        channel=ChannelModel(0.9),
        cost=CostModel(inherent=np.zeros((v, n)), gain=[0.0, 1.0],
                       expenditure=[0.0, 1.0], sampling_cost=1e6),
    )
    policy = mse_optimal_policy(model, DecisionPolicy([0, 0]))
    assert not policy.decisions.any()


def test_mse_optimal_policy_matches_rvi_oracle_on_bundled_grid(shipped):
    # policy iteration starts from idling and keeps the incumbent on ties,
    # which reproduces RVI's lowest-action choice: at zero sampling cost,
    # sampling where the estimate already equals the state ties with idling
    from goaltensor.solvers import flatten_sampling
    compared = 0
    for p_success in shipped.grid.success_probs:
        for sampling_cost in shipped.grid.sampling_costs:
            cell = shipped.with_channel(p_success).with_sampling_cost(sampling_cost)
            greedy = greedy_decision_policy(cell.model)
            policy = flatten_sampling(mse_optimal_policy(cell.model, greedy,
                                                         cell.state_values))
            oracle, stalled, mdp = mse_sampler_by_rvi(cell.model, greedy, cell.state_values)
            if stalled:
                # a stalled RVI returns a truncated greedy policy: compare the
                # exact squared-error cost instead
                assert policy_gain(mdp, policy) >= policy_gain(mdp, oracle) - 1e-9
            else:
                assert policy.tolist() == oracle.tolist(), (p_success, sampling_cost)
                compared += 1
    assert compared > 0


def test_mse_policy_beats_aoii_policy_on_mse(shipped, greedy):
    # each policy should win its own metric
    model = shipped.model
    policy_mse = mse_optimal_policy(model, greedy)
    policy_aoii = aoii_optimal_policy(model)
    xs, xhats, _ = model.state_components()
    sq = (xs - xhats).astype(float) ** 2

    def mse_of(policy):
        from goaltensor.solvers import flatten_sampling, stationary_distribution
        P, _ = policy_chain(model, policy, greedy)
        mu = stationary_distribution(P)
        return float(mu @ (sq + model.cost.sampling_cost * flatten_sampling(policy)))

    assert mse_of(policy_mse) <= mse_of(policy_aoii) + 1e-9


# --- threshold tuning ---------------------------------------------------------


def test_tuner_finds_interior_minimum(shipped, greedy):
    model = shipped.with_sampling_cost(6.0).model
    costs = [evaluate_age_threshold(model, delta, greedy).average_cost for delta in range(21)]
    assert 0 < int(np.argmin(costs)) < 20


def test_age_dominates_uniform_at_matched_rates(shipped, greedy):
    model = shipped.model
    uniform = [evaluate_uniform(model, d, greedy) for d in range(1, 21)]
    age = [evaluate_age_threshold(model, d, greedy) for d in range(0, 41)]
    rates = np.array([s.sampling_rate for s in age])[::-1]
    costs = np.array([s.average_cost for s in age])[::-1]
    for s in uniform:
        if rates.min() <= s.sampling_rate <= rates.max():
            interpolated = float(np.interp(s.sampling_rate, rates, costs))
            assert interpolated <= s.average_cost + 1e-9


def test_family_table_dispatch(shipped, greedy):
    model, values = shipped.model, shipped.state_values
    mse = mse_optimal_policy(model, greedy, values)
    expected = {
        "uniform": (4, UniformRule, evaluate_uniform(model, 4, greedy, 1)),
        "age": (2, AgeThresholdRule, evaluate_age_threshold(model, 2, greedy, 1)),
        "change": (None, ChangeAwareRule, evaluate_change_aware(model, greedy, 1)),
        "aoii": (None, StatePolicyRule, evaluate_state_policy(
            model, aoii_optimal_policy(model), greedy, 1)),
        "mse": (None, StatePolicyRule, evaluate_state_policy(model, mse, greedy, 1)),
    }
    assert set(FAMILIES) == set(expected)
    for name, (param, kind, summary) in expected.items():
        family = FAMILIES[name]
        assert family.evaluate(model, [param], greedy, 1, values) == [summary]
        assert np.isfinite(summary.average_cost)
        assert 0.0 <= summary.sampling_rate <= 1.0
        assert type(family.rule(model, param, greedy, values)) is kind
    assert family_rule("uniform", 4).label == "uniform(4)"
    assert family_rule("age", 2).label == "age(2)"
    for name, policy in (("aoii", aoii_optimal_policy(model)), ("mse", mse)):
        np.testing.assert_array_equal(
            FAMILIES[name].rule(model, None, greedy, values).policy.decisions,
            policy.decisions)
    grids = {name: family.grid and family.grid(shipped.sweep)
             for name, family in FAMILIES.items()}
    assert grids == {"uniform": list(range(1, 21)), "age": list(range(51)),
                     "change": [None], "aoii": [None], "mse": None}
    assert {name: (family.param, family.default) for name, family in FAMILIES.items()
            if family.param} == {"uniform": ("period", 1), "age": ("threshold", 0)}
    with pytest.raises(ParameterError):
        FAMILIES["uniform"].evaluate(model, [0], greedy, 0, values)
    with pytest.raises(ParameterError):
        sweep_rate_vs_cost(model, "nope", [None], greedy, 10, [0])


def _assert_same_summary(got, want, tol=1e-12):
    for name in ("average_cost", "sampling_rate", "inherent", "actuation", "sampling"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=tol), name


@pytest.mark.parametrize("cell", [(0.2, 0.0), (0.6, 4.0), (1.0, 10.0)])
def test_uniform_period_map_matches_augmented_chain(shipped, cell):
    p_success, sampling_cost = cell
    model = shipped.with_channel(p_success).with_sampling_cost(sampling_cost).model
    greedy = greedy_decision_policy(model)
    for period, got in zip(range(1, 21), evaluate_uniform_periods(model, range(1, 21), greedy)):
        _assert_same_summary(got, uniform_by_augmented_chain(model, period, greedy))


def _frozen_source_model(success_prob=0.7, n_contexts=2):
    """A source that never moves: one closed class per source state at least,
    so costs depend on the start state and come from a Cesaro row."""
    base = random_model(np.random.default_rng(5), n_states=2, n_contexts=n_contexts,
                        n_actions=2, success_prob=success_prob, sampling_cost=0.5)
    return DecPomdpModel(alphabets=base.alphabets,
                         source=SourceDynamics(np.broadcast_to(
                             np.eye(2)[:, None, None, :], (2, n_contexts, 2, 2)).copy()),
                         context=base.context, channel=base.channel, cost=base.cost)


def test_uniform_period_map_matches_augmented_chain_when_multichain():
    model = _frozen_source_model()
    decision = DecisionPolicy([1, 0])
    by_start = [evaluate_uniform_periods(model, range(1, 21), decision, start)
                for start in range(model.n_global_states)]
    for period, summaries in zip(range(1, 21), zip(*by_start)):
        for start, got in enumerate(summaries):
            _assert_same_summary(got, uniform_by_augmented_chain(model, period, decision,
                                                                 start))
        costs = [got.average_cost for got in summaries]
        assert max(costs) - min(costs) > 1e-3


@pytest.mark.parametrize("periods", [[1], [7, 3, 3, 12, 1, 7], list(range(20, 0, -1))])
@pytest.mark.parametrize("cell", [(0.2, 0.0), (0.6, 4.0), (1.0, 10.0)])
def test_uniform_period_scan_matches_period_by_period_oracle(shipped, cell, periods):
    # one product chain over the sorted periods and one batched balance solve
    # give each period the bits of its own map solved alone, in the list's order
    p_success, sampling_cost = cell
    model = shipped.with_channel(p_success).with_sampling_cost(sampling_cost).model
    greedy = greedy_decision_policy(model)
    for start in (0, 7):
        want = [uniform_period_by_period(model, period, greedy, start) for period in periods]
        assert evaluate_uniform_periods(model, periods, greedy, start) == want
        assert evaluate_uniform(model, periods[0], greedy, start) == want[0]


def test_uniform_period_scan_matches_oracle_on_multichain_maps():
    # a frozen source leaves every one-period map with several closed classes,
    # so each law is the Cesaro row of the start state
    model = _frozen_source_model()
    decision = DecisionPolicy([1, 0])
    periods = [5, 1, 20, 5, 2]
    for start in range(model.n_global_states):
        want = [uniform_period_by_period(model, period, decision, start) for period in periods]
        assert evaluate_uniform_periods(model, periods, decision, start) == want
        assert [evaluate_uniform(model, period, decision, start) for period in periods] == want


def test_fixed_decision_solve_scores_from_the_start_state(shipped):
    # each source state is closed, so the best response's gain depends on the start
    model = _frozen_source_model()
    decision = greedy_decision_policy(model)
    costs = []
    for start, (x, xhat, phi) in enumerate(zip(*model.state_components())):
        cell = replace(shipped, model=model, simulation=replace(
            shipped.simulation, initial=(int(x), int(xhat), int(phi))))
        assert cell.start_state == start
        report = solve_cell(cell, "rvi-fixed-decision")
        want = evaluate_state_policy(model, report.sampling_policy, decision, start)
        assert report.average_cost == pytest.approx(want.average_cost, abs=1e-9)
        costs.append(report.average_cost)
    assert max(costs) - min(costs) > 1e-3


def test_age_delivery_cycles_match_augmented_chain(shipped, greedy):
    for threshold in (0, 1, 2, 5, 10, 25, 50):
        _assert_same_summary(evaluate_age_threshold(shipped.model, threshold, greedy),
                             age_threshold_by_augmented_chain(shipped.model, threshold,
                                                              greedy)[0])


@pytest.mark.parametrize("success_prob", [0.0, 0.05, 0.7, 1.0])
def test_age_delivery_cycles_match_augmented_chain_when_multichain(success_prob):
    # one context keeps the oracle chains at 4 * (threshold + 2) states
    model = _frozen_source_model(success_prob, n_contexts=1)
    decision = DecisionPolicy([1, 0])
    for threshold in range(51):
        want = age_threshold_by_augmented_chain(model, threshold, decision)
        costs = []
        for start in range(model.n_global_states):
            got = evaluate_age_threshold(model, threshold, decision, start)
            _assert_same_summary(got, want[start])
            costs.append(got.average_cost)
        assert max(costs) - min(costs) > 1e-3


# --- work shared across a grid row: re-priced laws, batched MSE samplers -------


def _sharing_scenario(shipped, case):
    """The bundled scenario, or a random model on a grid with pS = 0 and
    unsorted, repeated sampling costs."""
    if case == "bundled":
        return shipped
    rng = np.random.default_rng(500 + case)
    model = random_model(rng, n_states=3, n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(2, 5)))
    return replace(shipped, model=model, state_values=np.arange(3.0),
                   grid=GridConfig(success_probs=(0.0, 0.45, 1.0),
                                   sampling_costs=(2.5, 0.0, 40.0, 0.3, 2.5)))


def _grid_rows(scenario):
    """The grid's cell scenarios, one list per success probability."""
    rows = {}
    for p_success, _, cell in _cell_scenarios(scenario, scenario.grid):
        rows.setdefault(p_success, []).append(cell)
    return list(rows.values())


SHARING_CASES = ["bundled", 0, 1, 2]


@pytest.mark.parametrize("case", SHARING_CASES)
def test_priced_summaries_equal_an_evaluation_at_each_cost(shipped, case):
    scenario = _sharing_scenario(shipped, case)
    rng = np.random.default_rng(7)
    n, v = scenario.model.alphabets.n_states, scenario.model.alphabets.n_contexts
    for cells in _grid_rows(scenario):
        first, start, values = cells[0], scenario.start_state, scenario.state_values
        greedy = greedy_decision_policy(first.model)
        pairs = [(SamplingPolicy(rng.integers(0, 2, size=(n, n, v))), greedy),
                 (mse_optimal_policy(cells[-1].model, greedy, values), greedy)]
        for cell in cells:
            model, cost = cell.model, cell.model.cost.sampling_cost
            for name, family in FAMILIES.items():
                if family.by_cost is None:
                    params = family.grid(cell.sweep) if family.grid else [None]
                    laws = family.evaluate(first.model, params, greedy, start, values)
                    want = family.evaluate(model, params, greedy, start, values)
                    assert repr([priced(law, cost) for law in laws]) == repr(want), name
            for sampling, decision in pairs:
                law = evaluate_state_policy(first.model, sampling, decision, start)
                want = evaluate_state_policy(model, sampling, decision, start)
                assert repr(priced(law, cost)) == repr(want)


@pytest.mark.parametrize("case", SHARING_CASES)
def test_batched_mse_row_equals_one_solve_per_cost(monkeypatch, shipped, case):
    scenario = _sharing_scenario(shipped, case)
    rounds, real = [], solvers._policy_iteration_batch

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        rounds.append(result[3].tolist())
        return result

    for cells in _grid_rows(scenario):
        model, values = cells[0].model, scenario.state_values
        greedy = greedy_decision_policy(model)
        costs = [cell.model.cost.sampling_cost for cell in cells]
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_policy_iteration_batch", spy)
            batch = mse_optimal_policy(model, greedy, values, sampling_costs=costs)
        assert len(batch) == len(costs)
        for cell, policy in zip(cells, batch):
            alone = mse_optimal_policy(cell.model, greedy, values)
            np.testing.assert_array_equal(flatten_sampling(policy), flatten_sampling(alone))
    assert len(rounds) == len(scenario.grid.success_probs)
    if case == "bundled":
        # each row has members that stop after different numbers of
        # policy-iteration rounds (2 to 5)
        assert all(len(set(members)) > 1 for members in rounds)


def test_batched_mse_failure_names_the_mdp(monkeypatch, shipped):
    monkeypatch.setattr(benchmarks, "MAX_PI_ROUNDS", 1)
    with pytest.raises(NonConvergenceError) as info:
        mse_optimal_policy(shipped.model, sampling_costs=[0.0, 2.0, 10.0])
    assert str(info.value).startswith("squared-error sampler MDP still changing policy")
