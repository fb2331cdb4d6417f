import math
import os
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from goaltensor.benchmarks import (FAMILIES, AgeThresholdRule, StatePolicyRule, UniformRule,
                                   aoii_optimal_policy)
from goaltensor import harness, solvers
from goaltensor.errors import NonConvergenceError, ParameterError
from goaltensor.harness import (BATCHES, SLOT_CHUNK, TRACE_CSV_ROWS, TRACE_HEADER, Trace,
                                _standard_error,
                                optimality_gap, simulate_closed_loop,
                                simulate_replicas, sweep_rate_vs_cost, compare_policies,
                                write_compare_csv, write_decomp_csv, write_gap_csv,
                                write_sweep_csv, write_trace_csv)
from goaltensor.model import (ChannelModel, ContextDynamics, DecPomdpModel,
                              SourceDynamics, induced_mdp)
from goaltensor.scenario import GridConfig, Scenario
from goaltensor.solvers import greedy_decision_policy
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy
from conftest import GRID_CS, GRID_PS, assert_no_child_process, generated_scenario
from oracles import (TraceRecord, analyze_chain, compare_cell_by_cell, policy_chain,
                     exhaustive_brute_force, random_model, simulate_records, sweep_one_by_one,
                     whole_cell_skips, write_records_csv)


def cycle_model(sampling_cost=0.5):
    """Deterministic source cycling 0 -> 1 -> 2, single context, perfect channel."""
    n, v, a = 3, 1, 3
    src = np.zeros((n, v, a, n))
    for i in range(n):
        src[i, 0, :, (i + 1) % n] = 1.0
    return DecPomdpModel(
        alphabets=Alphabets(n, v, a),
        source=SourceDynamics(src),
        context=ContextDynamics(np.eye(1)),
        channel=ChannelModel(1.0),
        cost=CostModel(inherent=[[0, 1, 3]], gain=[0, 2, 4], expenditure=[0, 1, 2],
                       sampling_cost=sampling_cost),
    )


class ScriptedRule:
    label = "scripted"

    def __init__(self, script):
        self.script = list(script)

    def reset(self, x, xhat, phi):
        pass

    def decide(self, t, x, xhat, phi):
        return self.script[t]

    def notify(self, *args):
        pass


def test_zero_success_channel_freezes_estimate(shipped):
    model = shipped.with_channel(0.0).model
    greedy = greedy_decision_policy(shipped.model)
    trace, _ = simulate_closed_loop(
        model, StatePolicyRule(SamplingPolicy.always(model.alphabets)), greedy,
        5_000, seed=2)
    assert np.all(trace.xhat == trace.xhat[0])
    assert np.all(trace.h == 0)


def test_degenerate_identity_model_constant_trace():
    n, v, a = 2, 1, 1
    src = np.zeros((n, v, a, n))
    src[np.arange(n), 0, :, np.arange(n)] = 1.0
    model = DecPomdpModel(
        alphabets=Alphabets(n, v, a), source=SourceDynamics(src),
        context=ContextDynamics(np.eye(1)), channel=ChannelModel(1.0),
        cost=CostModel(inherent=[[0, 1]], gain=[0.0], expenditure=[0.0]))
    trace, _ = simulate_closed_loop(
        model, StatePolicyRule(SamplingPolicy.never(model.alphabets)),
        DecisionPolicy([0, 0]), 500, seed=4, initial=(1, 1, 0))
    assert len(trace) == 500
    assert all(np.all(column == value) for column, value in
               ((trace.x, 1), (trace.xhat, 1), (trace.phi, 0), (trace.cost, 1.0)))


def test_seed_reproducibility_and_divergence(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    rule = lambda: StatePolicyRule(aoii_optimal_policy(model))
    a1, s1 = simulate_closed_loop(model, rule(), greedy, 3_000, seed=123)
    a2, s2 = simulate_closed_loop(model, rule(), greedy, 3_000, seed=123)
    b, _ = simulate_closed_loop(model, rule(), greedy, 3_000, seed=124)
    assert a1 == a2 and s1 == s2
    assert a1 != b


def test_common_random_numbers_share_source_path(shipped):
    # different sampling rules, same seed: identical source/context path
    # (actions feed back into the source, so compare under a constant decision)
    model = shipped.model
    flat = DecisionPolicy([0, 0, 0])
    r1, _ = simulate_closed_loop(model, UniformRule(2), flat, 2_000, seed=5)
    r2, _ = simulate_closed_loop(model, UniformRule(5), flat, 2_000, seed=5)
    assert r1.x.tolist() == r2.x.tolist()
    assert r1.phi.tolist() == r2.phi.tolist()


def test_metric_trace_coherence(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, _ = simulate_closed_loop(model, StatePolicyRule(
        aoii_optimal_policy(model)), greedy, 10_000, seed=8)
    assert np.all(trace.aoii <= trace.aos)
    assert np.all((trace.aoii == 0) == (trace.x == trace.xhat))
    assert np.all(trace.aoi >= 1)
    assert np.all(trace.cost == trace.got + model.cost.sampling_cost * trace.a_s)


def test_never_sampling_age_grows_linearly(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, _ = simulate_closed_loop(model, StatePolicyRule(
        SamplingPolicy.never(model.alphabets)), greedy, 100, seed=1)
    assert trace.aoi.tolist() == list(range(1, 101))


def test_synchronized_throughout_zero_mismatch_age():
    # frozen source started in sync never accrues mismatch age
    base = cycle_model()
    src = np.zeros((3, 1, 3, 3))
    for i in range(3):
        src[i, 0, :, i] = 1.0
    frozen = DecPomdpModel(alphabets=base.alphabets,
                           source=SourceDynamics(src), context=base.context,
                           channel=base.channel, cost=base.cost)
    trace, _ = simulate_closed_loop(
        frozen, StatePolicyRule(SamplingPolicy.never(frozen.alphabets)),
        DecisionPolicy([0, 0, 0]), 100, seed=0, initial=(1, 1, 0))
    assert np.all(trace.aoii == 0)
    assert np.all(trace.aos == 0)


def test_eight_slot_hand_replay():
    model = cycle_model(sampling_cost=0.5)
    script = [0, 0, 1, 0, 1, 0, 0, 1]
    trace, summary = simulate_closed_loop(
        model, ScriptedRule(script), DecisionPolicy([0, 1, 2]), 8, seed=0,
        initial=(0, 0, 0))
    got = trace.got.tolist()
    assert trace.x.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
    assert trace.xhat.tolist() == [0, 0, 0, 2, 2, 1, 1, 1]
    assert trace.a_s.tolist() == script
    assert trace.aoi.tolist() == [1, 2, 3, 1, 2, 1, 2, 3]
    assert trace.aos.tolist() == [0, 1, 2, 3, 4, 5, 6, 0]
    assert trace.aoii.tolist() == [0, 1, 2, 3, 4, 5, 6, 0]
    assert trace.aoci.tolist() == [1, 2, 3, 1, 2, 1, 2, 3]
    assert trace.mse.tolist() == [0, 1, 4, 4, 1, 1, 1, 0]
    assert got == [0, 1, 3, 2, 2, 2, 1, 1]
    assert trace.cost.tolist() == [0, 1, 3.5, 2, 2.5, 2, 1, 1.5]
    assert summary.average_cost == pytest.approx(sum(trace.cost.tolist()) / 8)
    assert summary.sampling_rate == pytest.approx(3 / 8)


def test_simulation_agrees_with_stationary_analysis(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    policy = aoii_optimal_policy(model)
    P, rbar = policy_chain(model, policy, greedy)
    eta = analyze_chain(P, rbar).average_reward
    _, summary = simulate_closed_loop(model, StatePolicyRule(policy), greedy,
                                      400_000, seed=77, record_trace=False)
    assert summary.average_cost == pytest.approx(-eta, abs=3 * summary.stderr)


def test_untraced_run_memory_does_not_grow_with_the_horizon(shipped):
    # the random draws are taken one chunk of slots at a time; lists of all
    # three streams for the whole horizon would hold about 100 bytes a slot
    model = shipped.model
    greedy = greedy_decision_policy(model)
    rule = StatePolicyRule(aoii_optimal_policy(model))
    simulate_closed_loop(model, rule, greedy, 10, seed=3, record_trace=False)  # warm-up
    tracemalloc.start()
    try:
        simulate_closed_loop(model, rule, greedy, 20_000, seed=3, record_trace=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000


@pytest.mark.parametrize("seed", range(8))
def test_standard_error_is_the_numpy_formula_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    values = (rng.normal(0.0, 1.0, size=int(rng.integers(2, 300)))
              * 10.0 ** int(rng.integers(-150, 150)))
    want = float(np.std(values, ddof=1) / np.sqrt(values.size))
    assert _standard_error(values) == want
    assert _standard_error(values.tolist()) == want


def test_standard_error_edges():
    assert math.isnan(_standard_error([]))
    assert math.isnan(_standard_error([3.0]))
    assert _standard_error([0.0, 0.0, 0.0]) == 0.0
    # np.std overflows squaring these; the scaled values do not
    spread = _standard_error([1e300, 1.1e300, 0.9e300])
    assert spread == pytest.approx(1e300 * _standard_error([1.0, 1.1, 0.9]), rel=1e-14)


def test_sweep_uniform_rates_and_shape(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    results = sweep_rate_vs_cost(model, "uniform", [1, 2, 4, 5], greedy,
                                 horizon=20_000, seeds=[0, 1, 2])
    assert len(results) == 4
    for res, period in zip(results, [1, 2, 4, 5]):
        assert res.param == period
        assert res.sampling_rate == pytest.approx(1 / period, abs=1e-3)
        assert np.isfinite(res.stderr)


def _random_state_rules(model, seed, count):
    rng = np.random.default_rng(seed)
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    return [StatePolicyRule(SamplingPolicy(rng.integers(0, 2, size=(n, n, v))))
            for _ in range(count)]


# every ``FAMILIES`` entry, at its default (period 1 sends every slot,
# threshold 0 makes every slot due) and two larger parameters where it takes
# one, and random state-policy rules
RULE_KINDS = sorted(FAMILIES) + ["random-state"]


def _rules(kind, model, decision):
    if kind == "random-state":
        return _random_state_rules(model, 5, 3)
    if kind == "uniform-long":
        # sends fall on a different slot of each chunk, and some chunks have none
        return [UniformRule(2 * SLOT_CHUNK + 1), UniformRule(SLOT_CHUNK - 1)]
    family = FAMILIES[kind]
    params = ([family.default, family.default + 2, family.default + 8]
              if family.param else [None])
    return [family.rule(model, param, decision, None) for param in params]


def _assert_matches_scalar_loop(model, kind, decision, horizon, seeds, initial):
    rules = _rules(kind, model, decision)
    summaries = simulate_replicas(model, rules, decision, horizon, seeds, initial=initial)
    assert len(summaries) == len(rules)
    for rule, row in zip(rules, summaries):
        assert len(row) == len(seeds)
        for seed, summary in zip(seeds, row):
            _, expected = simulate_closed_loop(model, rule, decision, horizon, seed,
                                               record_trace=False, initial=initial)
            # repr compares every field bit for bit, NaN stderr included
            assert repr(summary) == repr(expected)


# horizon BATCHES * SLOT_CHUNK starts every batch-means group on a chunk start
@pytest.mark.parametrize("horizon", [1, 50, 2 * SLOT_CHUNK + 37, 3 * SLOT_CHUNK,
                                     BATCHES * SLOT_CHUNK])
@pytest.mark.parametrize("kind", RULE_KINDS + ["uniform-long"])
def test_simulate_replicas_equals_scalar_loop(kind, horizon):
    # fractional costs, so a change in the order of additions would show
    model = random_model(np.random.default_rng(17), n_states=3, n_contexts=2,
                         n_actions=4, success_prob=0.6)
    _assert_matches_scalar_loop(model, kind, greedy_decision_policy(model), horizon,
                                seeds=[3, 11, 3], initial=(2, 1, 1))


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_simulate_replicas_one_context_one_action(kind):
    model = random_model(np.random.default_rng(21), n_states=3, n_contexts=1,
                         n_actions=1, success_prob=0.5)
    _assert_matches_scalar_loop(model, kind, DecisionPolicy([0, 0, 0]), SLOT_CHUNK + 5,
                                seeds=[0, 1], initial=(1, 0, 0))


def test_simulate_replicas_draws_a_chunk_at_a_time(monkeypatch):
    # no engine asks a stream for more than a chunk of numbers, whatever the horizon
    model = random_model(np.random.default_rng(17), n_states=3, n_contexts=2,
                         n_actions=4, success_prob=0.6)
    requests = []
    default_rng = np.random.default_rng

    class RecordingStream:
        def __init__(self, seed):
            self.stream = default_rng(seed)

        def random(self, size):
            requests.append(size)
            return self.stream.random(size)

    monkeypatch.setattr(np.random, "default_rng", RecordingStream)
    _assert_matches_scalar_loop(model, "uniform", greedy_decision_policy(model),
                                5 * SLOT_CHUNK + 3, seeds=[3, 11], initial=(2, 1, 1))
    assert requests and max(requests) <= SLOT_CHUNK


def _assert_trace_matches_record_loop(tmp_path, model, rule, decision, horizon, seed,
                                      initial, state_values=None):
    """Columnar trace against the record-building loop: ``trace.csv`` byte for
    byte, the summary by ``repr``, and an untraced run's summary likewise."""
    trace, summary = simulate_closed_loop(model, rule, decision, horizon, seed,
                                          initial=initial, state_values=state_values)
    records, expected = simulate_records(model, rule, decision, horizon, seed,
                                         initial=initial, state_values=state_values)
    _, untraced = simulate_closed_loop(model, rule, decision, horizon, seed,
                                       record_trace=False, initial=initial)
    assert len(trace) == horizon
    assert repr(summary) == repr(expected) == repr(untraced)
    new = write_trace_csv(tmp_path / "columns.csv", trace).read_bytes()
    assert new == write_records_csv(tmp_path / "records.csv", records).read_bytes()


@pytest.mark.parametrize("horizon", [1, 2, 700])
@pytest.mark.parametrize("p_success", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("kind", RULE_KINDS)
def test_trace_equals_record_loop_on_random_models(tmp_path, kind, p_success, horizon):
    rng = np.random.default_rng(31)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=4, success_prob=p_success)
    state_values = rng.uniform(-2.0, 5.0, size=3)
    greedy = greedy_decision_policy(model)
    for rule in _rules(kind, model, greedy):
        _assert_trace_matches_record_loop(tmp_path, model, rule, greedy, horizon, seed=4,
                                          initial=(2, 1, 1), state_values=state_values)


def test_trace_equals_record_loop_hand_replay(tmp_path):
    # scripted transmissions over a perfect channel: every age resets and grows
    _assert_trace_matches_record_loop(tmp_path, cycle_model(), ScriptedRule(
        [0, 0, 1, 0, 1, 0, 0, 1] * 4), DecisionPolicy([0, 1, 2]), 32, seed=0,
        initial=(1, 2, 0))


@pytest.mark.parametrize("rows", [1, 7, 700])
def test_trace_csv_written_in_chunks_equals_record_writer(tmp_path, monkeypatch, shipped,
                                                         rows):
    monkeypatch.setattr(harness, "TRACE_CSV_ROWS", rows)
    model = shipped.model
    greedy = greedy_decision_policy(model)
    rule = StatePolicyRule(aoii_optimal_policy(model))
    trace, _ = simulate_closed_loop(model, rule, greedy, 700, seed=2)
    records, _ = simulate_records(model, rule, greedy, 700, seed=2)
    assert (write_trace_csv(tmp_path / "columns.csv", trace).read_bytes()
            == write_records_csv(tmp_path / "records.csv", records).read_bytes())


FLOAT_COLUMNS = {"aoii", "mse", "got", "cost"}


def test_packed_record_gives_the_record_loop_columns(shipped):
    # the loop keeps one int per slot; a rule may answer bool or int
    model = shipped.model
    greedy = greedy_decision_policy(model)
    script = [True, 0, 1, False, 1, True, 0, 0, 1, 1, False, True] * 30
    trace, _ = simulate_closed_loop(model, ScriptedRule(script), greedy, len(script), seed=9,
                                    initial=(1, 2, 0))
    records, _ = simulate_records(model, ScriptedRule(script), greedy, len(script), seed=9,
                                  initial=(1, 2, 0))
    for column in fields(Trace):
        values = [getattr(r, column.name) for r in records]
        if column.name == "h":
            values = [-1 if v is None else v for v in values]
        expected = np.array(values, dtype=float if column.name in FLOAT_COLUMNS else np.intp)
        got = getattr(trace, column.name)
        assert got.dtype == expected.dtype, column.name
        assert np.array_equal(got, expected), column.name


def _hand_built(columns):
    """A ``Trace`` of the given columns after ``t``, ``t`` counting slots."""
    length = len(columns["x"])
    return Trace(t=np.arange(length), **{name: np.asarray(v) for name, v in columns.items()})


def _assert_writes_as_csv_writer(tmp_path, trace):
    names = [column.name for column in fields(Trace)]
    records = [TraceRecord(**{name: None if name == "h" and v < 0 else v
                              for name, v in zip(names, row)})
               for row in zip(*(getattr(trace, name).tolist() for name in names))]
    assert (write_trace_csv(tmp_path / "columns.csv", trace).read_bytes()
            == write_records_csv(tmp_path / "records.csv", records).read_bytes())


@pytest.mark.parametrize("length", [1, 2, 700, TRACE_CSV_ROWS, TRACE_CSV_ROWS + 1])
def test_trace_csv_equals_csv_writer_on_hand_built_columns(tmp_path, length):
    rng = np.random.default_rng(length)

    def small(low, high):
        return rng.integers(low, high + 1, size=length)

    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1.5e308, 0.1 + 0.2]
    mse = rng.normal(size=length) * 10.0 ** rng.integers(-20, 20, size=length)
    mse[:len(specials)] = specials[:length]
    trace = _hand_built({
        "x": small(0, 2), "xhat": small(0, 2), "phi": small(0, 1), "a_s": small(0, 1),
        "a_a": small(-3, 3),                                # negative, range fits: offsets
        "h": small(-1, 1),
        "aoi": rng.integers(-2 ** 62, 2 ** 62, size=length),  # wider than the trace: unique
        "aos": small(-3 * length, 3 * length),
        "aoii": rng.normal(size=length),                    # thousands of distinct floats
        "aoci": small(1, 40), "mse": mse, "got": rng.choice([0.0, 0.5, 50.0], size=length),
        "cost": rng.uniform(-1e6, 1e6, size=length)})
    _assert_writes_as_csv_writer(tmp_path, trace)


def test_goal_cost_columns_are_coded_through_the_columns_they_follow(tmp_path, shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, _ = simulate_closed_loop(model, UniformRule(3), greedy, 2000, seed=5)
    codes, values, keyed = harness._column_codes(trace.mse, trace.x + 3 * trace.xhat)
    assert keyed and np.array_equal(np.array(values)[codes], trace.mse)
    # one -0.0 where (x, xhat) elsewhere gives 0.0: no longer a function of
    # them bit for bit, so the column is coded by its own bits
    mse = trace.mse.copy()
    mse[np.flatnonzero(trace.x == trace.xhat)[1]] = -0.0
    codes, values, keyed = harness._column_codes(mse, trace.x + 3 * trace.xhat)
    assert not keyed and np.array_equal(np.array(values)[codes], mse)
    assert not harness._column_codes(mse[:0], trace.x[:0])[2]
    _assert_writes_as_csv_writer(tmp_path, replace(trace, mse=mse))


def test_trace_csv_renumbers_a_key_past_the_radix_limit(tmp_path):
    # every column spans the trace, so the product of the ranges passes 2**62
    # before the last column, and rows differ in their first column only in
    # pairs: an overflowing key would lose that column and merge them
    length = 4096
    t = np.arange(length)
    pattern = (t // 2 % 2) * (length - 1)
    columns = {column.name: pattern for column in fields(Trace)[1:]}
    columns.update(x=t % 2 * (length - 1), **{name: pattern / 3 for name in FLOAT_COLUMNS})
    assert length ** 9 * 2 ** 4 > harness._KEY_LIMIT
    _assert_writes_as_csv_writer(tmp_path, _hand_built(columns))


def test_trace_equality_is_column_by_column(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, _ = simulate_closed_loop(model, UniformRule(2), greedy, 50, seed=1)
    same, _ = simulate_closed_loop(model, UniformRule(2), greedy, 50, seed=1)
    other, _ = simulate_closed_loop(model, UniformRule(3), greedy, 50, seed=1)
    assert trace == same and trace != other
    assert trace != "not a trace"
    # a sampled slot carries its draw, an idle one -1
    assert np.all((trace.h >= 0) == (trace.a_s == 1))


SWEPT = ("uniform", "age", "change", "aoii")


def test_sweep_csv_equals_per_replica_sweep(tmp_path, monkeypatch, shipped):
    model, sweep = shipped.model, shipped.sweep
    greedy = greedy_decision_policy(model)
    seeds = list(sweep.seeds)
    scalar = []
    for family in SWEPT:
        scalar += sweep_one_by_one(model, family, FAMILIES[family].grid(sweep), greedy, 300,
                                   seeds)
    want = write_sweep_csv(tmp_path / "scalar.csv", scalar).read_bytes()
    # the default batches the wide families only, 0 batches every family and
    # 10**9 runs every replica in the scalar loop
    for min_batch in (harness.MIN_BATCH_REPLICAS, 0, 10 ** 9):
        monkeypatch.setattr(harness, "MIN_BATCH_REPLICAS", min_batch)
        swept = []
        for family in SWEPT:
            swept += sweep_rate_vs_cost(model, family, FAMILIES[family].grid(sweep), greedy,
                                        300, seeds)
        assert write_sweep_csv(tmp_path / "swept.csv", swept).read_bytes() == want, min_batch


def test_narrow_sweep_families_run_in_the_scalar_loop(monkeypatch, shipped):
    batches = []
    def spy(model, rules, *args, **kwargs):
        batches.append(type(rules[0]).__name__)
        return simulate_replicas(model, rules, *args, **kwargs)
    monkeypatch.setattr(harness, "simulate_replicas", spy)
    model, sweep = shipped.model, shipped.sweep
    greedy = greedy_decision_policy(model)
    seeds = list(sweep.seeds)
    assert len(seeds) == 3 < harness.MIN_BATCH_REPLICAS
    for family in SWEPT:
        sweep_rate_vs_cost(model, family, FAMILIES[family].grid(sweep), greedy, 50, seeds)
    # the 3-replica change and aoii families never reach the batched engine
    assert batches == ["UniformRule", "AgeThresholdRule"]


def test_simulate_replicas_rejects_empty_and_bad_calls(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    with pytest.raises(ParameterError):
        simulate_replicas(model, [], greedy, 10, [0])
    with pytest.raises(ParameterError):
        simulate_replicas(model, [UniformRule(2)], greedy, 10, [])
    for horizon in (0, -1):
        with pytest.raises(ParameterError, match="horizon"):
            simulate_replicas(model, [UniformRule(2)], greedy, horizon, [0])
    with pytest.raises(ParameterError, match="one class, got AgeThresholdRule, UniformRule"):
        simulate_replicas(model, [UniformRule(2), AgeThresholdRule(2)], greedy, 10, [0])
    # a rule with only the scalar form runs in simulate_closed_loop alone
    with pytest.raises(ParameterError, match="ScriptedRule has no replica form"):
        simulate_replicas(model, [ScriptedRule([1] * 10)], greedy, 10, [0])
    with pytest.raises(ParameterError, match="grid point"):
        sweep_rate_vs_cost(model, "uniform", [], greedy, 10, [0])
    with pytest.raises(ParameterError, match="seed"):
        sweep_rate_vs_cost(model, "age", [1, 2], greedy, 10, [])


def test_compare_policies_dominance_and_rows(shipped):
    scenario = Scenario(name=shipped.name, model=shipped.model,
                        state_values=shipped.state_values, solver=shipped.solver,
                        simulation=shipped.simulation, sweep=shipped.sweep,
                        grid=GridConfig(success_probs=(0.8,), sampling_costs=(2.0,)),
                        document=shipped.document)
    rows, splits, failed = compare_policies(scenario, algorithm="jesp", include_classic=True)
    assert len(rows) == 5 and len(splits) == 1 and failed == []
    by_policy = {r["policy"]: r for r in rows}
    co = by_policy["got-codesign"]["cost"]
    assert co <= by_policy["aoii-optimal"]["cost"] + 1e-6
    assert co <= by_policy["mse-optimal"]["cost"] + 1e-6
    assert co <= by_policy["uniform-best"]["cost"] + 1e-6
    assert co <= by_policy["change-aware"]["cost"] + 1e-6


def test_compare_builds_kernels_once_per_cell_model(shipped, monkeypatch):
    from goaltensor import model as model_module
    monkeypatch.setattr(solvers, "CORES", 1)    # the spies count in this process
    builds = {"dense_kernels": [], "success_kernels": []}
    for name, models in builds.items():
        def spy(model, _build=getattr(model_module, name), _models=models):
            _models.append(model)           # kept alive, so ids stay distinct
            return _build(model)
        monkeypatch.setattr(model_module, name, spy)
    scenario = Scenario(name=shipped.name, model=shipped.model,
                        state_values=shipped.state_values, solver=shipped.solver,
                        simulation=shipped.simulation, sweep=shipped.sweep,
                        grid=GridConfig(success_probs=(0.8,), sampling_costs=(2.0, 4.0)),
                        document=shipped.document)
    rows, splits, failed = compare_policies(scenario, algorithm="jesp", include_classic=True)
    assert len(rows) == 10 and len(splits) == 2 and failed == []
    for name, models in builds.items():
        assert 1 <= len(models) <= 2, name
        assert len({id(model) for model in models}) == len(models), name


def test_optimality_gap_rows(shipped):
    scenario = Scenario(name=shipped.name, model=shipped.model,
                        state_values=shipped.state_values, solver=shipped.solver,
                        simulation=shipped.simulation, sweep=shipped.sweep,
                        grid=GridConfig(success_probs=(0.6,), sampling_costs=(0.0, 4.0)),
                        document=shipped.document)
    rows, failed = optimality_gap(scenario)
    assert len(rows) == 2 and failed == []
    for row in rows:
        assert row["gap"] >= -1e-6
        assert row["gap"] == pytest.approx(row["theta_jesp"] - row["theta_bf"], abs=0)


@pytest.fixture()
def three_workers(monkeypatch):
    """Three cell workers, more than the cores of a small machine."""
    monkeypatch.setattr(solvers, "CORES", 3)


def _nested_calls(i):
    # a pool_map call inside a forked worker runs in that worker's process
    # and thread
    here = os.getpid(), threading.get_ident()
    nested = solvers.pool_map(lambda _: (os.getpid(), threading.get_ident()), range(4), 3)
    return i, here[0], set(nested) == {here}


def test_pool_map_forks_results_in_order_from_worker_processes(three_workers):
    parent = os.getpid()
    results = solvers.pool_map(_nested_calls, range(7), solvers.CORES)
    assert [i for i, _, _ in results] == list(range(7))
    assert parent not in {pid for _, pid, _ in results}
    assert all(nested_in_place for _, _, nested_in_place in results)
    assert_no_child_process()
    # one item runs here
    assert solvers.pool_map(lambda i: os.getpid(), [0], solvers.CORES) == [parent]


def test_brute_force_and_sampler_batches_start_no_pool(shipped, monkeypatch):
    # every piece of a batch, screened or solved, runs in the calling thread,
    # whatever the cores and whoever asks
    calls, real = [], solvers.pool_map

    def spy(fn, items, workers):
        calls.append(workers)
        return real(fn, items, workers)

    monkeypatch.setattr(solvers, "pool_map", spy)
    for cores in (1, 2, 8):
        monkeypatch.setattr(solvers, "CORES", cores)
        solvers.brute_force_joint(shipped.model)
    mdp = induced_mdp(shipped.model, DecisionPolicy([0, 3, 7]))
    for count in (127, 128, 300):
        solvers.solve_mdps(np.repeat(mdp.transitions[None], count, axis=0),
                           np.repeat(mdp.rewards[None], count, axis=0), 1e-6, 100, "mdp")
    assert calls == []


@pytest.mark.parametrize("workers", [1, 3])
def test_unexpected_cell_error_reaches_the_caller(shipped, monkeypatch, workers):
    monkeypatch.setattr(solvers, "CORES", workers)
    real = solvers.jesp_search

    def boom_on_cs4(model, *args, **kwargs):
        if model.cost.sampling_cost == 4.0:
            raise RuntimeError("boom")
        return (yield from real(model, *args, **kwargs))

    monkeypatch.setattr(solvers, "jesp_search", boom_on_cs4)
    scenario = replace(shipped, grid=GridConfig(success_probs=(0.8,),
                                                sampling_costs=(2.0, 4.0, 6.0)))
    with pytest.raises(RuntimeError, match="^boom$"):
        optimality_gap(scenario)
    assert_no_child_process()


def test_jesp_grid_cells_run_in_this_process(shipped, three_workers, monkeypatch):
    pids, real = [], solvers.jesp_search

    def spy(model, *args, **kwargs):
        pids.append(os.getpid())
        return (yield from real(model, *args, **kwargs))

    monkeypatch.setattr(solvers, "jesp_search", spy)
    scenario = replace(shipped, grid=GridConfig(success_probs=(0.8,),
                                                sampling_costs=(2.0, 4.0)))
    compare_policies(scenario, algorithm="jesp")
    assert pids == [os.getpid()] * 2


def _bundled_three_cells(shipped):
    return replace(shipped, grid=GridConfig(success_probs=(0.6,),
                                            sampling_costs=(0.0, 2.0, 4.0)))


def _generated_two_cells(shipped):
    # N = 48 and 1,296 candidates, the shape of exact-large's generated documents
    model = random_model(np.random.default_rng(7), n_states=4, n_contexts=3, n_actions=6)
    return replace(shipped, model=model, state_values=np.arange(4.0),
                   grid=GridConfig(success_probs=(0.6,), sampling_costs=(0.5, 1.0)))


@pytest.mark.parametrize("study, grid", [
    ("gap", _generated_two_cells),
    ("compare-brute", _bundled_three_cells),
], ids=["gap-48", "compare-brute-18"])
def test_grid_csvs_do_not_depend_on_the_worker_count(tmp_path, shipped, monkeypatch,
                                                     study, grid):
    scenario = grid(shipped)
    digests = []
    for workers in (1, 3):
        monkeypatch.setattr(solvers, "CORES", workers)
        out = tmp_path / str(workers)
        out.mkdir()
        if study == "gap":
            rows, failed = optimality_gap(scenario)
            paths = [write_gap_csv(out / "gap.csv", rows)]
        else:
            rows, splits, failed = compare_policies(scenario, algorithm="brute",
                                                    include_classic=True)
            paths = [write_compare_csv(out / "compare.csv", rows),
                     write_decomp_csv(out / "decomp.csv", splits)]
        assert failed == [] and rows
        digests.append([path.read_bytes() for path in paths])
        assert_no_child_process()
    assert digests[0] == digests[1]


def test_resource_shift_as_channel_degrades():
    # the optimal pair trades transmission spend for actuation spend as the
    # channel worsens: compare the grid endpoints at a fixed sampling charge
    from goaltensor.benchmarks import evaluate_state_policy
    from goaltensor.scenario import default_scenario
    from goaltensor.solvers import brute_force_joint
    splits = {}
    for p_success in (0.2, 1.0):
        scenario = default_scenario(success_prob=p_success, sampling_cost=2.0)
        bf = brute_force_joint(scenario.model)
        splits[p_success] = evaluate_state_policy(
            scenario.model, bf.sampling_policy, bf.decision_policy)
    assert splits[0.2].sampling <= splits[1.0].sampling + 1e-9
    assert splits[0.2].actuation >= splits[1.0].actuation - 1e-9


def test_cost_decomposition_dispatch(shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, summary = simulate_closed_loop(model, UniformRule(3), greedy, 5_000,
                                          seed=6)
    # the trace's sampling charge and goal cost columns split the same cost
    assert float(np.mean(trace.cost - trace.got)) + float(np.mean(trace.got)) == \
        pytest.approx(summary.average_cost, abs=1e-9)
    from goaltensor.benchmarks import evaluate_uniform
    exact = evaluate_uniform(model, 3, greedy)
    assert sum(exact.decomposition.values()) == pytest.approx(exact.average_cost, abs=1e-12)


def test_trace_csv_layout(tmp_path, shipped):
    model = shipped.model
    greedy = greedy_decision_policy(model)
    trace, _ = simulate_closed_loop(model, UniformRule(2), greedy, 100, seed=3)
    path = write_trace_csv(tmp_path / "trace.csv", trace)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_HEADER)
    assert len(lines) == 101
    # the channel column is blank exactly on idle slots
    for line, a_s in zip(lines[1:], trace.a_s):
        fields = line.split(",")
        assert (fields[6] == "") == (a_s == 0)


def test_csv_headers_exact(tmp_path):
    assert write_sweep_csv(tmp_path / "s.csv", []).read_text().splitlines() == \
        ["policy,param,rate,cost,stderr"]
    assert write_compare_csv(tmp_path / "c.csv", []).read_text().splitlines() == \
        ["pS,CS,policy,cost"]
    assert write_gap_csv(tmp_path / "g.csv", []).read_text().splitlines() == \
        ["pS,CS,theta_bf,theta_jesp,gap"]
    assert write_decomp_csv(tmp_path / "d.csv", []).read_text().splitlines() == \
        ["pS,CS,sampling,actuation,inherent"]


# ---------------------------------------------------------------------------
# brute force's screen across a grid's cells


def _report_key(report):
    """What a brute-force report gives a grid CSV, to the bit."""
    return repr((report.average_reward, report.residual,
                 report.sampling_policy.decisions.tolist(),
                 report.decision_policy.actions.tolist()))


def _solved_in_full(cell):
    """``oracles.exhaustive_brute_force`` on ``cell`` with its solver settings."""
    solver = cell.solver
    return exhaustive_brute_force(cell.model, solver.epsilon, solver.max_pi_rounds,
                                  cell.start_state)


def _unpruned(solve=_solved_in_full):
    """``harness._grid_brute`` on the unpruned path: every distinct cell solved
    in full by ``solve(cell)``, in this process."""
    def grid_brute(scenario, cells):
        return {(p_success, sampling_cost): harness._attempt(lambda: solve(cell))
                for p_success, sampling_cost, cell in cells}
    return grid_brute


def _spied_grid_brute(monkeypatch, grid_brute=None):
    """Route ``harness._grid_brute`` through ``grid_brute`` (the real one by
    default) and return the list it records each call in: (cells, outcomes
    by (pS, CS))."""
    calls, real = [], grid_brute or harness._grid_brute

    def spy(scenario, cells):
        outcomes = real(scenario, cells)
        calls.append((cells, outcomes))
        return outcomes

    monkeypatch.setattr(harness, "_grid_brute", spy)
    return calls


def _grid_studies(scenario):
    """Both brute-force grid studies' rows and failures, as text."""
    return repr((optimality_gap(scenario),
                 compare_policies(scenario, algorithm="brute", include_classic=True)))


def _solved(calls):
    """Candidates solved per cell, by call of ``_grid_brute``, from its reports."""
    return [{key: report.diagnostics["candidates_evaluated"]
             for key, (ok, report) in outcomes.items() if ok} for _, outcomes in calls]


def _against_unpruned_path(monkeypatch, scenario, solve=_solved_in_full):
    """The grid studies of ``scenario`` as they run, then on the unpruned path
    (through ``solve``): both, as (studies, brute force's report keys by
    cell, ``_grid_brute``'s calls)."""
    sides = []
    for grid_brute in (None, _unpruned(solve)):
        with monkeypatch.context() as patch:
            calls = _spied_grid_brute(patch, grid_brute)
            reports = {}
            studies = _grid_studies(scenario)
            for _, outcomes in calls:
                for key, (ok, report) in outcomes.items():
                    if ok:
                        reports.setdefault(key, set()).add(_report_key(report))
            sides.append((studies, reports, calls))
    return sides


def _assert_pruned_equals_unpruned(sides):
    """The pruned side's rows and reports are the unpruned side's, and only
    the pruned side skipped candidates."""
    (pruned, pruned_reports, calls), (unpruned, unpruned_reports, full_calls) = sides
    assert pruned == unpruned
    assert pruned_reports == unpruned_reports
    solved = [n for cells in _solved(calls) for n in cells.values()]
    full = [n for cells in _solved(full_calls) for n in cells.values()]
    assert len(set(full)) == 1 and sum(solved) < sum(full)


def test_anchor_gains_bound_every_cell_of_the_bundled_grid(grid_solutions):
    # as does every cell's gain every cell it dominates
    for (p, c), (scenario, bf, _) in grid_solutions.items():
        gains = bf.diagnostics["candidate_gains"]
        assert gains.shape == (11 ** 3,) and np.isfinite(gains).all()
        for (p_up, c_up), (_, dominating, _) in grid_solutions.items():
            if p_up >= p and c_up <= c:
                ceiling = dominating.diagnostics["candidate_gains"]
                assert (gains <= ceiling + scenario.solver.epsilon).all(), (p, c, p_up, c_up)


def test_pruned_grid_studies_equal_the_unpruned_path_on_the_bundled_grid(monkeypatch, shipped,
                                                                         grid_solutions):
    def unpruned(cell):
        # the fixture's solves: every candidate, the scenario's solver settings
        return grid_solutions[cell.model.channel.success_prob, cell.model.cost.sampling_cost][1]

    sides = _against_unpruned_path(monkeypatch, shipped, unpruned)
    _assert_pruned_equals_unpruned(sides)
    assert len(sides[0][1]) == 30
    # gap, then compare: fewer candidates solved than the anchor's bound with
    # a running incumbent solved (11,992 and 12,458)
    gap, compare = (sum(cells.values()) for cells in _solved(sides[0][2]))
    assert gap < 11_992 and compare < 12_458


@pytest.mark.parametrize("seed", range(4))
def test_anchor_gains_bound_random_grids_and_pruning_keeps_their_rows(monkeypatch, shipped,
                                                                      seed):
    rng = np.random.default_rng(300 + seed)
    model = random_model(rng, n_states=3, n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(2, 5)))
    scenario = replace(shipped, model=model, state_values=np.arange(3.0),
                       grid=GridConfig(success_probs=(0.3, 1.0, 0.65),
                                       sampling_costs=(2.0, 0.0, 0.7)))
    sides = _against_unpruned_path(monkeypatch, scenario)
    _assert_pruned_equals_unpruned(sides)
    _assert_skips_follow_the_rule(scenario, sides)


def _assert_skips_follow_the_rule(scenario, sides):
    """On every cell of the pruned side: the anchor's gains bound the cell's;
    the cell skips what ``oracles.whole_cell_skips`` skips, with its bounds;
    and no bound is below its candidate's gain.  Returns, per grid study,
    the most screen rounds a cell ran."""
    epsilon = scenario.solver.epsilon
    anchor = max(scenario.grid.success_probs), min(scenario.grid.sampling_costs)
    rounds = []
    for (cells, outcomes), (_, full) in zip(sides[0][2], sides[1][2]):
        rounds.append(0)
        models = {(p, c): cell.model for p, c, cell in cells}
        for key, (_, report) in outcomes.items():
            true_gains = full[key][1].diagnostics["candidate_gains"]
            assert (true_gains <= full[anchor][1].diagnostics["candidate_gains"]
                    + epsilon).all(), key
            gains, bounds = (report.diagnostics["candidate_gains"],
                             report.diagnostics["candidate_bounds"])
            skipped = np.isnan(gains)
            rule = whole_cell_skips(models[key], epsilon)
            assert np.array_equal(skipped, rule.skipped), key
            assert bounds.tobytes() == rule.bounds.tobytes(), key
            rounds[-1] = max(rounds[-1], len(rule.screened))
            assert (true_gains <= bounds).all(), key
            assert np.array_equal(gains[~skipped], true_gains[~skipped]), key
    return rounds


@pytest.mark.parametrize("seed", range(3))
def test_one_cell_grids_screen_against_their_floor(monkeypatch, shipped, seed):
    rng = np.random.default_rng(320 + seed)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=int(rng.integers(3, 5)))
    scenario = replace(shipped, model=model, state_values=np.arange(3.0),
                       grid=GridConfig(success_probs=(0.65,), sampling_costs=(0.7,)))
    sides = _against_unpruned_path(monkeypatch, scenario)
    _assert_pruned_equals_unpruned(sides)
    _assert_skips_follow_the_rule(scenario, sides)


@pytest.mark.parametrize("seed", range(3))
def test_one_cell_grids_run_every_screen_round(monkeypatch, shipped, seed):
    # enough decision tables that more than one survives each of the first
    # three screen rounds, in gap and in compare
    rng = np.random.default_rng(340 + seed)
    model = random_model(rng, n_states=3, n_contexts=2, n_actions=6)
    scenario = replace(shipped, model=model, state_values=np.arange(3.0),
                       grid=GridConfig(success_probs=(0.65,), sampling_costs=(0.7,)))
    sides = _against_unpruned_path(monkeypatch, scenario)
    _assert_pruned_equals_unpruned(sides)
    assert _assert_skips_follow_the_rule(scenario, sides) == [4, 4]


def test_pruning_keeps_the_first_of_exactly_tied_winners(monkeypatch, shipped):
    # actuations 1 and 2 are the same in every respect, so a decision table
    # and its copy with 1 and 2 swapped tie to the bit
    model = random_model(np.random.default_rng(11), n_states=3, n_contexts=2, n_actions=3)
    src = model.source.probs.copy()
    src[:, :, 2] = src[:, :, 1]
    cost = replace(model.cost, gain=model.cost.gain[[0, 1, 1]],
                   expenditure=model.cost.expenditure[[0, 1, 1]])
    model = replace(model, source=SourceDynamics(src), cost=cost)
    scenario = replace(shipped, model=model, state_values=np.arange(3.0),
                       grid=GridConfig(success_probs=(0.5, 1.0), sampling_costs=(0.0, 1.5)))
    sides = _against_unpruned_path(monkeypatch, scenario)
    _assert_pruned_equals_unpruned(sides)
    tied = 0
    for _, _, cell in harness._cell_scenarios(scenario, scenario.grid):
        report = harness.solve_cell(cell, "brute")
        gains = _solved_in_full(cell).diagnostics["candidate_gains"]
        winners = np.flatnonzero(gains == gains.max())
        # the screen keeps every winner and solves it
        assert np.isin(winners, np.flatnonzero(~np.isnan(
            report.diagnostics["candidate_gains"]))).all()
        tied += winners.size > 1
        first = np.unravel_index(winners[0], (3, 3, 3))
        assert report.decision_policy.actions.tolist() == list(first)
    assert tied == 4                        # every cell's winner has a twin


def test_cells_failing_their_checks_fail_alike(monkeypatch, shipped):
    # a budget below 11^3 fails every cell before any solve
    scenario = replace(shipped, solver=replace(shipped.solver, budget=1000),
                       grid=GridConfig(success_probs=(0.6, 0.8), sampling_costs=(2.0, 4.0)))
    message = "11^3 = 1331 decision policies exceed the enumeration budget 1000"
    failed = [(p, c, message) for p in (0.6, 0.8) for c in (2.0, 4.0)]
    assert optimality_gap(scenario) == ([], failed)
    assert compare_policies(scenario, algorithm="brute") == ([], [], failed)
    assert_no_child_process()


def _failing_candidates(monkeypatch, cell, candidates):
    """Make brute force at ``cell`` (pS, CS) fail for each of ``candidates``
    (enumeration indices) that it solves: a search raises, as a failing
    member does, for the lowest of them among what it solved."""
    real = solvers.brute_force_search

    def search(model, *args, **kwargs):
        steps = real(model, *args, **kwargs)
        if (model.channel.success_prob, model.cost.sampling_cost) != cell:
            return steps

        def failing():
            report = yield from steps
            gains = report.diagnostics["candidate_gains"]
            hit = [k for k in candidates if not np.isnan(gains[k])]
            if hit:
                raise NonConvergenceError(f"candidate {min(hit)} forced failure",
                                          candidate=min(hit))
            return report
        return failing()

    monkeypatch.setattr(solvers, "brute_force_search", search)


@pytest.mark.parametrize("cell", [(1.0, 0.0), (0.6, 4.0)], ids=["anchor", "inner"])
def test_a_failed_grid_cell_fails_alone(monkeypatch, shipped, cell):
    scenario = _small_grid(shipped, sampling_costs=(0.0, 4.0, 10.0))
    with monkeypatch.context() as patch:
        _spied_grid_brute(patch, _unpruned())
        want = optimality_gap(scenario)
    with monkeypatch.context() as patch:
        calls = _spied_grid_brute(patch)
        assert optimality_gap(scenario) == want
    solved_alone, = _solved(calls)
    kept = np.flatnonzero(~np.isnan(calls[0][1][cell][1].diagnostics["candidate_gains"]))
    assert kept[0] > 0
    # every table fails: the cell's error names the lowest its rounds keep,
    # not a lower one they skip
    runs = []
    for cores in (1, 3):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "CORES", cores)
            _failing_candidates(patch, cell, range(11 ** 3))
            failing_calls = _spied_grid_brute(patch)
            runs.append((optimality_gap(scenario), _solved(failing_calls)))
            assert_no_child_process()
    (rows, failed), solved = runs[0]
    assert runs[1] == runs[0]
    assert failed == [cell + (f"candidate {kept[0]} forced failure",)]
    assert rows == [row for row in want[0] if (row["pS"], row["CS"]) != cell]
    # the other cells solve what they solve when none fails
    assert solved == [{key: n for key, n in solved_alone.items() if key != cell}]


def test_permuted_and_repeated_grid_values_pick_the_same_anchor(monkeypatch, shipped):
    sorted_grid = replace(shipped, grid=GridConfig(success_probs=(0.2, 0.6, 1.0),
                                                   sampling_costs=(0.0, 10.0)))
    permuted = replace(shipped, grid=GridConfig(success_probs=(0.6, 1.0, 0.2, 1.0),
                                                sampling_costs=(10.0, 0.0)))
    reports = []
    for scenario in (sorted_grid, permuted):
        with monkeypatch.context() as patch:
            calls = _spied_grid_brute(patch)
            rows, failed = optimality_gap(scenario)
        (_, outcomes), = calls
        reports.append({key: (_report_key(report), report.diagnostics["candidates_evaluated"])
                        for key, (_, report) in outcomes.items()})
    assert reports[0] == reports[1] and len(reports[0]) == 6
    # the anchor, (max pS, min CS), skips what its screen rounds prove below
    # the target they raise
    rule = whole_cell_skips(shipped.with_channel(1.0).with_sampling_cost(0.0).model,
                            shipped.solver.epsilon)
    assert reports[0][1.0, 0.0][1] == np.count_nonzero(~rule.skipped) < 11 ** 3
    assert failed == [] and [(r["pS"], r["CS"]) for r in rows] == [
        (p, c) for p in (0.6, 1.0, 0.2, 1.0) for c in (10.0, 0.0)]
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_grid_brute", _unpruned())
        assert optimality_gap(permuted) == (rows, failed)


def test_the_screen_leaves_few_decision_tables_to_solve(monkeypatch, shipped):
    # unscreened: 3,010 on this grid, and 6 x 1,296 on the generated cells
    with monkeypatch.context() as patch:
        calls = _spied_grid_brute(patch)
        optimality_gap(_small_grid(shipped, sampling_costs=(0.0, 10.0)))
    assert sum(_solved(calls)[0].values()) < 3010
    # documents 0-5 at pS = 0.6 and 1.0 by turns, CS = 0.5, as a benchmark
    # round orders them
    with monkeypatch.context() as patch:
        calls = _spied_grid_brute(patch)
        for gen in range(6):
            scenario = generated_scenario(gen)
            optimality_gap(replace(scenario, grid=GridConfig(
                success_probs=((0.6, 1.0)[gen % 2],), sampling_costs=(0.5,))))
    solved = [n for cells in _solved(calls) for n in cells.values()]
    assert len(solved) == 6 and sum(solved) <= 1600


def test_screen_rounds_leave_few_tables_where_the_floor_is_far_below_the_optimum(monkeypatch):
    # documents 1 and 3 at pS = 0.6, CS = 0.5: jesp's reward sits 0.081 and
    # 0.125 below the optimum, and a floor at it alone would leave 732 and
    # 693 of the 1,296 tables to solve
    for gen in (1, 3):
        scenario = generated_scenario(gen)
        with monkeypatch.context() as patch:
            calls = _spied_grid_brute(patch)
            rows, failed = optimality_gap(replace(scenario, grid=GridConfig(
                success_probs=(0.6,), sampling_costs=(0.5,))))
        (solved,), = (cells.values() for cells in _solved(calls))
        assert failed == [] and solved <= 2, gen
        assert rows[0]["theta_jesp"] - rows[0]["theta_bf"] > 0.08, gen


def test_brute_grid_checks_cells_here_and_searches_each_whole_in_a_worker(
        monkeypatch, shipped, three_workers, tmp_path):
    real, log = solvers.brute_force_search, tmp_path / "searches"
    checked = []

    def spy(model, *args, **kwargs):
        cell = model.channel.success_prob, model.cost.sampling_cost
        checked.append((os.getpid(), cell))
        steps = real(model, *args, **kwargs)

        def logged():
            with open(log, "a") as fh:
                fh.write(repr((os.getpid(), cell)) + "\n")
            return (yield from steps)
        return logged()

    monkeypatch.setattr(solvers, "brute_force_search", spy)
    rows, failed = optimality_gap(_small_grid(shipped))
    assert len(rows) == 6 and failed == []
    cells = [(p, c) for p in (0.2, 0.6, 1.0) for c in (0.0, 4.0)]
    # each cell is checked here, in grid order
    assert checked == [(os.getpid(), cell) for cell in cells]
    # then searched once, whole, on one of three workers
    searched = [eval(line) for line in log.read_text().splitlines()]
    assert sorted(cell for _, cell in searched) == cells
    pids = {pid for pid, _ in searched}
    assert os.getpid() not in pids and len(pids) <= 3
    assert_no_child_process()


def test_grid_brute_force_warns_once_per_cell_whatever_the_worker_count(monkeypatch, shipped):
    scenario = _random_grid(shipped, 2)
    cells = {(p, c): cell for p, c, cell in harness._cell_scenarios(scenario, scenario.grid)}
    start_dependent = sum(len(solvers.closed_classes(cell.model.kernels[1, 0])) != 1
                          for cell in cells.values())
    assert len(cells) == 9 and start_dependent > 0
    for cores in (1, 3):
        monkeypatch.setattr(solvers, "CORES", cores)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compare_policies(scenario, algorithm="brute")
        assert [str(w.message).startswith("reference chain") for w in caught] == [
            True] * start_dependent
        assert_no_child_process()


@pytest.mark.parametrize("grid", [(GRID_PS, GRID_CS), ((0.6, 1.0, 0.2, 1.0), (10.0, 0.0))],
                         ids=["bundled", "permuted"])
def test_grid_brute_force_does_not_depend_on_the_worker_count(tmp_path, shipped, monkeypatch,
                                                              grid):
    scenario = replace(shipped, grid=GridConfig(success_probs=grid[0], sampling_costs=grid[1]))
    runs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(solvers, "CORES", cores)
        out = tmp_path / str(cores)
        out.mkdir()
        with monkeypatch.context() as patch:
            calls = _spied_grid_brute(patch)
            gap, failed_gap = optimality_gap(scenario)
            rows, splits, failed = compare_policies(scenario, algorithm="brute",
                                                    include_classic=True)
        assert failed_gap == failed == []
        paths = [write_gap_csv(out / "gap.csv", gap), write_compare_csv(out / "compare.csv", rows),
                 write_decomp_csv(out / "decomp.csv", splits)]
        runs.append(([path.read_bytes() for path in paths], _solved(calls)))
        assert_no_child_process()
    assert runs[0] == runs[1] == runs[2]


# ---------------------------------------------------------------------------
# work that the cells of a grid study share, computed once per grid or row


def _small_grid(scenario, success_probs=(0.2, 0.6, 1.0), sampling_costs=(0.0, 4.0)):
    return replace(scenario, grid=GridConfig(success_probs=success_probs,
                                             sampling_costs=sampling_costs))


def _random_grid(shipped, seed):
    rng = np.random.default_rng(600 + seed)
    model = random_model(rng, n_states=3, n_contexts=int(rng.integers(1, 3)),
                         n_actions=int(rng.integers(2, 5)))
    return replace(shipped, model=model, state_values=np.arange(3.0),
                   grid=GridConfig(success_probs=(0.45, 0.0, 1.0),
                                   sampling_costs=(2.5, 0.0, 40.0, 2.5)))


@pytest.mark.parametrize("study", [
    ("bundled", "jesp", True), ("bundled", "jesp", False), ("bundled-small", "brute", True),
    (0, "jesp", True), (1, "jesp", True), (2, "brute", True)],
    ids=["bundled-jesp", "bundled-jesp-no-classic", "bundled-brute", "random-0-jesp",
         "random-1-jesp", "random-2-brute"])
def test_compare_equals_the_cell_by_cell_oracle(monkeypatch, shipped, study):
    case, algorithm, include_classic = study
    monkeypatch.setattr(solvers, "CORES", 1)
    scenario = {"bundled": shipped, "bundled-small": _small_grid(shipped)}.get(case)
    if scenario is None:
        scenario = _random_grid(shipped, case)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = compare_policies(scenario, algorithm=algorithm, include_classic=include_classic)
        want = compare_cell_by_cell(scenario, algorithm, include_classic)
    assert got[2] == [] and got[0]
    assert repr(got) == repr(want)
    # random model 2's reference chain has several closed classes: brute
    # force warns that its gains may depend on the start state; nothing else
    # warns
    assert {(w.category, str(w.message).split(";")[0]) for w in caught} == (
        {(UserWarning, "reference chain (always sample, lowest actuation) is not unichain")}
        if case == 2 else set())


def _count_calls(monkeypatch, module, name, record):
    """Patch ``module.name`` (and every harness binding of it) with a spy that
    appends ``record(*args, **kwargs)`` to the returned list."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    if getattr(harness, name, None) is real:
        monkeypatch.setattr(harness, name, spy)
    return calls


def test_compare_computes_shared_work_once_per_grid_and_row(monkeypatch, shipped):
    from goaltensor import benchmarks
    monkeypatch.setattr(solvers, "CORES", 1)        # the spies count in this process
    p_of = lambda model, *args, **kwargs: model.channel.success_prob    # noqa: E731
    seeds = _count_calls(monkeypatch, solvers, "heuristic_initial_decision", p_of)
    greedy = _count_calls(monkeypatch, solvers, "greedy_decision_policy", p_of)
    uniform = _count_calls(monkeypatch, benchmarks, "evaluate_uniform_periods", p_of)
    change = _count_calls(monkeypatch, benchmarks, "evaluate_change_aware", p_of)
    pairs = _count_calls(
        monkeypatch, benchmarks, "evaluate_state_policy",
        lambda model, sampling, decision, start=0: (
            model.channel.success_prob, sampling.decisions.tobytes(),
            decision.actions.tobytes()))
    mse = _count_calls(
        monkeypatch, benchmarks, "mse_optimal_policy",
        lambda model, *args, sampling_costs=None, **kwargs: (
            model.channel.success_prob, sampling_costs))
    rows, splits, failed = compare_policies(shipped, algorithm="jesp", include_classic=True)
    assert len(rows) == 30 * 5 and failed == []
    ps, cs = shipped.grid.success_probs, list(shipped.grid.sampling_costs)
    assert len(seeds) == 1 and len(greedy) == 1
    # each CS-free baseline once per pS row, the MSE samplers in one batch per row
    assert uniform == list(ps) and change == list(ps)
    assert mse == [(p, cs) for p in ps]
    # each (pS, sampling policy, decision policy) law once: aoii-optimal's,
    # mse-optimal's distinct policies, and the distinct solved pairs
    assert len(pairs) == len(set(pairs))
    aoii = (aoii_optimal_policy(shipped.model).decisions.tobytes(),
            greedy_decision_policy(shipped.model).actions.tobytes())
    assert [p for p, *pair in pairs if tuple(pair) == aoii] == list(ps)
    assert len(pairs) < 30 * 3
    # gap computes jesp's seed once, too
    seeds.clear()
    rows, failed = optimality_gap(_small_grid(shipped))
    assert len(rows) == 6 and failed == [] and len(seeds) == 1


def _file_spy(monkeypatch, module, name, path):
    """Patch ``module.name`` with a spy that appends its process id to ``path``,
    which forked workers share."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def test_forked_cells_inherit_the_grid_wide_work(monkeypatch, shipped, three_workers, tmp_path):
    _file_spy(monkeypatch, solvers, "greedy_decision_policy", tmp_path / "greedy")
    _file_spy(monkeypatch, solvers, "heuristic_initial_decision", tmp_path / "seed")
    scenario = _small_grid(shipped, sampling_costs=(0.0, 2.0, 4.0))
    rows, splits, failed = compare_policies(scenario, algorithm="brute")
    assert len(splits) == 9 and failed == []
    assert (tmp_path / "greedy").read_text() == f"{os.getpid()}\n"
    rows, failed = optimality_gap(scenario)
    assert len(rows) == 9 and failed == []
    assert (tmp_path / "seed").read_text() == f"{os.getpid()}\n"
    assert_no_child_process()


def test_forked_compare_computes_each_rows_baselines_in_the_parent(monkeypatch, shipped,
                                                                   tmp_path):
    from goaltensor import benchmarks
    monkeypatch.setattr(solvers, "CORES", 2)
    _file_spy(monkeypatch, benchmarks, "evaluate_change_aware", tmp_path / "change")
    _file_spy(monkeypatch, benchmarks, "mse_optimal_policy", tmp_path / "mse")
    scenario = _small_grid(shipped, sampling_costs=(0.0, 4.0, 10.0))
    rows, splits, failed = compare_policies(scenario, algorithm="brute", include_classic=True)
    assert len(splits) == 9 and failed == []
    # one change-aware evaluation and one batch of MSE samplers per row, all here
    parent = f"{os.getpid()}\n"
    assert (tmp_path / "change").read_text() == parent * 3
    assert (tmp_path / "mse").read_text() == parent * 3
    assert_no_child_process()


def _failing_at(real, message, fails):
    def patched(model, *args, **kwargs):
        if fails(model, *args, **kwargs):
            raise NonConvergenceError(message)
        return real(model, *args, **kwargs)
    return patched


@pytest.mark.parametrize("algorithm", ["jesp", "brute"])
def test_a_baseline_failing_at_one_success_probability_fails_that_row(monkeypatch, shipped,
                                                                     algorithm):
    from goaltensor import benchmarks
    monkeypatch.setattr(solvers, "CORES", 1)
    scenario = _small_grid(shipped)
    whole = compare_policies(scenario, algorithm=algorithm, include_classic=True)
    message = "change-aware chain did not settle"
    monkeypatch.setattr(benchmarks, "evaluate_change_aware", _failing_at(
        benchmarks.evaluate_change_aware, message,
        lambda model, *args: model.channel.success_prob == 0.6))
    rows, splits, failed = compare_policies(scenario, algorithm=algorithm, include_classic=True)
    assert failed == [(0.6, 0.0, message), (0.6, 4.0, message)]
    assert rows == [row for row in whole[0] if row["pS"] != 0.6]
    assert splits == [split for split in whole[1] if split["pS"] != 0.6]
    assert repr((rows, splits, failed)) == repr(
        compare_cell_by_cell(scenario, algorithm, include_classic=True))


def test_a_failed_mse_batch_falls_back_to_each_cells_own_solve(monkeypatch, shipped):
    from goaltensor import benchmarks
    monkeypatch.setattr(solvers, "CORES", 1)
    scenario = _small_grid(shipped, sampling_costs=(0.0, 4.0, 10.0))
    whole = compare_policies(scenario)
    # the batch of every row holds CS = 4, whose solve alone fails too
    message = "squared-error sampler MDP still changing policy after 1 policy-iteration rounds"
    real = benchmarks.mse_optimal_policy
    monkeypatch.setattr(benchmarks, "mse_optimal_policy", _failing_at(
        real, message, lambda model, *args, sampling_costs=None: 4.0 in (
            sampling_costs or [model.cost.sampling_cost])))
    rows, splits, failed = compare_policies(scenario)
    assert failed == [(p, 4.0, message) for p in (0.2, 0.6, 1.0)]
    assert rows == [row for row in whole[0] if row["CS"] != 4.0]
    assert repr((rows, splits, failed)) == repr(compare_cell_by_cell(scenario))


def test_forked_compare_falls_back_to_each_cells_own_solve_once(monkeypatch, shipped,
                                                                tmp_path):
    from goaltensor import benchmarks
    monkeypatch.setattr(solvers, "CORES", 2)
    scenario = _small_grid(shipped, sampling_costs=(0.0, 4.0, 10.0))
    message = "squared-error sampler MDP still changing policy after 1 policy-iteration rounds"
    monkeypatch.setattr(benchmarks, "mse_optimal_policy", _failing_at(
        benchmarks.mse_optimal_policy, message, lambda model, *args, sampling_costs=None:
        4.0 in (sampling_costs or [model.cost.sampling_cost])))
    _file_spy(monkeypatch, benchmarks, "mse_optimal_policy", tmp_path / "mse")
    rows, splits, failed = compare_policies(scenario, algorithm="brute")
    assert failed == [(p, 4.0, message) for p in (0.2, 0.6, 1.0)]
    # per row: the failed batch, then each cell's own solve, all here and once
    assert (tmp_path / "mse").read_text() == f"{os.getpid()}\n" * 12
    assert_no_child_process()


def test_a_failed_seed_fails_every_jesp_cell_with_its_message(monkeypatch, shipped):
    monkeypatch.setattr(solvers, "CORES", 1)
    scenario = _small_grid(shipped)
    message = "perfect-estimate actuation MDP still changing policy"
    monkeypatch.setattr(solvers, "heuristic_initial_decision", _failing_at(
        solvers.heuristic_initial_decision, message, lambda model, *args, **kwargs: True))
    cells = [(p, c, message) for p in (0.2, 0.6, 1.0) for c in (0.0, 4.0)]
    assert compare_policies(scenario) == ([], [], cells) == compare_cell_by_cell(scenario)
    assert optimality_gap(scenario) == ([], cells)
    # brute force needs no seed
    assert compare_policies(scenario, algorithm="brute")[2] == []
