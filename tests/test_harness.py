import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from goaltensor.benchmarks import (FAMILIES, AgeThresholdRule, StatePolicyRule, UniformRule,
                                   aoii_optimal_policy)
from goaltensor import harness, solvers
from goaltensor.errors import ParameterError
from goaltensor.harness import (BATCHES, SLOT_CHUNK, TRACE_HEADER, _standard_error,
                                optimality_gap, simulate_closed_loop,
                                simulate_replicas, sweep_rate_vs_cost, compare_policies,
                                write_compare_csv, write_decomp_csv, write_gap_csv,
                                write_sweep_csv, write_trace_csv)
from goaltensor.model import (ChannelModel, ContextDynamics, DecPomdpModel,
                              SourceDynamics)
from goaltensor.scenario import GridConfig, Scenario
from goaltensor.solvers import greedy_decision_policy
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy, SamplingPolicy
from conftest import assert_no_child_process
from oracles import (analyze_chain, policy_chain, random_model, simulate_records,
                     sweep_one_by_one, write_records_csv)


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


def test_fork_map_returns_results_in_order_from_worker_processes(three_workers):
    parent, chunk_threads = os.getpid(), solvers.BRUTE_WORKERS
    results = harness.fork_map(lambda i: (i, os.getpid(), solvers.BRUTE_WORKERS), range(7))
    assert [i for i, _, _ in results] == list(range(7))
    assert parent not in {pid for _, pid, _ in results}
    # brute force runs its chunks on one thread inside a worker, not in this process
    assert {threads for _, _, threads in results} == {1}
    assert solvers.BRUTE_WORKERS == chunk_threads
    assert_no_child_process()
    # one item runs here
    assert harness.fork_map(lambda i: os.getpid(), [0]) == [parent]


def test_brute_force_chunk_threads_take_at_least_64_candidates_each():
    assert 1 <= solvers.BRUTE_WORKERS <= solvers.CORES
    assert solvers.BRUTE_CHUNK // solvers.BRUTE_WORKERS >= 64


@pytest.mark.parametrize("workers", [1, 3])
def test_unexpected_cell_error_reaches_the_caller(shipped, monkeypatch, workers):
    monkeypatch.setattr(solvers, "CORES", workers)
    real = solvers.jesp

    def boom_on_cs4(model, **kwargs):
        if model.cost.sampling_cost == 4.0:
            raise RuntimeError("boom")
        return real(model, **kwargs)

    monkeypatch.setattr(solvers, "jesp", boom_on_cs4)
    scenario = replace(shipped, grid=GridConfig(success_probs=(0.8,),
                                                sampling_costs=(2.0, 4.0, 6.0)))
    with pytest.raises(RuntimeError, match="^boom$"):
        optimality_gap(scenario)
    assert_no_child_process()


def test_jesp_grid_cells_run_in_this_process(shipped, three_workers, monkeypatch):
    pids, real = [], solvers.jesp

    def spy(model, **kwargs):
        pids.append(os.getpid())
        return real(model, **kwargs)

    monkeypatch.setattr(solvers, "jesp", spy)
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
