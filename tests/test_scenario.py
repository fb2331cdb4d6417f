import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goaltensor.cli import main
from goaltensor.errors import GoalTensorError, ScenarioError
from goaltensor.harness import solve_cell
from goaltensor.scenario import (MAX_SWEEP_PARAMETER, default_document, default_scenario,
                                 load_scenario, save_scenario, scenario_from_dict)


def test_default_scenario_shape(shipped):
    assert shipped.model.n_global_states == 18
    assert shipped.model.alphabets.n_actions == 11
    np.testing.assert_array_equal(shipped.model.cost.inherent,
                                  [[0, 20, 50], [0, 10, 20]])
    np.testing.assert_array_equal(shipped.model.cost.gain, 8.0 * np.arange(11))
    np.testing.assert_array_equal(shipped.model.cost.expenditure, 1.0 * np.arange(11))
    # symmetric context chain: uniform stationary law
    np.testing.assert_allclose(shipped.model.context.stationary(), [0.5, 0.5],
                               atol=1e-12)


def test_round_trip_preserves_tables(tmp_path):
    doc = default_document(success_prob=0.55, sampling_cost=3.25)
    path = save_scenario(doc, tmp_path / "scenario.json")
    loaded = load_scenario(path)
    fresh = scenario_from_dict(doc)
    np.testing.assert_array_equal(loaded.model.source.probs, fresh.model.source.probs)
    np.testing.assert_array_equal(loaded.model.context.probs, fresh.model.context.probs)
    np.testing.assert_array_equal(loaded.model.cost.inherent, fresh.model.cost.inherent)
    assert loaded.model.channel.success_prob == 0.55
    assert loaded.model.cost.sampling_cost == 3.25
    assert loaded.solver == fresh.solver
    assert loaded.grid == fresh.grid
    # a second write of the same document is byte-identical
    again = save_scenario(loaded.document, tmp_path / "again.json")
    assert again.read_bytes() == path.read_bytes()


def test_bundled_scenario_file_loads():
    from pathlib import Path
    bundled = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"
    scenario = load_scenario(bundled)
    assert scenario.model.n_global_states == 18


def test_bundled_scenario_file_is_the_default_document():
    # what scripts/make_default_scenario.py writes
    import json
    from pathlib import Path
    bundled = Path(__file__).resolve().parents[1] / "scenarios" / "default.json"
    assert bundled.read_text() == json.dumps(default_document(), indent=2) + "\n"


def test_solve_cell_runs_the_fixed_decision_best_response():
    from goaltensor.solvers import greedy_decision_policy, solve_sampler_for_decision
    scenario = default_scenario()
    report = solve_cell(scenario, "rvi-fixed-decision")
    greedy = greedy_decision_policy(scenario.model)
    sampling, gain, _ = solve_sampler_for_decision(
        scenario.model, greedy, epsilon=scenario.solver.epsilon,
        max_sweeps=scenario.solver.max_pi_rounds)
    np.testing.assert_array_equal(report.decision_policy.actions, greedy.actions)
    np.testing.assert_array_equal(report.sampling_policy.decisions, sampling.decisions)
    assert report.average_reward == gain
    assert (report.iterations, report.residual, report.converged) == (0, 0.0, True)
    assert report.diagnostics == {}


def test_stochasticity_violation_reports_row_address():
    doc = default_document()
    doc["source_dynamics"][1][0][3] = [0.5, 0.4, 0.099999]     # off by 1e-6
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "source_dynamics[1][0][3]"
    assert "sums to" in str(info.value)


def test_tolerance_boundary_just_inside_passes():
    doc = default_document()
    doc["context_dynamics"][0] = [0.8 + 2e-10, 0.2]            # inside 1e-9
    scenario_from_dict(doc)
    doc["context_dynamics"][0] = [0.800001, 0.2]               # outside
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "context_dynamics[0]"


def test_missing_cost_entry_is_field_addressed():
    doc = default_document()
    doc["cost"]["inherent"][1] = [0, 10]                       # one entry short
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "cost.inherent[1]"
    doc = default_document()
    del doc["cost"]["inherent"]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "cost.inherent"


def test_json_syntax_error_carries_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "alphabets": {,}\n}\n')
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert ":2:" in str(info.value)


def test_explicit_cost_tables_match_linear_shorthand():
    doc = default_document()
    doc["cost"]["gain"] = [8.0 * m for m in range(11)]
    doc["cost"]["expenditure"] = [1.0 * m for m in range(11)]
    explicit = scenario_from_dict(doc)
    shorthand = default_scenario()
    np.testing.assert_array_equal(explicit.model.cost.gain,
                                  shorthand.model.cost.gain)
    np.testing.assert_array_equal(explicit.model.cost.expenditure,
                                  shorthand.model.cost.expenditure)


def test_state_values_override():
    doc = default_document()
    doc["state_values"] = [0.0, 1.5, 4.0]
    scenario = scenario_from_dict(doc)
    np.testing.assert_array_equal(scenario.state_values, [0.0, 1.5, 4.0])
    doc["state_values"] = [0.0, 1.5]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_channel_and_sampling_cost_rebinds(shipped):
    low = shipped.with_channel(0.3)
    assert low.model.channel.success_prob == 0.3
    np.testing.assert_array_equal(low.model.source.probs, shipped.model.source.probs)
    pricey = shipped.with_sampling_cost(9.0)
    assert pricey.model.cost.sampling_cost == 9.0
    assert shipped.model.cost.sampling_cost == 2.0


def test_invalid_channel_probability():
    doc = default_document()
    doc["channel"]["success_prob"] = 1.2
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "channel.success_prob"


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf"), 0, 0.0,
                                     -1e-6])
def test_solver_epsilon_must_be_finite_and_positive(epsilon):
    doc = default_document()
    doc["solver"]["epsilon"] = epsilon
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "solver.epsilon"


@pytest.mark.parametrize("key", ["success_probs", "sampling_costs"])
def test_empty_grid_list_is_field_addressed(key):
    doc = default_document()
    doc["grid"][key] = []
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == f"grid.{key}"


@pytest.mark.parametrize("key", ["seeds", "uniform_periods"])
def test_empty_sweep_list_is_field_addressed(key):
    doc = default_document()
    doc["sweep"][key] = []
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == f"sweep.{key}"


@pytest.mark.parametrize("key, value, field", [
    ("uniform_periods", [1, 10 ** 8], "sweep.uniform_periods[1]"),
    ("age_threshold_max", 10 ** 8, "sweep.age_threshold_max"),
])
def test_sweep_values_are_bounded_from_above(key, value, field):
    # a period of 10**8 would multiply 10**8 kernels in the uniform evaluator,
    # and an age threshold of 10**8 would run 10**8 + 1 sweep replicas
    doc = default_document()
    doc["sweep"][key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == field
    assert f"above maximum {MAX_SWEEP_PARAMETER}" in str(info.value)
    sweep = default_scenario().sweep
    assert max(sweep.uniform_periods) <= MAX_SWEEP_PARAMETER
    assert sweep.age_threshold_max <= MAX_SWEEP_PARAMETER


@pytest.mark.parametrize("section, key, field", [
    ("cost", "gain_weight", "cost.gain_weight"),
    ("cost", "sampling_cost", "cost.sampling_cost"),
    ("grid", "sampling_costs", "grid.sampling_costs[0]"),
])
def test_integer_too_large_for_a_float_is_field_addressed(section, key, field):
    doc = default_document()
    doc[section][key] = [10 ** 400] if section == "grid" else 10 ** 400
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == field
    assert "too large" in str(info.value)


def test_large_integers_still_load_where_integers_are_expected():
    doc = default_document()
    doc["simulation"]["seed"] = 10 ** 400
    assert scenario_from_dict(doc).simulation.seed == 10 ** 400


@pytest.mark.parametrize("section, key, value, field", [
    ("solver", "max_pi_rounds", float("inf"), "solver.max_pi_rounds"),
    ("simulation", "horizon", float("nan"), "simulation.horizon"),
    ("cost", "sampling_cost", float("inf"), "cost.sampling_cost"),
    ("sweep", "uniform_periods", [float("inf")], "sweep.uniform_periods[0]"),
    ("grid", "success_probs", [float("nan")], "grid.success_probs[0]"),
    ("grid", "sampling_costs", [1.0, float("-inf")], "grid.sampling_costs[1]"),
])
def test_non_finite_numbers_are_field_addressed(section, key, value, field):
    doc = default_document()
    doc[section][key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == field
    assert "finite" in str(info.value)


# finite numbers whose weighted cost tables leave the float range (the
# mutation property test below once drew each of these)
@pytest.mark.parametrize("key, value", [
    ("expenditure_weight", 1.797693134862316e+307),
    ("gain_weight", 2.247116418577895e+306),
    ("gain", {"linear": 1.797693134862316e+307}),
    ("gain_weight", -1e308),
])
def test_overflowing_cost_weights_are_field_addressed(key, value):
    doc = default_document()
    doc["cost"][key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "cost" and "overflow" in str(info.value)


@pytest.mark.parametrize("value", ["bogus", "RVI", 1, None, ["jesp"]])
def test_solver_algorithm_must_be_a_known_choice(value):
    doc = default_document()
    doc["solver"]["algorithm"] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "solver.algorithm"


@pytest.mark.parametrize("value", ["brute", "jesp", "rvi-fixed-decision"])
def test_solver_algorithm_choices_load(value):
    doc = default_document()
    doc["solver"]["algorithm"] = value
    assert scenario_from_dict(doc).solver.algorithm == value


@pytest.mark.parametrize("value", ["bogus", "", 0, 0.0, -0.5, 1.5, float("nan"), True,
                                   None, [0.5]])
def test_step_schedule_must_be_harmonic_or_a_step_size(value):
    doc = default_document()
    doc["solver"]["step_schedule"] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "solver.step_schedule"


@pytest.mark.parametrize("value", ["harmonic", 1, 0.5, 1e-3])
def test_step_schedule_choices_load(value):
    doc = default_document()
    doc["solver"]["step_schedule"] = value
    assert scenario_from_dict(doc).solver.step_schedule == value


def test_removed_rvi_sweep_cap_is_ignored():
    # like every unknown key, a document that still sets the retired RVI cap loads
    doc = default_document()
    doc["solver"]["max_rvi_sweeps"] = 4321
    assert scenario_from_dict(doc).solver == default_scenario().solver


def test_rebinds_keep_everything_else(shipped):
    cell = shipped.with_channel(0.3).with_sampling_cost(9.0)
    assert cell.model.channel.success_prob == 0.3
    assert cell.model.cost.sampling_cost == 9.0
    for name in ("inherent", "gain", "expenditure"):
        np.testing.assert_array_equal(getattr(cell.model.cost, name),
                                      getattr(shipped.model.cost, name))
    assert cell.model.source is shipped.model.source
    assert cell.model.context is shipped.model.context
    np.testing.assert_array_equal(cell.model.action_cost, shipped.model.action_cost)
    assert (cell.name, cell.solver, cell.simulation, cell.sweep, cell.grid, cell.document) \
        == (shipped.name, shipped.solver, shipped.simulation, shipped.sweep, shipped.grid,
            shipped.document)


@pytest.mark.parametrize("address, value", [
    ("alphabets", [3, 2, 11]),
    ("channel", 0.5),
    ("cost", "free"),
    ("solver", 5),
    ("simulation", None),
    ("simulation.initial", [0, 0, 0]),
    ("sweep", True),
    ("grid", [[0.2], [0.0]]),
])
def test_section_that_is_not_an_object_is_field_addressed(address, value):
    doc = default_document()
    *parents, key = address.split(".")
    holder = doc
    for part in parents:
        holder = holder[part]
    holder[key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == address
    assert "expected an object" in str(info.value)


@pytest.mark.parametrize("section, key, value, field", [
    ("solver", "seed", -1, "solver.seed"),
    ("simulation", "seed", -1, "simulation.seed"),
    ("sweep", "seeds", [0, -1], "sweep.seeds[1]"),
])
def test_negative_seed_is_field_addressed(section, key, value, field):
    doc = default_document()
    doc[section][key] = value
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == field
    assert "below minimum 0" in str(info.value)


def test_huge_alphabet_is_rejected_before_any_array_is_sized():
    doc = default_document()
    doc["alphabets"]["actions"] = 10 ** 12
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(doc)
    assert info.value.field == "source_dynamics[0][0]"


def _addresses(value, path=()):
    """Every key and list index path in a document, except inside the
    source rows (the blocks above them stand in for them)."""
    if path[:1] == ("source_dynamics",) and len(path) > 2:
        return []
    found = [path] if path else []
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        found.extend(_addresses(child, path + (key,)))
    return found


ADDRESSES = _addresses(default_document())
WRONG_VALUES = st.one_of(
    st.integers(), st.floats(), st.text(max_size=3), st.none(), st.booleans(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
SCENARIO_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("set"), st.sampled_from(ADDRESSES), WRONG_VALUES),
    st.tuples(st.just("truncate"), st.sampled_from(ADDRESSES), st.integers(0, 10)),
    st.tuples(st.just("negate"), st.sampled_from(ADDRESSES)),
    st.tuples(st.just("enlarge"), st.sampled_from(ADDRESSES),
              st.sampled_from([1.5, 2, 10 ** 6, 1e300, 10 ** 400])),
)


def _mutate(doc, mutation):
    kind, path = mutation[:2]
    holder = doc
    for key in path[:-1]:
        try:
            holder = holder[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if not isinstance(holder, (dict, list)) or key not in (
            holder if isinstance(holder, dict) else range(len(holder))):
        return
    value = holder[key]
    if kind == "drop":
        del holder[key]
    elif kind == "set":
        holder[key] = mutation[2]
    elif kind == "truncate" and isinstance(value, list):
        del value[mutation[2] % (len(value) + 1):]
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        return
    elif kind == "negate":
        holder[key] = -value - 1
    else:
        holder[key] = mutation[2]


@given(st.lists(SCENARIO_MUTATIONS, min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_mutated_scenario_is_rejected_by_field_or_runs(tmp_path_factory, mutations):
    doc = default_document()
    for mutation in mutations:
        _mutate(doc, mutation)
    try:
        scenario = scenario_from_dict(doc)
    except ScenarioError as exc:
        assert exc.field and str(exc).startswith(exc.field)
        assert "\n" not in str(exc)
        return
    tmp = tmp_path_factory.mktemp("scenario")
    path = str(save_scenario(doc, tmp / "scenario.json"))
    assert main(["validate", "--scenario", path]) == 0
    assert main(["simulate", "--scenario", path, "--policy", "change", "--horizon", "20",
                 "--out", str(tmp / "sim")]) == 0
    assert main(["sweep", "--scenario", path, "--families", "change", "--horizon", "5",
                 "--out", str(tmp / "sweep")]) == 0
    # round caps can end a valid mutant's solve in a typed NonConvergenceError
    try:
        solve_cell(scenario, "jesp")
    except GoalTensorError as exc:
        assert "\n" not in str(exc)
