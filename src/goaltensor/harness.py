"""Seeded closed-loop simulation and the figure-style experiment sweeps.

Slot ordering: observe the global state, let the sampling rule decide, draw the
channel only when transmitting, actuate on the current estimate, charge the
slot's cost, then step source and context; a delivered update changes the
estimate from the next slot on.

Randomness discipline: the master seed spawns one named stream per stochastic
component (source, context, channel).  Source and context consume exactly one
draw per slot, the channel one draw per transmission, so runs with different
sampling rules still see identical source/context paths (common random
numbers), and a fixed seed reproduces a trace bit for bit.

Two engines run that loop.  ``simulate_closed_loop`` steps one replica slot by
slot in plain Python; ``simulate`` and every traced run use it.  Traced or
not, it runs one loop that keeps the running sums behind the summary; a traced
run also appends each slot's (x, xhat, phi, a_s, h) to five lists, and numpy
derives the ``Trace`` columns from them after the loop: actuation and costs by
table lookup, the ages from running maxima of the slots where they reset.
``simulate_replicas`` steps all (rule, seed) replicas of a sweep family
together, each slot a few numpy operations over the whole batch, and returns
summaries equal bit for bit to the single-replica loop's: it draws the same
streams, takes the same next states (``bisect_right`` of the same cumulative
rows) and adds the running sums in the same slot order.  A batch costs several
microseconds per slot however few replicas it holds, against about one for the
untraced scalar loop, so single runs keep the scalar loop, which also serves as
the batched engine's test oracle.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .benchmarks import FAMILIES, StatePolicyRule
from .errors import GoalTensorError, ParameterError
from .model import DecPomdpModel
from .tensor import DecisionPolicy

TRACE_HEADER = ["t", "x", "xhat", "phi", "aS", "aA", "h",
                "aoi", "aos", "aoii", "aoci", "mse", "got", "cost"]
SWEEP_HEADER = ["policy", "param", "rate", "cost", "stderr"]
COMPARE_HEADER = ["pS", "CS", "policy", "cost"]
GAP_HEADER = ["pS", "CS", "theta_bf", "theta_jesp", "gap"]
DECOMP_HEADER = ["pS", "CS", "sampling", "actuation", "inherent"]


@dataclass(frozen=True, eq=False)
class Trace:
    """Per-slot columns of one closed-loop run, in ``trace.csv`` order.

    Every field is a numpy array with one entry per slot.  ``h`` is the channel
    draw, -1 on slots that draw none (exactly the idle ones).  Two traces are
    equal when every column is.
    """
    t: np.ndarray
    x: np.ndarray
    xhat: np.ndarray
    phi: np.ndarray
    a_s: np.ndarray
    a_a: np.ndarray
    h: np.ndarray
    aoi: np.ndarray
    aos: np.ndarray
    aoii: np.ndarray
    aoci: np.ndarray
    mse: np.ndarray
    got: np.ndarray
    cost: np.ndarray

    def __len__(self):
        return len(self.t)

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


@dataclass(frozen=True)
class SimulationSummary:
    horizon: int
    seed: int
    average_cost: float
    sampling_rate: float
    stderr: float           # batch-means standard error of the average cost
    inherent_cost: float    # raw status cost average
    gain_offset: float      # actuation gain clipped by the ramp (nonpositive)
    expenditure: float      # weighted actuation expenditure average
    sampling_cost: float    # transmission charge average

    @property
    def decomposition(self):
        """Three-way split; terms sum to the average cost."""
        return {"sampling": self.sampling_cost, "actuation": self.expenditure,
                "inherent": self.inherent_cost + self.gain_offset}


# Batch-means groups behind every simulation summary's ``stderr``.
BATCHES = 100

# Slots per time chunk of both engines: the random draws, and in
# ``simulate_replicas`` the next-state tables and the record of every
# replica's states and transmissions, are held one chunk at a time, which
# bounds their memory whatever the horizon.
SLOT_CHUNK = 128


def _cumulative_rows(probs):
    flat = np.cumsum(probs, axis=-1)
    flat[..., -1] = 1.0
    return flat


def simulate_closed_loop(model: DecPomdpModel, rule, decision: DecisionPolicy,
                         horizon, seed, record_trace=True, initial=(0, 0, 0),
                         state_values=None):
    """Run the sampler/actuator loop for ``horizon`` slots.

    Returns ``(trace, summary)``: ``trace`` is a ``Trace``, or None when
    ``record_trace`` is false (long runs accumulate sums only).  ``rule`` is any
    object with ``reset/decide/notify`` (see the benchmark rules); wrap a plain
    ``SamplingPolicy`` with ``StatePolicyRule``.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    n = model.alphabets.n_states
    x, xhat, phi = initial

    # drawn SLOT_CHUNK at a time, the channel's as its cursor needs them; a
    # generator drawn in pieces returns the numbers of one draw
    src_stream, ctx_stream, ch_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    ch_u = []

    src_cum = _cumulative_rows(model.source.probs)
    src_rows = [[[src_cum[i, k, m].tolist() for m in range(model.alphabets.n_actions)]
                 for k in range(model.alphabets.n_contexts)]
                for i in range(n)]
    ctx_rows = _cumulative_rows(model.context.probs).tolist()

    ramp3, spend = (terms.tolist() for terms in _cost_terms(model))
    inherent2 = model.cost.inherent.T.tolist()
    acts = decision.actions.tolist()
    p_success = model.channel.success_prob
    charge = model.cost.sampling_cost

    rule.reset(x, xhat, phi)
    if record_trace:
        xs, xhats, phis, sent, draws = [], [], [], [], []
    n_batches = max(1, min(BATCHES, horizon))
    batch_cost = [0.0] * n_batches
    batch_len = [0] * n_batches
    cost_sum = raw_sum = ramp_sum = spend_sum = 0.0
    samples = 0
    channel_cursor = 0

    for t0 in range(0, horizon, SLOT_CHUNK):
        c = min(SLOT_CHUNK, horizon - t0)
        for t, u_src, u_ctx in zip(range(t0, t0 + c), src_stream.random(c).tolist(),
                                   ctx_stream.random(c).tolist()):
            a_s = rule.decide(t, x, xhat, phi)
            h = -1
            delivered = False
            if a_s:
                if channel_cursor == len(ch_u):
                    ch_u = ch_stream.random(SLOT_CHUNK).tolist()
                    channel_cursor = 0
                h = 1 if ch_u[channel_cursor] < p_success else 0
                channel_cursor += 1
                delivered = h == 1
                samples += 1
            a_a = acts[xhat]
            ramp_term = ramp3[x][phi][a_a]
            got = ramp_term + spend[a_a]
            slot_cost = got + charge * a_s

            cost_sum += slot_cost
            raw_sum += inherent2[x][phi]
            ramp_sum += ramp_term
            spend_sum += spend[a_a]
            b = t * n_batches // horizon
            batch_cost[b] += slot_cost
            batch_len[b] += 1

            if record_trace:
                xs.append(x)
                xhats.append(xhat)
                phis.append(phi)
                sent.append(a_s)
                draws.append(h)

            rule.notify(x, xhat, phi, a_s, delivered)
            next_xhat = x if delivered else xhat
            x = bisect_right(src_rows[x][phi][a_a], u_src)
            phi = bisect_right(ctx_rows[phi], u_ctx)
            xhat = next_xhat

    means = [batch_cost[i] / batch_len[i] for i in range(n_batches) if batch_len[i]]
    summary = _summary(horizon, seed, charge, samples,
                       (cost_sum, raw_sum, ramp_sum, spend_sum), means)
    if not record_trace:
        return None, summary
    if state_values is None:
        state_values = np.arange(n, dtype=float)
    return _derive_trace(model, decision, state_values, xs, xhats, phis, sent,
                         draws), summary


def _cost_terms(model: DecPomdpModel):
    """Clipped ramp by (x, phi, actuation) and weighted expenditure by actuation."""
    ramp = np.maximum(model.cost.inherent.T[:, :, None]
                      - model.cost.gain_weight * model.cost.gain[None, None, :], 0.0)
    return ramp, model.cost.expenditure_weight * model.cost.expenditure


def _latest(mask):
    """Per slot, the latest slot at or before it where ``mask`` holds, else -1."""
    return np.maximum.accumulate(np.where(mask, np.arange(mask.size), -1))


def _derive_trace(model: DecPomdpModel, decision: DecisionPolicy, state_values,
                  xs, xhats, phis, sent, draws) -> Trace:
    """The full trace from the five recorded columns (x, xhat, phi, a_s, h).

    Slot terms are the loop's, gathered by index, so they are equal bit for bit.
    The ages count slots since an event: ``aoi`` since the last delivery before
    the slot, ``aoci`` since the last such delivery that changed the estimate
    (both start at 1 on slot 0), and ``aos`` since the last slot in sync, 0 on
    a slot in sync.
    """
    x, xhat, phi, a_s, h = (np.array(c, dtype=np.intp) for c in (xs, xhats, phis, sent, draws))
    t = np.arange(x.size)
    ramp, spend = _cost_terms(model)
    sq_err = (state_values[:, None] - state_values[None, :]) ** 2
    a_a = decision.actions[xhat]
    got = ramp[x, phi, a_a] + spend[a_a]
    delivered = h == 1
    aos = t - _latest(x == xhat)
    return Trace(t=t, x=x, xhat=xhat, phi=phi, a_s=a_s, a_a=a_a, h=h,
                 aoi=t - np.r_[-1, _latest(delivered)[:-1]],
                 aos=aos, aoii=aos.astype(float),
                 aoci=t - np.r_[-1, _latest(delivered & (x != xhat))[:-1]],
                 mse=sq_err[x, xhat], got=got, cost=got + model.cost.sampling_cost * a_s)


def _standard_error(values):
    """Standard error of the mean, ``np.std(ddof=1) / sqrt(n)``; nan below two values.

    The values are scaled by the power of two of their largest magnitude
    before squaring, which changes no bit where ``np.std`` of the raw values
    is finite and keeps values near the float limit from overflowing.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float("nan")
    _, exponent = np.frexp(np.abs(values).max())
    spread = np.ldexp(np.std(np.ldexp(values, -exponent), ddof=1), exponent)
    return float(spread / np.sqrt(values.size))


def _summary(horizon, seed, charge, samples, sums, batch_means):
    """One replica's summary from its transmission count, its running sums of
    cost, raw status cost, clipped ramp and expenditure, and its batch means."""
    cost_sum, raw_sum, ramp_sum, spend_sum = sums
    return SimulationSummary(
        horizon=horizon, seed=seed,
        average_cost=cost_sum / horizon,
        sampling_rate=samples / horizon,
        stderr=_standard_error(batch_means),
        inherent_cost=raw_sum / horizon,
        gain_offset=(ramp_sum - raw_sum) / horizon,
        expenditure=spend_sum / horizon,
        sampling_cost=charge * samples / horizon,
    )


def simulate_replicas(model: DecPomdpModel, rules, decision: DecisionPolicy, horizon,
                      seeds, initial=(0, 0, 0)):
    """Untraced closed loop of every (rule, seed) replica in one vectorised slot loop.

    Returns ``summaries[i][j]`` for ``rules[i]`` run on ``seeds[j]``, equal bit
    for bit to ``simulate_closed_loop(model, rules[i], decision, horizon,
    seeds[j], record_trace=False, initial=initial)[1]``.  The
    rules must all be of one kind: ``UniformRule``, ``AgeThresholdRule``,
    ``ChangeAwareRule`` or ``StatePolicyRule``.
    """
    from .benchmarks import AgeThresholdRule, ChangeAwareRule, UniformRule
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if not len(rules) or not len(seeds):
        raise ParameterError("simulate_replicas needs at least one rule and one seed")
    kind = type(rules[0])
    if kind not in (UniformRule, AgeThresholdRule, ChangeAwareRule, StatePolicyRule) \
            or any(type(rule) is not kind for rule in rules):
        raise ParameterError("simulate_replicas runs rules of one kind: uniform, age "
                             "threshold, change-aware or state policy")
    n, g = model.alphabets.n_states, model.n_global_states
    n_seeds, n_rules = len(seeds), len(rules)
    width = n_rules * n_seeds
    # replica r = i * n_seeds + j runs rules[i] on seeds[j]
    seed_of = np.tile(np.arange(n_seeds), n_rules)

    # A replica in global state s = x + n*xhat + n*n*phi on seeds[j] carries
    # q = 2 * (j * g + s); a slot's next-state table maps q to the next q when
    # idle or lost, and q + 1 to the next q after a delivery.
    s = np.arange(g)
    xs, xhats, phis = s % n, (s // n) % n, s // (n * n)
    acts = decision.actions[xhats]
    src_rows = _cumulative_rows(model.source.probs)[xs, phis, acts]
    ctx_rows = _cumulative_rows(model.context.probs)[phis]
    seed_base = g * np.arange(n_seeds)[:, None]
    state_of_q = np.tile(np.repeat(s, 2), n_seeds)

    # per-slot terms by q: cost before the transmission charge, raw status
    # cost, clipped ramp, expenditure, and the cost again for the batch sum
    inherent = model.cost.inherent.T[xs, phis]
    ramp = np.maximum(inherent - model.cost.gain_weight * model.cost.gain[acts], 0.0)
    spend = (model.cost.expenditure_weight * model.cost.expenditure)[acts]
    got = ramp + spend
    terms = np.stack([got, inherent, ramp, spend, got], axis=1)[state_of_q]
    charge = model.cost.sampling_cost

    streams = [[np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(3)] for seed in seeds]
    # channel draws of seeds[j] start at j * horizon; each replica reads its
    # seed's draws through its own cursor, one draw per transmission
    delivers = np.concatenate([ch.random(horizon) < model.channel.success_prob
                               for _, _, ch in streams])
    cursor = seed_of * horizon

    if kind is UniformRule:
        periods = np.repeat([rule.period for rule in rules], n_seeds)
    elif kind is AgeThresholdRule:
        thresholds = np.repeat([rule.threshold for rule in rules], n_seeds)
        last = np.full(width, -1)           # slot of the last delivery
    elif kind is ChangeAwareRule:
        x_of_q = xs[state_of_q]
    else:
        table = np.stack([rule.policy.decisions[xs, xhats, phis] != 0 for rule in rules])
        policy = table[:, state_of_q].ravel()
        policy_base = np.repeat(np.arange(n_rules) * state_of_q.size, n_seeds)

    n_batches = max(1, min(BATCHES, horizon))
    # batch b covers slots t with t * n_batches // horizon == b
    starts = (-(-np.arange(n_batches + 1) * horizon // n_batches)).tolist()
    batch_cost = np.zeros((n_batches, width))
    b = 0
    sums = np.zeros((width, 5))
    samples = np.zeros(width, dtype=np.int64)

    states = np.empty((SLOT_CHUNK + 1, width), dtype=np.intp)
    sent = np.empty((SLOT_CHUNK, width), dtype=bool)
    x0, xhat0, phi0 = initial
    states[0] = 2 * (seed_of * g + model.state_index(x0, xhat0, phi0))
    if kind is ChangeAwareRule:
        prev = x_of_q[states[0]]

    for t0 in range(0, horizon, SLOT_CHUNK):
        c = min(SLOT_CHUNK, horizon - t0)
        slots = np.arange(t0, t0 + c)[:, None]
        # bisect_right of a cumulative row is the number of its entries <= u;
        # the last entry is 1.0 and never counts
        u_src = np.stack([src.random(c) for src, _, _ in streams], axis=1)[:, :, None]
        u_ctx = np.stack([ctx.random(c) for _, ctx, _ in streams], axis=1)[:, :, None]
        x_next = sum(src_rows[:, m] <= u_src for m in range(n - 1))
        phi_next = sum(ctx_rows[:, k] <= u_ctx for k in range(ctx_rows.shape[1] - 1))
        base = x_next + n * n * phi_next + seed_base
        nxt = 2 * np.stack([base + n * xhats, base + n * xs], axis=-1).reshape(c, -1)
        if kind is UniformRule:
            sent[:c] = slots % periods == 0
        elif kind is AgeThresholdRule:
            due = slots - thresholds        # transmit while the last delivery is before this

        for k in range(c):
            q, a = states[k], sent[k]
            if kind is AgeThresholdRule:
                np.less(last, due[k], out=a)
            elif kind is ChangeAwareRule:
                x = x_of_q[q]
                np.not_equal(x, prev, out=a)
                prev = x
            elif kind is not UniformRule:
                a[:] = policy[policy_base + q]
            delivered = delivers[cursor]
            delivered &= a
            cursor += a
            if kind is AgeThresholdRule:
                np.copyto(last, t0 + k, where=delivered)
            states[k + 1] = nxt[k][q + delivered]

        # add the chunk's terms slot by slot, as the single-replica loop does
        parts = terms[states[:c]]
        charged = charge * sent[:c]
        parts[:, :, 0] += charged
        parts[:, :, 4] += charged
        for k in range(c):
            if t0 + k == starts[b + 1]:
                batch_cost[b] = sums[:, 4]
                sums[:, 4] = 0.0
                b += 1
            sums += parts[k]
        samples += sent[:c].sum(axis=0)
        states[0] = states[c]
    batch_cost[b] = sums[:, 4]

    means = np.ascontiguousarray((batch_cost / np.diff(starts)[:, None]).T)
    return [[_summary(horizon, seed, charge, int(samples[r]), sums[r, :4].tolist(), means[r])
             for r, seed in enumerate(seeds, start=i * n_seeds)] for i in range(n_rules)]


def cost_decomposition(source, model: DecPomdpModel = None) -> dict:
    """Average-cost split {sampling, actuation, inherent-after-actuation}.

    Accepts a ``SimulationSummary``, a benchmark ``CostSummary``, or a
    ``Trace`` (which needs ``model`` to price the recorded actuations);
    components sum to the average cost.
    """
    from .benchmarks import CostSummary
    if isinstance(source, (SimulationSummary, CostSummary)):
        split = source.decomposition
    elif isinstance(source, Trace):
        if model is None:
            raise ParameterError("trace-level decomposition needs the model")
        _, spend = _cost_terms(model)
        actuation = float(np.mean(spend[source.a_a]))
        split = {"sampling": float(np.mean(source.cost - source.got)),
                 "actuation": actuation,
                 "inherent": float(np.mean(source.got)) - actuation}
    else:
        raise ParameterError(f"cannot decompose {type(source).__name__}")
    return {"sampling_cost_avg": split["sampling"],
            "actuation_cost_avg": split["actuation"],
            "inherent_cost_avg": split["inherent"]}


@dataclass(frozen=True)
class SweepResult:
    policy: str
    param: object
    sampling_rate: float
    average_cost: float
    stderr: float
    cost_breakdown: dict = field(default_factory=dict)
    n_seeds: int = 1


def sweep_rate_vs_cost(model: DecPomdpModel, family, grid, decision: DecisionPolicy,
                       horizon, seeds, initial=(0, 0, 0)):
    """Simulated cost-versus-rate curve for one policy family.

    One ``SweepResult`` per grid parameter, aggregated over the given seeds
    with the standard error of the per-seed average costs.  Every (parameter,
    seed) replica of the family runs in one ``simulate_replicas`` batch.
    """
    if not len(grid):
        raise ParameterError(f"sweep of family {family!r} needs at least one grid point")
    if not len(seeds):
        raise ParameterError("sweep needs at least one seed")
    if family not in FAMILIES:
        raise ParameterError(f"unknown policy family {family!r}")
    rules = [FAMILIES[family].rule(model, param, decision, None) for param in grid]
    results = []
    for param, summaries in zip(grid, simulate_replicas(model, rules, decision, horizon,
                                                        seeds, initial=initial)):
        costs = [summary.average_cost for summary in summaries]
        rates = [summary.sampling_rate for summary in summaries]
        splits = [(summary.inherent_cost, summary.gain_offset,
                   summary.expenditure, summary.sampling_cost) for summary in summaries]
        mean_split = np.mean(np.array(splits), axis=0)
        results.append(SweepResult(
            policy=family, param=param,
            sampling_rate=float(np.mean(rates)),
            average_cost=float(np.mean(costs)),
            stderr=_standard_error(costs),
            cost_breakdown={"inherent": float(mean_split[0]),
                            "actuation_gain_offset": float(mean_split[1]),
                            "actuation_expenditure": float(mean_split[2]),
                            "sampling": float(mean_split[3])},
            n_seeds=len(costs)))
    return results


def _cell_scenarios(scenario, grid):
    for p_success in grid.success_probs:
        for sampling_cost in grid.sampling_costs:
            yield p_success, sampling_cost, scenario.with_channel(
                p_success).with_sampling_cost(sampling_cost)


def solve_cell(cell, algorithm):
    """Run the scenario's configured solver on one scenario or grid cell.

    The one place that turns ``cell.solver`` into solver arguments: epsilon,
    budget and every round cap, scored from the scenario's start state.
    ``algorithm`` is ``"brute"`` (``brute_force_joint``) or ``"jesp"``.
    """
    from .solvers import brute_force_joint, jesp
    solver = cell.solver
    if algorithm == "brute":
        return brute_force_joint(cell.model, epsilon=solver.epsilon, budget=solver.budget,
                                 max_sweeps=solver.max_pi_rounds,
                                 start_state=cell.start_state)
    if algorithm == "jesp":
        return jesp(cell.model, epsilon=solver.epsilon, step_schedule=solver.step_schedule,
                    restarts=solver.restarts, seed=solver.seed,
                    max_rounds=solver.max_jesp_rounds, pi_rounds=solver.max_pi_rounds,
                    start_state=cell.start_state)
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def _decomposition(p_success, sampling_cost, cell, report):
    """The ``decomp.csv`` row of one cell: the exact cost split of the solved pair."""
    from .benchmarks import evaluate_state_policy
    summary = evaluate_state_policy(cell.model, report.sampling_policy,
                                    report.decision_policy, cell.start_state)
    return {"pS": p_success, "CS": sampling_cost, "sampling": summary.sampling,
            "actuation": summary.actuation, "inherent": summary.inherent}


def compare_policies(scenario, algorithm="jesp", include_classic=False):
    """Average cost of the co-designed pair versus the separate-design baselines.

    One row per (channel success, sampling cost, policy); the co-design row
    carries the solver's value, baselines are evaluated exactly, and each
    baseline row includes its relative saving deficit versus the co-design.
    The co-design row also carries the cell's cost split under
    ``decomposition`` (read it with ``decomposition_rows``), so each cell is
    solved once for both ``compare.csv`` and ``decomp.csv``.

    A failed cell is recorded as a single row with an ``error`` entry and the
    run continues; having no co-design row, it has no decomposition either.
    (``goaltensor compare`` thus writes ``decomp.csv`` without the failed
    cells, where it used to stop at the first failing cell and write none.)

    The baselines are the ``FAMILIES`` entries with a ``baseline`` row, each at
    its best parameter over the cell's sweep grid; ``include_classic`` adds the
    classic ones.
    """
    from .solvers import greedy_decision_policy
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        model, start = cell.model, cell.start_state
        try:
            report = solve_cell(cell, algorithm)
            co_cost = report.average_cost
            codesign = {"pS": p_success, "CS": sampling_cost, "policy": "got-codesign",
                        "cost": co_cost, "saving_vs_codesign": None,
                        "decomposition": _decomposition(p_success, sampling_cost, cell,
                                                        report)}
            greedy = greedy_decision_policy(model)
            baselines = []
            for family in FAMILIES.values():
                if family.baseline and (include_classic or not family.classic):
                    params = family.grid(cell.sweep) if family.grid else [None]
                    baselines.append((family.baseline, min(
                        family.evaluate(model, p, greedy, start, cell.state_values)
                        .average_cost for p in params)))
            rows.append(codesign)
            rows.extend({"pS": p_success, "CS": sampling_cost, "policy": policy,
                         "cost": cost, "saving_vs_codesign": (cost - co_cost) / cost}
                        for policy, cost in baselines)
        except GoalTensorError as exc:
            rows.append({"pS": p_success, "CS": sampling_cost, "policy": algorithm,
                         "cost": float("nan"), "error": str(exc)})
    return rows


def decomposition_rows(compare_rows):
    """The ``decomp.csv`` rows carried by ``compare_policies`` rows, in grid order."""
    return [row["decomposition"] for row in compare_rows if "decomposition" in row]


def optimality_gap(scenario):
    """Exact-versus-equilibrium cost gap per grid cell, in cost units."""
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        bf = solve_cell(cell, "brute")
        je = solve_cell(cell, "jesp")
        rows.append({"pS": p_success, "CS": sampling_cost,
                     "theta_bf": bf.average_cost, "theta_jesp": je.average_cost,
                     "gap": je.average_cost - bf.average_cost})
    return rows


# ---------------------------------------------------------------------------
# CSV emission (fixed headers, shortest round-trip float formatting)


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, header, rows):
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


# Rows of ``trace.csv`` joined and written at a time, which bounds the text
# held in memory however long the trace.
TRACE_CSV_ROWS = 8192


def write_trace_csv(path, trace: Trace):
    """Write ``trace.csv``, byte for byte what ``csv.writer`` writes for its rows.

    Each column's distinct values are formatted once: ``str`` of a Python
    float is its shortest round-trip ``repr``, as ``_fmt`` writes it, and a
    negative ``h`` (no channel draw) is a blank field.
    """
    columns = []
    for column in fields(Trace):
        values, index = np.unique(getattr(trace, column.name), return_inverse=True)
        text = ["" if column.name == "h" and v < 0 else str(v) for v in values.tolist()]
        columns.append((np.array(text, dtype=object), index))
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for start in range(0, len(trace), TRACE_CSV_ROWS):
            rows = zip(*(text[index[start:start + TRACE_CSV_ROWS]].tolist()
                         for text, index in columns))
            fh.write("".join([",".join(row) + "\r\n" for row in rows]))
    return path


def write_sweep_csv(path, results):
    return _write_csv(path, SWEEP_HEADER,
                      [(r.policy, r.param, r.sampling_rate, r.average_cost, r.stderr)
                       for r in results])


def write_compare_csv(path, rows):
    return _write_csv(path, COMPARE_HEADER,
                      [(r["pS"], r["CS"], r["policy"], r["cost"]) for r in rows])


def write_gap_csv(path, rows):
    return _write_csv(path, GAP_HEADER,
                      [(r["pS"], r["CS"], r["theta_bf"], r["theta_jesp"], r["gap"])
                       for r in rows])


def write_decomp_csv(path, rows):
    return _write_csv(path, DECOMP_HEADER,
                      [(r["pS"], r["CS"], r["sampling"], r["actuation"], r["inherent"])
                       for r in rows])
