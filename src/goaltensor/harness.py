"""Seeded closed-loop simulation, the figure-style sweeps and the grid studies.

Slot ordering: observe the global state, let the sampling rule decide, draw the
channel only when transmitting, actuate on the current estimate, charge the
slot's cost, then step source and context; a delivered update changes the
estimate from the next slot on.

Randomness discipline: the master seed spawns one named stream per stochastic
component (source, context, channel).  Source and context consume exactly one
draw per slot, the channel one draw per transmission, so runs with different
sampling rules still see identical source/context paths (common random
numbers), and a fixed seed reproduces a trace bit for bit.

Two engines run that loop, each through its own form of the sampling rule
(``benchmarks.Rule``).  ``simulate_closed_loop`` steps one replica slot by slot
in plain Python and sums only cost and transmissions; ``simulate`` and every
traced run use it, a traced run also keeping one int per slot that packs its
global state and channel draw, from which numpy derives the ``Trace`` columns
after the loop.
``simulate_replicas`` steps all (rule, seed) replicas of a sweep family
together, each slot a few numpy operations over the whole batch, and returns
summaries equal bit for bit to the single-replica loop's: it draws the same
streams, takes the same next states (``bisect_right`` of the same cumulative
rows) and adds the running sums in the same slot order.  A rule whose replica
form fixes a chunk's sends in advance (the uniform rule) reads the chunk's
channel draws at once, so each of its slots is one next-state gather; rules
that answer the state (age, change, state-policy) decide slot by slot.  A
batch costs several microseconds per slot however few replicas it holds,
against under one per replica for the untraced scalar loop, so single runs,
and sweep families of fewer than ``MIN_BATCH_REPLICAS`` replicas, keep the
scalar loop, the batched engine's test oracle.

The grid studies, ``compare_policies`` and ``optimality_gap``, are per-cell
row builders over one cell loop, ``_grid``, which sets failed cells aside.
Every solve is made before that loop, in one pass per solver, and every row
is built in this process.

Brute force runs one whole-cell search per distinct cell
(``_grid_brute``), which reads no other solve.  Each search skips only the
decision tables its screen proves below a target that the screen's lower
bounds raise as it goes (``solvers.brute_force_joint``), so the winner and
every exact tie are still solved with the same arithmetic.  The cells are
checked, and warn, in this process; their searches are spread over forked worker processes,
one per core (``solvers.pool_map``; at N = 18 a solve holds the GIL), and a
grid of one distinct cell runs its search here.  No search reads another
cell's, so neither the CSVs nor the candidates solved depend on the number
of workers.

jesp runs on every cell of a grid study in one pass
(``_grid_jesp``): the cells' searches advance together in
``solvers.lockstep``, which stacks the pending solver calls of all of them
into one batched call per step.  At N = 18 a call's time is mostly numpy's
per-call overhead, so the bundled 30-cell pass takes about half the time
of the searches one after another (60 against 129 ms and 81 against 170 ms,
medians of 40 alternating runs on one core of a shared 2-vCPU machine,
BENCH_24.json), and every report is the same to the bit.

A grid study also computes once what several of its cells share, and keeps
it for that one call, computed before the cells' rows: jesp's seed and the
greedy decision table, which read no channel and no sampling charge, once
per grid; and once per success probability (a grid row), the baselines'
long-run laws.  A policy's law depends on the success probability only,
and the sampling cost CS enters its cost as CS times its transmission rate,
so ``compare`` re-prices one evaluation at each cell's CS
(``benchmarks.priced``), bit for bit what an evaluation at that CS gives.
The baseline whose policy itself depends on CS (``Family.by_cost``, the
MSE-optimal sampler) has the sampler MDPs of a whole row solved as one
policy-iteration batch.  A shared computation that raised a
``GoalTensorError`` raises it again in every cell that uses it, where the
cell would have raised computing it, so the same cells fail with the same
messages.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import solvers
from .benchmarks import FAMILIES, ReplicaForm, evaluate_state_policy, priced
from .errors import GoalTensorError, ParameterError
from .model import DecisionRows, DecPomdpModel
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


# Batch-means groups behind every simulation summary's ``stderr``.
BATCHES = 100


def _batch_starts(horizon):
    """Where each batch-means group (equal ``t * n_batches // horizon``) starts, and the end."""
    n_batches = max(1, min(BATCHES, horizon))
    return (-(-np.arange(n_batches + 1) * horizon // n_batches)).tolist()


# Most slots per time chunk of both engines: the random draws, and in
# ``simulate_replicas`` the next-state tables and the record of every
# replica's states and transmissions, are held one chunk at a time, which
# bounds their memory whatever the horizon.  ``simulate_replicas`` also keeps
# every channel outcome drawn so far, one byte per seed-slot.
SLOT_CHUNK = 128


def _streams(seed):
    """The (source, context, channel) generators of one seed's run."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3)]


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
    object with the scalar rule form ``reset/decide/notify`` (see
    ``benchmarks``, whose state-policy rule runs a plain ``SamplingPolicy``).
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    n = model.alphabets.n_states
    x, xhat, phi = initial

    # drawn a chunk at a time (a chunk ends with its batch-means group), the
    # channel's as its cursor needs them; a generator drawn in pieces returns
    # the numbers of one draw
    src_stream, ctx_stream, ch_stream = _streams(seed)
    ch_u = []

    # the slot's goal cost and next-source row, by flat state s = x + n*xhat + nn*phi
    rows = DecisionRows(model, decision.actions)
    src_rows, got = _cumulative_rows(rows.source).tolist(), rows.got.tolist()
    ctx_rows = _cumulative_rows(model.context.probs).tolist()
    nn = n * n
    p_success = model.channel.success_prob
    charge = model.cost.sampling_cost

    rule.reset(x, xhat, phi)
    decide, notify = rule.decide, rule.notify
    if record_trace:
        packed = []
        record = packed.append
    starts = _batch_starts(horizon)
    means = []
    cost_sum = 0.0
    samples = channel_cursor = 0

    for b0, b1 in zip(starts, starts[1:]):
        batch_sum = 0.0
        for t0 in range(b0, b1, SLOT_CHUNK):
            c = min(SLOT_CHUNK, b1 - t0)
            for t, u_src, u_ctx in zip(range(t0, t0 + c), src_stream.random(c).tolist(),
                                       ctx_stream.random(c).tolist()):
                a_s = decide(t, x, xhat, phi)
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
                s = x + n * xhat + nn * phi
                slot_cost = got[s] + charge * a_s
                cost_sum += slot_cost
                batch_sum += slot_cost

                if record_trace:
                    record(3 * s + h + 1)

                notify(x, xhat, phi, a_s, delivered)
                next_xhat = x if delivered else xhat
                x = bisect_right(src_rows[s], u_src)
                phi = bisect_right(ctx_rows[phi], u_ctx)
                xhat = next_xhat
        means.append(batch_sum / (b1 - b0))

    summary = _summary(horizon, seed, samples, cost_sum, means)
    if not record_trace:
        return None, summary
    if state_values is None:
        state_values = np.arange(n, dtype=float)
    return _derive_trace(model, decision, state_values, packed), summary


def _latest(mask):
    """Per slot, the latest slot at or before it where ``mask`` holds, else -1."""
    return np.maximum.accumulate(np.where(mask, np.arange(mask.size), -1))


def _derive_trace(model: DecPomdpModel, decision: DecisionPolicy, state_values,
                  packed) -> Trace:
    """The full trace from the loop's one record per slot, ``3 * s + h + 1``.

    ``s`` is the flat global state and ``h`` the channel draw, -1 on idle
    slots, so ``s`` gives (x, xhat, phi) and ``a_s`` is ``h >= 0``: a slot
    draws the channel exactly when it transmits.  Slot terms are the loop's,
    gathered by index, so they are equal bit for bit.
    The ages count slots since an event: ``aoi`` since the last delivery before
    the slot, ``aoci`` since the last such delivery that changed the estimate
    (both start at 1 on slot 0), and ``aos`` since the last slot in sync, 0 on
    a slot in sync.
    """
    s, h = np.divmod(np.array(packed, dtype=np.intp), 3)
    h -= 1
    x, xhat, phi = (component[s] for component in model.state_components())
    a_s = (h >= 0).astype(np.intp)
    t = np.arange(s.size)
    rows = DecisionRows(model, decision.actions)
    sq_err = (state_values[:, None] - state_values[None, :]) ** 2
    a_a, got = rows.actions[s], rows.got[s]
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


def _summary(horizon, seed, samples, cost_sum, batch_means):
    """One replica's summary from its transmission count, cost sum and batch means."""
    return SimulationSummary(horizon=horizon, seed=seed, average_cost=cost_sum / horizon,
                             sampling_rate=samples / horizon,
                             stderr=_standard_error(batch_means))


def simulate_replicas(model: DecPomdpModel, rules, decision: DecisionPolicy, horizon,
                      seeds, initial=(0, 0, 0)):
    """Untraced closed loop of every (rule, seed) replica in one vectorised slot loop.

    Returns ``summaries[i][j]`` for ``rules[i]`` run on ``seeds[j]``, equal bit
    for bit to ``simulate_closed_loop(model, rules[i], decision, horizon,
    seeds[j], record_trace=False, initial=initial)[1]``.  The rules must all be
    of one class, which runs them through its replica form (``Replicas``).
    A form that overrides neither ``decide`` nor ``notify`` fixes a chunk's
    sends in ``start``, and the chunk's channel draws are then read at once;
    other forms run slot by slot.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    if not len(rules) or not len(seeds):
        raise ParameterError("simulate_replicas needs at least one rule and one seed")
    rule_class = type(rules[0])
    if any(type(rule) is not rule_class for rule in rules):
        raise ParameterError("simulate_replicas runs rules of one class, got "
                             + ", ".join(sorted({type(rule).__name__ for rule in rules})))
    if not hasattr(rule_class, "Replicas"):
        raise ParameterError(f"{rule_class.__name__} has no replica form to batch")
    n, g = model.alphabets.n_states, model.n_global_states
    n_seeds, n_rules = len(seeds), len(rules)
    width = n_rules * n_seeds
    # replica r = i * n_seeds + j runs rules[i] on seeds[j]
    seed_of = np.tile(np.arange(n_seeds), n_rules)

    # A replica in global state s = x + n*xhat + n*n*phi on seeds[j] carries
    # q = 2 * (j * g + s); a slot's next-state table maps q to the next q when
    # idle or lost, and q + 1 to the next q after a delivery.
    xs, xhats, phis = model.state_components()
    rows = DecisionRows(model, decision.actions)
    src_rows = _cumulative_rows(rows.source)
    ctx_rows = _cumulative_rows(model.context.probs)[phis]
    seed_base = g * np.arange(n_seeds)[:, None]
    state_of_q = np.tile(np.repeat(np.arange(g), 2), n_seeds)
    got = rows.got[state_of_q]              # the slot's cost before the charge, by q
    charge = model.cost.sampling_cost
    replicas = rule_class.Replicas(rules, model, state_of_q, n_seeds)

    streams = [_streams(seed) for seed in seeds]
    # channel outcomes of seeds[j] start at j * horizon and are drawn a chunk
    # at a time, as the other streams are; each replica reads its seed's
    # outcomes through its own cursor, one per transmission, so no cursor
    # passes the end of the chunk being run
    delivers = np.empty(n_seeds * horizon, dtype=bool)
    p_success = model.channel.success_prob
    cursor = seed_of * horizon

    starts = _batch_starts(horizon)
    batch_cost = np.zeros((len(starts) - 1, width))
    b = 0
    sums = np.zeros((2, width))             # running cost, and cost of the batch so far
    samples = np.zeros(width, dtype=np.int64)

    states = np.empty((SLOT_CHUNK + 1, width), dtype=np.intp)
    sent = np.empty((SLOT_CHUNK, width), dtype=bool)
    states[0] = 2 * (seed_of * g + model.state_index(*initial))
    start, decide, notify = replicas.start, replicas.decide, replicas.notify
    scheduled = (type(replicas).decide is ReplicaForm.decide
                 and type(replicas).notify is ReplicaForm.notify)

    for t0 in range(0, horizon, SLOT_CHUNK):
        c = min(SLOT_CHUNK, horizon - t0)
        # bisect_right of a cumulative row is the number of its entries <= u;
        # the last entry is 1.0 and never counts
        u_src = np.stack([src.random(c) for src, _, _ in streams], axis=1)[:, :, None]
        u_ctx = np.stack([ctx.random(c) for _, ctx, _ in streams], axis=1)[:, :, None]
        for j, (_, _, ch) in enumerate(streams):
            np.less(ch.random(c), p_success, out=delivers[j * horizon + t0:][:c])
        x_next = sum(src_rows[:, m] <= u_src for m in range(n - 1))
        phi_next = sum(ctx_rows[:, k] <= u_ctx for k in range(ctx_rows.shape[1] - 1))
        base = x_next + n * n * phi_next + seed_base
        nxt = 2 * np.stack([base + n * xhats, base + n * xs], axis=-1).reshape(c, -1)
        start(t0, sent[:c])

        if scheduled:
            # slot k reads the draw after its replica's earlier sends in the chunk
            used = np.cumsum(sent[:c], axis=0)
            delivered = delivers[cursor + used - sent[:c]] & sent[:c]
            cursor += used[-1]
            for k in range(c):
                states[k + 1] = nxt[k][states[k] + delivered[k]]
        else:
            for k in range(c):
                q, a = states[k], sent[k]
                decide(k, q, a)
                delivered = delivers[cursor]
                delivered &= a
                cursor += a
                notify(k, delivered)
                states[k + 1] = nxt[k][q + delivered]

        # add the chunk's costs slot by slot, as the single-replica loop does;
        # rows shaped as ``sums`` add several times faster than a broadcast row
        parts = np.repeat((got[states[:c]] + charge * sent[:c])[:, None], 2, axis=1)
        for k in range(c):
            if t0 + k == starts[b + 1]:
                batch_cost[b] = sums[1]
                sums[1] = 0.0
                b += 1
            sums += parts[k]
        samples += sent[:c].sum(axis=0)
        states[0] = states[c]
    batch_cost[b] = sums[1]

    means = np.ascontiguousarray((batch_cost / np.diff(starts)[:, None]).T)
    return [[_summary(horizon, seed, int(samples[r]), float(sums[0, r]), means[r])
             for r, seed in enumerate(seeds, start=i * n_seeds)] for i in range(n_rules)]


# Fewest (grid point, seed) replicas that ``sweep_rate_vs_cost`` runs as one
# ``simulate_replicas`` batch; a narrower family runs replica by replica in
# the scalar loop, which costs less per replica-slot below this width
# (ms per 10,000 slots by family and width in BENCH_14.json).
MIN_BATCH_REPLICAS = 9


@dataclass(frozen=True)
class SweepResult:
    policy: str
    param: object
    sampling_rate: float
    average_cost: float
    stderr: float


def sweep_rate_vs_cost(model: DecPomdpModel, family, grid, decision: DecisionPolicy,
                       horizon, seeds, initial=(0, 0, 0)):
    """Simulated cost-versus-rate curve for one policy family.

    One ``SweepResult`` per grid parameter, aggregated over the given seeds
    with the standard error of the per-seed average costs.  A family of at
    least ``MIN_BATCH_REPLICAS`` (parameter, seed) replicas runs them in one
    ``simulate_replicas`` batch; a narrower one runs each replica in
    ``simulate_closed_loop``.  Both give the same summaries bit for bit.
    """
    if not len(grid):
        raise ParameterError(f"sweep of family {family!r} needs at least one grid point")
    if not len(seeds):
        raise ParameterError("sweep needs at least one seed")
    if family not in FAMILIES:
        raise ParameterError(f"unknown policy family {family!r}")
    rules = [FAMILIES[family].rule(model, param, decision, None) for param in grid]
    if len(rules) * len(seeds) < MIN_BATCH_REPLICAS:
        table = [[simulate_closed_loop(model, rule, decision, horizon, seed,
                                       record_trace=False, initial=initial)[1]
                  for seed in seeds] for rule in rules]
    else:
        table = simulate_replicas(model, rules, decision, horizon, seeds, initial=initial)
    results = []
    for param, summaries in zip(grid, table):
        costs = [summary.average_cost for summary in summaries]
        rates = [summary.sampling_rate for summary in summaries]
        results.append(SweepResult(policy=family, param=param, stderr=_standard_error(costs),
                                   sampling_rate=float(np.mean(rates)),
                                   average_cost=float(np.mean(costs))))
    return results


def _cell_scenarios(scenario, grid):
    for p_success in grid.success_probs:
        for sampling_cost in grid.sampling_costs:
            yield p_success, sampling_cost, scenario.with_channel(
                p_success).with_sampling_cost(sampling_cost)


def _attempt(compute):
    """``(True, compute())``, or ``(False, error)`` where it raised a ``GoalTensorError``."""
    try:
        return True, compute()
    except GoalTensorError as exc:
        return False, exc


def _unwrap(outcome):
    """An ``_attempt``'s result, or the error it caught, raised again here."""
    ok, result = outcome
    if not ok:
        raise result.with_traceback(None)
    return result


def _kept(shared, key, compute):
    """``compute()``, run on the first use of ``key`` only and kept in the dict
    ``shared`` with the ``GoalTensorError`` it raised, if any: every use
    returns the result or raises that error again."""
    if key not in shared:
        shared[key] = _attempt(compute)
    return _unwrap(shared[key])


def _grid(cells, cell_rows):
    """Call ``cell_rows(p_success, sampling_cost, cell)`` on every grid cell
    ``(p_success, sampling_cost, cell)`` of ``cells`` (``_cell_scenarios``), in
    this process, whose callers solved every cell before.  Returns what it
    returned for each cell that succeeded, in grid order, and ``(pS, CS,
    message)`` for each cell where it raised a ``GoalTensorError``; a failed
    cell does not stop the others."""
    done, failed = [], []
    for p_success, sampling_cost, cell in cells:
        ok, result = _attempt(lambda: cell_rows(p_success, sampling_cost, cell))
        if ok:
            done.append(result)
        else:
            failed.append((p_success, sampling_cost, str(result)))
    return done, failed


def solve_cell(cell, algorithm, initial_decision=None):
    """Run the scenario's configured solver on one scenario or grid cell.

    The one place that turns ``cell.solver`` into solver arguments: epsilon,
    budget and every round cap, scored from the scenario's start state.
    ``algorithm`` is ``"brute"`` (``brute_force_joint``, every candidate
    screened and those the screen keeps solved), ``"jesp"``, or
    ``"rvi-fixed-decision"``: the sampler's best response to the greedy
    decision policy (``solve_sampler_for_decision``), reported with 0
    iterations and residual 0.0.  jesp starts from
    ``initial_decision``, the cell's ``heuristic_initial_decision``, computed
    here when not given.
    """
    from .solvers import (SolveReport, brute_force_joint, greedy_decision_policy,
                          heuristic_initial_decision, jesp, solve_sampler_for_decision)
    solver = cell.solver
    if algorithm == "brute":
        return brute_force_joint(cell.model, **_brute_settings(cell))
    if algorithm == "jesp":
        if initial_decision is None:
            initial_decision = heuristic_initial_decision(cell.model, epsilon=solver.epsilon)
        return jesp(cell.model, initial_decision, **_jesp_settings(cell))
    if algorithm == "rvi-fixed-decision":
        decision = greedy_decision_policy(cell.model)
        sampling, gain, _ = solve_sampler_for_decision(
            cell.model, decision, epsilon=solver.epsilon, max_sweeps=solver.max_pi_rounds,
            start_state=cell.start_state)
        return SolveReport(sampling_policy=sampling, decision_policy=decision,
                           average_reward=gain, iterations=0, residual=0.0,
                           converged=True, diagnostics={})
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def _brute_settings(cell):
    """``brute_force_joint``'s settings from ``cell.solver`` and its start state."""
    solver = cell.solver
    return dict(epsilon=solver.epsilon, budget=solver.budget, max_sweeps=solver.max_pi_rounds,
                start_state=cell.start_state)


def _jesp_settings(cell):
    """``jesp``'s keyword arguments from ``cell.solver``, scored from the cell's start state."""
    solver = cell.solver
    return dict(epsilon=solver.epsilon, step_schedule=solver.step_schedule,
                restarts=solver.restarts, seed=solver.seed, max_rounds=solver.max_jesp_rounds,
                pi_rounds=solver.max_pi_rounds, start_state=cell.start_state)


def _grid_jesp(scenario, cells):
    """jesp on every cell of ``cells`` (``_cell_scenarios``), ``_attempt``ed, by
    (pS, CS).

    Every distinct cell's search (``solvers.jesp_search``) runs in one
    ``solvers.lockstep`` pass in this process, as many at once as
    ``solvers.jesp_in_flight`` keeps within the byte limit, from the grid's seed
    (``heuristic_initial_decision``, which reads the source, the context and
    the action costs, which no cell changes); where the seed fails, every
    cell fails with its error.  Each report is what ``solve_cell`` gives.
    """
    from .solvers import heuristic_initial_decision
    keys = {(p_success, sampling_cost): cell for p_success, sampling_cost, cell in cells}
    ok, seed = _attempt(lambda: heuristic_initial_decision(scenario.model,
                                                           epsilon=scenario.solver.epsilon))
    if not ok:
        return dict.fromkeys(keys, (False, seed))
    return dict(zip(keys, solvers.lockstep(
        [solvers.jesp_search(cell.model, seed, **_jesp_settings(cell)) for cell in keys.values()],
        solvers.jesp_in_flight(scenario.model))))


def _grid_brute(scenario, cells):
    """Brute force on every cell of ``cells``, ``_attempt``ed, by (pS, CS): one
    whole-cell search per distinct cell (``solvers.brute_force_search``).
    The cells are checked here, which builds the kernels the workers inherit
    and warns once per cell; the searches of the cells that pass are spread
    over ``solvers.pool_map``, which runs a single one here.  Each report is
    ``solve_cell``'s."""
    keys = {(p_success, sampling_cost): cell for p_success, sampling_cost, cell in cells}
    reports = {}
    for key, cell in keys.items():
        reports[key] = _attempt(lambda: solvers.brute_force_search(
            cell.model, **_brute_settings(cell)))
        if reports[key][0]:
            solvers.warn_if_start_dependent(cell.model)
    ready = [key for key, (ok, _) in reports.items() if ok]
    reports.update(zip(ready, solvers.pool_map(
        _searched, [reports[key][1] for key in ready], solvers.CORES)))
    return reports


def _searched(search):
    """``search`` run to its end: ``(True, report)``, or ``(False, error)`` of
    the ``GoalTensorError`` it raised (``solvers.lockstep``)."""
    (outcome,) = solvers.lockstep([search])
    return outcome


def compare_policies(scenario, algorithm="jesp", include_classic=False):
    """Average cost of the co-designed pair versus the separate-design baselines.

    Returns ``(compare rows, decomp rows, failed cells)`` from one solve per
    grid cell (failures as in ``_grid``): brute force by one search per cell
    (``_grid_brute``), jesp by the grid's lockstep pass (``_grid_jesp``).  A
    cell's compare rows are the solver's value, then each ``FAMILIES``
    baseline (``include_classic`` adds the classic ones) evaluated exactly at
    its best parameter over the cell's sweep grid; its decomp row is the
    exact cost split of the solved pair.

    Work that several cells share is done once and kept for this call only.
    Once per grid: the greedy decision table, and jesp's seed.  Once per
    success probability (a row of the grid): each baseline family whose
    policies do not depend on the sampling cost (``Family.by_cost`` is None)
    is evaluated and re-priced at each cell's cost (``benchmarks.priced``,
    bit for bit an evaluation at that cost); the other families' policies
    for every cost of the row are solved in one batch (``by_cost``), falling
    back to one solve per cell when the batch fails; and each distinct
    (sampling policy, decision policy) pair is evaluated once and re-priced.
    A shared computation that raised a ``GoalTensorError`` raises it again in
    every cell that uses it, where that cell would have raised it.

    Every cell's solve and baselines are computed first, before the rows.
    """
    from .solvers import greedy_decision_policy
    greedy = _attempt(lambda: greedy_decision_policy(scenario.model))
    families = [(name, family) for name, family in FAMILIES.items()
                if family.baseline and (include_classic or not family.classic)]
    row_costs = list(dict.fromkeys(scenario.grid.sampling_costs))
    shared = {}

    def pair_cost(cell, sampling, decision):
        model = cell.model
        key = ("pair", model.channel.success_prob, sampling.decisions.tobytes(),
               decision.actions.tobytes())
        law = _kept(shared, key, lambda: evaluate_state_policy(model, sampling, decision,
                                                               cell.start_state))
        return priced(law, model.cost.sampling_cost)

    def baseline_cost(name, family, cell):
        model, values = cell.model, cell.state_values
        p_success, sampling_cost = model.channel.success_prob, model.cost.sampling_cost
        decision = _unwrap(greedy)
        if family.by_cost is None:
            params = family.grid(cell.sweep) if family.grid else [None]
            summaries = _kept(shared, (name, p_success), lambda: family.evaluate(
                model, params, decision, cell.start_state, values))
            return min(priced(summary, sampling_cost).average_cost for summary in summaries)
        try:
            policies = _kept(shared, (name, p_success), lambda: dict(zip(
                row_costs, family.by_cost(model, row_costs, decision, values))))
            policy = policies[sampling_cost]
        except GoalTensorError:
            # the row's batch failed: the cell's own solve raises the cell's own error
            policy = family.by_cost(model, [sampling_cost], decision, values)[0]
        return pair_cost(cell, policy, decision).average_cost

    # every cell's solve and baselines first: each row's shared work runs once
    cells = list(_cell_scenarios(scenario, scenario.grid))
    reports = (_grid_jesp(scenario, cells) if algorithm == "jesp"
               else _grid_brute(scenario, cells) if algorithm == "brute" else None)
    cell_baselines = {
        (p_success, sampling_cost): [
            (name, family.baseline, _attempt(lambda: baseline_cost(name, family, cell)))
            for name, family in families]
        for p_success, sampling_cost, cell in cells}

    def cell_rows(p_success, sampling_cost, cell):
        baselines = cell_baselines[p_success, sampling_cost]
        report = (_unwrap(reports[p_success, sampling_cost]) if reports is not None
                  else solve_cell(cell, algorithm))
        split = pair_cost(cell, report.sampling_policy, report.decision_policy)
        costs = [("got-codesign", report.average_cost)]
        costs += [(label, _unwrap(outcome)) for _, label, outcome in baselines]
        return ([{"pS": p_success, "CS": sampling_cost, "policy": policy, "cost": cost}
                 for policy, cost in costs],
                {"pS": p_success, "CS": sampling_cost, "sampling": split.sampling,
                 "actuation": split.actuation, "inherent": split.inherent})

    done, failed = _grid(cells, cell_rows)
    return [row for rows, _ in done for row in rows], [split for _, split in done], failed


def optimality_gap(scenario):
    """Exact-versus-equilibrium cost gap per grid cell, in cost units.

    Brute force and jesp each solve every cell once, before the rows: jesp in
    one lockstep pass (``_grid_jesp``), then brute force one search per
    cell (``_grid_brute``), which reads none of jesp's reports.  Returns
    ``(gap rows, failed cells)``, failures as in ``_grid``; where both
    solvers fail in a cell, brute force's error is the one named.
    """
    cells = list(_cell_scenarios(scenario, scenario.grid))
    reports = _grid_jesp(scenario, cells)
    brute = _grid_brute(scenario, cells)

    def cell_row(p_success, sampling_cost, cell):
        bf = _unwrap(brute[p_success, sampling_cost]).average_cost
        je = _unwrap(reports[p_success, sampling_cost])
        return {"pS": p_success, "CS": sampling_cost, "theta_bf": bf,
                "theta_jesp": je.average_cost, "gap": je.average_cost - bf}

    return _grid(cells, cell_row)


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

# Largest mixed-radix key ``write_trace_csv`` builds before renumbering it.
_KEY_LIMIT = 1 << 62


def _column_codes(column, through=None):
    """``(codes, values, keyed)``: ``values[codes[i]]`` is ``column[i]`` for every row.

    ``keyed`` where ``column`` is, bit for bit, a function of the integer
    column ``through`` and is coded as it, with no sort of its own.  Else an
    integer column whose range is no wider than the column is coded as its
    offset from the minimum, with no sort; any other column by ``np.unique``
    of its bits, so a float's ``-0.0`` and ``0.0`` stay apart.
    """
    if through is not None and column.size:
        codes, _, _ = _column_codes(through)
        at = np.zeros(int(codes.max()) + 1, dtype=np.intp)
        at[codes] = np.arange(codes.size)
        bits = f"i{column.itemsize}"
        if np.array_equal(column[at][codes].view(bits), column.view(bits)):
            return codes, column[at].tolist(), True
    if column.dtype.kind in "iu" and column.size:
        low, high = int(column.min()), int(column.max())
        if high - low < column.size:
            return (column - low).astype(np.int64), range(low, high + 1), False
    bits = column.view(f"i{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, codes = np.unique(bits, return_inverse=True)
    return codes, distinct.view(column.dtype).tolist(), False


def write_trace_csv(path, trace: Trace):
    """Write ``trace.csv``, byte for byte what ``csv.writer`` writes for its rows.

    Rows after ``t`` repeat (0.9-5.2 thousand distinct in 25,000 slots of the
    bundled scenario, by rule), so each distinct one is formatted once.  A
    row's column codes (``_column_codes``) pack into one mixed-radix int64 key,
    renumbered by ``np.unique`` before the radix could pass ``_KEY_LIMIT``.
    The goal-cost columns are coded through key columns they are functions
    of, and stay out of the key: ``aoii`` through ``aos``, ``mse`` through
    (x, xhat), ``got`` through the state and ``cost`` through (state, a_s).
    Each column's distinct values are formatted once: ``str`` of a Python
    float is its shortest round-trip ``repr``, as ``_fmt`` writes it, and a
    negative ``h`` (no channel draw) is a blank field.  Each chunk of
    ``TRACE_CSV_ROWS`` rows interleaves ``str`` of ``t`` with its rows' texts
    in one ``"".join``.
    """
    n = 1 + int(max(trace.x.max(initial=0), trace.xhat.max(initial=0)))
    state = trace.x + n * (trace.xhat + n * trace.phi)
    through = {"aoii": trace.aos, "mse": trace.x + n * trace.xhat, "got": state,
               "cost": 2 * state + trace.a_s}
    key, radix = np.zeros(len(trace), dtype=np.int64), 1
    columns = []
    for column in fields(Trace)[1:]:
        codes, values, keyed = _column_codes(getattr(trace, column.name),
                                             through.get(column.name))
        if not keyed:
            if radix * len(values) > _KEY_LIMIT:
                distinct, key = np.unique(key, return_inverse=True)
                radix = len(distinct)
            key = key * len(values) + codes
            radix *= len(values)
        text = ["" if column.name == "h" and v < 0 else str(v) for v in values]
        columns.append((np.array(text, dtype=object), codes))
    _, first, row = np.unique(key, return_index=True, return_inverse=True)
    cells = zip(*(text[codes[first]].tolist() for text, codes in columns))
    rows = np.array(["," + ",".join(cell) + "\r\n" for cell in cells], dtype=object)
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for start in range(0, len(trace), TRACE_CSV_ROWS):
            stop = start + TRACE_CSV_ROWS
            t = trace.t[start:stop].tolist()
            parts = [""] * (2 * len(t))
            parts[::2] = map(str, t)
            parts[1::2] = rows[row[start:stop]].tolist()
            fh.write("".join(parts))
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
