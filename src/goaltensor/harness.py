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
traced run use it, a traced run also keeping each slot's (x, xhat, phi, a_s,
h), from which numpy derives the ``Trace`` columns after the loop.
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
Cells that run brute force (``gap``, ``compare --algorithm brute``) are
solved on forked worker processes, one per core (``fork_map``), because at
N = 18 a brute-force solve holds the GIL and threads over cells gain
nothing; one-cell grids and jesp's cells stay in this process.  Every
worker holds its own kernels, so ``model.MAX_KERNEL_BYTES`` bounds each
process, not their sum.  Results come back in grid order, and every CSV is
the same byte for byte whatever the worker count.
"""

from __future__ import annotations

import csv
import functools
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import solvers
from .benchmarks import FAMILIES, ReplicaForm, evaluate_state_policy
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
    src_stream, ctx_stream, ch_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
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
        xs, xhats, phis, sent, draws = [], [], [], [], []
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
                    xs.append(x)
                    xhats.append(xhat)
                    phis.append(phi)
                    sent.append(a_s)
                    draws.append(h)

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
    return _derive_trace(model, decision, state_values, xs, xhats, phis, sent,
                         draws), summary


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
    rows = DecisionRows(model, decision.actions)
    s = model.state_index(x, xhat, phi)
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

    streams = [[np.random.default_rng(child)
                for child in np.random.SeedSequence(seed).spawn(3)] for seed in seeds]
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


# A forked worker's (function, items) of ``fork_map``, set in the worker only.
_WORKER_JOB = None


def _start_worker(fn, items):
    """Set up a forked worker of ``fork_map``.  The worker inherits ``fn`` and
    the items at the fork; brute force runs its chunks on one thread there,
    since the workers already use every core."""
    global _WORKER_JOB
    _WORKER_JOB = fn, items
    solvers.BRUTE_WORKERS = 1


def _worker_call(index):
    fn, items = _WORKER_JOB
    return fn(items[index])


def fork_map(fn, items):
    """``list(map(fn, items))``, the calls spread over forked worker processes.

    One worker per core (``solvers.CORES``), at most one per item.  Neither
    ``fn`` nor the items are pickled, since the workers inherit them at the
    fork; each result comes back pickled, in item order.  An exception that
    ``fn`` raises reaches the caller as it would from ``map``, after the
    pool is shut down: every worker is joined before this returns or raises.
    Runs in this process instead with fewer than two workers, where the
    platform has no ``fork`` start method, and while other threads run: a
    fork copies only the calling thread, so a lock another thread held would
    stay held in the workers.
    """
    workers = min(solvers.CORES, len(items))
    if workers < 2:
        return list(map(fn, items))
    # imported only here, so runs that never fork do not load them
    import multiprocessing
    import threading
    from concurrent.futures import ProcessPoolExecutor
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return list(map(fn, items))
    # a worker flushes the stdio buffers it inherited when it exits: empty them
    # first, or their text is written once more by every worker (CPython's
    # fork start method flushes them too, but documents no such promise)
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, items))
    try:
        return list(pool.map(_worker_call, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)


def _cell_outcome(cell_rows, cell):
    """``(True, rows)`` of one grid cell, or ``(False, message)`` where
    ``cell_rows`` raised a ``GoalTensorError``: a message crosses from a
    worker process where not every error class would unpickle."""
    p_success, sampling_cost, scenario = cell
    try:
        return True, cell_rows(p_success, sampling_cost, scenario)
    except GoalTensorError as exc:
        return False, str(exc)


def _grid(scenario, cell_rows, forked):
    """Call ``cell_rows(p_success, sampling_cost, cell)`` on every grid cell.

    Returns what it returned for each cell that succeeded, in grid order, and
    ``(pS, CS, message)`` for each cell where it raised a ``GoalTensorError``;
    a failed cell does not stop the others.  With ``forked`` the cells run on
    ``fork_map``'s worker processes.  Callers pass it for cells that run
    brute force (about 0.1 s a cell at N = 18), not for jesp's cells (about
    10 ms), which starting and stopping a pool (12-17 ms) would slow.
    """
    cells = list(_cell_scenarios(scenario, scenario.grid))
    outcomes = (fork_map if forked else map)(functools.partial(_cell_outcome, cell_rows),
                                             cells)
    done, failed = [], []
    for (p_success, sampling_cost, _), (ok, result) in zip(cells, outcomes):
        if ok:
            done.append(result)
        else:
            failed.append((p_success, sampling_cost, result))
    return done, failed


def solve_cell(cell, algorithm):
    """Run the scenario's configured solver on one scenario or grid cell.

    The one place that turns ``cell.solver`` into solver arguments: epsilon,
    budget and every round cap, scored from the scenario's start state.
    ``algorithm`` is ``"brute"`` (``brute_force_joint``), ``"jesp"``, or
    ``"rvi-fixed-decision"``: the sampler's best response to the greedy
    decision policy (``solve_sampler_for_decision``), reported with 0
    iterations and residual 0.0.
    """
    from .solvers import (SolveReport, brute_force_joint, greedy_decision_policy, jesp,
                          solve_sampler_for_decision)
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
    if algorithm == "rvi-fixed-decision":
        decision = greedy_decision_policy(cell.model)
        sampling, gain, _ = solve_sampler_for_decision(
            cell.model, decision, epsilon=solver.epsilon, max_sweeps=solver.max_pi_rounds,
            start_state=cell.start_state)
        return SolveReport(sampling_policy=sampling, decision_policy=decision,
                           average_reward=gain, iterations=0, residual=0.0,
                           converged=True, diagnostics={})
    raise ParameterError(f"unknown algorithm {algorithm!r}")


def compare_policies(scenario, algorithm="jesp", include_classic=False):
    """Average cost of the co-designed pair versus the separate-design baselines.

    Returns ``(compare rows, decomp rows, failed cells)`` from one
    ``solve_cell`` per grid cell (failures as in ``_grid``).  A cell's compare
    rows are the solver's value, then each ``FAMILIES`` baseline
    (``include_classic`` adds the classic ones) evaluated exactly at its best
    parameter over the cell's sweep grid; its decomp row is the exact cost
    split of the solved pair.
    """
    from .solvers import greedy_decision_policy

    def cell_rows(p_success, sampling_cost, cell):
        model, start = cell.model, cell.start_state
        report = solve_cell(cell, algorithm)
        split = evaluate_state_policy(model, report.sampling_policy,
                                      report.decision_policy, start)
        greedy = greedy_decision_policy(model)
        costs = [("got-codesign", report.average_cost)]
        for family in FAMILIES.values():
            if family.baseline and (include_classic or not family.classic):
                params = family.grid(cell.sweep) if family.grid else [None]
                costs.append((family.baseline, min(
                    family.evaluate(model, p, greedy, start, cell.state_values)
                    .average_cost for p in params)))
        return ([{"pS": p_success, "CS": sampling_cost, "policy": policy, "cost": cost}
                 for policy, cost in costs],
                {"pS": p_success, "CS": sampling_cost, "sampling": split.sampling,
                 "actuation": split.actuation, "inherent": split.inherent})

    cells, failed = _grid(scenario, cell_rows, forked=algorithm == "brute")
    return [row for rows, _ in cells for row in rows], [split for _, split in cells], failed


def optimality_gap(scenario):
    """Exact-versus-equilibrium cost gap per grid cell, in cost units.

    Brute force and jesp each solve every cell once.  Returns ``(gap rows,
    failed cells)``, failures as in ``_grid``.
    """
    def cell_row(p_success, sampling_cost, cell):
        bf = solve_cell(cell, "brute").average_cost
        je = solve_cell(cell, "jesp").average_cost
        return {"pS": p_success, "CS": sampling_cost, "theta_bf": bf, "theta_jesp": je,
                "gap": je - bf}

    return _grid(scenario, cell_row, forked=True)


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
