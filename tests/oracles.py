"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, literal way (scalar loops,
explicit enumeration of channel outcomes, long-run limits by matrix squaring)
so it shares no code path with the package.
"""

import csv
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from goaltensor.errors import ErgodicityError, NonConvergenceError, ParameterError
from goaltensor.harness import BATCHES, TRACE_HEADER, _cumulative_rows, _summary
from goaltensor.model import DecPomdpModel, GlobalState, TabularMdp
from goaltensor.solvers import (DEFAULT_EPSILON, POISSON_TOL, _ChainEval, cesaro_limit,
                                stationary_distribution)
from goaltensor.tensor import Alphabets, CostModel

MAX_RVI_SWEEPS = 10_000


def tensor_entry_by_hand(cost: CostModel, policy, x, phi, xhat):
    """Scalar evaluation of the goal cost definition."""
    action = int(policy.actions[xhat])
    net = cost.inherent[phi][x] - cost.gain_weight * cost.gain[action]
    ramp = net if net > 0 else 0.0
    return ramp + cost.expenditure_weight * cost.expenditure[action]


def kernel_by_hand(model: DecPomdpModel, w: GlobalState, sample, actuate):
    """Next-state law by explicit averaging over the channel outcome.

    Re-derives the transition from the four primitive rules: the source row,
    the context row, estimate frozen when idle or on failure, estimate set to
    the transmitted state on success.
    """
    n = model.alphabets.n_states
    v = model.alphabets.n_contexts
    p = model.channel.success_prob
    out = np.zeros(model.n_global_states)
    outcomes = [(1, p), (0, 1.0 - p)] if sample else [(None, 1.0)]
    for h, weight in outcomes:
        if weight == 0.0:
            continue
        for u in range(n):
            for r in range(v):
                if h == 1:
                    est = w.x
                else:
                    est = w.xhat
                prob = (model.source.probs[w.x, w.phi, actuate, u]
                        * model.context.probs[w.phi, r] * weight)
                out[model.state_index(u, est, r)] += prob
    return out


def closed_classes_by_components(P):
    """Recurrent (closed) communicating classes of a stochastic matrix.

    Edges are taken wherever the one-step probability is positive; a strongly
    connected component is closed when no edge leaves it.  Classes come in
    scipy's component order.
    """
    edges = np.asarray(P) > 0.0
    n_comp, labels = connected_components(csr_matrix(edges), directed=True,
                                          connection="strong")
    closed = []
    for comp in range(n_comp):
        members = labels == comp
        if not edges[members][:, ~members].any():
            closed.append(np.flatnonzero(members))
    return closed


def limit_matrix(P, doublings=60):
    """Cesaro limit by repeated squaring of the lazy chain (period-proof)."""
    B = 0.5 * (np.eye(P.shape[0]) + np.asarray(P, dtype=float))
    for _ in range(doublings):
        B = B @ B
        B /= B.sum(axis=1, keepdims=True)
    return B


def gain_from(P, rbar, start):
    """Long-run average reward from a start state via the limit matrix."""
    return float((limit_matrix(P) @ np.asarray(rbar, dtype=float))[start])


# ---------------------------------------------------------------------------
# unichain stationary analysis and the multichain Cesaro-limit Poisson solve:
# soft policy iteration's chain evaluator before one built on the policy
# iteration's ``_evaluate_batch`` replaced it, kept to cross-check the
# replacement


def average_reward(mu, rbar) -> float:
    """Stationary expectation of the per-state expected reward."""
    return float(np.dot(mu, rbar))


def relative_reward(P, rbar, mu, eta) -> np.ndarray:
    """Differential reward solving eta + g = rbar + P g, normalized so mu @ g = 0."""
    n = P.shape[0]
    system = np.eye(n) - P + np.outer(np.ones(n), mu)
    try:
        g = np.linalg.solve(system, rbar) - eta
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"fundamental-matrix system is singular: {exc}") from exc
    return g


@dataclass(frozen=True)
class StationaryAnalysis:
    distribution: np.ndarray
    expected_reward: np.ndarray
    average_reward: float
    relative_reward: np.ndarray


def analyze_chain(P, rbar) -> StationaryAnalysis:
    """Stationary distribution, gain, and differential rewards, residual-checked."""
    mu = stationary_distribution(P)
    eta = average_reward(mu, rbar)
    g = relative_reward(P, rbar, mu, eta)
    residual = np.abs(eta + g - rbar - P @ g).max()
    if residual > POISSON_TOL:
        raise NonConvergenceError(
            f"differential-reward residual {residual:.3e} exceeds {POISSON_TOL:g}",
            residual=residual)
    return StationaryAnalysis(distribution=mu, expected_reward=rbar,
                              average_reward=eta, relative_reward=g)


def _general_analysis(P, rbar, start):
    """Cesaro-limit gain vector and differential rewards (multichain Poisson)."""
    star = cesaro_limit(P)
    eta_vec = star @ rbar
    n = len(rbar)
    try:
        g = np.linalg.solve(np.eye(n) - P + star, rbar - eta_vec)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"multichain fundamental system singular: {exc}") from exc
    residual = np.abs(eta_vec + g - rbar - P @ g).max()
    if residual > POISSON_TOL:
        raise NonConvergenceError(
            f"multichain differential-reward residual {residual:.3e} exceeds {POISSON_TOL:g}",
            residual=residual)
    return _ChainEval(mu=star[start], eta=float(eta_vec[start]), eta_vec=eta_vec, g=g)


def joint_chain_by_hand(model: DecPomdpModel, sample_bits, decision_actions):
    """Chain and reward of a deterministic joint policy, built state by state."""
    N = model.n_global_states
    P = np.zeros((N, N))
    rbar = np.zeros(N)
    for i in range(N):
        w = model.state_of(i)
        a_s = int(sample_bits[i])
        a_a = int(decision_actions[w.xhat])
        P[i] = kernel_by_hand(model, w, a_s, a_a)
        net = model.cost.inherent[w.phi][w.x] - model.cost.gain_weight * model.cost.gain[a_a]
        got = max(net, 0.0) + model.cost.expenditure_weight * model.cost.expenditure[a_a]
        rbar[i] = -(got + model.cost.sampling_cost * a_s)
    return P, rbar


def exhaustive_joint_search(model: DecPomdpModel, start=0):
    """Value of every deterministic joint policy, from a fixed start state.

    Returns (best reward, list of (sample_bits, decision, reward)).  Values
    come from the limit matrix, so multichain policies are handled exactly.
    """
    N = model.n_global_states
    n, a = model.alphabets.n_states, model.alphabets.n_actions
    results = []
    best = -np.inf
    for decision in itertools.product(range(a), repeat=n):
        for bits in itertools.product((0, 1), repeat=N):
            P, rbar = joint_chain_by_hand(model, bits, decision)
            value = gain_from(P, rbar, start)
            results.append((bits, decision, value))
            best = max(best, value)
    return best, results


def random_model(rng, n_states=3, n_contexts=2, n_actions=3, success_prob=None,
                 sampling_cost=None, concentration=1.0):
    """Random fully-supported model; every row strictly positive."""
    from goaltensor.model import ChannelModel, ContextDynamics, SourceDynamics
    src = rng.gamma(concentration, size=(n_states, n_contexts, n_actions, n_states)) + 0.05
    src /= src.sum(axis=-1, keepdims=True)
    ctx = rng.gamma(concentration, size=(n_contexts, n_contexts)) + 0.05
    ctx /= ctx.sum(axis=-1, keepdims=True)
    cost = CostModel(
        inherent=rng.uniform(0, 10, size=(n_contexts, n_states)),
        gain=np.sort(rng.uniform(0, 8, size=n_actions)),
        expenditure=np.sort(rng.uniform(0, 3, size=n_actions)),
        sampling_cost=float(rng.uniform(0, 3)) if sampling_cost is None else sampling_cost,
    )
    return DecPomdpModel(
        alphabets=Alphabets(n_states, n_contexts, n_actions),
        source=SourceDynamics(src),
        context=ContextDynamics(ctx),
        channel=ChannelModel(float(rng.uniform(0.05, 1.0)) if success_prob is None
                             else success_prob),
        cost=cost,
    )


def tiny_two_state_model(rng=None, success_prob=0.7, sampling_cost=0.5):
    """Smallest joint-search instance: 2 states, 1 context, 2 actuations."""
    rng = rng or np.random.default_rng(0)
    return random_model(rng, n_states=2, n_contexts=1, n_actions=2,
                        success_prob=success_prob, sampling_cost=sampling_cost)


def uniform_by_augmented_chain(model: DecPomdpModel, period, decision, start_state=0):
    """Exact cost of periodic transmission on the (N * period)-state phase-augmented chain.

    The chain carries the slot phase next to the global state; transmission
    happens in phase 0.  Occupation is the stationary law when the chain has
    one closed class, else the Cesaro row of (phase 0, start state).
    """
    from goaltensor.benchmarks import _cost_pieces, _gathered_kernels, _summarize
    from goaltensor.solvers import closed_classes
    N = model.n_global_states
    idle, success = _gathered_kernels(model, decision)
    p = model.channel.success_prob
    transmit = p * success + (1.0 - p) * idle
    big = np.zeros((N * period, N * period))
    for phase in range(period):
        step = transmit if phase == 0 else idle
        nxt = (phase + 1) % period
        big[phase * N:(phase + 1) * N, nxt * N:(nxt + 1) * N] = step
    if len(closed_classes(big)) == 1:
        mu = stationary_distribution(big)
    else:
        mu = cesaro_limit(big)[start_state]
    ramp, spend = _cost_pieces(model, decision)
    return _summarize(model, mu.reshape(period, N).sum(axis=0), float(mu[:N].sum()),
                      ramp, spend)


def age_threshold_by_augmented_chain(model: DecPomdpModel, threshold, decision):
    """Exact cost of age-triggered transmission on the truncated age-augmented chain.

    The chain is augmented with the age of the freshest delivered update,
    truncated just past the threshold (all older ages behave identically, so
    the truncation is exact).  Age starts at 1 and resets to 1 on delivery.
    The chain has N * (threshold + 2) states.  Occupation is the stationary
    law when it has one closed class, else the Cesaro row of (age 1, start
    state).  Returns one summary per start state, so one limit serves them all.
    """
    from goaltensor.benchmarks import _cost_pieces, _gathered_kernels, _summarize
    cap = threshold + 2                      # ages 1..cap, top level absorbs
    N = model.n_global_states
    idle, success = _gathered_kernels(model, decision)
    p = model.channel.success_prob
    big = np.zeros((N * cap, N * cap))
    for level in range(cap):                 # age = level + 1
        age = level + 1
        up = min(level + 1, cap - 1)
        if age > threshold:
            big[level * N:(level + 1) * N, 0:N] += p * success
            big[level * N:(level + 1) * N, up * N:(up + 1) * N] += (1.0 - p) * idle
        else:
            big[level * N:(level + 1) * N, up * N:(up + 1) * N] += idle
    if len(closed_classes_by_components(big)) == 1:
        laws = [stationary_distribution(big)] * N
    else:
        laws = cesaro_limit(big)[:N]         # age 1 at each start state
    ramp, spend = _cost_pieces(model, decision)
    summaries = []
    for mu in laws:
        mu_mat = mu.reshape(cap, N)
        rate = float(mu_mat[threshold:].sum())   # levels with age > threshold
        summaries.append(_summarize(model, mu_mat.sum(axis=0), rate, ramp, spend))
    return summaries


def local_search_one_by_one(problem, actions, eta, start):
    """Steepest-ascent single-observation local search, one deviation at a time.

    Each deviation is scored by its long-run law from ``start`` (stationary
    law, else the Cesaro row of ``start``) against its expected reward.
    """
    from goaltensor.solvers import IMPROVE_TOL, chain_law
    n_actions = problem.model.alphabets.n_actions
    actions = np.array(actions, dtype=int)
    improved = True
    while improved:
        improved = False
        best_eta, best_move = eta, None
        for obs in range(len(actions)):
            for a in range(n_actions):
                if a == actions[obs]:
                    continue
                trial = actions.copy()
                trial[obs] = a
                table = np.zeros((len(trial), n_actions))
                table[np.arange(len(trial)), trial] = 1.0
                P, rbar = problem.chain(table)
                trial_eta = float(chain_law(P, start) @ rbar)
                if trial_eta > best_eta + IMPROVE_TOL:
                    best_eta, best_move = trial_eta, (obs, a)
        if best_move is not None:
            actions[best_move[0]] = best_move[1]
            eta = best_eta
            improved = True
    return actions, eta


# ---------------------------------------------------------------------------
# relative value iteration: the sampler solver before multichain policy
# iteration replaced it, kept to cross-check the replacement


@dataclass(frozen=True)
class ValueTable:
    values: np.ndarray
    reference_state: int


@dataclass(frozen=True)
class RviSolution:
    policy: np.ndarray          # best action per state
    gain: float                 # optimal average reward
    values: ValueTable
    iterations: int
    residual: float


def rvi_solve(mdp: TabularMdp, epsilon=DEFAULT_EPSILON, reference_state=0,
              max_sweeps=MAX_RVI_SWEEPS) -> RviSolution:
    """Relative value iteration for the average-reward optimality equation.

    Values are re-anchored at the reference state every sweep; on return the
    gain and values satisfy the optimality equation with residual below
    ``epsilon`` at every state (raised as an error otherwise).  Ties in the
    greedy policy break toward the lowest action index.
    """
    T, R = mdp.transitions, mdp.rewards
    n = mdp.n_states
    if not 0 <= reference_state < n:
        raise ParameterError(f"reference state {reference_state} outside 0..{n - 1}")
    V = np.zeros(n)
    V_older = None
    diff = cycle = np.inf
    # the einsum form keeps the reduction order identical to the batched solver
    for sweep in range(1, max_sweeps + 1):
        TV = (R + np.einsum("ans,s->na", T, V)).max(axis=1)
        V_new = TV - TV[reference_state]
        diff = np.abs(V_new - V).max()
        cycle = np.abs(V_new - V_older).max() if V_older is not None else np.inf
        V_older, V = V, V_new
        if diff < 0.5 * epsilon:
            break
    else:
        if cycle < 0.5 * epsilon <= diff:
            raise NonConvergenceError(
                f"period-2 value oscillation after {max_sweeps} sweeps; consider an "
                f"aperiodicity transform of the kernel",
                residual=diff, iterations=max_sweeps)
        raise NonConvergenceError(
            f"no convergence after {max_sweeps} sweeps; last value change {diff:.3e}",
            residual=diff, iterations=max_sweeps)
    Q = R + np.einsum("ans,s->na", T, V)
    TV = Q.max(axis=1)
    gain = float(TV[reference_state])
    residual = float(np.abs(gain + V - TV).max())
    if residual >= epsilon:
        raise NonConvergenceError(
            f"optimality-equation residual {residual:.3e} not below {epsilon:g}",
            residual=residual, iterations=sweep)
    policy = Q.argmax(axis=1)
    return RviSolution(policy=policy, gain=gain,
                       values=ValueTable(values=V, reference_state=reference_state),
                       iterations=sweep, residual=residual)


def _rvi_batch(T, R, epsilon, reference_state, max_sweeps, on_stall="error"):
    """Relative value iteration over a batch of MDPs sharing a state space.

    Matches ``rvi_solve`` exactly per batch member: the same sweeps, the same
    stopping rule (members freeze as soon as they converge), the same greedy
    tie-breaking.  Returns (policies, gains, values, iterations, residuals,
    stalled).

    A member stalls when value differences plateau (in this problem family:
    estimate slices the greedy policy never couples, with gain differences too
    small for the finite sweep budget to surface an escape).  With
    ``on_stall="estimate"`` such members are frozen at the cap and reported
    with ``stalled`` set; their gain is then the reference slice's own gain,
    which the member can actually achieve, so it never overstates the optimum.
    """
    n_batch, _, n, _ = T.shape
    V = np.zeros((n_batch, n))
    iterations = np.zeros(n_batch, dtype=int)
    active = np.ones(n_batch, dtype=bool)
    for sweep in range(1, max_sweeps + 1):
        idx = np.flatnonzero(active)
        TV = (R[idx] + np.einsum("kans,ks->kna", T[idx], V[idx])).max(axis=2)
        V_new = TV - TV[:, reference_state][:, None]
        diff = np.abs(V_new - V[idx]).max(axis=1)
        V[idx] = V_new
        done = diff < 0.5 * epsilon
        iterations[idx[done]] = sweep
        active[idx[done]] = False
        if not active.any():
            break
    stalled = active.copy()
    iterations[stalled] = max_sweeps
    if stalled.any() and on_stall != "estimate":
        raise NonConvergenceError(
            f"{int(stalled.sum())} of {n_batch} candidates unconverged after {max_sweeps} sweeps",
            iterations=max_sweeps)
    Q = R + np.einsum("kans,ks->kna", T, V)
    TV = Q.max(axis=2)
    gains = TV[:, reference_state]
    residuals = np.abs(gains[:, None] + V - TV).max(axis=1)
    bad = (residuals >= epsilon) & ~stalled
    if np.any(bad):
        worst = int(np.flatnonzero(bad)[residuals[bad].argmax()])
        raise NonConvergenceError(
            f"candidate {worst} optimality-equation residual {residuals[worst]:.3e} "
            f"not below {epsilon:g}", residual=float(residuals[worst]))
    return Q.argmax(axis=2), gains, V, iterations, residuals, stalled


def heuristic_decision_by_rvi(model: DecPomdpModel, epsilon=DEFAULT_EPSILON):
    """Perfect-estimate seed actions from ``rvi_solve``'s gain and relative values."""
    from goaltensor.model import heuristic_mdp
    mdp = heuristic_mdp(model)
    sol = rvi_solve(mdp, epsilon=epsilon)
    q = mdp.rewards - sol.gain + (mdp.transitions @ sol.values.values).T
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    by_state = np.einsum("p,xpa->xa", model.context.stationary(),
                         q.reshape(v, n, -1).transpose(1, 0, 2))
    return by_state.argmax(axis=1)


def mse_sampler_by_rvi(model: DecPomdpModel, decision, state_values,
                       epsilon=DEFAULT_EPSILON):
    """Squared-error sampler MDP and ``_rvi_batch``'s policy for it.

    Returns (flat policy, whether RVI stalled at its sweep cap, the MDP).
    """
    from goaltensor.model import induced_mdp
    mdp = induced_mdp(model, decision)
    xs, xhats, _ = model.state_components()
    sq_err = (state_values[xs] - state_values[xhats]) ** 2
    rewards = -np.stack([sq_err, sq_err + model.cost.sampling_cost], axis=1)
    mdp = TabularMdp(transitions=mdp.transitions, rewards=rewards)
    pol, _, _, _, _, stalled = _rvi_batch(mdp.transitions[None], rewards[None], epsilon, 0,
                                          MAX_RVI_SWEEPS, on_stall="estimate")
    return pol[0], bool(stalled[0]), mdp


def policy_gain(mdp: TabularMdp, policy, start=0):
    """Gain from ``start`` of a deterministic policy of a tabular MDP."""
    rows = np.arange(mdp.n_states)
    return gain_from(mdp.transitions[policy, rows], mdp.rewards[rows, policy], start)


def sweep_one_by_one(model: DecPomdpModel, family, grid, decision, horizon, seeds,
                     initial=(0, 0, 0)):
    """``harness.sweep_rate_vs_cost`` as it was before the batched engine:
    one ``simulate_closed_loop`` run per (grid parameter, seed) replica."""
    from goaltensor.benchmarks import FAMILIES
    from goaltensor.harness import SweepResult, simulate_closed_loop
    results = []
    for param in grid:
        costs, rates, splits = [], [], []
        for seed in seeds:
            rule = FAMILIES[family].rule(model, param, decision, None)
            _, summary = simulate_closed_loop(model, rule, decision, horizon, seed,
                                              record_trace=False, initial=initial)
            costs.append(summary.average_cost)
            rates.append(summary.sampling_rate)
            splits.append((summary.inherent_cost, summary.gain_offset,
                           summary.expenditure, summary.sampling_cost))
        if len(costs) > 1:
            stderr = float(np.std(costs, ddof=1) / np.sqrt(len(costs)))
        else:
            stderr = float("nan")
        mean_split = np.mean(np.array(splits), axis=0)
        results.append(SweepResult(
            policy=family, param=param,
            sampling_rate=float(np.mean(rates)),
            average_cost=float(np.mean(costs)),
            stderr=stderr,
            cost_breakdown={"inherent": float(mean_split[0]),
                            "actuation_gain_offset": float(mean_split[1]),
                            "actuation_expenditure": float(mean_split[2]),
                            "sampling": float(mean_split[3])},
            n_seeds=len(costs)))
    return results


@dataclass(frozen=True)
class TraceRecord:
    t: int
    x: int
    xhat: int
    phi: int
    a_s: int
    a_a: int
    h: int | None           # channel draw; present exactly when a_s == 1
    aoi: int
    aos: int
    aoii: float
    aoci: int
    mse: float
    got: float
    cost: float


def decomposition_grid(scenario, algorithm="jesp"):
    """Cost split of the co-designed policy per grid cell; a failing cell raises.

    ``goaltensor compare`` does not call this: it reads the same rows from its
    ``compare_policies`` pass (``decomposition_rows``), one solve per cell.
    """
    from goaltensor.harness import _cell_scenarios, _decomposition, solve_cell
    rows = []
    for p_success, sampling_cost, cell in _cell_scenarios(scenario, scenario.grid):
        rows.append(_decomposition(p_success, sampling_cost, cell,
                                   solve_cell(cell, algorithm)))
    return rows


def simulate_records(model: DecPomdpModel, rule, decision, horizon, seed,
                     record_trace=True, initial=(0, 0, 0), state_values=None,
                     batches=BATCHES):
    """``harness.simulate_closed_loop`` as it was before the columnar trace: the
    ages are kept slot by slot and every slot builds a ``TraceRecord``."""
    if horizon < 1:
        raise ParameterError(f"horizon must be positive, got {horizon}")
    n = model.alphabets.n_states
    if state_values is None:
        state_values = np.arange(n, dtype=float)
    x, xhat, phi = initial

    src_stream, ctx_stream, ch_stream = [
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    src_u = src_stream.random(horizon).tolist()
    ctx_u = ctx_stream.random(horizon).tolist()
    ch_u = ch_stream.random(horizon).tolist()

    src_cum = _cumulative_rows(model.source.probs)
    src_rows = [[[src_cum[i, k, m].tolist() for m in range(model.alphabets.n_actions)]
                 for k in range(model.alphabets.n_contexts)]
                for i in range(n)]
    ctx_rows = _cumulative_rows(model.context.probs).tolist()

    ramp3 = np.maximum(
        model.cost.inherent.T[:, :, None]
        - model.cost.gain_weight * model.cost.gain[None, None, :], 0.0).tolist()
    spend = (model.cost.expenditure_weight * model.cost.expenditure).tolist()
    inherent2 = model.cost.inherent.T.tolist()
    sq_err = ((state_values[:, None] - state_values[None, :]) ** 2).tolist()
    acts = decision.actions.tolist()
    p_success = model.channel.success_prob
    charge = model.cost.sampling_cost

    rule.reset(x, xhat, phi)
    records = [] if record_trace else None
    n_batches = max(1, min(batches, horizon))
    batch_cost = [0.0] * n_batches
    batch_len = [0] * n_batches
    cost_sum = raw_sum = ramp_sum = spend_sum = 0.0
    samples = 0
    channel_cursor = 0
    aoi, aoci = 1, 1
    aos_prev = 0

    for t in range(horizon):
        a_s = rule.decide(t, x, xhat, phi)
        h = None
        delivered = False
        if a_s:
            h = 1 if ch_u[channel_cursor] < p_success else 0
            channel_cursor += 1
            delivered = h == 1
            samples += 1
        a_a = acts[xhat]
        ramp_term = ramp3[x][phi][a_a]
        got = ramp_term + spend[a_a]
        slot_cost = got + charge * a_s
        aos = 0 if x == xhat else aos_prev + 1

        cost_sum += slot_cost
        raw_sum += inherent2[x][phi]
        ramp_sum += ramp_term
        spend_sum += spend[a_a]
        b = t * n_batches // horizon
        batch_cost[b] += slot_cost
        batch_len[b] += 1

        if record_trace:
            records.append(TraceRecord(
                t=t, x=x, xhat=xhat, phi=phi, a_s=a_s, a_a=a_a, h=h,
                aoi=aoi, aos=aos, aoii=float(aos if x != xhat else 0),
                aoci=aoci, mse=sq_err[x][xhat], got=got, cost=slot_cost))

        rule.notify(x, xhat, phi, a_s, delivered)
        next_xhat = x if delivered else xhat
        aoi = 1 if delivered else aoi + 1
        aoci = 1 if (delivered and x != xhat) else aoci + 1
        x = bisect_right(src_rows[x][phi][a_a], src_u[t])
        phi = bisect_right(ctx_rows[phi], ctx_u[t])
        xhat = next_xhat
        aos_prev = aos

    means = [batch_cost[i] / batch_len[i] for i in range(n_batches) if batch_len[i]]
    return records, _summary(horizon, seed, charge, samples,
                             (cost_sum, raw_sum, ramp_sum, spend_sum), means)


def write_records_csv(path, records):
    """``trace.csv`` from ``TraceRecord`` rows through ``csv.writer``, as
    ``harness.write_trace_csv`` wrote it before the columnar trace."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for r in records:
            writer.writerow([fmt(v) for v in (r.t, r.x, r.xhat, r.phi, r.a_s, r.a_a, r.h,
                                              r.aoi, r.aos, r.aoii, r.aoci, r.mse, r.got,
                                              r.cost)])
    return path
