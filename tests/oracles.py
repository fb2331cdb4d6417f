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
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from goaltensor.errors import ErgodicityError, NonConvergenceError, ParameterError
from goaltensor.harness import BATCHES, TRACE_HEADER, _cumulative_rows, _summary
from goaltensor.model import DecisionRows, DecPomdpModel, TabularMdp
from goaltensor.solvers import (DEFAULT_EPSILON, PI_NOISE, POISSON_TOL, SCREEN_SWEEPS,
                                _ChainEval, _FixedSamplingProblem, _screen_bounds, cesaro_limit,
                                stationary_distribution)
from goaltensor.tensor import Alphabets, CostModel, DecisionPolicy

MAX_RVI_SWEEPS = 10_000
DETERMINE_EVERY = 1_000    # sweeps between moves to determined values (``rvi_solve``)


class GlobalState(NamedTuple):
    x: int
    xhat: int
    phi: int


def global_states(model: DecPomdpModel):
    """Every global state in flat-index order: x fastest, then xhat, then phi."""
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    return [GlobalState(x, xhat, phi)
            for phi in range(v) for xhat in range(n) for x in range(n)]


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


def policy_chain(model: DecPomdpModel, sampling, decision):
    """Transition matrix and expected reward under both policies.

    ``decision`` may be a deterministic ``DecisionPolicy`` or a stochastic
    (estimate x action) probability table.
    """
    n_states, n_actions = model.alphabets.n_states, model.alphabets.n_actions
    if isinstance(decision, DecisionPolicy):
        table = np.zeros((n_states, n_actions))
        table[np.arange(n_states), decision.actions] = 1.0
    else:
        table = np.asarray(decision, dtype=float)
        if table.shape != (n_states, n_actions):
            raise ParameterError(f"stochastic decision table has shape {table.shape}, "
                                 f"expected {(n_states, n_actions)}")
        if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ParameterError("stochastic decision rows must be nonnegative and sum to 1")
    return _FixedSamplingProblem(model, sampling).chain(table)


def joint_chain_by_hand(model: DecPomdpModel, sample_bits, decision_actions):
    """Chain and reward of a deterministic joint policy, built state by state."""
    N = model.n_global_states
    P = np.zeros((N, N))
    rbar = np.zeros(N)
    for i, w in enumerate(global_states(model)):
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


class WholeCellSkips(NamedTuple):
    skipped: np.ndarray     # bool per candidate
    screened: list          # indices screened in each round, ascending
    target: float           # the target of the last skips
    bounds: np.ndarray      # the least upper screen bound per candidate, inf where not screened


def screen_factors(model: DecPomdpModel):
    """The model's arguments of ``solvers._screen_bounds``: its success
    probability and context rows."""
    return model.channel.success_prob, model.context.probs


def dense_screen_bounds(T, R, h, target, sweeps):
    """``solvers._screen_bounds`` through dense kernels: MDPs ``T`` (K, A, N, N)
    and ``R`` (K, N, A), each sweep a full N x N mat-vec per action, the
    same bounds, margin and stopping rule."""
    k, _, n, _ = T.shape
    kernels, rewards = T.reshape(k, -1, n), R.transpose(0, 2, 1)
    scale = 1.0 + np.abs(R).max(axis=(1, 2))
    upper, live = np.full(k, np.inf), np.ones(k, dtype=bool)
    for _ in range(sweeps):
        Th = (rewards + (kernels @ h[..., None]).reshape(rewards.shape)).max(axis=1)
        span, margin = Th - h, PI_NOISE * (scale + np.abs(h).max(axis=1))
        np.minimum(upper, span.max(axis=1) + margin, out=upper, where=live)
        live = ~(upper < target)
        if not live.any():
            break
        h = Th - Th[:, :1]
    return (upper, np.where(live, span.min(axis=1) - margin, -np.inf),
            np.where(live[:, None], h, np.nan))


def whole_cell_skips(model: DecPomdpModel, ceiling, floor, epsilon):
    """What a brute force holding every candidate of its cell skips under a
    finite ``floor``, by the rule written out one candidate at a time.

    A candidate whose ceiling is below floor less epsilon is not screened.
    The rest are screened in rounds of ``SCREEN_SWEEPS`` sweeps, each
    candidate alone and from the h its last round reached (0 at first), by
    ``solvers._screen_bounds``.  After a round the target becomes the larger
    of itself and the best lower bound less epsilon, and a candidate is
    skipped where its ceiling or least upper bound is below the target.
    The rounds stop after four, or once at most one candidate is left.
    """
    n = len(ceiling)
    shape = (model.alphabets.n_actions,) * model.alphabets.n_states
    rows = DecisionRows(model, np.stack(np.unravel_index(np.arange(n), shape), axis=1))
    target = floor - epsilon
    bounds = np.full(n, np.inf)
    left = [k for k in range(n) if not ceiling[k] < target]
    h = {k: np.zeros((1, model.n_global_states)) for k in left}
    screened = []
    while left and len(screened) < 4 and (len(left) > 1 or not screened):
        screened.append(left)
        best = -np.inf
        for k in left:
            upper, lower, h[k] = _screen_bounds(rows.source[k:k + 1], rows.rewards[k:k + 1],
                                                h[k], target, SCREEN_SWEEPS,
                                                *screen_factors(model))
            bounds[k] = min(bounds[k], upper[0])
            best = max(best, lower[0])
        target = max(target, best - epsilon)
        left = [k for k in left if not min(ceiling[k], bounds[k]) < target]
    return WholeCellSkips(np.array([k not in left for k in range(n)]), screened, target, bounds)


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
    from goaltensor.benchmarks import _summarize
    from goaltensor.solvers import closed_classes
    N = model.n_global_states
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
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
    return _summarize(rows, mu.reshape(period, N).sum(axis=0), float(mu[:N].sum()))


def age_threshold_by_augmented_chain(model: DecPomdpModel, threshold, decision):
    """Exact cost of age-triggered transmission on the truncated age-augmented chain.

    The chain is augmented with the age of the freshest delivered update,
    truncated just past the threshold (all older ages behave identically, so
    the truncation is exact).  Age starts at 1 and resets to 1 on delivery.
    The chain has N * (threshold + 2) states.  Occupation is the stationary
    law when it has one closed class, else the Cesaro row of (age 1, start
    state).  Returns one summary per start state, so one limit serves them all.
    """
    from goaltensor.benchmarks import _summarize
    cap = threshold + 2                      # ages 1..cap, top level absorbs
    N = model.n_global_states
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
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
    summaries = []
    for mu in laws:
        mu_mat = mu.reshape(cap, N)
        rate = float(mu_mat[threshold:].sum())   # levels with age > threshold
        summaries.append(_summarize(rows, mu_mat.sum(axis=0), rate))
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


def _determined(T, R, V, reference_state):
    """Values to go on sweeping from, once relative value iteration has swept
    ``DETERMINE_EVERY`` times without converging: those it tends to under its
    greedy policy at ``V``.

    A fixed policy with gain vector eta and bias h moves the relative values
    towards h - h[ref] + n (eta - eta[ref]) after n sweeps.  Where eta is
    constant (one closed class, or classes that gain alike) that is the bias,
    solved at once where the sweeps would need about the chain's mixing time
    times log(1 / epsilon).  Where it is not, the values drift apart, and a
    state switches action only once the drift has paid for leaving its
    class: far past any sweep cap when the gains lie within about epsilon
    (``_drifted``).  Where to go on from does not change what relative value
    iteration converges to, and the residual certifies what it returns.
    """
    rows = np.arange(len(V))
    policy = (R + np.einsum("ans,s->na", T, V)).argmax(axis=1)
    chain = _general_analysis(T[policy, rows], R[rows, policy], reference_state)
    drift = chain.eta_vec - chain.eta_vec[reference_state]
    if np.abs(drift).max() < POISSON_TOL:
        return chain.g - chain.g[reference_state]
    return _drifted(T, R, V, drift)


def _drifted(T, R, V, drift):
    """Values ``V`` moved along ``drift`` a sweep to just past the first sweep
    at which the greedy policy changes, or ``V`` where no action overtakes:
    each action's q-value moves linearly along the drift, so that sweep has a
    closed form."""
    Q = R + np.einsum("ans,s->na", T, V)
    rise = np.einsum("ans,s->na", T, drift)
    rows, policy = np.arange(len(V)), Q.argmax(axis=1)
    gap = Q[rows, policy][:, None] - Q
    rise = rise - rise[rows, policy][:, None]
    overtakes = rise > 1e-9 * np.abs(drift).max()          # not rounding noise
    if not overtakes.any():
        return V
    return V + (np.floor((gap[overtakes] / rise[overtakes]).min()) + 1.0) * drift


def rvi_solve(mdp: TabularMdp, epsilon=DEFAULT_EPSILON, reference_state=0,
              max_sweeps=MAX_RVI_SWEEPS) -> RviSolution:
    """Relative value iteration for the average-reward optimality equation.

    Values are re-anchored at the reference state every sweep; on return the
    gain and values satisfy the optimality equation with residual below
    ``epsilon`` at every state (raised as an error otherwise).  Ties in the
    greedy policy break toward the lowest action index.

    The sweeps stop once they change the values by less than ``epsilon / 2``.
    Every ``DETERMINE_EVERY`` sweeps without that, the values move to those
    the greedy policy tends to (``_determined``).  The residual certifies
    the result on any model, multichain ones included: with gain g and
    values V, T^n V <= V + n (g + residual), so no policy gains more than
    g + residual from any state, and the greedy policy's one-step map adds
    at least g - residual, so it gains at least that.
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
        if sweep % DETERMINE_EVERY == 0:
            V = _determined(T, R, V, reference_state)
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
    stopping rule (members freeze as soon as they converge), the same moves
    to determined values, the same greedy tie-breaking.  Returns (policies,
    gains, values, iterations, residuals, stalled).

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
        for k in (idx[~done] if sweep % DETERMINE_EVERY == 0 else ()):
            V[k] = _determined(T[k], R[k], V[k], reference_state)
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


# ---------------------------------------------------------------------------
# the chain classifier with a fixed number of squarings, the evaluator that
# classifies every member with it, and policy iteration copying the active
# members' kernels every round: the forms before the classifier stopped at its
# fixed point, the evaluator certified unichain members first and policy
# iteration held its kernels, kept to check that all three give the same bits


def closed_classes_by_squaring(P):
    """Closed classes of a batch of chains (K, N, N) by boolean reachability closure.

    Returns ``(representative, closed)``: per state, the lowest index of its
    communicating class, and whether that class is closed (recurrent).
    """
    n = P.shape[1]
    reach = (P > 0.0).astype(np.float32)
    reach[:, np.arange(n), np.arange(n)] = 1.0
    for _ in range((n - 1).bit_length()):             # until paths of n - 1 steps are in
        reach = np.minimum(reach @ reach, 1.0)
    reach = reach > 0.0
    back = reach.transpose(0, 2, 1)
    closed = ~(reach & ~back).any(axis=2)
    return (reach & back).argmax(axis=2), closed


def evaluate_by_closure(P, r):
    """Gain and bias vectors of a batch of fixed-policy chains.

    A unichain member solves the N x N system g + (I - P) h = r with h[0] = 0.
    A multichain member solves the 2N x 2N system (I - P) g = 0,
    g + (I - P) h = r, with h = 0 at the representative state of each closed
    class in place of that state's (redundant) gain row.  Returns
    (g, h, number of closed classes), all per member.
    """
    k, n, _ = P.shape
    representative, closed = closed_classes_by_squaring(P)
    heads = closed & (representative == np.arange(n))
    n_closed = heads.sum(axis=1)
    multi = n_closed > 1
    eye = np.eye(n)
    g = np.empty((k, n))
    h = np.empty((k, n))
    if not multi.all():
        uni = ~multi
        system = eye - P[uni]
        system[:, :, 0] = 1.0                         # column of h[0] carries g
        x = np.linalg.solve(system, r[uni][..., None])[..., 0]
        g[uni] = x[:, :1]
        x[:, 0] = 0.0
        h[uni] = x
    if multi.any():
        m = int(multi.sum())
        system = np.zeros((m, 2 * n, 2 * n))
        system[:, :n, :n] = eye - P[multi]
        system[:, n:, :n] = eye
        system[:, n:, n:] = system[:, :n, :n]
        rhs = np.zeros((m, 2 * n))
        rhs[:, n:] = r[multi]
        member, state = np.nonzero(heads[multi])
        system[member, state, :] = 0.0
        system[member, state, n + state] = 1.0
        x = np.linalg.solve(system, rhs[..., None])[..., 0]
        g[multi] = x[:, :n]
        h[multi] = x[:, n:]
    return g, h, n_closed


def policy_iteration_copying(T, R, epsilon, max_rounds, initial_action):
    """Multichain policy iteration over a batch of MDPs sharing a state space.

    ``T`` is (K, A, N, N) and ``R`` is (K, N, A).  Each member starts from
    ``initial_action`` everywhere and alternates exact evaluation with
    Puterman's two-step improvement: first on P g, then on r + P h among the
    gain-maximizing actions, keeping the incumbent action on ties.  On exit
    every member's gain and bias satisfy both multichain optimality equations
    with residual below ``epsilon``; a member that fails this, or still changes
    after ``max_rounds`` rounds, raises ``NonConvergenceError``.  Returns
    (policies, gain vectors, bias vectors, rounds, residuals, closed-class
    counts), all per member.
    """
    k, _, n, _ = T.shape
    # floating noise of an evaluation grows with the member's reward and bias
    # magnitude; improvements below it are ties and keep the incumbent action
    reward_scale = 1.0 + np.abs(R).max(axis=(1, 2))
    policy = np.full((k, n), initial_action, dtype=int)
    gains = np.empty((k, n))
    biases = np.empty((k, n))
    iterations = np.zeros(k, dtype=int)
    residuals = np.empty(k)
    n_closed = np.empty(k, dtype=int)
    active = np.arange(k)
    for round_ in range(1, max_rounds + 1):
        Tk, Rk, pol = T[active], R[active], policy[active]
        chosen = pol[..., None]
        P = Tk[np.arange(active.size)[:, None], pol, np.arange(n)]
        g, h, classes = evaluate_by_closure(
            P, np.take_along_axis(Rk, chosen, axis=2)[..., 0])
        Qg = np.einsum("kans,ks->kna", Tk, g)
        Qh = Rk + np.einsum("kans,ks->kna", Tk, h)
        tol = PI_NOISE * (reward_scale[active] + np.abs(h).max(axis=1))[:, None]
        best_g = Qg.max(axis=2)
        gain_up = best_g > np.take_along_axis(Qg, chosen, axis=2)[..., 0] + tol
        # bias improvement only over the gain-maximizing actions
        Qb = np.where(Qg >= (best_g - tol)[..., None], Qh, -np.inf)
        best_h = Qb.max(axis=2)
        bias_up = (best_h > np.take_along_axis(Qh, chosen, axis=2)[..., 0] + tol) \
            & ~gain_up.any(axis=1)[:, None]
        new = np.where(gain_up, Qg.argmax(axis=2), np.where(bias_up, Qb.argmax(axis=2), pol))
        done = (new == pol).all(axis=1)
        policy[active] = new
        finished = active[done]
        gains[finished] = g[done]
        biases[finished] = h[done]
        iterations[finished] = round_
        n_closed[finished] = classes[done]
        # certificate: residuals of both multichain optimality equations
        residuals[finished] = np.maximum(np.abs(best_g - g).max(axis=1),
                                         np.abs(best_h - g - h).max(axis=1))[done]
        active = active[~done]
        if not active.size:
            break
    else:
        raise NonConvergenceError(
            f"{active.size} of {k} candidates still changing policy after {max_rounds} "
            f"policy-iteration rounds", iterations=max_rounds)
    bad = ~(residuals < epsilon)
    if bad.any():
        worst = int(np.flatnonzero(bad)[residuals[bad].argmax()])
        raise NonConvergenceError(
            f"candidate {worst} optimality-equation residual {residuals[worst]:.3e} "
            f"not below {epsilon:g}", residual=float(residuals[worst]),
            iterations=int(iterations[worst]))
    return policy, gains, biases, iterations, residuals, n_closed


# ---------------------------------------------------------------------------
# the equilibrium search running every round, soft policy iteration
# evaluating every table it meets, and the uniform baseline building and
# solving each period's map alone: the forms before they reused the results
# they had already computed, kept to check that the reuse gives the same bits


def balance_alone(P):
    """Stationary row of a chain with one closed class, from one solve of its
    own balance equations (one row replaced by the normalization)."""
    n = P.shape[0]
    system = P.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    mu = np.linalg.solve(system, rhs)
    if mu.min() < -1e-10:
        raise ErgodicityError(f"balance solution has negative mass {mu.min():.3e}")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def uniform_period_by_period(model: DecPomdpModel, period, decision, start_state=0):
    """Exact cost of transmitting every ``period`` slots from that period's own
    one-period map ``transmit @ idle^(period - 1)``, classified and solved alone."""
    from goaltensor.benchmarks import _summarize
    from goaltensor.solvers import closed_classes
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
    p = model.channel.success_prob
    transmit = p * success + (1.0 - p) * idle
    one_period = transmit
    for _ in range(period - 1):
        one_period = one_period @ idle
    if len(closed_classes(one_period)) == 1:
        law = balance_alone(one_period)
    else:
        law = cesaro_limit(one_period)[start_state]
    phase_law = law
    mu_states = law.copy()
    for phase in range(1, period):
        phase_law = phase_law @ (transmit if phase == 1 else idle)
        mu_states += phase_law
    return _summarize(rows, mu_states / period, 1.0 / period)


# --- jesp as it ran before its searches ran in lockstep: one solver call at a time


def evaluate_chain(problem, table, start=0):
    """``solvers._FixedSamplingProblem``'s evaluation of a stochastic decision
    table, one chain at a time: gain and bias from ``_evaluate_batch`` of the
    one chain, the law from ``_balance`` where it has one closed class, else
    the Cesaro row of ``start``, the bias shifted to zero mean under the law."""
    from goaltensor.solvers import _balance, _evaluate_batch
    P, rbar = problem.chain(table)
    gain, bias, n_closed = _evaluate_batch(P[None], rbar[None])
    gain, bias = gain[0], bias[0]
    if n_closed[0] == 1:
        law = _balance(P)
        bias = bias - law @ bias
    else:
        star = cesaro_limit(P)
        law = star[start]
        bias = bias - star @ bias
    residual = np.abs(gain + bias - rbar - P @ bias).max()
    if residual > POISSON_TOL:
        raise NonConvergenceError(
            f"differential-reward residual {residual:.3e} exceeds {POISSON_TOL:g}",
            residual=residual)
    return _ChainEval(mu=law, eta=float(law @ rbar), eta_vec=gain, g=bias)


def local_search_sequential(problem, actions, eta, start):
    """Steepest-ascent single-observation local search, each pass's
    deviations scored in one ``_evaluate_batch`` of their own."""
    from goaltensor.solvers import IMPROVE_TOL, _evaluate_batch
    n_obs, n_actions = len(actions), problem.model.alphabets.n_actions
    actions = np.array(actions, dtype=int)
    rows = np.arange(len(problem.xhats))
    obs_of, action_of = np.divmod(np.arange(n_obs * n_actions), n_actions)
    while True:
        keep = action_of != actions[obs_of]
        moves_obs, moves_action = obs_of[keep], action_of[keep]
        trials = np.repeat(actions[None, :], moves_obs.size, axis=0)
        trials[np.arange(moves_obs.size), moves_obs] = moves_action
        acts = trials[:, problem.xhats]                           # (K, N)
        g, _, _ = _evaluate_batch(problem.transitions[acts, rows, :],
                                  problem.rewards[rows, acts])
        best_eta, best_move = eta, None
        for j, trial_eta in enumerate(g[:, start]):
            if trial_eta > best_eta + IMPROVE_TOL:
                best_eta, best_move = trial_eta, j
        if best_move is None:
            return actions, eta
        actions[moves_obs[best_move]] = moves_action[best_move]
        eta = float(best_eta)


def _soft_policy_iteration(model, sampling, initial_decision, epsilon, step_schedule,
                           max_rounds, start_state, evaluate):
    """Soft policy iteration scoring each table with ``evaluate(problem, table)``."""
    from goaltensor.solvers import ACCEPT_TOL, PiResult, _as_schedule, _one_hot
    schedule = _as_schedule(step_schedule)
    n_actions = model.alphabets.n_actions
    problem = _FixedSamplingProblem(model, sampling)
    soft = _one_hot(initial_decision.actions, n_actions)
    evaluation = evaluate(problem, soft)
    etas = [evaluation.eta]
    converged = False
    prev_target = None
    rounds = 0
    for k in range(1, max_rounds + 1):
        rounds = k
        _, q_obs, _, reachable = problem.q_values(evaluation)
        current = soft.argmax(axis=1)
        target = np.where(reachable, np.nan_to_num(q_obs, nan=-np.inf).argmax(axis=1), current)
        if prev_target is not None and np.array_equal(target, prev_target) \
                and np.array_equal(target, current):
            converged = True
            break
        prev_target = target
        candidate = (1.0 - schedule(k)) * soft + schedule(k) * _one_hot(target, n_actions)
        candidate = np.clip(candidate, 0.0, None)
        candidate /= candidate.sum(axis=1, keepdims=True)
        candidate_eval = evaluate(problem, candidate)
        if candidate_eval.eta >= evaluation.eta - ACCEPT_TOL:
            soft, evaluation = candidate, candidate_eval
            etas.append(evaluation.eta)
            if abs(etas[-1] - etas[-2]) < epsilon:
                converged = True
                break
    actions = soft.argmax(axis=1)
    eta_det = evaluate(problem, _one_hot(actions, n_actions)).eta
    eta_init = evaluate(problem, _one_hot(initial_decision.actions, n_actions)).eta
    if eta_init > eta_det:
        actions, eta_det = initial_decision.actions.copy(), eta_init
    actions, eta_det = local_search_sequential(problem, actions, eta_det, start_state)
    return PiResult(decision_policy=DecisionPolicy(actions), average_reward=float(eta_det),
                    iterations=rounds, eta_trace=etas, converged=converged)


def pi_step_size_sequential(model: DecPomdpModel, sampling, initial_decision,
                            epsilon=DEFAULT_EPSILON, step_schedule=None, max_rounds=500,
                            start_state=0):
    """Soft policy iteration with ``evaluate_chain`` and ``local_search_sequential``,
    each distinct table evaluated once."""
    evaluations = {}

    def evaluate(problem, table):
        key = table.tobytes()
        if key not in evaluations:
            evaluations[key] = evaluate_chain(problem, table, start_state)
        return evaluations[key]

    return _soft_policy_iteration(model, sampling, initial_decision, epsilon, step_schedule,
                                  max_rounds, start_state, evaluate)


def pi_step_size_every_table(model: DecPomdpModel, sampling, initial_decision,
                             epsilon=DEFAULT_EPSILON, step_schedule=None, max_rounds=500,
                             start_state=0):
    """``pi_step_size_sequential`` evaluating every table it meets, repeats included."""
    return _soft_policy_iteration(model, sampling, initial_decision, epsilon, step_schedule,
                                  max_rounds, start_state,
                                  lambda problem, table: evaluate_chain(problem, table,
                                                                        start_state))


def _jesp_rounds(model, initial_decision, epsilon, max_rounds, respond):
    """The alternating best-response loop, ``respond(decision)`` giving a
    round's (sampling policy, soft-PI result)."""
    from goaltensor.solvers import SolveReport
    decision = initial_decision
    theta_prev = None
    theta = None
    theta_trace = []
    converged = False
    rounds = 0
    best = None
    for k in range(1, max_rounds + 1):
        rounds = k
        sampling, pi_res = respond(decision)
        decision = pi_res.decision_policy
        theta = pi_res.average_reward
        theta_trace.append(theta)
        if best is None or theta > best[2]:
            best = (sampling, decision, theta)
        if theta_prev is not None and abs(theta - theta_prev) < epsilon:
            converged = True
            break
        theta_prev = theta
    residual = abs(theta - theta_prev) if theta_prev is not None else np.inf
    sampling, decision, theta = best
    return SolveReport(sampling_policy=sampling, decision_policy=decision,
                       average_reward=float(theta), iterations=rounds,
                       residual=float(residual), converged=converged,
                       diagnostics={"theta_trace": theta_trace})


def jesp_once_sequential(model, initial_decision, epsilon, step_schedule, max_rounds,
                         pi_rounds, start_state):
    """One alternating best-response search, a round whose starting decision
    table was met before replayed, with ``pi_step_size_sequential`` as the
    actuator step."""
    from goaltensor.solvers import solve_sampler_for_decision
    played = {}

    def respond(decision):
        key = decision.actions.tobytes()
        if key not in played:
            sampling, _, _ = solve_sampler_for_decision(model, decision, epsilon, pi_rounds)
            played[key] = sampling, pi_step_size_sequential(
                model, sampling, decision, epsilon=epsilon, step_schedule=step_schedule,
                max_rounds=pi_rounds, start_state=start_state)
        return played[key]

    return _jesp_rounds(model, initial_decision, epsilon, max_rounds, respond)


def jesp_once_every_round(model, initial_decision, epsilon, step_schedule, max_rounds,
                          pi_rounds, start_state):
    """``jesp_once_sequential`` running both steps in every round, a round that
    repeats its predecessor included, with ``pi_step_size_every_table`` as the
    actuator step."""
    from goaltensor.solvers import solve_sampler_for_decision

    def respond(decision):
        sampling, _, _ = solve_sampler_for_decision(model, decision, epsilon, pi_rounds)
        return sampling, pi_step_size_every_table(
            model, sampling, decision, epsilon=epsilon, step_schedule=step_schedule,
            max_rounds=pi_rounds, start_state=start_state)

    return _jesp_rounds(model, initial_decision, epsilon, max_rounds, respond)


def jesp_sequential(model: DecPomdpModel, initial_decision, epsilon=DEFAULT_EPSILON,
                    step_schedule=None, restarts=0, seed=0, max_rounds=100, pi_rounds=500,
                    start_state=0, once=jesp_once_sequential):
    """``solvers.jesp`` with each search run alone by ``once``, the restarts in turn."""
    from goaltensor.errors import GoalTensorError
    rng = np.random.default_rng(seed)
    n_states, n_actions = model.alphabets.n_states, model.alphabets.n_actions
    outcomes = []
    best = None
    for attempt in range(restarts + 1):
        if attempt == 0:
            start = initial_decision
        else:
            start = DecisionPolicy(rng.integers(0, n_actions, size=n_states))
        try:
            report = once(model, start, epsilon, step_schedule, max_rounds,
                          pi_rounds, start_state)
        except GoalTensorError as exc:
            outcomes.append({"start": start.actions.tolist(), "error": str(exc)})
            continue
        outcomes.append({"start": start.actions.tolist(),
                         "average_reward": report.average_reward,
                         "converged": report.converged})
        if best is None or report.average_reward > best.average_reward:
            best = report
    if best is None:
        raise NonConvergenceError(
            f"all {restarts + 1} equilibrium searches failed: {outcomes}")
    best.diagnostics["restart_outcomes"] = outcomes
    return best


def sweep_one_by_one(model: DecPomdpModel, family, grid, decision, horizon, seeds,
                     initial=(0, 0, 0)):
    """``harness.sweep_rate_vs_cost`` as it was before the batched engine:
    one ``simulate_closed_loop`` run per (grid parameter, seed) replica."""
    from goaltensor.benchmarks import FAMILIES
    from goaltensor.harness import SweepResult, simulate_closed_loop
    results = []
    for param in grid:
        costs, rates = [], []
        for seed in seeds:
            rule = FAMILIES[family].rule(model, param, decision, None)
            _, summary = simulate_closed_loop(model, rule, decision, horizon, seed,
                                              record_trace=False, initial=initial)
            costs.append(summary.average_cost)
            rates.append(summary.sampling_rate)
        if len(costs) > 1:
            stderr = float(np.std(costs, ddof=1) / np.sqrt(len(costs)))
        else:
            stderr = float("nan")
        results.append(SweepResult(
            policy=family, param=param,
            sampling_rate=float(np.mean(rates)),
            average_cost=float(np.mean(costs)),
            stderr=stderr))
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
    """``decomp.csv``'s rows, the exact cost split of the solved pair per grid
    cell, in grid order; a failing cell raises.

    Each cell is solved with ``solve_cell`` and its pair scored from the
    scenario's start state by ``benchmarks.evaluate_state_policy``, outside
    the grid loop that ``compare_policies`` builds the same rows in.
    """
    from goaltensor.benchmarks import evaluate_state_policy
    from goaltensor.harness import solve_cell
    rows = []
    for p_success in scenario.grid.success_probs:
        for sampling_cost in scenario.grid.sampling_costs:
            cell = scenario.with_channel(p_success).with_sampling_cost(sampling_cost)
            report = solve_cell(cell, algorithm)
            split = evaluate_state_policy(cell.model, report.sampling_policy,
                                          report.decision_policy, cell.start_state)
            rows.append({"pS": p_success, "CS": sampling_cost, "sampling": split.sampling,
                         "actuation": split.actuation, "inherent": split.inherent})
    return rows


def compare_cell_by_cell(scenario, algorithm="jesp", include_classic=False):
    """``harness.compare_policies`` computing every cell's work in that cell:
    the solve (jesp's seed with it, no brute-force anchor or floor), the
    greedy decision table, each baseline family's exact costs at the cell's
    sampling cost, and the solved pair's cost split.  Returns the same
    ``(compare rows, decomp rows, failed cells)``; a cell that raises a
    ``GoalTensorError`` is failed with its message, as in ``harness._grid``.
    """
    from goaltensor.benchmarks import FAMILIES, evaluate_state_policy
    from goaltensor.errors import GoalTensorError
    from goaltensor.harness import solve_cell
    from goaltensor.solvers import greedy_decision_policy
    rows, splits, failed = [], [], []
    for p_success in scenario.grid.success_probs:
        for sampling_cost in scenario.grid.sampling_costs:
            cell = scenario.with_channel(p_success).with_sampling_cost(sampling_cost)
            model, start = cell.model, cell.start_state
            try:
                report = solve_cell(cell, algorithm)
                split = evaluate_state_policy(model, report.sampling_policy,
                                              report.decision_policy, start)
                greedy = greedy_decision_policy(model)
                costs = [("got-codesign", report.average_cost)]
                for family in FAMILIES.values():
                    if family.baseline and (include_classic or not family.classic):
                        params = family.grid(cell.sweep) if family.grid else [None]
                        costs.append((family.baseline, min(
                            summary.average_cost for summary in family.evaluate(
                                model, params, greedy, start, cell.state_values))))
            except GoalTensorError as exc:
                failed.append((p_success, sampling_cost, str(exc)))
                continue
            rows += [{"pS": p_success, "CS": sampling_cost, "policy": policy, "cost": cost}
                     for policy, cost in costs]
            splits.append({"pS": p_success, "CS": sampling_cost, "sampling": split.sampling,
                           "actuation": split.actuation, "inherent": split.inherent})
    return rows, splits, failed


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
    sq_err = ((state_values[:, None] - state_values[None, :]) ** 2).tolist()
    acts = decision.actions.tolist()
    p_success = model.channel.success_prob
    charge = model.cost.sampling_cost

    rule.reset(x, xhat, phi)
    records = [] if record_trace else None
    n_batches = max(1, min(batches, horizon))
    batch_cost = [0.0] * n_batches
    batch_len = [0] * n_batches
    cost_sum = 0.0
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
    return records, _summary(horizon, seed, samples, cost_sum, means)


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
