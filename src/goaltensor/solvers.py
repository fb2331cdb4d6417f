"""Average-reward solvers for the sampler/actuator pair.

Every sampler MDP is solved by one routine: batched multichain policy
iteration (Howard 1960; Puterman 1994, section 9.2), with a residual
certificate on both multichain optimality equations.  Two exact routes and one
fast route use it:

* the sampler's best response to a fixed decision policy, one MDP;
* brute-force enumeration of all deterministic decision policies, their
  sampler MDPs solved in batches and each scored by its optimal gain from the
  start state (the batches in flight keep their kernels within
  ``model.MAX_KERNEL_BYTES``, a limit that holds per process, and a model
  where one candidate's kernels already pass it is refused before anything
  is built; from ``BRUTE_THREADED_STATES`` global states on, where numpy's
  solves, which release the GIL, hold most of the time, ``BRUTE_WORKERS``
  threads, one per core with at least 64 candidates each, solve batches,
  and results are reduced in enumeration order; a forked grid-cell worker,
  see ``harness``, runs its batches in turn);
* alternating best-response search between the two agents, seeded from a
  perfect-estimate heuristic, which converges to a Nash pair (its sampler
  step is the best response above).

Everything here speaks rewards (negated costs).  Reported ``average_reward``
is always the negation of the long-term average cost.

Chains induced by a fixed sampling policy can fail to be unichain (a sampling
policy that never transmits out of some estimate freezes that estimate
forever).  One certificate, ``_unichain_batch`` (every state reaches the state
with the largest column sum), passes most chains as unichain in a few
mat-vec sweeps; one classifier, ``_closed_classes_batch`` (a reachability
closure, squared until it stops changing), finds the closed classes of the
rest.  One evaluator, ``_evaluate_batch``, asks the certificate first and
solves the multichain Poisson equations of every fixed-policy chain: the
sampler MDPs and the actuator's soft policy iteration alike.  Policy
iteration reads a batch's kernels in place and copies the still-changing
members' kernels only each time half of them have finished.  Gains are always
taken from the start state, and ``chain_law`` gives the matching long-run
law: the stationary law with one closed class, else the Cesaro row of the
start state.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (EnumerationBudgetError, ErgodicityError, GoalTensorError,
                     NonConvergenceError, ParameterError)
from .model import (DecisionRows, DecPomdpModel, TabularMdp, check_kernel_bytes,
                    heuristic_mdp, induced_mdp, induced_pomdp)
from .tensor import DecisionPolicy, SamplingPolicy

POISSON_TOL = 1e-8
ZERO_MARGINAL = 1e-12
ACCEPT_TOL = 1e-10          # tolerated average-reward loss when accepting a soft-policy step
IMPROVE_TOL = 1e-9          # minimum gain for a local-search move

PI_NOISE = 1e-12            # relative tie tolerance of a policy-iteration improvement

DEFAULT_EPSILON = 1e-6
MAX_PI_ROUNDS = 500
MAX_JESP_ROUNDS = 100
BRUTE_CHUNK = 128           # decision policies in flight at once in brute force, over all workers
# cores this process may run on
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# threads for brute force's chunks: one per core, but each gets at least 64 of
# the BRUTE_CHUNK candidates in flight, because smaller threaded chunks lose to
# one loop even at N = 48
BRUTE_WORKERS = max(1, min(CORES, BRUTE_CHUNK // 64))
BRUTE_THREADED_STATES = 24  # global states N from which brute force's chunks run on threads


# ---------------------------------------------------------------------------
# chain analysis


def closed_classes(P):
    """Recurrent (closed) communicating classes of a stochastic matrix.

    Edges are taken wherever the one-step probability is positive.  A view of
    ``_closed_classes_batch`` on one matrix, classes ordered by lowest member.
    """
    P = np.asarray(P, dtype=float)
    representative, closed = _closed_classes_batch(P[None])
    heads = np.flatnonzero(closed[0] & (representative[0] == np.arange(P.shape[0])))
    return [np.flatnonzero(representative[0] == head) for head in heads]


def _balance(P) -> np.ndarray:
    """Stationary row of a chain with one closed class: the balance equations,
    one (redundant) row replaced by the normalization constraint."""
    n = P.shape[0]
    system = P.T - np.eye(n)
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        mu = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"balance system is singular: {exc}") from exc
    if mu.min() < -1e-10:
        raise ErgodicityError(f"balance solution has negative mass {mu.min():.3e}")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def stationary_distribution(P) -> np.ndarray:
    """Unique stationary row of a unichain transition matrix.

    Raises ``ErgodicityError`` when the chain has several closed classes and
    hence no unique stationary law.
    """
    P = np.asarray(P, dtype=float)
    classes = closed_classes(P)
    if len(classes) != 1:
        outside = sorted(set(range(P.shape[0])) - set(classes[0].tolist()))
        raise ErgodicityError(
            f"chain has {len(classes)} closed classes; states {outside} are not "
            f"reachable from the first class", closed_classes=classes, unreachable=outside)
    return _balance(P)


def chain_law(P, start) -> np.ndarray:
    """Long-run time-average law of a finite chain started in ``start``.

    The stationary law when the chain has one closed class, whatever the
    start; otherwise the Cesaro row of ``start`` (Puterman 1994, ch. 8-9).
    ``_unichain_batch`` is asked first, and the chain is classified only when
    it cannot certify one closed class.
    """
    P = np.asarray(P, dtype=float)
    if _unichain_batch(P[None])[0] or len(closed_classes(P)) == 1:
        return _balance(P)
    return cesaro_limit(P)[start]


def cesaro_limit(P) -> np.ndarray:
    """Long-run occupation matrix: row w is the limiting time-average law from w.

    Works for any finite chain: recurrent rows carry their class's stationary
    law, transient rows mix the class laws by absorption probability.
    """
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    star = np.zeros((n, n))
    recurrent = np.zeros(n, dtype=bool)
    laws = []
    for members in closed_classes(P):
        law = _balance(P[np.ix_(members, members)])
        laws.append((members, law))
        star[np.ix_(members, members)] = law[None, :]
        recurrent[members] = True
    transient = np.flatnonzero(~recurrent)
    if transient.size:
        inner = P[np.ix_(transient, transient)]
        lhs = np.eye(transient.size) - inner
        for members, law in laws:
            hit = np.linalg.solve(lhs, P[np.ix_(transient, members)].sum(axis=1))
            star[np.ix_(transient, members)] += np.outer(hit, law)
    return star


# ---------------------------------------------------------------------------
# actuator-side chain evaluation


@dataclass(frozen=True)
class _ChainEval:
    """Evaluation of one fixed-policy chain, unichain or multichain."""

    mu: np.ndarray          # law used for posteriors (stationary, or Cesaro row of start)
    eta: float              # gain from the start state, mu @ rbar
    eta_vec: np.ndarray     # per-state gain; constant when unichain
    g: np.ndarray           # differential rewards (bias), mu @ g = 0


class _FixedSamplingProblem:
    """Actuator-side tables for one (model, sampling policy) pair, built once."""

    def __init__(self, model: DecPomdpModel, sampling: SamplingPolicy):
        self.model = model
        self.sampling = sampling
        pomdp = induced_pomdp(model, sampling)
        self.transitions = pomdp.transitions          # (A, N, N)
        self.rewards = pomdp.rewards                  # (N, A)
        _, self.xhats, _ = model.state_components()

    def chain(self, table):
        """Global chain and per-state expected reward under a stochastic decision table."""
        probs = table[self.xhats]                     # (N, A)
        P = np.einsum("na,ans->ns", probs, self.transitions)
        rbar = np.einsum("na,na->n", probs, self.rewards)
        return P, rbar

    def evaluate(self, table, start=0) -> _ChainEval:
        """Gain, bias and posterior law of the chain under a stochastic decision table.

        Gain and bias come from ``_evaluate_batch``, residual-checked against
        the Poisson equation.  The law is the stationary one when the chain has
        one closed class, else the Cesaro row of ``start``; the scalar gain is
        taken under it.  The bias is shifted to zero mean under every closed
        class's law (P* h = 0, Puterman's bias), so q-values are differential
        returns.
        """
        P, rbar = self.chain(table)
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

    def eta_of(self, table, start=0) -> float:
        return self.evaluate(table, start).eta

    def q_values(self, evaluation: _ChainEval):
        """State- and observation-level q-values plus posterior and reachability."""
        q_global = self.rewards - evaluation.eta_vec[:, None] + (self.transitions @ evaluation.g).T
        n_obs = self.model.alphabets.n_states
        mu = evaluation.mu
        posterior = np.zeros((n_obs, len(mu)))
        marginal = np.zeros(n_obs)
        for obs in range(n_obs):
            mask = self.xhats == obs
            marginal[obs] = mu[mask].sum()
            if marginal[obs] > ZERO_MARGINAL:
                posterior[obs, mask] = mu[mask] / marginal[obs]
            else:
                posterior[obs, :] = np.nan
        reachable = marginal > ZERO_MARGINAL
        q_obs = np.where(reachable[:, None], np.where(np.isnan(posterior), 0.0, posterior) @ q_global,
                         np.nan)
        return q_global, q_obs, posterior, reachable


# ---------------------------------------------------------------------------
# multichain policy iteration (Howard 1960; Puterman 1994, section 9.2)


def _closed_classes_batch(P):
    """Closed classes of a batch of chains (K, N, N) by boolean reachability closure.

    The reflexive one-step reachability matrix is squared until it holds every
    path of N - 1 steps, or until a squaring leaves the whole batch unchanged:
    a reflexive R with R R = R is already its transitive closure.  Returns
    ``(representative, closed)``: per state, the lowest index of its
    communicating class, and whether that class is closed (recurrent).
    """
    n = P.shape[1]
    reach = (P > 0.0).astype(np.float32)
    reach[:, np.arange(n), np.arange(n)] = 1.0
    for _ in range((n - 1).bit_length()):             # until paths of n - 1 steps are in
        squared = np.minimum(reach @ reach, 1.0)
        if np.array_equal(squared, reach):
            break
        reach = squared
    reach = reach > 0.0
    back = np.ascontiguousarray(reach.transpose(0, 2, 1))
    closed = ~(reach & ~back).any(axis=2)
    return (reach & back).argmax(axis=2), closed


def _unichain_batch(P):
    """Members of a batch of chains (K, N, N) certified to have one closed class.

    A member is certified when every state reaches one target state, the one
    with the largest column sum, in the support graph.  A closed class holds
    every state its own states reach, so each closed class then contains the
    target, and closed classes are disjoint: there is exactly one.  A member
    that is not certified may still be unichain (its target is transient).
    The states that reach the target grow by one step backwards per sweep,
    until a sweep adds none.
    """
    n = P.shape[1]
    target = (np.ones(n) @ P).argmax(axis=1)
    support = (P > 0.0).astype(np.float32)
    reached = (np.arange(n) == target[:, None]).astype(np.float32)[..., None]
    while not reached.all():
        grown = np.minimum(reached + support @ reached, 1.0)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached.all(axis=(1, 2))


def _evaluate_batch(P, r):
    """Gain and bias vectors of a batch of fixed-policy chains.

    ``_unichain_batch`` certifies most members as unichain; only the rest go
    through the full classifier, ``_closed_classes_batch``.  A unichain member
    solves the N x N system g + (I - P) h = r with h[0] = 0.  A multichain
    member solves the 2N x 2N system (I - P) g = 0, g + (I - P) h = r, with
    h = 0 at the representative state of each closed class in place of that
    state's (redundant) gain row.  Returns (g, h, number of closed classes),
    all per member.
    """
    k, n, _ = P.shape
    n_closed = np.ones(k, dtype=int)
    rest = np.flatnonzero(~_unichain_batch(P))
    if rest.size:
        representative, closed = _closed_classes_batch(P[rest])
        heads = closed & (representative == np.arange(n))
        n_closed[rest] = heads.sum(axis=1)
    multi = n_closed > 1
    eye = np.eye(n)
    g = np.empty((k, n))
    h = np.empty((k, n))
    if not multi.all():
        uni = ~multi if multi.any() else slice(None)  # a slice reads P and r in place
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
        member, state = np.nonzero(heads[multi[rest]])
        system[member, state, :] = 0.0
        system[member, state, n + state] = 1.0
        x = np.linalg.solve(system, rhs[..., None])[..., 0]
        g[multi] = x[:, :n]
        h[multi] = x[:, n:]
    return g, h, n_closed


def _policy_iteration_batch(T, R, epsilon, max_rounds, initial_action):
    """Multichain policy iteration over a batch of MDPs sharing a state space.

    ``T`` is (K, A, N, N) and ``R`` is (K, N, A).  Each member starts from
    ``initial_action`` everywhere and alternates exact evaluation with
    Puterman's two-step improvement: first on P g, then on r + P h among the
    gain-maximizing actions, keeping the incumbent action on ties.  On exit
    every member's gain and bias satisfy both multichain optimality equations
    with residual below ``epsilon``; otherwise ``NonConvergenceError`` names the
    first member, in batch order, that fails this or still changes after
    ``max_rounds`` rounds (its ``candidate``).  Returns (policies, gain
    vectors, bias vectors, rounds, residuals, closed-class counts), all per
    member.

    Rounds read the kernels of the members still changing from a held array:
    ``T`` itself at first, then a compact copy of the active members' kernels,
    taken each time half of the held members have finished, so the copies
    add up to at most one batch.  Q-values are formed over every held member
    and read at the active ones, the same arithmetic per member as a copy
    taken every round.
    """
    k, _, n, _ = T.shape
    # floating noise of an evaluation grows with the member's reward and bias
    # magnitude; improvements below it are ties and keep the incumbent action
    reward_scale = 1.0 + np.abs(R).max(axis=(1, 2))
    policy = np.full((k, n), initial_action, dtype=int)
    gains = np.empty((k, n))
    biases = np.empty((k, n))
    iterations = np.zeros(k, dtype=int)
    residuals = np.full(k, np.nan)
    n_closed = np.empty(k, dtype=int)
    active = np.arange(k)
    held, at = T, active            # kernels read this round; the active members' rows in them

    def q_values(x):
        """(T x)[at] over the held kernels, x given at the active members."""
        spread = np.zeros((len(held), n))
        spread[at] = x
        return np.einsum("kans,ks->kna", held, spread)[at]

    states = np.arange(n)
    for round_ in range(1, max_rounds + 1):
        Rk, pol = R[active], policy[active]
        members = np.arange(active.size)[:, None]
        P = held[at[:, None], pol, states]
        g, h, classes = _evaluate_batch(P, Rk[members, states, pol])
        Qg = q_values(g)
        Qh = Rk + q_values(h)
        tol = PI_NOISE * (reward_scale[active] + np.abs(h).max(axis=1))[:, None]
        best_g = Qg.max(axis=2)
        gain_up = best_g > Qg[members, states, pol] + tol
        # bias improvement only over the gain-maximizing actions
        Qb = np.where(Qg >= (best_g - tol)[..., None], Qh, -np.inf)
        best_h = Qb.max(axis=2)
        bias_up = (best_h > Qh[members, states, pol] + tol) & ~gain_up.any(axis=1)[:, None]
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
        active, at = active[~done], at[~done]
        if not active.size:
            break
        if 2 * active.size <= len(held):               # half the held members finished
            held, at = T[active], np.arange(active.size)
    failed = np.flatnonzero(~(residuals < epsilon))   # NaN: still changing
    if failed.size:
        j = int(failed[0])
        if not iterations[j]:
            raise NonConvergenceError(
                f"candidate {j} still changing policy after {max_rounds} policy-iteration "
                f"rounds", iterations=max_rounds, candidate=j)
        raise NonConvergenceError(
            f"candidate {j} optimality-equation residual {residuals[j]:.3e} not below "
            f"{epsilon:g}", residual=float(residuals[j]), iterations=int(iterations[j]),
            candidate=j)
    return policy, gains, biases, iterations, residuals, n_closed


def _renamed(exc: NonConvergenceError, name):
    """A batch member's ``NonConvergenceError`` naming ``name`` in place of its index."""
    return NonConvergenceError(name + str(exc).removeprefix(f"candidate {exc.candidate}"),
                               residual=exc.residual, iterations=exc.iterations)


def _solve_mdp(mdp: TabularMdp, epsilon, max_rounds, name):
    """Optimal policy, gain vector and bias vector of one MDP by policy iteration.

    Starts from action 0 (idling, on a sampler MDP) and keeps the incumbent
    action on ties, so a state whose actions tie keeps the lowest one unless
    an improvement moved it earlier: a sampler does not transmit where
    transmitting buys nothing.  A ``NonConvergenceError`` names the MDP as
    ``name``.
    """
    try:
        policy, gains, biases, _, _, _ = _policy_iteration_batch(
            mdp.transitions[None], mdp.rewards[None], epsilon, max_rounds, initial_action=0)
    except NonConvergenceError as exc:
        raise _renamed(exc, name) from None
    return policy[0], gains[0], biases[0]


# ---------------------------------------------------------------------------
# policy containers and helpers


def sampling_from_flat(flat, model: DecPomdpModel) -> SamplingPolicy:
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    return SamplingPolicy(np.asarray(flat, dtype=int).reshape(v, n, n).transpose(2, 1, 0))


def flatten_sampling(policy: SamplingPolicy) -> np.ndarray:
    return policy.decisions.transpose(2, 1, 0).reshape(-1)


@dataclass(frozen=True)
class SolveReport:
    sampling_policy: SamplingPolicy
    decision_policy: DecisionPolicy
    average_reward: float
    iterations: int
    residual: float
    converged: bool
    diagnostics: dict = field(default_factory=dict, repr=False)

    @property
    def average_cost(self):
        return -self.average_reward


def solve_sampler_for_decision(model: DecPomdpModel, decision: DecisionPolicy,
                               epsilon=DEFAULT_EPSILON, max_sweeps=MAX_PI_ROUNDS,
                               start_state=0) -> tuple[SamplingPolicy, float, np.ndarray]:
    """Best-response sampling policy for a fixed decision policy.

    Solves the induced sampler MDP by multichain policy iteration (see
    ``_solve_mdp``), ``max_sweeps`` capping its rounds as in
    ``brute_force_joint``.  Returns the policy, its optimal gain from
    ``start_state`` (the rule ``brute_force_joint`` and ``jesp`` score by),
    and the bias vector.
    """
    flat, gains, bias = _solve_mdp(
        induced_mdp(model, decision), epsilon, max_sweeps,
        f"sampler best response to decision policy {tuple(decision.actions.tolist())}")
    return sampling_from_flat(flat, model), float(gains[start_state]), bias


# ---------------------------------------------------------------------------
# greedy decision policy (separate-design baseline)


def greedy_decision_policy(model: DecPomdpModel, context_weights=None) -> DecisionPolicy:
    """Myopic per-estimate actuation assuming the estimate is perfect.

    The inherent cost is averaged over the context under ``context_weights``
    (stationary context law by default).  Exact cost ties break toward the
    larger actuation index.
    """
    weights = (model.context.stationary() if context_weights is None
               else np.asarray(context_weights, dtype=float))
    if weights.shape != (model.alphabets.n_contexts,):
        raise ParameterError("context weights must assign one weight per context")
    weights = weights / weights.sum()
    expected = np.einsum("p,xpa->xa", weights, model.action_cost)
    flipped = expected[:, ::-1].argmin(axis=1)
    return DecisionPolicy(model.alphabets.n_actions - 1 - flipped)


# ---------------------------------------------------------------------------
# policy iteration with step size (actuator side, fixed sampling)


def _as_schedule(step_schedule):
    if step_schedule is None or step_schedule == "harmonic":
        return lambda k: 1.0 / (k + 1)
    if isinstance(step_schedule, (int, float)):
        size = float(step_schedule)
        if not 0.0 < size <= 1.0:
            raise ParameterError(f"constant step size {size} outside (0, 1]")
        return lambda k: size
    raise ParameterError(f"cannot interpret step schedule {step_schedule!r}")


@dataclass(frozen=True)
class PiResult:
    decision_policy: DecisionPolicy
    average_reward: float
    iterations: int
    eta_trace: list
    converged: bool


def _one_hot(actions, n_actions):
    table = np.zeros((len(actions), n_actions))
    table[np.arange(len(actions)), actions] = 1.0
    return table


def _local_search(problem: _FixedSamplingProblem, actions, eta, start):
    """Steepest-ascent single-observation deviations until none improves.

    Each pass scores every deviation (observation, other action) at once: the
    K = n_obs * (A - 1) chains go through ``_evaluate_batch`` and a deviation
    scores its gain from ``start``.  Deviations are visited in (observation,
    action) order and one replaces the incumbent only when it beats the best so
    far by more than ``IMPROVE_TOL``, so the first of equally good moves wins.
    The pass applies the best move and repeats.
    """
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


def pi_step_size(model: DecPomdpModel, sampling: SamplingPolicy,
                 initial_decision: DecisionPolicy, epsilon=DEFAULT_EPSILON,
                 step_schedule=None, max_rounds=MAX_PI_ROUNDS,
                 start_state=0) -> PiResult:
    """Soft policy iteration for the actuator given a fixed sampling policy.

    Each round evaluates the current soft decision table (long-run law, gain,
    differential rewards, observation q-values; see
    ``_FixedSamplingProblem.evaluate``) and blends the table toward the
    per-observation greedy action by the scheduled step size.  Steps that lower
    the gain are rolled back.  Observations with zero long-run mass keep
    their incumbent action.  The final deterministic policy is the
    per-observation argmax, then improved by single-observation local search so
    that no single deviation can gain more than the tolerance; the reported
    average reward is evaluated for that deterministic policy.

    When the sampling policy freezes some estimates forever the induced chain
    has several closed classes; gains are then taken from ``start_state`` and
    the posteriors from the Cesaro row of that state.
    """
    schedule = _as_schedule(step_schedule)
    n_actions = model.alphabets.n_actions
    problem = _FixedSamplingProblem(model, sampling)

    soft = _one_hot(initial_decision.actions, n_actions)
    evaluation = problem.evaluate(soft, start_state)
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
        candidate_eval = problem.evaluate(candidate, start_state)
        if candidate_eval.eta >= evaluation.eta - ACCEPT_TOL:
            soft, evaluation = candidate, candidate_eval
            etas.append(evaluation.eta)
            if abs(etas[-1] - etas[-2]) < epsilon:
                converged = True
                break

    actions = soft.argmax(axis=1)
    eta_det = problem.eta_of(_one_hot(actions, n_actions), start_state)
    eta_init = problem.eta_of(_one_hot(initial_decision.actions, n_actions), start_state)
    if eta_init > eta_det:
        actions, eta_det = initial_decision.actions.copy(), eta_init
    actions, eta_det = _local_search(problem, actions, eta_det, start_state)
    return PiResult(decision_policy=DecisionPolicy(actions), average_reward=float(eta_det),
                    iterations=rounds, eta_trace=etas, converged=converged)


# ---------------------------------------------------------------------------
# brute force over decision policies


def _chunk_sizes(n, cap, workers):
    """Sizes of the chunks that ``n`` candidates are split into, none over ``cap``.

    One worker takes full chunks in turn.  Several take a multiple of
    ``workers`` chunks of near-equal size, so that no chunk is left to run
    alone at the end.
    """
    count = -(-n // cap)
    if workers == 1:
        return [cap] * (count - 1) + [n - cap * (count - 1)]
    count = min(n, -(-count // workers) * workers)
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


def _solve_chunk(model, policies, epsilon, max_sweeps):
    """One brute-force chunk: the sampler MDPs of the decision tables ``policies``
    (K, S) in one policy-iteration batch.  Returns ``policies`` and the batch's
    results; a ``NonConvergenceError`` names the failing decision policy."""
    rows = DecisionRows(model, policies)
    try:
        return policies, _policy_iteration_batch(rows.kernels, rows.rewards, epsilon,
                                                 max_sweeps, initial_action=1)
    except NonConvergenceError as exc:
        raise _renamed(exc, f"decision policy {tuple(policies[exc.candidate].tolist())}"
                       ) from None


def brute_force_joint(model: DecPomdpModel, epsilon=DEFAULT_EPSILON,
                      budget=200_000, max_sweeps=MAX_PI_ROUNDS,
                      start_state=0) -> SolveReport:
    """Exact joint solve: enumerate every deterministic decision policy.

    Decision policies are visited in lexicographic order; each induces a
    sampler MDP solved by batched multichain policy iteration (see
    ``_policy_iteration_batch``), and the candidate's score is its optimal gain
    from ``start_state``, the rule ``jesp`` scores by.  The best score wins,
    with earlier-enumerated policies preferred on exact ties.

    ``iterations`` counts policy-iteration rounds summed over candidates, and
    ``max_sweeps`` caps each candidate's rounds.  Candidates whose sampling
    policy leaves several closed classes are listed under
    ``multichain_candidates``; policy iteration keeps sampling wherever
    sampling ties with idling, so few are.  ``stalled_candidates`` is always
    empty: a candidate that does not converge raises ``NonConvergenceError``,
    which names the lexicographically first failing decision policy whatever
    the chunk size or the worker count.  ``BRUTE_CHUNK`` candidates are in
    flight at once, or as many as keep their kernels within
    ``model.MAX_KERNEL_BYTES``; a model where one candidate's kernels already
    pass the limit is refused with ``MemoryBudgetError`` before anything of
    that size is built.  With ``BRUTE_THREADED_STATES`` global states or more,
    ``BRUTE_WORKERS`` threads (one per core, at most ``BRUTE_CHUNK // 64``;
    one inside a forked grid-cell worker) share those candidates, each
    chunk one ``DecisionRows`` gather and one policy-iteration batch; numpy
    releases the GIL in its solves and array loops.  Below that, the chunks
    run in turn on the calling thread.  Every candidate's arithmetic is the
    same either way, and the results are reduced in enumeration order.
    A single unichain warning is emitted up front if the reference chain
    (always sample, lowest actuation) already has several closed classes.
    """
    n_states = model.alphabets.n_states
    n_actions = model.alphabets.n_actions
    n_candidates = n_actions ** n_states
    if n_candidates > budget:
        raise EnumerationBudgetError(
            f"{n_actions}^{n_states} = {n_candidates} decision policies exceed the "
            f"enumeration budget {budget}")
    fit = check_kernel_bytes(model.alphabets, 1, "the kernels of one candidate")
    N = model.n_global_states
    if not 0 <= start_state < N:
        raise ParameterError(f"start state {start_state} outside 0..{N - 1}")
    # this also builds the cached ``model.kernels`` before any worker starts, so
    # the workers only read it
    reference_chain = DecisionRows(model, np.zeros(n_states, dtype=int)).kernels[1]
    if len(closed_classes(reference_chain)) != 1:
        warnings.warn("reference chain (always sample, lowest actuation) is not unichain; "
                      "gains of enumerated policies may be start-dependent", stacklevel=2)

    # below BRUTE_THREADED_STATES, Python bookkeeping that holds the GIL outweighs
    # numpy's work that releases it, and threads lose to one loop
    workers = min(BRUTE_WORKERS if N >= BRUTE_THREADED_STATES else 1,
                  BRUTE_CHUNK, fit, n_candidates)
    sizes = _chunk_sizes(n_candidates, min(BRUTE_CHUNK, fit) // workers, workers)
    enumerated = itertools.product(range(n_actions), repeat=n_states)
    blocks = (np.array(list(itertools.islice(enumerated, size)), dtype=int)  # (K, S)
              for size in sizes)
    solve = functools.partial(_solve_chunk, model, epsilon=epsilon, max_sweeps=max_sweeps)

    best_gain = -np.inf
    best_actions = None
    best_sampling = None
    best_residual = np.nan
    total_rounds = 0
    flagged = []
    pool = None
    if workers > 1:
        # imported only here: it loads logging and queue, which runs that never
        # start a worker would carry in memory for nothing
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers)
    try:
        # results come back in enumeration order, so the first failing chunk's
        # error, naming the lexicographically first failing decision policy, is
        # the one raised, whatever the chunk size or worker count
        solved = (map if pool is None else pool.map)(solve, blocks)
        for policies, (pol_b, gains, _, rounds, residuals, n_closed) in solved:
            total_rounds += int(rounds.sum())
            scores = gains[:, start_state]
            for j in np.flatnonzero(n_closed > 1):
                flagged.append(tuple(int(x) for x in policies[j]))
            j = int(scores.argmax())
            if scores[j] > best_gain:
                best_gain = float(scores[j])
                best_actions = policies[j].copy()
                best_sampling = pol_b[j].copy()
                best_residual = float(residuals[j])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return SolveReport(
        sampling_policy=sampling_from_flat(best_sampling, model),
        decision_policy=DecisionPolicy(best_actions),
        average_reward=float(best_gain),
        iterations=total_rounds,
        residual=float(best_residual),
        converged=True,
        diagnostics={"candidates_evaluated": n_candidates,
                     "multichain_candidates": flagged,
                     "stalled_candidates": []},
    )


# ---------------------------------------------------------------------------
# alternating best-response search


def heuristic_initial_decision(model: DecPomdpModel, epsilon=DEFAULT_EPSILON) -> DecisionPolicy:
    """Seed decision policy from the perfect-estimate actuation MDP.

    Solves the (state, context) MDP by multichain policy iteration (see
    ``_solve_mdp``), forms q-values from its gain and bias, averages them over
    the stationary context law, and picks the cost-minimizing actuation per
    state, read as a per-estimate rule.
    """
    mdp = heuristic_mdp(model)
    _, gains, bias = _solve_mdp(mdp, epsilon, MAX_PI_ROUNDS, "perfect-estimate actuation MDP")
    q = mdp.rewards - gains[:, None] + (mdp.transitions @ bias).T     # (S*V, A)
    weights = model.context.stationary()
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    q_by_state = np.einsum("p,xpa->xa", weights, q.reshape(v, n, -1).transpose(1, 0, 2))
    return DecisionPolicy(q_by_state.argmax(axis=1))


def _jesp_once(model, initial_decision, epsilon, step_schedule, max_rounds,
               pi_rounds, start_state):
    decision = initial_decision
    theta_prev = None
    theta = None
    theta_trace = []
    converged = False
    rounds = 0
    best = None
    for k in range(1, max_rounds + 1):
        rounds = k
        sampling, _, _ = solve_sampler_for_decision(model, decision, epsilon, pi_rounds)
        pi_res = pi_step_size(model, sampling, decision, epsilon=epsilon,
                              step_schedule=step_schedule, max_rounds=pi_rounds,
                              start_state=start_state)
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


def jesp(model: DecPomdpModel, epsilon=DEFAULT_EPSILON, step_schedule=None,
         restarts=0, seed=0, max_rounds=MAX_JESP_ROUNDS,
         pi_rounds=MAX_PI_ROUNDS, start_state=0) -> SolveReport:
    """Alternating best-response search for a Nash policy pair.

    The decision policy is seeded from the perfect-estimate heuristic, then the
    sampler (policy-iteration best response, ``solve_sampler_for_decision``)
    and the actuator (soft policy iteration) alternate until the average reward
    stabilizes; ``pi_rounds`` caps the rounds of both.  Optional restarts rerun the
    loop from uniformly random decision policies and keep the best outcome;
    per-restart results land in the diagnostics.

    Sampling best responses occasionally stop transmitting out of some
    estimates, leaving a multichain; both steps take gains from
    ``start_state`` (see ``pi_step_size``), which matches what a closed-loop
    run from that state measures.
    """
    rng = np.random.default_rng(seed)
    n_states, n_actions = model.alphabets.n_states, model.alphabets.n_actions
    outcomes = []
    best = None
    for attempt in range(restarts + 1):
        if attempt == 0:
            start = heuristic_initial_decision(model, epsilon=epsilon)
        else:
            start = DecisionPolicy(rng.integers(0, n_actions, size=n_states))
        try:
            report = _jesp_once(model, start, epsilon, step_schedule, max_rounds,
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
