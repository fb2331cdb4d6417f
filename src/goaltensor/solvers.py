"""Average-reward solvers for the sampler/actuator pair.

Every sampler MDP is solved by one routine: batched multichain policy
iteration (Howard 1960; Puterman 1994, section 9.2), with a residual
certificate on both multichain optimality equations.  Two exact routes and one
fast route use it:

* the sampler's best response to a fixed decision policy, one MDP;
* brute-force enumeration of all deterministic decision policies, each
  scored by its sampler MDP's optimal gain from the start state; it skips
  every candidate whose screen bound, an upper bound on its gain, proves it
  below a target, a gain some candidate is known to reach, which the
  screen's lower bounds raise from -inf as it goes;
* alternating best-response search between the two agents, seeded from a
  perfect-estimate heuristic that the caller computes, which converges to a
  Nash pair (its sampler step is the best response above).

The screen bounds a candidate's gain before any solve, from both sides.  For
any h and any policy, g = P*(r + P h - h) <= max_s (T h - h)(s), multichain
chains included (Puterman 1994, section 8.5 and ch. 9; Odoni 1969); and the
greedy policy d of h has g_d = P_d*(T h - h) >= min_s (T h - h)(s) from every
start state (MacQueen 1967), so the optimal gain does too.  Rounds of
``SCREEN_SWEEPS`` relative value-iteration sweeps, each continuing from the
h the last one reached, give both bounds for a fraction of a solve.  A
sweep runs through the kernel's factors (``model``), never a dense N x N
kernel: h is contracted over the next context, then over the next source
state at the estimate idling keeps and at the one a delivery lands.  Each
bound moves by ``PI_NOISE`` times the reward and h magnitudes, past the
sweep's rounding at any N the byte limit admits, so a skip holds at every
epsilon.

Both searches are written once, as generators (``brute_force_search``,
``jesp_search``) that yield each solver call they need: a batch of sampler
MDPs to solve, a chain to evaluate in soft policy iteration, or a
local-search pass's deviation chains.  One driver, ``lockstep``, runs any
number of searches together, stacking every waiting call of one kind into
one batched solve; ``brute_force_joint`` and ``jesp`` are that driver on one
search, and a grid study runs all its cells' jesp searches in one pass, as
many at once as hold at most half of ``model.MAX_KERNEL_BYTES`` between
their steps (``jesp_in_flight``).  One owner, ``_served``, sizes and fails
every batch in the calling thread: within the other half, at most
``BRUTE_CHUNK`` sampler or screened MDPs at once, and a request ends at
its first failing member.  numpy solves a stack member by member, so each
search gets, to the bit, what it gets alone, and a member's failure goes
to its own search only.

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
taken from the start state, and ``_chain_laws`` gives the matching long-run
law, for ``chain_law`` and for soft policy iteration: the stationary law with
one closed class, else the Cesaro row of the start state.

One ordered map, ``pool_map``, spreads the cells of ``harness``'s grid
brute force, one search each, over forked processes, one per core
(``CORES``), inside which every ``pool_map`` call runs in place; at
``CORES = 1`` every solve runs in the calling process.
"""

from __future__ import annotations

import bisect
import itertools
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import model as model_module
from .errors import (EnumerationBudgetError, ErgodicityError, GoalTensorError,
                     NonConvergenceError, ParameterError)
from .model import (DecisionRows, DecPomdpModel, check_kernel_bytes, heuristic_mdp, induced_mdp,
                    induced_pomdp)
from .tensor import DecisionPolicy, SamplingPolicy

POISSON_TOL = 1e-8
ZERO_MARGINAL = 1e-12
ACCEPT_TOL = 1e-10          # tolerated average-reward loss when accepting a soft-policy step
IMPROVE_TOL = 1e-9          # minimum gain for a local-search move

PI_NOISE = 1e-12            # relative tie tolerance of a policy-iteration improvement

DEFAULT_EPSILON = 1e-6
MAX_PI_ROUNDS = 500
MAX_JESP_ROUNDS = 100
DEFAULT_BUDGET = 200_000    # most decision policies brute force enumerates
BRUTE_CHUNK = 128           # sampler or screened MDPs in one batch
# cores this process may run on: the width of the pool (``pool_map``)
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
SCREEN_SWEEPS = 10          # most value-iteration sweeps of one round of brute force's screen


# ---------------------------------------------------------------------------
# the one worker pool


# A forked worker's (function, items) of ``pool_map``, set in the worker only.
_WORKER_JOB = None


def _start_worker(fn, items):
    global _WORKER_JOB
    _WORKER_JOB = fn, items


def _worker_call(index):
    fn, items = _WORKER_JOB
    return fn(items[index])


def pool_map(fn, items, workers):
    """``list(map(fn, items))``, the calls spread over ``workers`` forked
    worker processes.

    At most one worker per item.  Results come back in item order.  An
    exception that ``fn`` raises reaches the caller as it would from ``map``,
    the first failing item's, after the pool is shut down: items not yet
    started are cancelled and every worker is joined before this returns or
    raises.  A worker inherits ``fn`` and the items at the fork, so neither
    is pickled; each result comes back pickled.

    Runs in place, in the calling thread, with fewer than two workers,
    inside a forked worker, whose siblings already use every core, where the
    platform has no ``fork`` start method, and while other threads run: a
    fork copies only the calling thread, so a lock another thread held would
    stay held in the workers.
    """
    workers = min(workers, len(items))
    if workers < 2 or _WORKER_JOB is not None:
        return list(map(fn, items))
    # imported only here: they load logging and queue, which runs that never
    # start a pool would carry in memory for nothing
    import multiprocessing
    import threading
    from concurrent import futures
    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return list(map(fn, items))
    # a worker flushes the stdio buffers it inherited when it exits: empty
    # them first, or their text is written once more by every worker
    # (CPython's fork start method flushes them too, but documents no such
    # promise)
    sys.stdout.flush()
    sys.stderr.flush()
    pool = futures.ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker, initargs=(fn, items))
    try:
        return list(pool.map(_worker_call, range(len(items))))
    finally:
        pool.shutdown(cancel_futures=True)


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
    """Stationary row of a chain with one closed class (``_balance_batch`` of one)."""
    return _balance_batch(P[None])[0]


def _balance_batch(P) -> np.ndarray:
    """Stationary rows of a batch of chains (K, N, N), each with one closed class:
    the balance equations, one (redundant) row replaced by the normalization
    constraint, in one batched solve.  numpy solves a stack member by member,
    so each row is, to the bit, what a solve of that member alone gives.
    ``ErgodicityError`` names the first member, in batch order, whose solution
    has negative mass."""
    k, n, _ = P.shape
    system = P.transpose(0, 2, 1) - np.eye(n)
    system[:, -1, :] = 1.0
    rhs = np.zeros((k, n, 1))
    rhs[:, -1] = 1.0
    try:
        mu = np.linalg.solve(system, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"balance system is singular: {exc}") from exc
    negative = np.flatnonzero(mu.min(axis=1) < -1e-10)
    if negative.size:
        raise ErgodicityError(
            f"balance solution has negative mass {mu[negative[0]].min():.3e}")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum(axis=1, keepdims=True)


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
    """Long-run time-average law of a finite chain started in ``start``, or
    the law of each chain of a (K, N, N) stack, every one started in ``start``.

    The stationary law when the chain has one closed class, whatever the
    start; otherwise the Cesaro row of ``start`` (Puterman 1994, ch. 8-9),
    the chains classified by ``_closed_heads`` (see ``_chain_laws``).
    """
    P = np.asarray(P, dtype=float)
    stack = P if P.ndim == 3 else P[None]
    laws, _ = _chain_laws(stack, np.full(len(stack), start), _closed_heads(stack)[0] == 1)
    return laws if P.ndim == 3 else laws[0]


def _chain_laws(P, starts, single):
    """The long-run law of each chain of a stack (K, N, N), chain j started in
    ``starts[j]``: the stationary law where the chain has one closed class
    (``single``), solved for all such chains in one ``_balance_batch``, else
    the Cesaro row of its start.  Returns the laws (K, N) and, per chain in
    an object array, its Cesaro matrix where it has several closed classes
    and None where it has one, which is what soft policy iteration shifts
    its bias by."""
    stars = np.full(len(P), None, dtype=object)
    laws = np.empty(P.shape[:2])
    laws[single] = _balance_batch(P[single])
    for j in np.flatnonzero(~single):
        stars[j] = cesaro_limit(P[j])
        laws[j] = stars[j][starts[j]]
    return laws, stars


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

    def evaluation(self, table, start=0):
        """Search step (see ``lockstep``) returning the gain, bias and
        posterior law of the chain under a stochastic decision table.

        Gain and bias come from ``_evaluate_batch``, residual-checked against
        the Poisson equation.  The law is the stationary one when the chain has
        one closed class, else the Cesaro row of ``start`` (``_chain_laws``);
        the scalar gain is taken under it.  The bias is shifted to zero mean
        under every closed class's law (P* h = 0, Puterman's bias), so
        q-values are differential returns.
        """
        P, rbar = self.chain(table)
        gain, bias, law, star = (field[0] for field in (yield _Request(
            _CHAINS, (), len(rbar), 1, lambda lo, hi: (P[None], rbar[None], np.array([start])))))
        bias = bias - (law @ bias if star is None else star @ bias)
        residual = np.abs(gain + bias - rbar - P @ bias).max()
        if residual > POISSON_TOL:
            raise NonConvergenceError(
                f"differential-reward residual {residual:.3e} exceeds {POISSON_TOL:g}",
                residual=residual)
        return _ChainEval(mu=law, eta=float(law @ rbar), eta_vec=gain, g=bias)

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


def _closed_heads(P):
    """The number of closed classes of each chain of a batch (K, N, N), and
    per chain and state whether the state heads (is the lowest state of) a
    closed class.  ``_unichain_batch`` certifies most chains as unichain,
    their one head left unmarked; only the rest go through the full
    classifier, ``_closed_classes_batch``, in one call."""
    k, n, _ = P.shape
    n_closed, heads = np.ones(k, dtype=int), np.zeros((k, n), dtype=bool)
    rest = np.flatnonzero(~_unichain_batch(P))
    if rest.size:
        representative, closed = _closed_classes_batch(P[rest])
        heads[rest] = closed & (representative == np.arange(n))
        n_closed[rest] = heads[rest].sum(axis=1)
    return n_closed, heads


def _evaluate_batch(P, r):
    """Gain and bias vectors of a batch of fixed-policy chains.

    ``_closed_heads`` classifies the members.  A unichain member
    solves the N x N system g + (I - P) h = r with h[0] = 0.  A multichain
    member solves the 2N x 2N system (I - P) g = 0, g + (I - P) h = r, with
    h = 0 at the representative state of each closed class in place of that
    state's (redundant) gain row.  Returns (g, h, number of closed classes),
    all per member.
    """
    k, n, _ = P.shape
    n_closed, heads = _closed_heads(P)
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
        member, state = np.nonzero(heads[multi])
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


def _renamed(exc: NonConvergenceError, name, candidate=None):
    """A batch member's ``NonConvergenceError`` naming ``name`` in place of its
    index, with ``candidate`` its index where it still has one."""
    return NonConvergenceError(name + str(exc).removeprefix(f"candidate {exc.candidate}"),
                               residual=exc.residual, iterations=exc.iterations,
                               candidate=candidate)


# ---------------------------------------------------------------------------
# searches run in lockstep


_CHAINS, _TRIALS, _SCREENS, _SAMPLERS = range(4)    # request kinds, in the order served

# Dense N x N float arrays that serving one member of a kind holds at most:
# the member's stacked kernels, ``_evaluate_batch``'s copies and systems (a
# multichain member's 2N x 2N system counts four; about 7.3 arrays in all at
# N = 48 and 144, by tracemalloc) and, for a sampler MDP, its two kernels with
# policy iteration's copies of them (about 9.5); one more copy of the kernels
# where a batch is solved again without a failing member.  A screened MDP
# holds rows of N only (source rows, rewards, h, a sweep's products): 0.53
# N x N arrays at N = 48, 0.16-0.23 at N = 144 by tracemalloc, so one bounds
# it wherever the limit, not BRUTE_CHUNK, sets the batch (N > 362).
_MEMBER_ARRAYS = {_CHAINS: 9, _TRIALS: 9, _SCREENS: 1, _SAMPLERS: 12}


class _Request(NamedTuple):
    """What a search asks ``lockstep`` to solve: ``count`` members of one
    ``kind`` over ``n`` global states, ``settings`` the solve's further
    arguments.  ``take(lo, hi)`` returns the arrays of members lo..hi - 1,
    each stacked along a first axis."""
    kind: int
    settings: tuple
    n: int
    count: int
    take: Callable


def _solve_chains(P, r, starts):
    """Gain and bias vectors (``_evaluate_batch``) of fixed-policy chains, with
    their laws from the given starts and Cesaro matrices (``_chain_laws``)."""
    g, h, n_closed = _evaluate_batch(P, r)
    return (g, h) + _chain_laws(P, starts, n_closed == 1)


def _solve_trials(P, r):
    return _evaluate_batch(P, r)[:1]


def _solve_samplers(T, R, epsilon, max_rounds, initial_action):
    """``_policy_iteration_batch`` of sampler MDPs.  It keeps the incumbent on
    ties, so from action 0 (idling), where all but brute force start, a
    sampler does not transmit where transmitting buys nothing."""
    return _policy_iteration_batch(T, R, epsilon, max_rounds, initial_action)


def _screen_bounds(source, R, h, target, sweeps, p, context):
    """Bounds on the optimal gains, from every start state, of the sampler
    MDPs of decision tables, by relative value-iteration sweeps that
    continue each member from its row of ``h`` (K, N) (module docstring).
    A member is given by its source rows ``source`` (K, N, n_states)
    (``model.DecisionRows``) and its rewards ``R`` (K, N, 2); its model by
    the success probability ``p`` and the context rows ``context``.  A
    member sweeps ``sweeps`` times, or until its upper bound is below
    ``target``.  Returns per member the upper bound, the least over its
    sweeps of max_s (T h - h)(s) plus a rounding margin; the lower bound,
    min_s (T h - h)(s) less that margin at its last sweep; and the h it
    reached; -inf and NaN where its upper bound fell below ``target``.  A
    member's products are its own, so nothing it gets depends on the batch."""
    (k, N, n), context = source.shape, np.asarray(context)
    v = len(context)
    rows = source.reshape(k, v, n * n, n).swapaxes(-1, -2).copy()    # [k, phi, u, xhat n + x]
    # state s = x + n xhat + n^2 phi reads a sweep's products at [phi, e,
    # xhat n + x], e = xhat idling and e = x on a delivery
    states = np.arange(N)
    at = states // (n * n) * n ** 3 + states % (n * n)
    idle_at, sent_at = at + states // n % n * n * n, at + states % n * n * n
    idle_r, sent_r = R[..., 0].copy(), R[..., 1].copy()
    scale = 1.0 + np.abs(R).max(axis=(1, 2))
    upper, live = np.full(k, np.inf), np.ones(k, dtype=bool)
    for _ in range(sweeps):
        # g[k, phi, e, u] = sum_r context[phi, r] h[k, u + n e + n^2 r]
        g = (context @ h.reshape(k, v, n * n)).reshape(k, v, n, n)
        products = (g @ rows).reshape(k, -1)
        idle = products[:, idle_at]
        Th = np.maximum(idle_r + idle, sent_r + (p * products[:, sent_at] + (1 - p) * idle))
        span, margin = Th - h, PI_NOISE * (scale + np.abs(h).max(axis=1))
        np.minimum(upper, span.max(axis=1) + margin, out=upper, where=live)
        live = ~(upper < target)
        if not live.any():
            break
        h = Th - Th[:, :1]
    return (upper, np.where(live, span.min(axis=1) - margin, -np.inf),
            np.where(live[:, None], h, np.nan))


_SOLVES = {_CHAINS: _solve_chains, _TRIALS: _solve_trials, _SCREENS: _screen_bounds,
           _SAMPLERS: _solve_samplers}


def _serve(kind, settings, stacks, ends):
    """The results of the stacked arrays ``stacks``, of requests that end at
    members ``ends[0]``, ``ends[1]``, ..., solved as one batch of ``kind``: each
    field stacked over the members (None where none was solved), and
    ``(member, error)`` of each failing member.  The rows of a failing member
    and of its request's later members, which are not solved, hold nothing:
    where the batch raises a ``GoalTensorError``, the member it names (its
    ``candidate``) gets that error and the rest are solved again without it
    and its request's later members; an error that names no member has every
    member solved alone.  numpy solves and reduces a stack member by member,
    so every result is, to the bit, what the member gives alone.
    """
    fields, failures = None, []
    left = list(range(ends[-1]))
    alone = False
    while left:
        batch = left[:1] if alone else left
        members = stacks if len(batch) == ends[-1] else [stack[batch] for stack in stacks]
        try:
            solved = _SOLVES[kind](*members, *settings)
        except GoalTensorError as exc:
            j = 0 if len(batch) == 1 else getattr(exc, "candidate", None)
            if j is None:
                alone = True
            else:
                m = batch[j]
                failures.append((m, exc))
                end = ends[bisect.bisect_right(ends, m)]
                left = [k for k in left if not m <= k < end]
            continue
        if len(batch) == ends[-1]:
            return solved, failures
        if fields is None:
            fields = [np.empty((ends[-1],) + rows.shape[1:], rows.dtype) for rows in solved]
        for field, rows in zip(fields, solved):
            field[batch] = rows
        left = left[len(batch):]
    return fields, failures


def _served(requests):
    """Each request's outcome: ``(True, its results)``, each field stacked
    over its members, or ``(False, error)`` of its first failing member
    (``_serve``), a ``NonConvergenceError`` naming it by its request index.

    The members of ``requests``, which share kind, settings and N, are
    stacked in request order and cut into near-equal pieces, each as large
    as keeps its working set (``_MEMBER_ARRAYS``) within half of
    ``model.MAX_KERNEL_BYTES`` (``jesp_in_flight`` keeps the other half), at
    most ``BRUTE_CHUNK`` sampler or screened MDPs, and at least one.  The
    pieces run in order in the calling thread.  Each takes its arrays in
    its own call, writes its members' results into their requests' result
    arrays, and leaves out every request that has already failed.
    """
    kind, settings, n = requests[0][:3]
    room = max(1, model_module.MAX_KERNEL_BYTES // 2 // (_MEMBER_ARRAYS[kind] * n * n * 8))
    if kind in (_SCREENS, _SAMPLERS):
        room = min(room, BRUTE_CHUNK)
    total = sum(request.count for request in requests)
    count = max(1, min(total, -(-total // room)))      # 1 for an empty request
    base, extra = divmod(total, count)
    # pieces of (request, lo, hi) parts, cut at bounds over the stacked members
    bounds = list(itertools.accumulate([base + 1] * extra + [base] * (count - extra), initial=0))
    starts = list(itertools.accumulate((request.count for request in requests), initial=0))
    results, errors = [[] for _ in requests], [None] * len(requests)
    for a, b in zip(bounds, bounds[1:]):
        piece = [(i, lo - starts[i], hi - starts[i]) for i in range(len(requests))
                 if errors[i] is None and (lo := max(a, starts[i])) < (hi := min(b, starts[i + 1]))]
        if not piece:
            continue
        stacks = [arrays[0] if len(arrays) == 1 else np.concatenate(arrays) for arrays in
                  zip(*(requests[i].take(lo, hi) for i, lo, hi in piece))]
        ends = list(itertools.accumulate(hi - lo for _, lo, hi in piece))
        fields, failed = _serve(kind, settings, stacks, ends)
        for m, exc in failed:
            k = bisect.bisect_right(ends, m)
            i, lo, hi = piece[k]
            index = m - ends[k] + hi
            errors[i] = (_renamed(exc, f"candidate {index}", index)
                         if isinstance(exc, NonConvergenceError) else exc)
        for (i, lo, hi), end in zip(piece, ends):
            if errors[i] is not None:
                continue
            rows = fields if len(piece) == 1 else [field[end - hi + lo:end] for field in fields]
            if hi - lo == requests[i].count:
                results[i] = rows
                continue
            results[i] = results[i] or [np.empty((requests[i].count,) + row.shape[1:], row.dtype)
                                        for row in rows]
            for field, row in zip(results[i], rows):
                field[lo:hi] = row
    return [(False, error) if error is not None else (True, fields)
            for error, fields in zip(errors, results)]


def lockstep(searches, in_flight=None):
    """Run every generator of ``searches`` to its end, together, at most
    ``in_flight`` of them (all, by default) under way at once: the next in
    order starts as one ends.

    A search yields a ``_Request`` and receives its results, each field
    stacked over the members, or has the first failing member's
    ``GoalTensorError`` thrown in, a ``NonConvergenceError`` naming the
    member by its index in the request.  Each step serves every waiting
    request of one kind, settings and N at once (``_served``), the cheapest
    kind first: chains to evaluate, then local-search trials, then sampler
    MDPs, whose policy-iteration batch costs little more for many members
    than for one, so they wait until every search that can reach one has.
    Every result is what the search run alone gets.  Returns per search
    ``(True, value returned)`` or ``(False, GoalTensorError raised)``; any
    other exception reaches the caller.
    """
    outcomes = [None] * len(searches)
    waiting = {}
    queued = iter(range(len(searches)))
    in_flight = len(searches) if in_flight is None else in_flight

    def advance(i, ok, value):
        try:
            request = searches[i].send(value) if ok else searches[i].throw(value)
        except StopIteration as stop:
            outcomes[i] = True, stop.value
        except GoalTensorError as exc:
            outcomes[i] = False, exc
        else:
            waiting[i] = request

    while True:
        while len(waiting) < in_flight and (i := next(queued, None)) is not None:
            advance(i, True, None)
        if not waiting:
            return outcomes
        key = min(request[:3] for request in waiting.values())
        ready = sorted(i for i, request in waiting.items() if request[:3] == key)
        for i, (ok, value) in zip(ready, _served([waiting.pop(i) for i in ready])):
            advance(i, ok, value)


def jesp_in_flight(model: DecPomdpModel):
    """How many ``jesp_search``es of ``model``'s size ``lockstep`` runs at
    once: as many as hold, between their steps, at most half of
    ``model.MAX_KERNEL_BYTES``, and at least one.  A search holds its
    actuator tables (A dense N x N arrays, ``_FixedSamplingProblem``), a
    chain waiting for its evaluation and that chain's Cesaro matrix."""
    n, a = model.n_global_states, model.alphabets.n_actions
    return max(1, model_module.MAX_KERNEL_BYTES // 2 // ((a + 2) * n * n * 8))


def _run(search):
    """What one search returns, run by ``lockstep``; its error raised here."""
    (ok, value), = lockstep([search])
    if not ok:
        raise value
    return value


def _sampler_mdps(transitions, rewards, epsilon, max_rounds, name):
    """Search step (see ``lockstep``) returning the optimal policies, gain
    vectors and bias vectors, each stacked, of the MDPs of the batch,
    transitions (K, A, N, N) and rewards (K, N, A) (``_solve_samplers`` from
    action 0).  A ``NonConvergenceError`` names the failing MDP as ``name``."""
    try:
        results = yield _Request(_SAMPLERS, (epsilon, max_rounds, 0), transitions.shape[-1],
                                 len(transitions),
                                 lambda lo, hi: (transitions[lo:hi], rewards[lo:hi]))
    except NonConvergenceError as exc:
        raise _renamed(exc, name) from None
    return tuple(results[:3])


def solve_mdps(transitions, rewards, epsilon, max_rounds, name):
    """Optimal policies, gain vectors and bias vectors, each stacked, of a
    batch of MDPs: ``_sampler_mdps`` run alone."""
    return _run(_sampler_mdps(transitions, rewards, epsilon, max_rounds, name))


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
    ``solve_mdps``), ``max_sweeps`` capping its rounds as in
    ``brute_force_joint``.  Returns the policy, its optimal gain from
    ``start_state`` (the rule ``brute_force_joint`` and ``jesp`` score by),
    and the bias vector.
    """
    sampling, gains, bias = _run(_best_response(model, decision, epsilon, max_sweeps))
    return sampling, float(gains[start_state]), bias


def _best_response(model, decision, epsilon, max_rounds):
    """Search step (see ``lockstep``) returning the sampling policy, gain
    vector and bias vector of ``solve_sampler_for_decision``.  A
    ``NonConvergenceError`` names the decision policy."""
    mdp = induced_mdp(model, decision)
    flat, gains, bias = (field[0] for field in (yield from _sampler_mdps(
        mdp.transitions[None], mdp.rewards[None], epsilon, max_rounds,
        f"sampler best response to decision policy {tuple(decision.actions.tolist())}")))
    return sampling_from_flat(flat, model), gains, bias


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
    """Search step (see ``lockstep``): steepest-ascent single-observation
    deviations until none improves; returns the actions and their gain.

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
        if not len(acts):                                         # one action
            return actions, eta
        (gains,) = yield _Request(_TRIALS, (), rows.size, len(acts), lambda lo, hi: (
            problem.transitions[acts[lo:hi], rows, :], problem.rewards[rows, acts[lo:hi]]))
        best_eta, best_move = eta, None
        for j, g in enumerate(gains[:, start]):
            if g > best_eta + IMPROVE_TOL:
                best_eta, best_move = g, j
        if best_move is None:
            return actions, eta
        actions[moves_obs[best_move]] = moves_action[best_move]
        eta = float(best_eta)


def _soft_pi(model, sampling, initial_decision, epsilon, step_schedule, max_rounds,
             start_state):
    """Search step (see ``lockstep``): soft policy iteration for the
    actuator given a fixed sampling policy, returning a ``PiResult``.

    Each round evaluates the current soft decision table (long-run law, gain,
    differential rewards, observation q-values; see
    ``_FixedSamplingProblem.evaluation``) and blends the table toward the
    per-observation greedy action by the scheduled step size.  Steps that lower
    the gain are rolled back.  Observations with zero long-run mass keep
    their incumbent action.  The final deterministic policy is the
    per-observation argmax, then improved by single-observation local search so
    that no single deviation can gain more than the tolerance; the reported
    average reward is evaluated for that deterministic policy.

    When the sampling policy freezes some estimates forever the induced chain
    has several closed classes; gains are then taken from ``start_state`` and
    the posteriors from the Cesaro row of that state.

    Each distinct table is evaluated once per call: a table met again reads
    its first evaluation.  The one-hot initial table is the usual repeat: it
    is round 1's blend when the greedy action agrees with it everywhere, the
    final argmax when no step was accepted, and the fallback the argmax is
    compared with, which reads the gain ``eta_trace`` starts with.
    """
    schedule = _as_schedule(step_schedule)
    n_actions = model.alphabets.n_actions
    problem = _FixedSamplingProblem(model, sampling)
    evaluations = {}

    def evaluate(table):
        key = table.tobytes()
        if key not in evaluations:
            evaluations[key] = yield from problem.evaluation(table, start_state)
        return evaluations[key]

    soft = _one_hot(initial_decision.actions, n_actions)
    evaluation = yield from evaluate(soft)
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
        candidate_eval = yield from evaluate(candidate)
        if candidate_eval.eta >= evaluation.eta - ACCEPT_TOL:
            soft, evaluation = candidate, candidate_eval
            etas.append(evaluation.eta)
            if abs(etas[-1] - etas[-2]) < epsilon:
                converged = True
                break

    actions = soft.argmax(axis=1)
    eta_det = (yield from evaluate(_one_hot(actions, n_actions))).eta
    if etas[0] > eta_det:
        actions, eta_det = initial_decision.actions.copy(), etas[0]
    actions, eta_det = yield from _local_search(problem, actions, eta_det, start_state)
    return PiResult(decision_policy=DecisionPolicy(actions), average_reward=float(eta_det),
                    iterations=rounds, eta_trace=etas, converged=converged)


# ---------------------------------------------------------------------------
# brute force over decision policies


def brute_force_joint(model: DecPomdpModel, epsilon=DEFAULT_EPSILON,
                      budget=DEFAULT_BUDGET, max_sweeps=MAX_PI_ROUNDS,
                      start_state=0) -> SolveReport:
    """Exact joint solve: enumerate every deterministic decision policy.

    Decision policies are visited in lexicographic order; each induces a
    sampler MDP solved by batched multichain policy iteration (see
    ``_policy_iteration_batch``) from action 1, and the candidate's score is
    its optimal gain from ``start_state``, the rule ``jesp`` scores by.  The
    best score wins, with earlier-enumerated policies preferred on exact ties.

    Every candidate is first screened (module docstring) in rounds of
    ``SCREEN_SWEEPS`` sweeps, each candidate continuing from the h it
    reached.  After each round the target becomes the larger of itself
    (-inf at first) and the best lower bound less ``epsilon``, the best
    lower bound being a gain some candidate reaches, and a candidate is
    skipped where its least upper bound is below the target; the rounds
    stop after four, or once one candidate is left.  The candidate with the
    best lower bound always stays.  Every solved gain is certified to
    within ``epsilon``, so a skipped candidate is worse than the optimum,
    and the winner and every exact tie are still solved, their arithmetic
    the same as unpruned.

    ``iterations`` counts policy-iteration rounds summed over the solved
    candidates, and ``max_sweeps`` caps each candidate's rounds.  The
    diagnostics hold ``candidate_gains`` and ``candidate_bounds``, each
    candidate's gain and least upper screen bound in enumeration order (NaN
    where skipped), ``candidates_evaluated`` and
    ``candidates_pruned``, the solved and skipped counts, which add up to
    A^S, and ``multichain_candidates``, the solved candidates whose sampling
    policy leaves several closed classes; policy iteration keeps sampling
    wherever sampling ties with idling, so few are.  ``stalled_candidates``
    is always empty: a candidate that does not converge raises
    ``NonConvergenceError``, which names the lexicographically first failing
    decision policy among those the screen keeps, whatever the batching.

    This runs ``brute_force_search`` alone (``lockstep`` sizes and fails its
    batches) and warns up front (``warn_if_start_dependent``).  A model
    where one candidate's kernels pass ``model.MAX_KERNEL_BYTES`` is refused
    with ``MemoryBudgetError`` before anything of that size is built.
    """
    search = brute_force_search(model, epsilon=epsilon, budget=budget, max_sweeps=max_sweeps,
                                start_state=start_state)
    warn_if_start_dependent(model, stacklevel=2)
    return _run(search)


def warn_if_start_dependent(model: DecPomdpModel, stacklevel=1):
    """Warn, at the caller's line (``stacklevel`` 1) or further up, when brute
    force's gains may depend on the start state: the reference chain (always
    sample, lowest actuation) has several closed classes."""
    if len(closed_classes(model.kernels[1, 0])) != 1:
        warnings.warn("reference chain (always sample, lowest actuation) is not unichain; "
                      "gains of enumerated policies may be start-dependent",
                      stacklevel=stacklevel + 1)


def brute_force_search(model: DecPomdpModel, epsilon=DEFAULT_EPSILON, budget=DEFAULT_BUDGET,
                       max_sweeps=MAX_PI_ROUNDS, start_state=0):
    """Brute force on one model as a search for ``lockstep``, its arguments
    checked and the model's kernels built before it starts: up to four
    screen requests, then one request solving what they leave.  Returns
    ``brute_force_joint``'s report; a failing member's ``NonConvergenceError``
    names its decision policy, ``candidate`` its index."""
    n_states, n_actions = model.alphabets.n_states, model.alphabets.n_actions
    n_candidates = n_actions ** n_states
    if n_candidates > budget:
        raise EnumerationBudgetError(
            f"{n_actions}^{n_states} = {n_candidates} decision policies exceed the "
            f"enumeration budget {budget}")
    check_kernel_bytes(model.alphabets, 1, "the kernels of one candidate")
    N = model.n_global_states
    if not 0 <= start_state < N:
        raise ParameterError(f"start state {start_state} outside 0..{N - 1}")
    model.kernels                   # built here, before a grid's forked workers read them
    return _brute_steps(model, epsilon, max_sweeps, start_state, (n_actions,) * n_states)


def _brute_steps(model, epsilon, max_sweeps, start_state, shape):
    kept = np.arange(np.prod(shape))
    gains, bounds = np.full(kept.size, np.nan), np.full(kept.size, np.inf)

    def request(kind, settings, indices, *arrays):
        candidates = np.stack(np.unravel_index(indices, shape), axis=1)

        def take(lo, hi):
            rows = DecisionRows(model, candidates[lo:hi])
            return ((rows.source if kind == _SCREENS else rows.kernels, rows.rewards)
                    + tuple(array[lo:hi] for array in arrays))
        return _Request(kind, settings, model.n_global_states, indices.size, take)

    target = -np.inf
    h = np.zeros((kept.size, model.n_global_states))
    factors = model.channel.success_prob, tuple(map(tuple, model.context.probs.tolist()))
    for _ in range(4):
        upper, lower, h = yield request(_SCREENS, (target, SCREEN_SWEEPS) + factors, kept, h)
        bounds[kept] = np.minimum(bounds[kept], upper)
        target = max(target, lower.max() - epsilon)
        left = ~(bounds[kept] < target)
        kept, h = kept[left], h[left]
        if kept.size <= 1:
            break
    try:
        sampling, values, _, rounds, residuals, n_closed = yield request(
            _SAMPLERS, (epsilon, max_sweeps, 1), kept)
    except NonConvergenceError as exc:
        index = int(kept[exc.candidate])
        policy = tuple(int(action) for action in np.unravel_index(index, shape))
        raise _renamed(exc, f"decision policy {policy}", index) from None
    gains[kept] = values[:, start_state]
    j = int(gains[kept].argmax())               # ties go to the earliest candidate
    multichain = np.unravel_index(kept[n_closed > 1], shape)
    return SolveReport(
        sampling_policy=sampling_from_flat(sampling[j].copy(), model),
        decision_policy=DecisionPolicy(np.unravel_index(kept[j], shape)),
        average_reward=float(gains[kept[j]]),
        iterations=int(rounds.sum()),
        residual=float(residuals[j]),
        converged=True,
        diagnostics={"candidates_evaluated": kept.size,
                     "candidates_pruned": gains.size - kept.size,
                     "candidate_gains": gains,
                     "candidate_bounds": bounds,
                     "multichain_candidates": list(zip(*(a.tolist() for a in multichain))),
                     "stalled_candidates": []},
    )


# ---------------------------------------------------------------------------
# alternating best-response search


def heuristic_initial_decision(model: DecPomdpModel, epsilon=DEFAULT_EPSILON) -> DecisionPolicy:
    """Seed decision policy from the perfect-estimate actuation MDP.

    Solves the (state, context) MDP by multichain policy iteration (see
    ``solve_mdps``), forms q-values from its gain and bias, averages them over
    the stationary context law, and picks the cost-minimizing actuation per
    state, read as a per-estimate rule.
    """
    mdp = heuristic_mdp(model)
    _, (gains,), (bias,) = solve_mdps(mdp.transitions[None], mdp.rewards[None], epsilon,
                                      MAX_PI_ROUNDS, "perfect-estimate actuation MDP")
    q = mdp.rewards - gains[:, None] + (mdp.transitions @ bias).T     # (S*V, A)
    weights = model.context.stationary()
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    q_by_state = np.einsum("p,xpa->xa", weights, q.reshape(v, n, -1).transpose(1, 0, 2))
    return DecisionPolicy(q_by_state.argmax(axis=1))


def _jesp_once(model, initial_decision, epsilon, step_schedule, max_rounds,
               pi_rounds, start_state):
    """Search step (see ``lockstep``): one alternating best-response search
    from ``initial_decision``, returning its report."""
    decision = initial_decision
    theta_prev = None
    theta = None
    theta_trace = []
    converged = False
    rounds = 0
    best = None
    # a round is a pure function of the decision table it starts from, so a
    # table met before replays that round: (sampling, soft-PI result) by table
    played = {}
    for k in range(1, max_rounds + 1):
        rounds = k
        key = decision.actions.tobytes()
        if key not in played:
            sampling, _, _ = yield from _best_response(model, decision, epsilon, pi_rounds)
            played[key] = sampling, (yield from _soft_pi(
                model, sampling, decision, epsilon, step_schedule, pi_rounds, start_state))
        sampling, pi_res = played[key]
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


def jesp(model: DecPomdpModel, initial_decision: DecisionPolicy, epsilon=DEFAULT_EPSILON,
         step_schedule=None, restarts=0, seed=0, max_rounds=MAX_JESP_ROUNDS,
         pi_rounds=MAX_PI_ROUNDS, start_state=0) -> SolveReport:
    """Alternating best-response search for a Nash policy pair.

    The search starts from ``initial_decision``, the seed decision policy
    (``heuristic_initial_decision``, which depends on the source, the context
    and the action costs only, so a grid study computes it once for all its
    cells), then the sampler (policy-iteration best response,
    ``solve_sampler_for_decision``) and the actuator (soft policy iteration)
    alternate until the average reward stabilizes; ``pi_rounds`` caps the
    rounds of both.  Optional restarts rerun the loop from uniformly random
    decision policies and keep the best outcome; per-restart results land in
    the diagnostics.

    A round whose decision policy an earlier round of the same search started
    from is counted, not run: both steps are pure functions of that policy, so
    it replays the earlier round's sampling policy, decision policy and
    average reward.  The usual case is a soft-PI step that returns the policy
    it started from: the next round repeats it, the average reward moves by 0,
    and the search stops converged with residual 0 one round later, the
    replayed round counted in ``iterations`` and ``theta_trace``.  When that
    round would be round ``max_rounds + 1``, it is not counted, and the
    search reports itself unconverged.

    Sampling best responses occasionally stop transmitting out of some
    estimates, leaving a multichain; both steps take gains from
    ``start_state`` (see ``_soft_pi``), which matches what a closed-loop
    run from that state measures.

    This runs ``jesp_search`` alone; a grid study runs the searches of all
    its cells together in one ``lockstep``, with the same results.
    """
    return _run(jesp_search(model, initial_decision, epsilon=epsilon,
                            step_schedule=step_schedule, restarts=restarts, seed=seed,
                            max_rounds=max_rounds, pi_rounds=pi_rounds,
                            start_state=start_state))


def jesp_search(model: DecPomdpModel, initial_decision: DecisionPolicy, epsilon=DEFAULT_EPSILON,
                step_schedule=None, restarts=0, seed=0, max_rounds=MAX_JESP_ROUNDS,
                pi_rounds=MAX_PI_ROUNDS, start_state=0):
    """``jesp`` of one model as a search for ``lockstep``: it yields its
    solver requests and returns the report, the restarts run in turn."""
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
            report = yield from _jesp_once(model, start, epsilon, step_schedule, max_rounds,
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
