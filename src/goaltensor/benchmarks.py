"""Comparison sampling policies and their exact long-run evaluation.

Every baseline pairs a sampling rule with a fixed decision policy (the greedy
one unless overridden), mirroring the separate-design approach where the
sampler optimizes its own metric and the actuator is tuned independently.

State-feedback rules (mismatch-triggered, squared-error-optimal) are plain
sampling policies on the global state.  The change-triggered rule is evaluated
on a small chain augmented with the previous source state, the periodic and
age-threshold rules on the chain of the global states at which each period or
delivery cycle starts.  Every long-run law comes from ``solvers.chain_law``.

``FAMILIES`` is the one table of baseline families: per family, its
simulation rule, exact evaluator, sweep grid and ``--param`` meaning, read by
``simulate``, ``sweep`` and ``compare`` alike.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergenceError, ParameterError
from .model import DecisionRows, DecPomdpModel
from .solvers import (MAX_PI_ROUNDS, POISSON_TOL, _solve_mdp, chain_law, flatten_sampling,
                      sampling_from_flat)
from .tensor import DecisionPolicy, SamplingPolicy

DEFAULT_AGE_CAP = 50


@dataclass(frozen=True)
class CostSummary:
    """Exact long-run cost of a policy pair, with its component split.

    ``inherent`` is the post-actuation residual (the ramp term), ``actuation``
    the weighted expenditure, ``sampling`` the transmission charge; the three
    sum to ``average_cost``.
    """

    average_cost: float
    sampling_rate: float
    inherent: float
    actuation: float
    sampling: float

    @property
    def decomposition(self):
        return {"sampling": self.sampling, "actuation": self.actuation,
                "inherent": self.inherent}


# ---------------------------------------------------------------------------
# simulation-facing rules


def _whole(name, value, least):
    """The one check of a family parameter, shared by its rule and its evaluator."""
    if not value >= least or value % 1:
        kind = "positive" if least else "nonnegative"
        raise ParameterError(f"{name} must be a {kind} integer, got {value}")
    return int(value)


class Rule:
    """A sampling rule, in one form per simulator; both take the same decisions.

    ``harness.simulate_closed_loop`` calls ``reset(x, xhat, phi)``, then per
    slot ``t`` ``decide(t, x, xhat, phi)``, the transmission bit, and
    ``notify(x, xhat, phi, sampled, delivered)``.  ``harness.simulate_replicas`` runs ``copies``
    replicas of each of ``rules`` (one class) through the nested ``Replicas(rules,
    model, state_of, copies)``: replica ``r`` follows ``rules[r // copies]`` from
    state code ``q``, global state ``state_of[q]``; ``start(t0, sent)`` opens a
    chunk of slots (``sent``: a row of bits per slot), and slot ``t0 + k`` calls
    ``decide(k, q, out)``, which writes the bits, then ``notify(k, delivered)``.
    A form that overrides neither ``decide`` nor ``notify`` fixes every send
    of the chunk in ``start``, and the batch reads the chunk's channel draws
    at once.
    """

    def reset(self, x, xhat, phi):
        pass

    def notify(self, x, xhat, phi, sampled, delivered):
        pass


class ReplicaForm:
    """Base of the replica forms (see ``Rule``); unneeded hooks do nothing."""

    def start(self, t0, sent):
        pass

    def decide(self, k, q, out):
        pass

    def notify(self, k, delivered):
        pass


class UniformRule(Rule):
    """Transmit every ``period`` slots, starting at slot 0."""

    def __init__(self, period):
        self.period = _whole("period", period, 1)

    label = property(lambda self: f"uniform({self.period})")

    def decide(self, t, x, xhat, phi):
        return 1 if t % self.period == 0 else 0

    class Replicas(ReplicaForm):
        def __init__(self, rules, model, state_of, copies):
            self.periods = np.repeat([rule.period for rule in rules], copies)

        def start(self, t0, sent):
            sent[:] = np.arange(t0, t0 + len(sent))[:, None] % self.periods == 0


class AgeThresholdRule(Rule):
    """Transmit whenever the age of the freshest delivered update exceeds the threshold.

    Age starts at 1 and resets to 1 on the slot after a delivery.
    """

    def __init__(self, threshold):
        self.threshold = _whole("threshold", threshold, 0)
        self.age = 1

    label = property(lambda self: f"age({self.threshold})")

    def reset(self, x, xhat, phi):
        self.age = 1

    def decide(self, t, x, xhat, phi):
        return 1 if self.age > self.threshold else 0

    def notify(self, x, xhat, phi, sampled, delivered):
        self.age = 1 if delivered else self.age + 1

    class Replicas(ReplicaForm):
        # slot t's age is t - last, so a replica transmits while last < t - threshold
        def __init__(self, rules, model, state_of, copies):
            self.thresholds = np.repeat([rule.threshold for rule in rules], copies)
            self.last = np.full(self.thresholds.size, -1)     # slot of the last delivery

        def start(self, t0, sent):
            self.t0 = t0
            self.due = np.arange(t0, t0 + len(sent))[:, None] - self.thresholds

        def decide(self, k, q, out):
            np.less(self.last, self.due[k], out=out)

        def notify(self, k, delivered):
            np.copyto(self.last, self.t0 + k, where=delivered)


class ChangeAwareRule(Rule):
    """Transmit whenever the source differs from its previous-slot value.

    The first slot has no history and stays idle.
    """

    label = "change-aware"
    prev = None                 # the previous slot's source; none before the first

    def reset(self, x, xhat, phi):
        self.prev = None

    def decide(self, t, x, xhat, phi):
        return 0 if self.prev is None else int(x != self.prev)

    def notify(self, x, xhat, phi, sampled, delivered):
        self.prev = x

    class Replicas(ReplicaForm):
        def __init__(self, rules, model, state_of, copies):
            self.x_of = model.state_components()[0][state_of]
            self.prev = None

        def decide(self, k, q, out):
            x = self.x_of[q]
            np.not_equal(x, x if self.prev is None else self.prev, out=out)
            self.prev = x


class StatePolicyRule(Rule):
    """Adapter running a global-state sampling policy inside the simulator."""

    def __init__(self, policy: SamplingPolicy, label="state-policy"):
        self.policy = policy
        self.label = label
        self.table = policy.decisions.tolist()      # list lookups beat numpy scalars

    def decide(self, t, x, xhat, phi):
        return self.table[x][xhat][phi]

    class Replicas(ReplicaForm):
        # one table of every rule's bit by state code; replica r reads row r // copies
        def __init__(self, rules, model, state_of, copies):
            table = np.stack([r.policy.decisions[model.state_components()] != 0 for r in rules])
            self.table = table[:, state_of].ravel()
            self.base = np.repeat(np.arange(len(rules)) * state_of.size, copies)

        def decide(self, k, q, out):
            out[:] = self.table[self.base + q]


def aoii_optimal_policy(model: DecPomdpModel) -> SamplingPolicy:
    """Transmit exactly when source and estimate disagree.

    This is simultaneously the mismatch-age-optimal and changed-content-age-
    optimal rule: the estimate equals the last delivered state, so "source
    differs from last delivery" and "source differs from estimate" coincide.
    """
    return SamplingPolicy.on_mismatch(model.alphabets)


def mse_optimal_policy(model: DecPomdpModel, decision: DecisionPolicy = None,
                       state_values=None, epsilon=1e-6) -> SamplingPolicy:
    """Sampling policy minimizing long-run squared estimation error plus sampling cost.

    Solved by multichain policy iteration (``solvers._solve_mdp``) on the
    sampler MDP induced by the (greedy by default) decision policy, with the
    squared-error reward in place of the goal cost.
    """
    from .model import induced_mdp
    from .solvers import greedy_decision_policy
    if decision is None:
        decision = greedy_decision_policy(model)
    if state_values is None:
        state_values = np.arange(model.alphabets.n_states, dtype=float)
    else:
        state_values = np.asarray(state_values, dtype=float)
    mdp = induced_mdp(model, decision)
    xs, xhats, _ = model.state_components()
    sq_err = (state_values[xs] - state_values[xhats]) ** 2
    rewards = -np.stack([sq_err, sq_err + model.cost.sampling_cost], axis=1)
    policy, _, _ = _solve_mdp(replace(mdp, rewards=rewards), epsilon, MAX_PI_ROUNDS,
                              "squared-error sampler MDP")
    return sampling_from_flat(policy, model)


# ---------------------------------------------------------------------------
# exact evaluation


def _summarize(rows: DecisionRows, mu_states, rate):
    inherent = float(mu_states @ rows.ramp)
    actuation = float(mu_states @ rows.spend)
    sampling = float(rows.model.cost.sampling_cost * rate)
    return CostSummary(average_cost=inherent + actuation + sampling,
                       sampling_rate=float(rate), inherent=inherent,
                       actuation=actuation, sampling=sampling)


def evaluate_state_policy(model: DecPomdpModel, sampling: SamplingPolicy,
                          decision: DecisionPolicy, start_state=0) -> CostSummary:
    """Exact long-run cost of a (sampling policy, decision policy) pair."""
    rows = DecisionRows(model, decision.actions)
    bits = flatten_sampling(sampling)
    idle, transmit = rows.kernels
    mu = chain_law(np.where(bits[:, None], transmit, idle), start_state)
    return _summarize(rows, mu, float(mu @ bits))


def evaluate_uniform(model: DecPomdpModel, period, decision: DecisionPolicy,
                     start_state=0) -> CostSummary:
    """Exact long-run cost of periodic transmission, from its one-period map.

    Transmitting at slot 0 and every ``period`` slots after it makes the state
    at the start of each period a Markov chain of its own, with kernel
    ``M = transmit @ idle^(period - 1)``.  Every closed class of the
    phase-augmented chain passes through phase 0, so the classes of that
    chain and of ``M`` match one for one: ``law = chain_law(M)`` and phase
    ``j`` of the period holds ``law @ transmit @ idle^(j - 1)`` (``law``
    itself at ``j = 0``), each phase a ``1 / period`` share of time.
    This costs ``period`` products of N x N matrices in place of a solve on
    the (N * period)-state augmented chain.
    """
    period = _whole("period", period, 1)
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
    p = model.channel.success_prob
    transmit = p * success + (1.0 - p) * idle
    one_period = transmit
    for _ in range(period - 1):
        one_period = one_period @ idle
    law = chain_law(one_period, start_state)         # start at phase 0
    phase_law = law
    mu_states = law.copy()
    for phase in range(1, period):
        phase_law = phase_law @ (transmit if phase == 1 else idle)
        mu_states += phase_law
    return _summarize(rows, mu_states / period, 1.0 / period)


def evaluate_change_aware(model: DecPomdpModel, decision: DecisionPolicy,
                          start_state=0) -> CostSummary:
    """Exact long-run cost of change-triggered transmission.

    The chain is augmented with the previous source state; the rule transmits
    whenever the current source differs from it.
    """
    N = model.n_global_states
    n = model.alphabets.n_states
    xs, _, _ = model.state_components()
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
    p = model.channel.success_prob
    transmit = p * success + (1.0 - p) * idle
    big = np.zeros((n, N, n, N))
    for prev in range(n):
        # the history coordinate becomes the current source state
        big[prev, np.arange(N), xs] = np.where((xs != prev)[:, None], transmit, idle)
    big = big.reshape(n * N, n * N)
    # seeding the history with the initial source makes the first slot idle
    start_index = int(xs[start_state]) * N + start_state
    mu = chain_law(big, start_index)
    mu_mat = mu.reshape(n, N)
    mu_states = mu_mat.sum(axis=0)
    moved_mass = sum(float(mu_mat[prev][xs != prev].sum()) for prev in range(n))
    return _summarize(rows, mu_states, moved_mass)


def evaluate_age_threshold(model: DecPomdpModel, threshold, decision: DecisionPolicy,
                           start_state=0) -> CostSummary:
    """Exact long-run cost of age-triggered transmission, between deliveries.

    Age starts at 1 and resets to 1 on the slot after a delivery, so a cycle
    is ``threshold`` idle slots, then transmissions until one succeeds.  The
    cycle-start states form a chain with kernel ``M = idle^threshold @ wait @
    p * success``, where ``wait = (I - (1 - p) * idle)^-1``.  A cycle lasts
    ``threshold + 1/p`` slots from every state, 1/p of them transmitting, so
    the time law is ``chain_law(M) @ (sum_{j < threshold} idle^j +
    idle^threshold @ wait) / (threshold + 1/p)``, class by class when ``M``
    is multichain, and the rate is ``1 / (1 + p * threshold)``.  At p = 0 the
    chain idles from the start state and transmits at rate 1.  The solve for
    ``wait`` is certified: each row of ``p * wait`` must sum to 1 within
    ``POISSON_TOL``, else (near p = 0, where the solve loses its accuracy)
    ``NonConvergenceError`` carries the residual.
    """
    threshold = _whole("threshold", threshold, 0)
    rows = DecisionRows(model, decision.actions)
    idle, success = rows.kernels[0], rows.success
    p = model.channel.success_prob
    if p == 0.0:
        return _summarize(rows, chain_law(idle, start_state), 1.0)
    eye = np.eye(model.n_global_states)
    try:
        wait = np.linalg.inv(eye - (1.0 - p) * idle)
        # a run of transmissions ends in a delivery, so each row of p * wait
        # sums to 1; near p = 0 the solve loses that, and every digit with it
        residual = float(np.abs((p * wait).sum(axis=1) - 1.0).max())
    except np.linalg.LinAlgError:
        residual = float("inf")             # singular
    if not residual <= POISSON_TOL:
        raise NonConvergenceError(
            f"age-threshold waiting rows at success probability {p!r} sum to 1 "
            f"within {residual:.3e}, not {POISSON_TOL:g}", residual=residual)
    visits = np.zeros_like(idle)
    power = eye
    for _ in range(threshold):
        visits += power
        power = power @ idle
    tail = power @ wait
    visits += tail
    law = chain_law(tail @ (p * success), start_state)
    return _summarize(rows, law @ visits / (threshold + 1.0 / p),
                      1.0 / (1.0 + p * threshold))


def tune_age_threshold(model: DecPomdpModel, decision: DecisionPolicy,
                       max_threshold=DEFAULT_AGE_CAP, start_state=0):
    """Sweep integer thresholds and return (best threshold, per-threshold summaries).

    Ties prefer the smaller threshold.  If the minimum sits on the sweep
    boundary a warning is emitted and the boundary returned.
    """
    curve = []
    for delta in range(max_threshold + 1):
        curve.append((delta, evaluate_age_threshold(model, delta, decision, start_state)))
    costs = [summary.average_cost for _, summary in curve]
    best = int(np.argmin(costs))
    if best == max_threshold:
        warnings.warn(f"age-threshold sweep hit its boundary {max_threshold} without an "
                      f"interior minimum", stacklevel=2)
    return curve[best][0], curve


# ---------------------------------------------------------------------------
# the baseline families


@dataclass(frozen=True)
class Family:
    """One baseline sampling family, as ``simulate``, ``sweep`` and ``compare`` use it.

    ``rule(model, param, decision, state_values)`` builds its simulation rule
    and ``evaluate(model, param, decision, start_state, state_values)`` its
    exact cost.  ``grid(sweep)`` lists the parameters ``sweep`` runs from the
    scenario's sweep section (None: ``sweep`` does not run the family).
    ``param`` names what ``simulate --param`` sets and ``default`` its value
    when the flag is absent (None: the family takes no parameter).
    ``baseline`` names the family's ``compare.csv`` row, its best cost over its
    grid (None: no row); a ``classic`` row appears only with
    ``--include-classic``.
    """

    rule: Callable
    evaluate: Callable
    grid: Callable = None
    param: str = None
    default: int = None
    baseline: str = None
    classic: bool = False


# Table order is the order of the baseline rows in ``compare.csv``.  The entries
# look the evaluators up by name at call time, so a wrapper bound over a module
# attribute (a tracer, a test spy) sees every call.
FAMILIES = {
    "aoii": Family(
        rule=lambda model, _, decision, values: StatePolicyRule(
            aoii_optimal_policy(model), label="aoii-optimal"),
        evaluate=lambda model, _, decision, start, values: evaluate_state_policy(
            model, aoii_optimal_policy(model), decision, start),
        grid=lambda sweep: [None], baseline="aoii-optimal"),
    "mse": Family(
        rule=lambda model, _, decision, values: StatePolicyRule(
            mse_optimal_policy(model, decision, values), label="mse-optimal"),
        evaluate=lambda model, _, decision, start, values: evaluate_state_policy(
            model, mse_optimal_policy(model, decision, values), decision, start),
        baseline="mse-optimal"),
    "uniform": Family(
        rule=lambda model, period, decision, values: UniformRule(period),
        evaluate=lambda model, period, decision, start, values: evaluate_uniform(
            model, period, decision, start),
        grid=lambda sweep: list(sweep.uniform_periods), param="period", default=1,
        baseline="uniform-best", classic=True),
    "change": Family(
        rule=lambda model, _, decision, values: ChangeAwareRule(),
        evaluate=lambda model, _, decision, start, values: evaluate_change_aware(
            model, decision, start),
        grid=lambda sweep: [None], baseline="change-aware", classic=True),
    "age": Family(
        rule=lambda model, threshold, decision, values: AgeThresholdRule(threshold),
        evaluate=lambda model, threshold, decision, start, values: evaluate_age_threshold(
            model, threshold, decision, start),
        grid=lambda sweep: list(range(sweep.age_threshold_max + 1)), param="threshold",
        default=0),
}
