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

from .errors import ParameterError
from .model import DecPomdpModel, dense_kernels, success_kernels
from .solvers import MAX_PI_ROUNDS, _solve_mdp, chain_law, sampling_from_flat
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


class UniformRule:
    """Transmit every ``period`` slots, starting at slot 0."""

    def __init__(self, period):
        if not period >= 1 or period % 1:
            raise ParameterError(f"period must be a positive integer, got {period}")
        self.period = int(period)

    label = property(lambda self: f"uniform({self.period})")

    def reset(self, x, xhat, phi):
        pass

    def decide(self, t, x, xhat, phi):
        return 1 if t % self.period == 0 else 0

    def notify(self, x, xhat, phi, sampled, delivered):
        pass


class AgeThresholdRule:
    """Transmit whenever the age of the freshest delivered update exceeds the threshold.

    Age starts at 1 and resets to 1 on the slot after a delivery.
    """

    def __init__(self, threshold):
        if not threshold >= 0 or threshold % 1:
            raise ParameterError(f"threshold must be a nonnegative integer, got {threshold}")
        self.threshold = int(threshold)
        self.age = 1

    label = property(lambda self: f"age({self.threshold})")

    def reset(self, x, xhat, phi):
        self.age = 1

    def decide(self, t, x, xhat, phi):
        return 1 if self.age > self.threshold else 0

    def notify(self, x, xhat, phi, sampled, delivered):
        self.age = 1 if delivered else self.age + 1


class ChangeAwareRule:
    """Transmit whenever the source differs from its previous-slot value.

    The first slot has no history and stays idle.
    """

    label = "change-aware"

    def __init__(self):
        self.prev = None

    def reset(self, x, xhat, phi):
        self.prev = None

    def decide(self, t, x, xhat, phi):
        return 0 if self.prev is None else int(x != self.prev)

    def notify(self, x, xhat, phi, sampled, delivered):
        self.prev = x


class StatePolicyRule:
    """Adapter running a global-state sampling policy inside the simulator."""

    def __init__(self, policy: SamplingPolicy, label="state-policy"):
        self.policy = policy
        self.label = label

    def reset(self, x, xhat, phi):
        pass

    def decide(self, t, x, xhat, phi):
        return int(self.policy.decisions[x, xhat, phi])

    def notify(self, x, xhat, phi, sampled, delivered):
        pass


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
    policy, _, _ = _solve_mdp(replace(mdp, rewards=rewards), epsilon, MAX_PI_ROUNDS)
    return sampling_from_flat(policy, model)


# ---------------------------------------------------------------------------
# exact evaluation


def _cost_pieces(model: DecPomdpModel, decision: DecisionPolicy):
    """Per-global-state ramp and expenditure terms under a decision policy."""
    xs, xhats, phis = model.state_components()
    acts = decision.actions[xhats]
    inherent = model.cost.inherent.T[xs, phis]
    net = inherent - model.cost.gain_weight * model.cost.gain[acts]
    ramp = np.maximum(net, 0.0)
    spend = model.cost.expenditure_weight * model.cost.expenditure[acts]
    return ramp, spend


def _summarize(model, mu_states, rate, ramp, spend):
    inherent = float(mu_states @ ramp)
    actuation = float(mu_states @ spend)
    sampling = float(model.cost.sampling_cost * rate)
    return CostSummary(average_cost=inherent + actuation + sampling,
                       sampling_rate=float(rate), inherent=inherent,
                       actuation=actuation, sampling=sampling)


def evaluate_state_policy(model: DecPomdpModel, sampling: SamplingPolicy,
                          decision: DecisionPolicy, start_state=0) -> CostSummary:
    """Exact long-run cost of a (sampling policy, decision policy) pair."""
    from .solvers import flatten_sampling, policy_chain
    P, _ = policy_chain(model, sampling, decision)
    mu = chain_law(P, start_state)
    bits = flatten_sampling(sampling)
    ramp, spend = _cost_pieces(model, decision)
    return _summarize(model, mu, float(mu @ bits), ramp, spend)


def _gathered_kernels(model, decision):
    """Idle and delivered kernels with the actuation fixed by the decision policy."""
    _, xhats, _ = model.state_components()
    acts = decision.actions[xhats]
    rows = np.arange(model.n_global_states)
    idle = dense_kernels(model)[0, acts, rows, :]
    success = success_kernels(model)[acts, rows, :]
    return idle, success


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
    if period < 1 or int(period) != period:
        raise ParameterError(f"period must be a positive integer, got {period}")
    period = int(period)
    idle, success = _gathered_kernels(model, decision)
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
    ramp, spend = _cost_pieces(model, decision)
    return _summarize(model, mu_states / period, 1.0 / period, ramp, spend)


def evaluate_change_aware(model: DecPomdpModel, decision: DecisionPolicy,
                          start_state=0) -> CostSummary:
    """Exact long-run cost of change-triggered transmission.

    The chain is augmented with the previous source state; the rule transmits
    whenever the current source differs from it.
    """
    N = model.n_global_states
    n = model.alphabets.n_states
    xs, _, _ = model.state_components()
    idle, success = _gathered_kernels(model, decision)
    p = model.channel.success_prob
    transmit = p * success + (1.0 - p) * idle
    big = np.zeros((N * n, N * n))
    for prev in range(n):
        rows_block = np.where((xs != prev)[:, None], transmit, idle)
        block = np.zeros((N, N * n))
        for w in range(N):
            # the history coordinate becomes the current source state
            block[w, xs[w] * N:(xs[w] + 1) * N] = rows_block[w]
        big[prev * N:(prev + 1) * N, :] = block
    # seeding the history with the initial source makes the first slot idle
    start_index = int(xs[start_state]) * N + start_state
    mu = chain_law(big, start_index)
    mu_mat = mu.reshape(n, N)
    mu_states = mu_mat.sum(axis=0)
    moved_mass = sum(float(mu_mat[prev][xs != prev].sum()) for prev in range(n))
    ramp, spend = _cost_pieces(model, decision)
    return _summarize(model, mu_states, moved_mass, ramp, spend)


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
    chain idles from the start state and transmits at rate 1.
    """
    if threshold < 0 or int(threshold) != threshold:
        raise ParameterError(f"threshold must be a nonnegative integer, got {threshold}")
    threshold = int(threshold)
    idle, success = _gathered_kernels(model, decision)
    p = model.channel.success_prob
    ramp, spend = _cost_pieces(model, decision)
    if p == 0.0:
        return _summarize(model, chain_law(idle, start_state), 1.0, ramp, spend)
    eye = np.eye(model.n_global_states)
    visits = np.zeros_like(idle)
    power = eye
    for _ in range(threshold):
        visits += power
        power = power @ idle
    tail = power @ np.linalg.inv(eye - (1.0 - p) * idle)
    visits += tail
    law = chain_law(tail @ (p * success), start_state)
    return _summarize(model, law @ visits / (threshold + 1.0 / p),
                      1.0 / (1.0 + p * threshold), ramp, spend)


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
