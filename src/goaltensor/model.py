"""Two-agent sampling/actuation model over a controlled Markov source.

Global state is the triple ``(x, xhat, phi)``: true semantic state, receiver
estimate, and context.  Flat state indices are fixed as

    index(x, xhat, phi) = x + n_states * xhat + n_states**2 * phi

with ``x`` fastest-varying, so value tables and CSV output are comparable
across runs.

The one-slot transition factorizes: the source row depends on (x, phi,
actuation), the context row on phi alone, and the estimate coordinate moves
only when a transmission is attempted and the channel succeeds, jumping to the
transmitted ``x``.  The sampler observes the full global state; the actuator
observes only ``xhat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import MemoryBudgetError, ModelIncompleteError
from .tensor import (Alphabets, CostModel, DecisionPolicy, SamplingPolicy,
                     split_goal_cost, validate_cost_model)

ROW_SUM_TOL = 1e-9
MAX_KERNEL_BYTES = 2 ** 28      # largest stack of dense N x N kernels built at once (256 MiB)


class GlobalState(NamedTuple):
    x: int
    xhat: int
    phi: int


class JointAction(NamedTuple):
    sample: int     # 0 = idle, 1 = sample and transmit
    actuate: int    # actuation index


def _check_rows(probs, name):
    if np.any(probs < 0) or np.any(probs > 1):
        bad = np.argwhere((probs < 0) | (probs > 1))[0]
        raise ModelIncompleteError(f"{name}{list(map(int, bad))} outside [0, 1]")
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if np.any(off > ROW_SUM_TOL):
        bad = np.unravel_index(int(np.argmax(off)), off.shape) if off.ndim else ()
        raise ModelIncompleteError(
            f"{name} row {list(map(int, bad))} sums to {float(sums[bad]):.12g}, "
            f"not 1 within {ROW_SUM_TOL:g}")


@dataclass(frozen=True)
class SourceDynamics:
    """``probs[i, k, m, u]`` = Pr(next state u | state i, context k, actuation m)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 4 or self.probs.shape[0] != self.probs.shape[3]:
            raise ModelIncompleteError(
                "source dynamics must have shape (states, contexts, actions, states)")
        _check_rows(self.probs, "source_dynamics")


@dataclass(frozen=True)
class ContextDynamics:
    """``probs[k, r]`` = Pr(next context r | context k)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 2 or self.probs.shape[0] != self.probs.shape[1]:
            raise ModelIncompleteError("context dynamics must be a square matrix")
        _check_rows(self.probs, "context_dynamics")

    def stationary(self):
        """Long-run context weights (unique when the context chain is unichain)."""
        from .solvers import stationary_distribution
        return stationary_distribution(self.probs)


@dataclass(frozen=True)
class ChannelModel:
    """I.i.d. Bernoulli erasure channel; ``success_prob`` per attempted transmission."""

    success_prob: float

    def __post_init__(self):
        if not 0.0 <= self.success_prob <= 1.0:
            raise ModelIncompleteError(f"success_prob {self.success_prob} outside [0, 1]")


@dataclass(frozen=True, eq=False)          # models compare and hash by identity
class DecPomdpModel:
    alphabets: Alphabets
    source: SourceDynamics
    context: ContextDynamics
    channel: ChannelModel
    cost: CostModel
    action_cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, v, a = self.alphabets.n_states, self.alphabets.n_contexts, self.alphabets.n_actions
        if self.source.probs.shape != (n, v, a, n):
            raise ModelIncompleteError(
                f"source dynamics shape {self.source.probs.shape} does not match alphabets {(n, v, a, n)}")
        if self.context.probs.shape != (v, v):
            raise ModelIncompleteError("context dynamics shape does not match alphabets")
        problems = [viol for viol in validate_cost_model(self.cost, self.alphabets)
                    if viol.level == "error"]
        if problems:
            raise ModelIncompleteError("; ".join(f"{p.field}: {p.message}" for p in problems))
        ramp, spend = split_goal_cost(self.cost)
        object.__setattr__(self, "action_cost", ramp + spend)

    @cached_property
    def kernels(self) -> np.ndarray:
        """``dense_kernels(self)``, shape (2, n_actions, N, N), built on first use and
        shared read-only; a ``dataclasses.replace`` copy starts without it."""
        kernels = dense_kernels(self)
        kernels.flags.writeable = False
        return kernels

    @cached_property
    def delivered_kernels(self) -> np.ndarray:
        """``success_kernels(self)``, shape (n_actions, N, N), kept as ``kernels`` is."""
        kernels = success_kernels(self)
        kernels.flags.writeable = False
        return kernels

    @property
    def n_global_states(self):
        return self.alphabets.n_states ** 2 * self.alphabets.n_contexts

    def state_index(self, x, xhat, phi):
        n = self.alphabets.n_states
        return x + n * xhat + n * n * phi

    def state_of(self, index):
        n = self.alphabets.n_states
        return GlobalState(index % n, (index // n) % n, index // (n * n))

    def state_components(self):
        """Arrays (x, xhat, phi), one entry per flat state index."""
        idx = np.arange(self.n_global_states)
        n = self.alphabets.n_states
        return idx % n, (idx // n) % n, idx // (n * n)

    def states(self):
        return [self.state_of(i) for i in range(self.n_global_states)]


def estimate_kernel(x, xhat, sample, channel: ChannelModel, n_states) -> np.ndarray:
    """Distribution of the next estimate given the sampling action.

    Idle keeps the estimate; an attempted transmission lands the current state
    with the channel success probability and otherwise keeps the estimate.
    """
    row = np.zeros(n_states)
    if sample:
        row[x] += channel.success_prob
        row[xhat] += 1.0 - channel.success_prob
    else:
        row[xhat] = 1.0
    return row


def transition_kernel(model: DecPomdpModel, w: GlobalState, action: JointAction) -> np.ndarray:
    """One row of the global transition function, flat-indexed over next states."""
    x, xhat, phi = w
    n = model.alphabets.n_states
    src = model.source.probs[x, phi, action.actuate]
    ctx = model.context.probs[phi]
    est = estimate_kernel(x, xhat, action.sample, model.channel, n)
    return np.einsum("u,e,r->reu", src, est, ctx).reshape(model.n_global_states)


def check_kernel_bytes(alphabets: Alphabets, count, what):
    """Refuse ``count`` (idle, transmit) pairs of dense N x N float kernels, ``what``
    in the message, when they exceed ``MAX_KERNEL_BYTES``; call before allocating.
    Returns how many such pairs fit in the limit."""
    n_global = alphabets.n_states ** 2 * alphabets.n_contexts
    pair = 2 * n_global ** 2 * 8
    if count * pair > MAX_KERNEL_BYTES:
        raise MemoryBudgetError(
            f"{alphabets.n_states} states x {alphabets.n_contexts} contexts x "
            f"{alphabets.n_actions} actions (N = {n_global} global states): {what} "
            f"need {count * pair:,} bytes, over the {MAX_KERNEL_BYTES:,}-byte limit")
    return MAX_KERNEL_BYTES // pair


def dense_kernels(model: DecPomdpModel) -> np.ndarray:
    """All transition rows at once: shape (2, n_actions, N, N), first axis the sampling bit."""
    check_kernel_bytes(model.alphabets, model.alphabets.n_actions, "the dense kernels")
    n = model.alphabets.n_states
    eye = np.eye(n)
    p = model.channel.success_prob
    est = np.stack([
        np.broadcast_to(eye[None, :, :], (n, n, n)),            # idle: estimate frozen
        p * eye[:, None, :] + (1.0 - p) * eye[None, :, :],      # transmit: success lands x
    ])
    big = np.einsum("xpmu,sxhe,pr->smphxreu", model.source.probs, est, model.context.probs)
    N = model.n_global_states
    return big.reshape(2, model.alphabets.n_actions, N, N)


def success_kernels(model: DecPomdpModel) -> np.ndarray:
    """Transition rows conditioned on a delivered update: shape (n_actions, N, N).

    The estimate jumps to the transmitted state with certainty; source and
    context move as usual.  The unconditioned transmit kernel is the
    success-probability mixture of this and the idle kernel.
    """
    n = model.alphabets.n_states
    eye = np.eye(n)
    est = np.broadcast_to(eye[:, None, :], (n, n, n))
    big = np.einsum("xpmu,xhe,pr->mphxreu", model.source.probs, est, model.context.probs)
    N = model.n_global_states
    return big.reshape(model.alphabets.n_actions, N, N)


class DecisionRows:
    """What decision tables read from the model at every global state.

    ``decisions`` has shape (..., n_states), one actuation per estimate, with
    optional leading batch axes that every attribute keeps.  Per global state:

    * ``actions``, the actuation at the state's estimate;
    * the slot terms: ``ramp`` and ``spend`` the clipped ramp and weighted
      expenditure (``tensor.split_goal_cost``), ``got`` their sum, and
      ``rewards`` (..., N, 2) the negated cost of idling and of transmitting;
    * gathered on first read: ``kernels`` (..., 2, N, N) by sampling bit,
      ``success`` (..., N, N) after a delivered update, and ``source``
      (..., N, n_states) the source row at (x, phi, actuation).
    """

    def __init__(self, model: DecPomdpModel, decisions):
        xs, xhats, phis = model.state_components()
        ramp, spend = split_goal_cost(model.cost)
        self.model = model
        self.actions = np.asarray(decisions)[..., xhats]
        self.ramp = ramp[xs, phis, self.actions]
        self.spend = spend[self.actions]
        self.got = self.ramp + self.spend

    @property
    def rewards(self) -> np.ndarray:
        return -np.stack([self.got, self.got + self.model.cost.sampling_cost], axis=-1)

    @cached_property
    def kernels(self) -> np.ndarray:
        rows = np.arange(self.model.n_global_states)
        # (bit, actuation, state) indices broadcast to (..., 2, N): one C-ordered gather
        return self.model.kernels[np.arange(2)[:, None], self.actions[..., None, :], rows]

    @cached_property
    def success(self) -> np.ndarray:
        rows = np.arange(self.model.n_global_states)
        return self.model.delivered_kernels[self.actions, rows, :]

    @cached_property
    def source(self) -> np.ndarray:
        xs, _, phis = self.model.state_components()
        return self.model.source.probs[xs, phis, self.actions]


def observation_fn(w: GlobalState):
    """Point-mass observations: the sampler sees everything, the actuator sees the estimate."""
    return w, w.xhat


def reward(model: DecPomdpModel, w: GlobalState, action: JointAction,
           policy: DecisionPolicy) -> float:
    """Negated goal cost of the slot, minus the sampling charge when transmitting."""
    x, xhat, phi = w
    cost = model.action_cost[x, phi, policy(xhat)]
    return -(cost + model.cost.sampling_cost * action.sample)


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP in tables: ``transitions[a, s, s']`` and ``rewards[s, a]``."""

    transitions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        _check_rows(self.transitions, "mdp_transitions")
        n_actions, n_states, _ = self.transitions.shape
        if self.rewards.shape != (n_states, n_actions):
            raise ModelIncompleteError(
                f"rewards shape {self.rewards.shape}, expected {(n_states, n_actions)}")

    @property
    def n_states(self):
        return self.transitions.shape[1]

    @property
    def n_actions(self):
        return self.transitions.shape[0]


def induced_mdp(model: DecPomdpModel, policy: DecisionPolicy) -> TabularMdp:
    """Sampler-side MDP obtained by fixing the decision policy.

    The actuator's observation is a point mass at the estimate, so the
    observation average collapses and each row is the global kernel evaluated
    at the actuation the policy assigns to that state's estimate.
    """
    rows = DecisionRows(model, policy.actions)
    return TabularMdp(transitions=rows.kernels, rewards=rows.rewards)


def induced_pomdp(model: DecPomdpModel, sampling: SamplingPolicy) -> TabularMdp:
    """Actuator-side model obtained by fixing the sampling policy.

    States remain global; the actuator only ever observes the estimate, so this
    is solved as a memoryless partially-observed problem, not by state lookup.
    """
    xs, xhats, phis = model.state_components()
    bits = sampling.decisions[xs, xhats, phis]
    rows = np.arange(model.n_global_states)
    transitions = np.swapaxes(model.kernels[bits, :, rows, :], 0, 1)   # (A, N, N)
    rewards = -(model.action_cost[xs, phis, :] +
                model.cost.sampling_cost * bits[:, None])        # (N, A)
    return TabularMdp(transitions=transitions, rewards=rewards)


def heuristic_mdp(model: DecPomdpModel) -> TabularMdp:
    """Fully-observed actuation MDP over (state, context) pairs.

    Assumes a perfect estimate (cost evaluated at estimate == state) and no
    sampling charge; used to seed the decision policy before alternating
    best-response search.  Flat index is ``x + n_states * phi``.
    """
    n, v = model.alphabets.n_states, model.alphabets.n_contexts
    a = model.alphabets.n_actions
    transitions = np.einsum("xpau,pr->apxru", model.source.probs,
                            model.context.probs).reshape(a, n * v, n * v)
    rewards = -model.action_cost.transpose(1, 0, 2).reshape(n * v, a)
    return TabularMdp(transitions=transitions, rewards=rewards)
