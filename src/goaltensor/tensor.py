"""Goal cost tensor: alphabets, cost model, and degenerations to classic age metrics.

The central object is a dense 3-D cost table indexed ``(state, context,
estimate)``.  Given a deterministic decision policy ``pi`` mapping estimates to
actuation levels, each entry is

    max(inherent[context, state] - gain_weight * gain[pi(estimate)], 0)
      + expenditure_weight * expenditure[pi(estimate)]

i.e. actuation can cancel the inherent cost of a (state, context) pair down to
zero, never below, and always bills its own resource expenditure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelIncompleteError, ParameterError


@dataclass(frozen=True)
class Alphabets:
    """Sizes of the three index sets: semantic states, contexts, actuation levels.

    All indices are dense and 0-based: states ``0..n_states-1``, contexts
    ``0..n_contexts-1``, actuations ``0..n_actions-1``.
    """

    n_states: int
    n_contexts: int
    n_actions: int

    def __post_init__(self):
        if self.n_states < 2:
            raise ModelIncompleteError("need at least 2 semantic states")
        if self.n_contexts < 1:
            raise ModelIncompleteError("need at least 1 context state")
        if self.n_actions < 1:
            raise ModelIncompleteError("need at least 1 actuation action")


@dataclass(frozen=True)
class CostModel:
    """Cost tables and weights for the goal cost.

    inherent            shape (n_contexts, n_states); cost of (state, context)
                        with no actuation applied.
    gain                shape (n_actions,); cost reduction bought by an actuation.
    expenditure         shape (n_actions,); resource bill of an actuation.
    gain_weight         scales ``gain`` inside the ramp.
    expenditure_weight  scales ``expenditure`` outside the ramp.
    sampling_cost       per-transmission cost charged to the sampler.
    """

    inherent: np.ndarray
    gain: np.ndarray
    expenditure: np.ndarray
    gain_weight: float = 1.0
    expenditure_weight: float = 1.0
    sampling_cost: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "inherent", np.asarray(self.inherent, dtype=float))
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=float))
        object.__setattr__(self, "expenditure", np.asarray(self.expenditure, dtype=float))
        if self.inherent.ndim != 2:
            raise ModelIncompleteError("inherent cost must be a (contexts x states) table")
        if self.gain.ndim != 1 or self.expenditure.ndim != 1:
            raise ModelIncompleteError("gain and expenditure must be 1-D tables over actions")
        if self.gain.shape != self.expenditure.shape:
            raise ModelIncompleteError("gain and expenditure tables must cover the same actions")


@dataclass(frozen=True)
class DecisionPolicy:
    """Deterministic map from estimate index to actuation index."""

    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actions", np.asarray(self.actions, dtype=int))
        if self.actions.ndim != 1:
            raise ModelIncompleteError("decision policy must be a 1-D table over estimates")
        if np.any(self.actions < 0):
            raise ModelIncompleteError("decision policy contains a negative action index")

    def __call__(self, estimate):
        return int(self.actions[estimate])

    def __len__(self):
        return len(self.actions)


@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic sample/idle map over the global state (state, estimate, context).

    ``decisions[x, xhat, phi]`` is 1 to sample-and-transmit, 0 to stay idle.
    """

    decisions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "decisions", np.asarray(self.decisions, dtype=int))
        if self.decisions.ndim != 3:
            raise ModelIncompleteError("sampling policy must be a 3-D table (state, estimate, context)")
        if self.decisions.shape[0] != self.decisions.shape[1]:
            raise ModelIncompleteError("state and estimate axes must have equal length")
        if not np.isin(self.decisions, (0, 1)).all():
            raise ModelIncompleteError("sampling decisions must be 0 or 1")

    def __call__(self, x, xhat, phi):
        return int(self.decisions[x, xhat, phi])

    @classmethod
    def always(cls, alphabets):
        return cls(np.ones((alphabets.n_states, alphabets.n_states, alphabets.n_contexts), dtype=int))

    @classmethod
    def never(cls, alphabets):
        return cls(np.zeros((alphabets.n_states, alphabets.n_states, alphabets.n_contexts), dtype=int))

    @classmethod
    def on_mismatch(cls, alphabets):
        """Sample exactly when state and estimate disagree."""
        n, v = alphabets.n_states, alphabets.n_contexts
        mismatch = 1 - np.eye(n, dtype=int)
        return cls(np.repeat(mismatch[:, :, None], v, axis=2))


@dataclass(frozen=True)
class GoTensor:
    """Dense goal cost table ``values[state, context, estimate]`` for a fixed decision policy."""

    values: np.ndarray
    decision_policy: DecisionPolicy = field(repr=False)

    @property
    def n_states(self):
        return self.values.shape[0]

    @property
    def n_contexts(self):
        return self.values.shape[1]


def split_goal_cost(cost: CostModel):
    """The goal cost of actuation ``a`` at ``(x, phi)``, before any sampling
    charge, as ``ramp[x, phi, a] + spend[a]``: the clipped ramp, shape
    (n_states, n_contexts, n_actions), and the weighted expenditure."""
    ramp = np.maximum(cost.inherent.T[:, :, None] - cost.gain_weight * cost.gain, 0.0)
    return ramp, cost.expenditure_weight * cost.expenditure


def build_got_tensor(cost: CostModel, policy: DecisionPolicy) -> GoTensor:
    """Evaluate the goal cost for every (state, context, estimate) triple under ``policy``."""
    n_contexts, n_states = cost.inherent.shape
    if len(policy) != n_states:
        raise ModelIncompleteError(
            f"decision policy covers {len(policy)} estimates, cost table has {n_states} states")
    if np.any(policy.actions >= len(cost.gain)):
        raise ModelIncompleteError("decision policy uses an action outside the cost tables")
    ramp, spend = split_goal_cost(cost)                         # (S, V, A), (A,)
    values = (ramp + spend)[:, :, policy.actions]               # (S, V, S)
    return GoTensor(values=values, decision_policy=policy)


def degenerate_tensor(kind: str, *, n_states=None, context_values=None,
                      n_contexts=None, state_values=None, error_matrix=None) -> np.ndarray:
    """Build the tensor-shaped table of a classic metric.

    kind = "aoi"    entries depend only on the context axis, read as a freshness
                    value: ``table[x, k, xhat] = context_values[k]``.
    kind = "aoii"   freshness times the mismatch indicator:
                    ``context_values[k] * (x != xhat)``.
    kind = "mse"    squared estimation error, context ignored:
                    ``(state_values[x] - state_values[xhat])**2``.
    kind = "uoi"    context read as an urgency weight on the squared error:
                    ``context_values[k] * (state_values[x] - state_values[xhat])**2``.
    kind = "coae"   a zero-diagonal actuation-error cost matrix, context ignored:
                    ``error_matrix[x, xhat]``.

    ``state_values`` defaults to the state indices.  Returns a plain array of
    shape (n_states, len(context axis), n_states).
    """
    kind = kind.lower()
    if kind in ("aoi", "aoii", "uoi"):
        if context_values is None:
            raise ParameterError(f"{kind} degeneration needs context_values (freshness/urgency per context)")
        context_values = np.asarray(context_values, dtype=float)
    if kind == "coae":
        error_matrix = np.asarray(error_matrix, dtype=float)
        if error_matrix.ndim != 2 or error_matrix.shape[0] != error_matrix.shape[1]:
            raise ParameterError("actuation-error cost matrix must be square")
        if np.any(np.diagonal(error_matrix) != 0.0):
            raise ParameterError("actuation-error cost matrix must have a zero diagonal")
        n_states = error_matrix.shape[0]
    if n_states is None:
        raise ParameterError("n_states is required")

    if state_values is None:
        state_values = np.arange(n_states, dtype=float)
    else:
        state_values = np.asarray(state_values, dtype=float)
        if state_values.shape != (n_states,):
            raise ParameterError("state_values must assign one number per semantic state")

    mismatch = (np.arange(n_states)[:, None] != np.arange(n_states)[None, :]).astype(float)
    sq_err = (state_values[:, None] - state_values[None, :]) ** 2

    if kind == "aoi":
        return np.broadcast_to(context_values[None, :, None],
                               (n_states, len(context_values), n_states)).copy()
    if kind == "aoii":
        return context_values[None, :, None] * mismatch[:, None, :]
    if kind == "uoi":
        return context_values[None, :, None] * sq_err[:, None, :]
    if kind == "mse":
        k = 1 if n_contexts is None else n_contexts
        return np.broadcast_to(sq_err[:, None, :], (n_states, k, n_states)).copy()
    if kind == "coae":
        k = 1 if n_contexts is None else n_contexts
        return np.broadcast_to(error_matrix[:, None, :], (n_states, k, n_states)).copy()
    raise ParameterError(f"unknown degeneration kind {kind!r}")


@dataclass(frozen=True)
class Violation:
    field: str
    message: str


def validate_cost_model(cost: CostModel, alphabets: Alphabets) -> list[Violation]:
    """Every error in the cost tables; an empty list means the model is usable.

    A negative gain or expenditure weight is allowed, although it can make
    tensor entries negative."""
    out = []

    def err(field, message):
        out.append(Violation(field, message))

    expected = (alphabets.n_contexts, alphabets.n_states)
    if cost.inherent.shape != expected:
        err("inherent", f"shape {cost.inherent.shape}, expected {expected}")
    if cost.gain.shape != (alphabets.n_actions,):
        err("gain", f"shape {cost.gain.shape}, expected ({alphabets.n_actions},)")
    if cost.expenditure.shape != (alphabets.n_actions,):
        err("expenditure", f"shape {cost.expenditure.shape}, expected ({alphabets.n_actions},)")

    for name, table in (("inherent", cost.inherent), ("gain", cost.gain),
                        ("expenditure", cost.expenditure)):
        bad = ~np.isfinite(table)
        for idx in np.argwhere(bad):
            err(name, f"non-finite entry at {tuple(int(i) for i in idx)}")
        neg = np.isfinite(table) & (table < 0)
        for idx in np.argwhere(neg):
            err(name, f"negative cost at {tuple(int(i) for i in idx)}")

    for name, value in (("gain_weight", cost.gain_weight),
                        ("expenditure_weight", cost.expenditure_weight),
                        ("sampling_cost", cost.sampling_cost)):
        if not np.isfinite(value):
            err(name, "must be finite")
        elif value < 0 and name == "sampling_cost":
            err(name, "must be nonnegative")

    return out
