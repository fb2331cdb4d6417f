"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, literal way (scalar loops,
explicit enumeration of channel outcomes, long-run limits by matrix squaring)
so it shares no code path with the package.
"""

import itertools

import numpy as np

from goaltensor.model import DecPomdpModel, GlobalState
from goaltensor.tensor import Alphabets, CostModel


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
    from goaltensor.solvers import cesaro_limit, closed_classes, stationary_distribution
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


def local_search_one_by_one(problem, actions, eta, start, allow_multichain):
    """Steepest-ascent single-observation local search, one deviation at a time.

    Each deviation is scored by ``problem.eta_of`` (stationary law, else the
    Cesaro row of ``start``); a chain with several closed classes is skipped
    unless ``allow_multichain``.
    """
    from goaltensor.errors import ErgodicityError
    from goaltensor.solvers import IMPROVE_TOL
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
                try:
                    trial_eta = problem.eta_of(table, start, allow_multichain)
                except ErgodicityError:
                    continue
                if trial_eta > best_eta + IMPROVE_TOL:
                    best_eta, best_move = trial_eta, (obs, a)
        if best_move is not None:
            actions[best_move[0]] = best_move[1]
            eta = best_eta
            improved = True
    return actions, eta
