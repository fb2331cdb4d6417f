"""Scenario documents for the exact-large workload.

Each document is a 4-state x 3-context x 6-action instance (N = 48 global
states, 6**4 = 1,296 decision candidates).  Its shape follows the bundled
scenario: per-context source drift that ratchets upward with long dwell
times, a pull toward state 0 that grows with the actuation level, a sticky
context chain and status costs that rise with the state.  The generator seed
perturbs every table by a bounded random share, so the documents differ while
the solver work per cell stays comparable from one document to the next.
"""

from __future__ import annotations

import numpy as np

N_STATES, N_CONTEXTS, N_ACTIONS = 4, 3, 6
STAY = (0.7, 0.8, 0.85)          # dwell probability of the drift, per context
PERTURB = 0.05                   # share of each row drawn at random
BASE_INHERENT = np.array([[0, 15, 35, 60], [0, 10, 25, 40], [0, 5, 15, 25]], dtype=float)


def _exact_row(row):
    """Round a probability row to 12 digits so that it still sums to 1."""
    row = [round(float(x), 12) for x in row]
    row[-1] = round(1.0 - sum(row[:-1]), 12)
    return row


def large_document(gen_seed: int) -> dict:
    """Scenario document for generator seed ``gen_seed`` (deterministic)."""
    rng = np.random.default_rng([gen_seed, N_STATES * N_CONTEXTS * N_ACTIONS])
    n, v, a = N_STATES, N_CONTEXTS, N_ACTIONS
    ratchet = np.eye(n, k=1)
    ratchet[-1, -1] = 1.0
    drift = []
    for k in range(v):
        move = 0.7 * ratchet + 0.3 * np.full((n, n), 1.0 / n)
        rows = STAY[k] * np.eye(n) + (1.0 - STAY[k]) * move
        drift.append((1.0 - PERTURB) * rows + PERTURB * rng.dirichlet(np.ones(n), size=n))
    pull = 0.7 * np.eye(n)[[0] * n] + 0.3 * rng.dirichlet(np.ones(n), size=n)
    source = [[[_exact_row((1 - m / (a - 1)) * drift[k][i] + m / (a - 1) * pull[i])
                for m in range(a)] for k in range(v)] for i in range(n)]
    context = 0.6 * np.eye(v) + 0.4 * rng.dirichlet(np.ones(v), size=v)
    inherent = BASE_INHERENT * rng.uniform(1.0 - PERTURB, 1.0 + PERTURB, size=(v, n))
    return {
        "name": f"large-{gen_seed}",
        "alphabets": {"states": n, "contexts": v, "actions": a},
        "source_dynamics": source,
        "context_dynamics": [_exact_row(row) for row in context],
        "channel": {"success_prob": 0.8},
        "cost": {
            "inherent": np.round(inherent, 3).tolist(),
            "gain": {"linear": 10.0},
            "expenditure": {"linear": 1.0},
            "sampling_cost": 2.0,
        },
        "solver": {"algorithm": "jesp", "epsilon": 1e-6, "seed": 0},
        "simulation": {"horizon": 100_000, "seed": 12345,
                       "initial": {"state": 0, "estimate": 0, "context": 0}},
    }
