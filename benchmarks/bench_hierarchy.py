"""E-T1.5 — the average-case time hierarchy.

Table: for the separating function ``F_k`` (top ``k×k`` block full rank),
the measured accuracy of the ``j``-round protocol sweep on uniform inputs.
The hierarchy shape: accuracy ≈ the majority rate ``1 − Q₀ ≈ 0.711`` for
every ``j < k`` (never approaching 0.99), and exactly 1.0 at ``j = k``.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table

from repro.exec import WorkerPool
from repro.lowerbounds import (
    TopSubmatrixRankProtocol,
    accuracy_on_uniform,
    optimal_accuracy_with_columns,
)

N = 12
K = 10

# The accuracy sweep runs its 600 trials per budget through the engine
# on a process pool (in-process on 1-core hosts).
EXECUTOR = WorkerPool(idle_timeout=0)

def compute_table():
    rng = np.random.default_rng(15)
    rows = []
    for j in (0, K // 20 + 1, K // 4, K // 2, K - 1, K):
        acc = accuracy_on_uniform(
            TopSubmatrixRankProtocol(K, rounds_budget=j),
            n=N, k=K, n_samples=600, rng=rng, executor=EXECUTOR,
        )
        rows.append([j, acc, optimal_accuracy_with_columns(K, j)])
    return rows

def test_theorem_1_5_hierarchy(benchmark):
    rows = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(
        f"E-T1.5: time hierarchy for F_k, k={K}, n={N}",
        ["rounds j", "measured accuracy", "information ceiling"],
        rows,
    )
    # Exact at j = k.
    assert rows[-1][1] == 1.0
    # Strictly below 0.99 for every truncated budget (the hierarchy gap).
    for j, acc, ceiling in rows[:-1]:
        assert acc < 0.99
        assert ceiling < 0.99
        assert acc <= ceiling + 0.07
    # Monotone information ceiling.
    ceilings = [row[2] for row in rows]
    assert all(a <= b + 1e-12 for a, b in zip(ceilings, ceilings[1:]))
