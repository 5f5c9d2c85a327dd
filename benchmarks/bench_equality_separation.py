"""E-SEP — the randomized–deterministic separation (Section 1.2 remark).

The paper motivates its randomness-saving results with the fact that the
broadcast congested clique has problems whose randomized protocols beat
every deterministic one ("by reductions from two-player communication
complexity for equality").  This bench measures the separation on
ALL-EQUAL: rounds and error of the deterministic full-revelation protocol
versus the public-coin fingerprint protocol, including the fingerprint
protocol *after* Corollary 7.1 derandomization (public coins kept, private
coins were never needed — the composition sanity check).
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table

from repro.core import Engine, PublicCoins, RunSpec, run_protocol
from repro.exec import WorkerPool
from repro.protocols import (
    DeterministicEqualityProtocol,
    FingerprintEqualityProtocol,
    fingerprint_error_bound,
)

# The per-t error estimation is a 200-trial engine batch (each trial gets
# a fresh protocol copy and fresh public coins from its spawned seed),
# pooled across cores where available.
EXECUTOR = WorkerPool(idle_timeout=0)

M = 128
N = 8

def compute_table():
    rows = []
    rng = np.random.default_rng(11)
    base_row = rng.integers(0, 2, size=M, dtype=np.uint8)
    equal_inputs = np.tile(base_row, (N, 1))
    unequal_inputs = equal_inputs.copy()
    unequal_inputs[3] = rng.integers(0, 2, size=M, dtype=np.uint8)

    det = DeterministicEqualityProtocol(M)
    result_eq = run_protocol(det, equal_inputs, rng=rng)
    result_ne = run_protocol(det, unequal_inputs, rng=rng)
    assert result_eq.outputs[0] == 1 and result_ne.outputs[0] == 0
    rows.append(["deterministic", result_eq.cost.rounds, 0.0, 0])

    engine = Engine(EXECUTOR)
    for t in (2, 4, 8, 16):
        trials = 200
        spec = RunSpec(
            protocol=FingerprintEqualityProtocol(M, t),
            inputs=unequal_inputs,
            seed=t,
            public_coins=PublicCoins,  # fresh source per trial
        )
        batch = engine.run_batch(spec, trials)
        errors = int(batch.decisions().sum())  # accepting unequal = error
        public_bits = int(batch.public_bits[0])
        rows.append(
            [f"fingerprint t={t}", t, errors / trials, public_bits]
        )
    return rows

def test_equality_separation(benchmark):
    rows = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(
        f"E-SEP: ALL-EQUAL on m={M}-bit strings, n={N} processors",
        ["protocol", "rounds", "error on unequal", "public bits"],
        rows,
    )
    # The separation: m rounds deterministic vs t << m randomized.
    assert rows[0][1] == M
    assert rows[-1][1] == 16
    # Error tracks the 2^{-t} bound.
    for row in rows[1:]:
        t = row[1]
        assert row[2] <= fingerprint_error_bound(t) + 0.05
    # Error decreasing in t.
    errors = [row[2] for row in rows[1:]]
    assert all(a >= b - 0.02 for a, b in zip(errors, errors[1:]))
