"""E-TA.1 — the Newman analogue: public-coin compression.

Table: simulation error of the compiled protocol versus family size ``T``,
together with the public-coin count ``⌈log₂T⌉`` — the trade the theorem
formalises (error ``~ 1/√T`` for ``log T`` coins).  Also the comparison
the paper draws: Newman is existential/inefficient, the PRG constructive —
we report the wall-clock of compiling each.

Shape checks: error decreases in T; public bits grow logarithmically.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table

from repro.core import Protocol
from repro.exec import WorkerPool
from repro.prg import NewmanCompiled, newman_public_bits, simulation_error

# Both the fresh-randomness and compiled sample sets run through the
# execution engine on a process pool (in-process on 1-core hosts).
EXECUTOR = WorkerPool(idle_timeout=0)

class ParityNoisePayload(Protocol):
    """Two rounds of input-parity-plus-coin broadcasts."""

    def num_rounds(self, n):
        return 2

    def broadcast(self, proc, round_index):
        return (int(proc.input.sum()) + proc.coins.draw_bit()) % 2

    def output(self, proc):
        return sum(e.message for e in proc.transcript) % 2

def compute_table():
    protocol = ParityNoisePayload()
    inputs = np.ones((2, 3), dtype=np.uint8)  # 4-bit transcript space
    rows = []
    for t in (2, 8, 64, 512):
        compiled = NewmanCompiled(protocol, t_family=t, master_seed=9)
        error = simulation_error(
            protocol,
            compiled,
            inputs,
            n_samples=2500,
            rng=np.random.default_rng(100 + t),
            executor=EXECUTOR,
        )
        rows.append([t, newman_public_bits(t), error, (1 / t) ** 0.5])
    return rows

def test_theorem_a_1(benchmark):
    rows = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(
        "E-TA.1: Newman compilation, 2 processors, 4-bit transcripts",
        ["family T", "public bits", "sim error (plug-in TV)", "~1/sqrt(T)"],
        rows,
    )
    errors = [row[2] for row in rows]
    # Error shrinks as the family grows (up to plug-in noise ~0.04).
    assert errors[-1] <= errors[0]
    assert errors[-1] < 0.15
    # Public-coin count is logarithmic.
    assert [row[1] for row in rows] == [1, 3, 6, 9]
