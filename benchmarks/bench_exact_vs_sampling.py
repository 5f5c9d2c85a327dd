"""Ablation — exact enumeration vs Monte-Carlo distance estimation.

DESIGN.md §6: the exact DP engine is used where the input space is
enumerable, Monte-Carlo elsewhere; this bench cross-validates the two on
overlapping sizes and reports the plug-in estimator's bias — the reason
exact numbers are preferred in E-T1.6/E-T5.1.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table

from repro.core import FunctionProtocol
from repro.distinguish import (
    ProtocolSpec,
    estimate_transcript_distance,
    exact_transcript_pmf,
    transcript_distance,
)
from repro.distributions import PlantedClique, RandomDigraph
from repro.exec import WorkerPool

N = 6
K = 3
THRESHOLD = (N - 1) / 2 + 0.5

# Sampling runs through the execution engine on a process pool (a no-op
# on 1-core hosts, where the pool runs in-process).  The next-message
# functions live at module level so the protocol pickles into pool workers.
EXECUTOR = WorkerPool(idle_timeout=0)

def _vector_fn(i, rows, p):
    return (rows.sum(axis=1) >= THRESHOLD).astype(np.int64)

def _row_fn(i, row, p):
    return int(row.sum() >= THRESHOLD)

def specs():
    spec = ProtocolSpec(N, 1, _vector_fn, sees_current_round=False)
    protocol = FunctionProtocol(1, _row_fn)
    return spec, protocol

def compute_table():
    spec, protocol = specs()
    mixture = PlantedClique(N, K)
    reference = RandomDigraph(N)
    mixture_pmf: dict = {}
    for w, comp in mixture.components():
        for key, p in exact_transcript_pmf(spec, comp).items():
            mixture_pmf[key] = mixture_pmf.get(key, 0.0) + w * p
    exact = transcript_distance(
        exact_transcript_pmf(spec, reference), mixture_pmf
    )
    rows = []
    rng = np.random.default_rng(99)
    for samples in (100, 400, 1600, 6400):
        ci = estimate_transcript_distance(
            protocol, reference, mixture, samples, rng, executor=EXECUTOR
        )
        rows.append([samples, ci.estimate, exact, ci.estimate - exact])
    return rows

def test_exact_vs_sampling(benchmark):
    rows = benchmark.pedantic(compute_table, rounds=1, iterations=1)
    print_table(
        f"Ablation: plug-in TV estimate vs exact, n={N}, k={K}",
        ["samples", "plug-in estimate", "exact", "bias"],
        rows,
    )
    # Plug-in bias is positive and shrinks with sample count.
    biases = [row[3] for row in rows]
    assert biases[0] > -0.02
    assert abs(biases[-1]) < abs(biases[0]) + 0.02
    assert abs(biases[-1]) < 0.1
