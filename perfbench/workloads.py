"""The four benchmark workloads: inputs from a seed, one op, its check.

Every workload is a closed loop with one op in flight.  An op is one unit
a user of the library waits for (an advantage estimate, a derandomized
batch, one sweep cell); ``check`` decides whether its output is correct.
Inputs are generated here from the workload seed; the program only ever
receives the generated inputs.  See ``NOTES.md`` for why each exists.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import select
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
from repro.core import Engine, RunSpec
from repro.distributions.planted_clique import PlantedClique
from repro.distributions.prg_dists import PRGOutput
from repro.distributions.uniform import UniformRows
from repro.exec import DistributedExecutor, WorkerPool
from repro.infotheory import estimate_advantage
from repro.lowerbounds.hierarchy import TopSubmatrixRankProtocol
from repro.obs import MetricsRegistry
from repro.prg.attacks import SupportMembershipAttack
from repro.prg.derandomize import DerandomizedProtocol

from harness import BASELINE_SPAN
from probes import (
    BATCH_KERNELS,
    CALLBACKS,
    NULL_PROBE,
    TimedExecutor,
    TrialTimedSerial,
    timed,
)


def derive_seed(seed: int, *keys: int) -> int:
    """An int batch seed that depends only on the workload seed and keys."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


class Workload:
    """One op at a time, plus what the traced run needs to attribute it."""

    name = ""
    #: Trials completed by one op (what ``trials_per_ref_s`` counts).
    trials_per_op = 0
    #: Worker processes an op fans out to (0: runs in the caller).
    workers = 0

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        """Build the executor; worker processes start here."""

    def op(self, index: int, probe: Any = NULL_PROBE) -> Any:
        raise NotImplementedError

    def check(self, index: int, result: Any) -> "str | None":
        """``None`` if op ``index`` returned correct output, else why not."""
        raise NotImplementedError

    def turns(self, result: Any) -> int:
        """Simulated turns in an op's result (0 when not simulated)."""
        return 0

    def baseline(self, index: int, probe: Any) -> "tuple[str | None, int]":
        """Rerun op ``index`` serially as a separate root span; returns the
        check outcome and its simulated turns.  Only exec workloads."""
        return None, 0

    def counters(self) -> dict[str, float]:
        """Cumulative exec-layer counters (per-op deltas are reported)."""
        return {}

    def teardown(self) -> None:
        """Release workers and published inputs; raising fails the last op."""


# ----------------------------------------------------------------------
class PrgAttackVectorized(Workload):
    """Theorem 8.1's attack against the Theorem 1.3 PRG, one advantage
    estimate per op, on the engine's vectorized path."""

    name = "prg_attack_vectorized"
    N, M, K, TRIALS = 32, 16, 8, 2048
    #: Trials of each side replayed on the scalar path by ``check``.
    CHECKED_TRIALS = (0, TRIALS - 1)
    trials_per_op = 2 * TRIALS

    def setup(self) -> None:
        self.engine = Engine()

    def _distributions(self) -> tuple[Any, Any]:
        return PRGOutput(self.N, self.M, self.K), UniformRows(self.N, self.M)

    def op(self, index: int, probe: Any = NULL_PROBE) -> Any:
        attack = SupportMembershipAttack(self.K)
        dists = self._distributions()
        if probe.enabled:
            attack = timed(attack, probe, BATCH_KERNELS, "linalg")
            dists = tuple(timed(d, probe, ("sample",), "distributions") for d in dists)
        sides = []
        for side, dist in enumerate(dists):
            spec = RunSpec(
                attack,
                distribution=dist,
                seed=derive_seed(self.seed, index, side),
                vectorized=True,
            )
            with probe.span("core.engine.run_batch"):
                batch = self.engine.run_batch(spec, self.TRIALS)
            with probe.span("core.engine.decisions"):
                decisions = batch.decisions()
            sides.append((batch, decisions))
        with probe.span("infotheory.estimate_advantage"):
            estimate = estimate_advantage(sides[0][1], sides[1][1])
        return sides, estimate

    def check(self, index: int, result: Any) -> "str | None":
        sides, estimate = result
        if estimate.accept_rate_d1 != 1.0:
            return f"PRG outputs accepted at rate {estimate.accept_rate_d1}, not 1"
        target = (1.0 - 2.0 ** -self.N) / 2.0
        interval = estimate.interval
        if not interval.lower <= target <= interval.upper:
            return f"advantage interval {interval} misses {target}"
        scalar = Engine()
        for side, dist in enumerate(self._distributions()):
            batch = sides[side][0]
            children = np.random.SeedSequence(
                derive_seed(self.seed, index, side)
            ).spawn(self.TRIALS)
            for t in self.CHECKED_TRIALS:
                spec = RunSpec(
                    SupportMembershipAttack(self.K), distribution=dist, seed=children[t]
                )
                run = scalar.run(spec)
                if run.outputs != batch[t].outputs:
                    return f"side {side} trial {t}: vectorized decisions differ"
                if run.transcript.key() != batch[t].transcript_key:
                    return f"side {side} trial {t}: vectorized keys differ"
        return None


# ----------------------------------------------------------------------
def maximum_cliques(adjacency: np.ndarray) -> list[frozenset[int]]:
    """Every maximum clique of the bidirected graph (both edge directions
    present), by Bron–Kerbosch over neighbour bitmasks."""
    n = adjacency.shape[0]
    both = adjacency.astype(bool) & adjacency.T.astype(bool)
    neighbours = [
        sum(1 << u for u in range(n) if u != v and both[v, u]) for v in range(n)
    ]
    found: list[int] = []

    def extend(clique: int, candidates: int, excluded: int) -> None:
        if not candidates and not excluded:
            found.append(clique)
            return
        while candidates:
            v = candidates.bit_length() - 1
            extend(clique | 1 << v, candidates & neighbours[v], excluded & neighbours[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    extend(0, (1 << n) - 1, 0)
    size = max(bin(c).count("1") for c in found)
    return [
        frozenset(v for v in range(n) if c >> v & 1)
        for c in found
        if bin(c).count("1") == size
    ]


def appendix_b_outputs(adjacency: np.ndarray, k: int) -> list:
    """The outputs Appendix B's protocol may give on ``adjacency`` when
    every processor activates (activation probability ``log²n / k`` is
    at least 1, as in :class:`DerandCliqueScalar`).

    The activated graph is then the whole input, so ``C_active`` is one
    of its maximum bidirected cliques (which one is the protocol's tie
    break), and the output is the set of vertices with out-edges to at
    least 9/10 of ``C_active`` minus themselves — or ``None`` when
    ``|C_active|`` is below half the expected ``k``.  This restates the
    protocol's own rule (paper defaults) independently of its code.
    Non-members can pass the 9/10 test, so an output need not be a clique.
    """
    n = adjacency.shape[0]
    if math.log2(n) ** 2 < k:
        raise ValueError("some processors would not activate; the rule needs coins")
    outputs: list = []
    for clique in maximum_cliques(adjacency):
        if len(clique) < 0.5 * k:
            outputs.append(None)
            continue
        claimants = []
        for v in range(n):
            others = [u for u in clique if u != v]
            support = sum(int(adjacency[v, u]) for u in others)
            if others and support >= 0.9 * len(others):
                claimants.append(v)
        outputs.append(frozenset(claimants))
    return outputs


class DerandCliqueScalar(Workload):
    """Appendix B's planted-clique protocol with its coins drawn from the
    PRG (the derandomization transform), on the scalar simulator."""

    name = "derand_clique_scalar"
    N, K, TRIALS = 12, 6, 2
    #: PRG seed length, and pseudo-random bits per processor: the
    #: payload's one activation draw.
    PRG_K, RANDOM_BITS = 8, 24
    trials_per_op = TRIALS

    def setup(self) -> None:
        self.engine = Engine()

    def op(self, index: int, probe: Any = NULL_PROBE) -> Any:
        payload = PlantedCliqueSubsampleProtocol(self.K)
        dist = PlantedClique(self.N, self.K)
        engine = self.engine
        if probe.enabled:
            payload = timed(payload, probe, CALLBACKS, "cliques.payload")
            dist = timed(dist, probe, ("sample",), "distributions")
            engine = Engine(TrialTimedSerial(probe))
        protocol = DerandomizedProtocol(
            payload, k=self.PRG_K, random_bits=self.RANDOM_BITS
        )
        if probe.enabled:
            protocol = timed(protocol, probe, CALLBACKS, "prg.derandomize")
        spec = RunSpec(
            protocol,
            distribution=dist,
            seed=derive_seed(self.seed, index),
            record_inputs=True,
        )
        with probe.span("core.engine.run_batch"):
            return engine.run_batch(spec, self.TRIALS)

    def check(self, index: int, result: Any) -> "str | None":
        if len(result) != self.TRIALS:
            return f"{len(result)} trials, expected {self.TRIALS}"
        for trial in result:
            adjacency = trial.inputs
            if adjacency is None or adjacency.shape != (self.N, self.N):
                return f"trial {trial.trial_index}: input not recorded"
            expected = appendix_b_outputs(adjacency, self.K)
            for proc, output in enumerate(trial.outputs):
                if output is not None and not isinstance(output, frozenset):
                    return f"trial {trial.trial_index}: output {output!r} is not a set"
                if output not in expected:
                    return (
                        f"trial {trial.trial_index}: processor {proc} output "
                        f"{sorted(output) if output else output} is not a claimant "
                        "set of a maximum clique of the input"
                    )
        return None

    def turns(self, result: Any) -> int:
        return int(result.turns.sum())


# ----------------------------------------------------------------------
def batch_digest(batch: Any) -> str:
    """Content hash of everything a batch reports, trial by trial."""
    digest = hashlib.sha256()
    for trial in batch:
        digest.update(
            repr(
                (trial.trial_index, trial.outputs, trial.transcript_key, trial.cost)
            ).encode()
        )
    return digest.hexdigest()


class RankSweep(Workload):
    """Section 3's top-submatrix rank protocol as a sweep: one op is one
    cell, a small sampled-input batch then a fixed-input batch."""

    CELLS = 4
    BLOCK = 3
    SAMPLED_N, SAMPLED_TRIALS = 8, 16
    FIXED_N, FIXED_TRIALS = 256, 16
    trials_per_op = SAMPLED_TRIALS + FIXED_TRIALS
    workers = 2

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        rng = np.random.default_rng(derive_seed(seed, self.CELLS))
        # Kept as the same array objects for the whole run: repeated
        # batches over one matrix are what the publish caches key on.
        self.matrices = [
            rng.integers(0, 2, (self.FIXED_N, self.FIXED_N), dtype=np.uint8)
            for _ in range(self.CELLS)
        ]
        self.references: dict[int, list[str]] = {}
        self.registry = MetricsRegistry()

    def _make_executor(self) -> Any:
        raise NotImplementedError

    def setup(self) -> None:
        self.executor = TimedExecutor(self._make_executor())
        self.engine = Engine(self.executor, registry=self.registry)

    def _run(self, engine: Engine, cell: int, probe: Any) -> list[Any]:
        """One cell: the sampled-input batch, then the fixed-input batch."""
        protocol = TopSubmatrixRankProtocol(self.BLOCK)
        batches = [
            (
                RunSpec(
                    protocol,
                    distribution=UniformRows(self.SAMPLED_N, self.SAMPLED_N),
                    seed=derive_seed(self.seed, cell, 0),
                ),
                self.SAMPLED_TRIALS,
            ),
            (
                RunSpec(
                    protocol,
                    inputs=self.matrices[cell],
                    seed=derive_seed(self.seed, cell, 1),
                ),
                self.FIXED_TRIALS,
            ),
        ]
        out = []
        for spec, trials in batches:
            with probe.span("core.engine.run_batch"):
                out.append(engine.run_batch(spec, trials))
        return out

    def op(self, index: int, probe: Any = NULL_PROBE) -> Any:
        self.executor.probe = probe
        return self._run(self.engine, index % self.CELLS, probe)

    def _reference(self, cell: int) -> list[str]:
        """Digests of the cell's batches run on ``SerialExecutor``, built on
        first use (inside a check, so outside every op's latency)."""
        if cell not in self.references:
            batches = self._run(Engine(), cell, NULL_PROBE)
            self.references[cell] = [batch_digest(b) for b in batches]
        return self.references[cell]

    def check(self, index: int, result: Any) -> "str | None":
        got = [batch_digest(b) for b in result]
        if got != self._reference(index % self.CELLS):
            return f"cell {index % self.CELLS}: batches differ from the serial reference"
        return None

    def baseline(self, index: int, probe: Any) -> "tuple[str | None, int]":
        with probe.span(BASELINE_SPAN):
            result = self._run(Engine(TrialTimedSerial(probe)), index % self.CELLS, probe)
        return self.check(index, result), sum(int(b.turns.sum()) for b in result)

    def turns(self, result: Any) -> int:
        return sum(int(b.turns.sum()) for b in result)

    def counters(self) -> dict[str, float]:
        total = self.registry.total
        return {
            "exec.publish_frames": total("exec_publish_frames_total"),
            "exec.publish_bytes": total("exec_publish_bytes_total"),
            "exec.publish_reuse": self.executor.publish_reuse,
            "exec.steals": total("exec_steals_total"),
            "exec.requeues": total("exec_requeues_total"),
            "exec.errors": total("exec_errors_total"),
            "exec.handshakes": total("exec_handshakes_total"),
        }


class RankSweepFleet(RankSweep):
    """The sweep on a ``DistributedExecutor`` over two worker processes
    (``python -m repro.exec.worker``) on the authenticated loopback wire."""

    name = "rank_sweep_fleet"
    #: Seconds a worker may take to announce its port.
    WORKER_START_TIMEOUT = 60.0

    def _make_executor(self) -> Any:
        secret = secrets.token_hex(16)
        env = dict(os.environ)
        env["REPRO_WIRE_SECRET"] = secret
        env["PYTHONPATH"] = str(self.root / "src")
        self.processes: list[subprocess.Popen] = []
        addresses = []
        for _ in range(self.workers):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.exec.worker", "--port", "0"],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            self.processes.append(proc)
        for proc in self.processes:
            ready, _, _ = select.select([proc.stdout], [], [], self.WORKER_START_TIMEOUT)
            line = proc.stdout.readline() if ready else ""
            if "listening on" not in line:
                raise RuntimeError(f"worker did not start: {line!r}")
            addresses.append(line.rsplit(" ", 1)[1].strip())
        return DistributedExecutor(addresses, secret=secret, registry=self.registry)

    def teardown(self) -> None:
        try:
            if hasattr(self, "executor"):
                self.executor.inner.close()
        finally:
            for proc in getattr(self, "processes", []):
                proc.terminate()
            for proc in getattr(self, "processes", []):
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()


class RankSweepPool(RankSweep):
    """The same sweep on a warm ``WorkerPool(max_workers=2)``, the only
    workload on the shared-memory publish path."""

    name = "rank_sweep_pool"

    def _make_executor(self) -> Any:
        return WorkerPool(max_workers=self.workers, registry=self.registry)

    def counters(self) -> dict[str, float]:
        # WorkerPool keeps no publish series in its registry; count the
        # segments it handed out instead (one per new matrix).
        counts = super().counters()
        counts["exec.publish_frames"] = self.executor.publish_calls - self.executor.publish_reuse
        counts["exec.publish_bytes"] = self.executor.new_publish_bytes
        return counts

    def teardown(self) -> None:
        if hasattr(self, "executor"):
            self.executor.inner.close()


WORKLOADS = {
    cls.name: cls
    for cls in (PrgAttackVectorized, DerandCliqueScalar, RankSweepFleet, RankSweepPool)
}
