"""E-STEAL — work-stealing vs static round-robin on a skewed fleet.

The claim behind exec scheduling v2: with chunks **pinned** to the
worker they were dealt to (static round-robin), a heterogeneous fleet
finishes a batch when its *slowest* host finishes its share — one 5×-slow
worker in a fleet of four drags the wall clock toward its own pace while
the fast hosts idle.  The shared
:class:`~repro.exec.stealing.ChunkScheduler` lets idle workers steal
queued chunks from the straggler, so the batch finishes when the *work*
runs out instead.

Running this file as a script (the CI smoke step) builds exactly that
fleet — four in-process :class:`~repro.exec.LoopbackWorker` serve loops,
one with injected per-chunk latency making it ~5× slower — and measures
the same engine batch twice: once pinned (one chunk per worker,
``chunksize = ceil(TRIALS / WORKERS)``, so no queued chunk is ever left
to steal — the static round-robin plan) and once with the stealing
grain ``CHUNKSIZE``.  It asserts stealing beats the pinned plan by
``MIN_SPEEDUP``×, that both are **bit-identical** to
:class:`~repro.core.engine.SerialExecutor` (per-spec ``SeedSequence``
seeding: placement never touches randomness), and writes the medians to
``BENCH_steal.json`` in the repo root (uploaded as a CI artifact).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _util import print_table, write_bench_json

import math

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker
from repro.protocols import GlobalParityProtocol

TRIALS = 64          # one engine batch, fanned out over the fleet
CHUNKSIZE = 2        # the stealing grain: 32 chunks over 4 workers
WORKERS = 4          # fleet size (one of them slow)
PINNED = math.ceil(TRIALS / WORKERS)  # static plan: one chunk per worker
TRIAL_SLEEP = 0.003  # per-broadcast pause: makes chunk cost predictable
SLOW_FACTOR = 5      # the straggler runs chunks ~5x slower
MIN_SPEEDUP = 1.3    # stealing must beat static round-robin by 30%
REPEATS = 3          # best-of-N wall clocks to damp scheduler jitter

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_steal.json"


class SleepyParityProtocol(GlobalParityProtocol):
    """Global parity with a fixed per-broadcast pause.

    The pause stands in for real per-trial compute, making every chunk
    cost ``CHUNKSIZE * n * TRIAL_SLEEP`` — predictable enough that one
    worker's injected latency models a host exactly ``SLOW_FACTOR``×
    slower, while outputs stay a deterministic function of the sampled
    inputs (the bit-identical check below is meaningful).
    """

    supports_batch = False  # force the scalar path; the point is latency

    def broadcast(self, proc, round_index):
        time.sleep(TRIAL_SLEEP)
        return super().broadcast(proc, round_index)


def bench_spec() -> RunSpec:
    return RunSpec(
        protocol=SleepyParityProtocol(),
        distribution=UniformRows(2, 8),
        seed=11,
    )


def slow_delay(chunksize: int) -> float:
    """Injected pre-chunk latency for the straggler.

    A chunk costs ``chunksize`` trials x 2 processors x TRIAL_SLEEP of
    real work, so (SLOW_FACTOR - 1) of that on top makes the host
    SLOW_FACTOR x slower at either chunk size.
    """
    return (SLOW_FACTOR - 1) * chunksize * 2 * TRIAL_SLEEP


def measure_fleet(chunksize: int) -> tuple[list, float, int]:
    """Best-of-REPEATS wall clock for one batch in chunks of ``chunksize``."""
    outputs, best, steals = None, float("inf"), 0
    for _ in range(REPEATS):
        # The straggler is lane 0: it claims its first chunk before any
        # fast lane could run out of work, so the pinned plan never steals.
        workers = [LoopbackWorker(request_delay=slow_delay(chunksize))]
        workers.extend(LoopbackWorker() for _ in range(WORKERS - 1))
        try:
            with DistributedExecutor(
                [worker.endpoint for worker in workers],
                chunksize=chunksize,
            ) as executor:
                engine = Engine(executor)
                start = time.perf_counter()
                outputs = engine.run_batch(bench_spec(), TRIALS).outputs
                elapsed = time.perf_counter() - start
                if elapsed < best:
                    best = elapsed
                    steals = executor.last_map_steals
        finally:
            for worker in workers:
                worker.stop()
    return outputs, best, steals


def measure() -> tuple[list[list], list[dict], float, bool]:
    golden = Engine(SerialExecutor()).run_batch(bench_spec(), TRIALS).outputs
    static_out, static_s, static_steals = measure_fleet(PINNED)
    steal_out, steal_s, steals = measure_fleet(CHUNKSIZE)
    identical = golden == static_out == steal_out and static_steals == 0
    speedup = static_s / steal_s if steal_s else float("inf")
    rows = [
        [f"pinned, {PINNED}/chunk ({WORKERS} workers, 1 slow)", static_s, 1.0],
        [
            f"work-stealing ({WORKERS} workers, 1 slow, {steals} steals)",
            steal_s,
            speedup,
        ],
    ]
    records = [
        {
            "bench": "exec_steal",
            "scheduling": name,
            "trials": TRIALS,
            "chunksize": chunksize,
            "workers": WORKERS,
            "slow_factor": SLOW_FACTOR,
            "wall_s": wall,
        }
        for name, chunksize, wall in [
            ("static", PINNED, static_s),
            ("steal", CHUNKSIZE, steal_s),
        ]
    ]
    records.append(
        {
            "bench": "exec_steal",
            "metric": "steal_speedup_vs_static",
            "min_required": MIN_SPEEDUP,
            "speedup": speedup,
            "steals": steals,
        }
    )
    return rows, records, speedup, identical


def main() -> None:
    rows, records, speedup, identical = measure()
    print_table(
        f"E-STEAL: {TRIALS} trials / chunks of {CHUNKSIZE}, "
        f"{WORKERS}-worker fleet with one {SLOW_FACTOR}x-slow host",
        ["scheduling", "wall-clock s", "x vs static"],
        rows,
    )
    write_bench_json(BENCH_JSON, records)
    print(f"wrote {BENCH_JSON.name}")
    # Determinism first: placement must never leak into results.
    assert identical, (
        "fleet outputs disagree with SerialExecutor, or the pinned plan stole"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"work-stealing speedup {speedup:.2f}x vs the pinned plan is "
        f"below the {MIN_SPEEDUP}x bar"
    )
    print(
        f"work-stealing beats the pinned plan: {speedup:.2f}x "
        f"(bar {MIN_SPEEDUP}x), outputs bit-identical to serial"
    )


def test_work_stealing_beats_round_robin():
    """Pytest entry point mirroring the script assertion."""
    _rows, _records, speedup, identical = measure()
    assert identical
    assert speedup >= MIN_SPEEDUP


if __name__ == "__main__":
    main()
