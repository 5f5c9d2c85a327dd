"""Tests for the shared work-stealing chunk scheduler and its consumers.

"Static mode" here is the pinned plan the steal benchmark measures
against: one chunk per lane (``chunksize = ceil(items / lanes)``), so no
lane ever has a queued chunk left to steal.
"""

import threading

import pytest

from repro.core import Engine, RunSpec, SerialExecutor
from repro.distributions import UniformRows
from repro.exec import DistributedExecutor, LoopbackWorker, WorkerPool
from repro.exec.stealing import Chunk, ChunkScheduler
from repro.exec.wire import register_wire_function
from repro.lowerbounds import TopSubmatrixRankProtocol


@register_wire_function
def _square(x):
    return x * x


def rank_spec(seed=7):
    return RunSpec(
        protocol=TopSubmatrixRankProtocol(5),
        distribution=UniformRows(8, 8),
        seed=seed,
    )


class TestChunkScheduler:
    def test_deals_round_robin(self):
        sched = ChunkScheduler(list(range(10)), chunksize=2, lanes=2)
        # Lane 0 gets chunks 0, 2, 4 (starts 0, 4, 8); lane 1 gets 1, 3.
        assert [sched.next_chunk(0).start for _ in range(3)] == [0, 4, 8]
        assert [sched.next_chunk(1).start for _ in range(2)] == [2, 6]

    def test_chunks_partition_items(self):
        items = list(range(11))
        sched = ChunkScheduler(items, chunksize=4, lanes=3)
        seen = []
        for lane in range(3):
            while (chunk := sched.next_chunk(lane)) is not None:
                seen.append(chunk)
        seen.sort(key=lambda c: c.start)
        assert [c.items for c in seen] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10]]

    def test_idle_lane_steals_from_richest(self):
        sched = ChunkScheduler(list(range(12)), chunksize=2, lanes=3)
        # Lane 0 drains its own deque (2 chunks), then must steal.
        assert sched.next_chunk(0) is not None
        assert sched.next_chunk(0) is not None
        stolen = sched.next_chunk(0)
        assert stolen is not None
        assert sched.steals[0] == 1

    def test_static_mode_never_steals(self):
        sched = ChunkScheduler(list(range(12)), chunksize=4, lanes=3)
        assert [sched.next_chunk(lane).start for lane in range(3)] == [0, 4, 8]
        assert sched.next_chunk(0) is None  # every deque empty: stop
        assert sched.total_steals() == 0
        assert sched.queued == 0

    def test_pending_tracks_completion(self):
        sched = ChunkScheduler(list(range(8)), chunksize=2, lanes=1)
        assert sched.pending == 4
        chunk = sched.next_chunk(0)
        assert sched.pending == 4  # in flight still counts
        sched.mark_done(chunk)
        assert sched.pending == 3

    def test_requeue_returns_chunk_to_pool(self):
        sched = ChunkScheduler(list(range(4)), chunksize=2, lanes=2)
        chunk = sched.next_chunk(0)
        sched.requeue(chunk, 0)
        assert sched.pending == 2
        # With stealing, lane 1 can pick up the re-queued chunk.
        starts = set()
        while (got := sched.next_chunk(1)) is not None:
            starts.add(got.start)
        assert chunk.start in starts

    def test_retire_lane_moves_chunks_to_survivors(self):
        sched = ChunkScheduler(list(range(12)), chunksize=2, lanes=3)
        sched.retire_lane(0)
        drained = []
        for lane in (1, 2):
            for _ in range(3):  # each survivor's own share, no steals
                drained.append(sched.next_chunk(lane).start)
        assert sorted(drained) == [0, 2, 4, 6, 8, 10]
        assert sched.total_steals() == 0

    def test_drain_returns_queued_in_offset_order(self):
        sched = ChunkScheduler(list(range(9)), chunksize=2, lanes=2)
        sched.next_chunk(0)  # one chunk in flight stays out
        drained = sched.drain()
        assert [c.start for c in drained] == [2, 4, 6, 8]
        assert sched.queued == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkScheduler([1], chunksize=0, lanes=1)
        with pytest.raises(ValueError):
            ChunkScheduler([1], chunksize=1, lanes=0)

    def test_empty_items(self):
        sched = ChunkScheduler([], chunksize=2, lanes=2)
        assert sched.pending == 0
        assert sched.next_chunk(0) is None

    def test_concurrent_lanes_cover_everything_exactly_once(self):
        items = list(range(200))
        sched = ChunkScheduler(items, chunksize=3, lanes=4)
        claimed: list[Chunk] = []
        lock = threading.Lock()

        def lane(index):
            while (chunk := sched.next_chunk(index)) is not None:
                with lock:
                    claimed.append(chunk)
                sched.mark_done(chunk)

        threads = [threading.Thread(target=lane, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        flat = sorted(x for chunk in claimed for x in chunk.items)
        assert flat == items
        assert sched.pending == 0


class TestWorkerPoolStealing:
    def test_steal_is_default_and_bit_identical_to_serial(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 24)
        with WorkerPool(max_workers=2) as pool:
            batch = Engine(pool).run_batch(rank_spec(), 24)
        assert batch.outputs == golden.outputs
        assert batch.transcript_keys == golden.transcript_keys

    def test_static_mode_matches_steal_mode(self):
        with WorkerPool(max_workers=2, chunksize=12) as static_pool:
            static = Engine(static_pool).run_batch(rank_spec(), 24)
        with WorkerPool(max_workers=2) as steal_pool:
            steal = Engine(steal_pool).run_batch(rank_spec(), 24)
        assert static.outputs == steal.outputs

    def test_task_error_propagates_and_pool_stays_warm(self):
        with WorkerPool(max_workers=2) as pool:
            with pytest.raises(ValueError, match="task"):
                pool.map(_boom_global, range(8))
            # The pool survived the task error and still works.
            assert pool.warm
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]


def _boom_global(x):
    raise ValueError(f"task {x}")


class TestDistributedStealing:
    def test_steal_mode_rebalances_off_slow_worker(self):
        """With one straggler, stealing moves chunks to the fast host."""
        with LoopbackWorker() as fast, LoopbackWorker(request_delay=0.05) as slow:
            with DistributedExecutor(
                [fast.endpoint, slow.endpoint], chunksize=1
            ) as executor:
                assert executor.map(_square, range(10)) == [
                    x * x for x in range(10)
                ]
                assert executor.last_map_steals > 0

    def test_static_mode_pins_chunks(self):
        # Each chunk outlasts the other lane's start-up by far, so both
        # lanes hold their own chunk before either could steal it.
        with LoopbackWorker(request_delay=0.1) as w1, LoopbackWorker(
            request_delay=0.1
        ) as w2:
            with DistributedExecutor(
                [w1.endpoint, w2.endpoint], chunksize=5
            ) as executor:
                assert executor.map(_square, range(10)) == [
                    x * x for x in range(10)
                ]
                assert executor.last_map_steals == 0

    def test_steal_and_static_agree_on_skewed_fleet(self):
        """Same results either way on a skewed fleet; the wall-clock
        claim itself lives in benchmarks/bench_exec_steal.py (best-of-N
        with a 1.3x bar), not in the unit suite where a single noisy
        run would flake.  The slow worker is lane 0, so it claims its
        pinned chunk before the fast lane could finish and steal it."""

        def run(chunksize):
            with LoopbackWorker() as fast, LoopbackWorker(
                request_delay=0.04
            ) as slow:
                with DistributedExecutor(
                    [slow.endpoint, fast.endpoint], chunksize=chunksize
                ) as executor:
                    result = executor.map(_square, range(12))
                    return result, executor.last_map_steals

        static_result, static_steals = run(6)
        steal_result, steal_steals = run(1)
        assert static_result == steal_result == [x * x for x in range(12)]
        assert static_steals == 0
        assert steal_steals > 0  # the fast worker relieved the straggler

    def test_static_mode_with_unreachable_worker_completes(self):
        """Regression: the chunk pinned to a never-connectable lane must
        be retired to the live workers — static mode used to spin forever
        re-dispatching an empty round.  local_fallback=False proves the
        orphaned chunk ran remotely."""
        import socket as socket_mod

        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_endpoint = "127.0.0.1:%d" % probe.getsockname()[1]
        with LoopbackWorker() as good:
            with DistributedExecutor(
                [good.endpoint, dead_endpoint],
                chunksize=5,
                connect_timeout=0.5,
                local_fallback=False,
            ) as executor:
                assert executor.map(_square, range(10)) == [
                    x * x for x in range(10)
                ]

    def test_static_mode_survives_two_worker_failures(self):
        """Regression: the second dead lane's chunks must be retired onto
        *live* lanes only — redistributing onto the first dead lane used
        to strand them (and hang) in static mode."""
        steady = LoopbackWorker()
        flaky_a = LoopbackWorker(max_requests_per_connection=1)
        flaky_b = LoopbackWorker(max_requests_per_connection=1)
        try:
            with DistributedExecutor(
                [steady.endpoint, flaky_a.endpoint, flaky_b.endpoint],
                chunksize=4,
                local_fallback=False,
            ) as executor:
                for _ in range(3):  # repeated maps re-roll the failure race
                    assert executor.map(_square, range(12)) == [
                        x * x for x in range(12)
                    ]
        finally:
            steady.stop()
            flaky_a.stop()
            flaky_b.stop()

    def test_failover_with_stealing(self):
        """A dying worker's chunks are stolen/redistributed, not lost."""
        flaky = LoopbackWorker(max_requests_per_connection=1)
        steady = LoopbackWorker()
        try:
            with DistributedExecutor(
                [flaky.endpoint, steady.endpoint], chunksize=2
            ) as executor:
                assert executor.map(_square, range(16)) == [
                    x * x for x in range(16)
                ]
        finally:
            flaky.stop()
            steady.stop()

    def test_engine_batch_on_skewed_fleet_bit_identical(self):
        golden = Engine(SerialExecutor()).run_batch(rank_spec(), 20)
        with LoopbackWorker() as fast, LoopbackWorker(request_delay=0.02) as slow:
            with DistributedExecutor(
                [fast.endpoint, slow.endpoint], chunksize=2
            ) as executor:
                batch = Engine(executor).run_batch(rank_spec(), 20)
        assert batch.outputs == golden.outputs
        assert batch.cost_totals() == golden.cost_totals()
