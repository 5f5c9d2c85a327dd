"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import harness
from harness import OpLedger, accounting_error, latency_summary, span_trees, tail

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# -- tail percentile -----------------------------------------------------
def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    stats = tail([float(v) for v in range(30, 0, -1)])
    assert stats["value"] == 20.0
    assert stats["beyond"] == 10
    assert stats["percentile"] == pytest.approx(100 * 20 / 30)
    assert stats["samples"] == 30


def test_tail_moves_up_as_samples_grow():
    assert tail([float(v) for v in range(1, 101)])["percentile"] == 90.0
    assert tail([float(v) for v in range(1, 1001)])["percentile"] == 99.0


def test_short_run_reports_its_maximum_and_the_shortfall():
    stats = tail([3.0, 1.0, 2.0])
    assert stats == {"value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3}


def test_latency_summary_in_milliseconds():
    summary = latency_summary([0.001 * v for v in range(1, 22)])
    assert summary["op_p50_ms"] == pytest.approx(11.0)
    assert summary["op_tail_ms"] == pytest.approx(11.0)
    assert summary["tail_beyond"] == 10 and summary["samples"] == 21


# -- reference units ------------------------------------------------------
def test_reference_units_cancel_a_host_slowdown():
    fast = harness.reference_s([0.2, 0.3], [0.002, 0.002])
    slow = harness.reference_s([0.3, 0.45], [0.003, 0.003])
    assert fast == pytest.approx(slow)
    assert fast[0] == pytest.approx(0.2 * harness.REFERENCE_MS / 2.0)


def test_a_slower_program_shows_in_reference_units():
    base = harness.reference_s([0.2], [0.002])
    slower = harness.reference_s([0.3], [0.002])
    assert slower[0] == pytest.approx(1.5 * base[0])


def test_reference_units_need_one_kernel_time_per_op():
    with pytest.raises(ValueError):
        harness.reference_s([0.1, 0.2], [0.002])


def test_reference_kernel_leaves_the_collector_as_it_found_it():
    import gc

    import reference

    assert gc.isenabled()
    (times,) = reference.sample()
    assert len(times) == reference.KERNEL_REPEATS and min(times) > 0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_kernel_pinned_to_each_cpu_restores_the_affinity():
    import os

    import reference

    before = os.sched_getaffinity(0)
    samples = reference.sample(sorted(before))
    assert len(samples) == len(before)
    assert os.sched_getaffinity(0) == before


def test_kernel_time_is_the_median_around_the_op_per_cpu():
    import reference

    # One CPU: the median of the repeats on both sides of the op.
    assert reference.kernel_s([[1.0, 9.0]], [[2.0, 3.0]]) == 2.5
    # Two CPUs: their harmonic mean, the time per kernel of both together.
    assert reference.kernel_s([[1.0], [3.0]], [[1.0], [3.0]]) == pytest.approx(1.5)


# -- self-time subtraction ------------------------------------------------
def span(name, sid, parent, start, end, op=0):
    return {
        "type": "span",
        "name": name,
        "track": "bench",
        "start_ns": start,
        "end_ns": end,
        "args": {"op": op, "id": sid, "parent": parent},
    }


def test_self_time_is_duration_minus_direct_children():
    events = [
        span("distributions.sample", 3, 2, 20, 50),
        span("core.engine.run_batch", 2, 1, 10, 80),
        span("infotheory.estimate_advantage", 4, 1, 85, 95),
        span("op", 1, None, 0, 100),
    ]
    (tree,) = span_trees(events)
    assert tree["wall_ns"] == 100
    assert tree["layers"] == {
        "core.engine.self_s": 40,
        "distributions.sample_s": 30,
        "infotheory.estimate_s": 10,
    }
    assert tree["unattributed_ns"] == 20
    assert tree["spans"]["distributions.sample"] == [1, 30]
    assert accounting_error(tree) == pytest.approx(0.2)


def test_spans_of_one_layer_add_up_across_nesting():
    events = [
        span("op", 1, None, 0, 100),
        span("prg.derandomize.broadcast", 2, 1, 0, 60),
        span("cliques.payload.broadcast", 3, 2, 10, 40),
        span("prg.derandomize.receive", 4, 1, 60, 100),
    ]
    (tree,) = span_trees(events)
    assert tree["layers"] == {"prg.derandomize.self_s": 70, "cliques.payload_s": 30}
    assert accounting_error(tree) == 0.0


def test_separate_roots_make_separate_trees():
    events = [
        span("op", 1, None, 0, 10, op=2),
        span("exec.map", 2, 1, 1, 9, op=2),
        span("exec.compute", 3, None, 20, 50, op=2),
        span("core.simulator.trial", 4, 3, 21, 49, op=2),
    ]
    op, baseline = span_trees(events)
    assert (op["name"], baseline["name"]) == ("op", "exec.compute")
    assert op["layers"] == {"exec.map_s": 8}
    assert baseline["layers"] == {"core.simulator.self_s": 28}


def test_children_outlasting_their_parent_are_rejected():
    with pytest.raises(ValueError, match="outlast"):
        span_trees([span("op", 1, None, 0, 10), span("exec.map", 2, 1, 0, 11)])


def test_a_span_outside_every_layer_is_rejected():
    with pytest.raises(ValueError, match="no layer"):
        span_trees([span("op", 1, None, 0, 10), span("mystery", 2, 1, 0, 5)])


def test_exec_overhead_and_efficiency_come_from_the_serial_rerun():
    events = [
        span("op", 1, None, 0, 1_000_000_000),
        span("exec.map", 2, 1, 0, 1_000_000_000),
        span("exec.compute", 3, None, 2_000_000_000, 3_600_000_000),
        span("core.simulator.trial", 4, 3, 2_000_000_000, 3_600_000_000),
    ]
    traced = [{"turns": 0, "baseline_turns": 800, "counters": {"exec.steals": 3}}]
    metrics, accounting = harness.per_layer_metrics(span_trees(events), traced, 2, 0.01)
    assert metrics["exec.compute_s"] == pytest.approx(1.6)
    assert metrics["exec.overhead_s"] == pytest.approx(1.0 - 1.6 / 2)
    assert metrics["exec.parallel_efficiency"] == pytest.approx(1.6 / 2)
    assert metrics["core.simulator.ns_per_turn"] == pytest.approx(1.6e9 / 800)
    assert metrics["exec.steals"] == 3
    assert accounting["ok"] and metrics["trace.overhead_share"] == 0.01


# -- error counting -------------------------------------------------------
def test_failed_ops_count_against_attempted():
    ledger = OpLedger()
    for reason in (None, "wrong output", None, "RuntimeError: boom"):
        ledger.record(reason)
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.error_rate == 0.5


def test_teardown_failure_fails_the_last_op():
    ledger = OpLedger()
    ledger.record(None)
    ledger.record(None)
    ledger.teardown("FileNotFoundError: segment gone")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.reasons == ["teardown: FileNotFoundError: segment gone"]


def test_teardown_failure_after_a_failed_op_is_not_counted_twice():
    ledger = OpLedger()
    ledger.record("wrong output")
    ledger.teardown("FileNotFoundError: segment gone")
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert len(ledger.reasons) == 2


def test_teardown_failure_without_ops_still_counts():
    ledger = OpLedger()
    ledger.teardown("OSError")
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_clean_teardown_changes_nothing():
    ledger = OpLedger()
    ledger.record(None)
    ledger.teardown(None)
    assert (ledger.attempted, ledger.failed, ledger.reasons) == (1, 0, [])


# -- names agree with BENCHMARK.json --------------------------------------
def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER


def test_every_layer_metric_is_produced():
    events = [span("op", 1, None, 0, 10)]
    traced = [{"turns": 0, "counters": {}}]
    metrics, _ = harness.per_layer_metrics(span_trees(events), traced, 0, 0.0)
    assert set(metrics) == set(harness.PER_LAYER)
    assert set(harness.SPAN_LAYERS.values()) <= set(harness.PER_LAYER)


def test_benchmark_workloads_exist():
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == harness.WORKLOADS
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)


# -- probes export through the program's tracer ---------------------------
def test_probe_spans_export_and_validate():
    from probes import Probe, timed
    from repro.distributions.uniform import UniformRows
    from repro.obs import Tracer, validate_chrome_trace

    probe = Probe(Tracer(clock=iter(range(0, 1000, 10)).__next__))
    dist = timed(UniformRows(3, 4), probe, ("sample",), "distributions")
    probe.op = 7
    with probe.span("op"):
        dist.sample(np.random.default_rng(0))
    assert not validate_chrome_trace(probe.tracer.to_chrome())
    (tree,) = span_trees(probe.tracer.events())
    assert tree["op"] == 7 and tree["layers"] == {"distributions.sample_s": 10}
    assert type(dist).__mro__[1] is UniformRows


# -- the derandomized clique check ----------------------------------------
def test_clique_check_accepts_the_protocol_and_rejects_a_tampered_output():
    from repro.cliques.subsample import PlantedCliqueSubsampleProtocol
    from repro.core import run_protocol
    from repro.distributions.planted_clique import PlantedClique
    from workloads import DerandCliqueScalar, appendix_b_outputs

    n, k = DerandCliqueScalar.N, DerandCliqueScalar.K
    adjacency = PlantedClique(n, k).sample(np.random.default_rng(5))
    result = run_protocol(
        PlantedCliqueSubsampleProtocol(k), adjacency, rng=np.random.default_rng(6)
    )
    allowed = appendix_b_outputs(adjacency, k)
    assert all(output in allowed for output in result.outputs)
    claimed = result.outputs[0]
    outsider = next(v for v in range(n) if v not in claimed)
    assert claimed | {outsider} not in allowed
