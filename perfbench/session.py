"""One benchmark process: set a workload up, run its ops, report.

Started by ``run.py`` (never by hand), with ``src`` on ``PYTHONPATH``.
Talks to the parent in JSON lines on stdout: ``{"event": "ready"}`` the
moment set-up (imports, executor and workers, first op) is done — the
parent times set-up up to that line — then one ``{"event": "result"}``.

``--role setup`` stops after set-up and teardown; ``--role measure``
then runs the timed window, sampling the reference kernel
(``reference.py``) before the first op and after every op.  With
``--trace 1`` the window alternates untraced and traced ops: the
untraced ones give the tracing overhead, the traced ones the per-layer
attribution.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    import numpy as np

    from harness import OpLedger
    from workloads import WORKLOADS

    root = Path.cwd()
    workload = WORKLOADS[args.workload](args.seed, root)
    ledger = OpLedger()
    try:
        workload.setup()
        try:
            first, failure = workload.op(0), None
        except Exception as exc:  # noqa: BLE001 - a failed op, counted
            traceback.print_exc()
            first, failure = None, describe(exc)
        emit({"event": "ready"})
        ledger.record(failure if first is None else checked(workload, 0, first))
        report: dict = {}
        if args.role == "measure":
            report = measure(workload, ledger, args)
    finally:
        try:
            workload.teardown()
        except Exception as exc:  # noqa: BLE001 - counted, reported below
            traceback.print_exc()
            ledger.teardown(describe(exc))
    report.update(
        event="result",
        attempted=ledger.attempted,
        failed=ledger.failed,
        reasons=ledger.reasons[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
    )
    emit(report)
    return 0


def run_op(workload, ledger, index: int, probe) -> "tuple[float, object]":
    """One op: its latency (checks excluded) and result (``None`` on error)."""
    start = time.perf_counter()
    try:
        if probe is None:
            result = workload.op(index)
        else:
            probe.op = index
            with probe.span("op"):
                result = workload.op(index, probe)
    except Exception as exc:  # noqa: BLE001 - a failed op, counted
        latency = time.perf_counter() - start
        traceback.print_exc()
        ledger.record(describe(exc))
        return latency, None
    latency = time.perf_counter() - start
    reason = checked(workload, index, result)
    ledger.record(reason)
    return latency, (result if reason is None else None)


def checked(workload, index: int, result) -> "str | None":
    """The workload's verdict on op ``index``; a raising check fails it."""
    try:
        return workload.check(index, result)
    except Exception as exc:  # noqa: BLE001 - a failed check, counted
        return f"check raised {describe(exc)}"


#: Traced ops whose spans go into the trace file (all are validated).
TRACE_FILE_OPS = 3


def measure(workload, ledger, args) -> dict:
    from reference import kernel_s, sample

    # An op that fans out keeps the caller and its workers busy, so the
    # kernel runs on as many CPUs as they can occupy.
    cpus = None
    if workload.workers:
        cpus = sorted(os.sched_getaffinity(0))[: workload.workers + 1]
    latencies: list[float] = []
    #: The reference kernel's time around each op (see reference.py).
    kernels: list[float] = []
    previous = sample(cpus)
    traced_latencies: list[float] = []
    untraced_latencies: list[float] = []
    trials = 0
    probe = None
    if args.trace:
        from repro.obs import Tracer, validate_chrome_trace

        from harness import span_trees
        from probes import Probe

        probe = Probe(Tracer())
        trees: list[dict] = []
        problems: list[str] = []
        kept_events: list[dict] = []
    traced_ops = []
    start = time.perf_counter()
    index = 1
    # A traced run needs one traced and one untraced op at least.
    while time.perf_counter() - start < args.seconds or index <= 2 * args.trace:
        traced = probe is not None and index % 2 == 0
        if traced:
            # A tracer per op keeps the spans held in memory, and the
            # garbage-collector work they add to later ops, bounded.
            probe.tracer = Tracer()
            before = workload.counters()
        latency, result = run_op(workload, ledger, index, probe if traced else None)
        current = sample(cpus)
        kernels.append(kernel_s(previous, current))
        previous = current
        if result is not None:
            trials += workload.trials_per_op
        latencies.append(latency)
        if traced:
            traced_latencies.append(latency)
            after = workload.counters()
            record = {
                "turns": workload.turns(result) if result is not None else 0,
                "counters": {k: after[k] - before[k] for k in after},
            }
            if workload.workers:
                # The serial rerun is an op too: its output is checked
                # against the same reference.
                reason, record["baseline_turns"] = workload.baseline(index, probe)
                ledger.record(None if reason is None else f"serial baseline: {reason}")
            traced_ops.append(record)
            chrome = probe.tracer.to_chrome()
            problems += validate_chrome_trace(chrome)
            if len(traced_ops) <= TRACE_FILE_OPS:
                kept_events += chrome["traceEvents"]
            trees += span_trees(probe.tracer.events())
        elif probe is not None:
            untraced_latencies.append(latency)
        index += 1
    report = {
        "window_s": time.perf_counter() - start,
        "latencies_s": latencies,
        "kernels_s": kernels,
        "trials": trials,
        "busy_s": sum(latencies),
    }
    if probe is not None:
        from harness import per_layer_metrics

        report["trace_problems"] = problems[:10]
        if args.trace_out:
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.trace_out).write_text(
                json.dumps({"traceEvents": kept_events, "displayTimeUnit": "ms"}),
                encoding="utf-8",
            )
        overhead = (
            statistics.median(traced_latencies) / statistics.median(untraced_latencies)
            - 1.0
        )
        report["per_layer"], report["accounting"] = per_layer_metrics(
            trees, traced_ops, workload.workers, overhead
        )
    return report


if __name__ == "__main__":
    sys.exit(main())
