"""Pure bookkeeping for the benchmark: no numpy, no ``repro`` imports.

Everything here is arithmetic over numbers the session process measured —
latency summaries, the tail-percentile rule, self-time attribution of
exported spans, failure counting and provenance — so it can be unit
tested without running a workload (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import datetime
import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from reference import REFERENCE_MS

#: The workloads ``workloads.py`` defines, by name.
WORKLOADS = (
    "prg_attack_vectorized",
    "derand_clique_scalar",
    "rank_sweep_fleet",
    "rank_sweep_pool",
)

#: End-to-end metrics a run reports with ``--trace 0``: name -> unit.
#: Op times are in reference units (see ``reference.py``); set-up time
#: and memory are as measured.
END_TO_END = {
    "trials_per_ref_s": "1/ref_s",
    "op_p50_ref_ms": "ref_ms",
    "op_tail_ref_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The same op times in wall-clock units: printed and in the report, but
#: not gated, because the host's speed swings spread them too widely.
WALL_CLOCK = {
    "trials_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

#: Per-layer metrics a run reports with ``--trace 1``: name -> unit.  All
#: times and counts are per op (the mean over the run's traced ops).
PER_LAYER = {
    "distributions.sample_s": "s",
    "distributions.samples": "count",
    "linalg.kernel_s": "s",
    "linalg.kernel_share": "ratio",
    "core.engine.self_s": "s",
    "core.simulator.self_s": "s",
    "core.simulator.turns": "count",
    "core.simulator.ns_per_turn": "ns",
    "prg.derandomize.self_s": "s",
    "cliques.payload_s": "s",
    "infotheory.estimate_s": "s",
    "exec.map_s": "s",
    "exec.publish_s": "s",
    "exec.compute_s": "s",
    "exec.overhead_s": "s",
    "exec.parallel_efficiency": "ratio",
    "exec.publish_frames": "count",
    "exec.publish_bytes": "B",
    "exec.publish_reuse": "count",
    "exec.steals": "count",
    "exec.requeues": "count",
    "exec.errors": "count",
    "exec.handshakes": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Span-name prefix -> the per-layer self-time metric it is charged to.
#: Longest prefix wins; the root ``op`` span's own time is unattributed.
SPAN_LAYERS = {
    "core.engine.": "core.engine.self_s",
    "distributions.": "distributions.sample_s",
    "linalg.": "linalg.kernel_s",
    "core.simulator.": "core.simulator.self_s",
    "prg.derandomize.": "prg.derandomize.self_s",
    "cliques.payload.": "cliques.payload_s",
    "infotheory.": "infotheory.estimate_s",
    "exec.map": "exec.map_s",
    "exec.publish": "exec.publish_s",
}

#: Name of the root span of one timed op, and of the serial rerun of the
#: same op that exec workloads use as their single-threaded baseline.
OP_SPAN = "op"
BASELINE_SPAN = "exec.compute"

#: ROADMAP item 1: per-layer self times must add up to the op's wall
#: time within this share.
ACCOUNTING_TOLERANCE = 0.05

#: The tail percentile is the highest one with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail(samples: list[float], min_beyond: int = TAIL_MIN_BEYOND) -> dict:
    """The highest percentile of ``samples`` with ``min_beyond`` above it.

    Uses the nearest-rank order statistic: with ``n`` sorted samples the
    value at 1-based rank ``n - min_beyond`` has exactly ``min_beyond``
    samples beyond it, and is the ``100 * (n - min_beyond) / n``-th
    percentile.  A run too short to have such a sample reports its
    maximum with ``beyond`` below ``min_beyond``, so the shortfall shows.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - min_beyond if n > min_beyond else n
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "beyond": n - rank,
        "samples": n,
    }


def latency_summary(samples_s: list[float]) -> dict:
    """Median and tail of per-op latencies given in seconds, in ms."""
    ms = [1000.0 * s for s in samples_s]
    tail_stats = tail(ms)
    return {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_stats["value"],
        "tail_percentile": tail_stats["percentile"],
        "tail_beyond": tail_stats["beyond"],
        "samples": len(ms),
    }


def reference_s(latencies_s: list[float], kernels_s: list[float]) -> list[float]:
    """Per-op latencies in reference seconds: each op's wall time scaled
    by ``REFERENCE_MS`` over the reference kernel's time around that op
    (both in seconds)."""
    if len(latencies_s) != len(kernels_s):
        raise ValueError("one kernel time per op is needed")
    return [
        latency * (REFERENCE_MS / 1000.0) / kernel
        for latency, kernel in zip(latencies_s, kernels_s)
    ]


def layer_of(name: str) -> "str | None":
    """The per-layer metric a span's self time is charged to."""
    best = None
    for prefix, metric in SPAN_LAYERS.items():
        if name.startswith(prefix) and (best is None or len(prefix) > len(best)):
            best = prefix
    return None if best is None else SPAN_LAYERS[best]


def span_trees(events: list[dict]) -> list[dict]:
    """Per root span: its wall time and the self time of every layer.

    ``events`` are :meth:`repro.obs.Tracer.events` span records whose
    args carry ``id``, ``parent`` (``None`` on roots) and ``op``.  A
    span's self time is its duration minus the durations of its direct
    children, so each nanosecond of a root's wall time is charged to
    exactly one span.  Returns one dict per root, in start order, with
    ``name``, ``op``, ``wall_ns``, ``unattributed_ns`` (the root's own
    self time) and ``layers`` (metric -> self ns), plus ``spans`` (span
    name -> [count, total ns]).
    """
    spans = [e for e in events if e.get("type") == "span"]
    by_id = {e["args"]["id"]: e for e in spans}
    child_ns: dict[int, int] = {}
    for e in spans:
        parent = e["args"]["parent"]
        if parent is not None:
            if parent not in by_id:
                raise ValueError(f"span {e['args']['id']} has unknown parent {parent}")
            child_ns[parent] = child_ns.get(parent, 0) + _dur(e)

    def root_of(e: dict) -> dict:
        while e["args"]["parent"] is not None:
            e = by_id[e["args"]["parent"]]
        return e

    trees: dict[int, dict] = {}
    for e in sorted(spans, key=lambda e: e["start_ns"]):
        root = root_of(e)
        tree = trees.setdefault(
            root["args"]["id"],
            {
                "name": root["name"],
                "op": root["args"]["op"],
                "wall_ns": _dur(root),
                "unattributed_ns": 0,
                "layers": {},
                "spans": {},
            },
        )
        self_ns = _dur(e) - child_ns.get(e["args"]["id"], 0)
        if self_ns < 0:
            raise ValueError(f"children of span {e['name']!r} outlast it")
        entry = tree["spans"].setdefault(e["name"], [0, 0])
        entry[0] += 1
        entry[1] += _dur(e)
        if e is root:
            tree["unattributed_ns"] += self_ns
            continue
        metric = layer_of(e["name"])
        if metric is None:
            raise ValueError(f"span {e['name']!r} belongs to no layer")
        tree["layers"][metric] = tree["layers"].get(metric, 0) + self_ns
    return list(trees.values())


def _dur(event: dict) -> int:
    return event["end_ns"] - event["start_ns"]


def accounting_error(tree: dict) -> float:
    """How far the layer self times fall short of the root's wall time,
    as a share of it (0 = every nanosecond attributed to a layer)."""
    attributed = sum(tree["layers"].values())
    return abs(tree["wall_ns"] - attributed) / tree["wall_ns"]


class OpLedger:
    """Counts attempted and failed ops for ``error_rate``.

    An op fails if it raises, if its output fails the workload's
    correctness check, or if releasing what it used fails at teardown.
    Teardown is not an op of its own: a teardown failure is charged to
    the last op attempted, unless that op had already failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._last_failed = False

    def record(self, reason: "str | None") -> None:
        """One finished op; ``reason`` is ``None`` when it succeeded."""
        self.attempted += 1
        self._last_failed = reason is not None
        if reason is not None:
            self.failed += 1
            self.reasons.append(reason)

    def teardown(self, reason: "str | None") -> None:
        """The outcome of releasing the run's resources after its ops."""
        if reason is None:
            return
        self.reasons.append(f"teardown: {reason}")
        if self.attempted == 0:
            self.attempted = 1
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def source_digest(root: Path) -> str:
    """sha256 over the program and benchmark sources, path-sorted.

    The benchmark usually runs in an exported tree without git metadata,
    so this content hash is the provenance that survives there.
    """
    digest = hashlib.sha256()
    for directory in ("src", "perfbench"):
        for path in sorted((root / directory).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(root: Path, workload: str, seed: int, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": workload,
        "seed": seed,
    }


def per_layer_metrics(
    trees: list[dict], traced_ops: list[dict], workers: int, overhead_share: float
) -> tuple[dict, dict]:
    """The ``--trace 1`` metrics, per traced op, and the accounting check.

    ``trees`` come from :func:`span_trees`; ``traced_ops`` holds, per
    traced op, its simulated ``turns``, exec ``counters`` deltas and, for
    exec workloads, ``baseline_turns`` of its serial rerun.  Exec
    workloads simulate in worker processes the caller cannot see into,
    so their simulator figures come from the serial rerun
    (:data:`BASELINE_SPAN` trees), which is also ``exec.compute_s``.
    """
    ops = [t for t in trees if t["name"] == OP_SPAN]
    baselines = [t for t in trees if t["name"] == BASELINE_SPAN]
    if not ops:
        raise ValueError("no traced ops")

    def mean_layer(source: list[dict], metric: str) -> float:
        if not source:
            return 0.0
        return sum(t["layers"].get(metric, 0) for t in source) / len(source) / 1e9

    def mean_spans(source: list[dict], name: str, field: int) -> float:
        return sum(t["spans"].get(name, [0, 0])[field] for t in source) / len(source)

    metrics = {name: 0.0 for name in PER_LAYER}
    for metric in set(SPAN_LAYERS.values()):
        metrics[metric] = mean_layer(ops, metric)
    metrics["distributions.samples"] = mean_spans(ops, "distributions.sample", 0)
    run_batch_s = mean_spans(ops, "core.engine.run_batch", 1) / 1e9
    if run_batch_s:
        metrics["linalg.kernel_share"] = metrics["linalg.kernel_s"] / run_batch_s

    simulated = baselines if workers else ops
    turns_key = "baseline_turns" if workers else "turns"
    metrics["core.simulator.self_s"] = mean_layer(simulated, "core.simulator.self_s")
    metrics["core.simulator.turns"] = (
        sum(op.get(turns_key, 0) for op in traced_ops) / len(traced_ops)
    )
    if metrics["core.simulator.turns"]:
        metrics["core.simulator.ns_per_turn"] = (
            1e9 * metrics["core.simulator.self_s"] / metrics["core.simulator.turns"]
        )

    if workers and baselines:
        compute_s = sum(t["wall_ns"] for t in baselines) / len(baselines) / 1e9
        metrics["exec.compute_s"] = compute_s
        map_s = metrics["exec.map_s"]
        metrics["exec.overhead_s"] = map_s - compute_s / workers
        if map_s:
            metrics["exec.parallel_efficiency"] = compute_s / (workers * map_s)
    for name in traced_ops[0]["counters"]:
        metrics[name] = sum(op["counters"][name] for op in traced_ops) / len(traced_ops)

    errors = [accounting_error(t) for t in ops]
    metrics["trace.unattributed_share"] = statistics.median(errors)
    metrics["trace.overhead_share"] = overhead_share
    accounting = {
        "tolerance": ACCOUNTING_TOLERANCE,
        "ops": len(ops),
        "worst": max(errors),
        "ok": max(errors) <= ACCOUNTING_TOLERANCE,
    }
    return metrics, accounting
