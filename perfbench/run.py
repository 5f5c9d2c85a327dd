"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is used from ``src`` as it is
(nothing to build).  Set-up is timed in ``SETUP_SAMPLES`` fresh
processes, the last of which then runs the timed window; ``setup_s`` is
their median.  Op times are reported in reference units (see
``reference.py``), and also in wall-clock units, which are not gated.
Prints a table with every metric's unit and sample count, then one
``REPORT`` line of JSON with provenance (also written to
``perfbench/out/``), then, as the last line, the result object:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  Exits non-zero without a result if anything other than
an op fails.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WALL_CLOCK,
    WORKLOADS,
    latency_summary,
    provenance,
    reference_s,
)

#: Fresh processes timed through set-up; the last one also measures.
SETUP_SAMPLES = 3
#: Every process this run starts must be done by then (the limit is 180 s).
TIME_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def run_child(root: Path, args: argparse.Namespace, role: str, deadline: float) -> tuple[float, dict]:
    """Start one session process; return its set-up time and result."""
    command = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--role", role,
    ]
    if role == "measure" and args.trace:
        command += ["--trace-out", str(HERE / "out" / f"trace-{args.workload}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    start = time.perf_counter()
    # Its own process group, so worker processes it starts go down with it.
    child = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    setup_s = None
    result = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([child.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise ChildFailed(f"{role} process ran past the time limit")
            line = child.stdout.readline()
            if not line:
                break
            if not line.startswith("{"):
                continue
            message = json.loads(line)
            if message.get("event") == "ready":
                setup_s = time.perf_counter() - start
            elif message.get("event") == "result":
                result = message
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        child.stdout.close()
    if code != 0 or setup_s is None or result is None:
        raise ChildFailed(f"{role} process exited with {code} before reporting")
    return setup_s, result


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {root / 'src' / 'repro'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    attempted = failed = 0
    reasons: list[str] = []
    try:
        for sample in range(SETUP_SAMPLES):
            role = "measure" if sample == SETUP_SAMPLES - 1 else "setup"
            setup_s, result = run_child(root, args, role, deadline)
            setups.append(setup_s)
            attempted += result["attempted"]
            failed += result["failed"]
            reasons += result["reasons"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    latency = latency_summary(result["latencies_s"])
    scaled_s = reference_s(result["latencies_s"], result["kernels_s"])
    scaled = latency_summary(scaled_s)
    values = {
        "trials_per_ref_s": result["trials"] / sum(scaled_s),
        "op_p50_ref_ms": scaled["op_p50_ms"],
        "op_tail_ref_ms": scaled["op_tail_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "trials_per_s": result["trials"] / result["busy_s"],
        "op_p50_ms": latency["op_p50_ms"],
        "op_tail_ms": latency["op_tail_ms"],
    }
    error_rate = failed / attempted
    correct = failed == 0
    ops = latency["samples"]
    tail_note = (f"p{latency['tail_percentile']:.1f} of {ops} ops, "
                 f"{latency['tail_beyond']} beyond")
    notes = {
        "trials_per_ref_s": f"{result['trials']} trials in {ops} ops",
        "op_p50_ref_ms": f"median of {ops} ops",
        "op_tail_ref_ms": tail_note,
        "setup_s": f"median of {SETUP_SAMPLES} set-ups",
        "peak_rss_mb": "caller process",
        "trials_per_s": "wall clock, not gated",
        "op_p50_ms": "wall clock, not gated",
        "op_tail_ms": f"wall clock, not gated; {tail_note}",
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops attempted, {failed} failed; reference kernel "
          f"median {1000.0 * statistics.median(result['kernels_s']):.3f} ms")
    for name, unit in {**END_TO_END, **WALL_CLOCK}.items():
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<7} ({notes[name]})")
    print(f"  {'error_rate':<16} {error_rate:>12.4f}{'':9}"
          f"({failed} of {attempted} ops)")
    for reason in reasons:
        print(f"  failed: {reason}")

    report = {
        "provenance": provenance(root, args.workload, args.seed, result["numpy"]),
        "seconds": args.seconds,
        "trace": args.trace,
        "end_to_end": values,
        "error_rate": error_rate,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "ops": ops,
        "tail_percentile": latency["tail_percentile"],
        "tail_beyond": latency["tail_beyond"],
        "setup_samples_s": setups,
        "latencies_ms": [1000.0 * v for v in result["latencies_s"]],
        "kernels_ms": [1000.0 * v for v in result["kernels_s"]],
    }
    if args.trace:
        metrics = {name: result["per_layer"][name] for name in PER_LAYER}
        accounting = result["accounting"]
        report.update(
            per_layer=metrics,
            accounting=accounting,
            trace_problems=result["trace_problems"],
        )
        print(f"  traced {accounting['ops']} ops: worst unattributed share "
              f"{accounting['worst']:.4f} (tolerance {accounting['tolerance']})")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
        for problem in result["trace_problems"]:
            print(f"  trace problem: {problem}")
        correct = correct and accounting["ok"] and not result["trace_problems"]
        out = {name: {"value": metrics[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        out = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    report["correct"] = correct
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2), encoding="utf-8"
    )
    print("REPORT " + json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
