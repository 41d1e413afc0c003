"""The fracbvp benchmark: one closed-loop client in one thread.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  It measures the sources under ``src``
beside it; there is nothing to build.  Workloads: ``paper``, ``ifoi-large``
and ``fdm-large`` (see workloads.py and NOTES.md).

``--trace 0`` prints the end-to-end metrics.  Set-up time is the median of
three fresh interpreters that import fracbvp and run the first scored op of
each case; this process then does the same warm-up untimed and runs whole
blocks of ops until ``--seconds`` have passed, checking every op.

``--trace 1`` prints the per-layer metrics.  This process runs the op stream
untraced for half of ``--seconds``; a fresh interpreter then replays the
same ops with spans recorded.  Outcomes must be bit-identical between the
two, and the tracing overhead is reported.

Times are at reference speed: each op's time is scaled by a gauge of the
machine's speed read on either side of it (see speed.py), so that the
host's own drift does not move the figures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import speed
import workloads
from tracing import LAYER_METRICS

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150


def probe(workload: workloads.Workload, seed: int, trace_blocks: int = 0) -> dict:
    """Run probe.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(workloads.HERE / "probe.py"),
           "--workload", workload.name, "--seed", str(seed)]
    if trace_blocks:
        cmd += ["--trace-blocks", str(trace_blocks)]
    done = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: probe exited with {done.returncode}\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def timed_phase(workload, checker, stream, seconds: float):
    """Whole blocks of ops until ``seconds`` have passed; every op is
    checked and the machine's speed gauged between ops, off the op's own
    clock.  Returns the ops, their outcomes, their times at reference speed,
    the number that passed the check and the number of blocks."""
    ops, outcomes, passed, blocks = [], [], 0, 0
    gauge = speed.Gauge(workload.gauge)
    start = time.perf_counter()
    while blocks == 0 or time.perf_counter() - start < seconds:
        for op in next(stream):
            ops.append(op)
            outcomes.append(workload.execute(op))
            gauge.after_op()
            passed += checker(op, outcomes[-1])
        blocks += 1
    scaled = gauge.scaled([o.seconds for o in outcomes])
    return ops, outcomes, scaled, passed, blocks


def end_to_end(workload, seed: int, seconds: float) -> dict:
    setups = [probe(workload, seed) for _ in range(SETUP_PROBES)]
    checker, stream = workloads.warmed_up(workload, seed)
    ops, outcomes, scaled, passed, _ = timed_phase(workload, checker, stream,
                                                   seconds)

    latencies = np.array(scaled)
    raw = np.array([o.seconds for o in outcomes])
    attempted = checker.attempted + sum(s["attempted"] for s in setups)
    failures = checker.failures + [f for s in setups for f in s["failures"]]
    print(f"{len(ops)} timed ops; op_ms.tail is p{workload.tail_pct:g}; "
          f"failed_frac {len(failures) / attempted:g} ratio")
    print(f"times below are at reference speed; as measured, op_ms.p50 "
          f"{np.median(raw) * 1e3:.6g} ms, setup_s "
          f"{statistics.median(s['raw_setup_s'] for s in setups):.6g} s")
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_s": (passed / latencies.sum(), "1/s"),
        "op_ms.p50": (np.median(latencies) * 1e3, "ms"),
        "op_ms.tail": (np.percentile(latencies, workload.tail_pct) * 1e3, "ms"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "failures": failures, "metrics": metrics}


def per_layer(workload, seed: int, seconds: float) -> dict:
    checker, stream = workloads.warmed_up(workload, seed)
    ops, outcomes, scaled, _, blocks = timed_phase(workload, checker, stream,
                                                   seconds / 2)
    traced = probe(workload, seed, trace_blocks=blocks)

    failures = checker.failures + traced["failures"]
    # JSON turns tuples into lists; floats survive it bit for bit
    untraced_signatures = json.loads(json.dumps([o.signature for o in outcomes]))
    mismatched = [str(op) for op, a, b in zip(ops, untraced_signatures,
                                                traced["signatures"]) if a != b]
    if len(traced["signatures"]) != len(ops):
        mismatched.append(f"traced run made {len(traced['signatures'])} ops, "
                          f"untraced {len(ops)}")
    failures += [f"{m}: traced outcome differs" for m in mismatched]
    if not traced["restored"]:
        failures.append("a wrapped name was not restored after the traced run")
    if traced["absent"]:
        print(f"absent wrapped names: {', '.join(traced['absent'])}",
              file=sys.stderr)

    untraced_s = sum(scaled)
    traced_s = sum(traced["scaled_seconds"])
    absent_spans = set(traced["absent_spans"])
    metrics = {
        name: (0.0 if set(spans) <= absent_spans else traced["layers"][name],
               unit)
        for name, (unit, spans, _) in LAYER_METRICS.items()}
    metrics.update({
        "cases.oracle_build_s": (traced["oracle_build_s"] or 0.0, "s"),
        # as measured, like the spans whose self times add up to it
        "trace.op_ms": (sum(traced["seconds"]) / len(ops) * 1e3, "ms"),
        "trace.ops_per_s_untraced": (len(ops) / untraced_s, "1/s"),
        "trace.ops_per_s_traced": (len(ops) / traced_s, "1/s"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1.0) * 100.0, "%"),
        "trace.absent_wraps": (len(traced["absent"]), "count"),
    })
    print(f"{len(ops)} ops untraced, then replayed traced in a fresh "
          f"interpreter; per-layer figures are per op")
    attempted = checker.attempted + traced["attempted"]
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "failures": failures, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"numpy {np.__version__}")
    workloads.fresh_work_dir()
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    for failure in result.pop("failures")[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<30} {value:14.6g} {unit}")
    result["metrics"] = {name: {"value": float(value), "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
