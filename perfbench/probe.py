"""Fresh-interpreter probe of the fracbvp benchmark; run.py starts it.

It times importing fracbvp and running the workload's warm-up ops (the
first scored op of each case) in a new interpreter, so per-process work such
as the case-4 oracle build shows in set-up time.  With ``--trace-blocks B``
it then runs the first B blocks of the workload's op stream with spans
recorded and reports the per-layer metrics, each op's outcome and duration.
It prints one JSON object.

Set-up time is reported at reference speed (see speed.py), scaled by
readings of the ``python`` kernel, the one that needs no numpy, taken just
before the imports and just after the warm-up.  A traced op's time is
reported as measured, as the spans are, and also at reference speed.
"""

import time

import speed

BEFORE = speed.reading("python", passes=9)
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-blocks", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    workloads.WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace_blocks else None
    outcomes = []
    with tracer.installed() if tracer else nullcontext():
        checker, stream = workloads.warmed_up(workload, args.seed)
        raw_setup_s = time.perf_counter() - T0
        after = speed.reading("python", passes=9)
        ops = [op for _, block in zip(range(args.trace_blocks), stream)
               for op in block]
        gauge = speed.Gauge(workload.gauge)
        for index, op in enumerate(ops):
            tracer.op = index
            outcomes.append(workload.execute(op))
            gauge.after_op()
            checker(op, outcomes[-1])

    setup_s = speed.to_reference(raw_setup_s, "python", (BEFORE + after) / 2)
    result = {"setup_s": setup_s, "raw_setup_s": raw_setup_s,
              "attempted": checker.attempted, "failures": checker.failures}
    if tracer:
        result.update(
            restored=tracer.restored(),
            absent=tracer.absent + sorted(tracer.unreadable),
            absent_spans=sorted(tracer.absent_spans() | tracer.unreadable),
            oracle_build_s=tracer.first_duration("cases.sup_error",
                                                 case="case4"),
            layers=tracer.layer_metrics(len(ops)),
            seconds=[o.seconds for o in outcomes],
            scaled_seconds=gauge.scaled([o.seconds for o in outcomes]),
            signatures=[o.signature for o in outcomes])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
