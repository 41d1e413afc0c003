"""Write reference_errors.json: the sup errors of the current sources at
every grid the workloads use, the bound of the benchmark's output check.

Run from the root of a checkout, once per accepted change of accuracy:

    python3 perfbench/derive_reference_errors.py

It takes a few minutes: IFOI case 4 at n = 10^4 alone takes seconds.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import (REFERENCE_ERRORS_JSON, WORKLOADS, LargeGridWorkload,
                       fracbvp)

PAPER_NS = (40, 50, 80, 100, 200)
# at most a ratio 1.04 between neighbours, so every grid of a range has
# reference samples within a factor 1.1; FDM gets more because its errors
# above n = 4e4 scatter with round-off and the bound takes the largest near n
SAMPLES_PER_RANGE = {"ifoi": 42, "fdm": 400}


def main() -> None:
    ranges = {w.method: (w.lo, w.hi) for w in WORKLOADS.values()
              if isinstance(w, LargeGridWorkload)}
    table = {}
    for method, (lo, hi) in sorted(ranges.items()):
        grid = np.geomspace(lo, hi, SAMPLES_PER_RANGE[method]).round()
        ns = sorted(set(PAPER_NS) | {int(n) for n in grid})
        for case in "1234":
            rows = []
            for n in ns:
                config = fracbvp.bench.RunConfig(case, method=method, n=n)
                report, = fracbvp.bench.run_quiet(config)
                if report.status != "converged":
                    raise SystemExit(f"case {case} {method} n={n}: "
                                     f"{report.status}")
                rows.append([n, report.sup_error])
            table[f"{case}/{method}"] = rows
            print(f"case {case} {method}: {len(rows)} grids", flush=True)
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                        for k, v in table.items())
    REFERENCE_ERRORS_JSON.write_text("{\n" + lines + "\n}\n",
                                     encoding="utf-8")
    print(f"wrote {REFERENCE_ERRORS_JSON}")


if __name__ == "__main__":
    main()
