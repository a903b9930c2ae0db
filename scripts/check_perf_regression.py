#!/usr/bin/env python
"""Gate benchmark speedups against checked-in reference ratios.

Usage::

    python scripts/check_perf_regression.py \
        benchmarks/results/<bench>.metrics.json \
        benchmarks/references/<bench>.reference.json

Compares the *speedup ratios* of a fresh benchmark run (any envelope
with per-workload ``speedup`` figures; its one caller is ``bench_fleet``,
with its locality and fairness ratios) against the reference file.  Ratios, not wall times, are
the gated quantity: absolute throughput varies wildly across hosts and
CI runners, but "the optimization makes the same pass N times faster on
the same machine in the same process" is stable — so a collapse of the
ratio means the optimization itself regressed.

The tolerance is deliberately generous (a workload fails only when its
speedup drops below ``reference / tolerance_factor``, 3x by default):
small smoke streams lose some of the ratio to fixed setup costs, and
this gate exists to catch "the optimization stopped helping", not 10%
noise.  Exit status 1 on any regression, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check(metrics_path: Path, reference_path: Path) -> int:
    """Validate one metrics envelope; returns a process exit status."""
    envelope = json.loads(metrics_path.read_text())
    reference = json.loads(reference_path.read_text())
    figures = envelope.get("metrics", envelope)
    workloads = figures.get("workloads")
    if not isinstance(workloads, dict):
        print(f"FAIL {metrics_path}: no 'workloads' figures in envelope")
        return 1
    tolerance = float(reference.get("tolerance_factor", 3.0))
    failures = []
    for name, expected in sorted(reference["speedups"].items()):
        if name not in workloads:
            failures.append(f"{name}: missing from the benchmark run")
            continue
        measured = float(workloads[name]["speedup"])
        floor = float(expected) / tolerance
        verdict = "ok" if measured >= floor else "REGRESSED"
        print(
            f"  {name}: speedup {measured:.2f}x "
            f"(reference {expected:.2f}x, floor {floor:.2f}x) {verdict}"
        )
        if measured < floor:
            failures.append(
                f"{name}: speedup {measured:.2f}x fell below {floor:.2f}x "
                f"(reference {expected:.2f}x / tolerance {tolerance:.0f}x)"
            )
    if failures:
        print(f"FAIL {metrics_path}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK {metrics_path}: speedups within tolerance")
    return 0


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    return check(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
