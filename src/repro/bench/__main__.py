"""CLI: run the benchmark suite, write baselines, gate regressions.

Usage::

    python -m repro.bench                                  # run + print
    python -m repro.bench --out BENCH_homme.json           # write baseline
    python -m repro.bench --quick --compare BENCH_homme.json   # CI gate
    python -m repro.bench --quick --compare BENCH_homme.json \\
        --out bench_current.json --threshold 0.25

Exit status: 0 when no gate was requested or the gate passed, 1 on a
regression (wall-clock beyond threshold in calibrated units, simulated
drift beyond 1%, or a derived speedup below its committed floor), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .compare import compare_reports, load_report
from .suite import run_suite, render_report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Deterministic benchmark runner for the HOMME hot path "
                    "(fused vs batched execution, Table-1 kernels).",
    )
    p.add_argument("--quick", action="store_true",
                   help="fewer repeats (the CI-gate configuration)")
    p.add_argument("--repeats", type=int, default=None, metavar="N",
                   help="override the repeat count for wall-clock benchmarks")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report JSON to PATH")
    p.add_argument("--compare", default=None, metavar="BASELINE",
                   help="gate against a committed BENCH_*.json baseline")
    p.add_argument("--threshold", type=float, default=0.25, metavar="FRAC",
                   help="wall-clock regression threshold in calibrated units "
                        "(default 0.25 = 25%%)")
    return p


def main(argv: list[str] | None = None) -> int:
    ns = _parser().parse_args(sys.argv[1:] if argv is None else argv)
    report = run_suite(quick=ns.quick, repeats=ns.repeats)
    print(render_report(report))
    if ns.out:
        with open(ns.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"\n[bench] wrote {ns.out}")
    if ns.compare:
        try:
            baseline = load_report(ns.compare)
        except (OSError, ValueError) as e:
            print(f"\n[bench] cannot load baseline: {e}")
            return 2
        ok, lines = compare_reports(report, baseline, wall_threshold=ns.threshold)
        print(f"\n[bench] comparison against {ns.compare}:")
        for line in lines:
            print(f"  {line}")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
