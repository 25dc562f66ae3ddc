"""Timing primitives and result containers for ``repro.bench``.

Wall-clock numbers are noisy; the harness fights that three ways:

- **min-of-repeats** — each benchmark runs ``repeats`` times after a
  warmup and reports the minimum, the standard low-noise estimator for
  compute-bound kernels;
- **deterministic workloads** — every benchmark builds its inputs from
  fixed seeds, so two runs time the same arithmetic;
- **machine calibration** — a fixed numpy workload is timed alongside
  the suite and stored in the report; comparisons divide wall times by
  it, so a committed baseline from one machine gates a CI run on
  another (both speed up or slow down together).

Simulated-clock benchmarks bypass all three: the backend cost models
are pure functions of the workload, bit-stable across machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["BenchResult", "time_wall", "machine_calibration"]

#: Report schema identifier written into every BENCH_*.json.
SCHEMA = "repro.bench/1"


@dataclass
class BenchResult:
    """One benchmark measurement.

    ``clock`` is ``"wall"`` (seconds of real time, calibration-
    normalizable) or ``"simulated"`` (deterministic model seconds).
    ``floor``/``ceiling`` optionally bound a *derived* metric (e.g. the
    fused/batched speedup must stay >= its floor for the gate to
    pass).
    """

    name: str
    clock: str
    seconds: float
    repeats: int = 1
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = {"name": self.name, "clock": self.clock, "seconds": self.seconds,
             "repeats": self.repeats}
        if self.meta:
            d["meta"] = self.meta
        return d

    @classmethod
    def from_json(cls, d: dict) -> "BenchResult":
        return cls(
            name=d["name"], clock=d["clock"], seconds=float(d["seconds"]),
            repeats=int(d.get("repeats", 1)), meta=dict(d.get("meta", {})),
        )


def time_wall(
    fn: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
    setup: Callable[[], object] | None = None,
) -> float:
    """Min-of-``repeats`` wall time of ``fn()`` in seconds.

    ``setup`` (untimed) runs before every timed call — used to reset
    mutated state so each repeat times identical work.
    """
    for _ in range(warmup):
        if setup is not None:
            setup()
        fn()
    best = float("inf")
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def machine_calibration(repeats: int = 9) -> float:
    """Wall time of a fixed reference workload on this machine.

    A mix of the operations the suite actually times (stacked 4x4
    matmuls, elementwise arithmetic, reductions) over a deterministic
    array.  Stored in every report; comparisons work in calibrated
    units (``seconds / calibration``), making baselines portable
    across machines of different speed.
    """
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((2048, 8, 4, 4))
    d = rng.standard_normal((4, 4))

    def work():
        x = np.matmul(a, d)
        y = np.matmul(d, a)
        z = x * y + 0.5 * a
        return float(z.sum())

    return time_wall(work, repeats=repeats, warmup=1)
