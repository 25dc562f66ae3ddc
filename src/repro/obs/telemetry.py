"""Cross-process telemetry: the worker->driver wire format.

The parallel engine's workers are forked processes; before this module
their execution was *inferred* driver-side from result timestamps.
Telemetry closes the gap: each worker owns a tiny in-process
instrumentation kit (:class:`WorkerTelemetry`) and ships a compact
**telemetry packet** back with every result over the existing result
queue — no extra channel, no extra synchronization.

Wire format (DESIGN.md §13)
---------------------------

A result-queue item grows one trailing field::

    (tid, slot, status, data, crc, t0, t1, fn_name, packet)

``packet`` is ``None`` when telemetry is off (the engine keeps the old
8-tuple readable for compatibility) and otherwise a plain dict:

- ``pid`` — the worker's OS pid (drives the per-process Perfetto track);
- ``gen`` — the worker's respawn generation;
- ``hb_age`` — seconds since the worker's own heartbeat stamp, sampled
  at send time (the worker-side view the driver's p99 rule consumes);
- ``spans`` — tuple of ``(name, t0, t1)`` in-worker sub-spans
  (``unpack``, ``compute``) in ``time.perf_counter()`` seconds, which
  on Linux is ``CLOCK_MONOTONIC`` and therefore directly comparable to
  the driver's clock across the fork;
- ``metrics`` — flat ``name -> delta`` counter increments;
- ``profile`` / ``samples`` — a :meth:`SamplingProfiler.drain` delta.

Everything in a packet is plain data (str/int/float/tuple/dict): it
pickles through ``SimpleQueue`` untouched and merges deterministically.

Determinism canonicalization
----------------------------

Telemetry is wall-clock by nature, so raw traces from two identical
runs differ in timestamps and arrival order while agreeing on
*structure*.  :func:`canonical_trace_jsonl` and
:func:`canonical_metrics_jsonl` project the wall-clock-dependent fields
out (zeroed timestamps, scrubbed volatile args, dropped profile tracks,
sorted rows) so the byte-identity determinism tests can compare what is
actually promised to be deterministic — the event structure.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..utils.logging import jsonable as _jsonable
from .profiler import PROFILE_HZ, SamplingProfiler

__all__ = [
    "TelemetrySpec",
    "WorkerTelemetry",
    "WALL_TRACKS",
    "canonical_trace_jsonl",
    "canonical_metrics_jsonl",
    "quantile",
]


@dataclass(frozen=True)
class TelemetrySpec:
    """What the workers should measure (picklable; crosses the fork).

    ``enabled`` turns on per-task sub-spans, metric deltas, and
    heartbeat-age reporting; ``profile_hz > 0`` additionally runs a
    :class:`~repro.obs.profiler.SamplingProfiler` against the worker's
    task loop at that rate.
    """

    enabled: bool = False
    profile_hz: float = 0.0

    @property
    def live(self) -> bool:
        return self.enabled or self.profile_hz > 0


class WorkerTelemetry:
    """The in-worker instrumentation kit (built inside ``_worker_main``).

    Owns the worker-side sampling profiler and assembles one packet per
    completed task.  Never touches task *data* — telemetry runs beside
    the compute, which is how enabling it cannot perturb the bitwise
    serial==parallel contract.
    """

    def __init__(self, spec: TelemetrySpec, slot: int, generation: int,
                 hb_view) -> None:
        self.spec = spec
        self.slot = slot
        self.generation = generation
        self.hb_view = hb_view
        self.pid = os.getpid()
        self.profiler: SamplingProfiler | None = None
        if spec.profile_hz > 0:
            self.profiler = SamplingProfiler(
                hz=spec.profile_hz or PROFILE_HZ).start()

    def packet(self, spans: tuple = (),
               metrics: dict | None = None) -> dict:
        """Assemble one telemetry packet (rides the result tuple)."""
        profile: dict = {}
        samples = 0
        if self.profiler is not None:
            profile, samples = self.profiler.drain()
        hb_age = 0.0
        if self.hb_view is not None:
            hb_age = max(0.0, time.monotonic() - float(self.hb_view[self.slot]))
        return {
            "pid": self.pid,
            "gen": self.generation,
            "hb_age": hb_age,
            "spans": tuple(spans),
            "metrics": dict(metrics or {}),
            "profile": profile,
            "samples": samples,
        }

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.stop()
            self.profiler = None


def quantile(samples, q: float) -> float:
    """Nearest-rank quantile of a sequence (0 for an empty one)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(q * len(ordered)))
    return float(ordered[idx])


# ---------------------------------------------------------------------------
# Determinism canonicalization
# ---------------------------------------------------------------------------

#: Track names (exact or ``prefix/``) whose events are stamped with the
#: *wall* clock — the explicitly whitelisted nondeterministic family.
#: Everything else is simulated time and must be byte-identical raw.
WALL_TRACKS = ("worker/", "supervisor", "health", "profile")

#: Argument keys on wall-track events whose values depend on wall-clock
#: timing (ages, durations, in-flight depths, free-text details) or on
#: process-global counters (the shared-context registry key) rather
#: than run structure.
_VOLATILE_ARGS = frozenset({
    "value", "detail", "reason", "why", "redistributed", "age",
    "seconds", "depth", "ctx",
})


def _is_wall_track(track: str) -> bool:
    return any(
        track == p.rstrip("/") or track.startswith(p)
        for p in WALL_TRACKS
    )


def canonical_trace_jsonl(recorder) -> str:
    """Project a recorder to its deterministic structure, as JSONL.

    Two runs of the same seeded workload must produce byte-identical
    output: profile tracks are dropped wholesale (sample counts are
    statistical), wall-track timestamps/durations are zeroed and their
    volatile args scrubbed, the recording-order ``seq`` is omitted, and
    rows are sorted — so neither wall-clock values nor result arrival
    order can leak into the comparison, while every span, instant, and
    counter the run *structurally* produced still must match.
    """
    rows: list[str] = []
    for e in recorder.events:
        track = e.track
        if track == "profile" or track.startswith("profile/"):
            continue
        wall = _is_wall_track(track)
        args = {
            k: v for k, v in _jsonable(e.args or {}).items()
            if not (wall and k in _VOLATILE_ARGS)
        } if e.args else {}
        rows.append(json.dumps({
            "track": track,
            "name": e.name,
            "cat": e.cat,
            "ph": e.ph,
            "ts": 0.0 if wall else e.ts,
            "dur": 0.0 if wall else e.dur,
            "args": args,
        }, sort_keys=True, separators=(",", ":")))
    rows.sort()
    return "\n".join(rows) + ("\n" if rows else "")


#: Metric-name markers whose values are wall-clock measurements.
_VOLATILE_METRIC_MARKERS = (
    "seconds", "heartbeat", "profile", "busy", "depth", "age", "samples",
)


def canonical_metrics_jsonl(registry) -> str:
    """Deterministic projection of a metrics snapshot, as JSONL.

    Metrics whose names mark them as wall-clock quantities (durations,
    heartbeat ages, profile samples, queue depths) are reduced to their
    *presence*; everything else keeps its value.  One sorted JSON row
    per metric, byte-comparable across runs.
    """
    snap = registry.snapshot()
    rows = []
    for name in sorted(snap):
        volatile = any(m in name for m in _VOLATILE_METRIC_MARKERS)
        rows.append(json.dumps(
            {"name": name, "value": "wall" if volatile else _jsonable(snap[name])},
            sort_keys=True, separators=(",", ":"),
        ))
    return "\n".join(rows) + ("\n" if rows else "")
