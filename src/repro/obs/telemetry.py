"""Determinism canonicalization of wall-clock telemetry.

The worker pool's telemetry (DESIGN.md §13) is derived by the driver
from the four ``perf_counter`` stamps every pool reply carries, so it
is wall-clock by nature: raw traces from two identical runs differ in
timestamps and arrival order while agreeing on *structure*.
:func:`canonical_trace_jsonl` and :func:`canonical_metrics_jsonl`
project the wall-clock-dependent fields out (zeroed timestamps,
scrubbed volatile args, dropped profile tracks, sorted rows) so the
byte-identity determinism tests can compare what is actually promised
to be deterministic — the event structure.
"""

from __future__ import annotations

import json

from ..utils.logging import jsonable as _jsonable

__all__ = [
    "WALL_TRACKS",
    "canonical_trace_jsonl",
    "canonical_metrics_jsonl",
    "quantile",
]


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
#: timing (ages, durations, in-flight depths, free-text details) rather
#: than run structure.  A worker span's ``ctx`` (the rank it served) is
#: structure and stays.
_VOLATILE_ARGS = frozenset({
    "value", "detail", "reason", "why", "redistributed", "age",
    "seconds", "depth",
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
