"""Hierarchical span tracing over *simulated* time.

Every span, instant and counter sample carries the simulated times its
caller passes (:meth:`Tracer.span_at`, :meth:`Tracer.instant`,
:meth:`Tracer.counter`), never the host's wall clock — so two identical
runs produce byte-identical traces, and a trace from a laptop is
comparable to a trace from CI.

The default tracer everywhere is :data:`NULL_TRACER`, a shared
:class:`NullTracer` whose every method is a no-op: instrumented code
paths stay on a "call one empty method" budget when tracing is off, and
record nothing.  A real :class:`Tracer` feeds a
:class:`~repro.obs.recorder.FlightRecorder`, which exports JSONL and
Chrome trace-event JSON (`chrome://tracing` / Perfetto).

Tracing never touches model state or simulated clocks: enabling it
cannot change a trajectory or a ``max_rank_time`` — the property the
acceptance tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from .recorder import FlightRecorder


class NullTracer:
    """The disabled tracer: records nothing, costs (almost) nothing.

    All instrumentation sites accept a tracer defaulting to the shared
    :data:`NULL_TRACER` instance, and hot paths may additionally guard
    on :attr:`enabled` to skip argument construction entirely.
    """

    enabled: bool = False
    recorder: "FlightRecorder | None" = None

    def span_at(self, track: str, name: str, t0: float, t1: float,
                cat: str = "span", **args: Any) -> None:
        """Record a completed span with explicit simulated times (no-op)."""

    def instant(self, track: str, name: str, t: float,
                cat: str = "event", **args: Any) -> None:
        """Record an instant event (no-op)."""

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        """Record a counter sample (no-op)."""


#: The process-wide disabled tracer (the default at every call site).
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """The enabled tracer: every event lands in a flight recorder.

    Parameters
    ----------
    name:
        Name for the freshly created flight recorder.
    recorder:
        Destination :class:`~repro.obs.recorder.FlightRecorder`; a fresh
        one (named ``name``) is created when omitted.
    """

    enabled = True

    def __init__(self, name: str = "trace",
                 recorder: "FlightRecorder | None" = None) -> None:
        if recorder is None:
            from .recorder import FlightRecorder

            recorder = FlightRecorder(name)
        self.recorder = recorder

    def span_at(self, track: str, name: str, t0: float, t1: float,
                cat: str = "span", **args: Any) -> None:
        """Record a completed span [t0, t1] in simulated seconds."""
        self.recorder.record(track, name, cat, "X", t0,
                             dur=max(0.0, t1 - t0), args=args or None)

    def instant(self, track: str, name: str, t: float,
                cat: str = "event", **args: Any) -> None:
        """Record an instant event at simulated time ``t``."""
        self.recorder.record(track, name, cat, "i", t, args=args or None)

    def counter(self, track: str, name: str, t: float, value: float) -> None:
        """Record a counter sample (e.g. LDM occupancy) at time ``t``."""
        self.recorder.record(track, name, "counter", "C", t,
                             args={"value": float(value)})
