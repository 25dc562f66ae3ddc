"""The metrics registry: one namespace over every counter in the stack.

The simulator components each keep their own tallies — ``PerfCounters``
for the CPE cluster, ``DMAEngine`` traffic, ``LDM`` high-water marks,
``SimMPI`` message counts, the ``FaultInjector`` event log.  :class:`MetricsRegistry` unifies them
under dotted names (``dma.get.bytes``, ``mpi.retransmissions``,
``ldm.high_water``) so an experiment can snapshot, merge, and render
all of them at once.

Three metric kinds, with deterministic merge semantics for aggregating
across ranks / core groups:

- :class:`Counter` — monotonically increasing totals; merge **sums**;
- :class:`Gauge` — instantaneous levels with a tracked peak; merge
  takes the **max** (occupancy/high-water semantics);
- :class:`Histogram` — log2-bucketed size/latency distributions; merge
  adds bucket counts.

The ``collect_*`` helpers pull each simulator component's counters into
a registry under its canonical prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from .telemetry import quantile


@dataclass
class Counter:
    """Monotonic total (bytes moved, messages sent, faults fired)."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {n})")
        self.value += n


@dataclass
class Gauge:
    """Instantaneous level with a peak (LDM occupancy, queue depth)."""

    name: str
    value: float = 0.0
    peak: float = 0.0

    def set(self, v: float) -> None:
        self.value = v
        self.peak = max(self.peak, v)


@dataclass
class Histogram:
    """Log2-bucketed distribution (message sizes, wait times).

    Bucket ``b`` counts observations in ``[2^b, 2^(b+1))``; bucket 0
    additionally holds everything below 1.  Exact count/total/min/max
    ride along for summary statistics.
    """

    name: str
    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, v: float) -> None:
        if v < 0:
            raise ValueError(f"histogram {self.name!r} takes non-negative values")
        b = 0 if v < 1.0 else int(v).bit_length() - 1
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += v
        self.min = min(self.min, v)
        self.max = max(self.max, v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Create-on-first-use registry of named metrics."""

    def __init__(self, name: str = "metrics") -> None:
        self.name = name
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- access ----------------------------------------------------------------

    def _get(self, name: str, cls):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} is a {type(m).__name__}, not a {cls.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def inc(self, name: str, n: float = 1.0) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: float) -> None:
        self.histogram(name).observe(v)

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter/gauge (histograms: the mean)."""
        m = self._metrics.get(name)
        if m is None:
            return default
        if isinstance(m, Histogram):
            return m.mean
        return m.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- aggregation --------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (rank/core-group reduce).

        Counters sum, gauges take the max of value and peak, histograms
        add bucket counts.  Returns ``self`` for chaining.
        """
        for name, m in other._metrics.items():
            if isinstance(m, Counter):
                self.counter(name).inc(m.value)
            elif isinstance(m, Gauge):
                g = self.gauge(name)
                g.value = max(g.value, m.value)
                g.peak = max(g.peak, m.peak)
            else:
                h = self.histogram(name)
                for b, n in m.buckets.items():
                    h.buckets[b] = h.buckets.get(b, 0) + n
                h.count += m.count
                h.total += m.total
                h.min = min(h.min, m.min)
                h.max = max(h.max, m.max)
        return self

    @staticmethod
    def merged(registries: Iterable["MetricsRegistry"],
               name: str = "merged") -> "MetricsRegistry":
        """Reduce a sequence of per-rank registries into a fresh one."""
        out = MetricsRegistry(name)
        for reg in registries:
            out.merge(reg)
        return out

    @staticmethod
    def from_snapshot(snap: dict[str, Any],
                      name: str = "metrics") -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        The inverse the ``python -m repro.obs merge``/``diff`` CLI needs
        to operate on metrics artifacts written by earlier runs.
        """
        reg = MetricsRegistry(name)
        for key, val in snap.items():
            if isinstance(val, (int, float)):
                reg.counter(key).inc(float(val))
            elif isinstance(val, dict) and "peak" in val:
                g = reg.gauge(key)
                g.value = float(val.get("value", 0.0))
                g.peak = float(val.get("peak", g.value))
            elif isinstance(val, dict) and "buckets" in val:
                h = reg.histogram(key)
                h.count = int(val.get("count", 0))
                h.total = float(val.get("mean", 0.0)) * h.count
                h.min = float(val.get("min", 0.0)) if h.count else float("inf")
                h.max = float(val.get("max", 0.0)) if h.count else float("-inf")
                h.buckets = {int(b): int(n)
                             for b, n in val.get("buckets", {}).items()}
            else:
                raise ValueError(f"unrecognized snapshot entry {key!r}: {val!r}")
        return reg

    # -- export ----------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One canonical JSON object per metric (sorted, stable keys)."""
        import json

        snap = self.snapshot()
        lines = [
            json.dumps({"name": k, "value": snap[k]},
                       sort_keys=True, separators=(",", ":"))
            for k in sorted(snap)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view keyed by metric name (sorted, JSON-friendly)."""
        out: dict[str, Any] = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                out[name] = m.value
            elif isinstance(m, Gauge):
                out[name] = {"value": m.value, "peak": m.peak}
            else:
                out[name] = {
                    "count": m.count, "mean": m.mean,
                    "min": m.min if m.count else 0.0,
                    "max": m.max if m.count else 0.0,
                    "buckets": {str(b): n for b, n in sorted(m.buckets.items())},
                }
        return out

    def render(self) -> str:
        """Human-readable one-metric-per-line summary."""
        lines = [f"MetricsRegistry {self.name!r} ({len(self._metrics)} metrics)"]
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Counter):
                lines.append(f"  {name} = {m.value:g}")
            elif isinstance(m, Gauge):
                lines.append(f"  {name} = {m.value:g} (peak {m.peak:g})")
            else:
                lines.append(
                    f"  {name}: n={m.count} mean={m.mean:g} "
                    f"max={m.max if m.count else 0.0:g}"
                )
        return "\n".join(lines)


# -- component collectors ------------------------------------------------------


def collect_simmpi(reg: MetricsRegistry, mpi) -> MetricsRegistry:
    """Fold a :class:`~repro.network.simmpi.SimMPI`'s tallies into ``reg``."""
    reg.inc("mpi.messages.sent", mpi.messages_sent)
    reg.inc("mpi.bytes.sent", mpi.bytes_sent)
    reg.inc("mpi.messages.dropped", mpi.messages_dropped)
    reg.inc("mpi.messages.delayed", mpi.messages_delayed)
    reg.inc("mpi.retransmissions", mpi.retransmissions)
    for wait in mpi.comm_seconds:
        reg.inc("mpi.comm.seconds", wait)
    reg.set_gauge("mpi.time.max", mpi.max_time())
    return reg


def collect_dma(reg: MetricsRegistry, engine) -> MetricsRegistry:
    """Fold a :class:`~repro.sunway.dma.DMAEngine`'s traffic into ``reg``."""
    reg.inc("dma.get.bytes", engine.bytes_get)
    reg.inc("dma.put.bytes", engine.bytes_put)
    reg.inc("dma.transfers", engine.transfer_count)
    reg.inc("dma.cycles", engine.total_cycles)
    reg.inc("dma.corrupted_transfers", engine.corrupted_transfers)
    return reg


def collect_ldm(reg: MetricsRegistry, ldm) -> MetricsRegistry:
    """Fold an :class:`~repro.sunway.ldm.LDM`'s occupancy into ``reg``."""
    g = reg.gauge("ldm.used")
    g.set(float(ldm.used))
    reg.gauge("ldm.high_water").set(float(ldm.high_water))
    reg.gauge("ldm.capacity").set(float(ldm.capacity))
    return reg


def collect_perf_counters(reg: MetricsRegistry, pc) -> MetricsRegistry:
    """Fold a :class:`~repro.sunway.perf.PerfCounters` into ``reg``."""
    reg.inc("perf.dp_flops", pc.dp_flops)
    reg.inc("perf.vector_instructions", pc.vector_instructions)
    reg.inc("dma.get.bytes", pc.dma_bytes_get)
    reg.inc("dma.put.bytes", pc.dma_bytes_put)
    reg.gauge("ldm.high_water").set(float(pc.ldm_high_water))
    reg.inc("perf.cycles", pc.cycles)
    reg.set_gauge("perf.degradation", pc.degradation)
    return reg


def collect_parallel_engine(reg: MetricsRegistry, engine) -> MetricsRegistry:
    """Fold a :class:`~repro.parallel.engine.ParallelEngine` into ``reg``.

    Whole-pool tallies under ``parallel.*`` plus per-worker counters
    under ``parallel.worker.<i>.*``, read from the engine's one
    per-worker ledger (:class:`~repro.parallel.engine.WorkerStats`) —
    these are *wall-clock* quantities (the pool runs on real cores),
    unlike the simulated-time ``mpi.*`` family.
    """
    reg.set_gauge("parallel.workers", engine.workers)
    reg.set_gauge("parallel.active", 1.0 if engine.active else 0.0)
    reg.inc("parallel.calls", engine.calls)
    reg.inc("parallel.tasks.parallel", engine.tasks_parallel)
    reg.inc("parallel.tasks.serial", engine.tasks_serial)
    for key, value in engine.transport.items():
        reg.inc(f"parallel.transport.{key}", value)
    # Self-healing tallies (DESIGN.md §12): what the supervisor saw and
    # did, plus a labelled counter per degrade reason — the full history,
    # not just the engine's last fallback_reason string.
    for key, value in engine.recovery.items():
        reg.inc(f"parallel.recovery.{key}", value)
    for kind, count in engine.degrade_kinds.items():
        reg.inc(f"parallel.degrade.reason.{kind}", count)
    for s in engine.stats:
        prefix = f"parallel.worker.{s.worker}"
        reg.inc(f"{prefix}.tasks", s.tasks)
        reg.inc(f"{prefix}.busy_seconds", s.busy_seconds)
        reg.inc(f"{prefix}.unpack.seconds", s.unpack_seconds)
        reg.inc(f"{prefix}.compute.seconds", s.compute_seconds)
        reg.inc(f"{prefix}.bytes_in", s.bytes_in)
        reg.inc(f"{prefix}.bytes_out", s.bytes_out)
        reg.inc(f"{prefix}.errors", s.errors)
        reg.inc(f"{prefix}.respawns", s.respawns)
        reg.set_gauge(f"{prefix}.generation", s.generation)
        reg.set_gauge(f"{prefix}.queue_depth.peak", s.queue_peak)
    # Cross-process telemetry (DESIGN.md §13): heartbeat ages sampled at
    # each reply's arrival and the profile tallies.
    hb = engine._hb_samples
    if hb:
        reg.set_gauge("parallel.heartbeat.age.max", max(hb))
        reg.set_gauge("parallel.heartbeat.age.p99", quantile(hb, 0.99))
    reg.inc("parallel.telemetry.packets", engine.telemetry_packets)
    reg.inc("parallel.profile.samples", engine.profile_samples)
    if engine.supervisor is not None:
        collect_supervisor(reg, engine.supervisor)
    return reg


def collect_supervisor(reg: MetricsRegistry, supervisor) -> MetricsRegistry:
    """Fold a :class:`~repro.parallel.supervisor.WorkerSupervisor`'s
    live view into ``reg``: respawn totals, live-slot count, and the
    driver-side heartbeat age and generation per slot."""
    reg.inc("parallel.supervisor.respawns", supervisor.respawns)
    reg.set_gauge("parallel.supervisor.slots", supervisor.nslots)
    reg.set_gauge("parallel.supervisor.live", len(supervisor.live_slots()))
    for h in supervisor.handles:
        if h is None:
            continue
        prefix = f"parallel.worker.{h.slot}"
        reg.set_gauge(f"{prefix}.heartbeat_age",
                      max(0.0, supervisor.heartbeat_age(h.slot)))
        reg.set_gauge(f"{prefix}.generation", h.generation)
    return reg
