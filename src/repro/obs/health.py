"""The run health monitor: per-step rules over engine telemetry.

A chaos run can be bitwise correct and still be *sick* — workers
respawning every step, one slot doing all the work, heartbeats aging
toward the hang deadline.  :class:`HealthMonitor` turns the engine's
``describe()`` snapshot plus its heartbeat-age samples into an
ok/warn/critical :class:`HealthReport` that CI can gate on and humans
can read next to the recovery narration.

Rules (DESIGN.md §13):

- **heartbeat-age p99 / max** — warn past ``hb_warn`` seconds,
  critical past ``hb_critical`` (a pool whose heartbeats routinely age
  toward the hang deadline is about to start false-positive respawns);
- **compute imbalance** — max/mean of per-worker busy seconds across
  workers that did work; only evaluated with >= 2 busy workers and a
  non-trivial total, so tiny smoke runs don't alarm on scheduler noise;
- **recovery counters** — any respawn, crash, hang, timeout,
  redistribution, re-execution, corrupt or non-finite result is a
  *warn* (the run survived; you should still know);
- **degrades** — a runtime pool degrade (timeout / worker-loss /
  respawn-budget / dispatch) is **critical**: the run silently lost
  its parallelism.  A *startup* or *platform* degrade is only a warn —
  falling back to serial on a 1-core machine is expected behaviour,
  and CI smoke jobs gate on "no critical", not "no fallback";
- **task errors** — per-worker error counts warn.

Severity ordering is ``ok < warn < critical``; the report's verdict is
the worst finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .telemetry import quantile

__all__ = ["HealthFinding", "HealthReport", "HealthMonitor", "SEVERITIES"]

#: Severity levels, worst last.
SEVERITIES = ("ok", "warn", "critical")

#: Degrade kinds that mean "expected serial fallback", not "lost the
#: pool at runtime".
_BENIGN_DEGRADES = frozenset({"startup", "platform"})


@dataclass(frozen=True)
class HealthFinding:
    """One triggered rule."""

    severity: str
    rule: str
    message: str
    value: float = 0.0

    def to_json(self) -> dict:
        return {"severity": self.severity, "rule": self.rule,
                "message": self.message, "value": self.value}


@dataclass
class HealthReport:
    """The monitor's verdict plus every triggered finding."""

    verdict: str = "ok"
    findings: list[HealthFinding] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add(self, severity: str, rule: str, message: str,
            value: float = 0.0) -> None:
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self.findings.append(HealthFinding(severity, rule, message, value))
        if SEVERITIES.index(severity) > SEVERITIES.index(self.verdict):
            self.verdict = severity

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "findings": [f.to_json() for f in self.findings],
            "stats": dict(self.stats),
        }

    def render(self) -> str:
        lines = [f"health: {self.verdict.upper()} "
                 f"({len(self.findings)} finding(s))"]
        for f in self.findings:
            lines.append(f"  [{f.severity}] {f.rule}: {f.message}")
        return "\n".join(lines)


class HealthMonitor:
    """Evaluate health rules over an engine snapshot.

    Thresholds are constructor knobs so a test (or a stricter CI gate)
    can tighten them without touching the rules.
    """

    def __init__(
        self,
        *,
        hb_warn: float = 1.0,
        hb_critical: float = 5.0,
        imbalance_warn: float = 3.0,
        imbalance_critical: float = 10.0,
        min_busy_seconds: float = 0.01,
    ) -> None:
        self.hb_warn = float(hb_warn)
        self.hb_critical = float(hb_critical)
        self.imbalance_warn = float(imbalance_warn)
        self.imbalance_critical = float(imbalance_critical)
        self.min_busy_seconds = float(min_busy_seconds)

    # -- rule evaluation ----------------------------------------------------

    def evaluate(self, desc: dict, hb_samples=None) -> HealthReport:
        """Evaluate every rule over a ``describe()``-shaped snapshot."""
        report = HealthReport()
        hb_samples = list(hb_samples or [])
        self._check_heartbeats(report, hb_samples)
        self._check_imbalance(report, desc.get("per_worker") or [])
        self._check_recovery(report, desc.get("recovery") or {})
        self._check_degrades(report, desc)
        self._check_errors(report, desc.get("per_worker") or [])
        report.stats = {
            "workers": desc.get("workers", 0),
            "active": bool(desc.get("active", False)),
            "tasks_parallel": desc.get("tasks_parallel", 0),
            "tasks_serial": desc.get("tasks_serial", 0),
            "heartbeat_samples": len(hb_samples),
            "heartbeat_age_p99": quantile(hb_samples, 0.99),
            "heartbeat_age_max": max(hb_samples, default=0.0),
        }
        return report

    def evaluate_engine(self, engine) -> HealthReport:
        """Evaluate an engine directly (describe + heartbeat samples).

        Falls back to the supervisor's live heartbeat ages when telemetry
        sampled none at reply arrival — a supervised pool is
        health-checkable even with telemetry off.
        """
        hb, supervisor = engine._hb_samples, engine.supervisor
        if not hb and supervisor is not None:
            hb = [
                supervisor.heartbeat_age(h.slot)
                for h in supervisor.handles if h is not None
            ]
        return self.evaluate(engine.describe(), hb)

    # -- individual rules ---------------------------------------------------

    def _check_heartbeats(self, report: HealthReport, samples: list) -> None:
        if not samples:
            return
        p99 = quantile(samples, 0.99)
        worst = max(samples)
        if p99 > self.hb_critical:
            report.add("critical", "heartbeat-age",
                       f"heartbeat age p99 {p99:.2f}s exceeds critical "
                       f"threshold {self.hb_critical:.2f}s", p99)
        elif p99 > self.hb_warn:
            report.add("warn", "heartbeat-age",
                       f"heartbeat age p99 {p99:.2f}s exceeds warn "
                       f"threshold {self.hb_warn:.2f}s", p99)
        elif worst > self.hb_critical:
            report.add("warn", "heartbeat-age",
                       f"worst heartbeat age {worst:.2f}s exceeds "
                       f"{self.hb_critical:.2f}s", worst)

    def _check_imbalance(self, report: HealthReport, per_worker: list) -> None:
        busy = [w.get("busy_seconds", 0.0) for w in per_worker
                if w.get("tasks", 0) > 0]
        total = sum(busy)
        if len(busy) < 2 or total < self.min_busy_seconds:
            return
        mean = total / len(busy)
        ratio = max(busy) / mean if mean > 0 else 0.0
        if ratio > self.imbalance_critical:
            report.add("critical", "compute-imbalance",
                       f"worker busy-time imbalance {ratio:.1f}x "
                       f"(max/mean over {len(busy)} busy workers)", ratio)
        elif ratio > self.imbalance_warn:
            report.add("warn", "compute-imbalance",
                       f"worker busy-time imbalance {ratio:.1f}x "
                       f"(max/mean over {len(busy)} busy workers)", ratio)

    def _check_recovery(self, report: HealthReport, recovery: dict) -> None:
        for key in ("respawns", "crashes", "hangs", "timeouts",
                    "redistributed_tasks", "reexecuted_tasks",
                    "corrupt_results"):
            n = recovery.get(key, 0)
            if n:
                report.add("warn", f"recovery.{key}",
                           f"{n} {key.replace('_', ' ')} during the run",
                           float(n))

    def _check_degrades(self, report: HealthReport, desc: dict) -> None:
        if desc.get("recovery", {}).get("pool_degrades", 0):
            report.add("critical", "pool-degrade",
                       "the pool degraded to serial at runtime: "
                       f"{desc.get('fallback_reason')}",
                       float(desc["recovery"]["pool_degrades"]))
        for kind, n in sorted((desc.get("degrade_reasons") or {}).items()):
            if not n:
                continue
            severity = "warn" if kind in _BENIGN_DEGRADES else "critical"
            report.add(severity, f"degrade.{kind}",
                       f"{n} degrade(s) of kind {kind!r} "
                       f"({desc.get('fallback_reason')})", float(n))

    def _check_errors(self, report: HealthReport, per_worker: list) -> None:
        for w in per_worker:
            n = w.get("errors", 0)
            if n:
                report.add("warn", "task-errors",
                           f"worker {w.get('worker')} reported {n} "
                           f"task error(s)", float(n))
