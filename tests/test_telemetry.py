"""Tests for cross-process telemetry (DESIGN.md §13).

The contract under test: every pool reply carries four perf_counter
stamps (and a profile delta when profiling); the driver derives the
worker spans, heartbeat ages and per-worker tallies from them into one
multi-process Chrome trace and one ledger; a seeded chaos run
with full telemetry stays bitwise identical to serial AND produces
byte-identical canonical artifacts across repeated runs; the health
monitor turns engine state into an ok/warn/critical verdict.
"""

import importlib.util
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import KernelError
from repro.obs import (
    HealthMonitor,
    MetricsRegistry,
    NullTracer,
    SamplingProfiler,
    Tracer,
    collect_parallel_engine,
    merge_profiles,
    quantile,
    render_profile,
    validate_chrome_trace,
)
from repro.obs.profiler import frame_key
from repro.obs.telemetry import canonical_metrics_jsonl, canonical_trace_jsonl
from repro.parallel import ParallelEngine, run_scenario, worker_track

REPO = Path(__file__).resolve().parent.parent


def _scale_task(ctx, meta, arr):
    return (arr * meta["k"],)


def _fail_task(ctx, meta, arr):
    raise ValueError("task failed on purpose")


def _spin(seconds):
    t0 = time.perf_counter()
    x = 0.0
    while time.perf_counter() - t0 < seconds:
        x += 1.0
    return x


# ---------------------------------------------------------------------------
# sampling profiler
# ---------------------------------------------------------------------------


class TestSamplingProfiler:
    def test_frame_key_keeps_last_two_path_parts(self):
        assert frame_key("/a/b/c/engine.py", "run") == "c/engine.py:run"
        assert frame_key("engine.py", "run") == "engine.py:run"

    def test_samples_busy_main_thread(self):
        with SamplingProfiler(hz=250.0) as prof:
            _spin(0.15)
        undrained = prof.samples
        frames, samples = prof.drain()
        assert samples > 0
        assert undrained == samples
        assert prof.samples == 0  # drain resets
        # The busy loop is the leaf most of the time; its frame carries
        # this file's name.
        assert any("test_telemetry.py" in k for k in frames)
        total_self = sum(s for s, _ in frames.values())
        assert total_self == samples

    def test_drain_resets(self):
        prof = SamplingProfiler(hz=200.0)
        prof.start()
        _spin(0.05)
        prof.stop()
        frames, n = prof.drain()
        assert n > 0 and frames
        frames2, n2 = prof.drain()
        assert n2 == 0 and frames2 == {}

    def test_samples_named_thread(self):
        box = {}

        def worker():
            box["tid"] = threading.get_ident()
            _spin(0.1)

        t = threading.Thread(target=worker)
        t.start()
        while "tid" not in box:
            time.sleep(0.001)
        with SamplingProfiler(hz=250.0, thread_id=box["tid"]) as prof:
            t.join()
        frames, samples = prof.drain()
        assert samples >= 0  # thread may exit before first tick on slow boxes
        if samples:
            assert any("test_telemetry.py" in k for k in frames)

    def test_merge_profiles_folds_counts(self):
        a = {"x:f": (2, 5)}
        merge_profiles(a, {"x:f": (1, 1), "y:g": (3, 3)})
        assert a == {"x:f": (3, 6), "y:g": (3, 3)}

    def test_render_profile(self):
        text = render_profile({"x:f": (3, 4), "y:g": (1, 4)}, 4)
        assert "x:f" in text and "75.0%" in text


class TestQuantile:
    def test_empty(self):
        assert quantile([], 0.99) == 0.0

    def test_nearest_rank(self):
        xs = list(range(100))
        assert quantile(xs, 0.0) == 0
        assert quantile(xs, 0.99) == 99
        assert quantile(xs, 0.5) == 50
        assert quantile([7.0], 0.99) == 7.0


# ---------------------------------------------------------------------------
# engine telemetry derived from the reply stamps
# ---------------------------------------------------------------------------


class _CountingNullTracer(NullTracer):
    """A disabled tracer that counts the events it is still handed."""

    def __init__(self):
        self.calls = 0

    def span_at(self, *args, **kwargs):
        self.calls += 1

    def instant(self, *args, **kwargs):
        self.calls += 1

    def counter(self, *args, **kwargs):
        self.calls += 1


class TestEngineTelemetry:
    def test_disabled_by_default_zero_cost(self):
        tr = _CountingNullTracer()
        e = ParallelEngine(workers=2, tracer=tr, label="notel")
        try:
            if not e.active:
                pytest.skip(f"pool fell back: {e.fallback_reason}")
            e.run(_scale_task, [({"k": 2.0}, (np.arange(4.0),))] * 4)
            d = e.describe()
            assert d["telemetry"]["enabled"] is False
            assert d["telemetry"]["packets"] == 0
            assert e.telemetry is False
            # Untraced: no worker span, no counter, no heartbeat sample.
            assert tr.calls == 0
            assert e._hb_samples == [] and e.profile_frames == {}
            # The ledger still counts every task once.
            assert sum(w["tasks"] for w in d["per_worker"]) == d["tasks_parallel"]
        finally:
            e.close()

    def test_packets_spans_and_counters(self):
        tr = Tracer("tel")
        e = ParallelEngine(workers=2, tracer=tr, profile_hz=200.0,
                           label="tel")
        try:
            if not e.active:
                pytest.skip(f"pool fell back: {e.fallback_reason}")
            outs = e.run(
                _scale_task, [({"k": 3.0}, (np.arange(8.0),))] * 6)
            assert all(np.array_equal(o[0], np.arange(8.0) * 3.0)
                       for o in outs)
            d = e.describe()["telemetry"]
            assert d["enabled"] and d["packets"] >= 6
            assert e._hb_samples and min(e._hb_samples) >= 0.0

            rec = tr.recorder
            # Each task's span plus its unpack / compute sub-spans on
            # the per-worker tracks, derived from the reply's stamps.
            names_by_track = {}
            for ev in rec.events:
                names_by_track.setdefault(ev.track, set()).add(ev.name)
            for w in range(2):
                assert {"_scale_task", "unpack", "compute"} <= \
                    names_by_track[worker_track(w)]
            # Heartbeat-age and queue-depth counter tracks.
            health_names = names_by_track["health"]
            assert any(n.startswith("heartbeat.age.") for n in health_names)
            assert any(n.startswith("queue.depth.") for n in health_names)
            # Worker processes registered with distinct real pids.
            pids = {rec._procs[worker_track(w)][0] for w in range(2)}
            assert len(pids) == 2 and all(p > 0 for p in pids)
            per = e.describe()["per_worker"]
            assert all(w["queue_peak"] >= 1 for w in per)
            assert all(s.compute_seconds > 0 for s in e.stats)
        finally:
            e.close()
        # close() flushed the profile frames as counter events.
        if e.profile_samples:
            assert any(ev.track == "profile" for ev in tr.recorder.events)

    def test_chrome_export_multiprocess(self):
        tr = Tracer("tel")
        e = ParallelEngine(workers=2, tracer=tr, label="tel")
        try:
            if not e.active:
                pytest.skip(f"pool fell back: {e.fallback_reason}")
            e.run(_scale_task, [({"k": 2.0}, (np.arange(4.0),))] * 4)
        finally:
            e.close()
        ct = tr.recorder.chrome_trace()
        assert validate_chrome_trace(ct) == []
        procs = {ev["pid"] for ev in ct["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "process_name"}
        assert len(procs) >= 3  # driver + two workers
        # ts monotone per (pid, tid) in file order.
        last = {}
        for ev in ct["traceEvents"]:
            if ev.get("ph") == "M":
                continue
            key = (ev["pid"], ev["tid"])
            assert ev["ts"] >= last.get(key, float("-inf"))
            last[key] = ev["ts"]


# ---------------------------------------------------------------------------
# health monitor
# ---------------------------------------------------------------------------


def _desc(**over):
    base = {
        "workers": 2, "active": True,
        "fallback_reason": None, "degrade_reasons": {}, "recovery": {},
        "calls": 1, "tasks_parallel": 8, "tasks_serial": 0,
        "per_worker": [
            {"worker": 0, "tasks": 4, "busy_seconds": 1.0, "errors": 0},
            {"worker": 1, "tasks": 4, "busy_seconds": 1.0, "errors": 0},
        ],
    }
    base.update(over)
    return base


class TestHealthMonitor:
    def test_clean_run_is_ok(self):
        rep = HealthMonitor().evaluate(_desc())
        assert rep.ok and rep.verdict == "ok" and rep.findings == []
        assert rep.stats["workers"] == 2

    def test_heartbeat_thresholds(self):
        mon = HealthMonitor(hb_warn=1.0, hb_critical=5.0)
        assert mon.evaluate(_desc(), [0.1] * 10).verdict == "ok"
        rep = mon.evaluate(_desc(), [2.0] * 10)
        assert rep.verdict == "warn"
        assert rep.findings[0].rule == "heartbeat-age"
        assert mon.evaluate(_desc(), [6.0] * 10).verdict == "critical"

    def test_imbalance_needs_two_busy_workers(self):
        mon = HealthMonitor(imbalance_warn=3.0)
        # max/mean is bounded by the worker count, so skew needs a
        # wider pool than 2 to clear the 3x warn threshold.
        skewed = _desc(per_worker=[
            {"worker": 0, "tasks": 9, "busy_seconds": 10.0, "errors": 0},
            *[{"worker": w, "tasks": 1, "busy_seconds": 0.1, "errors": 0}
              for w in range(1, 4)],
        ])
        rep = mon.evaluate(skewed)
        assert rep.verdict == "warn"
        assert rep.findings[0].rule == "compute-imbalance"
        solo = _desc(per_worker=[
            {"worker": 0, "tasks": 9, "busy_seconds": 10.0, "errors": 0},
            {"worker": 1, "tasks": 0, "busy_seconds": 0.0, "errors": 0},
        ])
        assert mon.evaluate(solo).ok  # one busy worker: no ratio
        tiny = _desc(per_worker=[
            {"worker": 0, "tasks": 2, "busy_seconds": 0.004, "errors": 0},
            {"worker": 1, "tasks": 2, "busy_seconds": 0.0001, "errors": 0},
        ])
        assert mon.evaluate(tiny).ok  # under min_busy_seconds

    def test_recovery_counters_warn(self):
        rep = HealthMonitor().evaluate(
            _desc(recovery={"respawns": 1, "redistributed_tasks": 3}))
        assert rep.verdict == "warn"
        assert {f.rule for f in rep.findings} == {
            "recovery.respawns", "recovery.redistributed_tasks"}

    def test_runtime_degrade_is_critical(self):
        rep = HealthMonitor().evaluate(_desc(
            recovery={"pool_degrades": 1},
            degrade_reasons={"timeout": 1},
            fallback_reason="batch timed out",
        ))
        assert rep.verdict == "critical"
        assert {f.rule for f in rep.findings} == {
            "pool-degrade", "degrade.timeout"}

    def test_startup_degrade_is_only_warn(self):
        rep = HealthMonitor().evaluate(_desc(
            active=False, degrade_reasons={"startup": 1},
            fallback_reason="pool start failed",
        ))
        assert rep.verdict == "warn"

    def test_task_errors_warn(self):
        rep = HealthMonitor().evaluate(_desc(per_worker=[
            {"worker": 0, "tasks": 4, "busy_seconds": 1.0, "errors": 2},
            {"worker": 1, "tasks": 4, "busy_seconds": 1.0, "errors": 0},
        ]))
        assert rep.verdict == "warn"
        assert rep.findings[0].rule == "task-errors"

    def test_unknown_severity_rejected(self):
        from repro.obs import HealthReport
        with pytest.raises(ValueError):
            HealthReport().add("fatal", "x", "y")

    def test_render_and_json_roundtrip(self):
        rep = HealthMonitor().evaluate(_desc(recovery={"respawns": 1}))
        j = rep.to_json()
        assert j["verdict"] == "warn" and j["findings"][0]["value"] == 1.0
        assert "WARN" in rep.render()

    def test_evaluate_engine_serial(self):
        e = ParallelEngine(workers=0)
        assert e.health().ok


# ---------------------------------------------------------------------------
# chaos determinism: the acceptance property
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_kill_runs():
    """Two identically seeded kill-worker chaos runs with full telemetry."""
    def once():
        tr = Tracer("chaos")
        rep = run_scenario("kill-worker", workers=2, steps=2, seed=0,
                           tracer=tr)
        reg = MetricsRegistry("chaos")
        return rep, tr, reg
    return once(), once()


class TestChaosTelemetryDeterminism:
    def test_bitwise_with_telemetry_on(self, traced_kill_runs):
        (rep1, _, _), (rep2, _, _) = traced_kill_runs
        assert rep1["bitwise_identical"] and rep2["bitwise_identical"]
        assert rep1["recovery"]["respawns"] == 1

    def test_canonical_trace_byte_identical(self, traced_kill_runs):
        (_, tr1, _), (_, tr2, _) = traced_kill_runs
        c1 = canonical_trace_jsonl(tr1.recorder)
        c2 = canonical_trace_jsonl(tr2.recorder)
        assert c1 == c2
        assert c1.count("\n") > 100  # nontrivial structure survived

    def test_exactly_one_respawn_instant(self, traced_kill_runs):
        (_, tr1, _), _ = traced_kill_runs
        rows = [json.loads(line) for line in
                canonical_trace_jsonl(tr1.recorder).splitlines()]
        resp = [r for r in rows if r["ph"] in ("i", "I")
                and r["name"].startswith("respawn:")]
        assert len(resp) == 1
        assert resp[0]["track"] == "supervisor"
        assert resp[0]["name"].startswith("respawn:worker/")

    def test_heartbeat_counter_track_present(self, traced_kill_runs):
        (_, tr1, _), _ = traced_kill_runs
        rows = [json.loads(line) for line in
                canonical_trace_jsonl(tr1.recorder).splitlines()]
        hb = {r["name"] for r in rows if r["ph"] == "C"
              and r["name"].startswith("heartbeat.age.")}
        assert hb == {"heartbeat.age.w0", "heartbeat.age.w1"}

    def test_worker_spans_survive_canonicalization(self, traced_kill_runs):
        (_, tr1, _), _ = traced_kill_runs
        rows = [json.loads(line) for line in
                canonical_trace_jsonl(tr1.recorder).splitlines()]
        worker_spans = [r for r in rows if r["track"].startswith("worker/")
                        and r["ph"] == "X"]
        assert worker_spans
        assert all(r["ts"] == 0.0 and r["dur"] == 0.0 for r in worker_spans)
        # Simulated-time rank spans keep their raw timestamps.
        assert any(r["track"].startswith("rank") and r["ts"] > 0
                   for r in rows)

    def test_health_in_report(self, traced_kill_runs):
        (rep1, _, _), (rep2, _, _) = traced_kill_runs
        for rep in (rep1, rep2):
            assert rep["health"]["verdict"] == "warn"  # recovered, not sick
            rules = {f["rule"] for f in rep["health"]["findings"]}
            assert "recovery.respawns" in rules
            assert not any(f["severity"] == "critical"
                           for f in rep["health"]["findings"])


class TestCanonicalMetrics:
    def test_volatile_metrics_masked(self):
        reg = MetricsRegistry("m")
        reg.inc("parallel.tasks", 4)
        reg.set_gauge("parallel.heartbeat.age.max", 0.123)
        reg.observe("parallel.compute.seconds", 0.5)
        text = canonical_metrics_jsonl(reg)
        rows = {json.loads(line)["name"]: json.loads(line)
                for line in text.splitlines()}
        assert rows["parallel.tasks"]["value"] == 4.0
        assert rows["parallel.heartbeat.age.max"]["value"] == "wall"
        assert rows["parallel.compute.seconds"]["value"] == "wall"

    def test_engine_metrics_deterministic_shape(self, traced_kill_runs=None):
        reg = MetricsRegistry("m")
        reg.inc("a.b", 1)
        assert canonical_metrics_jsonl(reg) == canonical_metrics_jsonl(reg)


# ---------------------------------------------------------------------------
# collect_* metrics extensions
# ---------------------------------------------------------------------------


class TestCollectors:
    def test_collect_parallel_engine_telemetry_metrics(self):
        tr = Tracer("m")
        e = ParallelEngine(workers=2, tracer=tr, label="m")
        try:
            if not e.active:
                pytest.skip(f"pool fell back: {e.fallback_reason}")
            e.run(_scale_task, [({"k": 2.0}, (np.arange(4.0),))] * 4)
            reg = collect_parallel_engine(MetricsRegistry("m"), e)
            snap = reg.snapshot()
            assert snap["parallel.telemetry.packets"] >= 4
            assert "parallel.heartbeat.age.max" in snap
            assert "parallel.heartbeat.age.p99" in snap
            assert "parallel.supervisor.respawns" in snap
            assert snap["parallel.supervisor.live"]["peak"] == 2
            per = e.describe()["per_worker"]
            for w in range(2):
                prefix = f"parallel.worker.{w}"
                assert f"{prefix}.queue_depth.peak" in snap
                assert f"{prefix}.heartbeat_age" in snap
                assert f"{prefix}.generation" in snap
                assert snap[f"{prefix}.compute.seconds"] > 0
                assert f"{prefix}.unpack.seconds" in snap
                # one ledger: each task and error counted once
                assert snap[f"{prefix}.tasks"] == per[w]["tasks"]
                assert snap[f"{prefix}.errors"] == per[w]["errors"] == 0
            assert (sum(snap[f"parallel.worker.{w}.tasks"] for w in range(2))
                    == snap["parallel.tasks.parallel"] == e.tasks_parallel)

            # One task raising on the pool is one error, not two.
            with pytest.raises(KernelError, match="failed on purpose"):
                e.run(_fail_task, [({}, (np.arange(4.0),))])
            snap = collect_parallel_engine(MetricsRegistry("m"), e).snapshot()
            errors = [snap[f"parallel.worker.{w}.errors"] for w in range(2)]
            assert sorted(errors) == [0, 1]
        finally:
            e.close()

    def test_from_snapshot_roundtrip(self):
        reg = MetricsRegistry("r")
        reg.inc("c", 3)
        reg.set_gauge("g", 1.5)
        reg.observe("h", 2.0)
        reg.observe("h", 4.0)
        snap = reg.snapshot()
        back = MetricsRegistry.from_snapshot(snap)
        assert back.snapshot() == snap

    def test_from_snapshot_rejects_junk(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot({"x": "nope"})


# ---------------------------------------------------------------------------
# the CLI: python -m repro.obs
# ---------------------------------------------------------------------------


@pytest.fixture()
def artifacts(tmp_path):
    tr = Tracer("cli")
    tr.span_at("rank0", "step", 0.0, 1.0)
    tr.counter("rank0", "depth", 0.5, 3.0)
    tr.instant("rank0", "ping", 0.7)
    trace = tmp_path / "trace.json"
    tr.recorder.write_chrome_trace(str(trace))

    reg = MetricsRegistry("cli")
    reg.inc("tasks", 5)
    reg.set_gauge("depth", 2.0)
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps(reg.snapshot()))

    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "scenario": "kill-worker", "bitwise_identical": True,
        "health": {"verdict": "warn", "findings": [
            {"severity": "warn", "rule": "recovery.respawns",
             "message": "1 respawns during the run", "value": 1.0}],
            "stats": {}},
    }))
    return trace, metrics, report


class TestObsCli:
    def test_summary_all_kinds(self, artifacts, capsys):
        from repro.obs.__main__ import main
        trace, metrics, report = artifacts
        assert main(["summary", str(trace), str(metrics), str(report)]) == 0
        out = capsys.readouterr().out
        assert "[trace]" in out and "[metrics]" in out and "[report]" in out
        assert "span step" in out
        assert "health: WARN" in out

    def test_summary_fail_on(self, artifacts, capsys):
        from repro.obs.__main__ import main
        _, _, report = artifacts
        assert main(["summary", str(report), "--fail-on", "warn"]) == 1
        assert main(["summary", str(report), "--fail-on", "critical"]) == 0

    def test_merge_traces_remaps_pids(self, artifacts, tmp_path, capsys):
        from repro.obs.__main__ import main
        trace, _, _ = artifacts
        out = tmp_path / "merged.json"
        assert main(["merge", str(out), str(trace), str(trace)]) == 0
        merged = json.loads(out.read_text())
        assert validate_chrome_trace(merged) == []
        procs = {ev["pid"]: ev["args"]["name"]
                 for ev in merged["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "process_name"}
        assert len(procs) == 2  # same input twice -> two distinct pids
        names = sorted(procs.values())
        assert names[0].startswith("run0:") and names[1].startswith("run1:")

    def test_merge_metrics(self, artifacts, tmp_path):
        from repro.obs.__main__ import main
        _, metrics, _ = artifacts
        out = tmp_path / "merged_metrics.json"
        assert main(["merge", str(out), str(metrics), str(metrics)]) == 0
        merged = json.loads(out.read_text())
        assert merged["tasks"] == 10.0  # counters add

    def test_merge_refuses_mixed_kinds(self, artifacts, tmp_path):
        from repro.obs.__main__ import main
        trace, metrics, _ = artifacts
        assert main(["merge", str(tmp_path / "x.json"),
                     str(trace), str(metrics)]) == 2

    def test_diff(self, artifacts, tmp_path, capsys):
        from repro.obs.__main__ import main
        _, metrics, _ = artifacts
        other = tmp_path / "other.json"
        obj = json.loads(metrics.read_text())
        obj["tasks"] = 9.0
        other.write_text(json.dumps(obj))
        assert main(["diff", str(metrics), str(other)]) == 0
        out = capsys.readouterr().out
        assert "tasks: 5.0 -> 9.0" in out
        assert "1 difference(s)" in out


# ---------------------------------------------------------------------------
# scripts/validate_trace.py
# ---------------------------------------------------------------------------


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_trace", REPO / "scripts" / "validate_trace.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(tmp_path, events):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"traceEvents": events,
                             "displayTimeUnit": "ns"}))
    return str(p)


def _meta(pid, tid, name):
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": name}, "ts": 0, "cat": "__metadata"}


def _pmeta(pid, name):
    return {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": name}, "ts": 0, "cat": "__metadata"}


class TestValidateTrace:
    def test_multiprocess_trace_passes(self, tmp_path):
        v = _load_validator()
        events = [
            _pmeta(0, "driver"), _pmeta(9, "w0"), _pmeta(10, "w1"),
            _meta(0, 0, "rank0"), _meta(9, 0, "worker/0"),
            _meta(10, 0, "worker/1"),
            {"ph": "X", "pid": 9, "tid": 0, "name": "compute", "ts": 1,
             "dur": 2, "cat": "t", "args": {}},
            {"ph": "X", "pid": 10, "tid": 0, "name": "compute", "ts": 1,
             "dur": 2, "cat": "t", "args": {}},
            {"ph": "C", "pid": 0, "tid": 0, "name": "heartbeat.age.w0",
             "ts": 2, "cat": "t", "args": {"heartbeat.age.w0": 0.5}},
            {"ph": "i", "pid": 0, "tid": 0, "name": "respawn:worker/0",
             "ts": 3, "s": "t", "cat": "t", "args": {}},
        ]
        path = _write(tmp_path, events)
        assert v.check(path, min_worker_tracks=2,
                       require_counter=["heartbeat.age"],
                       require_instant=["respawn:"]) == []

    def test_backwards_ts_flagged(self, tmp_path):
        v = _load_validator()
        events = [
            _pmeta(0, "d"), _meta(0, 0, "rank0"),
            {"ph": "X", "pid": 0, "tid": 0, "name": "a", "ts": 5,
             "dur": 1, "cat": "t", "args": {}},
            {"ph": "X", "pid": 0, "tid": 0, "name": "b", "ts": 3,
             "dur": 1, "cat": "t", "args": {}},
        ]
        problems = v.check(_write(tmp_path, events))
        assert any("goes backwards" in p for p in problems)

    def test_uncovered_track_flagged(self, tmp_path):
        v = _load_validator()
        events = [
            _pmeta(0, "d"),
            {"ph": "X", "pid": 0, "tid": 7, "name": "a", "ts": 1,
             "dur": 1, "cat": "t", "args": {}},
        ]
        problems = v.check(_write(tmp_path, events))
        assert any("no thread_name" in p for p in problems)

    def test_uncovered_pid_flagged(self, tmp_path):
        v = _load_validator()
        events = [
            _meta(3, 0, "rank0"),
            {"ph": "X", "pid": 3, "tid": 0, "name": "a", "ts": 1,
             "dur": 1, "cat": "t", "args": {}},
        ]
        problems = v.check(_write(tmp_path, events))
        assert any("no process_name" in p for p in problems)

    def test_nonnumeric_counter_flagged(self, tmp_path):
        v = _load_validator()
        events = [
            _pmeta(0, "d"), _meta(0, 0, "rank0"),
            {"ph": "C", "pid": 0, "tid": 0, "name": "c", "ts": 1,
             "cat": "t", "args": {"c": "high"}},
        ]
        problems = v.check(_write(tmp_path, events))
        assert any("numeric" in p for p in problems)

    def test_missing_worker_tracks_flagged(self, tmp_path):
        v = _load_validator()
        events = [_pmeta(0, "d"), _meta(0, 0, "rank0")]
        problems = v.check(_write(tmp_path, events), min_worker_tracks=2)
        assert any("worker/* tracks" in p for p in problems)

    def test_same_pid_workers_flagged(self, tmp_path):
        v = _load_validator()
        # Two worker tracks on ONE pid: tracks pass, distinct-pid fails.
        events = [
            _pmeta(0, "d"), _meta(0, 1, "worker/0"), _meta(0, 2, "worker/1"),
        ]
        problems = v.check(_write(tmp_path, events), min_worker_tracks=2)
        assert any("distinct nonzero worker pids" in p for p in problems)

    def test_rank_mode_still_works(self, tmp_path):
        v = _load_validator()
        events = [
            _pmeta(0, "d"),
            *[_meta(0, r, f"rank{r}") for r in range(4)],
            *[{"ph": "X", "pid": 0, "tid": 0, "name": n, "ts": i,
               "dur": 1, "cat": "t", "args": {}}
              for i, n in enumerate(("pack", "send", "overlap", "unpack"))],
        ]
        assert v.check(_write(tmp_path, events), min_rank_tracks=4) == []
        assert v.check(_write(tmp_path, events), min_rank_tracks=5) != []


# ---------------------------------------------------------------------------
# resilience + experiments integration
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_resilient_runner_reports_health(self, tmp_path):
        from repro.mesh.cubed_sphere import CubedSphereMesh
        from repro.homme.distributed import DistributedShallowWater
        from repro.resilience import Checkpointer, ResilientRunner

        mesh = CubedSphereMesh(2, 4)
        with DistributedShallowWater(mesh, nranks=2) as model:
            runner = ResilientRunner(
                model, Checkpointer(tmp_path / "ck", cadence=2))
            rep = runner.run(2)
        assert rep.health["verdict"] in ("ok", "warn")
        assert "stats" in rep.health

    def test_distributed_health_delegates(self):
        from repro.mesh.cubed_sphere import CubedSphereMesh
        from repro.homme.distributed import DistributedShallowWater

        mesh = CubedSphereMesh(2, 4)
        with DistributedShallowWater(mesh, nranks=2) as model:
            model.run_steps(1)
            assert model.health().verdict in ("ok", "warn")
