"""Self-test of the step benchmark.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly:

    python -m pytest benchmarks/step -q

It takes about two minutes: three ``--quick`` passes over the workloads.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import adapter  # noqa: E402
import run as bench  # noqa: E402
import worker  # noqa: E402
from spans import SpanRecorder, budget  # noqa: E402

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- span arithmetic ------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    # (name, layer, start, end, parent, cycle)
    spans = [
        ("step", "driver", 0.0, 10.0, -1, 1),
        ("rhs", "rhs", 1.0, 4.0, 0, 1),
        ("dss", "dss", 2.0, 3.0, 1, 1),
        ("rhs", "rhs", 5.0, 7.0, 0, 1),
        ("run", "engine", 7.0, 9.0, 0, 1),
        ("wait", "engine", 7.5, 8.5, 4, 1),  # a layer calling into itself
        ("step", "driver", 20.0, 30.0, -1, 2),  # another cycle, not asked for
    ]
    rows = budget(spans, {1})
    assert rows["driver"] == {"calls": 1, "inclusive_s": 10.0, "self_s": 3.0}
    assert rows["rhs"] == {"calls": 2, "inclusive_s": 5.0, "self_s": 4.0}
    assert rows["dss"] == {"calls": 1, "inclusive_s": 1.0, "self_s": 1.0}
    assert rows["engine"] == {"calls": 2, "inclusive_s": 2.0, "self_s": 2.0}
    # Self times partition the root span, so shares of the cycle sum to <= 1.
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(10.0)


def test_recorder_links_parent_and_cycle():
    rec = SpanRecorder()
    inner = rec.wrap(lambda: 1, "inner", "b")
    outer = rec.wrap(lambda: inner() + inner(), "outer", "a")
    rec.cycle = 7
    assert outer() == 2
    assert [(s[0], s[4], s[5]) for s in rec.spans] == [
        ("outer", -1, 7), ("inner", 0, 7), ("inner", 0, 7)]
    assert all(s[2] <= s[3] for s in rec.spans)


# -- wrappers leave nothing behind -----------------------------------------------


class _Thing:
    def method(self):
        return "original"

    def boom(self):
        raise RuntimeError("boom")


def test_patch_restores_class_and_instance_attributes():
    thing = _Thing()
    original = _Thing.method
    with SpanRecorder() as rec:
        rec.patch(_Thing, "method", "m", "layer")
        rec.patch(thing, "boom", "b", "layer")
        assert _Thing.method is not original
        assert thing.method() == "original"
        with pytest.raises(RuntimeError):
            thing.boom()
        assert rec.spans[1][0] == "b"  # the span closed despite the exception
    assert _Thing.method is original
    assert "boom" not in vars(thing)


def test_patch_restores_on_exception():
    thing = _Thing()
    with pytest.raises(RuntimeError):
        with SpanRecorder() as rec:
            rec.patch(thing, "boom", "b", "layer")
            thing.boom()
    assert "boom" not in vars(thing)


def test_program_layers_are_restored():
    spec = adapter.WORKLOADS["sw_dist"]
    mesh = adapter.build_mesh(spec)
    model = adapter.build_model(
        spec, mesh, adapter.build_inputs(spec, mesh, None, seed=0))
    before = (adapter.timestep_mod.compute_and_apply_rhs,
              adapter.remap_mod.vertical_remap, adapter.ElementGeometry.dss,
              adapter.PendingRun.wait)
    with SpanRecorder() as rec:
        adapter.patch_layers(rec, model)
        assert "exchange" in vars(model.hx) and "run" in vars(model.engine)
        model.step()
    assert before == (adapter.timestep_mod.compute_and_apply_rhs,
                      adapter.remap_mod.vertical_remap,
                      adapter.ElementGeometry.dss, adapter.PendingRun.wait)
    for owner in (model, model.hx, model.mpi, model.engine):
        assert not {"step", "exchange", "allreduce", "run", "submit"} & set(vars(owner))
    assert {s[1] for s in rec.spans} == {"driver", "halo", "engine"}
    adapter.close_model(model)


# -- the command, end to end -----------------------------------------------------


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("step") / "quick.json"
    assert bench.main(["--quick", "--seed", "0", "--out", str(out)]) == 0
    with open(out) as fh:
        return json.load(fh)


def test_quick_report_has_every_metric(quick_report):
    assert quick_report["schema"] == bench.SCHEMA and quick_report["quick"] is True
    assert not quick_report["skipped"]
    assert list(quick_report["workloads"]) == WORKLOADS
    for row in quick_report["workloads"].values():
        assert row["failed"] == 0 and row["failed_fraction"] == 0.0
        assert row["cycles"] == {"end_to_end": 2, "per_layer": 2}
        for kind in ("end_to_end", "per_layer"):
            assert list(row[kind]) == [m["name"] for m in SPEC[kind]]
            for m in SPEC[kind]:
                got = row[kind][m["name"]]
                assert got["unit"] == m["unit"]
                assert math.isfinite(got["value"])
        assert all(v["value"] > 0 for v in row["end_to_end"].values())
        shares = [v["value"] for k, v in row["per_layer"].items()
                  if k.endswith("self_share")]
        assert 0.9 < sum(shares) <= 1.0  # the layers account for the cycle
    prov = quick_report["provenance"]
    for key in ("git_sha", "nproc", "available_cores", "cpu_model", "versions",
                "thread_env", "loadavg_1min_start", "loadavg_1min_end", "seed"):
        assert key in prov
    assert set(quick_report["derived"]) == {
        "derived.pool_speedup_vs_inproc", "derived.dist_overhead_vs_serial",
        "derived.amdahl_ceiling"}


def test_layers_show_where_predicted(quick_report):
    rows = quick_report["workloads"]

    def calls(workload, layer):
        return rows[workload]["per_layer"][f"{layer}.calls_per_cycle"]["value"]

    assert calls("prim_serial", "dss") > 0 and calls("prim_serial", "halo") == 0
    assert calls("prim_serial", "physics") == 3 and calls("prim_serial", "remap") == 1
    for w in ("prim_dist_inproc", "prim_dist_pool"):
        assert calls(w, "halo") > 0 and calls(w, "remap") == 4 and calls(w, "dss") == 0
    assert calls("sw_dist", "halo") == 120 and calls("sw_dist", "remap") == 0
    pool = rows["prim_dist_pool"]["per_layer"]
    assert 0 < pool["engine.worker_utilization"]["value"] <= 1
    assert pool["engine.worker_rss_mb"]["value"] > 0
    assert rows["prim_dist_inproc"]["sim_step_us"] == pytest.approx(
        rows["prim_dist_pool"]["sim_step_us"], rel=bench.EXACT_REL)
    assert set(rows["prim_dist_pool"]["checks"]["end_to_end"]) >= {
        "pool_active", "pool_bitwise_vs_inproc", "pool_sim_time_equal",
        "pool_no_recoveries", "pool_no_leaked_shm"}


def _deterministic(report):
    return {name: {k: v["value"] for k, v in row["per_layer"].items()
                   if bench._is_count(k) or k == "sim_step_us"}
            for name, row in report["workloads"].items()}


def test_same_seed_repeats_deterministic_metrics(quick_report, tmp_path):
    out = tmp_path / "again.json"
    assert bench.main(["--quick", "--seed", "0", "--trace", "1",
                       "--out", str(out)]) == 0
    with open(out) as fh:
        assert _deterministic(json.load(fh)) == _deterministic(quick_report)


def test_another_seed_passes_every_check(tmp_path):
    out = tmp_path / "seed7.json"
    assert bench.main(["--quick", "--seed", "7", "--trace", "0",
                       "--out", str(out)]) == 0
    with open(out) as fh:
        report = json.load(fh)
    for row in report["workloads"].values():
        assert all(c["ok"] for c in row["checks"]["end_to_end"].values())


@pytest.fixture
def workers_in_process(monkeypatch):
    """Run the workers in this process, so that a monkeypatch reaches
    them; the program is untouched."""
    monkeypatch.setattr(bench, "spawn", lambda *argv: json.loads(
        json.dumps(worker.run(**vars(worker.parse_args(argv))), default=float)))


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_failed_check_fails_the_command(monkeypatch, capsys, workers_in_process):
    """A tolerance no run can meet: the check, the result and the exit
    code all say failed."""
    monkeypatch.setitem(worker.TOLERANCES, "sw_height_l2_error", 0.0)
    code = bench.main(["--workload", "sw_dist", "--quick", "--trace", "0"])
    result = _last_line(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


def test_failed_first_cycle_is_reported(monkeypatch, capsys, workers_in_process):
    """A run with no timed cycle at all still ends in a result that says
    failed, with the metrics it does have."""
    real, calls = adapter.run_cycle, []

    def run_cycle(spec, model, *between_steps):
        calls.append(spec)
        if len(calls) == 2:  # the warm-up passed; this is the first timed cycle
            raise RuntimeError("injected")
        real(spec, model, *between_steps)

    monkeypatch.setattr(adapter, "run_cycle", run_cycle)
    code = bench.main(["--workload", "sw_dist", "--quick", "--trace", "0"])
    result = _last_line(capsys)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}


# -- compare ---------------------------------------------------------------------


def test_compare_verdicts(quick_report):
    lines, worse = bench.compare(quick_report, quick_report, SPEC)
    assert not worse and all("worse" not in line for line in lines)

    slower = copy.deepcopy(quick_report)
    slower["workloads"]["sw_dist"]["end_to_end"]["cycle_ms_p50"]["value"] *= 1.5
    lines, worse = bench.compare(quick_report, slower, SPEC)
    assert worse
    assert [line for line in lines if line.endswith("worse")][0].split()[:2] == [
        "sw_dist", "cycle_ms_p50"]

    noisy = copy.deepcopy(slower)
    noisy["workloads"]["sw_dist"]["samples"]["end_to_end"]["cycle_ms"] = [
        100.0, 150.0, 200.0, 250.0, 300.0]
    lines, worse = bench.compare(quick_report, noisy, SPEC)
    assert not worse and any(line.endswith("unresolved") for line in lines)

    drifted = copy.deepcopy(quick_report)
    drifted["workloads"]["sw_dist"]["per_layer"]["simmpi.messages_per_cycle"]["value"] += 1
    assert bench.compare(quick_report, drifted, SPEC)[1]

    full = copy.deepcopy(quick_report)
    full["quick"] = False
    with pytest.raises(SystemExit):
        bench.compare(quick_report, full, SPEC)
