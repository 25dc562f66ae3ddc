"""Tests for the ``repro.bench`` baseline harness: suite determinism,
report schema, regression gating, and the CLI."""

import json

import numpy as np
import pytest

from repro.bench import compare_reports, load_report, machine_calibration, run_suite
from repro.bench.__main__ import main
from repro.bench.harness import BenchResult, time_wall
from repro.bench.suite import SPEEDUP_FLOORS, render_report


@pytest.fixture(scope="module")
def report():
    return run_suite(quick=True, repeats=1)


@pytest.fixture(scope="module")
def pinned(report):
    """The measured report with every floored ratio pinned at twice its
    floor: the comparison logic is tested on data that cannot breach a
    floor by timing noise.  Measured floors are policed by
    ``python -m repro.bench --compare`` (CI ``bench-gate``)."""
    rep = json.loads(json.dumps(report))
    for name, floor in rep["floors"].items():
        if name in rep["derived"]:
            rep["derived"][name] = 2.0 * floor
    return rep


class TestHarness:
    def test_time_wall_returns_positive_min(self):
        calls = []
        t = time_wall(lambda: calls.append(1), repeats=3, warmup=1)
        assert t > 0
        assert len(calls) == 4  # warmup + repeats

    def test_time_wall_setup_runs_before_each_repeat(self):
        order = []
        time_wall(lambda: order.append("f"), repeats=2, warmup=1,
                  setup=lambda: order.append("s"))
        assert order == ["s", "f", "s", "f", "s", "f"]

    def test_calibration_positive_and_repeatable_scale(self):
        c = machine_calibration(repeats=2)
        assert 0 < c < 5.0

    def test_result_round_trip(self):
        r = BenchResult("x.y", "wall", 0.25, repeats=3, meta={"ne": 8})
        assert BenchResult.from_json(r.to_json()) == r


class TestSuite:
    def test_report_schema(self, report):
        assert report["schema"] == "repro.bench/1"
        assert set(report) >= {"benchmarks", "derived", "calibration_s",
                               "repeats", "quick", "floors"}
        names = [b["name"] for b in report["benchmarks"]]
        assert "sw_rk_step.ne8.batched" in names
        assert "sw_rk_step.ne8.fused" in names
        assert "table1.compute_and_apply_rhs.athread" in names
        assert len(names) == len(set(names))

    def test_every_benchmark_well_formed(self, report):
        for b in report["benchmarks"]:
            assert b["clock"] in ("wall", "simulated")
            assert b["seconds"] > 0

    def test_derived_speedups_present_with_floors(self, report):
        assert set(SPEEDUP_FLOORS) <= set(report["derived"])
        assert report["floors"] == SPEEDUP_FLOORS

    def test_fused_entries_measured_and_gated(self, report):
        # Both paths are timed for all three wall groups; only the
        # production (fused) entries are wall-gated, the batched
        # reference enters through the derived speedups.
        wall = {b["name"]: b for b in report["benchmarks"]
                if b["clock"] == "wall"}
        groups = ("sw_rk_step.ne8", "prim_rhs.ne4", "euler_step.ne4")
        assert set(wall) == {f"{g}.{p}" for g in groups
                             for p in ("batched", "fused")}
        for group in groups:
            assert wall[f"{group}.fused"]["meta"]["gated"]
            assert not wall[f"{group}.batched"]["meta"]["gated"]
            assert f"{group}.fused_speedup" in report["derived"]

    def test_simulated_entries_deterministic(self, report):
        again = run_suite(quick=True, repeats=1)
        sim = {b["name"]: b["seconds"] for b in report["benchmarks"]
               if b["clock"] == "simulated"}
        sim2 = {b["name"]: b["seconds"] for b in again["benchmarks"]
                if b["clock"] == "simulated"}
        assert sim == sim2

    def test_render_report(self, report):
        text = render_report(report)
        assert "sw_rk_step.ne8.batched" in text
        assert "speedup" in text

    def test_render_report_zero_and_fractional_floors(self):
        # Regression test for the floor-truthiness bug: a 0.0 floor (or
        # any fractional overhead floor) must still render its bound
        # instead of silently dropping it.
        rep = {
            "schema": "repro.bench/1", "repeats": 1, "calibration_s": 1e-3,
            "benchmarks": [],
            "derived": {"a.speedup": 1.2, "b.speedup": 0.8},
            "floors": {"a.speedup": 0.0, "b.speedup": 1.0 / 1.5},
        }
        text = render_report(rep)
        assert "floor 0.00x" in text
        assert "floor 0.67x" in text


class TestCompare:
    def test_self_comparison_passes(self, pinned):
        ok, lines = compare_reports(pinned, pinned)
        assert ok
        assert lines[-1] == "gate: PASS"

    def test_wall_regression_detected(self, pinned):
        slow = json.loads(json.dumps(pinned))
        for b in slow["benchmarks"]:
            if b["name"] == "sw_rk_step.ne8.fused":
                b["seconds"] *= 2.0
        ok, lines = compare_reports(slow, pinned)
        assert not ok
        assert any("FAIL sw_rk_step.ne8.fused" in line for line in lines)

    def test_reference_path_noise_does_not_gate(self, pinned):
        # The batched reference path is not what models run; even a 2x
        # wall swing must not fail the gate (the speedup floors are
        # what police the fused/batched relationship).
        noisy = json.loads(json.dumps(pinned))
        for b in noisy["benchmarks"]:
            if b["name"].endswith(".batched"):
                b["seconds"] *= 2.0
        ok, lines = compare_reports(noisy, pinned)
        assert ok
        assert any(line.startswith("info sw_rk_step.ne8.batched")
                   and "not gated" in line for line in lines)

    def test_wall_regression_within_threshold_passes(self, pinned):
        mild = json.loads(json.dumps(pinned))
        for b in mild["benchmarks"]:
            if b["clock"] == "wall":
                b["seconds"] *= 1.10
        ok, _ = compare_reports(mild, pinned)
        assert ok

    def test_machine_speed_change_does_not_fail(self, pinned):
        # A uniformly 2x slower machine: every wall time and the
        # calibration double; the calibrated ratio stays 1.
        slow = json.loads(json.dumps(pinned))
        slow["calibration_s"] *= 2.0
        for b in slow["benchmarks"]:
            if b["clock"] == "wall":
                b["seconds"] *= 2.0
        ok, _ = compare_reports(slow, pinned)
        assert ok

    def test_simulated_drift_detected(self, pinned):
        drift = json.loads(json.dumps(pinned))
        for b in drift["benchmarks"]:
            if b["name"] == "table1.euler_step.athread":
                b["seconds"] *= 1.05
        ok, lines = compare_reports(drift, pinned)
        assert not ok
        assert any("FAIL table1.euler_step.athread" in line for line in lines)

    def test_speedup_floor_breach_detected(self, pinned):
        bad = json.loads(json.dumps(pinned))
        bad["derived"]["prim_rhs.ne4.fused_speedup"] = 1.0
        ok, lines = compare_reports(bad, pinned)
        assert not ok
        assert any("below floor" in line for line in lines)

    def test_added_and_removed_entries_do_not_gate(self, pinned):
        cur = json.loads(json.dumps(pinned))
        cur["benchmarks"].append(
            {"name": "new.bench", "clock": "wall", "seconds": 1.0})
        base = json.loads(json.dumps(pinned))
        base["benchmarks"].append(
            {"name": "old.bench", "clock": "wall", "seconds": 1.0})
        ok, lines = compare_reports(cur, base)
        assert ok
        assert any(line.startswith("new  new.bench") for line in lines)
        assert any(line.startswith("gone old.bench") for line in lines)

    def test_missing_baseline_entry_is_informational_both_ways(self, pinned):
        """A kernel not yet in BENCH_homme.json (or one the current run
        no longer has) must never raise or fail the gate — in either
        direction, including derived entries with committed floors."""
        cur = json.loads(json.dumps(pinned))
        base = json.loads(json.dumps(pinned))
        # Current grows a gated wall entry + a floored derived entry the
        # baseline has never seen.
        cur["benchmarks"].append(
            {"name": "dist_new.kernel", "clock": "wall", "seconds": 0.5,
             "meta": {"gated": True}})
        cur["derived"]["dist_new.kernel.speedup"] = 9.0
        cur["floors"] = dict(cur.get("floors", {}), **{"dist_new.kernel.speedup": 1.5})
        # Baseline holds a derived entry the current run did not measure.
        base["derived"]["retired.kernel.speedup"] = 2.0
        base["floors"] = dict(base.get("floors", {}), **{"retired.kernel.speedup": 1.5})
        ok, lines = compare_reports(cur, base)
        assert ok
        assert any(line.startswith("new  dist_new.kernel") for line in lines)
        assert any("ok   dist_new.kernel.speedup" in line
                   and "(new, no baseline entry)" in line for line in lines)
        assert any(
            line.startswith("gone retired.kernel.speedup") for line in lines
        )


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_records_tentpole(self):
        report = load_report("BENCH_homme.json")
        assert report["derived"]["prim_rhs.ne4.fused_speedup"] >= 1.5
        assert not any(".looped" in b["name"] for b in report["benchmarks"])
        assert not report["quick"]  # baselines come from full runs

    def test_load_rejects_non_bench_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError, match="not a repro.bench report"):
            load_report(str(p))


class TestCLI:
    def test_help_smoke(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "--compare" in out and "--quick" in out

    def test_run_and_write(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        rc = main(["--repeats", "1", "--quick", "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.bench/1"

    def test_compare_pass_and_fail_exit_codes(self, tmp_path, capsys,
                                              monkeypatch, pinned):
        # This is an exit-code test, not a timing test: the CLI compares
        # the pinned report (test_run_and_write covers CLI -> suite), and
        # since two repeats=1 runs can genuinely differ by more than the
        # gate, the pass-case baseline gets deterministic wall headroom.
        monkeypatch.setattr("repro.bench.__main__.run_suite",
                            lambda quick, repeats: pinned)
        out_path = tmp_path / "bench.json"
        assert main(["--repeats", "1", "--quick", "--out", str(out_path)]) == 0
        report = json.loads(out_path.read_text())
        for b in report["benchmarks"]:
            if b["clock"] == "wall":
                b["seconds"] *= 10.0
        generous = tmp_path / "generous.json"
        generous.write_text(json.dumps(report))
        assert main(["--repeats", "1", "--quick",
                     "--compare", str(generous)]) == 0
        # A sabotaged baseline (simulated times shrunk) must fail.
        report = json.loads(out_path.read_text())
        for b in report["benchmarks"]:
            if b["clock"] == "simulated":
                b["seconds"] /= 2.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        assert main(["--repeats", "1", "--quick", "--compare", str(bad)]) == 1

    def test_compare_missing_baseline_is_usage_error(self, tmp_path, capsys):
        rc = main(["--repeats", "1", "--compare", str(tmp_path / "nope.json")])
        assert rc == 2


def test_numerics_unchanged_by_bench_import():
    # Importing/running the bench must not leak state into the numerics:
    # a fresh suite run leaves a fresh model bit-identical to one built
    # before any benchmarking ran.
    from repro.homme.shallow_water import ShallowWaterModel, williamson2_initial
    from repro.mesh.cubed_sphere import CubedSphereMesh

    mesh = CubedSphereMesh(4, 4)
    m1 = ShallowWaterModel(mesh, state=williamson2_initial(mesh))
    m1.step()
    run_suite(quick=True, repeats=1)
    m2 = ShallowWaterModel(mesh, state=williamson2_initial(mesh))
    m2.step()
    assert np.array_equal(m1.state.h, m2.state.h)
