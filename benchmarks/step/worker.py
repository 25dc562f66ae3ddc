"""One workload, one pass, in this (fresh) process.

``run.py`` starts this file once per workload and pass, so every
measurement begins from a cold interpreter: import, set-up, one warm-up
cycle, the timed window, then the untimed verify phase.  The result is
printed as one JSON object on the last line of standard output.

Untraced pass (``--trace 0``): every timed cycle runs the program as it
is; this pass gives the end-to-end numbers.  Traced pass (``--trace
1``): cycles alternate between untraced and traced (the wrappers of
``spans.py`` installed for that cycle only), so the per-layer numbers
and the cost of tracing come from one process in one state.

Host speed.  The reference box is a shared VM: for seconds to minutes
at a time its neighbours slow every program on it by 10 to 40 %, which
no statistic of one run's cycle times can remove (README, "Steadiness").
So a fixed probe kernel runs before and after every timed cycle and
between its steps, and each cycle's time is multiplied by ``REF_PROBE_S
/ probe time`` around that cycle: time at the reference host speed.  The
wall-clock values, the factors and every raw sample are in the result as
well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

#: One BLAS thread: the workloads are sized for two cores, and the pool
#: workload's workers must not compete with BLAS threads for them.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Timed cycles every full run completes, however short ``--seconds``
#: is.  Memory and the simulated clock are read after exactly this many,
#: so they do not depend on how many cycles the host fits in the window.
MIN_CYCLES = 8
QUICK_CYCLES = 2

#: Timed cycles of each of the two models (the program's own tracer on
#: and off) that measure what that tracer costs.
PROGRAM_TRACER_CYCLES = 4

#: What one probe takes on the reference box at its usual speed.  It only
#: fixes the unit of the scaled times; comparisons are ratios and do not
#: depend on it.
REF_PROBE_S = 0.0086

#: Between two steps of a cycle a probe runs once this long has passed
#: since the last one: the host changes speed within a cycle.
PROBE_EVERY_S = 0.15

#: Probes after the first cycle, to scale the set-up times.
SETUP_PROBES = 9

#: Verify-phase limits.  Conservation holds to roundoff; the
#: shallow-water state is steady, so its error is truncation error.
TOLERANCES = {"dry_mass_drift": 1e-12, "tracer_mass_drift": 1e-12,
              "sw_height_l2_error": 1e-5}

LAYERS = ("rhs", "euler", "hypervis", "remap", "physics", "dss", "halo",
          "simmpi.allreduce", "engine")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_rss_mb(pid: int) -> float:
    """Current resident set of a process (``ru_maxrss`` is a high-water
    mark and cannot show growth below an earlier peak)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _make_probe():
    """The host-speed probe: 24 products of two 200 x 200 matrices,
    about 9 ms of fixed work on 1 MB, so it leaves the program's data in
    the cache.  Of the kernels tried (an interpreter loop, small-array
    numpy calls with deque traffic, streaming over 5 MB, random lookups
    in a large dict, and mixes of them) its time follows the cycle times
    of all four workloads most closely when the VM's neighbours slow the
    box down (README, "Steadiness").
    """
    import numpy as np

    a = np.random.default_rng(0).random((200, 200))

    def probe() -> float:
        t0 = perf_counter()
        for _ in range(24):
            a @ a
        return perf_counter() - t0

    return probe


class Checks:
    """The verify phase's operations: each check is attempted once."""

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}

    def add(self, name: str, ok: bool, value=None, limit=None) -> None:
        self.rows[name] = {"ok": bool(ok), "value": value, "limit": limit}

    def at_most(self, name: str, value: float) -> None:
        limit = TOLERANCES[name]
        self.add(name, value <= limit, value, limit)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.rows.values())


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
        setup_only: bool = False, trace_out: str | None = None) -> dict:
    """Measure one pass of one workload; see the module docstring."""
    os.environ.update(THREAD_ENV)
    t0 = perf_counter()
    import adapter
    from spans import SpanRecorder

    t_import = perf_counter()
    spec = adapter.WORKLOADS[workload]
    if spec["workers"] > adapter.cores():
        return {"workload": workload, "skipped":
                f"needs {spec['workers']} cores, {adapter.cores()} available"}
    rec = SpanRecorder()
    mesh = adapter.build_mesh(spec)
    t_mesh = perf_counter()
    geom = adapter.build_geometry(spec, mesh)
    t_geom = perf_counter()
    inputs = adapter.build_inputs(spec, mesh, geom, seed)
    t_inputs = perf_counter()
    with rec:  # spans around the halo-table and pool constructors
        if trace:
            adapter.patch_constructors(rec)
        model = adapter.build_model(spec, mesh, inputs)
    t_model = perf_counter()
    errors: list[str] = []
    try:
        adapter.run_cycle(spec, model)  # warm-up; the end of set-up
        t_first = perf_counter()
        probe = _make_probe()
        setup_speed = REF_PROBE_S / statistics.median(
            probe() for _ in range(SETUP_PROBES))
        # Generating the inputs is the benchmark's work, not the program's.
        wall = {"setup_s": (t_first - t0) - (t_inputs - t_geom)}
        setup = {"setup_s": wall["setup_s"],
                 "setup.import_s": t_import - t0,
                 "setup.mesh_s": t_mesh - t_import,
                 "setup.geometry_s": t_geom - t_mesh,
                 "setup.model_s": t_model - t_inputs,
                 "first_cycle_s": t_first - t_model}
        setup = {k: v * setup_speed for k, v in setup.items()}
        if setup_only:
            return {"workload": workload, "values": setup, "wall": wall}
        warm = None
        if spec["workers"]:
            warm = (adapter.global_state(model), adapter.sim_time(model))
        win = _timed_window(adapter, rec, spec, model, probe, seconds, trace,
                            QUICK_CYCLES if quick else MIN_CYCLES, errors)
        status = adapter.engine_status(model)
        worker_rss = max((_proc_rss_mb(p) for p in status["worker_pids"]),
                         default=0.0)
        working_set = adapter.working_set_bytes(model, adapter.global_state(model))
        dt = adapter.dt_of(model)

        checks = Checks()
        try:
            _verify(adapter, spec, mesh, geom, inputs, model, status, warm,
                    win["count1"], checks)
        except Exception:  # noqa: BLE001 - a check that cannot run has failed
            errors.append(traceback.format_exc())
            checks.add("verify_completed", False)
        tracer_frac = 0.0
        if trace and spec.get("program_tracer_run"):
            tracer_frac = _program_tracer_overhead(
                adapter, spec, mesh, inputs, quick)
    finally:
        leaked = adapter.close_model(model)
    if spec["workers"]:
        checks.add("pool_no_leaked_shm", leaked == [], leaked, [])
    if trace_out:
        rec.dump(trace_out)

    cycle_s, traced_ids = win["cycle_s"], win["traced_ids"]
    n, steps = len(cycle_s), spec["steps_per_cycle"]
    fixed = win["fixed"]
    values: dict[str, float] = {"setup_s": setup["setup_s"],
                                "peak_rss_mb": fixed["peak_rss_mb"],
                                "sim_step_us": fixed["sim_step_us"]}
    # Each cycle at the reference host speed, by the probes around it.
    scaled_s = [c * REF_PROBE_S / h for c, h in zip(cycle_s, win["host_s"])]
    speed = 1.0
    if n:
        speed = REF_PROBE_S / statistics.median(win["host_s"])
        untraced = [i for i in range(n) if i not in traced_ids]
        wall_p50 = statistics.median(cycle_s[i] for i in untraced)
        p50 = statistics.median(scaled_s[i] for i in untraced)
        # Simulated years per day at the median cycle: the window's total
        # would count the host's short bursts, which the probes do not see.
        for out, cycle in ((wall, wall_p50), (values, p50)):
            out["cycle_ms_p50"] = 1e3 * cycle
            out["sypd_host"] = steps * dt / (365.0 * cycle)
    if trace and traced_ids:
        values.update(_layer_values(rec, win, status, steps, speed, setup_speed))
        values.update({k: v for k, v in setup.items() if k.startswith("setup.")})
        values["setup.first_cycle_excess_ms"] = 1e3 * (
            setup["first_cycle_s"] - p50)
        values["engine.worker_rss_mb"] = worker_rss
        values["process.rss_growth_kb_per_step"] = (
            1024.0 * (fixed["rss_mb"] - win["rss0_mb"])
            / (win["fixed_cycles"] * steps))
        values["process.gc_gen2_collections"] = win["gen2"]
        values["obs.trace_overhead_frac"] = (
            statistics.median(scaled_s[i] for i in traced_ids) / p50 - 1.0)
        values["obs.program_tracer_overhead_frac"] = tracer_frac
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "quick": quick, "seconds": seconds,
        "cycles": n, "traced_cycles": len(traced_ids),
        "steps_per_cycle": steps, "thread_env": THREAD_ENV,
        "attempted": n + win["failed_cycles"] + len(checks.rows),
        "failed": win["failed_cycles"] + checks.failed,
        "values": values, "wall": wall, "checks": checks.rows,
        "host_speed_factor": speed,
        "samples": {"cycle_ms": [1e3 * c for c in scaled_s],
                    "cycle_ms.wall": [1e3 * c for c in cycle_s],
                    "probe_ms": [1e3 * h for h in win["host_s"]],
                    "traced": sorted(traced_ids)},
        "working_set_mb_computed": working_set / 2**20,
        "versions": {"python": sys.version.split()[0], **adapter.versions()},
        "errors": errors,
    }


def _timed_window(adapter, rec, spec, model, probe, seconds: float,
                  trace: bool, min_cycles: int, errors: list[str]) -> dict:
    """Closed loop of cycles for ``seconds``, at least ``min_cycles``.

    A probe runs before and after every cycle and between its steps;
    ``host_s[i]`` is the mean probe time while cycle ``i`` ran (the two
    ends are shared with the neighbouring cycles and count half), and
    ``cycle_s[i]`` leaves the probes out.  In a traced pass odd cycles
    run under the span wrappers, and the window ends on an even count so
    both kinds have as many samples.
    """
    def read_fixed() -> dict:
        sim = adapter.sim_time(model)
        return {"peak_rss_mb": _maxrss_mb(),
                "rss_mb": _proc_rss_mb(os.getpid()),
                "sim_step_us": 0.0 if sim is None else
                1e6 * sim / adapter.steps_done(model)}

    inside: list[float] = []
    last_probe = 0.0

    def between_steps() -> None:
        nonlocal last_probe
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            inside.append(probe())
            last_probe = perf_counter()

    win = {"rss0_mb": _proc_rss_mb(os.getpid()),
           "count0": adapter.counters(model), "failed_cycles": 0,
           "fixed": None, "fixed_cycles": min_cycles}
    gen2_0 = gc.get_stats()[2]["collections"]
    cycle_s: list[float] = []
    host_s: list[float] = []
    traced_ids: set[int] = set()
    before = probe()
    window0 = perf_counter()
    while True:
        i = len(cycle_s)
        traced = trace and i % 2 == 1
        if traced:
            rec.cycle = i
            adapter.patch_layers(rec, model)
        inside.clear()
        try:
            a = last_probe = perf_counter()
            adapter.run_cycle(spec, model, between_steps)
            b = perf_counter()
        except Exception:  # noqa: BLE001 - a failed cycle is a result
            errors.append(traceback.format_exc())
            win["failed_cycles"] += 1
            break
        finally:
            rec.restore()
        after = probe()
        cycle_s.append(b - a - sum(inside))
        host_s.append((before / 2 + sum(inside) + after / 2)
                      / (len(inside) + 1))
        before = after
        if traced:
            traced_ids.add(i)
        n = len(cycle_s)
        if n == min_cycles:
            win["fixed"] = read_fixed()
        done = n >= min_cycles and perf_counter() - window0 >= seconds
        if done and not (trace and n % 2):
            break
    if win["fixed"] is None:  # a failed cycle ended the window early
        win["fixed"], win["fixed_cycles"] = read_fixed(), max(1, len(cycle_s))
    win.update(cycle_s=cycle_s, host_s=host_s, traced_ids=traced_ids,
               count1=adapter.counters(model),
               gen2=gc.get_stats()[2]["collections"] - gen2_0)
    return win


def _verify(adapter, spec, mesh, geom, inputs, model, status, warm, count,
            checks: Checks) -> None:
    state = adapter.global_state(model)
    before = adapter.invariants(spec, mesh, geom, inputs)
    after = adapter.invariants(spec, mesh, geom, state)
    checks.add("state_finite", after["finite"])
    checks.at_most("dry_mass_drift", _rel(after["mass"], before["mass"]))
    if spec["kind"] == "dist_prim":  # the serial run's physics moves water
        checks.at_most("tracer_mass_drift", float(max(
            _rel(a, b) for a, b in
            zip(after["tracer_mass"], before["tracer_mass"]))))
    if spec["kind"] == "dist_sw":
        checks.at_most("sw_height_l2_error",
                       adapter.sw_height_error(mesh, state, inputs))
    if spec["workers"]:
        # No silent serial fallback: a pool that is not live has failed.
        checks.add("pool_active",
                   status["active"] and status["fallback_reason"] is None,
                   status["fallback_reason"])
        checks.add("pool_no_recoveries",
                   count["recoveries"] == 0 and count["degrades"] == 0,
                   count["recoveries"] + count["degrades"], 0)
        warm_state, warm_sim = warm
        twin = adapter.build_model(spec, mesh, inputs, workers=0)
        try:
            adapter.run_cycle(spec, twin)
            checks.add("pool_bitwise_vs_inproc", adapter.states_equal(
                warm_state, adapter.global_state(twin)))
            checks.add("pool_sim_time_equal",
                       warm_sim == adapter.sim_time(twin),
                       warm_sim, adapter.sim_time(twin))
        finally:
            adapter.close_model(twin)


def _program_tracer_overhead(adapter, spec, mesh, inputs, quick) -> float:
    """Cycle time with the program's own tracer on, over its cycle time
    with the tracer off.

    Two models are built and warmed up here and their cycles alternate,
    so both have the same age (SimMPI's mailbox grows with every step)
    and see the same host.
    """
    models = {False: adapter.build_model(spec, mesh, inputs),
              True: adapter.build_model(spec, mesh, inputs,
                                        program_tracer=True)}
    times: dict[bool, list[float]] = {False: [], True: []}
    try:
        for model in models.values():
            adapter.run_cycle(spec, model)
        for i in range(1 if quick else PROGRAM_TRACER_CYCLES):
            for on in (i % 2 == 0, i % 2 == 1):  # alternate who goes first
                a = perf_counter()
                adapter.run_cycle(spec, models[on])
                times[on].append(perf_counter() - a)
    finally:
        for model in models.values():
            adapter.close_model(model)
    return statistics.median(times[True]) / statistics.median(times[False]) - 1.0


def _layer_values(rec, win, status, steps, speed,
                  setup_speed) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced cycles and the
    program's counters over the whole window; times at the reference
    host speed, shares and counts as they are."""
    from spans import budget

    cycle_s, traced_ids = win["cycle_s"], win["traced_ids"]
    count0, count1 = win["count0"], win["count1"]
    nt = len(traced_ids)
    traced_wall = sum(cycle_s[i] for i in traced_ids)
    ms = 1e3 * speed
    rows = budget(rec.spans, traced_ids)
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
    out: dict[str, float] = {}
    for layer in LAYERS:
        row = rows.get(layer, zero)
        out[f"{layer}.calls_per_cycle"] = row["calls"] / nt
        out[f"{layer}.ms_per_cycle"] = ms * row["inclusive_s"] / nt
        out[f"{layer}.self_share"] = row["self_s"] / traced_wall
    driver = rows.get("driver", zero)
    out["driver.self_ms_per_cycle"] = ms * driver["self_s"] / nt
    out["driver.self_share"] = driver["self_s"] / traced_wall
    setup_rows = budget(rec.spans, {-1})
    for layer in ("setup.halo_tables", "setup.pool_start"):
        out[f"{layer}_s"] = (
            setup_speed * setup_rows.get(layer, zero)["inclusive_s"])

    n = len(cycle_s)
    wall = sum(cycle_s)
    per_cycle = {k: (count1[k] - count0[k]) / n for k in count0}
    out["simmpi.messages_per_cycle"] = per_cycle["messages"]
    out["simmpi.bytes_per_cycle"] = per_cycle["bytes"]
    out["simmpi.comm_wait_sim_us_per_step"] = (
        1e6 * per_cycle["comm_wait_sim_s"] / steps)
    out["simmpi.retransmissions"] = count1["retransmissions"]
    out["halo.us_per_message"] = (
        1e3 * out["halo.ms_per_cycle"] / per_cycle["messages"]
        if per_cycle["messages"] else 0.0)
    out["engine.tasks_per_cycle"] = per_cycle["tasks"]
    out["engine.bytes_in_per_cycle"] = per_cycle["bytes_in"]
    out["engine.bytes_out_per_cycle"] = per_cycle["bytes_out"]
    out["engine.worker_busy_ms_per_cycle"] = ms * per_cycle["worker_busy_s"]
    workers = status["workers"] if status["active"] else 0
    out["engine.worker_utilization"] = (
        (count1["worker_busy_s"] - count0["worker_busy_s"]) / (workers * wall)
        if workers else 0.0)
    piped = per_cycle["overlap_s"] + per_cycle["pipeline_wait_s"]
    out["engine.overlap_fraction"] = (
        per_cycle["overlap_s"] / piped if piped else 0.0)
    out["engine.pipeline_wait_ms_per_cycle"] = ms * per_cycle["pipeline_wait_s"]
    out["engine.recoveries"] = count1["recoveries"]
    out["engine.degrades"] = count1["degrades"]
    out["engine.context_peak_bytes"] = status["context_peak_bytes"]
    return out


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Command line -> the keyword arguments of :func:`run`."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=lambda s: bool(int(s)), default=False)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    result = run(**vars(parse_args(argv)))
    for err in result.get("errors", ()):
        print(err, file=sys.stderr)
    print(json.dumps(result, default=float))
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here), str(here.parents[1] / "src")]
    sys.exit(main())
