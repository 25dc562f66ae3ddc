"""Step-level benchmark: whole-model workloads, end to end and per layer.

    python3 benchmarks/step/run.py [--workload NAME] [--seed N] [--quick]
                                   [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/step/run.py compare A.json B.json

Every workload runs in its own fresh process (``worker.py``): an
untraced pass gives the end-to-end metrics, a traced pass the per-layer
ones; ``--trace`` picks one pass, the default is both.  Metric names,
units, directions and bounds are read from ``BENCHMARK.json``.  With one
workload and one pass the last line printed is the result object the
benchmark contract asks for.  The exit code is non-zero when a cycle or
a verify check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "step-bench/1"

#: Fresh-process set-up probes per untraced pass (the run itself is one).
SETUP_PROBES = 3
#: A worker that has not finished by then is stuck; the contract's cap
#: on one run is 180 s.
WORKER_TIMEOUT_S = 170
#: Above this 1-min load average the host is not quiet enough to trust.
LOAD_WARN = 0.5

#: Reported beside the end-to-end metrics and compared exactly: the
#: simulated clock and the failure count are deterministic.
EXACT_REL = 1e-12


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- running the workers --------------------------------------------------------


def spawn(*args: str) -> dict:
    """Run ``worker.py`` to completion; return the object it printed."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The worker's own pool processes share its session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"worker {' '.join(args)} timed out") from None
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"worker {' '.join(args)} exited {proc.returncode} "
            "without a result") from None


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            quick: bool, trace_out: str | None) -> dict:
    """One pass of one workload, with units attached to its metrics."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        args.append("--quick")
    if trace_out:
        args += ["--trace-out", trace_out]
    res = spawn(*args)
    if "skipped" in res:
        return res
    values = res["values"]
    if not trace:
        probes = [res]
        for _ in range(0 if quick else SETUP_PROBES - 1):
            probes.append(spawn("--workload", workload, "--seed", str(seed),
                                "--setup-only"))
        for key in ("values", "wall"):  # at the reference host speed; as timed
            setups = [p[key]["setup_s"] for p in probes]
            res[key]["setup_s"] = statistics.median(setups)
            res["samples"][f"setup_s.{key}"] = setups
    # A run whose first timed cycle failed has no cycle times to report.
    res["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in spec["per_layer" if trace else "end_to_end"]
                      if m["name"] in values}
    return res


def provenance(args, spec: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        sha = ""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "available_cores": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(),
            "platform": platform.platform(),
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "bounds": {m["name"]: m["bound"] for m in spec["end_to_end"]},
            "loadavg_1min_start": os.getloadavg()[0]}


def run_workload(spec: dict, name: str, why: str, passes: tuple[int, ...],
                 args, trace_out: str | None) -> dict:
    """The requested passes of one workload: its report row, or
    ``{"skipped": reason}``."""
    row = {"why": why, "attempted": 0, "failed": 0, "checks": {}, "cycles": {},
           "samples": {}, "wall": {}, "host_speed_factor": {}}
    for trace in passes:
        res = measure(spec, name, args.seed, args.seconds, trace, args.quick,
                      trace_out if trace else None)
        if "skipped" in res:
            return {"skipped": res["skipped"]}
        key = "per_layer" if trace else "end_to_end"
        row[key] = res["metrics"]
        row["attempted"] += res["attempted"]
        row["failed"] += res["failed"]
        row["checks"][key] = res["checks"]
        row["cycles"][key] = res["cycles"]
        row["samples"][key] = res["samples"]
        row["wall"][key] = res["wall"]
        row["host_speed_factor"][key] = res["host_speed_factor"]
        row["sim_step_us"] = res["values"]["sim_step_us"]
        for same in ("steps_per_cycle", "working_set_mb_computed", "versions",
                     "thread_env"):  # equal in both passes
            row[same] = res[same]
    row["failed_fraction"] = row["failed"] / row["attempted"]
    return row


def run_all(args, spec: dict) -> dict:
    """Run the requested workloads and passes; return the report."""
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    names = [args.workload] if args.workload else list(whys)
    passes = (0, 1) if args.trace is None else (args.trace,)
    prov = provenance(args, spec)
    report = {"schema": SCHEMA, "quick": args.quick, "provenance": prov,
              "workloads": {}, "skipped": {}}
    if prov["loadavg_1min_start"] > LOAD_WARN:
        print(f"warning: 1-min load average {prov['loadavg_1min_start']:.2f} "
              f"> {LOAD_WARN}: the host is not idle, timings may not be comparable")
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            trace_out = f"{trace_out}.{name}"
        row = run_workload(spec, name, whys[name], passes, args, trace_out)
        if "skipped" in row:
            report["skipped"][name] = row["skipped"]
            continue
        # The same in every worker of one run.
        prov["versions"] = row.pop("versions")
        prov["thread_env"] = row.pop("thread_env")
        report["workloads"][name] = row
    report["derived"] = derived(report["workloads"])
    prov["loadavg_1min_end"] = os.getloadavg()[0]
    return report


def derived(rows: dict) -> dict:
    """Cross-workload ratios, each with its base in its name."""

    def metric(workload: str, kind: str, name: str):
        return rows.get(workload, {}).get(kind, {}).get(name, {}).get("value")

    out = {}
    p50 = {w: metric(w, "end_to_end", "cycle_ms_p50") for w in rows}
    if p50.get("prim_dist_inproc") and p50.get("prim_dist_pool"):
        out["derived.pool_speedup_vs_inproc"] = (
            p50["prim_dist_inproc"] / p50["prim_dist_pool"])
    if p50.get("prim_dist_inproc") and p50.get("prim_serial"):
        out["derived.dist_overhead_vs_serial"] = (
            p50["prim_dist_inproc"] / p50["prim_serial"])
    share = metric("prim_dist_inproc", "per_layer", "engine.self_share")
    if share is not None:
        # Only the engine's share can be spread over workers.
        out["derived.amdahl_ceiling"] = 1.0 / (1.0 - share)
    return out


def render(report: dict) -> str:
    lines = []
    for name, row in report["workloads"].items():
        lines.append(f"== {name}: {row['why']}")
        lines.append(f"   cycles {row['cycles']}, "
                     f"working set (computed) {row['working_set_mb_computed']:.1f} MB")
        for kind in ("end_to_end", "per_layer"):
            wall = row["wall"].get(kind, {})
            for metric, m in row.get(kind, {}).items():
                asis = (f"   (wall clock {wall[metric]:.6g})"
                        if kind == "end_to_end" and metric in wall else "")
                lines.append(f"   {metric:<40} {m['value']:>16.6g} {m['unit']}{asis}")
            if kind == "end_to_end":
                lines.append(f"   {'sim_step_us':<40} {row['sim_step_us']:>16.6f} us (exact)")
                lines.append(f"   {'failed_fraction':<40} {row['failed_fraction']:>16.6g} "
                             f"ratio ({row['failed']} of {row['attempted']})")
        for kind, checks in row["checks"].items():
            for check, c in checks.items():
                verdict = "ok" if c["ok"] else "FAILED"
                lines.append(f"   check.{check:<34} {verdict:>16} "
                             f"value={c['value']} limit={c['limit']} ({kind})")
    for name, why in report["skipped"].items():
        lines.append(f"== {name}: skipped: {why}")
    for name, value in report["derived"].items():
        lines.append(f"{name:<43} {value:>16.6g} ratio")
    return "\n".join(lines)


# -- comparing two reports ------------------------------------------------------


def _spread(samples: list[float]) -> float:
    """Interquartile range over median (range, below four samples)."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def _metric_spread(row: dict, metric: str) -> float:
    samples = row["samples"].get("end_to_end", {})
    if metric == "setup_s":
        return _spread(samples.get("setup_s.values", []))
    if metric in ("cycle_ms_p50", "sypd_host"):
        return _spread(samples.get("cycle_ms", []))
    return 0.0


def _is_count(metric: str) -> bool:
    return (metric.endswith(".calls_per_cycle")
            or metric in ("simmpi.messages_per_cycle", "simmpi.bytes_per_cycle"))


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows comparing report ``b`` against base ``a``; and whether any is worse.

    Timed metrics: ``worse`` when ``b`` is worse than ``a`` by more than
    the bound, ``unresolved`` when the spread inside either run is wider
    than the bound (the runs cannot tell), else ``ok``.  Deterministic
    values and counts must agree exactly.
    """
    if a["quick"] != b["quick"]:
        raise SystemExit("refusing to compare a --quick report with a full one")
    lines = [f"{'workload':<18}{'metric':<34}{'A (base)':>14}{'B':>14}"
             f"{'B/A':>9}{'bound':>7}{'spread':>8}  verdict"]
    worse = False
    for name in a["workloads"]:
        ra, rb = a["workloads"][name], b["workloads"].get(name)
        if rb is None:
            lines.append(f"{name:<18}missing in B")
            worse = True
            continue
        for m in spec["end_to_end"]:
            va = ra["end_to_end"][m["name"]]["value"]
            vb = rb["end_to_end"][m["name"]]["value"]
            loss = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            spread = max(_metric_spread(ra, m["name"]),
                         _metric_spread(rb, m["name"]))
            verdict = ("unresolved" if spread > m["bound"]
                       else "worse" if loss > m["bound"] else "ok")
            worse |= verdict == "worse"
            lines.append(f"{name:<18}{m['name']:<34}{va:>14.6g}{vb:>14.6g}"
                         f"{vb / va:>9.3f}{m['bound']:>7.2f}{spread:>8.3f}  {verdict}")
        exact = [("sim_step_us", ra["sim_step_us"], rb["sim_step_us"]),
                 ("failed", ra["failed"], rb["failed"])]
        exact += [(k, m["value"], rb.get("per_layer", {}).get(k, {}).get("value"))
                  for k, m in ra.get("per_layer", {}).items() if _is_count(k)]
        for metric, va, vb in exact:
            same = vb is not None and abs(vb - va) <= EXACT_REL * abs(va)
            worse |= not same
            shown = "missing" if vb is None else f"{vb:.6g}"
            lines.append(f"{name:<18}{metric:<34}{va:>14.6g}{shown:>14}"
                         f"{'':>9}{'exact':>7}{'':>8}  {'ok' if same else 'worse'}")
    return lines, worse


# -- command line ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("a")
        ap.add_argument("b")
        args = ap.parse_args(argv[1:])
        with open(args.a) as fa, open(args.b) as fb:
            lines, worse = compare(json.load(fa), json.load(fb), spec)
        print("\n".join(lines))
        return 1 if worse else 0

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="length of the timed window (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: untraced pass only, 1: traced pass only")
    ap.add_argument("--quick", action="store_true",
                    help="smoke run: 1 warm-up + 2 cycles, one set-up probe")
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument("--trace-out", help="write the traced pass's spans here")
    args = ap.parse_args(argv)
    if args.quick:
        args.seconds = 0.0

    report = run_all(args, spec)
    print(render(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"report written to {args.out}")
    failed = sum(r["failed"] for r in report["workloads"].values())
    if args.workload and args.trace is not None:
        if report["skipped"]:
            return 2
        row = report["workloads"][args.workload]
        kind = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({"correct": failed == 0, "attempted": row["attempted"],
                          "failed": failed, "metrics": row[kind]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
