"""Baseline comparison and regression gating for ``repro.bench``.

The gate applies three rules to a (current, baseline) report pair:

- **wall clock** — fail when a benchmark regresses by more than
  ``wall_threshold`` (default 25%, the CI gate) under **both** the raw
  ratio and the *calibrated* ratio (seconds divided by each report's
  machine-calibration time).  Same machine: raw is exact and
  calibration jitter is ignored.  Different machine: raw shifts by the
  hardware ratio but calibrated does not.  A genuine regression moves
  both together, so gating on the smaller of the two suppresses the
  false positives without opening a hole.  Wall entries whose
  ``meta.gated`` is false (the batched reference path) are reported
  but never fail the gate — their regressions only matter through the
  derived speedup floors.
- **simulated clock** — the backend cost models are deterministic, so
  any drift beyond ``sim_threshold`` (default 1%) means the
  performance model changed; that must be a deliberate, reviewed
  change, so the gate fails.
- **derived floors** — each derived speedup must stay at or above its
  committed floor (``suite.SPEEDUP_FLOORS``): the fused path must
  remain >= 1.5x the batched reference on the primitive-equation RHS
  regardless of how both drift in absolute terms.

Benchmarks present in only one report are reported as added/removed
but do not fail the gate (the suite is allowed to grow).
"""

from __future__ import annotations

import json

__all__ = ["load_report", "compare_reports"]


def load_report(path: str) -> dict:
    """Load a BENCH_*.json report and sanity-check its schema."""
    with open(path) as f:
        report = json.load(f)
    schema = report.get("schema", "")
    if not schema.startswith("repro.bench/"):
        raise ValueError(f"{path}: not a repro.bench report (schema={schema!r})")
    for key in ("benchmarks", "derived", "calibration_s"):
        if key not in report:
            raise ValueError(f"{path}: missing report key {key!r}")
    return report


def compare_reports(
    current: dict,
    baseline: dict,
    wall_threshold: float = 0.25,
    sim_threshold: float = 0.01,
) -> tuple[bool, list[str]]:
    """Gate ``current`` against ``baseline``; returns (ok, report lines)."""
    lines: list[str] = []
    ok = True
    cur = {b["name"]: b for b in current["benchmarks"]}
    base = {b["name"]: b for b in baseline["benchmarks"]}
    cal_cur = float(current["calibration_s"])
    cal_base = float(baseline["calibration_s"])
    lines.append(
        f"calibration: current {cal_cur * 1e3:.2f} ms, "
        f"baseline {cal_base * 1e3:.2f} ms "
        f"(machine speed ratio {cal_cur / cal_base:.2f})"
    )

    for name in sorted(set(cur) & set(base)):
        c, b = cur[name], base[name]
        if c["clock"] != b["clock"]:
            ok = False
            lines.append(f"FAIL {name}: clock changed {b['clock']} -> {c['clock']}")
            continue
        if c["clock"] == "simulated":
            drift = abs(c["seconds"] - b["seconds"]) / max(b["seconds"], 1e-300)
            status = "ok" if drift <= sim_threshold else "FAIL"
            ok = ok and drift <= sim_threshold
            lines.append(
                f"{status:4} {name}: simulated {c['seconds']:.6g}s "
                f"(baseline {b['seconds']:.6g}s, drift {drift * 100:.2f}%)"
            )
        else:
            raw_ratio = c["seconds"] / max(b["seconds"], 1e-300)
            cal_ratio = (c["seconds"] / cal_cur) / (b["seconds"] / cal_base)
            ratio = min(raw_ratio, cal_ratio)
            gated = bool(c.get("meta", {}).get("gated", True))
            regressed = gated and ratio > 1.0 + wall_threshold
            status = "FAIL" if regressed else ("ok" if gated else "info")
            ok = ok and not regressed
            bound = (
                f"gate <= {1 + wall_threshold:.2f}" if gated else "not gated"
            )
            lines.append(
                f"{status:4} {name}: wall {c['seconds'] * 1e3:.3f} ms "
                f"(baseline {b['seconds'] * 1e3:.3f} ms, "
                f"raw x{raw_ratio:.2f}, calibrated x{cal_ratio:.2f}, "
                f"{bound})"
            )

    for name in sorted(set(cur) - set(base)):
        lines.append(f"new  {name}: no baseline entry (not gated)")
    for name in sorted(set(base) - set(cur)):
        lines.append(f"gone {name}: baseline entry not measured (not gated)")

    floors = {**baseline.get("floors", {}), **current.get("floors", {})}
    for name, val in sorted(current.get("derived", {}).items()):
        floor = floors.get(name)
        base_val = baseline.get("derived", {}).get(name)
        # A derived entry without a baseline counterpart is informational
        # (the suite is allowed to grow) — but its floor still applies.
        note = (
            f" (baseline {base_val:.2f}x)" if base_val is not None
            else " (new, no baseline entry)"
        )
        if floor is not None and val < floor:
            ok = False
            lines.append(f"FAIL {name}: {val:.2f}x below floor {floor:.1f}x{note}")
        else:
            bound = f", floor {floor:.1f}x" if floor is not None else ""
            lines.append(f"ok   {name}: {val:.2f}x{bound}{note}")
    for name in sorted(set(baseline.get("derived", {})) - set(current.get("derived", {}))):
        lines.append(f"gone {name}: derived entry not measured (not gated)")

    lines.append("gate: " + ("PASS" if ok else "REGRESSION DETECTED"))
    return ok, lines
