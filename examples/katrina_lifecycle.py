#!/usr/bin/env python
"""The Hurricane Katrina experiment (paper Section 9, Figure 9).

Plants a gradient-wind-balanced warm-core vortex at Katrina's genesis
position, runs coarse (ne30-class) and fine (ne120-class) members of
the full dycore + Reed--Jablonowski physics on a reduced-radius sphere,
tracks both storms, and prints the simulated series next to the NHC
best track.

Run:  python examples/katrina_lifecycle.py          (~5-10 minutes)
      python examples/katrina_lifecycle.py --quick  (~2 minutes)
"""

import sys

from repro.katrina import KatrinaExperiment
from repro.katrina.besttrack import KATRINA_BEST_TRACK
from repro.utils.tables import render_table


def main(quick: bool = False) -> None:
    hours = 3.0 if quick else 8.0
    exp = KatrinaExperiment(coarse_ne=4, fine_ne=12, hours=hours)

    print(f"Running twin members for {hours:.0f} simulated hours "
          f"(reduced-radius sphere, X={exp.x:.0f}) ...")
    results = exp.run()

    rows = []
    for key in ("coarse", "fine"):
        r = results[key]
        rows.append(
            [r.label, f"{r.effective_resolution_km:.0f} km",
             f"{r.initial_msw:.1f}", f"{r.peak_msw:.1f}", f"{r.late_msw:.1f}",
             f"{r.final_min_ps:.1f}", "yes" if r.retained else "NO"]
        )
    print()
    print(render_table(
        ["member", "eff. res", "init MSW", "peak MSW", "late MSW",
         "min ps [hPa]", "storm retained"],
        rows, title="Resolution sensitivity (the paper's Figure 9a vs 9b)",
    ))

    print()
    fine = results["fine"]
    rows = [
        [f"{fx.hours:.0f}", f"{fx.lat:.2f}", f"{fx.lon:.2f}",
         f"{fx.msw_ms:.1f}", f"{fx.min_ps_hpa:.1f}"]
        for fx in fine.tracker.fixes
    ]
    print(render_table(
        ["hour", "lat", "lon", "MSW [m/s]", "min ps [hPa]"],
        rows, title="Fine-member track and intensity (Figure 9c/9d analogue)",
    ))

    print()
    obs = [
        [f"{p.hours:.0f}", f"{p.lat:.1f}", f"{p.lon:.1f}",
         f"{p.max_wind_ms:.1f}", f"{p.min_pressure_hpa:.0f}"]
        for p in KATRINA_BEST_TRACK[::4]
    ]
    print(render_table(
        ["hour", "lat", "lon", "MSW [m/s]", "min ps [hPa]"],
        obs, title="NHC best track of Katrina (every 24 h)",
    ))


if __name__ == "__main__":
    main(quick="--quick" in sys.argv)
