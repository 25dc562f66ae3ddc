#!/usr/bin/env python
"""Chaos-test the self-healing parallel engine, bit-for-bit.

Runs one seeded chaos scenario from :mod:`repro.parallel.chaos` — a
worker SIGKILL, a stalled heartbeat, a result delayed past the batch
timeout, or a bit flipped in a result, each a task schedule on
one :class:`repro.resilience.FaultInjector` — against the ne2
distributed shallow-water model, and shows:

1. the faulty run completes **bitwise identical** to the fault-free
   serial run (the recovery paths — respawn, task redistribution,
   result re-execution — preserve the driver's fixed-rank-order
   combine);
2. *how* it survived: the engine's ``parallel.recovery.*`` tallies
   (respawns, redistributed tasks, corrupt results caught) and its
   degrade history, which stays empty — worker faults no longer cost
   the pool — plus the :class:`repro.obs.health.HealthMonitor` verdict
   over the same state (a recovered fault reads ``warn``, never
   ``critical``) — and what the same injector observed.

Run:  python examples/self_healing_run.py [--chaos SCENARIO]
                                          [--workers N] [--steps N]
                                          [--seed N] [--at-step N]
                                          [--report OUT.json]

``--chaos all`` (the default) runs every scenario.  With ``--report``,
a JSON summary of every scenario report is written for downstream
tooling — the CI chaos-smoke job uploads it as an artifact.
"""

import argparse
import json

from repro.parallel import SCENARIOS, available_cores, run_scenario


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chaos", default="all", metavar="SCENARIO",
                    choices=["all", *SCENARIOS],
                    help=f"scenario to inject: {', '.join(SCENARIOS)}, "
                         "or 'all' (default)")
    ap.add_argument("--workers", type=int, default=2,
                    help="worker processes for the chaotic run (default 2)")
    ap.add_argument("--steps", type=int, default=2, help="RK3 steps to run")
    ap.add_argument("--seed", type=int, default=0,
                    help="chaos schedule seed (same seed -> same faults)")
    ap.add_argument("--at-step", type=int, default=0,
                    help="step whose first RK stage takes the faults: 0 "
                         "(default) hits the first use of each stage array's "
                         "arena region, a later one the steady state")
    ap.add_argument("--report", metavar="OUT.json", default=None,
                    help="write the JSON scenario reports here")
    ns = ap.parse_args(argv)

    names = list(SCENARIOS) if ns.chaos == "all" else [ns.chaos]
    print(f"ne2 shallow water, 4 simulated ranks, {ns.steps} steps, "
          f"{ns.workers} workers; machine has "
          f"{available_cores()} core(s)")

    reports, all_ok = [], True
    for name in names:
        rep = run_scenario(
            name, workers=ns.workers, steps=ns.steps, seed=ns.seed,
            at_step=ns.at_step,
        )
        reports.append(rep)
        recovered = {k: v for k, v in rep["recovery"].items() if v}
        verdict = "bitwise identical" if rep["bitwise_identical"] else \
            "TRAJECTORY DIVERGED"
        degraded = rep["recovery"]["pool_degrades"]
        all_ok &= rep["bitwise_identical"] and degraded == 0
        print(f"  {name:<16} {verdict}; pool "
              f"{'alive' if rep['pool_active_at_end'] else 'DEGRADED'}; "
              f"recovery {recovered or '{}'}")
        hv = rep["health"]
        print(f"  {'':<16} health: {hv['verdict']}"
              + "".join(f"; [{f['severity']}] {f['rule']}"
                        for f in hv["findings"]))
        if rep["fault_events"]:
            print(f"  {'':<16} observed: {rep['fault_events']}")

    print(f"{len(reports)} scenario(s): "
          + ("all recovered bitwise" if all_ok else "FAILURES above"))

    if ns.report:
        with open(ns.report, "w") as f:
            json.dump({"cores": available_cores(), "scenarios": reports},
                      f, indent=2)
        print(f"[report] -> {ns.report}")

    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
