"""Alternating parent/change pairs of the step benchmark, with the verdict.

    python3 scripts/bench_pairs.py [--parent REV_OR_DIR] [--pairs N]
                                   [--workload W ...] [--seconds S] [--out FILE]

The comparison a performance change has to show (choosing-metrics §8):
for each pair ``i`` and workload ``W`` run

    python3 benchmarks/step/run.py --workload W --seed i --trace 0

once in a checkout of the parent commit and once in a copy of this
working tree, alternating which side goes first, and print per workload
x end-to-end metric each side's median and quartiles, the change of the
median, the pairs the change won, and the verdict:

- ``gain``: at least ten pairs were run, the change wins at least 9/10
  of them (ties count for neither side) and the medians differ, in the
  better direction, by more than the distance between the quartiles of
  the parent's own runs (``ahead``: the same on fewer than ten pairs);
- ``worse``: the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
- ``unresolved``: neither of those, and the parent's runs spread wider
  than the bound, unless every run of the change beats every run of the
  parent; ``within bound`` otherwise.

``--parent`` is a revision (default ``HEAD~1``), checked out with ``git
worktree add``, or a directory that already holds the parent's files,
copied.  Either way the parent lands in ``<tmp>/parent`` and the working
tree is copied to ``<tmp>/change`` in the same temporary directory,
removed afterwards: both sides run from paths of the same shape and
length (``peak_rss_mb`` moves with the checkout path), and an edit to
the working tree during the runs does not reach them.  The script drives
the harness and edits nothing under ``benchmarks/step``; run length is
the benchmark's ``run_seconds`` unless ``--seconds`` says otherwise
(smoke runs only: a claim uses the default).  Exit code 1 when a run
failed or a metric came out ``worse``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "step" / "run.py"
#: Share of all pairs the change must win before a gain is claimed,
#: and the fewest pairs a claim may rest on.
WIN_SHARE = 0.9
MIN_PAIRS = 10


#: What a tree copy leaves out: version control and caches.
SKIP = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache",
                              ".hypothesis")


@contextmanager
def checkouts(parent: str):
    """``(parent, change)``: sibling directories of one temporary
    directory, the parent's files and a copy of this working tree; a
    worktree is removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        tree, change = Path(tmp) / "parent", Path(tmp) / "change"
        shutil.copytree(ROOT, change, ignore=SKIP)
        if (Path(parent) / RUN).is_file():
            shutil.copytree(parent, tree, ignore=SKIP)
            yield tree, change
            return
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), parent],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            yield tree, change
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                           cwd=ROOT, check=False)


def run_once(tree: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One untraced pass in ``tree``; the result object ``run.py`` prints last."""
    cmd = [sys.executable, str(RUN), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit_code"] = proc.returncode
    return result


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """Medians, quartiles, wins and the verdict for one metric x workload."""
    sign = 1.0 if better == "higher" else -1.0  # > 0 means the change is better
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ahead = sign * (cm - pm)
    iqr = p3 - p1
    if wins >= WIN_SHARE * len(parent) and ahead > iqr:
        verdict = "gain" if len(parent) >= MIN_PAIRS else "ahead"
    elif -ahead > bound * abs(pm):
        verdict = "worse"
    elif iqr > bound * abs(pm) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": {"median": pm, "q1": p1, "q3": p3},
            "change": {"median": cm, "q1": c1, "q3": c3},
            "delta": (cm - pm) / pm if pm else 0.0,
            "wins": wins, "losses": losses, "verdict": verdict}


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", default="HEAD~1",
                    help="revision, or directory holding the parent's files")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: every workload")
    ap.add_argument("--seconds", type=float,
                    help="timed window (default: the benchmark's run_seconds)")
    ap.add_argument("--out", help="write every run and the table here as JSON")
    args = ap.parse_args(argv)
    workloads = args.workload or names

    runs: list[dict] = []
    with checkouts(args.parent) as (parent_tree, change_tree):
        trees = {"parent": parent_tree, "change": change_tree}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in order:
                    res = run_once(trees[side], w, i, args.seconds)
                    runs.append({"pair": i, "workload": w, "side": side, **res})
                    print(f"pair {i} {w:17s} {side:6s} " + "  ".join(
                        f"{k}={v:.4g}" for k, v in res["metrics"].items())
                        + ("" if res["correct"] else "  FAILED"), flush=True)

    table: dict[str, dict] = {}
    bad = False
    print(f"\n{args.pairs} pairs, parent = {args.parent}")
    for w in workloads:
        side_runs = {s: [r for r in runs if r["workload"] == w and r["side"] == s]
                     for s in ("parent", "change")}
        share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                 for s, rs in side_runs.items()}
        table[w] = {"failed_share": share}
        print(f"\n{w}: failed operations parent {share['parent']:.3f} "
              f"change {share['change']:.3f}")
        if share["change"] > share["parent"] or not all(
                r["correct"] for r in side_runs["change"]):
            bad = True
        if not all(r["metrics"] for rs in side_runs.values() for r in rs):
            print("  a run printed no metrics; no verdict")
            bad = True
            continue
        for m in spec["end_to_end"]:
            row = judge(*([r["metrics"][m["name"]] for r in side_runs[s]]
                          for s in ("parent", "change")), m["better"], m["bound"])
            table[w][m["name"]] = row
            bad = bad or row["verdict"] == "worse"
            p, c = row["parent"], row["change"]
            print(f"  {m['name']:13s} parent {p['median']:9.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
                  f"  change {c['median']:9.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
                  f"  {row['delta']:+7.1%}  wins {row['wins']}/{args.pairs}"
                  f" losses {row['losses']}  {row['verdict']}"
                  f" ({m['better']} is better, bound {m['bound']:.0%})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"parent": args.parent, "pairs": args.pairs,
                       "seconds": args.seconds, "runs": runs, "table": table},
                      fh, indent=1)
        print(f"\nreport written to {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
