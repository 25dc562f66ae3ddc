"""Import smoke over ``examples/``, ``scripts/`` and
``benchmarks/bench_*.py``: deleting a module or a function can never
leave one of them with a dangling import, though no test runs them."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
TOOLS = sorted([*(ROOT / "scripts").glob("*.py"),
                *(ROOT / "benchmarks").glob("bench_*.py")])


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    # Every example runs under an ``if __name__ == "__main__"`` guard, so
    # with another run_name only its imports and definitions execute.
    runpy.run_path(str(path), run_name="smoke")


def test_tools_found():
    assert len(TOOLS) >= 10


@pytest.mark.parametrize("path", TOOLS,
                         ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_tool_imports_resolve(path):
    # Scripts guard their work with ``__main__`` and benchmark modules
    # only define tests, so this executes their imports and definitions.
    runpy.run_path(str(path), run_name="smoke")


def test_self_healing_run_writes_its_report(tmp_path):
    """``--report`` once died at the ``json.dump``, after every scenario
    had passed, and an import-only smoke could not see it."""
    example = next(p for p in EXAMPLES if p.stem == "self_healing_run")
    out = tmp_path / "chaos.json"
    main = runpy.run_path(str(example), run_name="smoke")["main"]
    assert main(["--chaos", "corrupt-result", "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [s["scenario"] for s in report["scenarios"]] == ["corrupt-result"]
    assert report["scenarios"][0]["bitwise_identical"]


def test_a_ladder_rung_pins_one_blas_thread():
    """A rung started directly (``--rung``, as an A/B run quotes it) with
    no BLAS thread variable set runs one BLAS thread, as the rungs the
    ladder spawns do: OpenBLAS starts its pool when NumPy loads, so the
    rung's process has no thread but its own."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("counts the process's threads in /proc")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(ROOT / "src")
    script = ROOT / "scripts" / "resolution_ladder.py"
    code = (f"import os, runpy, sys; sys.argv = [{str(script)!r}, '--rung', "
            f"'4', '8', 'serial', '--steps', '1']; runpy.run_path(sys.argv[0], "
            f"run_name='__main__'); print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True)
    row, threads = out.stdout.splitlines()[-2:]
    assert json.loads(row)["ne"] == 4
    assert int(threads) == 1
