"""Import smoke over ``examples/``: deleting a module can never leave an
example with a dangling import."""

import json
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_resolve(path):
    # Every example runs under an ``if __name__ == "__main__"`` guard, so
    # with another run_name only its imports and definitions execute.
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
