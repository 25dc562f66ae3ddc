"""Import smoke over ``examples/``: deleting a module can never leave an
example with a dangling import."""

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
