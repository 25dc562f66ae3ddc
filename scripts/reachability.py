"""Which ``src/`` functions do the program's entry points reach?

Runs each given command with every Python process it starts profiled by
``sys.setprofile`` (and ``threading.setprofile``), then compares the
functions that were called against every function defined under
``src/repro`` and prints the ones never reached, largest first::

    python scripts/reachability.py --run "python examples/quickstart.py" \\
        --run "python -m repro.experiments.runner --all --quick"

The profiler is installed by a ``sitecustomize`` module put first on the
``PYTHONPATH`` of the commands, so subprocesses are profiled too.  Each
process writes the code objects it called into its own file when it
exits, whether through ``atexit`` or ``os._exit`` — the way a forked
pool worker (``parallel.supervisor._worker_main``) ends.  A process
killed by a signal writes nothing.

A function's *body lines* are the lines from its first body statement to
its last, minus the lines of the functions and classes nested in it
(they count as their own).  The last two lines printed are the totals::

    unreached functions: U of F
    unreached body lines: L of B

Standard library only.  ``--summary FILE`` appends the two totals to
FILE as Markdown (a CI step summary); ``--list N`` bounds how many
unreached functions are printed (default all).  The exit status is 1 if
any command failed (its last output lines go to stderr): the totals then
undercount what the entry points reach.
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The profiler every command's Python processes import at start-up.
HOOK = '''\
import os
import sys
import threading

_dir = os.environ.get("REACHABILITY_DIR")
if _dir:
    _codes = {}

    def _profile(frame, event, arg, _codes=_codes):
        if event == "call":
            code = frame.f_code
            _codes[id(code)] = code

    def _dump():  # a forked child writes its own file
        src = os.environ["REACHABILITY_SRC"]
        path = os.path.join(_dir, f"{os.getpid()}.txt")
        with open(path, "a") as f:
            for code in list(_codes.values()):
                if code.co_filename.startswith(src):
                    f.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")
        _codes.clear()

    _exit = os._exit

    def _dump_then_exit(status):
        try:
            _dump()
        finally:
            _exit(status)

    import atexit
    atexit.register(_dump)
    os._exit = _dump_then_exit
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


def functions(src: Path):
    """Every function under ``src/repro``: ``(file, first line, name,
    body lines)``; the first line is the code object's ``co_firstlineno``
    (a decorator's line when decorated)."""
    out = []
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = set(range(node.body[0].lineno, node.end_lineno + 1))
            for inner in ast.walk(node):
                if inner is not node and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                    first = min([inner.lineno] + [d.lineno for d in
                                                  inner.decorator_list])
                    body -= set(range(first, inner.end_lineno + 1))
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((str(path), first, node.name, len(body)))
    return out


def reached(directory: Path) -> set[tuple[str, int]]:
    seen = set()
    for dump in directory.glob("*.txt"):
        for line in dump.read_text().splitlines():
            name, first = line.rsplit("\t", 1)
            seen.add((os.path.realpath(name), int(first)))
    return seen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--run", action="append", default=[], metavar="CMD",
                    help="a command to run profiled (repeatable)")
    ap.add_argument("--list", type=int, default=None, metavar="N",
                    help="print at most N unreached functions")
    ap.add_argument("--summary", type=Path, default=None, metavar="FILE",
                    help="append the totals to FILE as Markdown")
    args = ap.parse_args(argv)
    if not args.run:
        ap.error("give at least one --run command")

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hook_dir, dumps = Path(tmp, "hook"), Path(tmp, "dumps")
        hook_dir.mkdir()
        dumps.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACHABILITY_DIR=str(dumps),
                   REACHABILITY_SRC=os.path.realpath(SRC))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(SRC)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        failed = []
        for cmd in args.run:
            print(f"$ {cmd}", file=sys.stderr, flush=True)
            done = subprocess.run(shlex.split(cmd), cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, text=True)
            if done.returncode:
                failed.append(cmd)
                print(*done.stdout.splitlines()[-20:], sep="\n", file=sys.stderr)
        seen = reached(dumps)

    funcs = functions(SRC)
    missed = [f for f in funcs if (os.path.realpath(f[0]), f[1]) not in seen]
    missed.sort(key=lambda f: (-f[3], f[0], f[1]))
    for path, first, name, lines in missed[:args.list]:
        print(f"{lines:5d}  {os.path.relpath(path, ROOT)}:{first} {name}")
    totals = (f"unreached functions: {len(missed)} of {len(funcs)}",
              f"unreached body lines: {sum(f[3] for f in missed)} of "
              f"{sum(f[3] for f in funcs)}")
    print(*totals, sep="\n")
    if args.summary is not None:
        with open(args.summary, "a") as out:
            out.write(f"Reachability over {len(args.run)} entry points: "
                      f"{totals[0]}; {totals[1]}\n")
    for cmd in failed:
        print(f"command failed: {cmd}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
