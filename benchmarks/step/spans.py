"""Spans recorded from outside the program, and the layer budget they give.

The benchmark owns its tracing: :class:`SpanRecorder` wraps calls into
each layer's public functions (module attributes, class methods, bound
methods on a model instance) and :meth:`SpanRecorder.restore` puts every
original back — nothing under ``src/`` is edited.  A span is the tuple
``(name, layer, start, end, parent, cycle)``; its id is its index in
``recorder.spans`` and ``parent`` is the id of the span that was open
when it started (``-1`` for a root).  Spans stay in memory until the
run ends.

:func:`budget` turns spans into per-layer numbers.  A span's *self*
time is its duration minus the durations of its direct children, so the
self times of all spans under one root add up to that root's duration
and the per-layer ``self_share`` values sum to at most 1.
"""

from __future__ import annotations

import json
from time import perf_counter

#: Index of each field in a span tuple.
NAME, LAYER, START, END, PARENT, CYCLE = range(6)

_MISSING = object()


class SpanRecorder:
    """Wraps callables in timing spans and remembers how to undo it."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.cycle = -1  # id stamped on every span; set by the caller
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` wrapped so each call records one span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, layer, t0, t1, parent, self.cycle)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, name: str, layer: str) -> None:
        """Replace ``owner.attr`` with its span-recording wrapper.

        ``owner`` is a module, a class or an instance.  What the owner
        itself held under ``attr`` (nothing, for a method looked up on
        the class of an instance) is remembered for :meth:`restore`.
        """
        own = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, layer))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def dump(self, path: str) -> None:
        """Write the finished spans as JSON lines."""
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                if s is None:
                    continue
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "layer": s[LAYER],
                    "start": s[START], "end": s[END],
                    "parent": s[PARENT], "cycle": s[CYCLE],
                }) + "\n")


def budget(spans: list[tuple | None], cycles: set[int]) -> dict[str, dict]:
    """Per-layer totals over the spans whose cycle id is in ``cycles``.

    Returns ``{layer: {"calls", "inclusive_s", "self_s"}}``.  ``self_s``
    sums each span's duration minus its direct children; ``inclusive_s``
    sums the durations of the layer's outermost spans only, so a layer
    that calls back into itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s is not None and s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for sid, s in enumerate(spans):
        if s is None or s[CYCLE] not in cycles:
            continue
        dur = s[END] - s[START]
        row = out.setdefault(s[LAYER], {"calls": 0, "inclusive_s": 0.0,
                                        "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child_time[sid]
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != s[LAYER]:
            p = spans[p][PARENT]
        if p < 0:
            row["inclusive_s"] += dur
    return out
