"""A wall-clock sampling profiler for worker processes.

The simulated-time tracer (:mod:`repro.obs.tracer`) answers "where does
*simulated* time go"; it cannot answer "where does the *wall clock* go
inside a forked worker", which is the number the scaling-study and
autotuning work needs.  :class:`SamplingProfiler` is the smallest
honest answer: a daemon thread wakes at a configurable rate, grabs the
target thread's current Python stack via ``sys._current_frames()``, and
aggregates it into ``dir/file.py:func`` frame keys with *self* (leaf)
and *cumulative* (anywhere-on-stack) hit counts.

Design constraints, in order:

- **Cheap.**  No ``sys.settrace`` — sampling perturbs the profiled
  code only by the GIL hand-off of one stack walk per tick.  The
  default rate is a prime (:data:`PROFILE_HZ`) so periodic workloads
  don't alias against the sampler.
- **Cross-process mergeable.**  Frames are plain strings and counts
  plain ints, so a worker's :meth:`drain` output rides back on its pool
  reply and folds into the driver's aggregate with
  :func:`merge_profiles` — no pickle games, no live objects.
- **Statistical, and labelled as such.**  Sample counts are never part
  of any determinism contract; the telemetry canonicalizer
  (:mod:`repro.obs.telemetry`) strips them before byte comparison.
"""

from __future__ import annotations

import os
import sys
import threading

__all__ = ["PROFILE_HZ", "SamplingProfiler", "frame_key", "merge_profiles"]

#: Default sampling rate.  A prime, so fixed-period workloads (task
#: loops, heartbeat ticks) don't systematically hide from the sampler.
PROFILE_HZ = 97.0


def frame_key(filename: str, funcname: str) -> str:
    """Aggregate key for one stack frame: ``dir/file.py:func``.

    Only the last two path components are kept, so the same source
    file produces the same key on every machine and in every checkout.
    """
    base = os.path.basename(filename)
    parent = os.path.basename(os.path.dirname(filename))
    return f"{parent}/{base}:{funcname}" if parent else f"{base}:{funcname}"


def merge_profiles(into: dict[str, tuple[int, int]],
                   delta: dict[str, tuple[int, int]]) -> dict[str, tuple[int, int]]:
    """Fold one ``frame -> (self, cum)`` dict into another; returns ``into``."""
    for frame, (self_n, cum_n) in delta.items():
        s, c = into.get(frame, (0, 0))
        into[frame] = (s + self_n, c + cum_n)
    return into


class SamplingProfiler:
    """Sample one thread's Python stack on a wall-clock cadence.

    Parameters
    ----------
    hz:
        Target sampling rate (samples per second).
    thread_id:
        ``ident`` of the thread to sample; defaults to the *main*
        thread — in a pool worker that is the task loop.
    max_stack:
        Frames walked per sample (deep recursions are truncated at the
        root end; the leaf is always kept, since *self* time lives
        there).
    """

    def __init__(self, hz: float = PROFILE_HZ, thread_id: int | None = None,
                 max_stack: int = 64) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.interval = 1.0 / float(hz)
        self.max_stack = int(max_stack)
        if thread_id is None:
            thread_id = threading.main_thread().ident
        self.thread_id = thread_id
        self._counts: dict[str, list[int]] = {}
        self._samples = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (idempotent)."""
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, daemon=True, name="sampling-profiler")
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (the accumulated counts stay drainable)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- sampling -----------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        frame = sys._current_frames().get(self.thread_id)
        if frame is None:
            return
        # Walk leaf -> root; dedupe within one stack so a recursive
        # function's cumulative count is "samples it was on stack for",
        # not "stack depth x samples".
        stack: list[str] = []
        seen: set[str] = set()
        depth = 0
        while frame is not None and depth < self.max_stack:
            key = frame_key(frame.f_code.co_filename, frame.f_code.co_name)
            if key not in seen:
                seen.add(key)
                stack.append(key)
            frame = frame.f_back
            depth += 1
        if not stack:
            return
        with self._lock:
            self._samples += 1
            for i, key in enumerate(stack):
                counts = self._counts.get(key)
                if counts is None:
                    counts = self._counts[key] = [0, 0]
                counts[1] += 1          # cumulative: anywhere on stack
                if i == 0:
                    counts[0] += 1      # self: the leaf frame

    # -- harvest ------------------------------------------------------------

    def drain(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Atomically take and reset the accumulated counts.

        Returns ``(frames, samples)`` with ``frames`` mapping frame key
        to ``(self_count, cumulative_count)`` — the shape a pool reply
        ships and :func:`merge_profiles` folds.
        """
        with self._lock:
            out = {k: (v[0], v[1]) for k, v in self._counts.items()}
            n = self._samples
            self._counts = {}
            self._samples = 0
        return out, n

    @property
    def samples(self) -> int:
        """Samples accumulated since the last :meth:`drain`."""
        with self._lock:
            return self._samples


def render_profile(frames: dict[str, tuple[int, int]], samples: int,
                   top: int = 10) -> str:
    """Human-readable top-N frame table (self-count ordered)."""
    lines = [f"sampling profile: {samples} samples, {len(frames)} frames"]
    ranked = sorted(frames.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))
    for frame, (self_n, cum_n) in ranked[:top]:
        pct = 100.0 * self_n / samples if samples else 0.0
        lines.append(f"  {pct:5.1f}% self={self_n:<6} cum={cum_n:<6} {frame}")
    return "\n".join(lines)
