"""Worker supervision: heartbeats, liveness, respawn, and chaos hooks.

The full-machine runs the paper (and the 40-million-core follow-on,
Duan et al.) describe survive *because* a failed node is handled
locally: detect, replace, re-issue the lost work, keep going — a worker
fault does not cost the pool.

This module is the driver-side half of that story plus everything that
runs *inside* a worker process:

- **Heartbeats.**  Every worker runs a daemon thread that stamps
  ``time.monotonic()`` into its slot of a driver-owned shared-memory
  heartbeat block every :data:`HEARTBEAT_INTERVAL` seconds.  On Linux
  ``CLOCK_MONOTONIC`` is system-wide, so the driver can compare worker
  stamps against its own clock directly.
- **Liveness.**  :meth:`WorkerSupervisor.failures` classifies each
  worker as *crashed* (``Process.exitcode`` is set — the OS reaped it)
  or *hung* (alive but its heartbeat is older than the deadline — a
  stuck or stalled process).  The engine decides what to do about it.
- **Respawn.**  :meth:`WorkerSupervisor.respawn` replaces a failed
  worker in the same slot with a fresh fork (generation + 1).  The
  supervisor holds the engine's ``contexts`` tuple and passes it to
  every worker it starts, so the replacement inherits the exact same
  read-only objects the original had.
- **Chaos hooks.**  The worker side of a
  :class:`~repro.resilience.faults.FaultInjector`'s task schedule, which
  the chaos harness (:mod:`repro.parallel.chaos`) draws: self-SIGKILL
  (``kill_tasks``), heartbeat stall (``stall_tasks``), result delay
  (``delay_tasks``) and result bit flips (``BitFlip(task=)``), all keyed
  by the engine's global task id.  Hooks only fire on a task's *first*
  dispatch (``attempt == 0``) — mirroring the fire-exactly-once rule of
  :meth:`~repro.resilience.faults.FaultInjector.state_flips_at` — so a
  redistributed task re-executes clean and recovery converges.  The
  kill lands mid-batch, never mid-queue-write, so the shared result
  pipe stays intact; the bit flip lands after the digest stamp (in the
  resident array when the result is one, else in the reply's private
  copy).

Result integrity rides along: :func:`result_digest` is the wrapping
64-bit word sum the worker stamps on every result tuple and the driver
re-computes — in place for a resident result, over its unpickled copy of
any other — before accepting it, which is what turns a bit flipped in
transit, or a late writer to a resident array, into a
detected-and-re-executed task instead of a silently corrupted combine.
It reads memory at the speed of a sum, not of a CRC (DESIGN.md §12.3).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import KernelError
from ..obs.profiler import SamplingProfiler
from ..resilience.faults import flip_bit
from . import resident

__all__ = [
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_TIMEOUT",
    "SUPERVISION_TICK",
    "WorkerHandle",
    "WorkerSupervisor",
    "result_digest",
    "task_context",
]

#: Seconds between heartbeat stamps inside each worker.
HEARTBEAT_INTERVAL = 0.1

#: Default driver-side deadline: a worker whose newest heartbeat is
#: older than this is declared hung.  Generous — the heartbeat thread
#: keeps beating through long kernels (numpy releases the GIL, and the
#: interpreter context-switches pure-Python code every few ms), so only
#: a genuinely wedged process goes quiet this long.
HEARTBEAT_TIMEOUT = 10.0

#: Seconds between supervision checks while the driver waits on
#: results.  Bounds fault-detection latency; costs nothing while
#: results are flowing (the poll returns as soon as data is ready).
SUPERVISION_TICK = 0.2


def task_context(contexts: tuple, meta: dict):
    """The context ``meta["ctx"]`` indexes; ``None`` when it names none."""
    idx = meta.get("ctx")
    if idx is None:
        return None
    if not isinstance(idx, int) or not 0 <= idx < len(contexts):
        raise KernelError(
            f"task meta names context {idx!r}; this engine was built "
            f"around {len(contexts)}")
    return contexts[idx]


#: Odd multiplier folding each array's term into the digest: a unit mod
#: 2**64, so a change in any one array's sum always changes the digest.
_FOLD = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def result_digest(arrays: tuple) -> int:
    """Wrapping ``uint64`` sum of every result array's C-ordered bytes.

    Each array contributes the sum of its whole 8-byte words plus its
    zero-padded tail bytes as one more word, xor-ed with its position in
    the tuple and its byte length (so swapped or truncated results
    differ), and the terms are folded in tuple order, from the array
    count, by an odd multiplier.  A single flipped bit moves one word by
    ``±2**k``, never 0 mod ``2**64``, so it always changes the digest.
    A contiguous array is read in place, never copied.
    """
    h = len(arrays)
    for pos, a in enumerate(arrays):
        if not a.flags.c_contiguous:  # copied as raw bytes, a record's padding too
            a = np.ascontiguousarray(a.view((np.void, a.itemsize)))
        raw = a.reshape(-1).view(np.uint8)
        whole = raw.size & ~7
        s = int(raw[:whole].view(np.uint64).sum())
        if whole < raw.size:
            s += int.from_bytes(raw[whole:].tobytes(), "little")
        h = (h * _FOLD + ((s & _MASK) ^ (pos << 56 | raw.size))) & _MASK
    return h


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _inputs(refs: tuple) -> tuple[np.ndarray, ...]:
    """A task's inputs: its descriptor's arena references, viewed."""
    return tuple(resident.view(*r) for r in refs)


def _resident_ref(out: np.ndarray, ins: tuple) -> tuple | None:
    """``(k, offset, shape, strides, dtype)`` when ``out`` lies inside the
    writable C-contiguous input ``k`` (a task returning an array it was
    handed to write), else ``None``: the result then travels by copy.  A
    staged input is read-only, so no result ever names one."""
    if not out.size:
        return None
    lo, hi = resident.bounds(out)
    for k, a in enumerate(ins):
        base = a.ctypes.data
        if (a.flags.writeable and a.flags.c_contiguous and base <= lo
                and hi <= base + a.nbytes):
            return (k, out.ctypes.data - base, out.shape, out.strides,
                    out.dtype)
    return None


def _keep_heap() -> None:
    """Keep freed task temporaries mapped in this worker.

    A task's arrays all die when it returns, so glibc's defaults would
    unmap large ones and trim the heap after every task, and the next
    task would fault every page back in (tens of thousands of faults a
    cycle).  Serving every size from the heap and never trimming it keeps
    a worker at its high-water mark instead, as a driver holding its
    state is.  A no-op where the C library is not glibc.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 2 ** 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 2 ** 25)  # M_MMAP_THRESHOLD: its maximum, 32 MiB


def _heartbeat_loop(hb_view: np.ndarray, slot: int, stop: threading.Event) -> None:
    while not stop.is_set():
        hb_view[slot] = time.monotonic()
        stop.wait(HEARTBEAT_INTERVAL)


def _chaos_pre(faults, tid: int, attempt: int,
               hb_stop: threading.Event) -> None:
    """Faults that fire before the task function runs (kill, stall)."""
    if faults is None or attempt > 0:
        return
    if tid in faults.kill_tasks:
        os.kill(os.getpid(), signal.SIGKILL)
    if tid in faults.stall_tasks:
        hb_stop.set()  # go silent: the driver can only see missed beats
        time.sleep(faults.stall_tasks[tid])


def _chaos_post(faults, tid: int, attempt: int, outs: tuple) -> None:
    """Faults that fire after compute (delay, corrupt-after-digest)."""
    if faults is None or attempt > 0:
        return
    if tid in faults.delay_tasks:
        time.sleep(faults.delay_tasks[tid])
    first = next((o for o in outs if o.dtype == np.float64 and o.size), None)
    for bf in faults.bitflips:
        if bf.task == tid and first is not None:
            flip_bit(first, bf.word, bf.bit)


def _worker_main(slot: int, task_q, result_q, hb_desc: tuple[str, int],
                 contexts: tuple, faults, profile_hz: float) -> None:
    """Pool worker loop: view the task's inputs, compute, reply.

    ``contexts`` is the engine's tuple and ``faults`` its injector (or
    None), both inherited through the fork (a ``Process`` argument is
    not pickled under ``fork``), as is every arena the task's inputs
    lie in (:mod:`repro.parallel.resident`): a task's descriptor is one
    ``(arena, offset, shape, strides, dtype, writeable)`` reference per
    input, viewed in place — read-only for the driver's staged copies.
    An output inside a writable input — a task returning an array it was
    handed to write — goes back as a reference
    (``(input, offset, shape, strides, dtype)``), its bytes stamped where
    they lie; any other output goes back as a private C-ordered copy,
    pickled into the reply (status ``"ok"``), so a fault that lands in
    it cannot reach an input a re-execution reads.  The driver keeps a
    batch's staged copies until the batch is collected, so a
    *redistributed* task can re-read, and rewrite with the same bytes,
    the very same arrays from a different worker.

    A daemon heartbeat thread stamps ``time.monotonic()`` into this
    worker's slot of the shared heartbeat block; the driver declares
    the worker hung when the stamp goes stale.

    Every task gets exactly one reply, built here and nowhere else::

        (tid, slot, status, data, digest, t0, tc0, tc1, t1, fn_name, profile)

    ``t0``/``tc0``/``tc1``/``t1`` are ``time.perf_counter()`` stamps at
    task start, compute start, compute end and send (``CLOCK_MONOTONIC``
    on Linux, so the driver compares them with its own clock across the
    fork); the driver derives every per-task telemetry fact from them.
    ``profile`` is a :meth:`~repro.obs.profiler.SamplingProfiler.drain`
    delta when ``profile_hz > 0`` and ``None`` otherwise.
    """
    _keep_heap()
    hb_name, nslots = hb_desc
    hb = shared_memory.SharedMemory(name=hb_name)
    hb_view = np.ndarray((nslots,), dtype=np.float64, buffer=hb.buf)
    hb_stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop, args=(hb_view, slot, hb_stop),
        daemon=True, name=f"heartbeat-{slot}",
    ).start()
    profiler = SamplingProfiler(hz=profile_hz).start() if profile_hz > 0 else None
    try:
        while True:
            item = task_q.get()
            if item is None:
                break
            tid, attempt, fn, meta, refs = item
            t0 = tc0 = tc1 = time.perf_counter()
            try:
                _chaos_pre(faults, tid, attempt, hb_stop)
                ins = _inputs(refs)
                tc0 = time.perf_counter()
                outs = fn(task_context(contexts, meta), meta, *ins)
                tc1 = time.perf_counter()
                if not isinstance(outs, (tuple, list)):
                    outs = (outs,)
                outs = tuple(np.asarray(o) for o in outs)
                rrefs = [_resident_ref(o, ins) for o in outs]
                # (np.array, not ascontiguousarray: rank 0 stays rank 0)
                outs = tuple(o if r else np.array(o, order="C")
                             for o, r in zip(outs, rrefs))
                status, data = "ok", tuple(r or o for o, r in zip(outs, rrefs))
                digest = result_digest(outs)
                _chaos_post(faults, tid, attempt, outs)
            except BaseException:
                status, data, digest = "err", traceback.format_exc(), None
            result_q.put(
                (tid, slot, status, data, digest, t0, tc0, tc1,
                 time.perf_counter(), getattr(fn, "__name__", str(fn)),
                 profiler.drain() if profiler is not None else None)
            )
    finally:
        hb_stop.set()
        if profiler is not None:
            profiler.stop()
        try:
            hb.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Driver side
# ---------------------------------------------------------------------------


@dataclass
class WorkerHandle:
    """One worker slot: the live process and its private task queue.

    Each worker owns a dedicated task queue (instead of the original
    shared queue) so the driver always knows which in-flight tasks die
    with a worker — the redistribution set — and so a worker killed
    mid-``get`` can only poison its *own* queue, which is discarded at
    respawn along with the process.
    """

    slot: int
    generation: int
    proc: object
    task_q: object


class WorkerSupervisor:
    """Owns the worker processes of one engine: spawn, watch, respawn.

    The supervisor holds the heartbeat shared-memory block (one float64
    stamp per slot) and the per-slot :class:`WorkerHandle` list.  It
    makes *observations* (:meth:`failures`) and carries out *actions*
    (:meth:`respawn`, :meth:`shutdown`); the recovery policy — what to
    redistribute, when to give up and degrade — stays in the engine.
    """

    def __init__(self, ctx, nslots: int, result_q, label: str,
                 contexts: tuple, faults=None,
                 profile_hz: float = 0.0) -> None:
        self.ctx = ctx
        self.nslots = nslots
        self.result_q = result_q
        self.label = label
        #: The engine's read-only contexts, a fork-inherited argument of
        #: every (re)spawned worker.
        self.contexts = contexts
        #: The engine's injector: every (re)spawned worker reads its task
        #: schedule.
        self.faults = faults
        #: Sampling rate of each worker's profiler (0: none runs).
        self.profile_hz = profile_hz
        self.hb = shared_memory.SharedMemory(create=True, size=8 * max(1, nslots))
        self.hb_view = np.ndarray((nslots,), dtype=np.float64, buffer=self.hb.buf)
        self.handles: list[WorkerHandle | None] = [None] * nslots
        self.respawns = 0
        self._closed = False

    @property
    def shm_name(self) -> str:
        return self.hb.name

    # -- lifecycle ----------------------------------------------------------

    def spawn(self, slot: int) -> WorkerHandle:
        """Start a fresh worker in ``slot`` (generation bumps on reuse)."""
        old = self.handles[slot]
        generation = old.generation + 1 if old is not None else 0
        task_q = self.ctx.SimpleQueue()
        proc = self.ctx.Process(
            target=_worker_main,
            args=(slot, task_q, self.result_q, (self.hb.name, self.nslots),
                  self.contexts, self.faults, self.profile_hz),
            daemon=True,
            name=f"{self.label}-worker-{slot}.g{generation}",
        )
        # Stamp the slot *before* the fork so a fresh worker is never
        # declared hung in the window before its first own heartbeat.
        self.hb_view[slot] = time.monotonic()
        proc.start()
        handle = WorkerHandle(slot, generation, proc, task_q)
        self.handles[slot] = handle
        return handle

    def respawn(self, slot: int) -> WorkerHandle:
        """Replace the worker in ``slot``: reap the old, fork a new.

        The old worker's private task queue dies with it — the engine
        redistributes its in-flight tasks explicitly.  The replacement
        is handed the same ``contexts`` (copy-on-write), same as the
        original pool start.
        """
        old = self.handles[slot]
        if old is not None:
            self._reap(old)
        handle = self.spawn(slot)
        self.respawns += 1
        return handle

    def _reap(self, handle: WorkerHandle) -> None:
        proc = handle.proc
        try:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            handle.task_q.close()
        except (OSError, AttributeError):
            pass
        try:
            proc.close()
        except (OSError, ValueError, AttributeError):
            pass

    def shutdown(self) -> None:
        """Stop every worker and release the heartbeat block."""
        if self._closed:
            return
        self._closed = True
        for handle in self.handles:
            if handle is None:
                continue
            try:
                handle.task_q.put(None)
            except (OSError, ValueError):
                pass
        for handle in self.handles:
            if handle is None:
                continue
            try:
                handle.proc.join(timeout=5.0)
            except (OSError, ValueError):
                pass
            self._reap(handle)
        self.handles = [None] * self.nslots
        self.hb_view = None
        try:
            self.hb.close()
            self.hb.unlink()
        except (FileNotFoundError, OSError):
            pass

    # -- observation --------------------------------------------------------

    def heartbeat_age(self, slot: int) -> float:
        """Seconds since ``slot``'s worker last stamped its heartbeat."""
        return time.monotonic() - float(self.hb_view[slot])

    def live_slots(self) -> list[int]:
        """Slots whose worker process is currently running."""
        return [
            h.slot for h in self.handles
            if h is not None and h.proc.exitcode is None
        ]

    def failures(self, heartbeat_timeout: float) -> list[tuple[int, str, str]]:
        """Classify every unhealthy worker as ``(slot, kind, detail)``.

        ``kind`` is ``"crash"`` (the OS reaped the process) or
        ``"hang"`` (alive but heartbeat older than the deadline).
        """
        out: list[tuple[int, str, str]] = []
        for h in self.handles:
            if h is None:
                continue
            code = h.proc.exitcode
            if code is not None:
                out.append((
                    h.slot, "crash",
                    f"worker {h.slot} (gen {h.generation}) exited with "
                    f"code {code}",
                ))
                continue
            age = self.heartbeat_age(h.slot)
            if age > heartbeat_timeout:
                out.append((
                    h.slot, "hang",
                    f"worker {h.slot} (gen {h.generation}) missed heartbeats "
                    f"for {age:.1f}s (deadline {heartbeat_timeout:.1f}s)",
                ))
        return out
