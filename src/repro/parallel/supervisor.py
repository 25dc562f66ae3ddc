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
  pipe stays intact; the bit flip lands after the CRC stamp (in the
  shared block when the result travels there).

Result integrity rides along: :func:`result_crc` is the CRC32 the
worker stamps on every result tuple and the driver re-computes — over
its own private copy of the bytes — before accepting it, which is what
turns a bit flipped in transit, or a late writer to a shared block, into
a detected-and-re-executed task instead of a silently corrupted combine.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
import zlib
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
    "result_crc",
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


def result_crc(arrays: tuple) -> int:
    """CRC32 over every result array's bytes, in tuple order."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).data, crc)
    return crc & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _layout(arrays: tuple, start: int = 0) -> tuple[tuple, int]:
    """Where ``arrays`` sit in a block from byte ``start`` on: one
    ``(offset, shape, dtype)`` per array at 64-byte-aligned offsets, and
    the end of the last one."""
    metas, end = [], start
    for a in arrays:
        end = (end + 63) & ~63
        metas.append((end, a.shape, a.dtype.str))
        end += a.nbytes
    return tuple(metas), end


def _unpack(shm: shared_memory.SharedMemory, metas: tuple) -> tuple[np.ndarray, ...]:
    """Zero-copy views into a peer's block (copy before the next reuse!)."""
    return tuple(
        np.ndarray(shape, dtype=np.dtype(dt), buffer=shm.buf, offset=off)
        for off, shape, dt in metas
    )


def _inputs(shm: shared_memory.SharedMemory, metas: tuple) -> tuple[np.ndarray, ...]:
    """A task's inputs: views of its block, or of an arena for a resident
    input (``("a", arena, offset, shape, strides, dtype)``)."""
    return tuple(resident.view(*m[1:]) if m[0] == "a" else _unpack(shm, (m,))[0]
                 for m in metas)


def _resident_ref(out: np.ndarray, ins: tuple, metas: tuple) -> tuple | None:
    """``("r", k, offset, shape, strides, dtype)`` when ``out`` lies inside
    the C-contiguous resident input ``k`` (a task returning an array it
    was handed to write), else ``None``: the result then travels by copy."""
    if not out.size:
        return None
    lo, hi = resident.bounds(out)
    for k, (a, m) in enumerate(zip(ins, metas)):
        base = a.ctypes.data
        if (m[0] == "a" and a.flags.c_contiguous and base <= lo
                and hi <= base + a.nbytes):
            return ("r", k, out.ctypes.data - base, out.shape, out.strides,
                    out.dtype.str)
    return None


def _store(shm: shared_memory.SharedMemory, metas: tuple, arrays: tuple) -> tuple:
    """Copy ``arrays`` into the block at ``metas``; return the block's views."""
    views = _unpack(shm, metas)
    for dst, a in zip(views, arrays):
        # One copy, whatever ``a``'s strides: the block side is C-contiguous.
        dst[...] = a
    return views


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
    """Faults that fire after compute (delay, corrupt-after-CRC)."""
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
    """Pool worker loop: attach the task's block, compute, write the
    results back into it.

    ``contexts`` is the engine's tuple and ``faults`` its injector (or
    None), both inherited through the fork (a ``Process`` argument is
    not pickled under ``fork``).

    A task names one driver-owned shared-memory block — its slot (the
    payload index), the block's current name, the input layout, and the
    out region ``[out_off, out_off + out_cap)`` behind the inputs.  The
    worker writes each output once into that region and replies with
    only the layout (status ``"shm"``) and a CRC32 stamp over the bytes;
    outputs that do not fit (a slot's first result, or one that grew)
    travel on the result queue as arrays (status ``"ok"``), which is how
    the driver learns the capacity to pack next time.  An input that lies
    in a resident arena (:mod:`repro.parallel.resident`) is named by
    reference instead, and an output inside such an input — a task
    returning an array it was handed to write — goes back as a reference
    too (``("r", input, offset, shape, strides, dtype)``), its bytes
    stamped where they lie.  The driver does
    not repack a block until the batch that used it has been collected,
    so the attached views are race-free — and a *redistributed* task can
    re-read, and rewrite with the same bytes, the very same block from a
    different worker.  One attachment is kept per slot: when the driver
    regrows a slot's block under a new name the superseded mapping is
    closed, so unlinked generations do not stay resident in the worker.

    A daemon heartbeat thread stamps ``time.monotonic()`` into this
    worker's slot of the shared heartbeat block; the driver declares
    the worker hung when the stamp goes stale.

    Every task gets exactly one reply, built here and nowhere else::

        (tid, slot, status, data, crc, t0, tc0, tc1, t1, fn_name, profile)

    ``t0``/``tc0``/``tc1``/``t1`` are ``time.perf_counter()`` stamps at
    task start, compute start, compute end and send (``CLOCK_MONOTONIC``
    on Linux, so the driver compares them with its own clock across the
    fork); the driver derives every per-task telemetry fact from them.
    ``profile`` is a :meth:`~repro.obs.profiler.SamplingProfiler.drain`
    delta when ``profile_hz > 0`` and ``None`` otherwise.
    """
    _keep_heap()
    attached: dict[int, shared_memory.SharedMemory] = {}  # by slot
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
            # No view of a block outlives its task: a superseded
            # attachment can only be closed once nothing exports it.
            ins = outs = data = None
            item = task_q.get()
            if item is None:
                break
            tid, attempt, fn, meta, (key, name, metas, out_off, out_cap) = item
            t0 = tc0 = tc1 = time.perf_counter()
            try:
                _chaos_pre(faults, tid, attempt, hb_stop)
                shm = attached.get(key)
                if shm is None or shm.name != name:
                    if shm is not None:
                        shm.close()  # the driver regrew this slot
                    # Forked workers share the driver's resource
                    # tracker, whose cache is a set — this attach-side
                    # registration is a no-op and the driver's
                    # unlink-on-close retires the name exactly once.
                    shm = attached[key] = shared_memory.SharedMemory(name=name)
                ins = _inputs(shm, metas)
                tc0 = time.perf_counter()
                outs = fn(task_context(contexts, meta), meta, *ins)
                tc1 = time.perf_counter()
                if not isinstance(outs, (tuple, list)):
                    outs = (outs,)
                outs = tuple(np.asarray(o) for o in outs)
                refs = [_resident_ref(o, ins, metas) for o in outs]
                copied = [o for o, r in zip(outs, refs) if r is None]
                layout, end = _layout(copied, out_off)
                if end <= out_off + out_cap:
                    status, copied = "shm", _store(shm, layout, copied)
                    stored = iter(zip(layout, copied))
                else:
                    status = "ok"  # (not ascontiguousarray: rank 0 stays rank 0)
                    copied = [np.asarray(o, order="C") for o in copied]
                    stored = iter(zip(copied, copied))
                data, outs = zip(*[(r, o) if r is not None else next(stored)
                                   for o, r in zip(outs, refs)]) if outs else ((), ())
                crc = result_crc(outs)
                _chaos_post(faults, tid, attempt, outs)
            except BaseException:
                status, data, crc = "err", traceback.format_exc(), None
            result_q.put(
                (tid, slot, status, data, crc, t0, tc0, tc1,
                 time.perf_counter(), getattr(fn, "__name__", str(fn)),
                 profiler.drain() if profiler is not None else None)
            )
    finally:
        hb_stop.set()
        if profiler is not None:
            profiler.stop()
        for shm in attached.values():
            try:
                shm.close()
            except OSError:
                pass
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
