"""The process-parallel execution engine behind ``repro.parallel``.

:class:`ParallelEngine` owns a persistent pool of forked worker
processes and one transport: every task input crosses *by reference*
into shared memory mapped before the fork
(:mod:`repro.parallel.resident`).  An array that lies in a resident
arena — a pool model's shard arrays — is named where it lies; any other
input is first copied, C-contiguous and read-only, into the engine's
staging arena.  A result the task writes into a writable input it was
handed travels back the same way; any other result is a private copy
pickled into the task's reply.  Task messages stay descriptor-sized,
never carrying input bytes: a driver blocked writing a large task to a
busy worker while that worker blocks writing a large reply the driver
is not reading would wait forever.

Execution model
---------------

``run(fn, payloads)`` executes ``fn(ctx, meta, *arrays)`` once per
payload and returns the results **in payload order** — never in
completion order — which is the fixed rank-ordered combine that makes
parallel execution bitwise identical to serial.  ``fn`` must be a
module-level function (it is pickled by reference into the workers)
returning a tuple of ndarrays.

``submit(fn, payloads)`` is the same contract in two halves: it queues
the batch and returns a :class:`PendingRun` whose ``wait()`` yields the
payload-ordered results.  One batch is in flight at a time — its tasks
read its staged copies until they are collected — so a second
``submit`` before that ``wait`` raises.  A task may have *stages* (a
tuple of functions over one payload) separated by the batch's barrier:
a DSS's pack and sum.

Large read-only context (element geometries) never crosses a queue:
the engine is built around its ``contexts`` tuple and hands it to every
worker it forks as a plain ``Process`` argument, inherited copy-on-write.
A payload's ``meta["ctx"]`` is an index into that tuple; the task
receives the object it names as ``ctx`` (``None`` when the meta names
none), in a worker and in the serial twin alike.

Self-healing (DESIGN.md §12)
----------------------------

Each worker owns a private task queue and stamps a heartbeat into a
shared block (:mod:`repro.parallel.supervisor`).  While the driver
waits on results it also supervises: a worker whose process exits is a
*crash*, one whose heartbeat goes stale is a *hang*, and one sitting
on a result past the batch deadline is *overdue*.  Any of the three
triggers the same local recovery — respawn the slot (the fork inherits
the engine's contexts exactly as the original did) and re-dispatch
only the failed worker's in-flight task ids to the survivors.  Results
carry a word-sum digest the driver re-verifies before anything consumes
them — over its unpickled copy of a copied result, in place for a
resident one — so a corrupted result is re-executed rather than
combined.  Because a task reads only arrays no task of its batch writes
and writes only arrays it was handed fresh, and every combine sums in a
canonical order, every recovery path reproduces the serial trajectory
bit for bit.

Fallback
--------

The engine degrades to in-process serial execution of the same task
functions when ``workers <= 1``, when the platform lacks the ``fork``
start method, when the pool fails its start-up ping, or when recovery
itself is exhausted (the respawn budget runs out or no live worker is
left to dispatch to).  ``engine.active`` reports which mode is live,
``fallback_reason`` the newest reason, and ``degrade_kinds`` a
labelled tally of every degrade this engine ever took.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..errors import KernelError
from ..obs.profiler import merge_profiles
from ..obs.telemetry import quantile
from ..obs.tracer import NULL_TRACER
from . import resident
from .supervisor import (
    HEARTBEAT_TIMEOUT,
    SUPERVISION_TICK,
    WorkerSupervisor,
    result_digest,
    task_context,
)

__all__ = [
    "ParallelEngine",
    "PendingRun",
    "WorkerStats",
    "available_cores",
    "context_nbytes",
    "worker_track",
]

#: Seconds the driver waits for a single batch's results before
#: escalating: the overdue workers are killed and respawned, and once
#: the respawn budget is spent the pool is declared dead and the call
#: finishes serially.
RESULT_TIMEOUT = 120.0

#: Seconds allowed for the start-up ping that proves the pool works.
PING_TIMEOUT = 30.0

#: Attempts per task before a repeatedly corrupted result becomes a
#: task failure instead of another re-execution.
MAX_TASK_ATTEMPTS = 3

#: Task id offset of a task's each further stage: stage ``s`` of task
#: ``t`` is dispatched as ``t + s * STAGE_TIDS``, so task ids count tasks
#: and a fault schedule can still name any stage.
STAGE_TIDS = 1 << 32

#: Address space of an engine's staging arena [bytes]: the copies of a
#: batch's inputs that lie in no resident arena (only what is written is
#: backed by memory).  A batch whose copies do not fit runs in process.
STAGING_BYTES = 1 << 26

#: Attribute names skipped by :func:`context_nbytes`: references back to
#: driver-resident shared structures (the full mesh).
_SIZER_SKIP_ATTRS = frozenset({"mesh"})


def worker_count(workers) -> int:
    """``workers`` as a count >= 0 (``<= 1`` is serial); :class:`KernelError`
    naming it unless it is an integer (``int`` or ``np.integer``, not a
    bool)."""
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise KernelError(f"workers must be an integer, got {workers!r}")
    return max(0, int(workers))


def context_nbytes(obj: object) -> int:
    """Approximate resident bytes of a context object's own arrays.

    Walks ndarrays, containers, and object ``__dict__``\\ s,
    deduplicating by ``id``.  Objects exposing an integer ``nbytes``
    (:class:`~repro.homme.tensors.OperatorTensors`,
    :class:`~repro.homme.tensors.FusedOperands`) report through it,
    which keeps broadcast views from being double-counted.  Attributes
    in :data:`_SIZER_SKIP_ATTRS` are excluded, so the result is the
    *shard-owned* footprint — the quantity the per-worker memory
    accounting compares between sharded and replicated ownership.
    """
    seen: set[int] = set()

    def walk(o: object) -> int:
        if o is None or isinstance(o, (bool, int, float, complex, str, bytes)):
            return 0
        oid = id(o)
        if oid in seen:
            return 0
        seen.add(oid)
        if isinstance(o, np.ndarray):
            return int(o.nbytes)
        if isinstance(o, dict):
            return sum(walk(v) for v in o.values())
        if isinstance(o, (list, tuple, set, frozenset)):
            return sum(walk(v) for v in o)
        nb = getattr(o, "nbytes", None)
        if isinstance(nb, (int, np.integer)):
            return int(nb)
        d = getattr(o, "__dict__", None)
        if d is not None:
            return sum(walk(v) for k, v in d.items() if k not in _SIZER_SKIP_ATTRS)
        return 0

    return walk(obj)


def available_cores() -> int:
    """Usable core count (cgroup-aware where the platform exposes it)."""
    import os

    try:
        return len(os.sched_getaffinity(0))  # type: ignore[attr-defined]
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def worker_track(worker: int) -> str:
    """Canonical trace-track name for pool worker ``worker``."""
    return f"worker/{worker}"


@dataclass
class WorkerStats:
    """Per-worker-slot tallies maintained by the driver.

    A slot's stats accumulate across respawns — the slot is the stable
    identity, the process behind it may be generation 0, 1, 2, ...
    """

    worker: int
    tasks: int = 0
    busy_seconds: float = 0.0
    unpack_seconds: float = 0.0
    compute_seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    errors: int = 0
    respawns: int = 0
    generation: int = 0
    queue_peak: int = 0


@dataclass
class _TaskRecord:
    """Driver-side record of one dispatched task.

    Everything needed to re-dispatch the task after a worker failure
    (``fn``/``meta``/``desc`` — the staged copies it names stay
    valid until the whole batch is collected) and to route its result
    back (``idx``, into the in-flight batch).  ``slot`` tracks the worker
    currently responsible; ``attempt`` counts dispatches, and chaos hooks
    only fire on attempt 0 so recovery always replays clean.
    """

    idx: int
    fn: object
    meta: dict
    desc: tuple
    attempt: int = 0
    slot: int = -1


def _carried(idx: int, arrays) -> tuple:
    """Payload ``idx``'s arrays as the transport carries them, a numpy
    scalar as a 0-d array; :class:`KernelError` naming the payload and
    array index for an entry that is not an array of plain values."""
    out = []
    for k, a in enumerate(arrays):
        a = np.asarray(a) if isinstance(a, np.generic) else a
        if not isinstance(a, np.ndarray) or a.dtype.hasobject:
            what = f"dtype {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
            raise KernelError(
                f"payload {idx} array {k}: the pool carries arrays of plain "
                f"values, not {what}")
        out.append(a)
    return tuple(out)


def _stages(fn) -> tuple:
    """A task's stages: a tuple of functions, or one plain task."""
    return tuple(fn) if isinstance(fn, (tuple, list)) else (fn,)


def _ref_view(ins: tuple, ref: tuple) -> np.ndarray:
    """The driver's view of a resident output: a view of the payload
    array it lies in, so the array keeps that region referenced."""
    k, off, shape, strides, dtype = ref
    return np.ndarray(shape, dtype, buffer=ins[k], offset=off,
                      strides=strides)


def _ping_task(ctx, meta: dict, arr: np.ndarray) -> tuple[np.ndarray]:
    """Start-up health check: echo the payload."""
    return (arr + meta.get("add", 0.0),)


class PendingRun:
    """A dispatched batch awaiting collection.

    Returned by :meth:`ParallelEngine.submit`.  The batch's tasks are
    already queued to the workers (or earmarked for serial execution on
    an inactive engine); :meth:`wait` blocks until every result is in
    and returns them **in payload order** — the same deterministic
    combine contract as :meth:`ParallelEngine.run`.

    The payload arrays must not be mutated until ``wait`` returns:
    worker recovery re-dispatches from them, and the serial fallback
    recomputes from them if the pool dies mid-flight.
    """

    def __init__(self, engine: "ParallelEngine", fn, payloads) -> None:
        self.engine = engine
        self.fn = fn
        self.stages = _stages(fn)
        self.payloads = payloads
        self.timeout = engine.result_timeout
        self.results: list[tuple | None] = [None] * len(payloads)
        #: Per payload, the last stage whose result is in (-1: none), and
        #: whether any of its stages' results was pickled into a reply.
        self.finished = [-1] * len(payloads)
        self.queued = [False] * len(payloads)
        self.stage = 0  # the stage in flight on the workers
        #: Per payload, its pool descriptor and task id (every stage's
        #: dispatch names the same arrays), and the staged copies the
        #: descriptors name, held until the batch is collected.
        self.descs: list[tuple] = []
        self.staged: list[np.ndarray] = []
        self.tids: range = range(0)
        self.remaining = 0  # parallel tasks still in flight
        self.failures: list[str] = []
        self.done = False

    def wait(self) -> list[tuple]:
        """Collect the batch's results, in payload order."""
        return self.engine._wait(self)


class ParallelEngine:
    """A persistent multi-core task pool with a serial twin.

    Parameters
    ----------
    workers:
        Requested worker count.  ``<= 1`` means serial execution (no
        processes are ever started).
    contexts:
        The read-only objects tasks compute against (the distributed
        models pass their shard geometries), fixed for the engine's
        life.  ``meta["ctx"]`` indexes this tuple; every (re)spawned
        worker inherits it through ``fork``.
    tracer:
        :mod:`repro.obs` tracer.  When enabled, each task becomes a
        span (with ``unpack`` and ``compute`` sub-spans) on the
        ``worker/<i>`` track of the worker that ran it, and recovery
        actions (crashes, hangs, respawns, corrupt results) become
        instants on the ``supervisor`` track — all stamped in
        wall-clock seconds since the engine started.
    label:
        Name used in log lines and trace spans.
    heartbeat_timeout:
        Seconds of heartbeat silence before a live worker is declared
        hung and respawned.
    result_timeout:
        Seconds a batch may wait on results before the driver escalates
        (kill + respawn + redistribute).  Becomes each
        :class:`PendingRun`'s ``timeout``.
    max_respawns:
        Total respawn budget for this engine's lifetime; exhausted
        means the machine is sick, so the pool degrades to serial.
        Defaults to ``max(4, 2 * workers)``.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`.  Its
        task schedule (kill / stall / delay / ``BitFlip(task=)``, keyed
        by global task id) is injected into the workers — what
        :mod:`repro.parallel.chaos` draws — and every recovery-worthy
        observation (worker crash/hang, overdue result, corrupt result)
        is appended to its event log, so one injector schedules and
        narrates the whole faulty run.
    profile_hz:
        ``> 0`` runs a sampling profiler in every worker; the frames
        ride back on the replies and are flushed as ``profile`` counters
        at :meth:`close`.
    """

    def __init__(
        self,
        workers: int = 0,
        contexts: tuple = (),
        tracer=None,
        label: str = "parallel",
        *,
        heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
        result_timeout: float = RESULT_TIMEOUT,
        max_respawns: int | None = None,
        faults=None,
        profile_hz: float = 0.0,
    ) -> None:
        self.workers = worker_count(workers)
        self.contexts = tuple(contexts)
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.label = label
        self.profile_hz = float(profile_hz)
        #: Cross-process telemetry (DESIGN.md §13) is derived from the
        #: replies' stamps while a tracer or a profiler wants it; off,
        #: the driver only carries the stamps.
        self.telemetry = self.tracer.enabled or self.profile_hz > 0
        #: Replies the driver derived telemetry from.
        self.telemetry_packets = 0
        #: Aggregated profiler frames: frame -> (self, cumulative).
        self.profile_frames: dict[str, tuple[int, int]] = {}
        self.profile_samples = 0
        #: Heartbeat age of the replying slot at each reply's arrival.
        self._hb_samples: list[float] = []
        #: Context indices each worker slot has been asked to touch —
        #: the basis of the sharded-ownership memory accounting.
        self.contexts_by_slot: dict[int, set[int]] = {}
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.result_timeout = float(result_timeout)
        self.max_respawns = (
            max(4, 2 * self.workers) if max_respawns is None else int(max_respawns)
        )
        self.faults = faults
        self.active = False
        self.fallback_reason: str | None = None
        #: Labelled tally of every degrade this engine took
        #: (``startup`` / ``platform`` / ``timeout`` / ``dispatch`` /
        #: ``respawn-budget`` / ``worker-loss``).
        self.degrade_kinds: dict[str, int] = {}
        #: Recovery tallies (mirrored into ``parallel.recovery.*``).
        self.recovery: dict[str, int] = {
            "respawns": 0,
            "crashes": 0,
            "hangs": 0,
            "timeouts": 0,
            "redistributed_tasks": 0,
            "reexecuted_tasks": 0,
            "corrupt_results": 0,
            "pool_degrades": 0,
        }
        self.stats: list[WorkerStats] = []
        self.calls = 0
        self.tasks_parallel = 0
        self.tasks_serial = 0
        #: How accepted pool results travelled, one count per task: every
        #: array by reference into shared memory, or — any stage's — some
        #: pickled into the reply.
        self.transport: dict[str, int] = {"results_shm": 0, "results_queued": 0}
        self.supervisor: WorkerSupervisor | None = None
        self._result_q = None
        #: Names of every shared-memory block this engine created and
        #: has not yet unlinked (the heartbeat block) — the leak-tracking
        #: ledger behind :meth:`leaked_shm`.
        self._owned_shm: set[str] = set()
        self._staging: resident.Arena | None = None
        self._arenas: frozenset[int] = frozenset()
        self._task_seq = 0
        self._rr = 0  # round-robin cursor over live worker slots
        self._tasks: dict[int, _TaskRecord] = {}
        #: The batch whose tasks are with the workers, if any.
        self._inflight: PendingRun | None = None
        self._closed = False
        self._t0 = time.perf_counter()
        if self.workers > 1:
            self._try_start()

    # -- lifecycle ----------------------------------------------------------

    def _record_degrade(self, kind: str, reason: str) -> None:
        self.fallback_reason = reason
        self.degrade_kinds[kind] = self.degrade_kinds.get(kind, 0) + 1

    def _try_start(self) -> None:
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            self._record_degrade(
                "platform", "no fork start method on this platform")
            return
        ctx = mp.get_context("fork")
        try:
            # The resource tracker must exist *before* the fork so parent
            # and workers share one tracker (whose cache is a set, making
            # the workers' attach-side registrations no-ops).  Otherwise
            # each worker lazily spawns its own tracker, which warns about
            # "leaked" blocks the driver already unlinked.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
            #: Where a batch's inputs that lie in no resident arena are
            #: copied; made before the first fork, so respawns map it too.
            self._staging = resident.Arena(STAGING_BYTES)
            #: Resident arenas every worker maps (they exist before the
            #: fork), the staging arena among them.
            self._arenas = resident.live_ids()
            self._result_q = ctx.SimpleQueue()
            self.supervisor = WorkerSupervisor(
                ctx, self.workers, self._result_q, self.label, self.contexts,
                faults=self.faults, profile_hz=self.profile_hz,
            )
            self._owned_shm.add(self.supervisor.shm_name)
            for w in range(self.workers):
                self.supervisor.spawn(w)
                self._register_worker_pid(w)
            self.stats = [WorkerStats(w) for w in range(self.workers)]
            self.active = True
            self._ping()
        except Exception as exc:  # noqa: BLE001 - any start-up failure => serial
            self._record_degrade("startup", f"pool start failed: {exc!r}")
            self._shutdown_pool()
            self.active = False

    def _register_worker_pid(self, slot: int) -> None:
        """Map ``worker/<slot>``'s trace track to the live process's pid
        so the Chrome export renders one process group per worker."""
        if not self.tracer.enabled or self.tracer.recorder is None:
            return
        handle = self.supervisor.handles[slot]
        if handle is None or handle.proc.pid is None:
            return
        self.tracer.recorder.set_process(
            worker_track(slot), handle.proc.pid,
            f"{self.label}-worker-{slot}",
        )

    def _ping(self) -> None:
        """Prove every queue direction works before trusting the pool."""
        probe = np.arange(4.0)
        pend = self._submit(_ping_task,
                            [({"add": 1.0}, (probe,))] * self.workers)
        pend.timeout = PING_TIMEOUT
        outs = pend.wait()
        if not self.active:
            raise KernelError(
                f"parallel pool ping failed: {self.fallback_reason}")
        for (out,) in outs:
            if not np.array_equal(out, probe + 1.0):
                raise KernelError("parallel pool ping returned wrong data")

    def close(self) -> None:
        """Stop the workers and release the heartbeat block.

        Idempotent: closing twice (or letting ``__del__`` run after an
        explicit close) is a no-op.  An outstanding :class:`PendingRun`
        is detached — its ``wait()`` completes serially — and no
        shared-memory block survives (:meth:`leaked_shm` returns ``[]``).
        """
        if self._closed:
            return
        self._flush_profile()
        self._shutdown_pool()
        self.active = False
        self._closed = True

    def _flush_profile(self) -> None:
        """Emit the aggregated profiler frames as ``profile`` counters.

        One counter event per frame (value = self samples), stamped at
        close time — the Perfetto-visible rendering of the statistical
        profile; the exact counts stay queryable via
        ``engine.profile_frames``.
        """
        if not self.tracer.enabled or not self.profile_frames:
            return
        now = time.perf_counter() - self._t0
        for frame, (self_n, _cum) in sorted(self.profile_frames.items()):
            self.tracer.counter("profile", frame, now, self_n)

    def _shutdown_pool(self) -> None:
        self._tasks.clear()
        if self._inflight is not None:
            # missing results are computed serially at wait()
            self._inflight.remaining = 0
            self._inflight = None
        if self.supervisor is not None:
            name = self.supervisor.shm_name
            self.supervisor.shutdown()
            self._owned_shm.discard(name)
            self.supervisor = None
        self._staging = None
        if self._result_q is not None:
            try:
                self._result_q.close()
            except (OSError, AttributeError):
                pass
            self._result_q = None

    def leaked_shm(self) -> list[str]:
        """Names of shared-memory blocks this engine created but never
        unlinked — the resource-tracker assertion for tests; must be
        empty after :meth:`close`."""
        leaked = []
        for name in sorted(self._owned_shm):
            try:
                probe = shared_memory.SharedMemory(name=name)
            except FileNotFoundError:
                continue
            probe.close()
            leaked.append(name)
        return leaked

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort tidy-up
        if getattr(self, "_closed", True):
            return  # already closed explicitly — nothing to do
        try:
            self._shutdown_pool()
        except Exception:  # noqa: BLE001 - interpreter may be tearing down
            pass

    # -- execution ----------------------------------------------------------

    def run(self, fn, payloads: list[tuple[dict, tuple]]) -> list[tuple]:
        """Execute ``fn(ctx, meta, *arrays)`` per payload; results in order.

        ``payloads`` is a list of ``(meta, arrays)`` with ``meta`` a
        small picklable dict and ``arrays`` a tuple of ndarrays (or numpy
        scalars) of plain values, handed to the pool through shared
        memory; ``ctx`` is the context ``meta["ctx"]``
        indexes (an index outside ``contexts`` raises
        :class:`KernelError` before anything runs).  Returns one tuple
        of arrays per payload, in payload order (the deterministic
        combine).

        ``fn`` may be a tuple of task functions, the *stages* of one task:
        every payload runs stage 0; once every payload's stage 0 is in —
        the batch's barrier, its results digest-verified — every payload
        runs stage 1 on the same payload, and so on.  Stages talk through
        the resident arrays they are handed (a DSS's pack and sum,
        :mod:`repro.parallel.dycore`); the call returns the last stage's
        results and counts one task per payload.
        """
        if not self.active:
            self.calls += 1
            return self._run_serial(fn, payloads)
        pend = self._submit(fn, payloads)
        self.calls += 1
        return pend.wait()

    # Public (``run`` alone would do) because benchmarks/step/adapter.py
    # patches ``submit`` and ``PendingRun.wait`` as its ``engine`` layer.
    def submit(self, fn, payloads: list[tuple[dict, tuple]]) -> PendingRun:
        """Queue a batch to the workers; collect via ``.wait()``.

        The engine's one dispatch primitive.  A batch's tasks read its
        staged copies until they are collected, so a ``submit`` while
        another batch is in flight raises :class:`KernelError` and leaves
        that batch collectable, as does a payload entry the pool cannot
        carry (:func:`_carried`).  A call counts in ``calls`` once it is
        accepted.  On an inactive engine, or when the batch's copies do
        not fit the staging arena, the batch is executed serially inside
        ``wait()`` — same results.
        """
        pend = self._submit(fn, payloads)
        self.calls += 1
        return pend

    def _dispatch(self, tids) -> None:
        """Queue tasks ``tids`` to live workers, one message per task.

        A task whose meta carries a ``"shard"`` index is pinned to
        ``shard % len(live_slots)`` — shard affinity: every task of a
        rank group lands on the same worker, so each worker only faults
        in its own shard's context pages and the per-slot context
        accounting stays meaningful.  Tasks without a shard use the
        round-robin cursor.  Affinity degrades gracefully under
        respawn because the modulus runs over *live* slots.
        """
        slots = self.supervisor.live_slots()
        if not slots:
            raise KernelError(
                f"no live workers left to dispatch to ({self.label})")
        for tid in tids:
            rec = self._tasks[tid]
            shard = rec.meta.get("shard")
            if shard is not None:
                slot = slots[int(shard) % len(slots)]
            else:
                slot = slots[self._rr % len(slots)]
                self._rr += 1
            rec.slot = slot
            ctx = rec.meta.get("ctx")
            if ctx is not None:
                self.contexts_by_slot.setdefault(slot, set()).add(ctx)
            self.supervisor.handles[slot].task_q.put(
                (tid, rec.attempt, rec.fn, rec.meta, rec.desc))
            depth = self._depth_counter(slot)
            self.stats[slot].queue_peak = max(self.stats[slot].queue_peak, depth)

    def _depth_counter(self, slot: int) -> int:
        """Queue depth of ``slot`` — the in-flight tasks naming it —
        sampled onto the ``health`` track when tracing."""
        depth = sum(1 for r in self._tasks.values() if r.slot == slot)
        if self.tracer.enabled:
            self.tracer.counter(
                "health", f"queue.depth.w{slot}",
                time.perf_counter() - self._t0, depth,
            )
        return depth

    def _submit(self, fn, payloads) -> PendingRun:
        payloads = list(payloads)
        for meta, _ in payloads:
            task_context(self.contexts, meta)  # a bad index is the caller's bug
        if not self.active or not payloads:
            return PendingRun(self, fn, payloads)
        if self._inflight is not None:
            raise KernelError(
                f"a batch is already in flight ({self.label}): wait() on it "
                "before the next submit — its tasks still read its staged "
                "copies")
        payloads = [(meta, _carried(i, arrays))
                    for i, (meta, arrays) in enumerate(payloads)]
        pend = PendingRun(self, fn, payloads)
        try:
            pend.descs, pend.staged = self._stage(payloads)
        except KernelError:  # the staging arena is full: run in process
            return pend
        self._inflight = pend
        try:
            self._dispatch_stage(pend)
        except Exception as exc:  # noqa: BLE001 - dispatch failure => pool death
            self._degrade(f"parallel dispatch failed: {exc!r}", kind="dispatch")
        return pend

    def _stage(self, payloads) -> tuple[list[tuple], list[np.ndarray]]:
        """Every payload's descriptor — per array, ``(arena, offset, shape,
        strides, dtype, writeable)`` — and the staged copies they name.
        An array lying in a resident arena is named where it lies; any
        other is copied, C-contiguous and read-only, into the staging
        arena, whose :class:`KernelError` when full is the only raise."""
        descs, staged = [], []
        for _, arrays in payloads:
            desc = []
            for a in arrays:
                ref = resident.locate(a, self._arenas)
                if ref is None:
                    copy = self._staging.empty(a.shape, a.dtype)
                    copy[...] = a
                    copy.flags.writeable = False
                    staged.append(copy)
                    a, ref = copy, (self._staging.id,
                                    copy.ctypes.data - self._staging.address)
                desc.append((*ref, a.shape, a.strides, a.dtype, a.flags.writeable))
            descs.append(tuple(desc))
        return descs, staged

    def _dispatch_stage(self, pend: PendingRun) -> None:
        """Queue every payload's task for ``pend``'s current stage."""
        fn = pend.stages[pend.stage]
        if not pend.stage:
            pend.tids = range(self._task_seq, self._task_seq + len(pend.payloads))
            self._task_seq += len(pend.payloads)
        tids = [pend.tids[idx] + pend.stage * STAGE_TIDS
                for idx in range(len(pend.payloads))]
        for idx, (tid, (meta, _)) in enumerate(zip(tids, pend.payloads)):
            self._tasks[tid] = _TaskRecord(idx, fn, meta, pend.descs[idx])
        pend.remaining += len(tids)
        self._dispatch(tids)

    def _wait(self, pend: PendingRun) -> list[tuple]:
        """Drain results for ``pend``, supervising the workers while
        blocked: crashes, hangs, and overdue results trigger respawn +
        redistribution of only the failed worker's tasks; the pool dies
        (and the call finishes serially) only when recovery is
        exhausted.  Raise on task failure.  Fixed payload order."""
        if pend.done:
            raise KernelError("PendingRun.wait() called twice")
        deadline = time.monotonic() + pend.timeout
        stage = pend.stage
        try:
            while pend.remaining:
                if pend.stage != stage:  # a new stage has its own deadline
                    stage, deadline = pend.stage, time.monotonic() + pend.timeout
                budget = deadline - time.monotonic()
                if budget <= 0:
                    if self._recover_overdue(pend.timeout):
                        deadline = time.monotonic() + pend.timeout
                        continue
                    raise KernelError(
                        f"parallel pool timed out after {pend.timeout:.0f}s "
                        f"({self.label}); falling back to serial"
                    )
                item = self._poll_result(min(SUPERVISION_TICK, budget))
                if item is not None:
                    self._route(item)
                    continue
                if self._supervise_tick():
                    deadline = time.monotonic() + pend.timeout
                if not self.active:
                    break  # recovery degraded the pool; remaining = 0
        except KernelError as exc:
            # Pool death (timeout, closed pipe): missing results are
            # computed serially.
            self._degrade(str(exc), kind="timeout")
        if pend is self._inflight:
            self._inflight = None
        pend.staged = []  # no task reads them any more
        self._finish_serial(pend)
        pend.done = True
        if pend.failures:
            raise KernelError(
                "parallel task failed:\n" + "\n".join(pend.failures)
            )
        return [tuple(r) for r in pend.results]  # type: ignore[arg-type]

    # -- supervision & recovery ---------------------------------------------

    def _supervise_tick(self) -> bool:
        """One liveness sweep; returns True if any recovery happened."""
        recovered = False
        for slot, kind, detail in self.supervisor.failures(self.heartbeat_timeout):
            if not self.active:
                break
            recovered = self._recover_worker(slot, kind, detail) or recovered
        return recovered

    def _recover_overdue(self, timeout: float) -> bool:
        """Batch deadline hit: treat the workers owning the still-missing
        tasks as stalled and recover them.  Returns True if recovery ran
        and the pool survived (the caller re-arms the deadline); False
        routes to the pool-death path."""
        slots = sorted({r.slot for r in self._tasks.values()})
        if not slots:
            return False
        self.recovery["timeouts"] += 1
        recovered = False
        for slot in slots:
            if not self.active:
                break
            recovered = self._recover_worker(
                slot, "overdue",
                f"worker {slot} holds results overdue past {timeout:.1f}s",
            ) or recovered
        return recovered and self.active

    def _recover_worker(self, slot: int, kind: str, detail: str) -> bool:
        """Local recovery: respawn ``slot`` and redistribute its tasks.

        The failed worker's in-flight task ids — and only those — are
        re-dispatched (attempt + 1, so chaos hooks stay quiet) to the
        surviving workers, the fresh respawn included.  Unaffected
        payloads never notice.  Returns False when the respawn budget
        is exhausted, which degrades the whole pool instead.
        """
        counter = {"crash": "crashes", "hang": "hangs"}.get(kind)
        if counter is not None:
            self.recovery[counter] += 1
        if self.faults is not None:
            self.faults.record(f"worker_{kind}", worker=slot, detail=detail)
        if self.tracer.enabled:
            self.tracer.instant(
                "supervisor", f"{kind}:{worker_track(slot)}",
                time.perf_counter() - self._t0, cat="recovery",
                worker=slot, detail=detail,
            )
        if self.supervisor.respawns >= self.max_respawns:
            self._degrade(
                f"{detail}; respawn budget ({self.max_respawns}) exhausted",
                kind="respawn-budget",
            )
            return False
        lost = sorted(
            tid for tid, r in self._tasks.items() if r.slot == slot
        )
        try:
            # A crashed worker is already out of live_slots(), so its
            # tasks can be redistributed to the survivors *before*
            # paying the respawn fork — the recompute starts
            # immediately and the fork overlaps it.  A hung/overdue
            # worker is still alive (and would be a redistribution
            # target), so it must be killed-and-replaced first; same
            # when no survivor is left.
            live = self.supervisor.live_slots()
            respawn_first = slot in live or not live
            if respawn_first:
                self._respawn_slot(slot, len(lost))
            for tid in lost:
                self._tasks[tid].attempt += 1
            self._dispatch(lost)
            self.recovery["redistributed_tasks"] += len(lost)
            if not respawn_first:
                self._respawn_slot(slot, len(lost))
        except KernelError as exc:
            self._degrade(
                f"redistribution after worker {slot} {kind} failed: {exc}",
                kind="worker-loss",
            )
            return False
        return True

    def _respawn_slot(self, slot: int, redistributed: int) -> None:
        self.supervisor.respawn(slot)
        self._register_worker_pid(slot)
        self.recovery["respawns"] += 1
        self.stats[slot].respawns += 1
        self.stats[slot].generation = self.supervisor.handles[slot].generation
        if self.tracer.enabled:
            self.tracer.instant(
                "supervisor", f"respawn:{worker_track(slot)}",
                time.perf_counter() - self._t0, cat="recovery",
                worker=slot, redistributed=redistributed,
            )

    def _reexecute(self, tid: int, why: str) -> None:
        """Re-dispatch a task whose result failed an integrity check."""
        rec = self._tasks[tid]
        rec.attempt += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "supervisor", f"reexecute:task{tid}",
                time.perf_counter() - self._t0, cat="recovery",
                task=tid, why=why, attempt=rec.attempt,
            )
        try:
            self._dispatch([tid])
            self.recovery["reexecuted_tasks"] += 1
        except KernelError as exc:
            self._degrade(
                f"re-execution of task {tid} ({why}) failed: {exc}",
                kind="worker-loss",
            )

    def _route(self, item) -> None:
        """Deliver one result-queue item to the in-flight batch,
        verifying its digest (``supervisor.result_digest``, one wrapping
        word sum per array) before accepting — a failed check
        re-executes the task instead.  A result reference is viewed in
        the payload array it lies in and checked in place; any other
        result is the driver's own unpickled copy, the bytes the caller
        will get.

        The reply's four stamps (see ``supervisor._worker_main``) are the
        only worker-side facts: busy, unpack and compute seconds go to
        the slot's :class:`WorkerStats`; with telemetry on the driver
        also samples the slot's heartbeat age, merges the profile delta
        and records the task's sub-spans."""
        tid, slot, status, data, digest, t0, tc0, tc1, t1, fn_name, profile = item
        rec = self._tasks.pop(tid, None)
        if rec is None:
            return  # stale result from a batch already degraded/recovered
        if self.telemetry:
            self._observe(slot, t1, profile)
        pend, idx = self._inflight, rec.idx
        st = self.stats[slot]
        if status == "err":
            st.tasks += 1
            st.busy_seconds += max(0.0, t1 - t0)
            st.errors += 1
            pend.remaining -= 1
            pend.failures.append(f"task {idx} on worker {slot}:\n{data}")
            return
        ins = pend.payloads[idx][1]
        copied = [d for d in data if not isinstance(d, tuple)]
        data = tuple(_ref_view(ins, d) if isinstance(d, tuple) else d
                     for d in data)
        if result_digest(data) != digest:
            self.recovery["corrupt_results"] += 1
            if self.faults is not None:
                self.faults.record("result_corrupt", task=tid, worker=slot)
            if rec.attempt + 1 >= MAX_TASK_ATTEMPTS:
                pend.remaining -= 1
                pend.failures.append(
                    f"task {idx} on worker {slot}: result digest mismatch on "
                    f"{rec.attempt + 1} attempts"
                )
                return
            self._tasks[tid] = rec
            self._reexecute(tid, "digest-mismatch")
            return
        last = pend.stage == len(pend.stages) - 1
        st.busy_seconds += max(0.0, t1 - t0)
        st.unpack_seconds += tc0 - t0
        st.compute_seconds += tc1 - tc0
        pend.remaining -= 1
        pend.results[idx] = data
        pend.finished[idx] = pend.stage
        pend.queued[idx] |= bool(copied)
        # Transport bytes: arrays copied across it, not resident ones.
        st.bytes_out += sum(a.nbytes for a in copied)
        meta_in = pend.payloads[idx][0]
        if last:  # a task's inputs crossed once, whatever its stages
            self.transport["results_queued" if pend.queued[idx] else "results_shm"] += 1
            st.tasks += 1
            st.bytes_in += sum(a.nbytes for a, r in zip(ins, rec.desc)
                               if r[0] == self._staging.id)
            self.tasks_parallel += 1
        elif not pend.remaining and not pend.failures:
            pend.stage += 1  # the barrier: every payload's stage is in
            self._dispatch_stage(pend)
        if self.tracer.enabled:
            track, base = worker_track(slot), self._t0
            self.tracer.span_at(
                track, fn_name, t0 - base, t1 - base, cat="parallel",
                task=idx, **{k: v for k, v in meta_in.items()
                             if isinstance(v, (int, float, str, bool))},
            )
            self.tracer.span_at(track, "unpack", t0 - base, tc0 - base,
                                cat="telemetry")
            self.tracer.span_at(track, "compute", tc0 - base, tc1 - base,
                                cat="telemetry")

    def _observe(self, slot: int, t1: float, profile) -> None:
        """Derive the driver-side telemetry of one reply from ``slot``:
        its queue depth and heartbeat age as ``health`` counters (the
        age also feeds the health monitor's samples) and the reply's
        profile delta folded into :attr:`profile_frames`."""
        self.telemetry_packets += 1
        hb_age = max(0.0, self.supervisor.heartbeat_age(slot))
        if len(self._hb_samples) < 65536:
            self._hb_samples.append(hb_age)
        if profile is not None:
            merge_profiles(self.profile_frames, profile[0])
            self.profile_samples += profile[1]
        self._depth_counter(slot)
        self.tracer.counter(
            "health", f"heartbeat.age.w{slot}", t1 - self._t0, hb_age)

    def _degrade(self, reason: str, kind: str = "worker-loss") -> None:
        """Pool death: record why, stop the pool, finish pending work
        serially (``_shutdown_pool`` zeroes every ``remaining``)."""
        self._record_degrade(kind, reason)
        self.recovery["pool_degrades"] += 1
        if self.faults is not None:
            self.faults.record("pool_degrade", kind=kind, reason=reason)
        if self.tracer.enabled:
            self.tracer.instant(
                "supervisor", f"degrade:{kind}",
                time.perf_counter() - self._t0, cat="recovery", reason=reason,
            )
        pend = self._inflight
        self._shutdown_pool()
        self.active = False
        if pend is not None:
            self._finish_serial(pend)

    def _finish_serial(self, pend: PendingRun) -> None:
        """Compute any still-missing results of ``pend`` in-process, stage
        by stage."""
        last = len(pend.stages) - 1
        for stage, fn in enumerate(pend.stages):
            for i, (meta, arrays) in enumerate(pend.payloads):
                if pend.finished[i] >= stage:
                    continue
                try:
                    res = fn(task_context(self.contexts, meta), meta, *arrays)
                except Exception:  # noqa: BLE001 - surface as a task failure
                    pend.failures.append(
                        f"task {i} (serial fallback):\n{traceback.format_exc()}"
                    )
                    continue
                if not isinstance(res, (tuple, list)):
                    res = (res,)
                pend.results[i] = tuple(np.asarray(a) for a in res)
                pend.finished[i] = stage
                self.tasks_serial += stage == last
        pend.remaining = 0

    def _run_serial(self, fn, payloads) -> list[tuple]:
        ctxs = [task_context(self.contexts, meta) for meta, _ in payloads]
        self.tasks_serial += len(payloads)
        out = []
        for stage in _stages(fn):
            out = []
            for ctx, (meta, arrays) in zip(ctxs, payloads):
                res = stage(ctx, meta, *arrays)
                if not isinstance(res, (tuple, list)):
                    res = (res,)
                out.append(tuple(np.asarray(a) for a in res))
        return out

    def _poll_result(self, timeout: float):
        """Result-queue poll: one item, or None after ``timeout``.

        The select also watches every live worker's process
        *sentinel*, so a crash wakes the driver immediately —
        detection latency is the OS reap, not the supervision tick.
        (Hangs have no such signal; they wait for the heartbeat
        deadline.)  A sentinel firing returns None: the caller's
        supervision sweep classifies and recovers it.
        """
        import select

        reader = self._result_q._reader  # SimpleQueue's underlying pipe
        fds = [reader]
        for h in self.supervisor.handles:
            if h is None:
                continue
            try:
                fds.append(h.proc.sentinel)
            except ValueError:  # process object already closed
                pass
        ready, _, _ = select.select(fds, [], [], max(0.0, timeout))
        if reader in ready:
            return self._result_q.get()
        return None

    # -- sharded-context accounting -----------------------------------------

    def context_bytes_by_slot(self) -> dict[int, int]:
        """Resident bytes of the contexts each worker slot was asked to
        touch.

        Under sharded ownership with shard affinity each slot maps to a
        disjoint set of shard indices, so the per-slot totals are the
        per-worker context footprints.
        """
        return {
            slot: sum(context_nbytes(self.contexts[i]) for i in idxs)
            for slot, idxs in self.contexts_by_slot.items()
        }

    def peak_context_bytes(self) -> int:
        """Largest per-slot context footprint — the sharded per-worker peak."""
        return max(self.context_bytes_by_slot().values(), default=0)

    def total_context_bytes(self) -> int:
        """Bytes of every context dispatched through this engine — what
        *each* worker would fault in under replicated ownership (round-
        robin dispatch touching every shard from every worker)."""
        idxs: set[int] = set().union(*self.contexts_by_slot.values())
        return sum(context_nbytes(self.contexts[i]) for i in idxs)

    # -- introspection ------------------------------------------------------

    def describe(self) -> dict:
        """JSON-friendly status snapshot (mode, fallback reason, tallies)."""
        return {
            "workers": self.workers,
            "active": self.active,
            "fallback_reason": self.fallback_reason,
            "degrade_reasons": dict(self.degrade_kinds),
            "recovery": dict(self.recovery),
            "calls": self.calls,
            "tasks_parallel": self.tasks_parallel,
            "tasks_serial": self.tasks_serial,
            "transport": dict(self.transport),
            # Constant: benchmarks/step/adapter.py reads these two keys.
            "pipeline": {"overlap_seconds": 0.0, "wait_seconds": 0.0},
            "telemetry": {
                "enabled": self.telemetry,
                "packets": self.telemetry_packets,
                "profile_samples": self.profile_samples,
                "profile_frames": len(self.profile_frames),
                "heartbeat_age_max": max(self._hb_samples, default=0.0),
                "heartbeat_age_p99": quantile(self._hb_samples, 0.99),
            },
            "context": {
                "per_slot_bytes": {
                    str(k): v for k, v in sorted(self.context_bytes_by_slot().items())
                },
                "peak_bytes": self.peak_context_bytes(),
                "total_bytes": self.total_context_bytes(),
            },
            "per_worker": [
                {"worker": s.worker, "tasks": s.tasks,
                 "busy_seconds": s.busy_seconds, "bytes_in": s.bytes_in,
                 "bytes_out": s.bytes_out, "errors": s.errors,
                 "respawns": s.respawns, "generation": s.generation,
                 "queue_peak": s.queue_peak}
                for s in self.stats
            ],
        }

    def health(self, monitor=None):
        """Evaluate the run health rules over this engine's state.

        Returns a :class:`~repro.obs.health.HealthReport` (verdict
        ``ok``/``warn``/``critical`` plus findings) computed from
        ``describe()`` and the telemetry heartbeat samples — see
        DESIGN.md §13 for the rules.
        """
        from ..obs.health import HealthMonitor

        return (monitor or HealthMonitor()).evaluate_engine(self)
