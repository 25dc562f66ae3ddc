"""Tests for ``repro.parallel``: the real multi-core execution engine.

The contract under test (DESIGN.md §10): workers compute independent
units, every combine happens on the driver in fixed rank order,
and therefore parallel execution is **bitwise identical** to serial —
on the engine's raw task interface and on whole distributed-model
trajectories.
"""

import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.experiments.parallel_smoke import _count_calls
from repro.errors import KernelError
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.obs import MetricsRegistry, Tracer, collect_parallel_engine
from repro.parallel import (
    ParallelEngine,
    available_cores,
    context_nbytes,
    scenario_spec,
    worker_track,
)
from repro.parallel.engine import _ping_task

from .trajectory import assert_same_trajectory


def _boom_task(ctx, meta, arr):
    raise RuntimeError("intentional task failure")


def _sleepy_task(ctx, meta, arr):
    import time

    time.sleep(meta.get("sleep", 0.0))
    return (arr + 1.0,)


def _add_context_task(ctx, meta, arr):
    """Adds the (scalar) context the meta names — 0 when it names none."""
    return (arr + (0.0 if ctx is None else ctx),)


def _sleep_once_task(ctx, meta, arr):
    """Sleeps long on its first execution only (flag file marks it),
    modeling a one-off stall the supervisor must recover from."""
    import os
    import time

    if not os.path.exists(meta["flag"]):
        open(meta["flag"], "w").close()
        time.sleep(meta["sleep"])
    return (arr + 1.0,)


def _bytes_task(ctx, meta, arr):
    """A result of exactly ``meta["n"]`` bytes."""
    return (np.full(meta["n"], 7, dtype=np.uint8),)


def _views_task(ctx, meta, *arrays):
    """Each input back as the view ``meta["how"]`` names — transposed and
    strided results are not C-contiguous — plus one array of its own."""
    how = {"same": lambda a: a, "T": lambda a: a.T,
           "step": lambda a: a[::2] if a.ndim else a}[meta["how"]]
    return tuple(how(a) for a in arrays) + (np.arange(3, dtype=np.int16),)


def _write_task(ctx, meta, arr, out):
    """Writes ``arr + meta["add"]`` into the array it was handed."""
    out[...] = arr + meta["add"]
    return (out,)


def _shm_maps_task(ctx, meta, arr):
    """The names of the ``/dev/shm`` files this process has mapped."""
    with open("/proc/self/maps") as fh:
        names = {tok.rsplit("/", 1)[1] for line in fh
                 for tok in line.split() if tok.startswith("/dev/shm/")}
    return (np.frombuffer("\n".join(sorted(names)).encode(), dtype=np.uint8),)


def _stage_write(ctx, meta, buf, out):
    """Stage 0: write this shard's cell of a shared buffer; return it."""
    g = meta["shard"]
    buf[g] = g + 1.0
    return (buf[g:g + 1],)


def _stage_sum(ctx, meta, buf, out):
    """Stage 1: every shard's cell, which only the barrier guarantees."""
    out[0] = buf.sum()
    return (out,)


def _noisy_prim_state(ne=4, nlev=8, qsize=2, seed=7):
    mesh = CubedSphereMesh(ne, 4)
    geom = ElementGeometry(mesh)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return cfg, mesh, geom, state


class TestEngineBasics:
    def test_available_cores_positive(self):
        assert available_cores() >= 1

    def test_worker_track_names(self):
        assert worker_track(3) == "worker/3"

    def test_serial_engine_never_starts_processes(self):
        e = ParallelEngine(workers=0)
        assert e.workers == 0
        assert not e.active and e.supervisor is None
        outs = e.run(_ping_task, [({"add": 2.0}, (np.arange(3.0),))])
        assert np.array_equal(outs[0][0], np.arange(3.0) + 2.0)
        assert not e.active and e.supervisor is None

    @pytest.mark.parametrize("workers", [1.9, True, "3", None])
    def test_non_integer_workers_refused(self, workers):
        """Not truncated to a count: a float, a bool or a string starts
        no processes."""
        with pytest.raises(KernelError, match=re.escape(
                f"workers must be an integer, got {workers!r}")):
            ParallelEngine(workers=workers)

    @pytest.mark.parametrize("workers", [np.int64(1), 1, 0, -3])
    def test_integer_workers_up_to_one_are_serial(self, workers):
        with ParallelEngine(workers=workers) as e:
            assert e.workers == max(0, int(workers)) and type(e.workers) is int
            assert not e.active and e.supervisor is None

    def test_strided_inputs_are_staged_as_they_are(self):
        """Non-contiguous inputs (``qdp[:, q]``, a transposed view) are
        copied into the engine's staging arena C-contiguous, read-only
        and with their values, under descriptors naming that arena at
        aligned offsets; the batch holds the copies until it is
        collected."""
        from repro.parallel.resident import view

        qdp = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)
        arrays = (qdp[:, 1], qdp.T, np.arange(7, dtype=np.int32)[::2])
        assert not any(a.flags.c_contiguous for a in arrays)
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pend = e.submit(_views_task, [({"how": "same"}, arrays)])
            (desc,) = pend.descs
            assert [r[0] for r in desc] == [e._staging.id] * len(arrays)
            assert all(r[1] % 64 == 0 for r in desc)
            for r, a, copy in zip(desc, arrays, pend.staged, strict=True):
                staged = view(*r)
                assert staged.flags.c_contiguous and not staged.flags.writeable
                assert (staged.shape, staged.dtype) == (a.shape, a.dtype)
                assert np.array_equal(staged, a) and np.shares_memory(staged, copy)
            (got,) = pend.wait()
            assert pend.staged == []
        for g, a in zip(got, arrays):
            assert g.tobytes() == a.tobytes() and g.shape == a.shape

    def test_strided_payload_round_trips_and_counts_its_own_bytes(self):
        qdp = np.arange(2 * 3 * 8, dtype=np.float64).reshape(2, 3, 8)
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            before = sum(s.bytes_in for s in e.stats)
            (out,), = e.run(_ping_task, [({"add": 1.0}, (qdp[:, 1],))])
            assert np.array_equal(out, qdp[:, 1] + 1.0)
            assert sum(s.bytes_in for s in e.stats) - before == qdp[:, 1].nbytes

    def test_results_in_payload_order(self):
        with ParallelEngine(workers=2) as e:
            assert e.active, e.fallback_reason
            for _ in range(3):  # block reuse across calls
                outs = e.run(_ping_task, [
                    ({"add": float(i)}, (np.arange(5.0),)) for i in range(7)
                ])
                for i, (out,) in enumerate(outs):
                    assert np.array_equal(out, np.arange(5.0) + i)

    def test_task_error_propagates(self):
        with ParallelEngine(workers=2) as e:
            with pytest.raises(KernelError, match="intentional task failure"):
                e.run(_boom_task, [({}, (np.arange(3.0),))])
            assert e.active  # a task bug is not pool death

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        def broken_ping(self):
            raise KernelError("simulated startup failure")

        monkeypatch.setattr(ParallelEngine, "_ping", broken_ping)
        e = ParallelEngine(workers=2)
        assert not e.active
        assert "startup failure" in e.fallback_reason
        outs = e.run(_ping_task, [({"add": 1.0}, (np.arange(4.0),))])
        assert np.array_equal(outs[0][0], np.arange(4.0) + 1.0)
        e.close()

    def test_close_is_idempotent_and_describe_reports(self):
        e = ParallelEngine(workers=2)
        desc = e.describe()
        assert desc["workers"] == 2 and desc["active"]
        assert len(desc["per_worker"]) == 2
        e.close()
        e.close()
        assert not e.active


class TestSelfHealing:
    """The supervision layer's engine-level behaviour (DESIGN.md §12);
    whole-trajectory chaos scenarios live in test_chaos.py."""

    def test_close_with_outstanding_pending_is_leak_free(self):
        """Satellite: closing an engine with a batch still in flight
        must strand no shared-memory block (resource-tracker
        assertion), and the PendingRun still completes serially."""
        e = ParallelEngine(workers=2)
        pend = e.submit(_ping_task, [
            ({"add": float(i)}, (np.arange(4.0),)) for i in range(3)
        ])
        e.close()
        assert e.leaked_shm() == []
        e.close()  # idempotent
        e.__del__()  # after close: a no-op, not a crash
        for i, (out,) in enumerate(pend.wait()):
            assert np.array_equal(out, np.arange(4.0) + i)
        assert not e.active

    def test_del_without_close_releases_blocks(self):
        e = ParallelEngine(workers=2)
        e.run(_ping_task, [({"add": 1.0}, (np.arange(8.0),))] * 3)
        owned = set(e._owned_shm)
        assert owned  # the heartbeat block
        e.__del__()
        assert e.leaked_shm() == []

    def test_unsupervised_result_timeout_degrades_whole_pool(self):
        """The all-or-nothing pool death: with no respawn budget an
        overdue batch cannot be recovered locally — supervision has
        nothing left to do — so the pool dies and the call completes
        serially."""
        with ParallelEngine(workers=2, max_respawns=0,
                            result_timeout=0.5) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            outs = e.run(_sleepy_task, [({"sleep": 2.0}, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)
            assert not e.active
            assert "timed out" in e.fallback_reason
            assert e.degrade_kinds.get("timeout") == 1
            assert e.degrade_kinds.get("respawn-budget") == 1
            assert e.recovery["timeouts"] == 1
            assert e.recovery["respawns"] == 0
        assert e.leaked_shm() == []

    def test_supervised_overdue_result_recovers_without_degrade(self, tmp_path):
        """The same overdue batch under supervision: the stalled worker
        is killed mid-sleep and its task re-issued (the re-execution
        runs clean) — the pool survives."""
        with ParallelEngine(workers=2, result_timeout=1.0) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            meta = {"flag": str(tmp_path / "stalled"), "sleep": 60.0}
            outs = e.run(_sleep_once_task, [(meta, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)
            assert e.active
            assert e.recovery["timeouts"] >= 1
            assert e.recovery["respawns"] >= 1
            assert e.recovery["pool_degrades"] == 0

    def test_stale_result_after_recovery_is_dropped(self):
        """Satellite: _route must drop results whose task id is no
        longer tracked (a batch already degraded or re-issued)."""
        from repro.parallel.supervisor import result_digest

        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            before = e.tasks_parallel
            data = (np.zeros(3),)
            e._route((10_000, 0, "ok", data, result_digest(data),
                      0.0, 0.0, 0.0, 0.0, "stale", None))
            assert e.tasks_parallel == before  # silently dropped
            outs = e.run(_ping_task, [({"add": 1.0}, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)

    def test_startup_degrade_reason_is_labelled(self, monkeypatch):
        """Satellite: degrade reasons become labelled counters in
        describe() and metrics, not just a last-reason string."""
        def broken_ping(self):
            raise KernelError("simulated startup failure")

        monkeypatch.setattr(ParallelEngine, "_ping", broken_ping)
        e = ParallelEngine(workers=2)
        assert e.degrade_kinds == {"startup": 1}
        assert e.describe()["degrade_reasons"] == {"startup": 1}
        reg = collect_parallel_engine(MetricsRegistry("par"), e)
        assert reg.value("parallel.degrade.reason.startup") == 1
        e.close()

    def test_respawn_budget_exhaustion_degrades(self):
        """Recovery gives up when the machine looks sick: respawn
        budget 0 turns the first crash into a whole-pool degrade, and
        the batch still completes serially."""
        from repro.resilience import FaultInjector

        fi = FaultInjector(kill_tasks=(2,))  # first post-ping task
        with ParallelEngine(workers=2, faults=fi, max_respawns=0) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            outs = e.run(_ping_task, [
                ({"add": float(i)}, (np.arange(4.0),)) for i in range(4)
            ])
            for i, (out,) in enumerate(outs):
                assert np.array_equal(out, np.arange(4.0) + i)
            assert not e.active
            assert e.degrade_kinds.get("respawn-budget") == 1
            assert e.recovery["crashes"] >= 1
            assert e.recovery["respawns"] == 0
        assert e.leaked_shm() == []

    def test_recovery_metrics_all_keys_present(self):
        with ParallelEngine(workers=2) as e:
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
        for key in ("respawns", "crashes", "hangs", "timeouts",
                    "redistributed_tasks", "reexecuted_tasks",
                    "corrupt_results", "pool_degrades"):
            assert reg.value(f"parallel.recovery.{key}") == 0


class TestPipelineSubmit:
    """``submit``/``wait``, the engine's one dispatch primitive: one
    batch in flight."""

    def test_second_submit_before_wait_is_rejected_and_not_counted(self):
        """A rejected submit is not a dispatch: ``calls``, the pool and
        the batch in flight are as they were, and nothing leaks."""
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            e.run(_ping_task, [({"add": 1.0}, (np.arange(2.0),))])
            pend = e.submit(_ping_task, [
                ({"add": float(i)}, (np.arange(4.0),)) for i in range(3)])
            assert e.calls == 2
            for call in (e.submit, e.run):
                with pytest.raises(KernelError, match="already in flight"):
                    call(_ping_task, [({"add": 9.0}, (np.arange(2.0),))])
            assert e.calls == 2 and e.active
            for i, (out,) in enumerate(pend.wait()):
                assert np.array_equal(out, np.arange(4.0) + i)
            (out,), = e.submit(  # collected: the next batch is accepted
                _ping_task, [({"add": 5.0}, (np.arange(2.0),))]).wait()
            assert np.array_equal(out, np.arange(2.0) + 5.0)
            assert e.calls == 3 == e.describe()["calls"]
            assert e.recovery["pool_degrades"] == 0
        assert e.leaked_shm() == []

    def test_run_is_submit_then_wait(self):
        payloads = [({"add": float(i)}, (np.arange(5.0),)) for i in range(4)]
        with ParallelEngine(workers=2) as e:
            via_run = e.run(_ping_task, payloads)
            via_submit = e.submit(_ping_task, payloads).wait()
            assert e.calls == 2
        for (a,), (b,) in zip(via_run, via_submit):
            assert a.tobytes() == b.tobytes()

    def test_inactive_engine_submit_finishes_serially(self):
        e = ParallelEngine(workers=0)
        pend = e.submit(_ping_task, [({"add": 3.0}, (np.arange(4.0),))])
        (out,), = pend.wait()
        assert np.array_equal(out, np.arange(4.0) + 3.0)
        assert e.tasks_serial == 1

    def test_double_wait_raises(self):
        e = ParallelEngine(workers=0)
        pend = e.submit(_ping_task, [({"add": 1.0}, (np.arange(2.0),))])
        pend.wait()
        with pytest.raises(KernelError, match="twice"):
            pend.wait()

    def test_submit_task_error_raised_at_wait(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pend = e.submit(_boom_task, [({}, (np.arange(3.0),))])
            with pytest.raises(KernelError, match="intentional task failure"):
                pend.wait()
            assert e.active  # a task bug is not pool death


_DTYPES = ("<f8", "<f4", "<i4", "|i1", "|b1", "<c16", "<u2")


@st.composite
def _payload_batches(draw):
    """1-3 payloads of 0-3 arrays: mixed dtypes, ranks 0-5, dims 0-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payloads = []
    for _ in range(draw(st.integers(1, 3))):
        arrays = []
        for _ in range(draw(st.integers(0, 3))):
            shape = tuple(draw(st.lists(st.integers(0, 3), max_size=5)))
            raw = rng.integers(0, 256, size=shape + (16,), dtype=np.uint8)
            dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
            arrays.append(raw.view(dtype)[..., 0] if dtype.kind != "b"
                          else raw[..., 0] > 127)
        how = draw(st.sampled_from(("same", "T", "step")))
        payloads.append(({"how": how}, tuple(arrays)))
    return payloads


def _poll(engine, seconds=30.0):
    """The next result-queue item, unrouted."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        item = engine._poll_result(0.5)
        if item is not None:
            return item
    raise AssertionError("no result within the deadline")


class TestResultTransport:
    """Every task input crosses by reference (DESIGN.md §10.2): a
    resident array where it lies, any other as a read-only copy in the
    engine's staging arena.  A result written into a handed resident
    array comes back by reference and is verified in place; any other is
    pickled into the reply and verified over the driver's copy."""

    @settings(max_examples=40, deadline=None)
    @given(_payload_batches())
    def test_round_trip_equals_the_inprocess_engine_bytes(self, payloads):
        """Every call's results carry the in-process engine's bytes,
        shapes and dtypes, and none costs the pool (rank-0 bools are
        numpy scalars)."""
        want = ParallelEngine(workers=0).run(_views_task, payloads)
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            for _ in range(3):
                got = e.run(_views_task, payloads)
                assert e.active and e.degrade_kinds == {}
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert [(a.shape, a.dtype) for a in g] \
                        == [(a.shape, a.dtype) for a in w]
                    assert [a.tobytes() for a in g] == [a.tobytes() for a in w]
            assert sum(e.transport.values()) == e.tasks_parallel
        assert e.leaked_shm() == []

    def test_copied_results_are_pickled_resident_ones_never(self):
        """A task's own array is pickled into the reply on every call,
        whatever its size; one written into a handed resident array never
        is.  Both counts are exported as ``parallel.transport.*``."""
        from repro.parallel.resident import Arena

        arena = Arena(1 << 16)  # before the engine forks its workers
        out = arena.empty((5,))
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            seen = []
            for n in (1000, 1000, 1001, 999):
                before = dict(e.transport)
                (got,), = e.run(_bytes_task, [({"n": n}, (np.arange(5.0),))])
                assert got.nbytes == n and np.all(got == 7)
                seen.append(tuple(e.transport[k] - before[k]
                                  for k in ("results_shm", "results_queued")))
                before = dict(e.transport)
                (got,), = e.run(_write_task, [({"add": n}, (np.arange(5.0), out))])
                assert np.shares_memory(got, out)
                assert np.array_equal(got, np.arange(5.0) + n)
                seen.append(tuple(e.transport[k] - before[k]
                                  for k in ("results_shm", "results_queued")))
            assert seen == [(0, 1), (1, 0)] * 4
            desc = e.describe()["transport"]
            assert desc == e.transport == {
                "results_shm": 4, "results_queued": 4 + e.workers}  # + pings
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
            assert reg.value("parallel.transport.results_shm") == 4
            assert reg.value("parallel.transport.results_queued") == 6

    def test_bytes_accounting_is_the_same_on_either_path(self):
        """``bytes_in`` / ``bytes_out`` count the arrays' own bytes, the
        same on every call."""
        arr = np.arange(24.0).reshape(4, 6)
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            deltas = []
            for _ in range(3):
                b_in = sum(s.bytes_in for s in e.stats)
                b_out = sum(s.bytes_out for s in e.stats)
                e.run(_views_task, [({"how": "T"}, (arr[:, ::2], arr))] * 3)
                deltas.append((sum(s.bytes_in for s in e.stats) - b_in,
                               sum(s.bytes_out for s in e.stats) - b_out))
        in_bytes = 3 * (arr[:, ::2].nbytes + arr.nbytes)
        assert deltas == [(in_bytes, in_bytes + 3 * 6)] * 3  # + the int16[3]

    def test_driver_verifies_a_resident_result_in_place(self):
        """A resident result scribbled on after the worker's reply is
        queued and before ``_route`` runs is rejected and the task
        re-executed: the caller gets the rewritten, right bytes."""
        from repro.parallel.resident import Arena

        arena = Arena(1 << 16)  # before the engine forks its workers
        out = arena.empty((16,))
        payload = [({"add": 1.0}, (np.arange(16.0), out))]
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pend = e.submit(_write_task, payload)
            item = _poll(e)
            assert isinstance(item[3][0], tuple)  # a reference, no bytes
            out.view(np.uint8)[9] ^= 0x40
            e._route(item)
            assert e.recovery["corrupt_results"] == 1
            assert e.recovery["reexecuted_tasks"] == 1
            (got,), = pend.wait()
            assert np.shares_memory(got, out)
            assert np.array_equal(got, np.arange(16.0) + 1.0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                        reason="needs /proc/self/maps")
    def test_worker_maps_no_shm_name_but_the_heartbeat(self):
        """Inputs of any size cross by reference into anonymous arenas:
        besides its queues' semaphores a worker maps one named block, the
        heartbeat."""
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            for k in range(1, 4):
                outs = e.run(_shm_maps_task, [
                    ({"shard": s}, (np.zeros(1000 * k * (s + 1)),))
                    for s in range(4)])
                for (out,) in outs:
                    names = set(out.tobytes().decode().split("\n"))
                    assert {n for n in names if not n.startswith("sem.")} \
                        == {e.supervisor.shm_name}

    def test_a_numpy_scalar_crosses_as_a_0d_array(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            (got,) = e.run(_views_task, [
                ({"how": "same"}, (np.False_, np.float32(2.5)))])
            assert e.active and e.degrade_kinds == {}
        assert [(a.shape, a.dtype, a.tobytes()) for a in got[:2]] == [
            ((), np.dtype(bool), b"\x00"),
            ((), np.dtype(np.float32), np.float32(2.5).tobytes())]

    @pytest.mark.parametrize("entry, what", [
        (np.array([None, 1.0]), "dtype object"), ([1.0, 2.0], "list")])
    def test_an_entry_the_pool_cannot_carry_is_refused(self, entry, what):
        """Before anything is dispatched, naming the payload and array
        index; the pool stays up."""
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            calls, tids = e.calls, e._task_seq
            with pytest.raises(KernelError, match=re.escape(
                    f"payload 1 array 2: the pool carries arrays of plain "
                    f"values, not {what}")):
                e.run(_views_task, [
                    ({"how": "same"}, (np.zeros(2),)),
                    ({"how": "same"}, (np.zeros(2), np.ones(1), entry))])
            assert (e.calls, e._task_seq) == (calls, tids)
            assert e.active and e.degrade_kinds == {}
            (got,) = e.run(_views_task, [({"how": "same"}, (np.ones(2),))])
            assert np.array_equal(got[0], np.ones(2)) and e.active

    def test_a_flip_in_a_result_aliasing_its_input_is_recovered(self):
        """Task 2, the first after the pings, returns its input itself.
        The bit flipped after the CRC stamp lands in the reply's private
        copy, not in the staged input, so the re-execution reads clean
        input and the call returns the in-process engine's bytes."""
        from repro.resilience import BitFlip, FaultInjector

        payload = [({"how": "same"}, (np.arange(1.0, 9.0),))]
        want = ParallelEngine(workers=0).run(_views_task, payload)
        faults = FaultInjector(bitflips=[BitFlip(task=2, word=0, bit=63)])
        with ParallelEngine(workers=2, faults=faults) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            got = e.run(_views_task, payload)
            assert e.recovery["corrupt_results"] == 1
            assert e.recovery["reexecuted_tasks"] == 1
        assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in want[0]]

    def test_a_batch_over_the_staging_arena_runs_in_process(self, monkeypatch):
        """Bitwise equal and without a degrade; a batch that fits still
        goes to the pool."""
        from repro.parallel import engine as engine_mod

        monkeypatch.setattr(engine_mod, "STAGING_BYTES", 4096)
        payload = [({"how": "T"}, (np.arange(1024.0).reshape(32, 32),))]
        want = ParallelEngine(workers=0).run(_views_task, payload)
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pool, serial = e.tasks_parallel, e.tasks_serial
            got = e.run(_views_task, payload)
            assert e.active and e.degrade_kinds == {}
            assert (e.tasks_parallel, e.tasks_serial) == (pool, serial + 1)
            e.run(_views_task, [({"how": "T"}, (np.arange(4.0),))])
            assert (e.tasks_parallel, e.tasks_serial) == (pool + 1, serial + 1)
        assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in want[0]]

    def test_prim_result_queue_is_idle_after_the_first_step(self):
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2) as par:
            e = par.engine
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            par.step()
            first, tasks = dict(e.transport), e.tasks_parallel
            par.run_steps(3)  # crosses the rsplit remap boundary
            assert e.transport["results_queued"] == first["results_queued"]
            assert e.transport["results_shm"] - first["results_shm"] \
                == e.tasks_parallel - tasks > 0
        assert e.leaked_shm() == []


class TestResidentStages:
    """Arrays in a resident arena cross by reference (DESIGN.md §10.2),
    and a two-stage task's second stage runs only once every payload's
    first is in: each sum sees every shard's write."""

    @pytest.mark.parametrize("workers", [0, 2])
    def test_stages_meet_at_the_barrier_by_reference(self, workers):
        from repro.parallel.resident import Arena

        arena = Arena(1 << 16)  # before the engine forks its workers
        buf, outs = arena.empty((4,)), [arena.empty((1,)) for _ in range(4)]
        with ParallelEngine(workers=workers) as e:
            moved = sum(s.bytes_in + s.bytes_out for s in e.stats)
            tasks = e.tasks_parallel + e.tasks_serial
            got = e.run((_stage_write, _stage_sum),
                        [({"shard": g}, (buf, outs[g])) for g in range(4)])
            assert [r[0].tolist() for r in got] == [[10.0]] * 4
            assert all(np.shares_memory(r[0], o) for r, o in zip(got, outs))
            assert e.calls == 1
            assert e.tasks_parallel + e.tasks_serial - tasks == 4
            assert sum(s.bytes_in + s.bytes_out for s in e.stats) == moved
            if workers:
                assert e.active and e.transport["results_queued"] == workers
        assert e.leaked_shm() == []

    def test_a_full_arena_refuses_instead_of_handing_out_private_memory(self):
        from repro.parallel.resident import Arena, locate

        arena = Arena(128)
        a, b = arena.empty((8,)), arena.empty((8,))
        assert all(locate(x, [arena.id]) is not None for x in (a, b))
        with pytest.raises(KernelError, match="resident arena full"):
            arena.empty((8,))
        del a  # a dead array's region is handed out again
        assert locate(arena.empty((8,)), [arena.id]) is not None

    def test_arrays_a_caller_keeps_fill_the_arena_bitwise(self, monkeypatch):
        """Arrays the caller holds pin their regions until the arena is
        full: results then travel by copy, and every DSS still packs into
        the one buffer every worker maps — the trajectory is the
        in-process twin's bytes.  A state that no longer lies in the
        arena is never handed to a task to write into."""
        from repro.homme import distributed as dist_mod
        from repro.parallel.resident import ALIGN

        monkeypatch.setattr(dist_mod, "ARENA_STATES", 4)
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2) as par:
            if not par.engine.active:
                pytest.skip(f"pool unavailable: {par.engine.fallback_reason}")
            held = []
            for size in (1 << 16, ALIGN // 8):  # large regions, then the tail
                try:
                    while True:
                        held.append(par.arena.empty((size,)))
                except KernelError:
                    pass
            queued = par.engine.transport["results_queued"]

            def step_both(k):
                ser.step()
                par.step()
                gs, gp = ser.gather_state(), par.gather_state()
                for f in par._fields:
                    assert getattr(gs, f).tobytes() == getattr(gp, f).tobytes(), \
                        f"{f} differs after step {k}"

            for k in range(1, 3):
                step_both(k)
            assert par.engine.transport["results_queued"] > queued
            # A state replaced by private arrays: the step writes elsewhere.
            par.states = [type(s)(**{f: a.copy() for f, a in vars(s).items()})
                          for s in par.states]
            private = [(a, a.copy()) for s in par.states for a in vars(s).values()]
            step_both(3)  # the rsplit remap step
            assert all(a.tobytes() == was.tobytes() for a, was in private)
            assert par.engine.describe()["degrade_reasons"] == {}

    def test_more_workers_than_cores_share_the_arena_bitwise(self):
        """Four workers on however few cores, each writing its shard's
        rows of the shared DSS buffer and reading its peers': three
        steps, across a remap, are the in-process twin's bytes."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=4) as par:
            if not par.engine.active:
                pytest.skip(f"pool unavailable: {par.engine.fallback_reason}")
            assert len(par.groups) == 4 and par.arena is not None
            assert_same_trajectory(ser, par, 3)
            assert par.engine.describe()["degrade_reasons"] == {}


class TestDistributedBitwise:
    def test_sw_ne8_workers2_matches_serial_bitwise(self):
        """Acceptance criterion: ne8 shallow water, parallel == serial
        to the last bit after every step, simulated clocks included
        (they are the timing model either way)."""
        mesh = CubedSphereMesh(8, 4)
        with DistributedShallowWater(mesh, nranks=4) as ser, \
                DistributedShallowWater(mesh, nranks=4, workers=2) as par:
            assert_same_trajectory(ser, par, 2)
            if par.engine.active:
                assert par.engine.tasks_parallel > 0

    def test_prim_ne4_workers2_matches_serial_bitwise(self):
        """Acceptance criterion: ne4 primitive equations, parallel ==
        serial to the last bit across all prognostic fields."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2) as par:
            assert_same_trajectory(ser, par, 2)

    def test_prim_snapshot_restore_under_parallel_engine(self):
        """Satellite: snapshot()/restore_snapshot() round-trip with
        workers=2 reproduces the serial trajectory bitwise — including
        across the rsplit remap boundary."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2) as par:
            ser.run_steps(4)
            par.run_steps(1)
            snap = par.snapshot()
            par.run_steps(1)  # diverge past the snapshot...
            par.restore_snapshot(snap)  # ...and rewind
            par.run_steps(3)
            gs, gp = ser.gather_state(), par.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert np.array_equal(getattr(gs, f), getattr(gp, f)), f

    def test_pool_dispatches_what_the_inprocess_engine_does(self):
        """Exact-counter pin: over two steps the pool takes the same
        calls as its ``workers=0`` twin — one batch of whole-shard tasks
        per dispatch, on its shard per worker — and ``pipeline=True``,
        which the step benchmark still passes, changes nothing."""
        cfg, mesh, _, state = _noisy_prim_state()

        def build(**kw):
            return DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, **kw)

        with build() as ser, build(workers=2) as par, \
                build(workers=2, pipeline=True) as ignored:
            if not (par.engine.active and ignored.engine.active):
                pytest.skip(f"pool unavailable: {par.engine.fallback_reason}")
            assert_same_trajectory(ser, par, 2)
            ignored.run_steps(2)
            want = ser.engine.describe()
            assert want["tasks_parallel"] == 0 and want["calls"] > 0
            for model in (par, ignored):
                got = model.engine.describe()
                assert got["calls"] == want["calls"]
                assert got["tasks_serial"] == 0
                # One task per shard per call, the ping left out; the pool
                # has a shard per worker.
                assert got["tasks_parallel"] - 2 == got["calls"] * len(model.groups)
                assert got["pipeline"] == {"overlap_seconds": 0.0,
                                           "wait_seconds": 0.0}
            assert want["tasks_serial"] == want["calls"] * len(ser.groups)
            assert (len(ser.groups), len(par.groups)) == (1, 2)
            gp, gi = par.gather_state(), ignored.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert getattr(gp, f).tobytes() == getattr(gi, f).tobytes(), f
            assert par.max_rank_time() == ignored.max_rank_time()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_step_is_the_serial_recipe_call_for_call(self, workers):
        """Exact-counter pin of the one recipe: a distributed step makes
        one exchange per synchronisation point where the serial step
        runs one pack and one sum per element block on the same data
        path, and neither calls the whole-field ``ElementGeometry.dss``
        — 3 RK stages, 3 tracer stages per subcycle (the stack travels
        whole), 2 laplacian rounds per hyperviscosity sweep — plus one
        allreduce per tracer subcycle and one dispatch per phase."""
        from unittest import mock

        from repro.homme import timestep
        from repro.parallel import dycore

        cfg, mesh, _, state = _noisy_prim_state()
        serial = PrimitiveEquationModel(cfg, mesh, init=state.copy(), dt=30.0)
        per_elem = max(a.nbytes // len(a) for a in vars(serial.state).values())
        with mock.patch.object(timestep, "BLOCK_BYTES", 24 * per_elem):
            serial._split_blocks()
        blocks = len(serial.blocks)
        assert blocks == 4
        dss = _count_calls(serial.geom, "dss")
        with pytest.MonkeyPatch.context() as mp:
            packs, sums = ([0], [0])

            def counted(fn, tally):
                def call(*args):
                    tally[0] += 1
                    return fn(*args)
                return call
            mp.setattr(dycore, "pack", counted(dycore.pack, packs))
            mp.setattr(dycore, "sum_task", counted(dycore.sum_task, sums))
            serial.step()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=workers) as model:
            if workers and not model.engine.active:
                pytest.skip(f"pool unavailable: {model.engine.fallback_reason}")
            assert model._hv_subcycles == 1 and cfg.tracer_subcycles == 3
            exchanges = _count_calls(model.hx, "exchange")
            allreduces = _count_calls(model.mpi, "allreduce")
            model.step()
            assert (dss, exchanges, allreduces) == ([0], [14], [3])
            assert (packs, sums) == ([14 * blocks], [14 * blocks])
            assert model.engine.calls == 14

    def test_serial_workers_knob_is_default_path(self):
        mesh = CubedSphereMesh(4, 4)
        with DistributedShallowWater(mesh, nranks=2) as m:
            assert m.engine.workers == 0
            m.step()
            assert not m.engine.active and m.engine.supervisor is None
            assert m.engine.tasks_serial > 0 and m.engine.tasks_parallel == 0


class TestObservability:
    def test_metrics_collected_per_worker(self):
        with ParallelEngine(workers=2) as e:
            e.run(_ping_task, [({"add": 1.0}, (np.arange(8.0),))] * 4)
            was_active = e.active
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
        assert reg.value("parallel.workers") == 2
        assert reg.value("parallel.tasks.parallel") == e.tasks_parallel
        total = sum(
            reg.value(f"parallel.worker.{w}.tasks") for w in range(2)
        )
        assert total >= 4  # ping tasks included
        assert reg.value("parallel.active") == (1.0 if was_active else 0.0)

    def test_worker_spans_land_on_worker_tracks(self):
        tracer = Tracer("parallel-test")
        e = ParallelEngine(workers=2, tracer=tracer)
        try:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            e.run(_ping_task, [({"add": 1.0}, (np.arange(4.0),))] * 3)
            tracks = {ev.track for ev in tracer.recorder.events}
            assert tracks & {worker_track(0), worker_track(1)}
        finally:
            e.close()


class TestShardedContexts:
    """Sharded geometry ownership (DESIGN.md §15): an engine is built
    around its contexts, a meta indexes them, shard-affinity dispatch,
    and the per-worker memory accounting."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("bad", [-1, 2, 99, "0"])
    def test_context_index_outside_the_tuple_raises(self, workers, bad):
        with ParallelEngine(workers=workers, contexts=(1.0, 2.0)) as e:
            if workers and not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            good = ({"ctx": 1}, (np.arange(3.0),))
            for call in (e.run, lambda fn, p: e.submit(fn, p).wait()):
                with pytest.raises(KernelError, match="names context"):
                    call(_add_context_task,
                         [good, ({"ctx": bad}, (np.arange(3.0),))])
            # The caller's bug, not the pool's: nothing ran, nothing died.
            assert e.active == bool(workers)
            assert e.recovery["pool_degrades"] == 0
            assert e.tasks_parallel + e.tasks_serial == workers  # the pings
            (out,), = e.run(_add_context_task, [good])
            assert np.array_equal(out, np.arange(3.0) + 2.0)

    def test_two_live_engines_resolve_their_own_contexts(self):
        payloads = [({"ctx": i}, (np.zeros(2),)) for i in (0, 1)] \
            + [({}, (np.zeros(2),))]
        with ParallelEngine(workers=2, contexts=(1.0, 2.0),
                            label="first") as first, \
                ParallelEngine(workers=2, contexts=(10.0, 20.0),
                               label="second") as second, \
                ParallelEngine(workers=0, contexts=(100.0, 200.0)) as third:
            for e in (first, second):
                if not e.active:
                    pytest.skip(f"pool unavailable: {e.fallback_reason}")
            for e, base in ((first, 1.0), (second, 10.0), (third, 100.0),
                            (first, 1.0)):
                outs = [o[0][0] for o in e.run(_add_context_task, payloads)]
                assert outs == [base, 2 * base, 0.0]

    def test_prim_kill_worker_respawn_reinherits_the_contexts(self):
        """The chaos scenarios drive shallow water; this is the
        primitive-equation model losing a worker in its first RK stage.
        The respawned worker is handed the engine's contexts again, so
        the redistributed shard computes on the same geometry."""
        cfg, mesh, _, state = _noisy_prim_state()
        faults, overrides = scenario_spec("kill-worker", workers=2, tasks=2)
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2,
                faults=faults, engine_kwargs=overrides) as par:
            if not par.engine.active:
                pytest.skip(f"pool unavailable: {par.engine.fallback_reason}")
            assert len(par.groups) == 2  # the spec's tasks per stage
            assert_same_trajectory(ser, par, 2)
            assert par.engine.active
            assert par.engine.recovery["crashes"] == 1
            assert par.engine.recovery["respawns"] == 1
            assert par.engine.recovery["pool_degrades"] == 0
            # Both generations of the killed slot computed on contexts.
            assert max(s.generation for s in par.engine.stats) == 1

    def test_closed_inprocess_model_leaves_no_module_state(self):
        """There is no registry: building, stepping and closing a model
        changes no module-level container of the parallel package."""
        import weakref

        from repro.parallel import dycore, engine, supervisor

        def module_state():
            return {
                (m.__name__, k): len(v)
                for m in (engine, supervisor, dycore)
                for k, v in vars(m).items()
                if isinstance(v, (dict, list, set, weakref.WeakSet))
                and not k.startswith("__")
            }

        before = module_state()
        mesh = CubedSphereMesh(4, 4)
        with DistributedShallowWater(mesh, nranks=4) as model:
            model.step()
            assert module_state() == before
        assert module_state() == before

    def test_sharded_sw_context_accounting(self):
        mesh = CubedSphereMesh(4, 4)
        model = DistributedShallowWater(mesh, nranks=4, workers=2)
        try:
            if not model.engine.active:
                pytest.skip(
                    f"pool unavailable: {model.engine.fallback_reason}")
            model.step()
            per_slot = model.engine.contexts_by_slot
            assert len(per_slot) == 2
            # Shard affinity: each worker touched only its own shards,
            # one rank group each.
            all_idx = [i for idxs in per_slot.values() for i in idxs]
            assert sorted(all_idx) == list(range(len(model.groups))) == [0, 1]
            peak = model.engine.peak_context_bytes()
            total = model.engine.total_context_bytes()
            assert 0 < peak < total
            desc = model.engine.describe()
            assert desc["context"]["peak_bytes"] == peak
            assert desc["context"]["total_bytes"] == total
        finally:
            model.close()

    def test_task_context_resolves_index_or_none(self):
        from repro.parallel.supervisor import task_context

        assert task_context(("solo", "duo"), {"ctx": 1, "rank": 0}) == "duo"
        assert task_context(("solo", "duo"), {"rank": 0}) is None
        assert task_context((), {}) is None

    def test_context_nbytes_counts_arrays_once(self):
        arr = np.zeros(128)
        obj = {"a": arr, "b": arr, "nested": [arr, np.ones(16)]}
        # Deduplicated by id: the shared array counts once.
        assert context_nbytes(obj) == arr.nbytes + np.ones(16).nbytes
