"""Tests for the resilience subsystem: fault injection, the SimMPI
retransmission protocol, checkpoint/restart, validation, rollback, and
graceful CPE degradation."""

import numpy as np
import pytest

from repro.backends.athread import AthreadBackend
from repro.backends.workloads import table1_workloads
from repro.config import ModelConfig
from repro.errors import (
    CheckpointCorruptError,
    ResilienceError,
    SimMPITimeoutError,
)
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import ShallowWaterModel
from repro.mesh import CubedSphereMesh
from repro.network import SimMPI
from repro.network.simmpi import MAX_RETRIES
from repro.resilience import (
    BitFlip,
    Checkpointer,
    FaultInjector,
    ResilientRunner,
    StateValidator,
    flip_bit,
    snapshot_crc,
)
from repro.sunway.core_group import CoreGroup
from repro.sunway.dma import DMAEngine

from .simmpi_oracle import one_way


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(ne=4)


@pytest.fixture(scope="module")
def pe_setup():
    cfg = ModelConfig(ne=4, nlev=4, qsize=1)
    mesh = CubedSphereMesh(4)
    geom = ElementGeometry(mesh)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(0)
    state.T = geom.dss(state.T + rng.standard_normal(state.T.shape))
    state.qdp[:, 0] = 1e-3 * state.dp3d
    return cfg, mesh, state


class TestFaultInjector:
    def test_deterministic_under_seed(self):
        a = FaultInjector(seed=42, drop_probability=0.3)
        b = FaultInjector(seed=42, drop_probability=0.3)
        fates_a = [a.on_send(0, 1, 0, 100)[0] for _ in range(50)]
        fates_b = [b.on_send(0, 1, 0, 100)[0] for _ in range(50)]
        assert fates_a == fates_b
        assert "drop" in fates_a  # 30% of 50 sends should hit

    def test_scheduled_drop(self):
        fi = FaultInjector(drop_messages=[2])
        fates = [fi.on_send(0, 1, 0, 8)[0] for _ in range(4)]
        assert fates == ["deliver", "deliver", "drop", "deliver"]

    def test_scheduled_delay(self):
        fi = FaultInjector(delay_messages={1: 0.5})
        assert fi.on_send(0, 1, 0, 8) == ("deliver", 0.0)
        assert fi.on_send(0, 1, 0, 8) == ("delay", 0.5)

    def test_laggard_factor(self):
        fi = FaultInjector(laggards={3: 4.0})
        assert fi.compute_factor(3) == 4.0
        assert fi.compute_factor(0) == 1.0

    def test_laggard_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(laggards={0: 0.5})

    def test_event_log(self):
        fi = FaultInjector(drop_messages=[0])
        fi.on_send(0, 1, 7, 8)
        assert fi.summary() == {"drop": 1}
        assert fi.events[0].detail["tag"] == 7

    def test_state_flips_fire_once(self):
        fi = FaultInjector(bitflips=[BitFlip(step=3)])
        assert len(fi.state_flips_at(3)) == 1
        assert fi.state_flips_at(3) == []  # consumed

    def test_flip_bit_sign(self):
        arr = np.array([1.5, 2.5])
        flip_bit(arr, 1, 63)
        assert arr[1] == -2.5

    def test_flip_bit_roundtrips(self):
        arr = np.array([3.7])
        flip_bit(arr, 0, 17)
        assert arr[0] != 3.7
        flip_bit(arr, 0, 17)
        assert arr[0] == 3.7

    def test_flip_bit_lands_in_place_for_any_layout(self):
        """The flip lands in the array it is handed — a strided, a
        reversed, a transposed or a 0-d view — at the C-order flat index:
        a reshape of a strided view is a copy, and a flip there is lost."""
        a = np.zeros((4, 6))
        flip_bit(a[:, :3], 4, 63)  # flat 4 of the (4, 3) view is a[1, 1]
        assert np.signbit(a[1, 1]) and np.count_nonzero(np.signbit(a)) == 1
        r = np.arange(1.0, 7.0)
        flip_bit(r[::-2], 1, 63)  # the view is [6, 4, 2]
        assert r.tolist() == [1.0, 2.0, 3.0, -4.0, 5.0, 6.0]
        t = np.arange(1.0, 13.0).reshape(3, 4)
        flip_bit(t.T, 1, 63)  # t.T[0, 1] is t[1, 0]
        assert t[1, 0] == -5.0 and np.count_nonzero(t < 0) == 1
        z = np.array(2.0)
        flip_bit(z, 7, 63)
        assert z == -2.0

    def test_flip_bit_on_an_empty_array_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            flip_bit(np.zeros((3, 0)), 0, 1)


class TestRetransmission:
    """The retransmission protocol through ``SimMPI.neighbor_exchange``:
    each test sends one message 0 -> 1 (the fault injector's message 0)
    and rank 1 answers with an empty one; an exchange refuses a received
    size other than the one posted (``HaloSizeError``)."""

    def test_drop_then_retransmit_delivers(self):
        fi = FaultInjector(drop_messages=[0])
        mpi = SimMPI(4, faults=fi)
        one_way(mpi, 0, 1, 48, tag=5)  # rank 1 receives its 48 bytes
        assert mpi.retransmissions == 1
        assert mpi.messages_dropped == 1

    def test_timeout_charged_to_receiver(self):
        fi = FaultInjector(drop_messages=[0])
        mpi = SimMPI(2, faults=fi)
        one_way(mpi, 0, 1, 32)
        # The receiver rode out one full timeout window.
        assert mpi.now(1) >= mpi.timeout
        # The sender waited only for the empty reply.
        assert mpi.now(0) == mpi.cost.p2p_time(1, 0, 0)

    def test_backoff_widens_windows(self):
        def run(drops_before_success):
            class Sticky(FaultInjector):
                def __init__(self, n):
                    super().__init__(drop_messages=[0])
                    self.n = n

                def on_retransmit(self, src, dst, tag, attempt):
                    return attempt > self.n

            mpi = SimMPI(2, faults=Sticky(drops_before_success))
            one_way(mpi, 0, 1, 8)
            return mpi.now(1)

        # 1 + 2 + 4 windows vs 1 window: exponential, not linear.
        assert MAX_RETRIES >= 3  # run(2) succeeds on its third attempt
        assert run(2) >= run(0) + 3.0 * SimMPI(2).timeout * (1 - 1e-9)

    def test_retry_budget_exhausted(self):
        fi = FaultInjector(drop_messages=[0], drop_retransmits=True)
        mpi = SimMPI(2, faults=fi)
        with pytest.raises(SimMPITimeoutError):
            one_way(mpi, 0, 1, 16)

    def test_delay_arrives_late_but_intact(self):
        fi = FaultInjector(delay_messages={0: 2.0})
        mpi = SimMPI(2, faults=fi)
        one_way(mpi, 0, 1, 8)  # rank 1 receives its 8 bytes
        assert mpi.now(1) >= 2.0

    def test_dropped_message_is_not_overtaken(self):
        """Two exchanges on one (src, dst, tag) each receive their own
        message, in order, even when the first is lost and retransmitted."""
        mpi = SimMPI(2, faults=FaultInjector(drop_messages=[0]))
        one_way(mpi, 0, 1, 8)   # receives 8 bytes, after the retransmit
        one_way(mpi, 0, 1, 16)  # receives 16 bytes
        assert mpi.retransmissions == 1

    def test_laggard_rank_slows_job(self):
        fi = FaultInjector(laggards={1: 4.0})
        mpi = SimMPI(2, faults=fi)
        mpi.compute(0, 1.0)
        mpi.compute(1, 1.0)
        assert mpi.now(1) == pytest.approx(4.0)
        assert mpi.max_time() == pytest.approx(4.0)


class TestCheckpointer:
    def test_save_load_roundtrip(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=4)
        m.run_steps(1)
        ck = Checkpointer(tmp_path)
        path = ck.save(m)
        snap = ck.load(path)
        assert np.array_equal(snap["h_0"], m.rank_states()[0].h)

    def test_snapshot_crc_is_pinned_and_hashes_in_place(self):
        """The on-disk CRC32 of one snapshot: the value the ``.tobytes()``
        formula gave, so checkpoints already on disk still verify, with
        a contiguous array hashed without a copy of its bytes."""
        import tracemalloc
        import zlib

        snap = {"h_0": np.arange(12.0).reshape(3, 4),
                "v_0": np.arange(24.0).reshape(2, 3, 4).transpose(2, 0, 1),
                "meta": np.array([0.5, 3.0])}
        crc = 0
        for key in sorted(snap):
            crc = zlib.crc32(key.encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(snap[key]).tobytes(), crc)
        assert snapshot_crc(snap) == crc == 0xBD3EFC30

        big = {"h_0": np.ones(1 << 20)}  # 8 MiB
        tracemalloc.start()
        try:
            snapshot_crc(big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_corrupt_checkpoint_detected(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=2)
        ck = Checkpointer(tmp_path)
        path = ck.save(m)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        # Whether the flip lands in payload (CRC mismatch) or container
        # structure (unreadable), it surfaces as the same exception.
        with pytest.raises(CheckpointCorruptError):
            ck.load(path)

    def test_restore_skips_byte_mangled_file(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=2)
        ck = Checkpointer(tmp_path, cadence=1)
        ck.save(m)
        m.run_steps(1)
        bad = ck.save(m)
        raw = bytearray(bad.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # may corrupt zip/npy structure itself
        bad.write_bytes(bytes(raw))
        assert ck.restore(m) == 0  # fell back past the unreadable file

    def test_restore_skips_corrupt_falls_back(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=2)
        ck = Checkpointer(tmp_path, cadence=1)
        good = ck.save(m)
        m.run_steps(1)
        bad = ck.save(m)
        # Corrupt the newest checkpoint's payload (re-zip keeps it readable).

        data = np.load(bad)
        snap = {k: data[k] for k in data.files}
        snap["h_0"] = snap["h_0"] + 1.0  # payload no longer matches _crc
        np.savez(bad, **snap)
        restored = ck.restore(m)
        assert restored == 0  # fell back to the step-0 checkpoint
        assert good.exists()

    def test_rotation(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=2)
        ck = Checkpointer(tmp_path, cadence=1, keep=2)
        for _ in range(4):
            m.run_steps(1)
            ck.save(m)
        assert len(ck.checkpoints()) == 2

    def test_interrupted_save_is_not_a_checkpoint(self, mesh4, tmp_path):
        """A save cut off before its rename leaves ``ckpt_<step>.tmp.npz``
        behind: it is never listed, never counted toward ``keep``, never
        restored — and alone it does not stop the runner's step-0 net."""
        m = DistributedShallowWater(mesh4, nranks=2)
        lone = Checkpointer(tmp_path / "lone", cadence=1)
        (lone.dir / "ckpt_00000004.tmp.npz").write_bytes(b"PK\x03\x04trunc")
        assert lone.checkpoints() == [] and lone.latest() is None
        ResilientRunner(m, lone).run(1)
        assert [p.name for p in lone.checkpoints()] == [
            "ckpt_00000000.npz", "ckpt_00000001.npz"]

        ck = Checkpointer(tmp_path / "kept", cadence=1, keep=2)
        for _ in range(3):
            m.run_steps(1)
            ck.save(m)
        tmp = ck.dir / f"ckpt_{m.step_count + 3:08d}.tmp.npz"
        tmp.write_bytes(b"PK\x03\x04trunc")
        ck.save(m)  # rotation keeps two finished files, the temp untouched
        assert [p.name for p in ck.checkpoints()] == [
            f"ckpt_{m.step_count - 1:08d}.npz", f"ckpt_{m.step_count:08d}.npz"]
        assert tmp.exists() and ck.latest().name == f"ckpt_{m.step_count:08d}.npz"
        fresh = DistributedShallowWater(mesh4, nranks=2)
        assert ck.restore(fresh) == m.step_count

    def test_no_checkpoint_raises(self, mesh4, tmp_path):
        m = DistributedShallowWater(mesh4, nranks=2)
        with pytest.raises(ResilienceError):
            Checkpointer(tmp_path).restore(m)

    def test_restore_rejects_wrong_rank_count(self, mesh4, tmp_path):
        from repro.errors import KernelError

        a = DistributedShallowWater(mesh4, nranks=2)
        b = DistributedShallowWater(mesh4, nranks=4)
        ck = Checkpointer(tmp_path)
        snap = ck.load(ck.save(a))
        with pytest.raises(KernelError):
            b.restore_snapshot(snap)


class TestBitwiseRestart:
    def test_sw_checkpoint_restore_bitwise(self, mesh4, tmp_path):
        straight = DistributedShallowWater(mesh4, nranks=4)
        resumed = DistributedShallowWater(mesh4, nranks=4, dt=straight.dt)
        straight.run_steps(2)
        ck = Checkpointer(tmp_path)
        path = ck.save(straight)
        straight.run_steps(3)
        ck.restore(resumed, path)
        resumed.run_steps(3)
        gs, gr = straight.gather_state(), resumed.gather_state()
        assert np.array_equal(gs.h, gr.h)
        assert np.array_equal(gs.v, gr.v)

    def test_pe_checkpoint_restore_bitwise(self, pe_setup, tmp_path):
        cfg, mesh, state = pe_setup
        straight = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        resumed = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        straight.run_steps(2)
        ck = Checkpointer(tmp_path)
        path = ck.save(straight)
        straight.run_steps(2)  # crosses the rsplit=3 remap boundary
        ck.restore(resumed, path)
        resumed.run_steps(2)
        gs, gr = straight.gather_state(), resumed.gather_state()
        for f in ("v", "T", "dp3d", "qdp"):
            assert np.array_equal(getattr(gs, f), getattr(gr, f)), f


class TestStageReplay:
    def test_replay_after_timeout_is_bitwise_the_straight_run(self, mesh4):
        """Rollback-replay under message loss: a step aborted by a
        timeout, then a restore and the step again, is bitwise the run
        that never failed — the snapshot, time and step count included.
        The aborted exchange leaves no message behind for the replay,
        which reuses its tags."""
        ref = DistributedShallowWater(mesh4, nranks=2)
        ref.run_steps(2)

        # 6 sends per step (3 stages x one bundled exchange x 2 ranks):
        # index 7 is rank 1's send of the second step's first exchange,
        # received *before* rank 0's (index 6) — so the timeout aborts
        # the exchange with 6 posted and never received.
        fi = FaultInjector(drop_messages=[7], drop_retransmits=True)
        m = DistributedShallowWater(mesh4, nranks=2, dt=ref.dt, faults=fi)
        m.run_steps(1)
        snap = m.snapshot()
        with pytest.raises(SimMPITimeoutError):
            m.step()
        m.restore_snapshot(snap)
        m.step()  # replay of the aborted step, fault budget exhausted
        a, b = ref.snapshot(), m.snapshot()
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), key


class TestDropResilientTrajectory:
    def test_sw_with_drop_matches_serial(self, mesh4):
        """Property from the issue: a single injected message drop +
        retransmit leaves the distributed trajectory matching the serial
        model to roundoff."""
        serial = ShallowWaterModel(mesh4)
        fi = FaultInjector(seed=3, drop_messages=[4])
        dist = DistributedShallowWater(mesh4, nranks=6, dt=serial.dt, faults=fi)
        for _ in range(3):
            serial.step()
        dist.run_steps(3)
        assert dist.mpi.retransmissions >= 1
        g = dist.gather_state()
        assert np.allclose(g.h, serial.state.h, rtol=1e-12)
        assert np.allclose(g.v, serial.state.v, atol=1e-18)

    def test_sw_random_drops_match_dropfree(self, mesh4):
        fi = FaultInjector(seed=11, drop_probability=0.01)
        clean = DistributedShallowWater(mesh4, nranks=4)
        faulty = DistributedShallowWater(mesh4, nranks=4, dt=clean.dt, faults=fi)
        clean.run_steps(3)
        faulty.run_steps(3)
        assert np.array_equal(clean.gather_state().h, faulty.gather_state().h)


class TestStateValidator:
    def test_healthy_state_passes(self, mesh4):
        m = DistributedShallowWater(mesh4, nranks=2)
        v = StateValidator()
        assert v.check(m)
        assert v.problems(m) == []

    def test_detects_nan(self, mesh4):
        m = DistributedShallowWater(mesh4, nranks=2)
        m.rank_states()[1].v[0, 0, 0, 0] = np.nan
        v = StateValidator()
        probs = v.problems(m)
        assert len(probs) == 1 and "rank 1" in probs[0] and "v" in probs[0]

    def test_detects_negative_h(self, mesh4):
        m = DistributedShallowWater(mesh4, nranks=2)
        flip_bit(m.rank_states()[0].h, 5, 63)  # sign-bit SDC
        v = StateValidator()
        assert not v.check(m)

    def test_names_the_rank_whose_rows_hold_the_violation(self, mesh4):
        """Four ranks in one shard: a NaN in rank 3's rows is rank 3's."""
        m = DistributedShallowWater(mesh4, nranks=4)
        assert len(m.groups) == 1
        m.rank_states()[3].h[2, 1, 1] = np.nan
        assert StateValidator().problems(m) == [
            "rank 3: h has 1 non-finite value(s)"]

    def test_require_raises(self, mesh4):
        m = DistributedShallowWater(mesh4, nranks=2)
        m.rank_states()[0].h[0, 0, 0] = np.inf
        with pytest.raises(ResilienceError):
            StateValidator().require(m)


class TestResilientRunner:
    @pytest.mark.parametrize("n", [-4, True, 2.5])
    def test_bad_step_count_rejected_before_any_checkpoint(self, mesh4, tmp_path, n):
        """``run(-4)`` once wrote a step-0 checkpoint and returned an
        empty report."""
        model = ShallowWaterModel(mesh4)
        runner = ResilientRunner(model, Checkpointer(tmp_path, cadence=1))
        with pytest.raises(ResilienceError, match="step count must be a whole number"):
            runner.run(n)
        assert model.step_count == 0
        assert list(tmp_path.iterdir()) == []

    def test_faulty_pe_run_matches_fault_free(self, pe_setup, tmp_path):
        """The acceptance scenario: >=1 dropped message, >=1 laggard
        rank, >=1 bit-flip caught by the validator; the run completes
        via retry + rollback and matches the fault-free run bitwise."""
        cfg, mesh, state = pe_setup
        ref = DistributedPrimitiveEquations(cfg, mesh, state.copy(), nranks=4, dt=600.0)
        ref.run_steps(4)
        gref = ref.gather_state()

        fi = FaultInjector(
            seed=7,
            drop_messages=[5],
            laggards={1: 4.0},
            bitflips=[BitFlip(step=3, field_name="dp3d", rank=2, word=11, bit=63)],
        )
        m = DistributedPrimitiveEquations(
            cfg, mesh, state.copy(), nranks=4, dt=600.0, faults=fi
        )
        runner = ResilientRunner(m, Checkpointer(tmp_path, cadence=2), faults=fi)
        report = runner.run(4)

        assert report.rollbacks == 1
        assert report.resteps >= 1
        assert report.fault_summary.get("drop") == 1
        assert report.fault_summary.get("bitflip") == 1
        assert m.mpi.retransmissions >= 1
        assert m.max_rank_time() > ref.max_rank_time()  # the laggard shows
        g = m.gather_state()
        for f in ("v", "T", "dp3d", "qdp"):
            assert np.array_equal(getattr(g, f), getattr(gref, f)), f

    def test_deterministic_fault_runs(self, pe_setup, tmp_path):
        cfg, mesh, state = pe_setup

        def run(sub):
            fi = FaultInjector(seed=9, drop_probability=0.02,
                               bitflips=[BitFlip(step=2, rank=1, word=3, bit=63)])
            m = DistributedPrimitiveEquations(
                cfg, mesh, state.copy(), nranks=2, dt=600.0, faults=fi
            )
            runner = ResilientRunner(m, Checkpointer(tmp_path / sub, cadence=1), faults=fi)
            rep = runner.run(3)
            return m.gather_state(), rep

    # Two identically seeded runs: same faults, same trajectory.
        ga, ra = run("a")
        gb, rb = run("b")
        assert ra.rollbacks == rb.rollbacks
        assert ra.fault_summary == rb.fault_summary
        assert np.array_equal(ga.T, gb.T)

    def test_rollback_budget_exhausted(self, mesh4, tmp_path):
        class AlwaysCorrupt(FaultInjector):
            def state_flips_at(self, step):
                return [BitFlip(step=step, field_name="h", rank=0, word=0, bit=63)]

        fi = AlwaysCorrupt()
        m = DistributedShallowWater(mesh4, nranks=2, faults=fi)
        runner = ResilientRunner(
            m, Checkpointer(tmp_path, cadence=1), faults=fi, max_rollbacks=2
        )
        with pytest.raises(ResilienceError, match="budget"):
            runner.run(3)

    def test_bit_flip_lands_in_the_named_ranks_rows(self, mesh4, tmp_path):
        """Four ranks in one shard: a flip on rank 2 changes rank 2's
        elements of the gathered state and nothing else."""
        ref = DistributedShallowWater(mesh4, nranks=4)
        ref.run_steps(1)
        # Word 5 of rank 2's (24, 4, 4) h is in its first element; bit 0
        # leaves the state valid, so nothing rolls back.
        fi = FaultInjector(
            bitflips=[BitFlip(step=1, field_name="h", rank=2, word=5, bit=0)])
        m = DistributedShallowWater(mesh4, nranks=4, dt=ref.dt)
        assert len(m.groups) == 1
        rep = ResilientRunner(m, Checkpointer(tmp_path, cadence=1), faults=fi).run(1)
        assert rep.rollbacks == 0 and rep.fault_summary.get("bitflip") == 1
        changed = np.any(m.gather_state().h != ref.gather_state().h, axis=(1, 2))
        assert np.flatnonzero(changed).tolist() == [m.hx.rank_elems[2][0]]

    def test_bit_flip_on_a_rank_the_model_lacks_raises(self, mesh4, tmp_path):
        """A flip used to wrap onto another rank while the log named the
        requested one."""
        fi = FaultInjector(
            bitflips=[BitFlip(step=1, field_name="h", rank=4, word=0, bit=63)])
        m = DistributedShallowWater(mesh4, nranks=4)
        with pytest.raises(ResilienceError, match="rank 4; the model has ranks 0..3"):
            ResilientRunner(m, Checkpointer(tmp_path, cadence=1), faults=fi).run(1)

    @pytest.mark.parametrize("kind", ["sw", "prim"])
    def test_serial_model_rolls_back_bitwise(self, kind, mesh4, pe_setup,
                                             tmp_path):
        """The serial models are one rank of the same snapshot: a flip in
        rank 0's state rolls back once and ends on the fault-free bytes."""
        from repro.homme.timestep import PrimitiveEquationModel

        cfg, mesh, state = pe_setup

        def build():
            if kind == "sw":
                return ShallowWaterModel(mesh4)
            return PrimitiveEquationModel(cfg, mesh=mesh, init=state, dt=600.0)

        ref = build()
        ref.run_steps(3)
        field = "h" if kind == "sw" else "dp3d"
        fi = FaultInjector(bitflips=[BitFlip(step=2, field_name=field, word=3)])
        m = build()
        rep = ResilientRunner(m, Checkpointer(tmp_path, cadence=1), faults=fi).run(3)
        assert rep.rollbacks == 1 and rep.fault_summary == {"bitflip": 1}
        for f in m._fields:
            assert getattr(m.state, f).tobytes() == getattr(ref.state, f).tobytes(), f

    def test_sw_rollback_recovers(self, mesh4, tmp_path):
        ref = DistributedShallowWater(mesh4, nranks=2)
        ref.run_steps(3)
        fi = FaultInjector(bitflips=[BitFlip(step=2, field_name="h", rank=0, word=0, bit=63)])
        m = DistributedShallowWater(mesh4, nranks=2, dt=ref.dt, faults=fi)
        rep = ResilientRunner(m, Checkpointer(tmp_path, cadence=1), faults=fi).run(3)
        assert rep.rollbacks == 1
        assert np.array_equal(m.gather_state().h, ref.gather_state().h)


class TestDMABitFlips:
    def test_get_corrupts_scheduled_transfer(self):
        fi = FaultInjector(bitflips=[BitFlip(transfer=0, word=2, bit=63)])
        dma = DMAEngine(faults=fi)
        src = np.arange(8.0)
        dst = np.empty(8)
        dma.get(src, dst)
        assert dst[2] == -2.0  # sign flipped
        assert np.array_equal(src, np.arange(8.0))  # source untouched
        assert dma.corrupted_transfers == 1

    def test_unscheduled_transfers_clean(self):
        fi = FaultInjector(bitflips=[BitFlip(transfer=5, word=0, bit=63)])
        dma = DMAEngine(faults=fi)
        src, dst = np.ones(4), np.empty(4)
        dma.get(src, dst)
        assert np.array_equal(dst, src)
        assert dma.corrupted_transfers == 0

    def test_validator_catches_dma_sdc(self, mesh4):
        """A DMA sign flip lands in dp3d-like data; the validator sees it."""
        fi = FaultInjector(bitflips=[BitFlip(transfer=0, word=7, bit=63)])
        dma = DMAEngine(faults=fi)
        m = DistributedShallowWater(mesh4, nranks=2)
        h = m.rank_states()[0].h
        dma.get(h.copy(), h)  # LDM round-trip of the layer field
        assert not StateValidator().check(m)


class TestGracefulDegradation:
    def test_disable_cpes_counts(self):
        cg = CoreGroup()
        cg.disable_cpes(16)
        assert cg.n_healthy == 48
        assert cg.degradation == pytest.approx(64 / 48)

    def test_disable_all_rejected(self):
        """Refusing to disable the last healthy CPE changes nothing."""
        cg = CoreGroup()
        with pytest.raises(ResilienceError):
            cg.disable_cpes(64)
        assert cg.n_healthy == 64 and cg.degradation == 1.0
        cg.disable_cpes(63)
        with pytest.raises(ResilienceError):
            cg.disable_cpes(1)
        with pytest.raises(ResilienceError):
            cg.disable_cpe(*cg.healthy_cpes[0].coord)
        assert cg.n_healthy == 1 and cg.degradation == 64.0

    def test_collect_reports_degradation(self):
        cg = CoreGroup()
        cg.disable_cpe(7, 7)
        perf = cg.collect()
        assert perf.degradation == pytest.approx(64 / 63)

    def test_failed_lane_no_longer_gates(self):
        cg = CoreGroup()
        cg.cpe(7, 7).charge_scalar(1e9)  # huge backlog on one CPE
        cg.disable_cpe(7, 7)
        assert cg.collect().cycles < 1e9

    def test_degraded_backend_retiles_and_slows(self):
        wl = next(iter(table1_workloads().values()))
        full = AthreadBackend().execute(wl)
        half = AthreadBackend(healthy_cpes=32).execute(wl)
        assert half.notes["degradation"] == pytest.approx(2.0)
        # Compute-bound work re-tiles over the survivors: 2x slower.
        assert half.compute_seconds == pytest.approx(2 * full.compute_seconds)
        # The memory roofline term is the shared channel's — unchanged,
        # so a memory-bound kernel hides a modest CPE loss entirely.
        assert half.memory_seconds == pytest.approx(full.memory_seconds)
        assert half.seconds >= full.seconds

    def test_severe_degradation_dominates_roofline(self):
        wl = next(iter(table1_workloads().values()))
        full = AthreadBackend().execute(wl)
        worst = AthreadBackend(healthy_cpes=4).execute(wl)
        # With 4 of 64 CPEs the kernel goes compute-bound and slows down.
        assert worst.seconds > full.seconds
        assert worst.notes["bound"] == "compute"

    def test_zero_healthy_cpes_rejected(self):
        with pytest.raises(ResilienceError):
            AthreadBackend(healthy_cpes=0)

    @pytest.mark.parametrize("healthy", [65, True, 2.5])
    def test_invalid_healthy_cpes_rejected(self, healthy):
        """Only a whole number of CPEs in 1..64 survives; not a bool."""
        with pytest.raises(ResilienceError):
            AthreadBackend(healthy_cpes=healthy)
