"""Tests for the history format and the serial restart (a Checkpointer)."""

import numpy as np
import pytest

from repro.io import HistoryReader, HistoryWriter


class TestHistoryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "h0.camh"
        w = HistoryWriter(path)
        data = np.random.default_rng(0).standard_normal((6, 4, 4))
        w.write("TS", 0.5, data)
        r = HistoryReader(path)
        rec = r.record("TS")
        assert rec.time == 0.5
        assert np.array_equal(rec.data, data)

    def test_multiple_records_ordered(self, tmp_path):
        path = tmp_path / "h1.camh"
        w = HistoryWriter(path)
        for day in range(5):
            w.write("PS", float(day), np.full((3, 3), day, dtype=float))
        r = HistoryReader(path)
        recs = r.records()
        assert len(recs) == 5
        assert [rec.time for rec in recs] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert r.record("PS", index=3).data[0, 0] == 3.0

    def test_mixed_names(self, tmp_path):
        path = tmp_path / "h2.camh"
        w = HistoryWriter(path)
        w.write("T", 0.0, np.ones(4))
        w.write("U", 0.0, np.zeros((2, 2)))
        r = HistoryReader(path)
        assert r.record("U").data.shape == (2, 2)
        with pytest.raises(KeyError):
            r.record("missing")

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            HistoryReader(path)

    def test_scalar_record(self, tmp_path):
        path = tmp_path / "h3.camh"
        w = HistoryWriter(path)
        w.write("scalar", 1.0, np.array(42.0))
        rec = HistoryReader(path).record("scalar")
        assert rec.data == pytest.approx(42.0)


def prim_setup(seed: int):
    from repro.config import ModelConfig
    from repro.homme.element import ElementGeometry, ElementState
    from repro.mesh import CubedSphereMesh

    cfg = ModelConfig(ne=4, nlev=4, qsize=1)
    mesh = CubedSphereMesh(4)
    geom = ElementGeometry(mesh)
    init = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    init.T = geom.dss(init.T + rng.standard_normal(init.T.shape))
    init.qdp[:, 0] = 1e-3 * init.dp3d
    return cfg, mesh, init


class TestRestart:
    """The serial restart is the model's snapshot through the Checkpointer."""

    def test_round_trip_bit_exact(self, tmp_path):
        from repro.homme.timestep import PrimitiveEquationModel
        from repro.resilience import Checkpointer

        cfg, mesh, init = prim_setup(3)
        model = PrimitiveEquationModel(cfg, mesh=mesh, init=init, dt=600.0)
        model.run_steps(1)
        ck = Checkpointer(tmp_path)
        snap = ck.load(ck.save(model))
        t, steps = snap.pop("meta")
        assert (t, steps) == (600.0, 1)
        assert set(snap) == {"v_0", "T_0", "dp3d_0", "qdp_0"}
        for f in ("v", "T", "dp3d", "qdp"):
            assert snap[f"{f}_0"].tobytes() == getattr(model.state, f).tobytes(), f

    def test_restarted_run_continues_bitwise(self, tmp_path):
        """Run 4 steps straight vs 2 + restart + 2: identical states; time
        and step count (the remap phase) come back with the state."""
        from repro.homme.timestep import PrimitiveEquationModel
        from repro.resilience import Checkpointer

        cfg, mesh, init = prim_setup(4)
        straight = PrimitiveEquationModel(cfg, mesh=mesh, init=init, dt=600.0)
        straight.run_steps(4)

        half = PrimitiveEquationModel(cfg, mesh=mesh, init=init, dt=600.0)
        half.run_steps(2)
        ck = Checkpointer(tmp_path)
        ck.save(half)
        resumed = PrimitiveEquationModel(cfg, mesh=mesh, init=init, dt=600.0)
        assert ck.restore(resumed) == 2
        assert resumed.t == half.t
        resumed.run_steps(2)

        for f in ("v", "T", "dp3d", "qdp"):
            assert np.array_equal(getattr(resumed.state, f),
                                  getattr(straight.state, f)), f

    def test_restore_leaves_the_callers_initial_state_alone(self, tmp_path):
        """A serial model restored before its first step writes its own
        arrays, never the ``init`` it was built from."""
        from repro.homme.timestep import PrimitiveEquationModel
        from repro.resilience import Checkpointer

        cfg, mesh, caller = prim_setup(5)
        before = {f: getattr(caller, f).tobytes() for f in ("v", "T", "dp3d", "qdp")}
        ahead = PrimitiveEquationModel(cfg, mesh=mesh, init=caller, dt=600.0)
        ahead.run_steps(1)
        ck = Checkpointer(tmp_path)
        ck.save(ahead)
        model = PrimitiveEquationModel(cfg, mesh=mesh, init=caller, dt=600.0)
        ck.restore(model)
        assert model.state.T.tobytes() == ahead.state.T.tobytes()
        for f, raw in before.items():
            assert getattr(caller, f).tobytes() == raw, f
