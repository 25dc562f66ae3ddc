"""Tests for the history format and restart files."""

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


class TestRestart:
    def test_round_trip_bit_exact(self, tmp_path):
        from repro.config import ModelConfig
        from repro.homme.element import ElementGeometry, ElementState
        from repro.io.restart import load_restart, save_restart
        from repro.mesh import CubedSphereMesh

        cfg = ModelConfig(ne=4, nlev=4, qsize=2)
        mesh = CubedSphereMesh(4)
        geom = ElementGeometry(mesh)
        state = ElementState.isothermal_rest(geom, cfg)
        rng = np.random.default_rng(3)
        state.T += rng.standard_normal(state.T.shape)
        state.v += rng.standard_normal(state.v.shape) * 1e-6
        path = tmp_path / "restart.camh"
        save_restart(path, state, cfg, t=1234.5)
        loaded, cfg2, t = load_restart(path)
        assert t == 1234.5
        assert cfg2 == cfg
        assert np.array_equal(loaded.T, state.T)
        assert np.array_equal(loaded.v, state.v)
        assert np.array_equal(loaded.dp3d, state.dp3d)
        assert np.array_equal(loaded.qdp, state.qdp)

    def test_restarted_run_continues_bitwise(self, tmp_path):
        """Run 4 steps straight vs 2 + restart + 2: identical states."""
        from repro.config import ModelConfig
        from repro.homme.element import ElementGeometry, ElementState
        from repro.homme.timestep import PrimitiveEquationModel
        from repro.io.restart import load_restart, save_restart
        from repro.mesh import CubedSphereMesh

        cfg = ModelConfig(ne=4, nlev=4, qsize=1)
        mesh = CubedSphereMesh(4)
        geom = ElementGeometry(mesh)
        init = ElementState.isothermal_rest(geom, cfg)
        rng = np.random.default_rng(4)
        init.T = geom.dss(init.T + rng.standard_normal(init.T.shape))
        init.qdp[:, 0] = 1e-3 * init.dp3d

        straight = PrimitiveEquationModel(cfg, mesh=mesh, init=init.copy(), dt=600.0)
        straight.run_steps(4)

        half = PrimitiveEquationModel(cfg, mesh=mesh, init=init.copy(), dt=600.0)
        half.run_steps(2)
        path = tmp_path / "mid.camh"
        save_restart(path, half.state, cfg, t=half.t)
        loaded, cfg2, t = load_restart(path)
        resumed = PrimitiveEquationModel(cfg2, mesh=mesh, init=loaded, dt=600.0)
        resumed.step_count = 2  # keep the remap phase aligned
        resumed.run_steps(2)

        assert np.array_equal(resumed.state.T, straight.state.T)
        assert np.array_equal(resumed.state.v, straight.state.v)
        assert np.array_equal(resumed.state.qdp, straight.state.qdp)
