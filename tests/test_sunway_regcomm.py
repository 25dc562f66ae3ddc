"""Tests for register communication: routing rules, counted costs, scan, XOR exchange."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RegCommError
from repro.sunway import CPEMeshComm, SW26010Spec


@pytest.fixture
def mesh():
    return CPEMeshComm()


class TestRouting:
    def test_same_row_allowed(self, mesh):
        assert mesh.charge((2, 0), (2, 7), 1) == mesh.spec.regcomm_latency_cycles

    def test_same_column_allowed(self, mesh):
        assert mesh.charge((0, 3), (7, 3), 1) == mesh.spec.regcomm_latency_cycles

    def test_diagonal_rejected(self, mesh):
        with pytest.raises(RegCommError):
            mesh.charge((0, 0), (1, 1), 1)

    def test_self_send_rejected(self, mesh):
        with pytest.raises(RegCommError):
            mesh.charge((3, 3), (3, 3), 1)

    def test_off_mesh_rejected(self, mesh):
        with pytest.raises(RegCommError):
            mesh.charge((0, 0), (0, 8), 1)
        with pytest.raises(RegCommError):
            mesh.charge((8, 0), (0, 0), 1)

    def test_refused_route_charges_nothing(self, mesh):
        with pytest.raises(RegCommError):
            mesh.charge((0, 0), (1, 1), 8)
        assert mesh.transfer_count == 0 and mesh.total_cycles == 0.0


class TestCosts:
    def test_single_register_latency(self, mesh):
        c = mesh.charge((0, 0), (0, 1), 4)
        assert c == mesh.spec.regcomm_latency_cycles

    def test_payload_chunking(self, mesh):
        c = mesh.charge((0, 0), (0, 1), 9)  # 3 registers
        assert c == 3 * mesh.spec.regcomm_latency_cycles

    def test_counters(self, mesh):
        mesh.charge((0, 0), (0, 1), 8)
        assert mesh.transfer_count == 2
        assert mesh.total_cycles > 0


class TestColumnScan:
    def test_exclusive_prefix_sums(self, mesh):
        vals = np.arange(64, dtype=float).reshape(8, 8)
        out, cycles = mesh.column_scan(vals)
        for c in range(8):
            expected = np.concatenate([[0.0], np.cumsum(vals[:-1, c])])
            assert np.allclose(out[:, c], expected)

    def test_critical_path_cycles(self, mesh):
        _, cycles = mesh.column_scan(np.ones((8, 8)))
        assert cycles == 7 * mesh.spec.regcomm_latency_cycles

    def test_counted_on_a_reduced_mesh(self):
        """The cycles are the counted chain of one column (columns run
        concurrently); the counters hold every hop of every column."""
        mesh = CPEMeshComm(SW26010Spec(cpe_rows=4, cpe_cols=4))
        _, cycles = mesh.column_scan(np.ones((4, 4)))
        assert cycles == 3 * mesh.spec.regcomm_latency_cycles
        assert mesh.transfer_count == 4 * 3
        assert mesh.total_cycles == 4 * cycles

    def test_shape_enforced(self, mesh):
        with pytest.raises(RegCommError):
            mesh.column_scan(np.ones((4, 8)))

    @given(
        vals=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=64,
            max_size=64,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_scan_matches_numpy(self, vals):
        mesh = CPEMeshComm()
        arr = np.array(vals).reshape(8, 8)
        out, _ = mesh.column_scan(arr)
        expected = np.vstack([np.zeros(8), np.cumsum(arr, axis=0)[:-1]])
        assert np.allclose(out, expected, atol=1e-6)


class TestExchangePhase:
    def test_phase_swaps_pairs(self, mesh):
        blocks = {i: np.full((4, 4), float(i)) for i in range(8)}
        out, cycles = mesh.exchange_phase(blocks, phase=1)
        for i in range(8):
            assert np.all(out[i] == float(i ^ 1))
        # A 16-double block is 4 register transfers; the pairs run
        # concurrently, so the phase costs one block's transfers.
        assert cycles == 4 * mesh.spec.regcomm_latency_cycles
        assert mesh.transfer_count == 8 * 4

    def test_all_phases_cover_all_pairs(self, mesh):
        """Running phases 1..7 routes every block through every peer slot."""
        seen_pairs = set()
        for phase in range(1, 8):
            blocks = {i: np.array([float(i)]) for i in range(8)}
            out, _ = mesh.exchange_phase(blocks, phase)
            for i in range(8):
                seen_pairs.add((i, int(out[i][0])))
        assert seen_pairs == {(i, j) for i in range(8) for j in range(8) if i != j}

    def test_invalid_phase(self, mesh):
        blocks = {i: np.zeros(1) for i in range(8)}
        with pytest.raises(RegCommError):
            mesh.exchange_phase(blocks, 0)
        with pytest.raises(RegCommError):
            mesh.exchange_phase(blocks, 8)

    def test_incomplete_blocks_rejected(self, mesh):
        with pytest.raises(RegCommError):
            mesh.exchange_phase({0: np.zeros(1)}, 1)
