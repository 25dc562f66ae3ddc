"""Tests for Hilbert SFC ordering and the SFC partition / halo graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MeshError, PartitionError
from repro.mesh import SFCPartition, hilbert_d2xy, hilbert_xy2d
from repro.mesh.sfc import global_sfc_order, sfc_ordering


class TestHilbert:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_roundtrip(self, order):
        d = np.arange((1 << order) ** 2)
        x, y = hilbert_d2xy(order, d)
        assert np.array_equal(hilbert_xy2d(order, x, y), d)

    def test_curve_is_connected(self):
        d = np.arange(256)
        x, y = hilbert_d2xy(4, d)
        steps = np.abs(np.diff(x)) + np.abs(np.diff(y))
        assert np.all(steps == 1)

    def test_curve_is_bijective(self):
        x, y = hilbert_d2xy(3, np.arange(64))
        assert len(set(zip(x.tolist(), y.tolist()))) == 64

    def test_out_of_range_rejected(self):
        with pytest.raises(MeshError):
            hilbert_xy2d(2, np.array([4]), np.array([0]))
        with pytest.raises(MeshError):
            hilbert_d2xy(2, np.array([16]))


class TestSFCOrdering:
    @pytest.mark.parametrize("ne", [2, 3, 4, 30])
    def test_is_permutation(self, ne):
        perm = sfc_ordering(ne)
        assert sorted(perm.tolist()) == list(range(ne * ne))

    def test_locality_nonpow2(self):
        # Mean step distance along the curve stays O(1) even off powers of 2.
        ne = 30
        perm = sfc_ordering(ne)
        fi, fj = perm // ne, perm % ne
        steps = np.abs(np.diff(fi)) + np.abs(np.diff(fj))
        assert steps.mean() < 2.0

    def test_global_order_covers_all_elements(self):
        order = global_sfc_order(4)
        assert sorted(order.tolist()) == list(range(96))


class TestSFCPartition:
    def test_balanced_counts(self):
        p = SFCPartition(30, 216)
        counts = p.elements_per_rank()
        assert counts.sum() == 5400
        assert counts.max() - counts.min() <= 1

    def test_uneven_division(self):
        p = SFCPartition(4, 7)  # 96 / 7
        counts = p.elements_per_rank()
        assert counts.sum() == 96
        assert counts.max() - counts.min() <= 1

    def test_ownership_consistent(self):
        p = SFCPartition(8, 24)
        for r in range(24):
            for e in p.rank_elements(r):
                assert p.owner[e] == r

    def test_inner_plus_boundary_is_all(self):
        p = SFCPartition(8, 16)
        for r in range(16):
            inner = set(p.inner_elements(r).tolist())
            bdry = set(p.boundary_elements(r).tolist())
            assert inner | bdry == set(p.rank_elements(r).tolist())
            assert not (inner & bdry)

    def test_halo_symmetry(self):
        p = SFCPartition(8, 16)
        for r in range(16):
            for peer, (edges, corners) in p.halo(r).neighbors.items():
                back = p.halo(peer).neighbors[r]
                assert back == (edges, corners)

    def test_single_rank_no_halo(self):
        p = SFCPartition(4, 1)
        h = p.halo(0)
        assert h.n_boundary == 0
        assert h.neighbors == {}
        assert p.mean_boundary_fraction() == 0.0

    def test_message_bytes_formula(self):
        p = SFCPartition(8, 8)
        h = p.halo(0)
        peer, (edges, corners) = next(iter(h.neighbors.items()))
        per_level_points = edges * 4 + corners
        expected = per_level_points * 128 * 4 * 8
        assert h.message_bytes(nlev=128, nfields=4)[peer] == expected

    def test_boundary_fraction_shrinks_with_elements_per_rank(self):
        # Surface-to-volume: more elements per rank -> lower boundary frac.
        dense = SFCPartition(16, 96)   # 16 elems/rank
        sparse = SFCPartition(16, 24)  # 64 elems/rank
        assert sparse.mean_boundary_fraction() < dense.mean_boundary_fraction()

    def test_one_element_per_rank_all_boundary(self):
        p = SFCPartition(4, 96)
        assert p.mean_boundary_fraction() == 1.0

    def test_too_many_ranks_rejected(self):
        with pytest.raises(PartitionError):
            SFCPartition(2, 25)

    def test_invalid_rank_query(self):
        p = SFCPartition(4, 4)
        with pytest.raises(PartitionError):
            p.halo(4)

    def test_max_message_bytes_positive(self):
        p = SFCPartition(8, 8)
        assert p.max_message_bytes(nlev=128, nfields=4) > 0

    @pytest.mark.parametrize("ne, nranks", [(2, 5), (3, 7), (4, 16), (6, 24)])
    def test_halos_equal_a_per_element_count(self, ne, nranks):
        """Reference: every element's foreign edge and corner neighbours
        counted one at a time; each rank lists its edge peers, then its
        corner-only peers, in rank order."""
        p = SFCPartition(ne, nranks)
        own = p.owner.tolist()
        edges = [{} for _ in range(nranks)]
        corners = [{} for _ in range(nranks)]
        boundary = [0] * nranks
        for e, r in enumerate(own):
            peers_e = [own[n] for n in p.conn.edge_neighbors[e].tolist()]
            peers_c = [own[n] for n in p.conn.corner_neighbors[e].tolist()
                       if n >= 0]
            for peers, tally in ((peers_e, edges[r]), (peers_c, corners[r])):
                for q in peers:
                    if q != r:
                        tally[q] = tally.get(q, 0) + 1
            boundary[r] += any(q != r for q in peers_e + peers_c)
        for r, h in enumerate(p.halos()):
            order = sorted(edges[r]) + sorted(set(corners[r]) - set(edges[r]))
            assert list(h.neighbors.items()) == [
                (q, (edges[r].get(q, 0), corners[r].get(q, 0))) for q in order]
            assert (h.n_boundary, h.n_inner + h.n_boundary) == (
                boundary[r], own.count(r))

    @given(nranks=st.integers(min_value=1, max_value=54))
    @settings(max_examples=15, deadline=None)
    def test_partition_invariants(self, nranks):
        p = SFCPartition(3, nranks)
        counts = p.elements_per_rank()
        assert counts.sum() == 54
        assert counts.max() - counts.min() <= 1
        # Every element owned exactly once.
        seen = np.concatenate([p.rank_elements(r) for r in range(nranks)])
        assert sorted(seen.tolist()) == list(range(54))

    def test_mean_boundary_fraction_is_per_rank_mean(self):
        # Regression: with unequal shard sizes the mean of per-rank
        # fractions differs from the element-weighted global mask mean
        # (the old, buggy value).  SFCPartition(6, 5) splits 216
        # elements as [44, 43, 43, 43, 43].
        p = SFCPartition(6, 5)
        per_rank = [
            len(p.boundary_elements(r)) / len(p.rank_elements(r))
            for r in range(5)
        ]
        expected = float(np.mean(per_rank))
        global_mask_mean = float(p.boundary_mask.mean())
        assert expected != global_mask_mean  # the case that distinguishes
        assert p.mean_boundary_fraction() == pytest.approx(expected, abs=0)
        assert p.mean_boundary_fraction() != global_mask_mean

    @given(
        ne=st.integers(min_value=2, max_value=6),
        nranks=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_halo_graph_symmetric_and_conserving(self, ne, nranks):
        # Halo symmetry: a's view of the (edges, corners) it shares
        # with b must equal b's view of a, for every neighbor pair —
        # otherwise the two sides of an exchange would post mismatched
        # message sizes and the DSS would deadlock or corrupt sums.
        p = SFCPartition(ne, nranks)
        for a in range(nranks):
            for b, shared in p.halo(a).neighbors.items():
                assert p.halo(b).neighbors[a] == shared
                assert b != a
        # Per-rank message bytes conservation: every byte sent is a
        # byte received (pairwise, hence also in total).
        msgs = [p.halo(r).message_bytes(nlev=8, nfields=2)
                for r in range(nranks)]
        for a in range(nranks):
            for b, nbytes in msgs[a].items():
                assert msgs[b][a] == nbytes
        total_sent = sum(sum(m.values()) for m in msgs)
        total_recv = sum(msgs[b][a] for b in range(nranks) for a in msgs[b])
        assert total_sent == total_recv
