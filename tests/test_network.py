"""Tests for topology, cost model, and SimMPI (incl. overlap semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimMPIError, TopologyError
from repro.network import NetworkCostModel, SimMPI, TaihuLightTopology

from .simmpi_oracle import one_way


class TestTopology:
    def test_full_machine_capacity(self):
        t = TaihuLightTopology()
        assert t.nodes == 40960
        assert t.max_ranks == 163_840
        assert t.supernodes == 160

    def test_rank_placement(self):
        t = TaihuLightTopology(nodes=512)
        assert t.node_of_rank(0) == 0
        assert t.node_of_rank(3) == 0
        assert t.node_of_rank(4) == 1
        assert t.supernode_of_rank(4 * 256 - 1) == 0
        assert t.supernode_of_rank(4 * 256) == 1

    def test_hops(self):
        t = TaihuLightTopology(nodes=512)
        assert t.hops(0, 1) == 0          # same node
        assert t.hops(0, 4) == 1          # same supernode
        assert t.hops(0, 4 * 256) == 2    # across supernodes

    def test_out_of_range_rank(self):
        t = TaihuLightTopology(nodes=2)
        with pytest.raises(TopologyError):
            t.node_of_rank(8)

    def test_invalid_topology(self):
        with pytest.raises(TopologyError):
            TaihuLightTopology(nodes=0)

    def test_partial_supernode_semantics(self):
        # 300 nodes at 256 nodes/supernode: supernode 0 is full, the
        # trailing supernode holds the 44 leftover nodes.  `supernodes`
        # ceils; membership is pure integer division.
        t = TaihuLightTopology(nodes=300)
        assert t.supernodes == 2
        assert t.nodes_in_supernode(0) == 256
        assert t.nodes_in_supernode(1) == 44
        assert sum(t.nodes_in_supernode(s) for s in range(t.supernodes)) \
            == t.nodes
        assert t.supernode_of_node(255) == 0
        assert t.supernode_of_node(256) == 1
        assert t.supernode_of_node(299) == 1
        # Hops across the full/partial supernode boundary are still 2.
        last_full = t.ranks_per_node * 255       # a rank on node 255
        first_partial = t.ranks_per_node * 256   # a rank on node 256
        assert t.hops(last_full, first_partial) == 2

    def test_partial_supernode_queries_validated(self):
        t = TaihuLightTopology(nodes=300)
        with pytest.raises(TopologyError):
            t.nodes_in_supernode(2)
        with pytest.raises(TopologyError):
            t.nodes_in_supernode(-1)
        with pytest.raises(TopologyError):
            t.supernode_of_node(300)

    def test_reduction_groups_cover_all_ranks(self):
        t = TaihuLightTopology(nodes=300)
        nranks = 4 * 258  # spills 8 ranks into the partial supernode
        node_ranks, sn_nodes = t.reduction_groups(nranks)
        ranks = sorted(r for rs in node_ranks.values() for r in rs)
        assert ranks == list(range(nranks))
        nodes = sorted(n for ns in sn_nodes.values() for n in ns)
        assert nodes == sorted(node_ranks)
        for node, rs in node_ranks.items():
            assert all(t.node_of_rank(r) == node for r in rs)
        for sn, ns in sn_nodes.items():
            assert all(t.supernode_of_node(n) == sn for n in ns)
        with pytest.raises(TopologyError):
            t.reduction_groups(0)
        with pytest.raises(TopologyError):
            t.reduction_groups(t.max_ranks + 1)


class TestCostModel:
    @pytest.fixture
    def cm(self):
        return NetworkCostModel(TaihuLightTopology(nodes=512))

    def test_latency_ordering(self, cm):
        assert cm.alpha(0) < cm.alpha(1) < cm.alpha(2)

    def test_bandwidth_ordering(self, cm):
        assert cm.beta(0) > cm.beta(1) > cm.beta(2)

    def test_p2p_zero_bytes_is_latency(self, cm):
        assert cm.p2p_time(0, 4, 0) == pytest.approx(cm.alpha(1))

    def test_p2p_linear_in_size(self, cm):
        t1 = cm.p2p_time(0, 4, 1 << 20)
        t2 = cm.p2p_time(0, 4, 2 << 20)
        assert t2 > t1
        assert (t2 - cm.alpha(1)) == pytest.approx(2 * (t1 - cm.alpha(1)), rel=1e-6)

    def test_negative_size_rejected(self, cm):
        with pytest.raises(ValueError):
            cm.p2p_time(0, 1, -1)

    def test_allreduce_grows_logarithmically(self, cm):
        t64 = cm.allreduce_time(64, 8)
        t1024 = cm.allreduce_time(1024, 8)
        # log2 ratio is 10/6; allow the supernode split to stretch it.
        assert 1.2 < t1024 / t64 < 4.0

    def test_allreduce_single_rank_free(self, cm):
        assert cm.allreduce_time(1, 1024) == 0.0


class TestSimMPI:
    def test_clocks_start_at_zero(self):
        mpi = SimMPI(3)
        assert [mpi.now(r) for r in range(3)] == [0.0] * 3
        assert mpi.max_time() == 0.0

    def test_compute_accumulates(self):
        mpi = SimMPI(2)
        mpi.compute(0, 1.5)
        mpi.compute(0, np.float64(0.5))
        assert mpi.now(0) == 2.0 and type(mpi.now(0)) is float
        assert mpi.now(1) == 0.0

    def test_negative_compute_rejected(self):
        mpi = SimMPI(2)
        with pytest.raises(SimMPIError):
            mpi.compute(0, -1.0)
        assert mpi.now(0) == 0.0

    def test_wait_never_moves_a_clock_back(self):
        """A message that arrived while the receiver computed costs it
        nothing; a later one advances it to the arrival."""
        mpi = SimMPI(2)
        one_way(mpi, 0, 1, 8, before=[0.0, 5.0])
        assert mpi.now(1) == 5.0 and mpi.comm_seconds[1] == 0.0
        t0 = mpi.now(0)  # the empty reply's arrival
        one_way(mpi, 0, 1, 8, before=[7.0, 0.0])
        assert mpi.now(1) == (t0 + 7.0) + mpi.cost.p2p_time(0, 1, 8)

    def test_payload_delivery(self):
        """A message is a size: the exchange that expects 80 bytes gets
        them (any other size raises HaloSizeError), and the empty reply
        counts as a message."""
        mpi = SimMPI(4)
        one_way(mpi, 0, 3, 80, tag=7)
        assert (mpi.messages_sent, mpi.bytes_sent) == (2, 80)

    def test_recv_clock_advances_by_transfer(self):
        mpi = SimMPI(8)
        one_way(mpi, 0, 4, 8 << 14)
        assert mpi.now(4) > 0
        # the sender pays nothing for its send, only the empty reply's wait
        assert mpi.now(0) == mpi.cost.p2p_time(4, 0, 0)

    def test_wait_without_send_raises(self):
        """Rank 1 receives from rank 0, which posts nothing to it."""
        mpi = SimMPI(2)
        with pytest.raises(SimMPIError, match="no matching send"):
            mpi.neighbor_exchange([[], [(0, 1, 1)]], 8, [0.0, 0.0],
                                  copies=1, bandwidth=1e9)

    def test_unknown_rank_rejected(self):
        mpi = SimMPI(2)
        with pytest.raises(SimMPIError):
            mpi.neighbor_exchange([[(5, 1, 1)], []], 8, [0.0, 0.0],
                                  copies=1, bandwidth=1e9)

    @staticmethod
    def state(mpi):
        return ([mpi.now(r) for r in range(mpi.nranks)], list(mpi.comm_seconds),
                mpi.messages_sent, mpi.bytes_sent)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1e-9])
    def test_compute_refuses_a_bad_cost_untouched(self, seconds):
        mpi = SimMPI(2)
        mpi.compute(1, 1e-3)
        before = self.state(mpi)
        with pytest.raises(SimMPIError, match="seconds for rank 1 is"):
            mpi.compute(1, seconds)
        assert self.state(mpi) == before

    @pytest.mark.parametrize("arg", ["before", "between"])
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_neighbor_exchange_refuses_a_bad_cost_untouched(self, arg, seconds):
        """Checked for every rank before any clock moves or any message
        is posted."""
        mpi = SimMPI(2)
        costs = {"before": [0.0, 0.0], "between": [0.0, 0.0]}
        costs[arg][1] = seconds
        before = self.state(mpi)
        with pytest.raises(SimMPIError, match=f"{arg} for rank 1 is"):
            mpi.neighbor_exchange([[(1, 1, 1)], [(0, 1, 1)]], 8, costs["before"],
                                  costs["between"], copies=1, bandwidth=1e9)
        assert self.state(mpi) == before

    def test_overlap_hides_communication(self):
        """The bndry_exchangev redesign in miniature: compute charged
        between the sends and the receives absorbs the transfer time."""
        big = 8 << 18  # bytes

        # Without overlap: recv waits the full transfer.
        mpi1 = SimMPI(8)
        one_way(mpi1, 0, 4, big)
        t_no_overlap = mpi1.now(4)

        # With overlap: rank 4 computes while the message is in flight.
        mpi2 = SimMPI(8)
        inner = [0.0] * 8
        inner[4] = t_no_overlap  # inner-element computation
        one_way(mpi2, 0, 4, big, between=inner)
        t_overlap = mpi2.now(4)

        assert t_overlap == pytest.approx(t_no_overlap)
        assert mpi2.comm_seconds[4] == pytest.approx(0.0)
        assert mpi1.comm_seconds[4] > 0

    def test_allreduce_sums_and_synchronizes(self):
        mpi = SimMPI(4)
        mpi.compute(2, 5.0)  # slowest rank
        out = mpi.allreduce([np.full(3, float(r)) for r in range(4)])
        assert np.allclose(out, 0 + 1 + 2 + 3)
        for r in range(4):
            assert mpi.now(r) >= 5.0

    def test_allreduce_shape_mismatch(self):
        mpi = SimMPI(2)
        with pytest.raises(SimMPIError):
            mpi.allreduce([np.zeros(2), np.zeros(3)])

    def test_allreduce_wrong_count(self):
        mpi = SimMPI(2)
        with pytest.raises(SimMPIError):
            mpi.allreduce([np.zeros(2)])

    @pytest.mark.parametrize("nranks", [1, 4, 8, 16])
    def test_hierarchical_allreduce_values_bitwise_match_flat(self, nranks):
        rng = np.random.default_rng(nranks)
        contribs = [rng.standard_normal(5) for _ in range(nranks)]
        flat = SimMPI(nranks).allreduce([c.copy() for c in contribs])
        hier = SimMPI(nranks, allreduce_algorithm="hierarchical").allreduce(
            [c.copy() for c in contribs]
        )
        # Same sum in the same order: bitwise identical, not just close.
        assert np.array_equal(flat, hier)

    def test_hierarchical_allreduce_on_node_cheaper_than_flat(self):
        # 4 ranks share one node: the hierarchical tree runs entirely on
        # hop-0 links, beating the flat recursive-doubling estimate that
        # charges some hop-1 rounds.
        contribs = [np.zeros(64) + r for r in range(4)]
        flat = SimMPI(4)
        flat.allreduce([c.copy() for c in contribs])
        hier = SimMPI(4, allreduce_algorithm="hierarchical")
        hier.allreduce([c.copy() for c in contribs])
        assert hier.max_time() < flat.max_time()
        assert hier.hierarchical_allreduces == 1
        assert flat.hierarchical_allreduces == 0

    def test_unknown_allreduce_algorithm_rejected(self):
        with pytest.raises(SimMPIError):
            SimMPI(4, allreduce_algorithm="ring")

    @given(nbytes=st.integers(min_value=0, max_value=1 << 20))
    @settings(max_examples=30, deadline=None)
    def test_arrival_monotone_in_size(self, nbytes):
        mpi = SimMPI(8)
        one_way(mpi, 0, 4, nbytes)
        small = mpi.now(4)
        mpi2 = SimMPI(8)
        one_way(mpi2, 0, 4, 2 * nbytes)
        assert mpi2.now(4) >= small
