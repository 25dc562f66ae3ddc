"""Alpha-beta message cost model for the TaihuLight interconnect.

The time to deliver an ``n``-byte point-to-point message between ranks
``a`` and ``b`` is::

    t = alpha(hops) + n / (beta * share(hops))

where alpha is the latency for the path class (on-node memcpy,
in-supernode network board, cross-supernode central switch) and beta the
node injection bandwidth, derated across the switch.  Collectives follow
the standard log-tree forms.  These are the terms that make the Figure
7/8 scaling curves bend: halo messages shrink with strong scaling until
alpha dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .. import constants as C
from .topology import TaihuLightTopology


@dataclass(frozen=True)
class NetworkCostModel:
    """Latency/bandwidth parameters plus the topology they apply to."""

    topology: TaihuLightTopology
    latency_on_node: float = 0.4e-6
    latency_intra_supernode: float = C.NET_LATENCY_INTRA_SUPERNODE
    latency_inter_supernode: float = C.NET_LATENCY_INTER_SUPERNODE
    node_bandwidth: float = C.NET_NODE_BANDWIDTH
    inter_supernode_bw_factor: float = C.NET_INTER_SUPERNODE_BW_FACTOR
    #: On-node transfers move at memory speed, not NIC speed.
    on_node_bandwidth: float = C.SW_MEMORY_BANDWIDTH / 4

    def alpha(self, hops: int) -> float:
        """Path latency [s] for a hop class from :meth:`TaihuLightTopology.hops`."""
        if hops == 0:
            return self.latency_on_node
        if hops == 1:
            return self.latency_intra_supernode
        return self.latency_inter_supernode

    def beta(self, hops: int) -> float:
        """Path bandwidth [bytes/s]."""
        if hops == 0:
            return self.on_node_bandwidth
        if hops == 1:
            return self.node_bandwidth
        return self.node_bandwidth * self.inter_supernode_bw_factor

    def path(self, src: int, dst: int) -> tuple[float, float]:
        """``(alpha, beta)`` of the path class between two ranks (constant)."""
        hops = self.topology.hops(src, dst)
        return self.alpha(hops), self.beta(hops)

    def p2p_time(self, src: int, dst: int, nbytes: int) -> float:
        """Point-to-point message time [s]."""
        if nbytes < 0:
            raise ValueError(f"message size cannot be negative: {nbytes}")
        alpha, beta = self.path(src, dst)
        return alpha + nbytes / beta

    def p2p_time_by_hops(self, hops: int, nbytes: int) -> float:
        """p2p time for a known hop class (perf-model fast path)."""
        return self.alpha(hops) + nbytes / self.beta(hops)

    def allreduce_time(self, nranks: int, nbytes: int) -> float:
        """Recursive-doubling allreduce estimate [s].

        log2(p) rounds; each round a p2p of ``nbytes``.  Beyond a
        supernode the rounds pay switch latency — modeled by using the
        worst path class once more than half the rounds leave the
        supernode.
        """
        if nranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(nranks))
        ranks_per_sn = self.topology.nodes_per_supernode * self.topology.ranks_per_node
        local_rounds = min(rounds, max(0, math.ceil(math.log2(min(nranks, ranks_per_sn)))))
        remote_rounds = rounds - local_rounds
        t = local_rounds * self.p2p_time_by_hops(1, nbytes)
        t += remote_rounds * self.p2p_time_by_hops(2, nbytes)
        return t

    def suggested_timeout(self, nbytes: int = 1 << 20) -> float:
        """A safe receiver timeout for the retransmission protocol [s].

        Several times the worst-path delivery time of a generously sized
        message, so a healthy-but-slow delivery is never mistaken for a
        loss (a spurious retransmit), while a genuinely lost message is
        detected within a handful of worst-case latencies.
        """
        return 4.0 * self.p2p_time_by_hops(2, nbytes)
