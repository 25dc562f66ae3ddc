"""The two-level TaihuLight network topology.

40,960 nodes are organized into supernodes of 256 nodes each; nodes in a
supernode are fully connected through a customized network board, while
traffic between supernodes traverses central switches (paper Section
5.1).  For process placement, consecutive MPI ranks map to consecutive
CGs, four per node, filling supernodes in order — the standard TaihuLight
job-launch layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import constants as C
from ..errors import TopologyError


@dataclass(frozen=True)
class TaihuLightTopology:
    """Node/supernode layout and rank placement.

    Parameters
    ----------
    nodes:
        Total nodes in the allocation (up to 40,960 for the full machine).
    nodes_per_supernode:
        256 on the real machine.
    ranks_per_node:
        4 (one rank per core group) in all of the paper's experiments.
    """

    nodes: int = C.TAIHULIGHT_NODES
    nodes_per_supernode: int = C.TAIHULIGHT_NODES_PER_SUPERNODE
    ranks_per_node: int = C.SW_CORE_GROUPS

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise TopologyError(f"nodes must be >= 1, got {self.nodes}")
        if self.nodes_per_supernode < 1:
            raise TopologyError("nodes_per_supernode must be >= 1")
        if self.ranks_per_node < 1:
            raise TopologyError("ranks_per_node must be >= 1")

    @property
    def max_ranks(self) -> int:
        """Ranks the allocation can host."""
        return self.nodes * self.ranks_per_node

    @property
    def supernodes(self) -> int:
        """Supernodes spanned by the allocation (ceiling).

        Allocations need not fill supernodes: when ``nodes`` is not a
        multiple of ``nodes_per_supernode`` the last supernode is
        partial.  Membership is still pure integer division, so
        ``supernode_of_rank``/``hops`` stay correct across the partial
        boundary; :meth:`nodes_in_supernode` exposes the ragged size.
        """
        return -(-self.nodes // self.nodes_per_supernode)

    def nodes_in_supernode(self, supernode: int) -> int:
        """Nodes hosted by ``supernode`` (the last one may be partial)."""
        if not (0 <= supernode < self.supernodes):
            raise TopologyError(
                f"supernode {supernode} outside 0..{self.supernodes - 1}"
            )
        return min(
            self.nodes_per_supernode,
            self.nodes - supernode * self.nodes_per_supernode,
        )

    def supernode_of_node(self, node: int) -> int:
        """The supernode hosting ``node``."""
        if not (0 <= node < self.nodes):
            raise TopologyError(f"node {node} outside 0..{self.nodes - 1}")
        return node // self.nodes_per_supernode

    def node_of_rank(self, rank: int) -> int:
        """The node hosting ``rank`` (consecutive placement)."""
        if not (0 <= rank < self.max_ranks):
            raise TopologyError(f"rank {rank} outside 0..{self.max_ranks - 1}")
        return rank // self.ranks_per_node

    def supernode_of_rank(self, rank: int) -> int:
        """The supernode hosting ``rank``."""
        return self.node_of_rank(rank) // self.nodes_per_supernode

    def hops(self, a: int, b: int) -> int:
        """Abstract hop count: 0 on-node, 1 in-supernode, 2 via switch."""
        node_a, node_b = self.node_of_rank(a), self.node_of_rank(b)
        if node_a == node_b:
            return 0
        per_sn = self.nodes_per_supernode
        return 1 if node_a // per_sn == node_b // per_sn else 2

    def reduction_groups(
        self, nranks: int
    ) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Combine-tree groups for ``nranks`` consecutively placed ranks.

        Returns ``(node_ranks, supernode_nodes)``: the ranks hosted on
        each occupied node and the occupied nodes in each occupied
        supernode.  Groups respect partial supernodes — the last group
        simply has fewer members — so a node-local / supernode /
        central-switch hierarchical combine can be built directly from
        them.
        """
        if not (1 <= nranks <= self.max_ranks):
            raise TopologyError(
                f"nranks {nranks} outside 1..{self.max_ranks}"
            )
        node_ranks: dict[int, list[int]] = {}
        for rank in range(nranks):
            node_ranks.setdefault(self.node_of_rank(rank), []).append(rank)
        supernode_nodes: dict[int, list[int]] = {}
        for node in node_ranks:
            supernode_nodes.setdefault(self.supernode_of_node(node), []).append(node)
        return node_ranks, supernode_nodes
