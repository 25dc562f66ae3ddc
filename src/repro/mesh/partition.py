"""SFC domain decomposition and halo graphs.

Elements are assigned to ranks as equal contiguous chunks of the global
space-filling curve (:func:`~repro.mesh.sfc.global_sfc_order`).  The
partition computes, per rank:

- the owned element list;
- the **inner/boundary split**: boundary elements have at least one
  edge- or corner-neighbor owned by another rank.  The redesigned
  ``bndry_exchangev`` (paper Section 7.6) computes boundary elements
  first, posts communication, and overlaps the inner elements with the
  in-flight messages;
- the halo graph: for each neighbor rank, how many element edges and
  corners are shared, which determines message sizes (np GLL points x
  nlev levels x fields per edge, 1 x nlev x fields per corner).

Everything is vectorized so that the paper-scale meshes (ne = 1024,
6.3 M elements, 131,072 ranks) are analyzable exactly on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PartitionError
from .connectivity import CubeConnectivity
from .sfc import global_sfc_order


@dataclass
class RankHalo:
    """Halo summary for one rank.

    ``neighbors`` maps a peer rank to ``(shared_edges, shared_corners)``
    counted from this rank's side (symmetric by construction).
    """

    rank: int
    n_elements: int
    n_inner: int
    n_boundary: int
    neighbors: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def n_neighbor_ranks(self) -> int:
        return len(self.neighbors)

    def message_bytes(self, nlev: int, nfields: int, np_: int = 4) -> dict[int, int]:
        """Bytes exchanged with each neighbor rank in one halo exchange.

        Each shared edge carries ``np`` GLL points per level per field;
        each shared corner carries one point.  8 bytes per double.
        """
        out = {}
        for peer, (edges, corners) in self.neighbors.items():
            points = edges * np_ + corners
            out[peer] = points * nlev * nfields * 8
        return out

    def total_message_bytes(self, nlev: int, nfields: int, np_: int = 4) -> int:
        """Total bytes this rank sends in one halo exchange."""
        return sum(self.message_bytes(nlev, nfields, np_).values())


class SFCPartition:
    """Space-filling-curve partition of a cubed-sphere mesh.

    Parameters
    ----------
    ne:
        Cubed-sphere resolution.
    nranks:
        MPI ranks (one per core group on TaihuLight).
    connectivity:
        Optional pre-built :class:`CubeConnectivity` (shared across
        partitions of the same mesh in sweeps).
    """

    def __init__(
        self,
        ne: int,
        nranks: int,
        connectivity: CubeConnectivity | None = None,
    ) -> None:
        self.ne = ne
        self.nelem = 6 * ne * ne
        if nranks < 1:
            raise PartitionError(f"nranks must be >= 1, got {nranks}")
        if nranks > self.nelem:
            raise PartitionError(
                f"{nranks} ranks exceed {self.nelem} elements at ne={ne}"
            )
        self.nranks = nranks
        self.conn = connectivity if connectivity is not None else CubeConnectivity(ne)
        if self.conn.ne != ne:
            raise PartitionError("connectivity ne does not match partition ne")

        order = global_sfc_order(ne)
        # Balanced contiguous chunks: first (nelem % nranks) ranks get one extra.
        base = self.nelem // nranks
        extra = self.nelem % nranks
        counts = np.full(nranks, base, dtype=np.int64)
        counts[:extra] += 1
        self._counts = counts
        bounds = np.concatenate([[0], np.cumsum(counts)])
        self._bounds = bounds
        self._order = order

        # owner[element] = rank.
        owner = np.empty(self.nelem, dtype=np.int64)
        ranks_along_curve = np.repeat(np.arange(nranks), counts)
        owner[order] = ranks_along_curve
        self.owner = owner

        self._build_halos()

    # -- construction ------------------------------------------------------------

    def _build_halos(self) -> None:
        conn = self.conn
        own = self.owner
        edge_peer = own[conn.edge_neighbors]                      # (nelem, 4)
        edge_foreign = edge_peer != own[:, None]
        corner_ids = conn.corner_neighbors
        corner_valid = corner_ids >= 0
        corner_peer = np.where(corner_valid, own[np.clip(corner_ids, 0, None)], -1)
        corner_foreign = corner_valid & (corner_peer != own[:, None])

        self.boundary_mask = edge_foreign.any(axis=1) | corner_foreign.any(axis=1)

        # Per-(rank, peer) edge, then corner, counts over one int64 key
        # ``rank * nranks + peer``: sorted keys are (rank, peer) pairs in
        # lexicographic order, so each rank meets its peers in rank order.
        n = self.nranks
        src = np.repeat(own, 4)

        def pair_counts(peer: np.ndarray, foreign: np.ndarray):
            keep = foreign.reshape(-1)
            keys, cnt = np.unique(src[keep] * n + peer.reshape(-1)[keep],
                                  return_counts=True)
            return zip((keys // n).tolist(), (keys % n).tolist(), cnt.tolist())

        bcount = np.bincount(own[self.boundary_mask], minlength=n)
        halos = [RankHalo(r, c, c - nb, nb) for r, (c, nb)
                 in enumerate(zip(self._counts.tolist(), bcount.tolist()))]
        for s, d, c in pair_counts(edge_peer, edge_foreign):
            halos[s].neighbors[d] = (c, 0)
        for s, d, c in pair_counts(corner_peer, corner_foreign):
            halos[s].neighbors[d] = (halos[s].neighbors.get(d, (0, 0))[0], c)
        self._halos = halos

    # -- queries --------------------------------------------------------------

    def rank_elements(self, rank: int) -> np.ndarray:
        """Element ids owned by ``rank``, in curve order."""
        self._check_rank(rank)
        return self._order[self._bounds[rank] : self._bounds[rank + 1]]

    def elements_per_rank(self) -> np.ndarray:
        """(nranks,) element counts; balanced to within one element."""
        return self._counts.copy()

    def halo(self, rank: int) -> RankHalo:
        """The halo summary for ``rank``."""
        self._check_rank(rank)
        return self._halos[rank]

    def halos(self) -> list[RankHalo]:
        """All rank halos."""
        return list(self._halos)

    def inner_elements(self, rank: int) -> np.ndarray:
        """Owned elements with no foreign neighbor (overlappable work)."""
        els = self.rank_elements(rank)
        return els[~self.boundary_mask[els]]

    def boundary_elements(self, rank: int) -> np.ndarray:
        """Owned elements with at least one foreign neighbor."""
        els = self.rank_elements(rank)
        return els[self.boundary_mask[els]]

    # -- aggregate statistics for the performance model -----------------------------

    def mean_boundary_fraction(self) -> float:
        """Average fraction of a rank's elements on its boundary.

        Each rank contributes ``n_boundary / n_elements`` with equal
        weight.  This differs from the element-weighted global fraction
        ``boundary_mask.mean()`` whenever element counts are uneven:
        small ranks (which are almost all boundary) must not be diluted
        by large ones, since the per-rank fraction is what sets each
        rank's halo-to-compute ratio in the scaling model.
        """
        fracs = [
            h.n_boundary / h.n_elements for h in self._halos
        ]
        return float(np.mean(fracs))

    def mean_neighbor_count(self) -> float:
        """Average number of neighbor ranks per rank."""
        return float(np.mean([h.n_neighbor_ranks for h in self._halos]))

    def max_message_bytes(self, nlev: int, nfields: int) -> int:
        """Largest per-rank halo volume (the scaling-critical rank)."""
        return max(
            h.total_message_bytes(nlev, nfields, 4) for h in self._halos
        )

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise PartitionError(f"rank {rank} outside 0..{self.nranks - 1}")
