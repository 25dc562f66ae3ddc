"""SimMPI: a single-process, simulated-time MPI for the reproduction.

Every rank's simulated time is one float.  SimMPI is a clock, not a
transport: a message carries only its size (the halo exchanger moves the
data), stamped with an *arrival time* — the sender's clock plus the
:class:`NetworkCostModel` transfer time.  A receiver advances its clock
to ``max(receiver_now, arrival)`` — which is exactly what permits
computation/communication overlap: compute charged between the sends and
the receives hides transfer time, reproducing the redesigned
``bndry_exchangev`` behaviour (paper Section 7.6).

Because all ranks execute inside one Python process, a halo exchange is
one call, :meth:`SimMPI.neighbor_exchange`, that runs the ranks in
phases (all sends posted, then all receives completed).  A message lives
only inside that call: nothing is held between calls, so an exchange
aborted by an error leaves nothing behind.

**Fault model.**  A :class:`~repro.resilience.faults.FaultInjector` can
drop or delay messages and slow individual ranks down.  The receiver of
a dropped message rides out a (simulated-time) timeout window, the
sender re-posts it with a fresh arrival stamp, and the window doubles on
every retry (:data:`BACKOFF`) — a retransmit-with-exponential-backoff
protocol.  Only after :data:`MAX_RETRIES` failed retransmissions does
the receive surface :class:`SimMPITimeoutError`.  Faults cost time,
never bytes; all of it is deterministic under the injector's seed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import HaloSizeError, SimMPIError, SimMPITimeoutError
from ..obs.tracer import NULL_TRACER
from .costmodel import NetworkCostModel
from .topology import TaihuLightTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..obs.tracer import NullTracer
    from ..resilience.faults import FaultInjector

#: Retransmissions attempted before ``wait`` raises :class:`SimMPITimeoutError`.
MAX_RETRIES = 3
#: Factor the receiver's timeout window grows by after each failed retransmission.
BACKOFF = 2.0


def rank_track(rank: int) -> str:
    """Canonical trace-track name for a simulated rank."""
    return f"rank{rank}"


def _check_seconds(name: str, rank: int, seconds: float) -> float:
    """``seconds`` as a float; a simulated cost that is not finite and
    >= 0 is refused before it reaches a clock."""
    if not (math.isfinite(seconds) and seconds >= 0):
        raise SimMPIError(
            f"{name} for rank {rank} is {seconds}, need finite seconds >= 0")
    return float(seconds)


class SimMPI:
    """A simulated communicator over ``nranks`` ranks.

    Parameters
    ----------
    nranks:
        Communicator size.  The cost model is the TaihuLight-shaped
        :class:`NetworkCostModel` over ``ceil(nranks / 4)`` nodes, and a
        receiver waits :meth:`NetworkCostModel.suggested_timeout` before
        it assumes a message lost.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`.  When
        set, posted messages may be dropped or delayed and ``compute``
        honours per-rank laggard factors.
    tracer:
        Observability tracer (:mod:`repro.obs`).  The default
        :data:`~repro.obs.tracer.NULL_TRACER` records nothing; a real
        :class:`~repro.obs.Tracer` gets per-rank send instants, receive
        wait spans, collective spans, and retransmission events — all
        stamped in simulated time, never perturbing the clocks.
    allreduce_algorithm:
        Clock-charging model for :meth:`allreduce`: ``"flat"``
        (recursive-doubling estimate, all clocks synchronized) or
        ``"hierarchical"`` (node → supernode → central-switch combine
        tree with hop-weighted per-level costs).  Reduced values are
        bitwise identical either way.
    """

    def __init__(
        self,
        nranks: int,
        faults: "FaultInjector | None" = None,
        tracer: "NullTracer | None" = None,
        allreduce_algorithm: str = "flat",
    ) -> None:
        if nranks < 1:
            raise SimMPIError(f"nranks must be >= 1, got {nranks}")
        if allreduce_algorithm not in ("flat", "hierarchical"):
            raise SimMPIError(
                f"unknown allreduce algorithm {allreduce_algorithm!r} "
                "(expected 'flat' or 'hierarchical')"
            )
        self.nranks = nranks
        self.cost = NetworkCostModel(TaihuLightTopology(nodes=-(-nranks // 4)))
        self.faults = faults
        #: Simulated seconds a receiver waits before assuming its message lost.
        self.timeout = self.cost.suggested_timeout()
        self.allreduce_algorithm = allreduce_algorithm
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Every rank's simulated time [s].
        self._clocks = [0.0] * nranks
        #: (src, dst) -> (alpha, beta), resolved on a pair's first message.
        self._paths: dict[tuple[int, int], tuple[float, float]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.retransmissions = 0
        self.hierarchical_allreduces = 0
        self.comm_seconds = [0.0] * nranks  # time visibly spent waiting

    # -- clocks ------------------------------------------------------------

    def now(self, rank: int) -> float:
        """Current simulated time at ``rank``."""
        self._check_rank(rank)
        return self._clocks[rank]

    def compute(self, rank: int, seconds: float) -> None:
        """Charge ``seconds`` of computation to ``rank``'s clock.

        A laggard rank (fault injector ``laggards``) pays a multiple of
        the nominal time — the whole-job effect is visible in
        :meth:`max_time` because every peer ends up waiting for it.
        """
        self._check_rank(rank)
        seconds = _check_seconds("seconds", rank, seconds)
        if self.faults is not None:
            seconds *= self.faults.compute_factor(rank)
        self._clocks[rank] += seconds

    def max_time(self) -> float:
        """Simulated completion time of the whole job (slowest rank)."""
        return max(self._clocks)

    # -- messages ------------------------------------------------------------

    def _transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """``cost.p2p_time``; ranks checked and path resolved once per pair."""
        alpha, beta = self._paths.get((src, dst)) or self._path(src, dst)
        return alpha + nbytes / beta

    def _path(self, src: int, dst: int) -> tuple[float, float]:
        """Resolve and keep a pair's ``(alpha, beta)``, ranks checked."""
        self._check_rank(src)
        self._check_rank(dst)
        path = self._paths[src, dst] = self.cost.path(src, dst)
        return path

    def _recover(self, src: int, dst: int, tag: int, nbytes: int) -> float:
        """Retransmit a dropped message until it arrives or the retry
        budget runs out; returns its new arrival stamp.

        The receiver first waits out ``timeout`` simulated seconds (the
        window in which the original would have arrived); each failed
        retransmission widens the window by :data:`BACKOFF`.  A successful
        retransmission re-stamps the message's arrival: re-post time plus
        the transfer time.
        """
        t0 = t = self._clocks[dst]
        transfer = self._transfer_time(src, dst, nbytes)
        window = self.timeout
        for attempt in range(1, MAX_RETRIES + 1):
            t += window  # receiver rides out the timeout window
            window *= BACKOFF
            self.retransmissions += 1
            delivered = True
            if self.faults is not None:
                delivered = self.faults.on_retransmit(src, dst, tag, attempt)
            if self.tracer.enabled:
                self.tracer.instant(
                    rank_track(dst), "mpi.retransmit", t, cat="fault",
                    src=src, tag=tag, attempt=attempt, delivered=delivered,
                )
            if delivered:
                return t + transfer
        self.comm_seconds[dst] += max(0.0, t - t0)
        self._clocks[dst] = max(t0, t)
        raise SimMPITimeoutError(
            f"rank {dst} gave up on message from {src} tag {tag} "
            f"after {MAX_RETRIES} retransmissions"
        )

    # -- collectives ---------------------------------------------------------------

    def neighbor_exchange(
        self,
        messages: list[list[tuple[int, int, int]]],
        row_bytes: int,
        before: list[float],
        between: list[float] | None = None,
        *,
        copies: int,
        bandwidth: float,
        tag: int = 0,
    ) -> float:
        """Charge one halo exchange over every rank, in the spirit of
        ``MPI_Neighbor_alltoallv``; returns the memcpy seconds charged.

        ``messages[r]`` lists rank r's ``(peer, rows sent, rows
        received)``, a row ``row_bytes`` long.  Three phases, ranks in
        order, each rank's time a plain float:

        1. charge ``before[r]`` (span ``compute.boundary``, or
           ``compute`` with no overlap window), then per peer pack —
           ``copies * nbytes / bandwidth`` — and send;
        2. unless ``between`` is None, charge ``between[r]`` while the
           messages fly (span ``overlap``);
        3. per peer receive — the message ``peer`` posted to r in phase
           1, recovered first if lost — and unpack it.

        A rank lists each peer at most once; ``tag`` only labels spans
        and fault draws.  Clocks, counters, fault draws and spans are
        those of the per-message program (``tests/simmpi_oracle.py``).
        Laggard factors scale every charge; the returned sum (packs,
        then unpacks) is nominal.  Costs are checked before any clock
        moves.  A receive from a peer that posted nothing to r raises
        :class:`SimMPIError`, and a message of another size than its
        rows :class:`~repro.errors.HaloSizeError`; the messages live only
        inside the call, so an exchange aborted there or by
        :class:`SimMPITimeoutError` leaves nothing behind.
        """
        n = self.nranks
        if len(messages) != n:
            raise SimMPIError(
                f"need one message list per rank ({n}), got {len(messages)}")

        def seconds(name: str, costs: list[float]) -> list[float]:
            if len(costs) != n:
                raise SimMPIError(f"{name} has {len(costs)} entries, need {n}")
            return [_check_seconds(name, r, c) for r, c in enumerate(costs)]

        before = seconds("before", before)
        if between is not None:
            between = seconds("between", between)
        paths, clocks = self._paths, self._clocks
        # (src, dst) -> (nbytes, arrival, lost): the messages in flight.
        inbox: dict[tuple[int, int], tuple[int, float, bool]] = {}
        faults, tracer = self.faults, self.tracer
        trace = tracer.enabled
        factor = [1.0 if faults is None else faults.compute_factor(r)
                  for r in range(n)]
        first = "compute" if between is None else "compute.boundary"
        memcpy = 0.0

        # Phase 1: compute, then pack and send per peer.
        for r, f in enumerate(factor):
            track, peers = rank_track(r), messages[r]
            t0 = t = clocks[r]
            sent = 0
            t += before[r] * f
            if trace:
                tracer.span_at(track, first, t0, t, cat="exchange", tag=tag)
            for p, rows, _ in peers:
                nbytes = rows * row_bytes
                t_pack = copies * nbytes / bandwidth
                t1 = t
                t += t_pack * f
                memcpy += t_pack
                alpha, beta = paths.get((r, p)) or self._path(r, p)
                arrival = t + (alpha + nbytes / beta)
                fate = "deliver"
                if faults is not None:
                    fate, extra = faults.on_send(r, p, tag, nbytes)
                    if fate == "drop":
                        self.messages_dropped += 1
                    elif fate == "delay":
                        arrival += extra
                        self.messages_delayed += 1
                inbox[r, p] = (nbytes, arrival, fate == "drop")
                sent += nbytes
                if trace:
                    tracer.span_at(track, "pack", t1, t, cat="exchange", peer=p,
                                   tag=tag, nbytes=nbytes, copies=copies)
                    tracer.span_at(track, "send", t, t, cat="exchange", peer=p,
                                   tag=tag, nbytes=nbytes)
                    tracer.instant(track, "mpi.isend", t, cat="mpi", dst=p,
                                   tag=tag, nbytes=nbytes, fate=fate)
            self.messages_sent += len(peers)
            self.bytes_sent += sent
            clocks[r] = max(t0, t)

        # Phase 2: the overlap window.
        if between is not None:
            for r, f in enumerate(factor):
                t0 = clocks[r]
                t = t0 + between[r] * f
                clocks[r] = max(t0, t)
                if trace:
                    tracer.span_at(rank_track(r), "overlap", t0, t,
                                   cat="exchange", tag=tag)

        # Phase 3: receive and unpack per peer.
        comm = self.comm_seconds
        for r, f in enumerate(factor):
            track = rank_track(r)
            t = clocks[r]
            try:
                for p, _, rows in messages[r]:
                    msg = inbox.pop((p, r), None)
                    if msg is None:
                        raise SimMPIError(
                            f"rank {r} waits on message from {p} tag {tag}, "
                            "but no matching send was posted")
                    nbytes, arrival, lost = msg
                    if lost:
                        clocks[r] = max(clocks[r], t)
                        arrival = self._recover(p, r, tag, nbytes)
                    t_wait = t
                    if arrival > t:
                        waited = arrival - t
                        comm[r] += waited
                        t = arrival
                    else:
                        waited = 0.0
                    if trace:
                        tracer.span_at(track, "mpi.wait", t_wait, t, cat="mpi",
                                       src=p, tag=tag, nbytes=nbytes,
                                       waited=waited)
                    if nbytes != rows * row_bytes:
                        raise HaloSizeError(
                            f"rank {r}: halo message from rank {p} has "
                            f"{nbytes} bytes, expected {rows * row_bytes}")
                    t_unpack = copies * nbytes / bandwidth
                    t2 = t
                    t += t_unpack * f
                    memcpy += t_unpack
                    if trace:
                        tracer.span_at(track, "unpack", t2, t, cat="exchange",
                                       peer=p, tag=tag, nbytes=nbytes,
                                       copies=copies)
            finally:
                clocks[r] = max(clocks[r], t)
        return memcpy

    def allreduce(self, contributions: list[np.ndarray]) -> np.ndarray:
        """Sum-allreduce over all ranks.

        ``contributions[r]`` is rank r's array.  The reduced *values* are
        identical under every algorithm — always ``np.sum`` over the
        contributions in rank order, so trajectories stay bitwise
        reproducible — only the *clock charging* differs, by
        ``allreduce_algorithm``:

        - ``"flat"`` (default): every clock advances to the slowest
          participant plus the recursive-doubling estimate from
          :meth:`NetworkCostModel.allreduce_time`.
        - ``"hierarchical"``: a topology-aware combine tree — node-local
          reduce at memory speed, supernode reduce over the network
          board, central-switch reduce across supernodes, then the
          mirror-image broadcast — with each level's hop class charged
          via :meth:`NetworkCostModel.p2p_time_by_hops`.  Ranks finish
          at times that depend on their group sizes, so partial nodes
          and supernodes are visible in the per-rank clocks.
        """
        if len(contributions) != self.nranks:
            raise SimMPIError(
                f"allreduce needs one contribution per rank "
                f"({self.nranks}), got {len(contributions)}"
            )
        arrays = [np.asarray(c, dtype=np.float64) for c in contributions]
        shape = arrays[0].shape
        for a in arrays[1:]:
            if a.shape != shape:
                raise SimMPIError("allreduce contributions must share a shape")
        total = np.sum(arrays, axis=0)
        clocks = self._clocks
        if self.allreduce_algorithm == "hierarchical" and self.nranks > 1:
            self._charge_hierarchical_allreduce(total.nbytes)
        else:
            t = max(clocks) + self.cost.allreduce_time(self.nranks, total.nbytes)
            for r, c in enumerate(clocks):
                if self.tracer.enabled:
                    self.tracer.span_at(
                        rank_track(r), "mpi.allreduce", c, t, cat="mpi",
                        nbytes=total.nbytes, algorithm="flat",
                    )
                self.comm_seconds[r] += max(0.0, t - c)
                clocks[r] = max(c, t)
        return total

    def _charge_hierarchical_allreduce(self, nbytes: int) -> None:
        """Advance the clocks along the three-level combine tree.

        Reduce phase: each node's ranks log-tree into a node leader over
        hop class 0; node leaders log-tree into a supernode leader over
        hop class 1; supernode leaders log-tree through the central
        switch over hop class 2.  The broadcast back retraces the same
        tree, so a rank's completion time is the root time plus the
        down-tree latency of *its own* (possibly partial) groups.
        """
        topo = self.cost.topology
        node_ranks, sn_nodes = topo.reduction_groups(self.nranks)
        c_hop = [self.cost.p2p_time_by_hops(h, nbytes) for h in (0, 1, 2)]

        def tree(n: int, per_round: float) -> float:
            return math.ceil(math.log2(n)) * per_round if n > 1 else 0.0

        t_node = {
            node: max(self._clocks[r] for r in ranks) + tree(len(ranks), c_hop[0])
            for node, ranks in node_ranks.items()
        }
        t_sn = {
            sn: max(t_node[n] for n in nodes) + tree(len(nodes), c_hop[1])
            for sn, nodes in sn_nodes.items()
        }
        t_root = max(t_sn.values()) + tree(len(t_sn), c_hop[2])
        down_sn = tree(len(t_sn), c_hop[2])
        self.hierarchical_allreduces += 1
        for r in range(self.nranks):
            node = topo.node_of_rank(r)
            sn = topo.supernode_of_node(node)
            t_done = (
                t_root
                + down_sn
                + tree(len(sn_nodes[sn]), c_hop[1])
                + tree(len(node_ranks[node]), c_hop[0])
            )
            c = self._clocks[r]
            if self.tracer.enabled:
                self.tracer.span_at(
                    rank_track(r), "mpi.allreduce", c, t_done, cat="mpi",
                    nbytes=nbytes, algorithm="hierarchical",
                    node=node, supernode=sn,
                )
            self.comm_seconds[r] += max(0.0, t_done - c)
            self._clocks[r] = max(c, t_done)

    # -- internals ---------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise SimMPIError(f"rank {rank} outside 0..{self.nranks - 1}")
