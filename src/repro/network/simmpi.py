"""SimMPI: a single-process, simulated-time MPI for the reproduction.

Every rank's simulated time is one float.  SimMPI is a clock, not a
transport: a message carries only its size (the halo exchanger moves the
data), stamped with an *arrival time* — the sender's clock plus the
:class:`NetworkCostModel` transfer time.  A receiver that
waits on a message advances its clock to ``max(receiver_now, arrival)``
— which is exactly what permits computation/communication overlap:
compute charged between ``isend`` and ``wait`` hides transfer time,
reproducing the redesigned ``bndry_exchangev`` behaviour (paper Section
7.6).

Because all ranks execute inside one Python process, drivers iterate
ranks in phases (all sends posted, then receives completed) — the natural
structure of a halo exchange, which :meth:`SimMPI.neighbor_exchange`
charges in one call.  ``wait`` on a receive whose matching send has not
been posted raises :class:`SimMPIError`.  Messages on one
``(src, dst, tag)`` are received in posting order, as MPI guarantees.
After :meth:`SimMPI.finalize` the communicator is closed: posting,
receiving, computing and the collectives raise :class:`SimMPIError`.

**Fault model.**  A :class:`~repro.resilience.faults.FaultInjector` can
drop or delay messages and slow individual ranks down.  A dropped
message keeps its place in its queue, marked lost: the receiver that
waits on it rides out a (simulated-time) timeout window, the sender
re-posts it with a fresh arrival stamp, and the window doubles on every
retry (:data:`BACKOFF`) — a retransmit-with-exponential-backoff
protocol.  Only after :data:`MAX_RETRIES` failed retransmissions does
``wait`` surface :class:`SimMPITimeoutError`.  Faults cost time, never
bytes; all of it is deterministic under the injector's seed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
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


@dataclass
class SimRequest:
    """Handle for a non-blocking operation."""

    kind: str                    # "send" | "recv"
    rank: int                    # owning rank
    peer: int
    tag: int
    completion_time: float | None = None
    nbytes: int | None = None
    done: bool = False
    comm: "SimMPI | None" = None  # owning communicator


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
        #: One queue per (src, dst, tag) of ``(nbytes, arrival, lost)``
        #: messages in posting order, lost ones included.
        self._mailbox: dict[tuple[int, int, int], deque[tuple[int, float, bool]]] = {}
        #: (src, dst) -> (alpha, beta), resolved on a pair's first message.
        self._paths: dict[tuple[int, int], tuple[float, float]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.retransmissions = 0
        self.hierarchical_allreduces = 0
        self.comm_seconds = [0.0] * nranks  # time visibly spent waiting
        self._finalized = False

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
        self._check_open()
        self._check_rank(rank)
        seconds = _check_seconds("seconds", rank, seconds)
        if self.faults is not None:
            seconds *= self.faults.compute_factor(rank)
        self._clocks[rank] += seconds

    def max_time(self) -> float:
        """Simulated completion time of the whole job (slowest rank)."""
        return max(self._clocks)

    # -- point to point -------------------------------------------------------

    def isend(self, src: int, dst: int, nbytes: int, tag: int = 0) -> SimRequest:
        """Post a non-blocking send of ``nbytes``.

        The send itself is near-free on the sender (the MPE drives the
        NIC); transfer time is charged to the message's arrival stamp.
        A message the fault injector drops keeps its place in the queue,
        so a later one on the same ``(src, dst, tag)`` cannot overtake it.
        """
        self._check_open()
        transfer = self._transfer_time(src, dst, nbytes)
        t_send = self._clocks[src]
        arrival = t_send + transfer
        fate, extra = ("deliver", 0.0)
        if self.faults is not None:
            fate, extra = self.faults.on_send(src, dst, tag, nbytes)
        if fate == "drop":
            self.messages_dropped += 1
        elif fate == "delay":
            arrival += extra
            self.messages_delayed += 1
        self._mailbox.setdefault((src, dst, tag), deque()).append(
            (nbytes, arrival, fate == "drop"))
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.tracer.enabled:
            self.tracer.instant(
                rank_track(src), "mpi.isend", t_send, cat="mpi",
                dst=dst, tag=tag, nbytes=nbytes, fate=fate,
            )
        return SimRequest("send", src, dst, tag, completion_time=t_send,
                          nbytes=nbytes, done=True, comm=self)

    def irecv(self, dst: int, src: int, tag: int = 0) -> SimRequest:
        """Post a non-blocking receive (completion resolved at wait)."""
        self._check_open()
        self._check_rank(src)
        self._check_rank(dst)
        return SimRequest("recv", dst, src, tag, comm=self)

    def wait(self, req: SimRequest) -> int | None:
        """Complete a request, advancing the owner's clock as needed.

        A completed receive returns the size of the message it took: the
        oldest one posted on its ``(src, dst, tag)``, recovered first if
        it was lost.  Waiting any *completed* request again is an
        idempotent no-op (matching MPI_Wait on an inactive request, and
        what :meth:`waitall`'s contract already promised): a completed
        send returns ``None``, a completed receive the size it already
        returned — without touching the mailbox, the owner's clock, or
        ``comm_seconds`` again.  Waiting a request owned by a different
        communicator is always a protocol error.
        """
        self._check_open()
        if req.comm is not None and req.comm is not self:
            raise SimMPIError(
                "wait called on a request owned by another communicator"
            )
        if req.kind == "send":
            # Sends complete at post time; repeated waits are no-ops.
            return None
        if req.done:
            return req.nbytes
        key = (req.peer, req.rank, req.tag)
        q = self._mailbox.get(key)
        if not q:
            raise SimMPIError(
                f"rank {req.rank} waits on message from {req.peer} tag {req.tag}, "
                "but no matching send was posted"
            )
        nbytes, arrival, lost = q.popleft()
        if not q:
            # The halo layer uses a fresh tag per exchange: a drained
            # queue left under its key would never be reused or freed.
            del self._mailbox[key]
        if lost:
            arrival = self._recover(*key, nbytes)
        t_wait = self._clocks[req.rank]
        waited = max(0.0, arrival - t_wait)
        self.comm_seconds[req.rank] += waited
        t = self._clocks[req.rank] = max(t_wait, arrival)
        req.done = True
        req.completion_time = t
        req.nbytes = nbytes
        if self.tracer.enabled:
            self.tracer.span_at(
                rank_track(req.rank), "mpi.wait", t_wait, t, cat="mpi",
                src=req.peer, tag=req.tag, nbytes=nbytes, waited=waited,
            )
        return nbytes

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

    def waitall(self, reqs: list[SimRequest]) -> list[int | None]:
        """Complete a list of requests in order.

        Requests appearing more than once complete exactly once: the
        duplicates are idempotent no-ops (receives re-return the size
        already received; sends return ``None``) and never consume
        another request's message or charge ``comm_seconds`` twice.
        """
        return [self.wait(r) for r in reqs]

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
        3. per peer receive — the oldest message queued on ``(peer, r,
           tag)``, recovered first if lost — and unpack it.

        Clocks, counters, fault draws and spans are those of the same
        program written with :meth:`compute`, :meth:`isend`,
        :meth:`irecv` and :meth:`wait`, which stay the reference
        (``tests/test_properties.py``).  Laggard factors scale every
        charge; the returned sum (packs, then unpacks) is nominal.
        Costs are checked before any clock moves.  A received
        message of another size than its rows raises
        :class:`~repro.errors.HaloSizeError`; an exchange aborted there
        or by :class:`SimMPITimeoutError` leaves what it has not
        received pending.
        """
        self._check_open()
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
        paths, mailbox, clocks = self._paths, self._mailbox, self._clocks
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
                key = (r, p, tag)
                q = mailbox.get(key)
                if q is None:
                    q = mailbox[key] = deque()
                q.append((nbytes, arrival, fate == "drop"))
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
                    key = (p, r, tag)
                    q = mailbox.get(key)
                    if not q:
                        raise SimMPIError(
                            f"rank {r} waits on message from {p} tag {tag}, "
                            "but no matching send was posted")
                    nbytes, arrival, lost = q.popleft()
                    if not q:
                        del mailbox[key]
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
        self._check_open()
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

    # -- lifecycle ---------------------------------------------------------------

    def finalize(self) -> None:
        """Close the communicator, verifying the mailbox drained.

        From here on posting, receiving, computing and the collectives
        raise :class:`SimMPIError`.  A message posted but never received
        — typically a mismatched tag — would otherwise sit in the mailbox
        forever and corrupt a later exchange that reuses the tag.  Raises
        :class:`SimMPIError` naming the leaked (src, dst, tag) triples.
        """
        self._finalized = True
        leaked = {key: len(q) for key, q in self._mailbox.items() if q}
        if leaked:
            desc = ", ".join(
                f"src={k[0]} dst={k[1]} tag={k[2]} x{n}" for k, n in sorted(leaked.items())
            )
            raise SimMPIError(
                f"finalize with {sum(leaked.values())} undelivered message(s): {desc}"
            )

    # -- internals ---------------------------------------------------------------

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self.nranks):
            raise SimMPIError(f"rank {rank} outside 0..{self.nranks - 1}")

    def _check_open(self) -> None:
        if self._finalized:
            raise SimMPIError("communicator used after finalize()")

    def pending_messages(self) -> int:
        """Messages posted but not yet received (should be 0 after a step)."""
        return sum(len(q) for q in self._mailbox.values())

    def purge_pending(self) -> int:
        """Discard every undelivered message; returns how many.

        For rollback/restart paths: after a mid-step abort (e.g. a
        :class:`SimMPITimeoutError` surfaced to a resilience runner) the
        mailbox may still hold messages from the aborted exchange.
        Restoring a checkpoint must drop them, or a replayed exchange
        could match a stale retransmit against a reused tag.
        """
        n = self.pending_messages()
        self._mailbox.clear()
        return n
