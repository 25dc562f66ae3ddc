"""``bndry_exchangev``: the halo exchange behind the distributed DSS.

The paper redesigns this subroutine twice over (Section 7.6):

1. **Computation/communication overlap** — elements are split into a
   *boundary* part (touching another rank) and an *inner* part; the
   boundary part is computed first, its edge data sent asynchronously,
   and the inner part computed while messages fly.  This cut HOMME's
   runtime by up to 23% at scale.
2. **Direct unpack** — the original HOMME funnels both MPI messages and
   intra-node copies through a unified pack/unpack buffer, costing a
   redundant memcpy per exchange; the redesign fetches received data
   straight into the destination elements (another ~30% off the
   dynamical core's memory-copy time).

:class:`HaloExchanger` is the exchange plan and its clock, with both the
``classic`` and ``overlap`` disciplines.  As HOMME's ``edgeVpack`` packs
every field of a synchronisation point into one buffer per neighbour, a
rank sends one message per neighbour carrying the whole bundle; a run of
consecutive ranks may be one shard (a *rank group*), which changes no
message and no bit.  Data moves through one flat buffer in two per-shard
steps (:class:`ShardPlan`): every shard packs its weighted contributions,
then every shard sums its own slots — the layouts run the two steps as
per-shard tasks (:func:`repro.parallel.dycore.pack_task` / ``sum_task``).
:meth:`HaloExchanger.exchange` charges memcpy, compute and transfer time
of the whole exchange to each rank's simulated clock in one
:meth:`SimMPI.neighbor_exchange <repro.network.simmpi.SimMPI.neighbor_exchange>`
call, carrying sizes only.  The result is the serial
:meth:`CubedSphereMesh.dss` bit for bit for every partition.  Without a
partition the plan is the whole mesh as one rank in mesh order: the
one-shard layout's plan, each element block a shard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import constants as C
from ..errors import KernelError
from ..mesh.assembly import Assembly, accumulate
from ..mesh.cubed_sphere import CubedSphereMesh
from ..mesh.partition import SFCPartition
from ..network.simmpi import SimMPI

#: Memory-copy bandwidth for pack/unpack staging [bytes/s] (one CG's share).
MEMCPY_BANDWIDTH = C.SW_MEMORY_BANDWIDTH / C.SW_CORE_GROUPS

#: Tag-space strides for :func:`exchange_tag`.
TAG_SLOTS = 4096
TAG_STAGES = 16


def exchange_tag(step: int, stage: int, slot: int = 0) -> int:
    """The label of one (step, stage, field-slot) exchange.

    A tag names an exchange in trace spans and the fault log; it
    matches nothing, since a message lives only inside the call that
    charges its exchange, so a replayed step reuses the tags of the
    attempt it replays.
    """
    if not 0 <= stage < TAG_STAGES:
        raise KernelError(f"exchange stage {stage} outside 0..{TAG_STAGES - 1}")
    if not 0 <= slot < TAG_SLOTS:
        raise KernelError(f"exchange slot {slot} outside 0..{TAG_SLOTS - 1}")
    return (step * TAG_STAGES + stage) * TAG_SLOTS + slot


@dataclass(frozen=True)
class ShardPlan:
    """One shard's share of an exchange plan: the DSS of a run of plan
    elements as two steps that only touch the shard's own rows.

    The flat buffer holds one row per point of the plan, ``npoints`` in
    all, in plan order; the shard's points are rows ``p0:p1``.
    :meth:`pack` writes the shard's weighted contributions there;
    :meth:`sum` — once every shard has packed — sums each slot any of
    the shard's points belongs to, gathering its rows straight from the
    buffer (a received row *is* its sender's row there), and takes the
    sums to the shard's points.  A slot keeps its rows and their order
    (``layers``: layer *j* holds the row of every slot's *j*-th
    contribution, slots in descending row count, a prefix per layer), so
    the sums are the whole plan's bit for bit, whoever computes them —
    a slot two shards touch is summed by both, identically.
    """

    npoints: int
    p0: int
    p1: int
    #: (p1 - p0, 1) DSS weight of each of the shard's points.
    weights: np.ndarray
    #: Per layer, the buffer row of each of the shard's slots' next row.
    layers: list[np.ndarray]
    #: The shard's slot of each of its points.
    point_slot: np.ndarray

    def rows(self, buf: np.ndarray, cols: int) -> np.ndarray:
        """The (npoints, cols) buffer a flat ``buf`` starts with."""
        return buf[:self.npoints * cols].reshape(self.npoints, cols)

    def pack(self, fields, buf: np.ndarray) -> np.ndarray:
        """Write each (E_s, np, np, K...) field's weighted contribution
        into its column block of the shard's rows of the 2-D ``buf``;
        return those rows."""
        rows = buf[self.p0:self.p1]
        c0 = 0
        for f in fields:
            c1 = c0 + math.prod(f.shape[3:])
            # Splitting axes only, so the reshape is a view of buf.
            np.copyto(rows[:, c0:c1].reshape(f.shape), f)
            c0 = c1
        rows *= self.weights
        return rows

    def sum(self, buf: np.ndarray, shapes) -> list[np.ndarray]:
        """The DSS'd fields of the given (E_s, np, np, K...) shapes, in
        the column order :meth:`pack` wrote them, from the packed 2-D
        ``buf``; one C-contiguous array each."""
        acc = accumulate(buf, self.layers)
        outs, c0 = [], 0
        for shape in shapes:
            c1 = c0 + math.prod(shape[3:])
            outs.append(acc[:, c0:c1].take(self.point_slot, axis=0).reshape(shape))
            c0 = c1
        return outs


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a non-empty 1-D array: plain ``np.unique``
    without the ``numpy.ma`` import it costs a model's set-up."""
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]]


class HaloExchanger:
    """Distributed DSS over an SFC partition.

    The constructor builds one flat *exchange plan* over all ranks: every
    rank's GLL points concatenated in rank order, then every row a rank
    receives; one :class:`Assembly` with a slot per touching (rank, gid)
    pair over both; and the gather that fills the received rows.  An
    exchange is one SimMPI call that posts sizes, charges clocks and
    traces over the per-rank ``(peer, rows sent, rows received)`` lists
    (:meth:`exchange`); its data path is each shard's pack and sum
    (:meth:`shard_plan`), run by the layout.

    A message carries, for every point of the sender whose gid the
    receiver touches, that point's own contribution ``f * dss_weight``,
    and a slot sums its rows — local and received alike — in ascending
    global point row (``elem * np**2 + ij``) from ``+0.0``.  That is the
    order and the weighting of :meth:`CubedSphereMesh.dss`, so the result
    is the serial DSS bit for bit at any rank count, whoever does the
    adding.  ``part=None`` plans the whole mesh as one rank in mesh order:
    no row is received, so the plan's slots are the mesh's own.
    """

    def __init__(self, mesh: CubedSphereMesh,
                 part: SFCPartition | None = None) -> None:
        if part is not None and part.ne != mesh.ne:
            raise KernelError("partition and mesh resolutions differ")
        self.mesh = mesh
        self.part = part
        self.nranks = nranks = 1 if part is None else part.nranks

        #: Per rank: owned element ids (curve order).
        self.rank_elems = ([np.arange(mesh.nelem)] if part is None else
                           [part.rank_elements(r) for r in range(nranks)])
        #: Every rank's elements in rank order: the plan's element order.
        self.plan_elems = elems = np.concatenate(self.rank_elems)
        nn = mesh.np ** 2
        counts = np.array([len(e) for e in self.rank_elems])
        #: Rank r's elements: entries ``elem_offsets[r]:elem_offsets[r + 1]``
        #: of :attr:`plan_elems`.
        self.elem_offsets = [0, *np.cumsum(counts).tolist()]
        #: Rank r's points: rows ``_offsets[r]:_offsets[r + 1]`` of the flat tables.
        self._offsets = [nn * e for e in self.elem_offsets]
        gid = mesh.gid[elems].reshape(-1)
        rank = np.repeat(np.arange(nranks), counts * nn)
        row = (elems[:, None] * nn + np.arange(nn)).reshape(-1)
        self._weights = mesh.dss_weight[elems].reshape(-1, 1)

        # The ranks touching each gid, grouped by gid; a point is sent to
        # every one of them but its own.
        t_gid, t_rank = np.divmod(_distinct(gid * nranks + rank), nranks)
        count = np.bincount(t_gid, minlength=mesh.ngid)
        first = np.cumsum(count) - count
        src, dst = [], []
        for j in range(int(count.max())):
            has = np.nonzero(count[gid] > j)[0]
            to = t_rank[first[gid[has]] + j]
            away = to != rank[has]
            src.append(has[away])
            dst.append(to[away])
        src, dst = np.concatenate(src), np.concatenate(dst)

        # Payload rows as sent (by sender, receiver, point) and as they
        # arrive (by receiver, sender, point).
        sent = np.lexsort((src, dst, rank[src]))
        src, dst = src[sent], dst[sent]
        arrived = np.lexsort((src, rank[src], dst))
        asrc, adst = src[arrived], dst[arrived]
        #: Flat point of every received row, in arrival order.
        self._recv_rows = asrc
        self._assembly = Assembly(
            np.concatenate([rank, adst]) * mesh.ngid
            + np.concatenate([gid, gid[asrc]]),
            order=np.concatenate([row, row[asrc]]))
        #: Assembly slot of every flat point.
        self._point_slot = self._assembly.slot_of[:len(gid)]
        self._shard_plans: dict[tuple[int, int], ShardPlan] = {}

        def blocks(major, minor):
            pairs, starts = np.unique(major * nranks + minor, return_index=True)
            return zip(pairs.tolist(), starts.tolist(),
                       [*starts[1:].tolist(), len(major)])

        #: Per rank: (peer, rows sent, rows received), peers in rank order.
        self._messages: list[list[tuple[int, int, int]]] = [
            [] for _ in range(nranks)]
        # Sharing is symmetric: both tables list the same (rank, peer) pairs.
        for (ab, lo, hi), (_, rlo, rhi) in zip(blocks(rank[src], dst),
                                               blocks(adst, rank[asrc])):
            a, b = divmod(ab, nranks)
            self._messages[a].append((b, hi - lo, rhi - rlo))

    # -- core exchange ------------------------------------------------------------

    def _per_rank_costs(self, costs, name: str) -> list[float]:
        if costs is None:
            return [0.0] * self.nranks
        if len(costs) != self.nranks:
            raise KernelError(
                f"{name} has {len(costs)} entries, need {self.nranks}")
        for r, c in enumerate(costs):
            if not (math.isfinite(c) and c >= 0):
                raise KernelError(
                    f"{name} for rank {r} is {c}, need finite seconds >= 0")
        return [float(c) for c in costs]

    def exchange(
        self,
        mpi: SimMPI,
        row_bytes: int,
        mode: str = "overlap",
        boundary_compute: list[float] | None = None,
        inner_compute: list[float] | None = None,
        tag: int = 0,
    ) -> float:
        """Charge one DSS exchange over all ranks to ``mpi``'s clocks.

        Parameters
        ----------
        mpi:
            The simulated communicator (nranks must match).
        row_bytes:
            The bytes of one row of the bundle: one float64 per column of
            every field a point carries.  A rank sends one message per
            peer carrying every field of the bundle.
        mode:
            "classic" (compute all, pack-buffer staging, no overlap) or
            "overlap" (boundary first, direct unpack, inner overlapped).
        boundary_compute / inner_compute:
            Per-rank simulated seconds of kernel work attributed to the
            boundary / inner element sets.  In classic mode their sum is
            charged before communication; in overlap mode the boundary
            part is charged before the sends and the inner part between
            send and wait — which is what hides the transfer.  A cost
            that is not finite and >= 0 raises :class:`KernelError`
            before any clock moves.

        Returns the memcpy seconds charged.  The data path is the
        caller's: every shard packs and sums on its own
        (:meth:`shard_plan`).
        """
        if mpi.nranks != self.nranks:
            raise KernelError(
                f"communicator has {mpi.nranks} ranks, partition {self.nranks}")
        if mode not in ("classic", "overlap"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        bc = self._per_rank_costs(boundary_compute, "boundary_compute")
        ic = self._per_rank_costs(inner_compute, "inner_compute")
        # The clock program: classic charges all kernel work before the
        # sends and stages through the pack buffer (2 copies each way);
        # the redesign charges the boundary part first, the inner part
        # while messages fly, and packs once and unpacks directly.
        classic = mode == "classic"
        return mpi.neighbor_exchange(
            self._messages, row_bytes,
            [b + i for b, i in zip(bc, ic)] if classic else bc,
            None if classic else ic,
            copies=2 if classic else 1, bandwidth=MEMCPY_BANDWIDTH, tag=tag)

    def shard_plan(self, lo: int, hi: int) -> ShardPlan:
        """The :class:`ShardPlan` of plan elements ``lo..hi-1`` — a rank
        group, or a block of a one-rank plan (memoized)."""
        plan = self._shard_plans.get((lo, hi))
        if plan is None:
            nn, npoints = self.mesh.np ** 2, self._offsets[-1]
            p0, p1 = lo * nn, hi * nn
            member = np.zeros(len(self._assembly.keys), dtype=bool)
            member[self._point_slot[p0:p1]] = True
            # Received rows read their sender's row of the buffer.
            flat = np.concatenate([np.arange(npoints), self._recv_rows])
            layers = [flat[pos[member[:len(pos)]]] for pos in self._assembly.layers]
            plan = self._shard_plans[(lo, hi)] = ShardPlan(
                npoints, p0, p1, self._weights[p0:p1],
                [pos for pos in layers if len(pos)],
                (np.cumsum(member) - 1)[self._point_slot[p0:p1]])
        return plan

    # -- helpers for tests/benches --------------------------------------------------

    def scatter(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global (nelem, np, np[, K]) field into per-rank locals."""
        return [field[e] for e in self.rank_elems]

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank locals into a global element array."""
        shape = (self.mesh.nelem,) + locals_[0].shape[1:]
        out = np.empty(shape, dtype=locals_[0].dtype)
        for r, e in enumerate(self.rank_elems):
            out[e] = locals_[r]
        return out
