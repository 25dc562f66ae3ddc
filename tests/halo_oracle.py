"""Test oracles for the distributed DSS.

``oracle_exchange`` is the exchange as a per-call algorithm: the data
the layouts' shard tasks sum and the clocks ``HaloExchanger.exchange``
charges.  Every mesh-constant table is re-derived on each call
(``np.unique`` per rank, ``np.isin`` per peer): a message from rank *a*
to rank *b* carries ``f * dss_weight`` of each of *a*'s points whose gid
*b* touches, in *a*'s point order, and every rank sums its own and its
received rows per gid with ``np.add.at`` over rows sorted by global
point row — slow, obviously right, and the fixed summation order the
plan must reproduce bit for bit.  A rank's bundle of fields travels as
its columns side by side.  SimMPI carries only sizes; the data a receiver sums is read from
the sender's rows here, through the per-message program of
``tests/simmpi_oracle.py``.  Clock charges, messages and tracer spans
are issued in the order the production code must keep.

``whole_plan_assemble`` sums the exchange plan as one piece: the
reference for the per-shard ``ShardPlan`` sums.
"""

import numpy as np

from repro.homme.bndry import MEMCPY_BANDWIDTH
from repro.network.simmpi import rank_track

from .simmpi_oracle import PerMessage


def oracle_exchange(mesh, part, local_fields, mpi, mode="overlap",
                    boundary_compute=None, inner_compute=None, tag=0):
    """Returns ``(outs, memcpy_seconds)`` for one DSS exchange of per-rank
    tuples of fields; ``outs`` holds per-rank tuples of the same shapes."""
    nranks, tracer, copies = part.nranks, mpi.tracer, 2 if mode == "classic" else 1
    post = PerMessage(mpi)
    bc = [0.0] * nranks if boundary_compute is None else boundary_compute
    ic = [0.0] * nranks if inner_compute is None else inner_compute
    elems = [part.rank_elements(r) for r in range(nranks)]
    gids = [mesh.gid[e].reshape(-1) for e in elems]
    nn = mesh.np ** 2
    rows = [(e[:, None] * nn + np.arange(nn)).reshape(-1) for e in elems]
    uniq = [np.unique(g) for g in gids]
    peers = [[p for p in range(nranks)
              if p != r and len(np.intersect1d(uniq[r], uniq[p]))]
             for r in range(nranks)]
    memcpy, vals = 0.0, []
    for r in range(nranks):
        t0 = mpi.now(r)
        mpi.compute(r, bc[r] + ic[r] if mode == "classic" else bc[r])
        tracer.span_at(rank_track(r), "compute" if mode == "classic"
                       else "compute.boundary", t0, mpi.now(r), cat="exchange", tag=tag)
        w = mesh.dss_weight[elems[r]].reshape(-1)
        columns = [np.reshape(f, (len(w), -1)) for f in local_fields[r]]
        vals.append(np.concatenate(columns + [np.empty((len(w), 0))], axis=1)
                    * w[:, None])
        for p in peers[r]:
            payload = vals[r][np.isin(gids[r], uniq[p])]
            t_pack = copies * payload.nbytes / MEMCPY_BANDWIDTH
            t1 = mpi.now(r)
            mpi.compute(r, t_pack)
            memcpy += t_pack
            tracer.span_at(rank_track(r), "pack", t1, mpi.now(r), cat="exchange",
                           peer=p, tag=tag, nbytes=payload.nbytes, copies=copies)
            tracer.span_at(rank_track(r), "send", mpi.now(r), mpi.now(r),
                           cat="exchange", peer=p, tag=tag, nbytes=payload.nbytes)
            post.isend(r, p, payload.nbytes, tag=tag)
    if mode == "overlap":
        for r in range(nranks):
            t0 = mpi.now(r)
            mpi.compute(r, ic[r])
            tracer.span_at(rank_track(r), "overlap", t0, mpi.now(r),
                           cat="exchange", tag=tag)
    outs = []
    for r in range(nranks):
        gid, row, val = [gids[r]], [rows[r]], [vals[r]]
        for p in peers[r]:
            nbytes = post.wait(r, p, tag=tag)
            sent = np.isin(gids[p], uniq[r])
            gid.append(gids[p][sent])
            row.append(rows[p][sent])
            val.append(vals[p][sent])
            assert nbytes == val[-1].nbytes
            t_unpack = copies * nbytes / MEMCPY_BANDWIDTH
            t2 = mpi.now(r)
            mpi.compute(r, t_unpack)
            memcpy += t_unpack
            tracer.span_at(rank_track(r), "unpack", t2, mpi.now(r), cat="exchange",
                           peer=p, tag=tag, nbytes=nbytes, copies=copies)
        order = np.argsort(np.concatenate(row))
        acc = np.zeros((len(uniq[r]),) + vals[r].shape[1:])
        np.add.at(acc, np.searchsorted(uniq[r], np.concatenate(gid)[order]),
                  np.concatenate(val)[order])
        out = acc[np.searchsorted(uniq[r], gids[r])]
        cols = np.cumsum([0] + [np.prod(np.shape(f)[3:], dtype=int)
                                for f in local_fields[r]])
        outs.append(tuple(out[:, c0:c1].reshape(np.shape(f)) for c0, c1, f
                          in zip(cols, cols[1:], local_fields[r])))
    return outs, memcpy


def whole_plan_assemble(hx, local_fields):
    """The exchange plan's data path summed as one piece: every point's
    weighted contribution in one flat buffer, every received row gathered
    behind them, one accumulate over the plan's whole ``Assembly`` and one
    take per field — the reference the per-shard ``ShardPlan`` sums (each
    shard's ``dycore.pack_task``, then its ``sum_task``) are held to.
    Per-shard tuples of fields in, per-shard tuples of C-contiguous sums
    out."""
    first = local_fields[0]
    cols = [0, *np.cumsum([np.prod(f.shape[3:], dtype=int) for f in first])]
    npoints = hx.mesh.nelem * hx.mesh.np ** 2
    ends = (np.cumsum([len(fields[0]) for fields in local_fields])
            * hx.mesh.np ** 2).tolist()
    points = list(zip([0, *ends], ends))
    buf = np.empty((len(hx._assembly.slot_of), cols[-1]))
    for (lo, hi), fields in zip(points, local_fields):
        for c0, c1, f in zip(cols, cols[1:], fields):
            np.copyto(buf[lo:hi, c0:c1].reshape(f.shape), f)
    buf[:npoints] *= hx._weights
    buf.take(hx._recv_rows, axis=0, out=buf[npoints:])
    acc = hx._assembly.accumulate(buf)
    outs = [acc[:, c0:c1].take(hx._point_slot, axis=0)
            for c0, c1 in zip(cols, cols[1:])]
    return [tuple(o[lo:hi].reshape(f.shape) for o, f in zip(outs, fields))
            for (lo, hi), fields in zip(points, local_fields)]
