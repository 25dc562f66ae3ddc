"""Test oracle: ``HaloExchanger.exchange`` as a per-call algorithm.

Every mesh-constant table is re-derived on each call (``np.unique`` per
rank, ``np.isin`` per peer): a message from rank *a* to rank *b* carries
``f * dss_weight`` of each of *a*'s points whose gid *b* touches, in
*a*'s point order, and every rank sums its own and its received rows per
gid with ``np.add.at`` over rows sorted by global point row — slow,
obviously right, and the fixed summation order the plan must reproduce
bit for bit.  Clock charges, SimMPI calls and tracer spans are issued in
the order the production code must keep.
"""

import numpy as np

from repro.homme.bndry import MEMCPY_BANDWIDTH
from repro.network.simmpi import rank_track


def oracle_exchange(mesh, part, local_fields, mpi, mode="overlap",
                    boundary_compute=None, inner_compute=None, tag=0):
    """Returns ``(outs, memcpy_seconds)`` for one DSS exchange."""
    nranks, tracer, copies = part.nranks, mpi.tracer, 2 if mode == "classic" else 1
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
        f = np.asarray(local_fields[r], dtype=np.float64)
        w = mesh.dss_weight[elems[r]].reshape(-1)
        vals.append(f.reshape(len(w), -1) * w[:, None])
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
            mpi.isend(r, p, payload, tag=tag)
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
            data = mpi.wait(mpi.irecv(r, p, tag=tag))
            sent = np.isin(gids[p], uniq[r])
            gid.append(gids[p][sent])
            row.append(rows[p][sent])
            val.append(data)
            t_unpack = copies * data.nbytes / MEMCPY_BANDWIDTH
            t2 = mpi.now(r)
            mpi.compute(r, t_unpack)
            memcpy += t_unpack
            tracer.span_at(rank_track(r), "unpack", t2, mpi.now(r), cat="exchange",
                           peer=p, tag=tag, nbytes=data.nbytes, copies=copies)
        order = np.argsort(np.concatenate(row))
        acc = np.zeros((len(uniq[r]),) + vals[r].shape[1:])
        np.add.at(acc, np.searchsorted(uniq[r], np.concatenate(gid)[order]),
                  np.concatenate(val)[order])
        outs.append(acc[np.searchsorted(uniq[r], gids[r])]
                    .reshape(np.shape(local_fields[r])))
    return outs, memcpy
