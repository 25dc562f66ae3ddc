"""Test oracle: the per-call halo-exchange algorithm that
``HaloExchanger.exchange`` used before its flat precomputed plan.

Every mesh-constant table is re-derived on each call (``np.unique`` per
rank, ``np.searchsorted`` per peer) and contributions are summed with
``np.add.at`` — slow, obviously right, and the fixed summation order the
plan must reproduce bit for bit.  Clock charges, SimMPI calls and tracer
spans are issued in the order the production code must keep.
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
    gids = [mesh.gid[part.rank_elements(r)].reshape(-1) for r in range(nranks)]
    uniq = [np.unique(g) for g in gids]
    shared = {(r, p): np.intersect1d(uniq[r], uniq[p])
              for r in range(nranks) for p in range(nranks) if p != r}
    peers = [[p for p in range(nranks) if p != r and len(shared[r, p])]
             for r in range(nranks)]
    memcpy, accs = 0.0, []
    for r in range(nranks):
        t0 = mpi.now(r)
        mpi.compute(r, bc[r] + ic[r] if mode == "classic" else bc[r])
        tracer.span_at(rank_track(r), "compute" if mode == "classic"
                       else "compute.boundary", t0, mpi.now(r), cat="exchange", tag=tag)
        f = np.asarray(local_fields[r], dtype=np.float64)
        w = mesh.spheremp[part.rank_elements(r)].reshape(-1)
        vals = f.reshape(len(w), -1) * w[:, None]
        acc = np.zeros((len(uniq[r]),) + vals.shape[1:])
        np.add.at(acc, np.searchsorted(uniq[r], gids[r]), vals)
        accs.append(acc)
        for p in peers[r]:
            payload = acc[np.searchsorted(uniq[r], shared[r, p])]
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
        for p in peers[r]:
            data = mpi.wait(mpi.irecv(r, p, tag=tag))
            accs[r][np.searchsorted(uniq[r], shared[r, p])] += data
            t_unpack = copies * data.nbytes / MEMCPY_BANDWIDTH
            t2 = mpi.now(r)
            mpi.compute(r, t_unpack)
            memcpy += t_unpack
            tracer.span_at(rank_track(r), "unpack", t2, mpi.now(r), cat="exchange",
                           peer=p, tag=tag, nbytes=data.nbytes, copies=copies)
        vals = (accs[r][np.searchsorted(uniq[r], gids[r])]
                / mesh.assembled_spheremp[gids[r]][:, None])
        outs.append(vals.reshape(np.shape(local_fields[r])))
    return outs, memcpy
