"""Test oracle: SimMPI's per-message program.

:class:`PerMessage` posts and receives one message at a time over a
:class:`~repro.network.simmpi.SimMPI`'s clocks, paths, fault injector,
tracer, counters and ``_recover`` — the program
``SimMPI.neighbor_exchange`` charges in one call.  Its messages wait in
a mailbox, one queue per ``(src, dst, tag)`` received in posting order;
a lost message keeps its place in its queue and is recovered when it is
received.  ``tests/halo_oracle.py`` and ``tests/test_properties.py``
write the exchange with it.  :func:`one_way` is a single message sent
through the production call instead.
"""

import math
from collections import deque

from repro.errors import SimMPIError
from repro.network.simmpi import rank_track


class PerMessage:
    """``isend`` / ``wait`` over ``mpi``; receives return the size."""

    def __init__(self, mpi):
        self.mpi = mpi
        #: (src, dst, tag) -> queue of (nbytes, arrival, lost).
        self.mailbox: dict[tuple[int, int, int], deque] = {}

    def isend(self, src, dst, nbytes, tag=0):
        """Post ``nbytes`` from ``src`` to ``dst``, stamped with the
        sender's clock plus the transfer time; the send costs the sender
        nothing."""
        mpi = self.mpi
        t_send = mpi.now(src)
        arrival = t_send + mpi._transfer_time(src, dst, nbytes)
        fate = "deliver"
        if mpi.faults is not None:
            fate, extra = mpi.faults.on_send(src, dst, tag, nbytes)
            if fate == "drop":
                mpi.messages_dropped += 1
            elif fate == "delay":
                arrival += extra
                mpi.messages_delayed += 1
        self.mailbox.setdefault((src, dst, tag), deque()).append(
            (nbytes, arrival, fate == "drop"))
        mpi.messages_sent += 1
        mpi.bytes_sent += nbytes
        if mpi.tracer.enabled:
            mpi.tracer.instant(rank_track(src), "mpi.isend", t_send, cat="mpi",
                               dst=dst, tag=tag, nbytes=nbytes, fate=fate)

    def wait(self, dst, src, tag=0):
        """Receive the oldest message on ``(src, dst, tag)`` — recovered
        first if lost — advancing ``dst``'s clock to its arrival."""
        mpi = self.mpi
        key = (src, dst, tag)
        q = self.mailbox.get(key)
        if not q:
            raise SimMPIError(
                f"rank {dst} waits on message from {src} tag {tag}, "
                "but no matching send was posted")
        nbytes, arrival, lost = q.popleft()
        if not q:
            del self.mailbox[key]
        if lost:
            arrival = mpi._recover(src, dst, tag, nbytes)
        t_wait = mpi.now(dst)
        waited = max(0.0, arrival - t_wait)
        mpi.comm_seconds[dst] += waited
        t = mpi._clocks[dst] = max(t_wait, arrival)
        if mpi.tracer.enabled:
            mpi.tracer.span_at(rank_track(dst), "mpi.wait", t_wait, t, cat="mpi",
                               src=src, tag=tag, nbytes=nbytes, waited=waited)
        return nbytes


def one_way(mpi, src, dst, nbytes, *, before=None, between=None, tag=0):
    """One message of ``nbytes`` from ``src`` to ``dst`` charged by
    ``mpi.neighbor_exchange``, with free packs and unpacks.  An exchange
    is symmetric, so ``dst`` answers with an empty message; the call
    raises ``HaloSizeError`` unless ``dst`` receives ``nbytes``."""
    messages = [[] for _ in range(mpi.nranks)]
    if src == dst:
        messages[src] = [(src, nbytes, nbytes)]
    else:
        messages[src], messages[dst] = [(dst, nbytes, 0)], [(src, 0, nbytes)]
    mpi.neighbor_exchange(messages, 1, before or [0.0] * mpi.nranks, between,
                          copies=1, bandwidth=math.inf, tag=tag)
