"""Resident arrays: memory the driver and its forked workers both map.

An :class:`Arena` is one anonymous shared mapping (``MAP_SHARED``),
made before an engine forks its pool, so every worker the engine forks
— the respawned ones included, forked from the same driver — maps the
same pages at the same addresses.  A layout keeps its shards' state and
stage arrays in one (:meth:`Arena.empty`); the engine
(:mod:`repro.parallel.engine`) owns another, its staging arena, which
holds a read-only copy of every other input of a batch in flight.  The
engine hands every task input to a task *by reference* — arena, offset,
shape, strides and writability — and no other way; a task writes a
resident output into an array it was handed and returns it, and that
too travels back as a reference.

A region is reused only once no driver-side array refers to it any
more, so a region an in-flight batch reads (its payload holds it) or a
kept result refers to is never handed out again: a task never writes
memory another task of its batch reads, and a region is rewritten only
after every batch that read it has been collected.  A full arena
raises :class:`~repro.errors.KernelError` rather than hand out private
memory a worker would not see.  An arena has no name, so it cannot leak
one: the mapping goes when its last array does.
"""

from __future__ import annotations

import itertools
import mmap
import weakref

import numpy as np

from ..errors import KernelError

__all__ = ["Arena", "bounds", "live_ids", "locate", "view"]

#: Alignment of every region [bytes].
ALIGN = 64

_ids = itertools.count()
#: Every live arena of this process by id; a forked worker inherits it.
_ARENAS: dict[int, "weakref.ref[Arena]"] = {}


class Arena:
    """A fixed-size shared mapping carved into reusable regions.

    ``nbytes`` is address space, not memory: a page is only backed once
    something writes it.  :meth:`empty` returns a region of the requested
    shape, reusing a free region of the same size, and raises
    :class:`~repro.errors.KernelError` when none is free and the arena
    has no room for another.
    """

    def __init__(self, nbytes: int) -> None:
        self.nbytes = int(nbytes)
        self._mm = mmap.mmap(-1, max(self.nbytes, mmap.PAGESIZE))
        self.address = np.frombuffer(self._mm, dtype=np.uint8).ctypes.data
        self.id = next(_ids)
        _ARENAS[self.id] = weakref.ref(self, lambda _, i=self.id: _ARENAS.pop(i, None))
        self._top = 0
        #: Region size -> [(offset, weak reference to its array)].
        self._regions: dict[int, list[tuple[int, weakref.ref]]] = {}

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array in this arena."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64))
        size = -(-max(count * dtype.itemsize, 1) // ALIGN) * ALIGN
        regions = self._regions.setdefault(size, [])
        for i, (off, ref) in enumerate(regions):
            if ref() is None:
                break
        else:
            if self._top + size > self.nbytes:
                raise KernelError(
                    f"resident arena full: no free region of {size} bytes "
                    f"({self._top} of {self.nbytes} bytes carved, every "
                    f"region still referenced)")
            off, i = self._top, len(regions)
            regions.append(None)
            self._top += size
        arr = np.frombuffer(self._mm, dtype, count, off)
        regions[i] = (off, weakref.ref(arr))
        return arr.reshape(shape)


def bounds(a: np.ndarray) -> tuple[int, int]:
    """The addresses ``[lo, hi)`` of the bytes ``a`` spans."""
    lo = hi = a.ctypes.data
    for n, s in zip(a.shape, a.strides):
        lo, hi = lo + min(0, s * (n - 1)), hi + max(0, s * (n - 1))
    return lo, hi + a.itemsize


def locate(a: np.ndarray, ids) -> tuple[int, int] | None:
    """``(arena id, byte offset)`` of ``a`` when its memory lies inside
    one of the arenas ``ids`` names, else ``None``."""
    if not a.size:
        return None
    lo, hi = bounds(a)
    for i in ids:
        arena = _ARENAS.get(i)
        arena = arena() if arena is not None else None
        if arena is not None and arena.address <= lo and hi <= arena.address + arena.nbytes:
            return i, a.ctypes.data - arena.address
    return None


def view(arena_id: int, offset: int, shape, strides, dtype,
         writeable: bool) -> np.ndarray:
    """The array a :func:`locate` reference names, in this process's
    mapping of the arena."""
    arena = _ARENAS[arena_id]()
    a = np.ndarray(shape, np.dtype(dtype), buffer=arena._mm, offset=offset,
                   strides=strides)
    a.flags.writeable = writeable
    return a


def live_ids() -> frozenset[int]:
    """Ids of every arena alive in this process now (what a worker forked
    now would map)."""
    return frozenset(_ARENAS)
