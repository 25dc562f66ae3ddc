"""The slot accumulate behind every direct stiffness summation: the serial
``CubedSphereMesh.dss`` is one call of :meth:`Assembly.accumulate`, and
each shard of a ``HaloExchanger`` plan sums its own slots with
:func:`accumulate` over its share of the plan's layers."""

from __future__ import annotations

import numpy as np


class Assembly:
    """``acc[slot_of[i]] += rows[i]`` for rows sharing a key, as layered adds.

    One slot per distinct key, numbered by descending row count, so the
    slots that have a *j*-th row — layer *j* — are a prefix and a layer
    is one ``take`` and one slice ``+=``.  Layer *j* holds the position
    of every slot's *j*-th row in ascending ``order`` (row position when
    not given, and between equal ``order`` values); adding the layers in
    turn sums each slot in that order, as ``np.add.at`` over rows so
    sorted does, bit for bit.

    ``keys`` — (nslots,) each slot's key; ``counts`` — (nslots,) its
    rows, descending; ``slot_of`` — (nrows,) each row's slot.
    """

    def __init__(self, keys: np.ndarray, order: np.ndarray | None = None) -> None:
        uniq, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        self.keys = uniq[by_count]
        self.counts = counts[by_count]
        self.slot_of = np.argsort(by_count)[inverse]  # inverse permutation
        # Rows sorted by slot (a stable sort, so ties keep row position):
        # slot s's j-th row sits at starts[s] + j.
        rows = np.lexsort(
            (self.slot_of,) if order is None else (order, self.slot_of))
        starts = np.cumsum(self.counts) - self.counts
        #: Layer j: the position of the j-th row of every slot that has one.
        self.layers = [
            rows[starts[:np.count_nonzero(self.counts > j)] + j]
            for j in range(int(self.counts.max(initial=1)))]

    def accumulate(self, rows: np.ndarray) -> np.ndarray:
        """Per-slot sums of ``rows`` (nrows[, K]), (nslots[, K]).

        Sums start from +0.0, which turns an all ``-0.0`` sum into ``+0.0``.
        """
        return accumulate(rows, self.layers)


def accumulate(rows: np.ndarray, layers: list[np.ndarray]) -> np.ndarray:
    """Sum ``rows`` layer by layer: slot ``s`` of the result is
    ``+0.0 + rows[layers[0][s]] + rows[layers[1][s]] + ...`` over the
    layers long enough to reach it (each layer a prefix of the slots)."""
    acc = rows.take(layers[0], axis=0)
    acc += 0.0
    for pos in layers[1:]:
        acc[:len(pos)] += rows.take(pos, axis=0)
    return acc
