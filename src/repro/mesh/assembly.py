"""The slot accumulate behind every direct stiffness summation: the serial
``CubedSphereMesh.dss`` and both accumulates of the distributed
``HaloExchanger`` (local points, then received halo rows) are calls of
:meth:`Assembly.accumulate`."""

from __future__ import annotations

import numpy as np


class Assembly:
    """``acc[slot_of[i]] += rows[i]`` for rows sharing a key, as layered adds.

    One slot per distinct key, numbered by descending row count, so the
    slots that have a *j*-th row — layer *j* — are a prefix and a layer
    is one ``take`` and one slice ``+=``.  Layer *j* holds the position
    of every slot's *j*-th row; adding the layers in order sums each slot
    in row order, as ``np.add.at`` does, bit for bit.

    ``keys`` — (nslots,) each slot's key; ``counts`` — (nslots,) its
    rows, descending; ``slot_of`` — (nrows,) each row's slot.
    """

    def __init__(self, keys: np.ndarray) -> None:
        uniq, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        self.keys = uniq[by_count]
        self.counts = counts[by_count]
        self.slot_of = np.argsort(by_count)[inverse]  # inverse permutation
        # Rows sorted by slot: slot s's j-th row sits at starts[s] + j.
        order = np.argsort(self.slot_of, kind="stable")
        starts = np.cumsum(self.counts) - self.counts
        self._layers = [
            order[starts[:np.count_nonzero(self.counts > j)] + j]
            for j in range(int(self.counts.max(initial=1)))]

    def accumulate(self, rows: np.ndarray, onto: np.ndarray | None = None) -> np.ndarray:
        """Per-slot sums of ``rows`` (nrows[, K]) in row order, (nslots[, K]).

        Sums start from ``onto`` (one row per slot, updated in place) or
        from +0.0, which turns an all ``-0.0`` sum into ``+0.0``.
        """
        layers = self._layers
        if onto is None:
            onto = rows.take(layers[0], axis=0)
            onto += 0.0
            layers = layers[1:]
        for pos in layers:
            onto[:len(pos)] += rows.take(pos, axis=0)
        return onto
