"""Register communication on the 8x8 CPE mesh.

The SW26010 has no coherent cache among CPEs; instead, CPEs on the same
row or the same column can exchange 256-bit register payloads directly
between LDMs "within tens of cycles" (paper Section 7.4).  The paper uses
this for:

- the three-stage parallel scan of vertical pressure accumulation
  (Figure 2), and
- the inter-CPE phase of the array transposition scheme (Figure 3).

:class:`CPEMeshComm` holds no message between calls: each collective
moves its values directly and has :meth:`CPEMeshComm.charge` check every
route (same row or same column only) and count its cycles.  The cycles a
collective returns are the critical path it counted, the only source of
the register-communication costs the Athread backend charges.
"""

from __future__ import annotations

import numpy as np

from ..errors import RegCommError
from .spec import SW26010Spec, DEFAULT_SPEC


class CPEMeshComm:
    """Register communication for one CPE cluster.

    A transfer must stay on one row or one column of the mesh.  Payloads
    are at most 4 doubles (one 256-bit register) per transfer; larger
    arrays are charged as multiple transfers.
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.spec = spec
        self.rows = spec.cpe_rows
        self.cols = spec.cpe_cols
        self.transfer_count = 0
        self.total_cycles = 0.0

    def _check_coord(self, coord: tuple[int, int]) -> None:
        r, c = coord
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise RegCommError(f"CPE coordinate {coord} outside {self.rows}x{self.cols} mesh")

    def charge(self, src: tuple[int, int], dst: tuple[int, int], n: int) -> float:
        """Cycles for CPE ``src`` to send ``n`` doubles to CPE ``dst``.

        The route must stay on the mesh, join two different CPEs and keep
        to one row or one column; the payload is chunked into 256-bit
        (4-double) register transfers.
        """
        self._check_coord(src)
        self._check_coord(dst)
        if src == dst:
            raise RegCommError(f"CPE {src} cannot register-send to itself")
        if src[0] != dst[0] and src[1] != dst[1]:
            raise RegCommError(
                f"register communication requires same row or column: {src} -> {dst}"
            )
        n_transfers = max(1, -(-n // self.spec.vector_dp_lanes))  # ceil-div
        cycles = n_transfers * self.spec.regcomm_latency_cycles
        self.transfer_count += n_transfers
        self.total_cycles += cycles
        return float(cycles)

    # -- collectives used by the paper's schemes ----------------------------------

    def column_scan(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Exclusive prefix-scan down each mesh column.

        ``values[r, c]`` is CPE (r, c)'s local partial sum; the result
        ``out[r, c]`` is the sum of values from rows 0..r-1 in column c —
        exactly the "Partial Sum Exchange" stage of the paper's
        three-stage accumulation (Section 7.4, Figure 2).

        Returns (offsets, cycles).  Each row waits for its predecessor's
        running total, so a column's cycles are the sum of its hops; the
        columns proceed in parallel and the slowest is the critical path
        of stage 2.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.rows, self.cols):
            raise RegCommError(
                f"column_scan expects shape {(self.rows, self.cols)}, got {values.shape}"
            )
        out = np.zeros_like(values)
        critical = 0.0
        for c in range(self.cols):
            carry, chain = 0.0, 0.0
            for r in range(self.rows):
                out[r, c] = carry
                carry += values[r, c]
                if r + 1 < self.rows:
                    chain += self.charge((r, c), (r + 1, c), 1)
            critical = max(critical, chain)
        return out, critical

    def exchange_phase(
        self, blocks: dict[int, np.ndarray], phase: int
    ) -> tuple[dict[int, np.ndarray], float]:
        """One XOR-phase pairwise exchange among CPEs 0..n-1 of a mesh row.

        The transposition scheme (Section 7.5, Figure 3) runs phases
        k = 1..n-1; in phase k CPE i exchanges a sub-matrix with CPE
        i XOR k, a collision-free pairing.  ``blocks[i]`` is the block CPE
        i contributes this phase; the result maps i to the block received
        and the cycles of the slowest transfer (the pairs run concurrently).
        """
        n = len(blocks)
        if n < 2 or n > self.cols:
            raise RegCommError(f"need 2..{self.cols} participating CPEs, got {n}")
        if set(blocks) != set(range(n)):
            raise RegCommError(f"blocks must cover CPEs 0..{n - 1}")
        if phase < 1 or phase >= n:
            raise RegCommError(f"phase must be in [1, {n - 1}], got {phase}")
        out: dict[int, np.ndarray] = {}
        max_cycles = 0.0
        for i in range(n):
            j = i ^ phase
            if j >= n:
                raise RegCommError(
                    f"phase {phase} pairs CPE {i} with {j}, outside 0..{n - 1}; "
                    "XOR exchange requires power-of-two mesh width"
                )
            if i < j:
                c1 = self.charge((0, i), (0, j), blocks[i].size)
                c2 = self.charge((0, j), (0, i), blocks[j].size)
                out[j] = blocks[i].copy()
                out[i] = blocks[j].copy()
                max_cycles = max(max_cycles, c1, c2)
        return out, max_cycles
