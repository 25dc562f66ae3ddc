"""Register communication on the 8x8 CPE mesh.

The SW26010 has no coherent cache among CPEs; instead, CPEs on the same
row or the same column can exchange 256-bit register payloads directly
between LDMs "within tens of cycles" (paper Section 7.4).  The paper uses
this for:

- the three-stage parallel scan of vertical pressure accumulation
  (Figure 2), and
- the inter-CPE phase of the array transposition scheme (Figure 3).

:class:`CPEMeshComm` is a functional mailbox model: values actually move
between per-CPE queues, constraints (same row or same column only) are
enforced, and cycles are charged per transfer.  The collective helpers
implement the patterns the paper builds on top.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import RegCommError
from .spec import SW26010Spec, DEFAULT_SPEC


class CPEMeshComm:
    """Mailbox-based register communication for one CPE cluster.

    Each (row, col) CPE has a receive queue per sender.  Sends enforce the
    hardware constraint that source and destination share a row or a
    column.  Payloads are at most 4 doubles (one 256-bit register) per
    transfer; larger arrays are charged as multiple transfers.
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC) -> None:
        self.spec = spec
        self.rows = spec.cpe_rows
        self.cols = spec.cpe_cols
        self._queues: dict[
            tuple[tuple[int, int], tuple[int, int]], deque[np.ndarray]
        ] = {}
        self.transfer_count = 0
        self.total_cycles = 0.0

    # -- validation ------------------------------------------------------------

    def _check_coord(self, coord: tuple[int, int]) -> None:
        r, c = coord
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise RegCommError(f"CPE coordinate {coord} outside {self.rows}x{self.cols} mesh")

    def _check_route(self, src: tuple[int, int], dst: tuple[int, int]) -> None:
        self._check_coord(src)
        self._check_coord(dst)
        if src == dst:
            raise RegCommError(f"CPE {src} cannot register-send to itself")
        if src[0] != dst[0] and src[1] != dst[1]:
            raise RegCommError(
                f"register communication requires same row or column: {src} -> {dst}"
            )

    # -- point to point ----------------------------------------------------------

    def send(self, src: tuple[int, int], dst: tuple[int, int], payload: np.ndarray) -> float:
        """Send ``payload`` from CPE ``src`` to CPE ``dst``.  Returns cycles.

        Payload is chunked into 256-bit (4-double) register transfers.
        """
        self._check_route(src, dst)
        payload = np.atleast_1d(np.asarray(payload, dtype=np.float64))
        lanes = self.spec.vector_dp_lanes
        n_transfers = max(1, -(-payload.size // lanes))  # ceil-div
        cycles = n_transfers * self.spec.regcomm_latency_cycles
        self._queues.setdefault((src, dst), deque()).append(payload.copy())
        self.transfer_count += n_transfers
        self.total_cycles += cycles
        return cycles

    def recv(self, dst: tuple[int, int], src: tuple[int, int]) -> np.ndarray:
        """Blocking receive at ``dst`` of the oldest payload from ``src``."""
        self._check_route(src, dst)
        q = self._queues.get((src, dst))
        if not q:
            raise RegCommError(f"no pending register message {src} -> {dst}")
        return q.popleft()

    def pending(self, dst: tuple[int, int], src: tuple[int, int]) -> int:
        """Number of undelivered payloads on the src->dst route."""
        return len(self._queues.get((src, dst), ()))

    # -- collectives used by the paper's schemes ----------------------------------

    def column_scan(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Exclusive prefix-scan down each mesh column.

        ``values[r, c]`` is CPE (r, c)'s local partial sum; the result
        ``out[r, c]`` is the sum of values from rows 0..r-1 in column c —
        exactly the "Partial Sum Exchange" stage of the paper's
        three-stage accumulation (Section 7.4, Figure 2).

        Returns (offsets, cycles).  Cycles model the serial chain down the
        column (each row waits for its predecessor), which is the critical
        path of stage 2; columns proceed in parallel.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.rows, self.cols):
            raise RegCommError(
                f"column_scan expects shape {(self.rows, self.cols)}, got {values.shape}"
            )
        out = np.zeros_like(values)
        # Functional: route real messages down each column.
        for c in range(self.cols):
            carry = 0.0
            for r in range(self.rows):
                out[r, c] = carry
                carry += values[r, c]
                if r + 1 < self.rows:
                    self.send((r, c), (r + 1, c), np.array([carry]))
                    received = self.recv((r + 1, c), (r, c))
                    carry = float(received[0])
        # Critical path: rows-1 hops, columns in parallel.
        chain_cycles = (self.rows - 1) * self.spec.regcomm_latency_cycles
        return out, float(chain_cycles)

    def row_broadcast(self, row_values: np.ndarray) -> tuple[np.ndarray, float]:
        """Broadcast column-0 values across each row (used to share
        element-level constants).  Returns (full mesh values, cycles)."""
        row_values = np.asarray(row_values, dtype=np.float64)
        if row_values.shape != (self.rows,):
            raise RegCommError(f"row_broadcast expects shape ({self.rows},)")
        out = np.repeat(row_values[:, None], self.cols, axis=1)
        for r in range(self.rows):
            for c in range(1, self.cols):
                self.send((r, 0), (r, c), np.array([row_values[r]]))
                self.recv((r, c), (r, 0))
        # Pipelined along the row: cols-1 hops.
        cycles = (self.cols - 1) * self.spec.regcomm_latency_cycles
        return out, float(cycles)

    def exchange_phase(
        self,
        blocks: dict[int, np.ndarray],
        phase: int,
        along: str = "row",
    ) -> tuple[dict[int, np.ndarray], float]:
        """One XOR-phase pairwise exchange among n CPEs on a row (or column).

        The transposition scheme (Section 7.5, Figure 3) runs phases
        k = 1..n-1; in phase k CPE i exchanges a sub-matrix with CPE
        i XOR k, a collision-free pairing.  ``blocks[i]`` is the block CPE
        i contributes this phase; the result maps i to the block received.
        """
        width = self.cols if along == "row" else self.rows
        n = len(blocks)
        if n < 2 or n > width:
            raise RegCommError(f"need 2..{width} participating CPEs, got {n}")
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
                a = (i, 0) if along == "column" else (0, i)
                b = (j, 0) if along == "column" else (0, j)
                c1 = self.send(a, b, blocks[i].reshape(-1))
                c2 = self.send(b, a, blocks[j].reshape(-1))
                self.recv(b, a)
                self.recv(a, b)
                out[j] = blocks[i].copy()
                out[i] = blocks[j].copy()
                max_cycles = max(max_cycles, c1, c2)
        return out, max_cycles
