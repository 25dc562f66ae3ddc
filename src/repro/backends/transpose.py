"""Shuffle + register-communication array transposition (Section 7.5).

Two levels, exactly as the paper's Figure 3:

1. **Intra-CPE**: a 4x4 double block held in four vector registers is
   transposed with 8 ``shuffle`` instructions;
2. **Inter-CPE**: an (n x n)-of-blocks matrix distributed one block-row
   per CPE is transposed in n-1 XOR phases — in phase k, CPE i swaps
   block i^k with CPE i^k, a collision-free pairing over the row
   network.

Functional over the real :class:`~repro.sunway.vector` shuffle and
:class:`~repro.sunway.regcomm.CPEMeshComm`; the counted cycles are the
transposition cost the Athread backend charges
(:func:`transpose_cycles_per_point`) and the ablation bench compares
against strided-DMA transposition.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..errors import KernelError
from ..sunway.dma import DMAEngine
from ..sunway.regcomm import CPEMeshComm
from ..sunway.spec import SW26010Spec, DEFAULT_SPEC
from ..sunway.vector import transpose4x4

#: Cycles per vector instruction (shuffles issue one per cycle).
SHUFFLE_CYCLES = 1.0


def transpose_distributed(
    m: np.ndarray, comm: CPEMeshComm | None = None
) -> tuple[np.ndarray, float]:
    """Transpose a (4n x 4n) matrix distributed over n CPEs by block rows.

    CPE i holds block row i: blocks (i, 0..n-1), each 4x4.  Returns the
    transposed matrix and the simulated cycles (shuffles + XOR-phase
    register traffic; phases are serialized, pairs within a phase run
    concurrently).
    """
    comm = comm or CPEMeshComm(DEFAULT_SPEC)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 4:
        raise KernelError(f"need a square matrix of 4x4 blocks, got {m.shape}")
    n = m.shape[0] // 4
    if n > comm.cols:
        raise KernelError(f"{n} block rows exceed {comm.cols} CPEs")
    if n & (n - 1):
        raise KernelError("XOR exchange requires a power-of-two CPE count")

    # Local view: blocks[i][j] is the 4x4 block at block-row i, col j.
    blocks = [[m[4 * i : 4 * i + 4, 4 * j : 4 * j + 4].copy() for j in range(n)] for i in range(n)]
    cycles = 0.0

    # Step 1: every CPE transposes its diagonal-destined blocks locally
    # (8 shuffles each); off-diagonal blocks transpose before exchange.
    shuffle_count = 0
    for i in range(n):
        for j in range(n):
            blocks[i][j], nshuf = transpose4x4(blocks[i][j])
            shuffle_count += nshuf
    # All CPEs shuffle concurrently: charge the per-CPE share.
    cycles += (shuffle_count / n) * SHUFFLE_CYCLES

    # Step 2: n-1 XOR phases swapping block (i, i^k) <-> (i^k, i).
    for phase in range(1, n):
        contrib = {i: blocks[i][i ^ phase] for i in range(n)}
        received, phase_cycles = comm.exchange_phase(contrib, phase)
        for i in range(n):
            blocks[i][i ^ phase] = received[i]
        cycles += phase_cycles

    out = np.empty_like(m)
    for i in range(n):
        for j in range(n):
            out[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = blocks[i][j]
    return out, cycles


@cache
def transpose_cycles_per_point(spec: SW26010Spec = DEFAULT_SPEC) -> float:
    """Cluster cycles per transposed point on ``spec``'s CPE mesh.

    One run of :func:`transpose_distributed` (per spec, on first use)
    on a tile of ``4 cpe_cols`` square — one block row per CPE of a
    row; every CPE row transposes its own tile concurrently.
    """
    tile = 4 * spec.cpe_cols
    _, cycles = transpose_distributed(np.zeros((tile, tile)), CPEMeshComm(spec))
    return cycles / (spec.cpe_rows * tile * tile)


def strided_dma_transpose_cycles(size: int, spec=DEFAULT_SPEC) -> float:
    """Baseline: transpose by strided DMA through main memory.

    Each of the ``size`` rows is written column-wise: ``size`` strided
    transfers of ``size`` doubles each, paying the stride penalty of
    the DMA efficiency curve, plus the read-back.
    """
    eng = DMAEngine(spec, bandwidth_share=1.0 / spec.cpes_per_cg)
    row_bytes = size * 8
    cycles = 0.0
    for _ in range(size):
        cycles += eng.transfer_cycles(row_bytes, stride_bytes=row_bytes * size)
    return 2 * cycles  # write strided + read back
