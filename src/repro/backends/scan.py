"""The register-communication vertical scan (paper Section 7.4, Figure 2).

128 atmospheric layers are split into 8 groups of 16; CPE row i holds
layers [16 i, 16 i + 15].  The pressure accumulation
``p_k = p_{k-1} + a_k`` runs in three stages:

1. **Local accumulation** — each CPE scans its own 16 layers;
2. **Partial sum exchange** — CPE (i, j) blocks on a register read of
   the running total from (i-1, j), adds its local total, forwards to
   (i+1, j);
3. **Global accumulation** — each CPE offsets its local prefix sums.

Functional implementation over :class:`~repro.sunway.regcomm.CPEMeshComm`
with cycle accounting; :func:`scan_cycles` is the stage-2 cost the
Athread backend charges per scan, counted by one run of the scheme, and
:func:`serial_scan_cycles` is the baseline the scheme replaces (one CPE
walking all 128 layers).
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ..errors import KernelError
from ..sunway.regcomm import CPEMeshComm
from ..sunway.spec import SW26010Spec, DEFAULT_SPEC

#: Cycles for one scalar add+load step of the serial column walk.
SERIAL_CYCLES_PER_LEVEL = 6.0


def regcomm_scan(
    a: np.ndarray,
    comm: CPEMeshComm | None = None,
    p0: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Parallel inclusive scan of layer increments ``a`` over CPE rows.

    ``a`` has shape (levels, columns) with levels divisible by the mesh
    row count; column j is handled by CPE column j (the 16 element
    columns of a 4x4 element map onto the 8 CPE columns two at a time
    in the real code; here columns <= mesh columns).

    Returns (p, cycles): ``p[k] = p0 + a[0] + ... + a[k]`` and the
    simulated cycle cost of stage 2 (stages 1 and 3 are ordinary local
    arithmetic, charged by the caller as compute).
    """
    comm = comm or CPEMeshComm(DEFAULT_SPEC)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise KernelError("regcomm_scan expects (levels, columns)")
    L, ncol = a.shape
    rows = comm.rows
    if L % rows != 0:
        raise KernelError(f"{L} levels not divisible by {rows} CPE rows")
    if ncol > comm.cols:
        raise KernelError(f"{ncol} columns exceed {comm.cols} CPE columns")
    per = L // rows

    # Stage 1: local prefix sums within each CPE's layer group.
    blocks = a.reshape(rows, per, ncol)
    local = np.cumsum(blocks, axis=1)

    # Stage 2: exchange of group totals down each column (functional
    # register traffic through the mesh).
    totals = local[:, -1, :]  # (rows, ncol)
    padded = np.zeros((rows, comm.cols))
    padded[:, :ncol] = totals
    offsets, cycles = comm.column_scan(padded)

    # Stage 3: add the incoming offset (plus p0) to every local sum.
    p = local + offsets[:, None, :ncol] + p0
    return p.reshape(L, ncol), cycles


@cache
def scan_cycles(spec: SW26010Spec = DEFAULT_SPEC) -> float:
    """Stage-2 cycles of one scan on ``spec``'s CPE mesh, as
    :func:`regcomm_scan` counts them (one run per spec, on first use)."""
    levels = np.zeros((spec.cpe_rows, spec.cpe_cols))
    return regcomm_scan(levels, CPEMeshComm(spec))[1]


def serial_scan_cycles(levels: int, spec: SW26010Spec = DEFAULT_SPEC) -> float:
    """Cycles for the unparallelized scan: one pass over all levels."""
    return levels * SERIAL_CYCLES_PER_LEVEL


def scan_speedup(levels: int, spec: SW26010Spec = DEFAULT_SPEC) -> float:
    """Critical-path speedup of the three-stage scheme over the serial walk.

    Parallel critical path: per-CPE local work (levels/rows passes,
    twice: stages 1 and 3) + the register chain of stage 2.
    """
    per = levels / spec.cpe_rows
    parallel = 2 * per * SERIAL_CYCLES_PER_LEVEL + scan_cycles(spec)
    return serial_scan_cycles(levels, spec) / parallel
