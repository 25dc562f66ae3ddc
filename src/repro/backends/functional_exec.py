"""Functional execution disciplines: Algorithms 1/2 on the simulated CPE
cluster, and the kernel-set dispatch for the HOMME hot path.

Two related things live here:

1. the CPE-cluster execution of a mini tracer kernel (below) — the
   paper's Algorithms 1 and 2 run through the simulated hardware;
2. the **execution-path registry** for the real HOMME kernels
   (:data:`EXECUTION_PATHS`, :func:`homme_execution`): ``"fused"`` —
   the production kernels every model runs by default, single-pass
   BLAS contractions against preassembled per-mesh operands
   (:mod:`repro.homme.fused`) — and ``"batched"`` — the reference
   kernels built from the operator library
   (:mod:`repro.homme.operators`), which every fused kernel is held
   to at 1e-12 by a Hypothesis property (``tests/test_exec_paths.py``).
   Every kernel of either path takes its fields and a geometry, nothing
   else.  This registry is the only place that knows which paths exist.

This module executes a small flux-form tracer update

    qdp_out = qdp - dt * div(v * qdp)      (1D column stencil form)

through the *simulated hardware*: data is DMA'd from "main memory"
(numpy arrays) into real LDM allocations, computed with the vector
unit, and DMA'd back.  Two disciplines are implemented:

- :class:`OpenACCStyleExecution` (Algorithm 1): the collapsed (ie, q)
  loop copyins the shared arrays *inside* the q loop — every tracer
  iteration re-reads ``vstar`` and ``dp`` tiles;
- :class:`AthreadStyleExecution` (Algorithm 2): shared tiles are
  DMA'd once per element slab and kept LDM-resident across the tracer
  loop, with qdp double-buffered.

Both produce bit-identical numerics (verified in the tests); the DMA
byte counters differ by the reuse factor — the measured mechanism
behind the paper's "total data transfer size has been decreased to
10%" (Section 7.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import KernelError, LDMOverflowError
from ..homme import euler as _euler
from ..homme import fused as _fz
from ..homme import operators as _op
from ..homme import rhs as _rhs
from ..homme import shallow_water as _sw
from ..sunway.cpe import CPE
from ..sunway.spec import SW26010Spec, DEFAULT_SPEC


# ---------------------------------------------------------------------------
# Execution-path registry for the HOMME kernels (fused vs batched)
# ---------------------------------------------------------------------------


def _warm_tensors(geom) -> None:
    geom.tensors  # noqa: B018 - memoizing property access


def _warm_fused(geom) -> None:
    geom.tensors.fused()


def _batched_tracer_tendency(v, geom):
    return lambda qdp: _euler.qdp_flux_divergence(qdp, v, geom)


def _fused_tracer_tendency(v, geom):
    vm = _fz.fold_velocity(v, geom)  # once per call: each euler-stage task
    return lambda qdp: _fz.qdp_flux_divergence_fused(qdp, vm, geom)


@dataclass(frozen=True)
class HommeExecution:
    """One execution path through the HOMME element-local kernels.

    Bundles the path-specific forms of every dispatchable kernel; DSS
    and the time integrators are shared, so two executions of the same
    state differ only in how the element-local chains are contracted
    (and agree to roundoff — ``tests/test_exec_paths.py``).
    """

    name: str
    #: primitive-equation tendencies: f(state, geom, phis) -> (dv, dT, ddp)
    compute_rhs: Callable
    #: shallow-water tendencies: f(h, v, geom) -> (dh, dv)
    sw_rhs: Callable
    #: weak scalar Laplacian: f(field, geom) -> field
    laplace_wk: Callable
    #: vector Laplacian: f(v, geom) -> v
    vlaplace: Callable
    #: all-tracer advection of one euler-stage task: f(v, geom) returns
    #: g(qdp) -> div(v qdp), the velocity work done once for the whole
    #: tracer stack (twice a subcycle: one call per SSP stage task).
    #: g returns the tendency's *negation* in a fresh array the caller
    #: owns: the SSP stages scale it by -dt in place, which is bitwise
    #: dt times the tendency (IEEE multiplication is sign-symmetric)
    tracer_tendency: Callable
    #: build every memoized operand this path reads from ``geom`` — call
    #: it before a worker pool forks so workers inherit them copy-on-write
    warm: Callable


EXECUTION_PATHS: dict[str, HommeExecution] = {
    "fused": HommeExecution(
        name="fused",
        compute_rhs=_fz.compute_rhs_fused,
        sw_rhs=_fz.sw_compute_rhs_fused,
        laplace_wk=_fz.laplace_sphere_wk_fused,
        vlaplace=_fz.vlaplace_sphere_fused,
        tracer_tendency=_fused_tracer_tendency,
        warm=_warm_fused,
    ),
    "batched": HommeExecution(
        name="batched",
        compute_rhs=_rhs.compute_rhs,
        sw_rhs=_sw.sw_compute_rhs,
        laplace_wk=_op.laplace_sphere_wk,
        vlaplace=_op.vlaplace_sphere,
        tracer_tendency=_batched_tracer_tendency,
        warm=_warm_tensors,
    ),
}


def homme_execution(name: str) -> HommeExecution:
    """Look up an execution path by name (``"fused"`` or ``"batched"``)."""
    try:
        return EXECUTION_PATHS[name]
    except KeyError:
        raise KernelError(
            f"unknown execution path {name!r}; choose from {sorted(EXECUTION_PATHS)}"
        ) from None


@dataclass
class MiniWorkload:
    """A small element-slab tracer workload living in "main memory".

    Arrays (levels x points layout, one element slab):

    - ``qdp``   — (Q, L, P) tracer mass;
    - ``vstar`` — (L, P) advecting velocity (1D stencil direction);
    - ``dp``    — (L, P) layer thickness.
    """

    qdp: np.ndarray
    vstar: np.ndarray
    dp: np.ndarray
    dt: float = 0.1

    def __post_init__(self) -> None:
        Q, L, P = self.qdp.shape
        if self.vstar.shape != (L, P) or self.dp.shape != (L, P):
            raise ValueError("shared array shapes must match qdp's (L, P)")

    @classmethod
    def random(cls, qsize: int = 8, nlev: int = 16, points: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        return cls(
            qdp=rng.random((qsize, nlev, points)) + 0.5,
            vstar=rng.standard_normal((nlev, points)) * 0.1,
            dp=rng.random((nlev, points)) + 1.0,
        )


def _reference_update(wl: MiniWorkload, passes: int = 1) -> np.ndarray:
    """The numpy reference: ``passes`` sweeps of qdp -= dt d(v qdp)/dx."""
    qdp = wl.qdp
    for _ in range(passes):
        flux = wl.vstar[None] * qdp
        div = 0.5 * (np.roll(flux, -1, axis=-1) - np.roll(flux, 1, axis=-1))
        qdp = qdp - wl.dt * div
    return qdp


def _tile_update(qdp_tile, vstar_tile, dt, vector_unit):
    """One tile's update through the vector unit (counts real flops)."""
    flux = vector_unit.mul(vstar_tile, qdp_tile)
    div = vector_unit.mul(
        np.full_like(flux, 0.5),
        np.roll(flux, -1, axis=-1) - np.roll(flux, 1, axis=-1),
    )
    return vector_unit.fmadd(np.full_like(div, -dt), div, qdp_tile)


class OpenACCStyleExecution:
    """Algorithm 1: copyin of shared arrays inside the tracer loop.

    The single collapse over (ie, q) means no code can hoist the shared
    tiles out of the q loop — every tracer iteration DMA-gets ``vstar``
    and ``dp`` again.
    """

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, passes: int = 1) -> None:
        self.cpe = CPE(0, 0, spec)
        self.passes = passes

    def run(self, wl: MiniWorkload) -> np.ndarray:
        cpe = self.cpe
        Q, L, P = wl.qdp.shape
        # Each loop nest (pass) is its own parallel region: the previous
        # pass's result returns to main memory and is copyin'd again —
        # "even if the next loop reuses the same array, it reads the
        # data again" (Section 7.3).
        main = wl.qdp.copy()
        for _ in range(self.passes):
            out = np.empty_like(main)
            for q in range(Q):
                # copyin(derived_dp), copyin(vstar) — inside the q loop.
                vstar_tile = cpe.ldm.alloc_array((L, P), label="vstar")
                dp_tile = cpe.ldm.alloc_array((L, P), label="dp")
                cpe.dma.get(wl.vstar, vstar_tile, tag="vstar")
                cpe.dma.get(wl.dp, dp_tile, tag="dp")
                # copyin(elements(ie).qdp(q)).
                q_tile = cpe.ldm.alloc_array((L, P), label="qdp")
                cpe.dma.get(main[q], q_tile, tag="qdp")
                result = _tile_update(q_tile, vstar_tile, wl.dt, cpe.vector)
                cpe.dma.put(result, out[q], tag="qdp_out")
                # Directive model: buffers die with the parallel region.
                cpe.ldm.free_array(q_tile)
                cpe.ldm.free_array(dp_tile)
                cpe.ldm.free_array(vstar_tile)
            main = out
        return main

    @property
    def dma_bytes(self) -> int:
        return self.cpe.dma.total_bytes


class AthreadStyleExecution:
    """Algorithm 2: shared tiles LDM-resident, qdp double-buffered."""

    def __init__(self, spec: SW26010Spec = DEFAULT_SPEC, passes: int = 1) -> None:
        self.cpe = CPE(0, 0, spec)
        self.passes = passes

    def run(self, wl: MiniWorkload) -> np.ndarray:
        cpe = self.cpe
        out = np.empty_like(wl.qdp)
        Q, L, P = wl.qdp.shape
        nbytes = L * P * 8
        if 4 * nbytes > cpe.ldm.capacity:
            raise LDMOverflowError(4 * nbytes, cpe.ldm.capacity, "athread tiles")
        # DMA-get the non-q arrays ONCE, keep them resident.
        vstar_tile = cpe.ldm.alloc_array((L, P), label="vstar")
        dp_tile = cpe.ldm.alloc_array((L, P), label="dp")
        cpe.dma.get(wl.vstar, vstar_tile, tag="vstar")
        cpe.dma.get(wl.dp, dp_tile, tag="dp")
        # Ping/pong qdp buffers: tracer q+1 streams in while q computes.
        ping = cpe.ldm.alloc_array((L, P), label="qdp.ping")
        pong = cpe.ldm.alloc_array((L, P), label="qdp.pong")
        cpe.dma.get(wl.qdp[0], ping, tag="qdp0")
        for q in range(Q):
            nxt = pong if q % 2 == 0 else ping
            cur = ping if q % 2 == 0 else pong
            if q + 1 < Q:
                req = cpe.dma.prefetch(nbytes, tag=f"qdp{q + 1}")
                np.copyto(nxt, wl.qdp[q + 1])  # the async transfer lands
            # ALL passes run on the LDM-resident tile before it leaves:
            # the fine-grained rewrite fuses the loop nests.
            result = cur
            for _ in range(self.passes):
                result = _tile_update(result, vstar_tile, wl.dt, cpe.vector)
            if q + 1 < Q:
                # Compute overlapped the prefetch; charge max of the two.
                cpe.dma.overlap_cost(req, compute_cycles=result.size / 4.0)
            cpe.dma.put(result, out[q], tag="qdp_out")
        for arr in (pong, ping, dp_tile, vstar_tile):
            cpe.ldm.free_array(arr)
        return out

    @property
    def dma_bytes(self) -> int:
        return self.cpe.dma.total_bytes


def traffic_comparison(wl: MiniWorkload, passes: int = 1) -> dict[str, float]:
    """Run both disciplines; return numerics check + traffic ratio.

    ``passes`` models euler_step's several sequential loop nests; at
    the realistic (Q=25, passes=5) point the ratio lands near the
    paper's measured 10%.
    """
    acc = OpenACCStyleExecution(passes=passes)
    ath = AthreadStyleExecution(passes=passes)
    ref = _reference_update(wl, passes=passes)
    out_acc = acc.run(wl)
    out_ath = ath.run(wl)
    return {
        "acc_matches_reference": bool(np.allclose(out_acc, ref)),
        "ath_matches_reference": bool(np.allclose(out_ath, ref)),
        "bit_identical": bool(np.array_equal(out_acc, out_ath)),
        "acc_bytes": float(acc.dma_bytes),
        "ath_bytes": float(ath.dma_bytes),
        "traffic_ratio": ath.dma_bytes / acc.dma_bytes,
    }
