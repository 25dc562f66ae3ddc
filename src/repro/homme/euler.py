"""``euler_step``: SSP-RK2 tracer advection.

Table 1: "construct strong stability preserving (SSP) second order
Runge-Kutta method".  Tracer mass qdp is advected in flux form,

.. math:: \\partial_t (q\\,\\Delta p) = -\\nabla\\cdot(v\\, q\\,\\Delta p),

subcycled ``tracer_subcycles`` (3) times per dynamics step — the three
halo exchanges per step the overlap redesign targets (Section 7.6).

The tracer loop over ``q`` is the loop in the paper's Algorithms 1/2:
the OpenACC backend re-reads the shared velocity/metric arrays every
iteration (single ``collapse``, copyin inside the q loop), while the
Athread backend keeps them LDM-resident — see
:mod:`repro.backends.openacc` / :mod:`repro.backends.athread`.

A monotone limiter (clip-and-restore) keeps mixing ratios positive and
preserves element tracer mass, mirroring the sign-preserving limiter in
CAM-SE.

The element-local pieces — :func:`ssp_stage1`, :func:`ssp_stage2`,
:func:`limit_local` — take the whole ``(E, Q, L, n, n)`` stack and are
what the models' step recipe runs (the :mod:`repro.parallel.dycore`
tasks, subcycled by :func:`repro.homme.timestep.euler_step_subcycled`),
with a layout's DSS where :func:`euler_step` has one.
"""

from __future__ import annotations

import numpy as np

from ..errors import KernelError
from .element import ElementGeometry, ElementState
from . import operators as op


def advect_qdp_all(
    qdp: np.ndarray, v: np.ndarray, geom: ElementGeometry
) -> np.ndarray:
    """Flux-form tendency for **all tracers at once**; qdp (E, Q, L, n, n).

    The velocity broadcasts across the tracer axis, so the whole
    (E, Q, L) stack goes through the divergence in one operator call —
    the batched analogue of Algorithm 2 keeping shared arrays resident
    across the tracer loop instead of re-dispatching per tracer.
    """
    flux = v[:, None] * qdp[..., None]
    return -op.divergence_sphere(flux, geom)


def _dss_all(qdp: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """DSS an (E, Q, L, n, n) stack by folding (Q, L) into one axis."""
    E, Q, L, n, _ = qdp.shape
    return geom.dss(qdp.reshape(E, Q * L, n, n)).reshape(E, Q, L, n, n)


def element_mass(qdp: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Mass of (E, ..., n, n) tracer stacks per element (and middle axes).

    The products are laid out C-contiguous whatever ``qdp``'s strides (a
    serial DSS hands back a levels-last view), so the sum over an
    element's points always runs in the same order.
    """
    w = geom.spheremp[(slice(None),) + (None,) * (qdp.ndim - 3)]
    return np.sum(np.multiply(qdp, w, order="C"), axis=(-2, -1))


def sum_elements(per_elem: np.ndarray) -> np.ndarray:
    """Sum (E, ...) over elements strictly in element order.

    The order every global sum of the mass fixer takes, serial or
    distributed, so its bits do not depend on a partition.  A running
    sum, because ``np.sum(axis=0)`` turns pairwise when the remaining
    axes have size 1.
    """
    return np.cumsum(per_elem, axis=0)[-1]


def restoring_scale(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The non-negative factor taking mass ``after`` back to ``before``
    (0 where none is left to scale)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(after > 0, before / after, 0.0)
    return np.clip(scale, 0.0, None)


def limit_local(qdp: np.ndarray, geom: ElementGeometry) -> tuple[np.ndarray, ...]:
    """The elementwise half of the limiter (HOMME's limiter8 idea).

    Negatives are clipped and the clipped mass is removed proportionally
    from positive points of the same element and level; element-levels
    whose *total* went negative are zeroed.  Returns ``(limited, before,
    after)``, the last two the :func:`element_mass` a global fixer sums.
    """
    mass_before = element_mass(qdp, geom)
    clipped = np.maximum(qdp, 0.0)
    # Rescale positives to restore mass (only where there is any mass).
    scale = restoring_scale(mass_before, element_mass(clipped, geom))
    limited = clipped * scale[..., None, None]
    return limited, mass_before, element_mass(limited, geom)


def limit_qdp(qdp: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Sign-preserving limiter: clip negatives, restore mass.

    Accepts any stack of middle axes: (E, L, n, n) for one tracer or
    (E, Q, L, n, n) for the tracer stack — the element axis is first and
    the GLL axes last, everything between is limited independently.

    :func:`limit_local` by itself manufactures mass (spectral ringing
    around compact features makes empty elements slightly negative), so
    a global fixer follows: one multiplicative factor per level restores
    the exact global integral, keeping positivity.  Its two global sums
    add per-element masses in element order (:func:`sum_elements`), as
    the distributed model's allreduce does.
    """
    limited, before, after = limit_local(qdp, geom)
    g_scale = restoring_scale(sum_elements(before), sum_elements(after))
    return limited * g_scale[None, ..., None, None]


def ssp_stage1(qdp: np.ndarray, adv, dt: float) -> np.ndarray:
    """SSP-RK2 stage 1 (pre-DSS): ``qdp + dt L(qdp)``."""
    return qdp + dt * adv(qdp)


def ssp_stage2(qdp: np.ndarray, s1: np.ndarray, adv, dt: float) -> np.ndarray:
    """SSP-RK2 stage 2 (pre-DSS): ``(qdp + s1 + dt L(s1)) / 2``."""
    return 0.5 * (qdp + s1 + dt * adv(s1))


def euler_step(
    state: ElementState,
    geom: ElementGeometry,
    dt: float,
    limiter: bool = True,
    path: str = "fused",
) -> np.ndarray:
    """One SSP-RK2 advection step for all tracers; returns new qdp.

    SSP-RK2 (Heun):  s1 = q + dt L(q);  q_new = (q + s1 + dt L(s1)) / 2,
    with DSS after each stage so stage fields are continuous.

    Every tracer is advected and assembled in one shot (velocity and
    metric terms touched once per stage).  ``path`` names the kernel
    set (:func:`repro.backends.functional_exec.homme_execution`):
    ``"fused"`` folds the metric into the velocity planes once per step
    and skips the ``(..., 2)`` flux stack (:mod:`repro.homme.fused`);
    ``"batched"`` is the reference built on :func:`advect_qdp_all`.
    """
    # Imported lazily: backends.functional_exec imports this module.
    from ..backends.functional_exec import homme_execution

    if dt <= 0:
        raise KernelError(f"dt must be positive, got {dt}")
    qdp = state.qdp
    adv = homme_execution(path).tracer_tendency(state.v, geom)
    s1 = _dss_all(ssp_stage1(qdp, adv, dt), geom)
    s2 = _dss_all(ssp_stage2(qdp, s1, adv, dt), geom)
    if limiter:
        # The elementwise rescale breaks edge continuity; a closing
        # DSS restores it (a positive-weighted average of
        # non-negative values stays non-negative), which keeps the
        # *next* step's flux-form divergence exactly conservative.
        return _dss_all(limit_qdp(s2, geom), geom)
    return s2


def tracer_mass(qdp: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Global tracer mass per tracer: integral of qdp over sphere and levels."""
    w = geom.spheremp[:, None, None]
    return np.sum(qdp * w, axis=(0, 2, 3, 4))
