"""The element-local pieces of ``euler_step``: SSP-RK2 tracer advection.

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
preserves tracer mass, mirroring the sign-preserving limiter in CAM-SE:
:func:`limit_local` clips and restores each element's mass, and a global
fixer — one factor per tracer and level, from two sums of per-element
masses in element order (:func:`sum_elements`) — takes back the mass the
local pass manufactures around compact features.

:func:`ssp_stage1`, :func:`ssp_stage2` and :func:`limit_local` take the
whole ``(E, Q, L, n, n)`` stack.  The step is the recipe's euler phase,
:func:`repro.homme.timestep.euler_step_subcycled`: it runs them as the
:mod:`repro.parallel.dycore` tasks with a layout's DSS after each stage
and after the limiter, and the fixer's sums as one ``_mesh_sum``.
"""

from __future__ import annotations

import numpy as np

from .element import ElementGeometry
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


def ssp_stage1(qdp: np.ndarray, adv, dt: float) -> np.ndarray:
    """SSP-RK2 stage 1 (pre-DSS): ``qdp + dt L(qdp)``."""
    return qdp + dt * adv(qdp)


def ssp_stage2(qdp: np.ndarray, s1: np.ndarray, adv, dt: float) -> np.ndarray:
    """SSP-RK2 stage 2 (pre-DSS): ``(qdp + s1 + dt L(s1)) / 2``."""
    return 0.5 * (qdp + s1 + dt * adv(s1))

