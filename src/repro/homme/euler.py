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

No pass runs whose result is already known, and every bit is kept:

- :func:`limit_local` takes one :func:`element_mass` and one sign check.
  An element-level with no sign bit set (no negative value, no -0.0),
  a finite mass, and a positive mass or only +0.0 values comes back as
  its own bytes, with ``after`` equal to ``before``: ``max(x, 0) = x``
  there, so the clipped mass is the same sum of the same products,
  ``m / m = 1.0`` exactly and ``x * 1.0 = x``; a zero mass gives scale 0
  on values that are already +0.0.  Only the other element-levels are
  gathered and take the clip / rescale / re-mass path, so the result is
  the three-pass limiter's byte for byte (``tests/euler_oracle.py``).
- :func:`fixer_multiply` skips the fixer's multiply when every factor
  is 1.0, or +0.0 on rows that are all +0.0.
- :func:`ssp_stage1` / :func:`ssp_stage2` work in place on the fresh
  flux divergence a kernel set's ``tracer_tendency`` returns, with its
  sign folded into ``-dt``: ``(-dt) * D`` is ``dt * (-D)`` bit for bit
  (IEEE multiplication is sign-symmetric; only a NaN's sign bit, which
  IEEE leaves unspecified, may differ).

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


def qdp_flux_divergence(
    qdp: np.ndarray, v: np.ndarray, geom: ElementGeometry
) -> np.ndarray:
    """Flux divergence ``div(v qdp)`` for **all tracers at once** — the
    advective tendency's negation; qdp (E, Q, L, n, n).

    The velocity broadcasts across the tracer axis, so the whole
    (E, Q, L) stack goes through the divergence in one operator call —
    the batched analogue of Algorithm 2 keeping shared arrays resident
    across the tracer loop instead of re-dispatching per tracer.
    """
    return op.divergence_sphere(v[:, None] * qdp[..., None], geom)


def weighted_sum(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum(x * w)`` over the last two axes, the products laid out
    C-contiguous whatever the strides, so the sum over an element's
    points always runs in the same order — on a whole stack or on a
    gathered ``(k, n, n)`` subset of its element-levels alike."""
    return np.sum(np.multiply(x, w, order="C"), axis=(-2, -1))


def element_mass(qdp: np.ndarray, geom: ElementGeometry) -> np.ndarray:
    """Mass of (E, ..., n, n) tracer stacks per element (and middle axes)."""
    w = geom.spheremp[(slice(None),) + (None,) * (qdp.ndim - 3)]
    return weighted_sum(qdp, w)


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


def fixer_multiply(limited: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The global fixer's ``limited * scale[..., None, None]`` for a
    ``scale`` per tracer and level — or ``limited`` itself when every
    factor is the identity on its rows: 1.0 (``x * 1.0 = x`` for every
    ``x`` numpy arithmetic makes; a signalling NaN would come back
    quieted), or +0.0 on a row that is all +0.0."""
    rows = scale != 1.0
    if rows.any():
        s = scale[rows]
        if s.any() or np.signbit(s).any() or limited[:, rows].view(np.uint64).any():
            return limited * scale[None, ..., None, None]
    return limited


def _needs_limiting(qdp: np.ndarray, before: np.ndarray,
                    geom: ElementGeometry) -> np.ndarray:
    """The element-levels of ``qdp`` (mass ``before``) the clip and
    rescale would change: a sign bit set, a non-finite mass, or a zero
    mass over a value that is not +0.0."""
    needs = ~np.isfinite(before)
    sign = np.signbit(qdp)
    if sign.any():
        needs |= sign.any(axis=(-2, -1))
    # Without sign bits, a zero mass is a sum of +0.0 products; each
    # value is +0.0 too unless a weight below 1 rounds a positive
    # value's product to zero.
    blank = ~needs & (before == 0)
    if geom.spheremp.min() < 1.0 and blank.any():
        needs[blank] = qdp[blank].any(axis=(-2, -1))
    return needs


def limit_local(qdp: np.ndarray, geom: ElementGeometry) -> tuple[np.ndarray, ...]:
    """The elementwise half of the limiter (HOMME's limiter8 idea).

    Negatives are clipped and the clipped mass is removed proportionally
    from positive points of the same element and level; element-levels
    whose *total* went negative are zeroed.  Returns ``(limited, before,
    after)``, the last two the :func:`element_mass` a global fixer sums.
    Only the element-levels the pass changes take it (the module's
    identity rule); when there are none, ``limited`` is ``qdp`` itself
    and ``after`` is ``before``.
    """
    before = element_mass(qdp, geom)
    needs = _needs_limiting(qdp, before, geom)
    if not needs.any():
        return qdp, before, before
    idx = np.nonzero(needs)
    w = geom.spheremp[idx[0]]
    clipped = np.maximum(qdp[idx], 0.0)
    # Rescale positives to restore mass (only where there is any mass).
    scale = restoring_scale(before[idx], weighted_sum(clipped, w))
    clipped *= scale[:, None, None]
    limited, after = qdp.copy(), before.copy()
    limited[idx] = clipped
    after[idx] = weighted_sum(clipped, w)
    return limited, before, after


def ssp_stage1(qdp: np.ndarray, div, dt: float) -> np.ndarray:
    """SSP-RK2 stage 1 (pre-DSS): ``qdp + dt L(qdp)``, ``L = -div``,
    in place on the fresh ``div(qdp)``."""
    out = div(qdp)
    np.multiply(out, -dt, out=out)
    return np.add(qdp, out, out=out)


def ssp_stage2(qdp: np.ndarray, s1: np.ndarray, div, dt: float) -> np.ndarray:
    """SSP-RK2 stage 2 (pre-DSS): ``(qdp + s1 + dt L(s1)) / 2``, in place
    on the fresh ``div(s1)`` but for the one sum ``qdp + s1``."""
    out = div(s1)
    np.multiply(out, -dt, out=out)
    np.add(np.add(qdp, s1), out, out=out)
    out *= 0.5
    return out
