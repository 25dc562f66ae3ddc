"""Test oracle: the tracer step's passes as plain whole-stack expressions.

:func:`limit_local` is the three-pass limiter — clip, re-mass, rescale,
re-mass — over every element-level; :func:`ssp_stage1`,
:func:`ssp_stage2` and :func:`fixer_multiply` are the SSP-RK2 stages and
the global fixer's multiply as they read before the tracer step stopped
running passes whose result is known (:mod:`repro.homme.euler`).  The
production functions must return these bytes, signed zeros included
(``tests/test_euler_passes.py``).  ``adv`` is the advective tendency,
``-div(v qdp)``.
"""

import numpy as np


def element_mass(qdp, geom):
    """Per element-level ``sum(qdp * spheremp)``, products C-ordered."""
    w = geom.spheremp[(slice(None),) + (None,) * (qdp.ndim - 3)]
    return np.sum(np.multiply(qdp, w, order="C"), axis=(-2, -1))


def limit_local(qdp, geom):
    """``(limited, before, after)`` by the full clip-and-restore pass on
    every element-level."""
    mass_before = element_mass(qdp, geom)
    clipped = np.maximum(qdp, 0.0)
    mass_clipped = element_mass(clipped, geom)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(mass_clipped > 0, mass_before / mass_clipped, 0.0)
    limited = clipped * np.clip(scale, 0.0, None)[..., None, None]
    return limited, mass_before, element_mass(limited, geom)


def ssp_stage1(qdp, adv, dt):
    """``qdp + dt L(qdp)``."""
    return qdp + dt * adv(qdp)


def ssp_stage2(qdp, s1, adv, dt):
    """``(qdp + s1 + dt L(s1)) / 2``."""
    return 0.5 * (qdp + s1 + dt * adv(s1))


def fixer_multiply(limited, scale):
    """``limited`` times a (Q, L) ``scale``."""
    return limited * scale[None, ..., None, None]
