"""Simplified CAM physics suite.

The paper's "physics part" is the CAM5 parameterization package —
hundreds of column schemes.  For the reproduction, we build the
structurally equivalent substitute: a set of column-parallel processes
with the same phase structure (dynamics / physics alternation, no halo
communication inside physics):

- :mod:`~repro.physics.held_suarez` — the Held--Suarez (1994) dry-core
  forcing used for the climatology validation experiment (Figure 4);
- :mod:`~repro.physics.kessler` — Kessler warm-rain microphysics;
- :mod:`~repro.physics.radiation` — grey-gas two-stream longwave
  radiation (Frierson-style);
- :mod:`~repro.physics.pbl` — the bulk surface exchange coefficients;
- :mod:`~repro.physics.simple_physics` — the Reed--Jablonowski (2012)
  simplified moist physics (surface drag/fluxes + large-scale
  condensation), the standard package for idealized tropical-cyclone
  tests and the engine of the Katrina experiment (Figure 9);
- :mod:`~repro.physics.suite` — the driver that sequences processes
  each physics step.
"""

from .held_suarez import held_suarez_forcing
from .suite import PhysicsSuite

__all__ = ["held_suarez_forcing", "PhysicsSuite"]
