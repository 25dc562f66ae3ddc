"""Bulk surface exchange coefficients of the Reed--Jablonowski (2012)
simplified boundary layer: wind-speed-dependent momentum drag and the
constant heat/moisture coefficient.
:class:`~repro.physics.simple_physics.SimplePhysics` applies them
(implicitly, so long physics steps stay stable).
"""

from __future__ import annotations

import numpy as np

#: Exchange coefficient pieces (RJ2012).
CD0 = 7.0e-4
CD1 = 6.5e-5
CD_MAX = 2.0e-3
CE = 1.1e-3  # heat/moisture exchange coefficient


def drag_coefficient(wind_speed: np.ndarray) -> np.ndarray:
    """Wind-dependent surface drag Cd = min(Cd0 + Cd1 |v|, Cd_max)."""
    return np.minimum(CD0 + CD1 * wind_speed, CD_MAX)
