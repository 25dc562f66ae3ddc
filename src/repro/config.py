"""Run configurations (namelist-like) for model and experiment setups.

The paper's experiments are driven by the CAM-SE resolution parameter
``ne`` (spectral elements along each cube-face edge; Table 2 of the
paper), a vertical level count, a tracer count, and the process layout.
:class:`ModelConfig` captures these, provides the derived quantities
(element counts, timestep sizes, per-process work), and validates
consistency.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import constants as C
from .errors import ConfigurationError

# Paper Table 2: meshsize configurations.  ``ne`` -> total element count is
# always 6 * ne^2 horizontally; the paper uses 128 vertical levels.
PAPER_MESH_TABLE = {
    "ne64": 64,
    "ne256": 256,
    "ne512": 512,
    "ne1024": 1024,
    "ne2048": 2048,
    "ne4096": 4096,
}

#: CAM production resolutions referenced in the paper's SYPD results.
NAMED_RESOLUTIONS = {
    "ne30": 30,    # 100 km
    "ne120": 120,  # 25 km
    "ne256": 256,  # 12.5 km (NGGPS workload)
    "ne1024": 1024,  # ~3 km   (NGGPS extreme workload)
    "ne4096": 4096,  # ~750 m  (full-machine run)
}


def elements_for_ne(ne: int) -> int:
    """Total spectral elements on a cubed sphere with ``ne`` per face edge."""
    if ne < 2:
        raise ConfigurationError(f"ne must be >= 2, got {ne}")
    return 6 * ne * ne


def dt_dynamics_seconds(ne: int) -> float:
    """CFL-limited dynamics timestep [s] for resolution ``ne``.

    CAM-SE uses ~300 s at ne30 and scales timestep inversely with
    resolution (dt ~ dx).  This matches the configurations behind the
    paper's SYPD numbers (ne30: 21.5 SYPD, ne120: 3.4 SYPD).
    """
    return 300.0 * 30.0 / ne


@dataclass(frozen=True)
class ModelConfig:
    """A CAM-SE model configuration.

    Parameters
    ----------
    ne:
        Spectral elements along each cube-face edge.
    nlev:
        Vertical levels (128 in the paper's dycore experiments, 30 in the
        CAM validation runs).
    qsize:
        Number of advected tracers.
    np:
        GLL points per element edge (4 in production CAM-SE).
    tracer_subcycles:
        Tracer advection subcycles per dynamics step (3 in HOMME RK-SSP).
    physics:
        Whether the physics suite runs (whole-CAM experiments) or the
        configuration is dynamics-only (HOMME scaling experiments).
    """

    ne: int
    nlev: int = C.NLEV_PAPER
    qsize: int = C.QSIZE_CAM
    np: int = C.NP
    tracer_subcycles: int = C.TRACER_SUBCYCLES
    physics: bool = False

    def __post_init__(self) -> None:
        if self.ne < 2:
            raise ConfigurationError(f"ne must be >= 2, got {self.ne}")
        if self.nlev < 1:
            raise ConfigurationError(f"nlev must be >= 1, got {self.nlev}")
        if self.qsize < 0:
            raise ConfigurationError(f"qsize must be >= 0, got {self.qsize}")
        if self.np < 2:
            raise ConfigurationError(f"np must be >= 2, got {self.np}")
        if self.tracer_subcycles < 1:
            raise ConfigurationError(
                f"tracer_subcycles must be >= 1, got {self.tracer_subcycles}"
            )

    # -- derived sizes -----------------------------------------------------

    @property
    def nelem(self) -> int:
        """Total spectral elements (6 * ne^2)."""
        return elements_for_ne(self.ne)

    @property
    def columns(self) -> int:
        """Unique physics columns on the sphere.

        Each cube face contributes (ne*(np-1))^2 unique GLL columns after
        removing shared element edges; globally this is
        6*(ne*(np-1))^2 + 2 (the cube corners collapse).
        """
        n = self.ne * (self.np - 1)
        return 6 * n * n + 2

    @property
    def resolution_km(self) -> float:
        """Approximate equatorial grid spacing [km]."""
        return C.ne_resolution_km(self.ne)

    @property
    def dt_dynamics(self) -> float:
        """Dynamics timestep [s]."""
        return dt_dynamics_seconds(self.ne)

    @property
    def steps_per_day(self) -> int:
        """Dynamics steps per simulated day."""
        return int(round(C.SECONDS_PER_DAY / self.dt_dynamics))

    def dofs(self) -> int:
        """Total prognostic degrees of freedom (state variables x points)."""
        pts = self.nelem * self.np * self.np * self.nlev
        # u, v, T, dp3d plus qsize tracers
        return pts * (4 + self.qsize)

    # -- process layout ----------------------------------------------------

    def elements_per_process(self, nproc: int) -> int:
        """Elements on the busiest rank for an SFC partition over nproc."""
        if nproc < 1:
            raise ConfigurationError(f"nproc must be >= 1, got {nproc}")
        if nproc > self.nelem:
            raise ConfigurationError(
                f"{nproc} processes exceed {self.nelem} elements (ne={self.ne})"
            )
        return math.ceil(self.nelem / nproc)

    def with_(self, **kwargs) -> "ModelConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class RunConfig:
    """A single experiment run: a model configuration plus machine layout.

    ``nproc`` is the number of MPI processes; on TaihuLight each process
    maps to one core group (1 MPE + 64 CPEs), so the core count is
    ``nproc * 65`` — matching the paper's "155,000 processes =
    10,075,000 cores" arithmetic.
    """

    model: ModelConfig
    nproc: int
    backend: str = "athread"
    simulated_days: float = 7.0

    def __post_init__(self) -> None:
        if self.nproc < 1:
            raise ConfigurationError(f"nproc must be >= 1, got {self.nproc}")
        if self.nproc > self.model.nelem:
            raise ConfigurationError(
                f"{self.nproc} processes exceed {self.model.nelem} elements"
            )
        if self.backend not in ("intel", "mpe", "openacc", "athread"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.simulated_days <= 0:
            raise ConfigurationError("simulated_days must be positive")

    @property
    def total_cores(self) -> int:
        """Sunway cores engaged: 65 per process (1 MPE + 64 CPEs)."""
        return self.nproc * (C.SW_CPES_PER_CG + C.SW_MPES_PER_CG)

    @property
    def nodes(self) -> int:
        """SW26010 nodes engaged (4 CGs per node)."""
        return math.ceil(self.nproc / C.SW_CORE_GROUPS)
