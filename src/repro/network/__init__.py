"""TaihuLight interconnect model and simulated MPI.

The machine's two-level network (paper Section 5.1) — 256-node
supernodes fully connected through a customized network board, with
central switches above — is modeled by :mod:`~repro.network.topology`.
Message costs follow an alpha-beta model with distinct intra/inter-
supernode parameters (:mod:`~repro.network.costmodel`).  On top sits
:class:`~repro.network.simmpi.SimMPI`, per-rank simulated clocks that
charge a whole halo exchange in one call, with the
computation/communication overlap the redesigned ``bndry_exchangev``
exploits.
"""

from .topology import TaihuLightTopology
from .costmodel import NetworkCostModel
from .simmpi import SimMPI

__all__ = ["TaihuLightTopology", "NetworkCostModel", "SimMPI"]
