"""repro — a laptop-scale reproduction of "Redesigning CAM-SE for
Peta-Scale Climate Modeling Performance and Ultra-High Resolution on
Sunway TaihuLight" (Fu et al., SC 2017).

The package builds every system the paper depends on:

- :mod:`repro.sunway` — a functional + performance-model simulator of the
  SW26010 many-core processor (LDM scratchpads, DMA, register
  communication, 256-bit vectors with shuffle);
- :mod:`repro.network` — the TaihuLight two-level interconnect and a
  simulated MPI with computation/communication overlap;
- :mod:`repro.mesh` — the cubed-sphere spectral-element mesh, SFC
  partitioning and halo graphs;
- :mod:`repro.homme` — the CAM-SE/HOMME dynamical core kernels
  (compute_and_apply_rhs, euler_step, vertical_remap, hyperviscosity,
  biharmonic, bndry_exchangev) with real numerics;
- :mod:`repro.physics` — a simplified CAM physics suite;
- :mod:`repro.backends` — the Intel / MPE / OpenACC / Athread execution
  models, the paper's central contribution;
- :mod:`repro.core` — the refactoring toolchain (loop IR, translator,
  footprint analysis, LDM tiling, roofline projection);
- :mod:`repro.perf`, :mod:`repro.baselines`, :mod:`repro.katrina`,
  :mod:`repro.experiments` — performance models, NGGPS baselines, the
  Katrina experiment, and one driver per paper table/figure;
- :mod:`repro.bench` — the deterministic benchmark suite and
  regression gate (fused vs batched dycore kernels on the wall clock,
  Table-1 kernels on the simulated clock, compared against the
  committed ``BENCH_homme.json`` baseline).

Quickstart::

    from repro.config import ModelConfig
    from repro.homme.timestep import PrimitiveEquationModel

    model = PrimitiveEquationModel(ModelConfig(ne=6, nlev=8, qsize=2))
    model.run_steps(10)
    print(model.diagnostics())
"""

__version__ = "1.0.0"

from . import constants
from .config import ModelConfig, RunConfig

__all__ = ["constants", "ModelConfig", "RunConfig", "__version__"]
