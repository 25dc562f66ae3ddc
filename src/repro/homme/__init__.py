"""The HOMME / CAM-SE spectral-element dynamical core.

Real numerics for every kernel in the paper's Table 1.  The step's
kernels are the phases of one step recipe, :mod:`~repro.homme.timestep`
(``prim_run``, written once and run by the whole-mesh and the
rank-distributed models alike), over element-local pieces:

- ``compute_and_apply_rhs`` — an RK stage of the recipe over
  :mod:`~repro.homme.rhs`: the hydrostatic primitive equations on
  floating Lagrangian levels (vector-invariant momentum, layer
  continuity, thermodynamic equation), including the vertical pressure
  scan the register-communication scheme parallelizes;
- ``euler_step`` — ``euler_step_subcycled`` over
  :mod:`~repro.homme.euler`: SSP-RK2 tracer advection with a monotone
  limiter, subcycled 3x per dynamics step;
- ``hypervis_dp1/dp2`` and ``biharmonic_dp3d`` — ``advance_hypervis``
  with the coefficients of :mod:`~repro.homme.hypervis`: hyperviscosity
  on v, T and dp3d via repeated weak Laplacians with DSS;
- :mod:`~repro.homme.remap` — ``vertical_remap``: conservative monotone
  PPM remap back to reference hybrid levels;
- :mod:`~repro.homme.bndry` — ``bndry_exchangev``: the halo exchange in
  both the classic (pack-buffer, no overlap) and redesigned
  (inner/boundary split, overlap, direct unpack) forms;
- :mod:`~repro.homme.shallow_water` — a shallow-water mode used to
  verify the spectral operators against analytic solutions.

Execution paths.  Every model runs the *fused* kernels by default
(:mod:`~repro.homme.fused`): each chain — RHS, weak/vector Laplacian,
tracer stage — is one pass of BLAS contractions against per-mesh
operands with the metric scalings folded in, the Python-level analogue
of the paper's fine-grained Athread rewrite.  The *batched* kernels
(:mod:`~repro.homme.operators` composed term by term in
:mod:`~repro.homme.rhs`, :mod:`~repro.homme.euler`,
:mod:`~repro.homme.shallow_water`) are the named reference: whole
stacked ``(nelem, ..., np, np)`` arrays per operator call, reading the
operator tensors cached on the geometry (:mod:`~repro.homme.tensors`;
geometry and tensors are read-only from construction).  Both sets
compute in float64 and take their fields and a geometry, nothing else;
a Hypothesis property holds them to 1e-12 of each other
(``tests/test_exec_paths.py``) and ``repro.bench`` times them against
each other; ``exec_path`` on the model classes names one, resolved by
:func:`repro.backends.functional_exec.homme_execution`.
"""

from .element import ElementGeometry, ElementState
from .timestep import PrimitiveEquationModel

__all__ = ["ElementGeometry", "ElementState", "PrimitiveEquationModel"]
