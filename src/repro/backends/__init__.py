"""Execution backends: Intel / MPE / OpenACC / Athread.

The paper's contribution is not new numerics but new *executions* of
the same numerics.  Each backend here executes a kernel's workload
description against its hardware cost model, producing the simulated
timings that regenerate Table 1 and Figure 5:

- :mod:`~repro.backends.intel` — one Xeon E5-2680v3 core (the paper's
  reference);
- :mod:`~repro.backends.mpe` — the management core alone (the naive
  port: 2--10x slower than the Intel core);
- :mod:`~repro.backends.openacc` — the directive refactoring: 64 CPEs,
  but per-loop-nest copyin/copyout (re-read factors), compiler-limited
  vectorization, launch overheads, and Amdahl serialization on the
  vertically-dependent kernels;
- :mod:`~repro.backends.athread` — the fine-grained redesign: LDM-
  resident reuse, double-buffered DMA, manual vectorization, the
  register-communication scan and the shuffle transposition.

:mod:`~repro.backends.workloads` derives each Table-1 kernel's flop
and byte counts from the model configuration;
:mod:`~repro.backends.scan` and :mod:`~repro.backends.transpose` are
the functional implementations of the two Sunway-specific schemes
(Sections 7.4 and 7.5); the cycles they count on the CPE mesh are the
Athread backend's scan and transposition costs.

:mod:`~repro.backends.functional_exec` runs Algorithms 1 and 2 through
the simulated CPE (the paper's OpenACC-vs-Athread traffic comparison)
and holds the wall-clock dycore's kernel registry:
:func:`~repro.backends.functional_exec.homme_execution` resolves
``"fused"`` (production) or ``"batched"`` (reference) to the
implementation of every dycore kernel; a Hypothesis property in
``tests/test_exec_paths.py`` holds the two to 1e-12 on the same inputs.
"""

from .base import KernelWorkload, KernelReport, Backend
from .workloads import table1_workloads, workload_for
from .intel import IntelBackend
from .mpe import MPEBackend
from .openacc import OpenACCBackend
from .athread import AthreadBackend

ALL_BACKENDS = {
    "intel": IntelBackend,
    "mpe": MPEBackend,
    "openacc": OpenACCBackend,
    "athread": AthreadBackend,
}

__all__ = [
    "KernelWorkload",
    "KernelReport",
    "Backend",
    "table1_workloads",
    "workload_for",
    "IntelBackend",
    "MPEBackend",
    "OpenACCBackend",
    "AthreadBackend",
    "ALL_BACKENDS",
]
