"""Ablation bench: the bndry_exchangev redesign (paper Section 7.6).

Quantifies the two design decisions on real partition halo graphs:

1. computation/communication overlap — "reduces the run time of HOMME
   by 23% in the best cases";
2. direct unpack vs pack-buffer staging — "reduce the run time of the
   dynamical core ... by another 30%" of the memory-copy time.
"""

import pytest

from repro.homme.bndry import HaloExchanger
from repro.mesh import CubedSphereMesh, SFCPartition
from repro.network import SimMPI
from repro.perf.scaling import HommePerfModel


@pytest.fixture(scope="module")
def functional_setup():
    mesh = CubedSphereMesh(ne=8)
    part = SFCPartition(8, 16)
    return mesh, HaloExchanger(mesh, part)


def _exchange(hx, mode):
    """One exchange of a 16-level field's rows over 16 ranks: the
    slowest rank's simulated time and the memcpy seconds charged."""
    mpi = SimMPI(16)
    # Realistic compute attribution: boundary-heavy partition at ne8/16.
    memcpy = hx.exchange(
        mpi, 8 * 16, mode=mode,
        boundary_compute=[2e-4] * 16, inner_compute=[6e-4] * 16,
    )
    return mpi.max_time(), memcpy


def test_functional_overlap_beats_classic(benchmark, functional_setup):
    mesh, hx = functional_setup
    overlap_time, overlap_memcpy = benchmark(_exchange, hx, "overlap")
    classic_time, classic_memcpy = _exchange(hx, "classic")
    assert overlap_time < classic_time
    # Direct unpack halves the staging copies.
    assert overlap_memcpy == pytest.approx(classic_memcpy / 2)


def test_model_scale_overlap_gain(benchmark):
    """At the paper's scale the overlap redesign buys ~10-25% of the
    step (23% 'in the best cases')."""

    def gains():
        out = []
        for ne, nproc in ((256, 65536), (256, 131072), (1024, 131072)):
            on = HommePerfModel(ne, nproc, overlap=True).step_seconds
            off = HommePerfModel(ne, nproc, overlap=False).step_seconds
            out.append((off - on) / off)
        return out

    result = benchmark(gains)
    assert max(result) > 0.03
    assert all(g >= 0 for g in result)
