"""Ablation bench: the bndry_exchangev redesign (paper Section 7.6).

Quantifies the two design decisions on real partition halo graphs:

1. computation/communication overlap — "reduces the run time of HOMME
   by 23% in the best cases";
2. direct unpack vs pack-buffer staging — "reduce the run time of the
   dynamical core ... by another 30%" of the memory-copy time.
"""

import numpy as np
import pytest

from repro.homme.bndry import HaloExchanger
from repro.mesh import CubedSphereMesh, SFCPartition
from repro.network import SimMPI
from repro.perf.scaling import HommePerfModel


@pytest.fixture(scope="module")
def functional_setup():
    mesh = CubedSphereMesh(ne=8)
    part = SFCPartition(8, 16)
    hx = HaloExchanger(mesh, part)
    rng = np.random.default_rng(0)
    field = rng.standard_normal((mesh.nelem, 4, 4, 16))
    return mesh, hx, field


def _exchange(hx, field, mode):
    mpi = SimMPI(16)
    # Realistic compute attribution: boundary-heavy partition at ne8/16.
    outs, rep = hx.exchange(
        [(f,) for f in hx.scatter(field)], mpi, mode=mode,
        boundary_compute=[2e-4] * 16, inner_compute=[6e-4] * 16,
    )
    return rep


def test_functional_overlap_beats_classic(benchmark, functional_setup):
    mesh, hx, field = functional_setup
    rep_overlap = benchmark(_exchange, hx, field, "overlap")
    rep_classic = _exchange(hx, field, "classic")
    assert rep_overlap.max_time < rep_classic.max_time
    # Direct unpack halves the staging copies.
    assert rep_overlap.memcpy_seconds == pytest.approx(
        rep_classic.memcpy_seconds / 2
    )


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
