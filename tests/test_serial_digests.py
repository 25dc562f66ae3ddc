"""Serial trajectories pinned bit for bit.

The distributed models are held to the serial ones byte for byte
(``tests/test_halo_plan.py``, ``tests/test_layout_equality.py``), so
these digests pin every model: a change to ``CubedSphereMesh.dss``,
``ElementGeometry.dss`` or a kernel set that moves one
bit of a whole-mesh trajectory fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import ShallowWaterModel
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh

#: sha256 of the state after 3 steps at ne4 (the third step of the
#: primitive equations runs ``vertical_remap``; shallow water runs with
#: hyperviscosity on, so the 4-D vector DSS is covered), recorded with
#: numpy 2.4.6.  Kernel rounding is BLAS-build specific, so other numpy
#: builds skip.
PINNED_NUMPY = "2.4.6"
PINNED = {
    ("sw", "batched"): "28c7603b0d887fb23fd0c21e1c5b7b59a7f9a3fde2ae512155350eb0db234571",
    ("sw", "fused"): "2d1ec5c3304290a83f1d2a84fc28a3d019d2f3ca3b33f38419bdc7df1c7028c1",
    ("prim", "batched"): "967766c62ce995ae0cfd6669a538f289d604907c463456068cbf60b6fe1f72f2",
    ("prim", "fused"): "164cfe3018d144721aef76cea96b787551368b7b736357c076b97ac35f9c9825",
}


def state_digest(state, names):
    h = hashlib.sha256()
    for name in names:
        h.update(np.ascontiguousarray(getattr(state, name)).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def mesh():
    return CubedSphereMesh(4)


@pytest.mark.parametrize("exec_path", ["batched", "fused"])
@pytest.mark.parametrize("kind", ["sw", "prim"])
def test_serial_trajectory_digest_is_pinned(mesh, kind, exec_path):
    if kind == "sw":
        model = ShallowWaterModel(mesh, nu=1.0e15, exec_path=exec_path)
        names = ("h", "v")
    else:
        cfg = ModelConfig(ne=4, nlev=8, qsize=2)
        geom = ElementGeometry(mesh)
        state = ElementState.isothermal_rest(geom, cfg)
        rng = np.random.default_rng(0)
        state.T = geom.dss(state.T + rng.standard_normal(state.T.shape))
        state.qdp[:, 0] = 1e-3 * state.dp3d
        state.qdp[:, 1] = 2e-3 * state.dp3d
        model = PrimitiveEquationModel(cfg, mesh, init=state, dt=600.0,
                                       exec_path=exec_path)
        names = ("v", "T", "dp3d", "qdp")
    for _ in range(3):
        model.step()
    assert np.isfinite(model.state.v).all()
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"digests recorded with numpy {PINNED_NUMPY}")
    assert state_digest(model.state, names) == PINNED[kind, exec_path]
