"""Serial == distributed, bit for bit, at any rank count, any split of
the serial model into element blocks and any grouping of the ranks.

The exchange sums what ``CubedSphereMesh.dss`` sums in the same order
and the tracer mass fixer's global sums run in global element order, so
the only thing left that could tell a shard from the whole mesh is the
kernels' BLAS: a GEMM row must not depend on how many rows ride along.
:func:`blas_rows_stable` probes exactly that; the model-level tests skip
with its reason on a BLAS build where it does not hold.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.backends.functional_exec import homme_execution
from repro.config import ModelConfig
from repro.homme import timestep
from repro.homme.bndry import HaloExchanger
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.hypervis import nu_for_ne
from repro.homme.shallow_water import ShallowWaterModel
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.mesh.partition import SFCPartition
from repro.physics import PhysicsSuite

from .test_halo_plan import TRAILING, groupings, plan_dss, random_field, scatter
from .test_halo_plan import grouped as rank_grouped

EXEC_PATHS = ["fused", "batched"]

#: Forcings a primitive-equation layout draws (process names of a
#: ``PhysicsSuite``); Kessler needs the three water species.
FORCINGS = (None, ("held_suarez",), ("held_suarez", "kessler", "radiation"))

#: Elements per block the serial twin draws: one-element blocks, an
#: uneven split (7 blocks of the 96 at ne4, 4 of the 54 at ne3) and a
#: single block.
BLOCKS = (1, 14, None)

#: Ranks per group the distributed twin draws: every rank alone, about
#: three (an uneven grouping when three does not divide the rank count,
#: or the ranks differ in size) and all ranks in one group.
GROUPS = (1, 3, None)


def blas_rows_stable() -> bool:
    """Rows of an (M, 16) @ (16, 16) product do not depend on M, 2 <= M <= 64."""
    rng = np.random.default_rng(0)
    x, k = rng.standard_normal((64, 16)), rng.standard_normal((16, 16))
    whole = np.matmul(x, k)
    return all(np.matmul(x[lo:lo + m], k).tobytes() == whole[lo:lo + m].tobytes()
               for m in range(2, 65) for lo in (0, 64 - m))


needs_stable_rows = pytest.mark.skipif(
    not blas_rows_stable(),
    reason="this BLAS build's GEMM rows depend on the row count, so a "
           "shard's kernels cannot return the whole mesh's bits")

_meshes: dict[int, CubedSphereMesh] = {}


def mesh_of(ne: int) -> CubedSphereMesh:
    if ne not in _meshes:
        _meshes[ne] = CubedSphereMesh(ne)
    return _meshes[ne]


@pytest.mark.parametrize("nranks", [1, 2, 4, 6, 16, 24])
@pytest.mark.parametrize("ne", [2, 4, 8])
def test_exchange_is_the_serial_dss_bitwise(ne, nranks):
    """The shard tasks over the partition's plan, under every rank
    grouping, are the serial DSS bit for bit."""
    mesh = mesh_of(ne)
    hx = HaloExchanger(mesh, SFCPartition(ne, nranks))
    rng = np.random.default_rng(100 * ne + nranks)
    for trailing in TRAILING:
        f = random_field(rng, (mesh.nelem, mesh.np, mesh.np) + trailing)
        serial = mesh.dss(f).tobytes()
        locals_ = scatter(hx, f)
        for bounds in groupings(nranks):
            outs = plan_dss(hx, rank_grouped(locals_, bounds))
            got = np.concatenate([o for o, in outs])
            assert hx.gather(np.split(got, hx.elem_offsets[1:-1])).tobytes() == serial, (
                trailing, bounds)


def prim_setup(ne: int, nlev: int, qsize: int):
    mesh = mesh_of(ne)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    geom = ElementGeometry(mesh)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(ne)
    state.T = geom.dss(state.T + rng.standard_normal(state.T.shape))
    for q in range(qsize):
        # Not everywhere positive, so the limiter and its fixer have work.
        state.qdp[:, q] = geom.dss(
            (q + rng.standard_normal(state.T.shape)) * 1e-3 * state.dp3d)
    return cfg, mesh, state


def budget(state, elems):
    """The ``BLOCK_BYTES`` at which a block of ``state`` holds ``elems``
    elements."""
    return elems * max(a.nbytes // len(a) for a in vars(state).values())


def split_into_blocks(serial, per_block):
    """Re-split a one-shard model into element blocks of ``per_block``
    elements (None: one block) through the budget its constructor reads."""
    E = serial.mesh.nelem
    with mock.patch.object(timestep, "BLOCK_BYTES", budget(serial.state, per_block or E)):
        serial._split_blocks()
    assert len(serial.blocks) == -(-E // (per_block or E))


def grouped(state, nranks, per_group):
    """Patch the budget the distributed constructor reads so that its rank
    groups hold ``per_group`` average ranks' elements of ``state`` (1:
    every rank alone, None: one group)."""
    E = len(state.v)
    elems = {1: 1, None: E}.get(per_group) or per_group * E // nranks
    return mock.patch.object(timestep, "BLOCK_BYTES", budget(state, elems))


def serial_and_distributed(kind, ne, shape, exec_path, nranks, forcing=None,
                           nu=0.0, per_block=None, per_group=None):
    """Fresh (serial, distributed) twins of one configuration; ``forcing``
    names a ``PhysicsSuite`` (one each), ``nu`` the shallow-water
    hyperviscosity, ``per_block`` the serial model's elements per block,
    ``per_group`` the distributed model's ranks per group (its shards,
    fixed at construction)."""
    if kind == "sw":
        serial = ShallowWaterModel(mesh_of(ne), nu=nu, exec_path=exec_path)
        with grouped(serial.state, nranks, per_group):
            dist = DistributedShallowWater(mesh_of(ne), nranks, dt=serial.dt,
                                           nu=nu, exec_path=exec_path)
        names = ("h", "v")
    else:
        cfg, mesh, state = prim_setup(ne, *shape)
        serial = PrimitiveEquationModel(cfg, mesh, init=state.copy(), dt=600.0,
                                        forcing=forcing and PhysicsSuite(forcing),
                                        exec_path=exec_path)
        with grouped(state, nranks, per_group):
            dist = DistributedPrimitiveEquations(
                cfg, mesh, state.copy(), nranks=nranks, dt=600.0,
                exec_path=exec_path, forcing=forcing and PhysicsSuite(forcing))
        names = ("v", "T", "dp3d", "qdp")
    split_into_blocks(serial, per_block)
    if per_group in (1, None):
        assert len(dist.groups) == (nranks if per_group else 1)
    assert [r for r0, r1 in dist.groups for r in range(r0, r1)] == list(range(nranks))
    assert len(dist.states) == len(dist.geoms) == len(dist.groups)
    return serial, dist, names


def assert_same_bytes(serial, dist, names, steps):
    for _ in range(steps):
        serial.step()
    dist.run_steps(steps)
    got = dist.gather_state()
    for name in names:
        assert (getattr(got, name).tobytes()
                == getattr(serial.state, name).tobytes()), name


@st.composite
def layouts(draw):
    ne = draw(st.sampled_from([2, 3, 4]))
    # At least two elements per rank; shards are unequal unless nranks
    # divides 6 ne^2.
    nranks = draw(st.integers(1, 3 * ne * ne))
    return ne, nranks


@st.composite
def prim_configs(draw):
    """(nlev, qsize) and a forcing that shape can carry."""
    shape = draw(st.sampled_from([(1, 2), (3, 1), (4, 2), (9, 1), (3, 0), (4, 3)]))
    forcing = draw(st.sampled_from(FORCINGS if shape[1] >= 3 else FORCINGS[:2]))
    return shape, forcing


@needs_stable_rows
@pytest.mark.parametrize("exec_path", EXEC_PATHS)
@given(layout=layouts(), steps=st.integers(1, 3), hyperviscous=st.booleans(),
       per_block=st.sampled_from(BLOCKS), per_group=st.sampled_from(GROUPS))
@settings(max_examples=8, deadline=None)
def test_sw_gathered_state_is_the_serial_models_bytes(exec_path, layout, steps,
                                                      hyperviscous, per_block,
                                                      per_group):
    ne, nranks = layout
    nu = nu_for_ne(ne) if hyperviscous else 0.0
    assert_same_bytes(
        *serial_and_distributed("sw", ne, None, exec_path, nranks, nu=nu,
                                per_block=per_block, per_group=per_group), steps)


@needs_stable_rows
@pytest.mark.parametrize("exec_path", EXEC_PATHS)
@given(layout=layouts(), steps=st.integers(1, 3),  # the third step remaps
       config=prim_configs(), per_block=st.sampled_from(BLOCKS),
       per_group=st.sampled_from(GROUPS))
# No tracers at all, in one-element blocks, every rank alone.
@example(layout=(2, 5), steps=3, config=((3, 0), None), per_block=1, per_group=1)
@example(layout=(2, 5), steps=3, config=((3, 1), None), per_block=None,
         per_group=None)  # a stack of one, one rank group
# The whole suite, in four uneven blocks and uneven rank groups.
@example(layout=(3, 7), steps=3, config=((4, 3), FORCINGS[2]), per_block=14,
         per_group=3)
@settings(max_examples=8, deadline=None)
def test_prim_gathered_state_is_the_serial_models_bytes(exec_path, layout,
                                                        steps, config, per_block,
                                                        per_group):
    ne, nranks = layout
    shape, forcing = config
    assume(shape[0] > 1 or steps < 3)  # one level cannot be remapped
    assert_same_bytes(
        *serial_and_distributed("prim", ne, shape, exec_path, nranks, forcing,
                                per_block=per_block, per_group=per_group),
        steps)


@needs_stable_rows
@pytest.mark.parametrize("exec_path", EXEC_PATHS)
def test_one_element_single_level_shards(exec_path):
    """A one-element shallow-water shard hands the fused kernels a single
    (1, 16) row, which BLAS would take down its vector-matrix path;
    ``OperatorTensors._gemm`` keeps it on the GEMM's."""
    assert_same_bytes(
        *serial_and_distributed("sw", 2, None, exec_path, nranks=24), steps=3)


@needs_stable_rows
@pytest.mark.parametrize("exec_path", EXEC_PATHS)
def test_a_shards_tracer_tendency_is_the_whole_meshs_rows(exec_path):
    """The tracer tendency is element-local: a rank that advects its own
    (E_r, Q, L, n, n) stack gets the rows the serial model computes."""
    _, mesh, state = prim_setup(3, nlev=4, qsize=3)
    tendency = homme_execution(exec_path).tracer_tendency
    whole = tendency(state.v, ElementGeometry(mesh))(state.qdp)
    part = SFCPartition(3, 5)
    for elems in map(part.rank_elements, range(5)):
        shard = tendency(state.v[elems], ElementGeometry(mesh, elems))
        assert shard(state.qdp[elems]).tobytes() == whole[elems].tobytes()
