"""The flat exchange plan of ``HaloExchanger`` against the per-call oracle.

The plan must reproduce the oracle (``tests/halo_oracle.py``: per-rank
``np.unique`` + ``np.add.at`` + per-peer ``np.isin``) bit for bit:
outputs through the shard tasks the layouts run (:func:`plan_dss`),
and every simulated clock, counter and span through
``HaloExchanger.exchange``.  Every layout's DSS, vectors crossing as
Cartesian planes, is the whole-mesh oracle's bit for bit, and one DSS
allocates what the plane form needs.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.bndry import MEMCPY_BANDWIDTH, HaloExchanger
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme import timestep
from repro.homme.element import ElementGeometry, ElementState, levels_first, levels_last
from repro.homme.shallow_water import ShallowWaterModel, williamson2_initial
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.mesh.partition import SFCPartition
from repro.network.simmpi import SimMPI
from repro.obs.tracer import Tracer
from repro.parallel import dycore
from repro.resilience.faults import FaultInjector

from .dss_oracle import dss_vector, to_cartesian
from .halo_oracle import oracle_exchange, whole_plan_assemble

TRAILING = [(), (1,), (3,), (16, 3)]
MODES = ["classic", "overlap"]


@pytest.fixture(scope="module")
def meshes():
    return {ne: CubedSphereMesh(ne) for ne in (2, 4, 8)}


def random_field(rng, shape):
    """Normal values salted with +0.0, -0.0 and subnormals."""
    f = rng.standard_normal(shape)
    kind = rng.random(shape)
    f[kind < 0.1] = 0.0
    f[(kind >= 0.1) & (kind < 0.2)] = -0.0
    f[(kind >= 0.2) & (kind < 0.3)] *= 1e-310
    return f


def scatter(hx, *fields):
    """Per-rank tuples of the ranks' slices of whole-mesh ``fields``."""
    return list(zip(*map(hx.scatter, fields)))


def groupings(nranks):
    """Rank-group bounds an exchange is run under: every rank alone, one
    group of all ranks, and an uneven split (6 ranks as 1 + 3 + 2)."""
    first = -(-nranks // 6)
    return sorted({tuple(range(nranks + 1)), (0, nranks),
                   tuple(sorted({0, first, first + nranks // 2, nranks}))},
                  key=len, reverse=True)


def grouped(locals_, bounds):
    """Per-group tuples: each field of ranks ``lo..hi-1`` concatenated."""
    if len(bounds) == len(locals_) + 1:
        return locals_
    return [tuple(map(np.concatenate, zip(*locals_[lo:hi])))
            for lo, hi in zip(bounds, bounds[1:])]


def plan_dss(hx, shards):
    """The DSS the layouts run, of per-shard tuples of (E_s, np, np, *t)
    fields — consecutive runs of plan elements covering the plan in
    order: every shard's :func:`dycore.pack_task` into one flat buffer,
    then every shard's :func:`dycore.sum_task`, on shard geometries that
    carry their ``dss_plan``.  A field crosses in the levels-first form
    the primitive-equation layouts hand over — an (E_s, K, np, np) view,
    K the product of ``t`` — and comes back as its sum: C-contiguous in
    that form, viewed in the input shape."""
    ends = np.cumsum([len(fields[0]) for fields in shards]).tolist()
    plan_geom = ElementGeometry(hx.mesh, hx.plan_elems)
    geoms = []
    for lo, hi in zip([0, *ends], ends):
        g = plan_geom.rows(lo, hi)
        g.dss_plan = hx.shard_plan(lo, hi)
        geoms.append(g)
    ins = [tuple(np.moveaxis(f.reshape(*f.shape[:3], -1), 3, 1) for f in fields)
           for fields in shards]
    k = len(ins[0])
    meta = {"task": None, "post": None, "levels": True, "fold": False,
            "nin": k, "nout": k, "npost": 0,
            "cols": dycore.dss_columns(ins[0], levels=True, fold=False)}
    buf = np.empty(hx.mesh.nelem * hx.mesh.np ** 2 * meta["cols"])
    for g, fields in zip(geoms, ins):
        dycore.pack_task(g, meta, *fields, buf)
    outs = []
    for g, fields, like in zip(geoms, ins, shards):
        sums = dycore.sum_task(g, meta, *fields, buf)
        assert all(o.flags.c_contiguous for o in sums)
        outs.append(tuple(np.moveaxis(o, 1, 3).reshape(f.shape)
                          for o, f in zip(sums, like)))
    return outs


def row_bytes(fields):
    """The bytes of one row of a bundle shaped like ``fields``."""
    return 8 * sum(math.prod(f.shape[3:]) for f in fields)


def events(mpi):
    return [(e.track, e.name, e.cat, e.ph, e.ts, e.dur, e.args)
            for e in mpi.tracer.recorder.events]


def assert_same_exchange(mesh, part, hx, locals_, mode, make_mpi, tag=7):
    """Run the oracle per rank, the plan's data path under every rank
    grouping and its clock on a communicator of its own; compare
    everything.  Returns the communicators of the plan and of the oracle."""
    nranks, off = part.nranks, hx.elem_offsets
    bc = [1e-4 * (r + 1) for r in range(nranks)]
    ic = [3e-4] * nranks
    mpi_oracle = make_mpi()
    expected, memcpy = oracle_exchange(mesh, part, locals_, mpi_oracle, mode,
                                       bc, ic, tag)
    for bounds in groupings(nranks):
        outs = plan_dss(hx, grouped(locals_, bounds))
        assert len(outs) == len(bounds) - 1
        for lo, hi, group in zip(bounds, bounds[1:], outs):
            for r in range(lo, hi):
                got = [o[off[r] - off[lo]:off[r + 1] - off[lo]] for o in group]
                assert len(got) == len(expected[r])
                for a, b in zip(got, expected[r]):
                    assert a.shape == b.shape
                    assert a.tobytes() == b.tobytes(), f"rank {r} differs, {bounds}"
    mpi_plan = make_mpi()
    assert hx.exchange(mpi_plan, row_bytes(locals_[0]), mode=mode,
                       boundary_compute=bc, inner_compute=ic, tag=tag) == memcpy
    clocks = [mpi_plan.now(r) for r in range(nranks)]
    assert clocks == [mpi_oracle.now(r) for r in range(nranks)]
    for name in ("comm_seconds", "messages_sent", "bytes_sent",
                 "messages_dropped", "messages_delayed", "retransmissions"):
        assert getattr(mpi_plan, name) == getattr(mpi_oracle, name), name
    if mpi_plan.tracer.enabled:
        assert events(mpi_plan) == events(mpi_oracle)
    return mpi_plan, mpi_oracle


@pytest.mark.parametrize("nranks", [1, 2, 4, 6, 16, 24])
@pytest.mark.parametrize("ne", [2, 4, 8])
def test_plan_equals_oracle_bitwise(meshes, ne, nranks):
    mesh, part = meshes[ne], SFCPartition(ne, nranks)
    hx = HaloExchanger(mesh, part)
    rng = np.random.default_rng(100 * ne + nranks)
    for trailing in TRAILING:
        f = random_field(rng, (mesh.nelem, mesh.np, mesh.np) + trailing)
        for mode in MODES:
            assert_same_exchange(mesh, part, hx, scatter(hx, f), mode,
                                 lambda: SimMPI(nranks))


@pytest.mark.parametrize("mode", MODES)
def test_plan_equals_oracle_under_drops_and_delays(meshes, mode):
    mesh, part = meshes[4], SFCPartition(4, 6)
    hx = HaloExchanger(mesh, part)
    rng = np.random.default_rng(3)
    fields = [random_field(rng, (mesh.nelem, 4, 4) + t) for t in ((3,), ())]

    def make_mpi():
        faults = FaultInjector(seed=11, drop_messages=(0, 5), drop_probability=0.2,
                               delay_messages={2: 1e-3, 9: 5e-4},
                               laggards={1: 2.0})
        return SimMPI(part.nranks, faults=faults)

    mpi, _ = assert_same_exchange(mesh, part, hx, scatter(hx, *fields), mode,
                                  make_mpi)
    assert mpi.retransmissions >= 2 and mpi.messages_delayed >= 1


@pytest.mark.parametrize("mode", MODES)
def test_plan_emits_the_oracle_span_sequence(meshes, mode):
    mesh, part = meshes[4], SFCPartition(4, 4)
    hx = HaloExchanger(mesh, part)
    rng = np.random.default_rng(4)
    fields = [random_field(rng, (mesh.nelem, 4, 4) + t) for t in ((2,), (3, 2))]
    plan, oracle = map(events, assert_same_exchange(
        mesh, part, hx, scatter(hx, *fields), mode,
        lambda: SimMPI(part.nranks, tracer=Tracer("t"))))
    assert plan == oracle
    assert {"pack", "send", "unpack", "mpi.isend", "mpi.wait"} <= {e[1] for e in plan}


def test_public_tables_keep_their_meaning(meshes):
    """Each rank's messages are the oracle's: its peers in rank order, and
    per peer the rows it sends (its points whose gid the peer touches)
    and receives (the peer's points whose gid it touches)."""
    mesh, part = meshes[4], SFCPartition(4, 6)
    hx = HaloExchanger(mesh, part)
    gids = [mesh.gid[part.rank_elements(r)].reshape(-1) for r in range(6)]
    uniq = [np.unique(g) for g in gids]
    for a in range(6):
        expected = [(b, np.isin(gids[a], uniq[b]).sum(), np.isin(gids[b], uniq[a]).sum())
                    for b in range(6)
                    if b != a and len(np.intersect1d(uniq[a], uniq[b]))]
        assert hx._messages[a] == expected
        assert all(sent > 0 and got > 0 for _, sent, got in expected)


class TestBoundaryValidation:
    @pytest.fixture(scope="class")
    def hx(self):
        mesh = CubedSphereMesh(2)
        return HaloExchanger(mesh, SFCPartition(2, 4))

    def test_numpy_cost_arrays_are_accepted(self, hx):
        costs = np.full(4, 1e-3)
        mpi = SimMPI(4)
        hx.exchange(mpi, 8, boundary_compute=costs, inner_compute=costs)
        assert min(mpi.now(r) for r in range(4)) >= 2e-3

    @pytest.mark.parametrize("arg", ["boundary_compute", "inner_compute"])
    def test_wrong_length_cost_list(self, hx, arg):
        with pytest.raises(KernelError, match=f"{arg} has 3 entries"):
            hx.exchange(SimMPI(4), 8, **{arg: [0.0] * 3})

    @pytest.mark.parametrize("arg", ["boundary_compute", "inner_compute"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_a_bad_cost_is_refused_before_any_clock_moves(self, hx, arg, mode, bad):
        mpi = SimMPI(4)
        costs = [0.0] * 4
        costs[1] = bad
        with pytest.raises(KernelError, match=f"{arg} for rank 1 is"):
            hx.exchange(mpi, 8, mode=mode, **{arg: costs})
        assert [mpi.now(r) for r in range(4)] == [0.0] * 4
        assert mpi.comm_seconds == [0.0] * 4
        assert (mpi.messages_sent, mpi.bytes_sent) == (0, 0)

    @pytest.mark.parametrize("mode", MODES)
    def test_row_bytes_charge_what_the_fields_would(self, hx, mode):
        """Given a row's bytes, the exchange charges the clocks, memcpy
        and counters the oracle charges for fields of that row width."""
        costs = [1e-4, 2e-4, 0.0, 3e-4]
        mpis = SimMPI(4), SimMPI(4)
        fields = scatter(hx, np.ones((hx.mesh.nelem, 4, 4, 3)))
        _, memcpy = oracle_exchange(hx.mesh, hx.part, fields, mpis[0], mode,
                                    boundary_compute=costs, tag=5)
        assert hx.exchange(mpis[1], 24, mode=mode, boundary_compute=costs,
                           tag=5) == memcpy
        assert [mpis[0].now(r) for r in range(4)] == [mpis[1].now(r) for r in range(4)]
        for name in ("comm_seconds", "messages_sent", "bytes_sent"):
            assert getattr(mpis[0], name) == getattr(mpis[1], name), name

    def test_received_payload_shape_is_checked_in_full(self, hx):
        """A message with the right row count but twice the width — the
        sender lists twice the rows rank 0 expects — is refused by its
        size."""
        mpi = SimMPI(4)
        p, _, rows = hx._messages[0][0]
        messages = [list(m) for m in hx._messages]
        messages[p] = [(q, 2 * sent if q == 0 else sent, got)
                       for q, sent, got in messages[p]]
        with pytest.raises(KernelError,
                           match=f"rank 0: halo message from rank {p} has "
                                 f"{rows * 16} bytes, expected {rows * 8}"):
            mpi.neighbor_exchange(messages, 8, [0.0] * 4, [0.0] * 4, copies=1,
                                  bandwidth=MEMCPY_BANDWIDTH, tag=9)


def test_communicator_holds_no_per_tag_state_after_many_exchanges():
    """Nothing a communicator holds grows with the exchanges it charges,
    each under a fresh tag, lost messages included."""
    mesh = CubedSphereMesh(2)
    hx = HaloExchanger(mesh, SFCPartition(2, 4))
    mpi = SimMPI(4, faults=FaultInjector(seed=1, drop_probability=0.1))

    def sizes():
        return {k: len(v) for k, v in vars(mpi).items()
                if isinstance(v, (dict, list))}
    hx.exchange(mpi, 8, tag=0)
    first = sizes()
    for tag in range(1, 200):
        hx.exchange(mpi, 8, tag=tag)
    assert mpi.retransmissions > 0
    assert sizes() == first


# -- bundles ------------------------------------------------------------------

@pytest.mark.parametrize("nranks", [1, 4, 16])
@pytest.mark.parametrize("ne", [2, 4, 8])
@pytest.mark.parametrize("mode", MODES)
def test_a_bundle_is_its_fields_exchanged_one_by_one(meshes, ne, nranks, mode):
    """One DSS of three fields returns the bytes of three single-field
    DSSes, and its exchange sends one message per ordered peer pair
    carrying all of them."""
    mesh, part = meshes[ne], SFCPartition(ne, nranks)
    hx = HaloExchanger(mesh, part)
    rng = np.random.default_rng(10 * ne + nranks)
    fields = [random_field(rng, (mesh.nelem, mesh.np, mesh.np) + t)
              for t in ((), (3,), (16, 3))]
    outs = plan_dss(hx, scatter(hx, *fields))
    bundle = SimMPI(nranks)
    hx.exchange(bundle, row_bytes(fields), mode=mode)
    nbytes = 0
    for k, f in enumerate(fields):
        single = plan_dss(hx, scatter(hx, f))
        mpi = SimMPI(nranks)
        hx.exchange(mpi, row_bytes([f]), mode=mode)
        assert mpi.messages_sent == bundle.messages_sent
        nbytes += mpi.bytes_sent
        for r in range(nranks):
            assert outs[r][k].shape == f[hx.rank_elems[r]].shape
            assert outs[r][k].tobytes() == single[r][0].tobytes(), (k, r)
    assert bundle.messages_sent == sum(map(len, hx._messages))
    assert bundle.bytes_sent == nbytes


def test_a_ranks_bundled_outputs_share_no_memory():
    """Each field of a layout's DSS comes back in its own array: a kept
    field must not hold the whole bundle alive (peak RSS).  The one-shard
    layout in two blocks, and the four-rank twin."""
    mesh = CubedSphereMesh(4)
    cfg = ModelConfig(ne=4, nlev=8, qsize=1)
    state = ElementState.isothermal_rest(ElementGeometry(mesh), cfg)
    serial = PrimitiveEquationModel(cfg, mesh, init=state, dt=600.0)
    serial.blocks = [(lo, hi, serial.geom.rows(lo, hi)) for lo, hi in ((0, 40), (40, 96))]
    twin = DistributedPrimitiveEquations(cfg, mesh, state, nranks=4, dt=600.0)
    for model in (serial, twin):
        bundle = [(s.T, s.v, s.dp3d) for s in model.states]
        outs = model._fanout_dss(None, {}, bundle, stage=0, slot=0)
        assert len(outs) == len(bundle)
        for got in outs:
            assert len(got) == 3
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not np.shares_memory(got[i], got[j]), (i, j)


# -- whole trajectories -------------------------------------------------------

#: (max_rank_time, messages, bytes) after 3 steps (ne4, 4 ranks).  Both
#: moved when each synchronisation point's fields began to travel in one
#: exchange (one message per neighbour) and the limiter's two mass sums in
#: one allreduce: "sw" from (0.004322007272727276, 216, 121536), "prim"
#: from (0.00012291200000000025, 864, 3484032) — half the messages and
#: latencies for sw, 504/864 for prim, the same bytes.
PINNED_CLOCKS = {"sw": (0.0021620072727272736, 108, 121536),
                 "prim": (9.134109090909098e-05, 504, 3484032)}


@pytest.mark.parametrize("exec_path", ["batched", "fused"])
@pytest.mark.parametrize("kind", ["sw", "prim"])
def test_trajectory_digest_is_the_parents(meshes, kind, exec_path):
    """A distributed model's parent is the serial model it partitions:
    three steps of either leave the same bytes, and the simulated clocks
    and counters are the pinned ones."""
    mesh = meshes[4]
    if kind == "sw":
        serial = ShallowWaterModel(mesh, exec_path=exec_path)
        model = DistributedShallowWater(mesh, 4, dt=serial.dt,
                                        exec_path=exec_path)
        names = ("h", "v")
    else:
        cfg = ModelConfig(ne=4, nlev=8, qsize=2)
        geom = ElementGeometry(mesh)
        state = ElementState.isothermal_rest(geom, cfg)
        rng = np.random.default_rng(0)
        state.T = geom.dss(state.T + rng.standard_normal(state.T.shape))
        state.qdp[:, 0] = 1e-3 * state.dp3d
        state.qdp[:, 1] = 2e-3 * state.dp3d
        serial = PrimitiveEquationModel(cfg, mesh, init=state.copy(), dt=600.0,
                                        exec_path=exec_path)
        model = DistributedPrimitiveEquations(cfg, mesh, state, nranks=4,
                                              dt=600.0, exec_path=exec_path)
        names = ("v", "T", "dp3d", "qdp")
    model.run_steps(3)
    for _ in range(3):
        serial.step()
    # Bitwise restart needs the vector DSS to return C-contiguous wind,
    # as a restored snapshot is, whatever layout the exchange handed back.
    assert all(s.v.flags.c_contiguous for s in model.states)
    got = model.gather_state()
    for name in names:
        assert (getattr(got, name).tobytes()
                == getattr(serial.state, name).tobytes()), name
    assert (model.max_rank_time(), model.mpi.messages_sent,
            model.mpi.bytes_sent) == PINNED_CLOCKS[kind]


@st.composite
def dss_cases(draw):
    """A plan — ``nranks`` SFC ranks, or the one-rank plan of the whole
    mesh — cut into shards (consecutive rank groups, or element blocks of
    the one-rank plan), and a bundle of fields with drawn trailing widths
    whose values include signed zeros."""
    ne = draw(st.sampled_from([2, 3, 4, 8]))
    nelem = 6 * ne * ne
    if draw(st.booleans()):
        nranks, units = None, nelem  # the one-rank plan, in element blocks
    else:
        nranks = units = draw(st.integers(1, min(8, nelem)))
    cuts = draw(st.sets(st.integers(1, units - 1), max_size=min(units - 1, 6))
                if units > 1 else st.just(set()))
    trailing = draw(st.lists(st.sampled_from([(), (1,), (2,), (3,), (5, 3), (16,)]),
                             min_size=1, max_size=3))
    return ne, nranks, [0, *sorted(cuts), units], trailing, draw(st.integers(0, 2**32 - 1))


class TestShardSumsAreTheWholePlans:
    """Every shard packing its rows and summing only its own slots is the
    whole-plan sum, bit for bit (``tests/halo_oracle.whole_plan_assemble``),
    for any rank count, grouping, trailing width and signed zero."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=dss_cases())
    def test_per_shard_dss_is_the_whole_plan_bitwise(self, meshes, case):
        ne, nranks, cuts, trailing, seed = case
        mesh = meshes.get(ne) or meshes.setdefault(ne, CubedSphereMesh(ne))
        hx = HaloExchanger(mesh, None if nranks is None else SFCPartition(ne, nranks))
        # Shards as element ranges: rank groups' or the blocks themselves.
        bounds = cuts if nranks is None else [hx.elem_offsets[r] for r in cuts]
        rng = np.random.default_rng(seed)
        whole = [random_field(rng, (mesh.nelem, mesh.np, mesh.np) + t)
                 for t in trailing]
        shards = [tuple(f[lo:hi] for f in whole)
                  for lo, hi in zip(bounds, bounds[1:])]
        want = whole_plan_assemble(hx, shards)
        got = plan_dss(hx, shards)
        assert len(got) == len(want) == len(shards)
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()


# -- vectors cross the exchange as Cartesian planes --------------------------


@st.composite
def plane_dss_cases(draw):
    """A layout — the one-shard model cut into element blocks, or a
    distributed model of ``nranks`` SFC ranks grouped 1 or 2 ranks a shard
    or all in one — with no level axis (shallow water) or L levels
    (primitive equations), and a bundle: scalars and vectors, or folded
    (E, Q, L, n, n) stacks."""
    ne = draw(st.sampled_from([2, 3, 4]))
    nelem = 6 * ne * ne
    nlev = draw(st.sampled_from([None, 1, 3, 16]))
    nranks = draw(st.sampled_from([None, 1, 2, 3, 4, 6, 8]))
    if nranks is None:
        cuts = draw(st.sets(st.integers(1, nelem - 1), max_size=5))
        shards = [0, *sorted(cuts), nelem]
    else:
        shards = draw(st.sampled_from([1, 2, None]))  # ranks a group holds
    if nlev is not None and draw(st.booleans()):
        bundle = [("stack", draw(st.integers(1, 3)))
                  for _ in range(draw(st.integers(1, 2)))]
    else:
        bundle = [(kind, None) for kind in draw(st.lists(
            st.sampled_from(["scalar", "vector"]), min_size=1, max_size=3))]
    return ne, nlev, nranks, shards, bundle, draw(st.integers(0, 2**32 - 1))


class TestPlaneFormDSS:
    """Every layout's DSS — the one-shard model's element blocks, a
    distributed model's rank groups — is the whole-mesh oracle bit for
    bit: vectors ``dss_oracle.dss_vector``, scalars and folded stacks
    ``CubedSphereMesh.dss``.  The planes a shard packs are the oracle's
    interleaved Cartesian components, bit for bit as well: every slot sum
    starts from +0.0, so a plane rotation that lost its own +0.0 start
    shows only there."""

    @pytest.fixture(scope="class")
    def layouts(self):
        return {}

    @staticmethod
    def layout(cache, ne, nlev, nranks, shards):
        key = (ne, nlev, nranks, None if nranks is None else shards)
        if key not in cache:
            mesh = CubedSphereMesh(ne)
            if nlev is None:
                state = williamson2_initial(mesh)
            else:
                cfg = ModelConfig(ne=ne, nlev=nlev, qsize=1)
                state = ElementState.isothermal_rest(ElementGeometry(mesh), cfg)
            if nranks is None:
                model = (ShallowWaterModel(mesh) if nlev is None else
                         PrimitiveEquationModel(cfg, mesh, dt=600.0))
            else:
                elems = {1: 1, None: mesh.nelem}.get(shards) or shards * mesh.nelem // nranks
                per_elem = max(a.nbytes // len(a) for a in vars(state).values())
                with mock.patch.object(timestep, "BLOCK_BYTES", elems * per_elem):
                    model = (DistributedShallowWater(mesh, nranks) if nlev is None else
                             DistributedPrimitiveEquations(cfg, mesh, state, nranks,
                                                           dt=600.0))
            cache[key] = model, ElementGeometry(mesh)
        return cache[key]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=plane_dss_cases())
    def test_every_layout_is_the_oracle_bitwise(self, layouts, case):
        ne, nlev, nranks, shards, bundle, seed = case
        model, whole = self.layout(layouts, ne, nlev, nranks, shards)
        mesh, rng = model.mesh, np.random.default_rng(seed)
        n, E, levels = mesh.np, mesh.nelem, () if nlev is None else (nlev,)
        if nranks is None:
            model.blocks = [(lo, hi, model.geom.rows(lo, hi))
                            for lo, hi in zip(shards, shards[1:])]
            order, bounds = np.arange(E), shards
        else:
            off = model.hx.elem_offsets
            order, bounds = model.hx.plan_elems, [off[r0] for r0, _ in model.groups] + [E]
        fields, want = [], []
        for kind, q in bundle:
            shape = {"scalar": levels + (n, n), "vector": levels + (n, n, 2),
                     "stack": (q, nlev, n, n)}[kind]
            f = random_field(rng, (E,) + shape)
            if kind == "vector":
                oracle = dss_vector(whole, f)
            else:
                flat = f.reshape((E, -1, n, n) if levels else f.shape)
                oracle = (levels_first(mesh.dss(levels_last(flat)), flat.shape)
                          if levels else mesh.dss(flat)).reshape(f.shape)
            fields.append(f[order])
            want.append(oracle[order])
        fold = bundle[0][0] == "stack"
        per_shard = [tuple(f[lo:hi] for f in fields) for lo, hi in zip(bounds, bounds[1:])]
        outs = model._fanout_dss(None, {}, per_shard, stage=0, slot=0, fold=fold)
        assert len(outs) == len(per_shard)
        for k, w in enumerate(want):
            parts = [o[k] for o in outs]
            assert all(p.flags.c_contiguous for p in parts)
            assert np.concatenate(parts).tobytes() == w.tobytes(), (k, bundle[k])
        meta = {"levels": nlev is not None, "fold": fold}
        for g, arrays in zip(model.geoms, per_shard):
            planes = iter(dycore.exchange_form(g, arrays, meta))
            for f, (kind, _) in zip(arrays, bundle):
                if kind != "vector":
                    next(planes)
                    continue
                cart = to_cartesian(g, f)
                for j in range(3):
                    wj = cart[..., j]
                    wj = np.moveaxis(wj, 1, 3) if levels else wj
                    assert next(planes).tobytes() == np.ascontiguousarray(wj).tobytes(), j


def test_a_dss_allocates_no_interleaved_vector_array():
    """One in-process DSS of a shallow-water (h, v) bundle at ne8 x 4
    ranks peaks at what the plane form needs, from shapes: the flat
    buffer (h and v's three Cartesian columns), the four summed planes,
    the outputs (h and v) and the inverse rotation's four planes in
    flight (two covariant components, two products), plus one plane of
    slack for index arrays and objects.  An (E, n, n, 3) Cartesian copy
    of v on either side of the buffer is three planes more."""
    model = DistributedShallowWater(CubedSphereMesh(8), 4)
    bundle = [(s.h, s.v) for s in model.states]
    plane = model.states[0].h.nbytes * len(model.states)
    model._fanout_dss(None, {}, bundle, stage=0, slot=0)  # plans and operands built
    tracemalloc.start()
    try:
        model._fanout_dss(None, {}, bundle, stage=0, slot=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buf, sums, outs, rotation, slack = 4, 4, 3, 4, 1
    assert peak <= (buf + sums + outs + rotation + slack) * plane, peak / plane
