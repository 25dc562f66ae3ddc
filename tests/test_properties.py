"""Cross-cutting property-based tests (hypothesis) on core invariants.

These fuzz the load-bearing algebraic properties that many modules rely
on: DSS is a linear idempotent projection, the simulated MPI delivers
any posting order and charges a whole halo exchange in one call exactly
as its per-message program does, partitions are exact covers at any
rank count, backend costs respond monotonically to workload size, and
the pool's result digest catches every single-bit flip.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, find, given, settings, strategies as st

from repro.backends import AthreadBackend, IntelBackend, KernelWorkload
from repro.config import ModelConfig
from repro.errors import HaloSizeError, KernelError, SimMPIError, SimMPITimeoutError
from repro.homme.element import ElementGeometry, levels_first, levels_last
from repro.mesh import CubedSphereMesh, SFCPartition
from repro.mesh.assembly import Assembly
from repro.network import SimMPI
from repro.network.simmpi import MAX_RETRIES, rank_track
from repro.obs.tracer import Tracer
from repro.parallel.supervisor import _FOLD, _MASK, result_digest
from repro.resilience.faults import FaultInjector

from .dss_oracle import dss_vector, from_cartesian, to_cartesian
from .simmpi_oracle import PerMessage, one_way


@pytest.fixture(scope="module")
def mesh():
    return CubedSphereMesh(ne=4)


@pytest.fixture(scope="module")
def geom(mesh):
    return ElementGeometry(mesh)


class TestDSSAlgebra:
    @given(seed=st.integers(0, 500), a=st.floats(-5, 5), b=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, mesh, seed, a, b):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((mesh.nelem, 4, 4))
        g = rng.standard_normal((mesh.nelem, 4, 4))
        lhs = mesh.dss(a * f + b * g)
        rhs = a * mesh.dss(f) + b * mesh.dss(g)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_projection_idempotent(self, mesh, seed):
        f = np.random.default_rng(seed).standard_normal((mesh.nelem, 4, 4))
        once = mesh.dss(f)
        assert np.allclose(mesh.dss(once), once, atol=1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_conserves_weighted_integral(self, mesh, seed):
        f = np.random.default_rng(seed).standard_normal((mesh.nelem, 4, 4))
        assert np.isclose(
            mesh.global_integral(mesh.dss(f)),
            mesh.global_integral(f),
            rtol=1e-10,
        )

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_vector_dss_idempotent(self, mesh, geom, seed):
        rng = np.random.default_rng(seed)
        v = mesh.spherical_to_contravariant(
            rng.standard_normal(mesh.lat.shape),
            rng.standard_normal(mesh.lat.shape),
        )
        once = dss_vector(geom, v)
        assert np.allclose(dss_vector(geom, once), once, atol=1e-18)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_dss_is_contraction_in_range(self, mesh, seed):
        """Averaging shared points cannot create new extrema."""
        f = np.random.default_rng(seed).standard_normal((mesh.nelem, 4, 4))
        g = mesh.dss(f)
        assert g.max() <= f.max() + 1e-12
        assert g.min() >= f.min() - 1e-12


class TestAssembly:
    """The one slot accumulate against ``np.add.at`` from zeros."""

    @given(
        dest=st.one_of(
            st.lists(st.integers(0, 8), max_size=60),            # multiplicity > 3
            st.lists(st.integers(0, 10**6), max_size=40, unique=True),
        ),
        width=st.sampled_from([None, 1, 16, 64]),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_accumulate_equals_add_at_bitwise(self, dest, width, seed):
        dest = np.array(dest, dtype=np.int64)
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((len(dest),) + (() if width is None else (width,)))
        rows[rng.random(rows.shape) < 0.3] = -0.0
        asm = Assembly(dest)
        assert np.array_equal(asm.keys[asm.slot_of], dest)
        assert np.array_equal(asm.counts, np.sort(asm.counts)[::-1])
        expected = np.zeros((len(asm.keys),) + rows.shape[1:])
        np.add.at(expected, asm.slot_of, rows)
        before = rows.copy()
        got = asm.accumulate(rows)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # -0.0 vs +0.0 included
        assert rows.tobytes() == before.tobytes()
        # Rows summed in a given order: the halo receive, where a slot's
        # rows arrive from several ranks and add by global point row.
        order = rng.integers(0, 5, len(dest))  # ties keep row order
        by_order = np.argsort(order, kind="stable")
        asm = Assembly(dest, order=order)
        assert np.array_equal(asm.keys[asm.slot_of], dest)
        expected = np.zeros_like(expected)
        np.add.at(expected, asm.slot_of[by_order], rows[by_order])
        assert asm.accumulate(rows).tobytes() == expected.tobytes()


class TestSerialDssLayouts:
    def test_level_layouts_equal_per_level_mesh_dss(self, mesh, geom):
        rng = np.random.default_rng(0)
        f4 = rng.standard_normal((mesh.nelem, 5, 4, 4))
        f5 = rng.standard_normal((mesh.nelem, 5, 4, 4, 3))
        g4, g5 = geom.dss(f4), geom.dss(f5)
        assert g4.shape == f4.shape and g5.shape == f5.shape
        for lev in range(5):
            assert np.array_equal(g4[:, lev], mesh.dss(f4[:, lev]))
            assert np.array_equal(g5[:, lev], mesh.dss(f5[:, lev]))

    @staticmethod
    def _einsum_to(geom, v):
        e = geom.e_cov[:, None] if v.ndim == 5 else geom.e_cov
        return geom.radius * np.einsum("...xc,...c->...x", e, v)

    @staticmethod
    def _einsum_from(geom, w):
        e, metinv = geom.e_cov, geom.metinv
        if w.ndim == 5:
            e, metinv = e[:, None], metinv[:, None]
        cov = geom.radius * np.einsum("...xc,...x->...c", e, w)
        return np.ascontiguousarray(np.einsum("...ij,...j->...i", metinv, cov))

    @pytest.mark.parametrize("levels", [(), (5,)])
    def test_vector_dss_equals_the_einsum_chain_bitwise(self, mesh, geom, levels):
        v = np.random.default_rng(1).standard_normal((mesh.nelem,) + levels + (4, 4, 2))
        v[:3] = -0.0
        w = self._einsum_to(geom, v)
        w = geom.dss(w) if levels else mesh.dss(w)
        got = dss_vector(geom, v)
        assert got.flags.c_contiguous
        assert got.tobytes() == self._einsum_from(geom, w).tobytes()

    @pytest.mark.parametrize("levels", [(), (5,)])
    def test_cartesian_transforms_on_a_shard_equal_the_einsum_chain_bitwise(
            self, mesh, levels):
        """A rank's geometry, and ``w`` strided as ``levels_first`` hands it over."""
        shard = ElementGeometry(mesh, np.arange(mesh.nelem)[5::3])
        v = np.random.default_rng(3).standard_normal((shard.nelem,) + levels + (4, 4, 2))
        v[:2] = -0.0
        w = to_cartesian(shard, v)
        assert w.flags.c_contiguous
        assert w.tobytes() == self._einsum_to(shard, v).tobytes()
        planes = shard.to_cartesian_planes(v)
        assert all(p.flags.c_contiguous for p in planes)
        assert [p.tobytes() for p in planes] == [
            np.ascontiguousarray(w[..., j]).tobytes() for j in range(3)]
        if levels:
            w = levels_first(np.ascontiguousarray(levels_last(w)), w.shape)
            assert not w.flags.c_contiguous
        back = from_cartesian(shard, w)
        assert back.flags.c_contiguous
        assert back.tobytes() == self._einsum_from(shard, w).tobytes()
        out = np.empty_like(back)
        shard.from_cartesian_planes([w[..., j] for j in range(3)], out)
        assert out.tobytes() == back.tobytes()

    @pytest.mark.parametrize("ids", [
        lambda n: np.arange(n)[::-1],           # same length, reordered
        lambda n: np.arange(n - 1),             # a proper subset
        lambda n: np.r_[0, np.arange(n - 1)],   # same length, repeated
    ])
    def test_only_the_identity_view_may_run_the_serial_dss(self, mesh, ids):
        sub = ElementGeometry(mesh, ids(mesh.nelem))
        with pytest.raises(KernelError, match="whole mesh"):
            sub.dss(np.zeros((sub.nelem, 4, 4)))
        with pytest.raises(KernelError, match="whole mesh"):
            dss_vector(sub, np.zeros((sub.nelem, 4, 4, 2)))
        with pytest.raises(KernelError, match="whole mesh"):
            dss_vector(sub, np.zeros((sub.nelem, 2, 4, 4, 2)))
        whole = ElementGeometry(mesh, np.arange(mesh.nelem))
        f = np.random.default_rng(2).standard_normal((mesh.nelem, 4, 4))
        assert np.array_equal(whole.dss(f), mesh.dss(f))


class TestSimMPIFuzz:
    @given(
        order=st.permutations(list(range(6))),
        nbytes=st.integers(1, 2000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_posting_order_delivers(self, order, nbytes):
        """All-to-one with the receiver's peers listed in arbitrary order:
        each receive gets its own sender's size (any other raises
        HaloSizeError), and the clock is the latest arrival."""
        mpi = SimMPI(7)
        messages = [[(6, nbytes + src, 0)] for src in range(6)]
        messages.append([(src, 0, nbytes + src) for src in order])
        mpi.neighbor_exchange(messages, 1, [0.0] * 7, copies=1,
                              bandwidth=math.inf)
        assert mpi.now(6) == max(mpi.cost.p2p_time(src, 6, nbytes + src)
                                 for src in order)

    @given(sizes=st.lists(st.integers(0, 5), min_size=2, max_size=10),
           drops=st.sets(st.integers(0, 9)))
    @settings(max_examples=25, deadline=None)
    def test_fifo_per_route(self, sizes, drops):
        """Exchanges on one route each receive their own message, in
        order, whichever of them were lost and retransmitted: nothing
        from one exchange reaches the next."""
        mpi = SimMPI(2, faults=FaultInjector(drop_messages=drops))
        for s in sizes:  # posts 0 -> 1, then the empty reply 1 -> 0
            one_way(mpi, 0, 1, s)
        assert mpi.bytes_sent == sum(sizes)
        assert mpi.retransmissions == len(drops & set(range(2 * len(sizes))))

    @given(n=st.integers(2, 32))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_equals_sum(self, n):
        mpi = SimMPI(n)
        out = mpi.allreduce([np.array([float(r), 1.0]) for r in range(n)])
        assert out[0] == pytest.approx(n * (n - 1) / 2)
        assert out[1] == pytest.approx(float(n))


def per_message_exchange(mpi, messages, row_bytes, before, between, copies,
                          bandwidth, tag):
    """``SimMPI.neighbor_exchange`` written as the per-message program:
    ``compute``, :class:`PerMessage` and the same spans."""
    tracer, n, post = mpi.tracer, mpi.nranks, PerMessage(mpi)
    memcpy = 0.0
    for r in range(n):
        t0 = mpi.now(r)
        mpi.compute(r, before[r])
        tracer.span_at(rank_track(r), "compute" if between is None
                       else "compute.boundary", t0, mpi.now(r),
                       cat="exchange", tag=tag)
        for p, rows, _ in messages[r]:
            nbytes = rows * row_bytes
            t_pack = copies * nbytes / bandwidth
            t1 = mpi.now(r)
            mpi.compute(r, t_pack)
            memcpy += t_pack
            tracer.span_at(rank_track(r), "pack", t1, mpi.now(r),
                           cat="exchange", peer=p, tag=tag, nbytes=nbytes,
                           copies=copies)
            tracer.span_at(rank_track(r), "send", mpi.now(r), mpi.now(r),
                           cat="exchange", peer=p, tag=tag, nbytes=nbytes)
            post.isend(r, p, nbytes, tag=tag)
    if between is not None:
        for r in range(n):
            t0 = mpi.now(r)
            mpi.compute(r, between[r])
            tracer.span_at(rank_track(r), "overlap", t0, mpi.now(r),
                           cat="exchange", tag=tag)
    for r in range(n):
        for p, _, rows in messages[r]:
            nbytes = post.wait(r, p, tag=tag)
            if nbytes != rows * row_bytes:
                raise HaloSizeError(
                    f"rank {r}: halo message from rank {p} has {nbytes} "
                    f"bytes, expected {rows * row_bytes}")
            t_unpack = copies * nbytes / bandwidth
            t2 = mpi.now(r)
            mpi.compute(r, t_unpack)
            memcpy += t_unpack
            tracer.span_at(rank_track(r), "unpack", t2, mpi.now(r),
                           cat="exchange", peer=p, tag=tag, nbytes=nbytes,
                           copies=copies)
    return memcpy


@st.composite
def exchanges(draw):
    """A random symmetric neighbour graph with message sizes, costs,
    message faults, laggards and maybe a tracer."""
    n = draw(st.integers(2, 6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    rows = {(a, b): draw(st.integers(0, 40))
            for e in sorted(edges) for a, b in (e, e[::-1])}
    messages = []
    for r in range(n):
        peers = sorted(b for a, b in rows if a == r)
        messages.append([(p, rows[r, p], rows[p, r])
                         for p in draw(st.permutations(peers))])
    nmsg = len(rows)
    seconds = st.floats(0.0, 1e-3)
    index = st.integers(0, nmsg - 1)
    return dict(
        messages=messages,
        row_bytes=draw(st.integers(1, 64)),
        before=draw(st.lists(seconds, min_size=n, max_size=n)),
        between=draw(st.none() | st.lists(seconds, min_size=n, max_size=n)),
        copies=draw(st.sampled_from([1, 2])),
        tag=draw(st.integers(0, 99)),
        faults=dict(
            drop_messages=draw(st.sets(index, max_size=3)),
            delay_messages=draw(st.dictionaries(index, st.floats(0.0, 1e-3),
                                                max_size=3)),
            laggards=draw(st.dictionaries(st.integers(0, n - 1),
                                          st.floats(1.0, 4.0), max_size=2)),
            drop_retransmits=draw(st.booleans()),
        ),
        traced=draw(st.booleans()),
    )


class TestNeighborExchange:
    """The one-call exchange leaves what the per-message program leaves."""

    def run_both(self, ex):
        comms = []
        for bulk in (True, False):
            fi = FaultInjector(seed=5, **ex["faults"])
            mpi = SimMPI(len(ex["messages"]), faults=fi,
                         tracer=Tracer("t") if ex["traced"] else None)
            args = (ex["messages"], ex["row_bytes"], ex["before"],
                    ex["between"])
            kw = dict(copies=ex["copies"], bandwidth=1e9, tag=ex["tag"])
            try:
                if bulk:
                    out = mpi.neighbor_exchange(*args, **kw)
                else:
                    out = per_message_exchange(mpi, *args, **kw)
            except SimMPIError as e:  # a timeout
                out = (type(e), str(e))
            comms.append((mpi, fi, out))
        return comms

    @given(ex=exchanges())
    @settings(max_examples=60, deadline=None)
    def test_bulk_call_equals_the_per_message_program(self, ex):
        (a, fa, out_a), (b, fb, out_b) = self.run_both(ex)
        assert out_a == out_b  # the memcpy sum, or the same error
        n = a.nranks
        assert [a.now(r) for r in range(n)] == [b.now(r) for r in range(n)]
        for name in ("comm_seconds", "messages_sent", "bytes_sent",
                     "messages_dropped", "messages_delayed", "retransmissions"):
            assert getattr(a, name) == getattr(b, name), name
        assert [(e.kind, e.detail) for e in fa.events] == \
            [(e.kind, e.detail) for e in fb.events]
        if ex["traced"]:
            assert a.tracer.recorder.events == b.tracer.recorder.events

    def test_a_timeout_leaves_nothing_behind(self):
        """Rank 0 receives from 1 and 2; rank 1's message to rank 0 (the
        third posted) is lost for good, so rank 0 gives up on its first
        receive.  The exchange's other messages end with the call: the
        same exchange again, under the same tag with rows twice as wide,
        receives only its own messages (an old one would raise
        HaloSizeError)."""
        messages = [[(1, 2, 3), (2, 1, 1)], [(0, 3, 2)], [(0, 1, 1)]]
        fi = FaultInjector(drop_messages=[2], drop_retransmits=True)
        mpi = SimMPI(3, faults=fi)
        with pytest.raises(SimMPITimeoutError, match="rank 0 gave up on "
                           "message from 1"):
            mpi.neighbor_exchange(messages, 8, [0.0] * 3, [0.0] * 3,
                                  copies=1, bandwidth=1e9, tag=4)
        sent = mpi.bytes_sent
        mpi.neighbor_exchange(messages, 16, [0.0] * 3, [0.0] * 3,
                              copies=1, bandwidth=1e9, tag=4)
        assert mpi.bytes_sent == 3 * sent
        assert mpi.retransmissions == MAX_RETRIES


@st.composite
def clock_programs(draw):
    """A communicator (either allreduce algorithm), message drops, delays
    and laggards, and a sequence of SimMPI calls; costs and laggard
    factors are sometimes numpy scalars."""
    n = draw(st.integers(2, 8))
    rank = st.integers(0, n - 1)
    seconds = st.floats(0.0, 1e-3)
    cost = seconds | seconds.map(np.float64)
    costs = st.lists(cost, min_size=n, max_size=n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    graph = st.sets(st.sampled_from(pairs), min_size=1).map(
        lambda edges: [[(p, 1 + (r + p) % 5, 1 + (r + p) % 5)
                        for p in range(n) if (min(r, p), max(r, p)) in edges]
                       for r in range(n)])
    op = st.one_of(
        st.tuples(st.just("compute"), rank, cost),
        st.tuples(st.just("p2p"), rank, rank, st.integers(0, 4096)),
        st.tuples(st.just("exchange"), graph, costs, st.none() | costs),
        st.tuples(st.just("allreduce"), st.integers(1, 16)),
    )
    return dict(
        n=n,
        algorithm=draw(st.sampled_from(["flat", "hierarchical"])),
        faults=dict(
            drop_messages=draw(st.sets(st.integers(0, 40), max_size=4)),
            delay_messages=draw(st.dictionaries(st.integers(0, 40), seconds,
                                                max_size=3)),
            laggards=draw(st.dictionaries(
                rank, st.floats(1.0, 4.0) | st.floats(1.0, 4.0).map(np.float64),
                max_size=2)),
        ),
        ops=draw(st.lists(op, min_size=1, max_size=12)),
    )


class TestFloatClocks:
    @given(prog=clock_programs())
    @settings(max_examples=60, deadline=None)
    def test_every_clock_is_a_float_that_never_decreases(self, prog):
        n = prog["n"]
        mpi = SimMPI(n, faults=FaultInjector(seed=7, **prog["faults"]),
                     allreduce_algorithm=prog["algorithm"])
        prev = [mpi.now(r) for r in range(n)]
        for tag, (op, *args) in enumerate(prog["ops"]):
            if op == "compute":
                mpi.compute(*args)
            elif op == "p2p":
                one_way(mpi, *args, tag=tag)
            elif op == "exchange":
                messages, before, between = args
                mpi.neighbor_exchange(messages, 8, before, between,
                                      copies=1 if between else 2,
                                      bandwidth=1e9, tag=tag)
            else:
                mpi.allreduce([np.full(args[0], float(r)) for r in range(n)])
            now = [mpi.now(r) for r in range(n)]
            assert all(type(t) is float for t in now), (op, now)
            assert all(a <= b for a, b in zip(prev, now)), (op, prev, now)
            prev = now
        assert mpi.max_time() == max(prev)


class TestPartitionFuzz:
    @given(ne=st.sampled_from([3, 4, 6]), nranks=st.integers(1, 54))
    @settings(max_examples=30, deadline=None)
    def test_exact_cover(self, ne, nranks):
        nranks = min(nranks, 6 * ne * ne)
        p = SFCPartition(ne, nranks)
        seen = np.concatenate([p.rank_elements(r) for r in range(nranks)])
        assert len(seen) == 6 * ne * ne
        assert len(np.unique(seen)) == len(seen)

    @given(ne=st.sampled_from([4, 6]), nranks=st.integers(2, 24))
    @settings(max_examples=20, deadline=None)
    def test_halo_edges_symmetric(self, ne, nranks):
        p = SFCPartition(ne, nranks)
        for r in range(nranks):
            for peer, (e, c) in p.halo(r).neighbors.items():
                assert p.halo(peer).neighbors[r] == (e, c)


class TestBackendMonotonicity:
    @given(scale=st.floats(1.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_more_flops_never_faster(self, scale):
        base = KernelWorkload("k", flops=1e10, unique_bytes=1e9)
        big = KernelWorkload("k", flops=1e10 * scale, unique_bytes=1e9)
        for backend in (IntelBackend(), AthreadBackend()):
            assert backend.execute(big).seconds >= backend.execute(base).seconds

    @given(scale=st.floats(1.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_more_bytes_never_faster(self, scale):
        base = KernelWorkload("k", flops=1e9, unique_bytes=1e9)
        big = KernelWorkload("k", flops=1e9, unique_bytes=1e9 * scale)
        for backend in (IntelBackend(), AthreadBackend()):
            assert backend.execute(big).seconds >= backend.execute(base).seconds


class TestConfigFuzz:
    @given(ne=st.integers(2, 512))
    @settings(max_examples=40, deadline=None)
    def test_resolution_timestep_product(self, ne):
        """dt * ne is constant: the CFL family the paper's runs follow."""
        cfg = ModelConfig(ne=ne, nlev=8)
        assert cfg.dt_dynamics * ne == pytest.approx(9000.0)

    @given(ne=st.integers(2, 128), nproc=st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_elements_per_process_bounds(self, ne, nproc):
        cfg = ModelConfig(ne=ne, nlev=8)
        nproc = min(nproc, cfg.nelem)
        epp = cfg.elements_per_process(nproc)
        assert epp * nproc >= cfg.nelem
        assert (epp - 1) * nproc < cfg.nelem


#: Result dtypes the digest must read byte for byte: bool, sub-8-byte,
#: non-native byte order, packed (9-byte) and aligned structured records,
#: and a 3-byte string.
_DIGEST_DTYPES = (
    np.bool_, np.int8, np.uint16, np.float32, np.float64, np.complex128,
    np.dtype(">i4"), np.dtype([("a", "u1"), ("b", "<f8")]),
    np.dtype([("a", "u1"), ("b", "<f8")], align=True), np.dtype("S3"),
)


@st.composite
def result_arrays(draw):
    """One result array: any listed dtype, 0 to 3 dims of 0 to 5 (0-d,
    empty and odd byte lengths included), random bytes, sometimes a
    strided view of a larger array."""
    dtype = np.dtype(draw(st.sampled_from(_DIGEST_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 5), max_size=3)))
    strided = bool(shape) and draw(st.booleans())
    full = (2 * shape[0],) + shape[1:] if strided else shape
    n = math.prod(full) * dtype.itemsize
    raw = np.frombuffer(draw(st.binary(min_size=n, max_size=n)), np.uint8)
    if dtype == np.bool_:
        raw = raw & 1
    a = raw.copy().view(dtype).reshape(full)
    return a[::2] if strided else a


@st.composite
def flipped_results(draw):
    """A result tuple and one bit to flip: ``(arrays, i, byte, bit)``."""
    arrays = tuple(draw(st.lists(result_arrays(), min_size=1, max_size=4)))
    hit = [k for k, a in enumerate(arrays) if a.nbytes]
    assume(hit)
    i = draw(st.sampled_from(hit))
    return (arrays, i, draw(st.integers(0, arrays[i].nbytes - 1)),
            draw(st.integers(0, 7)))


def c_copy(a: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``a``'s bytes, a record's padding included
    (a copy in ``a``'s own dtype copies field by field and leaves the
    padding unset)."""
    return np.array(a.view((np.void, a.itemsize)), order="C").view(a.dtype)


def flip_is_detected(digest, case) -> bool:
    """Whether ``digest`` tells the tuple from itself with one bit of
    byte ``byte`` (C order) of array ``i`` flipped."""
    arrays, i, byte, bit = case
    flipped = c_copy(arrays[i])
    flipped.reshape(-1).view(np.uint8)[byte] ^= 1 << bit
    return digest(arrays[:i] + (flipped,) + arrays[i + 1:]) != digest(arrays)


def digest_without_tail(arrays) -> int:
    """``result_digest`` with each array's tail bytes left out: the
    mutant the flip property has to catch."""
    h = len(arrays)
    for pos, a in enumerate(arrays):
        raw = c_copy(a).reshape(-1).view(np.uint8)
        s = int(raw[:raw.size & ~7].view(np.uint64).sum())
        h = (h * _FOLD + ((s & _MASK) ^ (pos << 56 | raw.size))) & _MASK
    return h


class TestResultDigest:
    """``supervisor.result_digest``, the check every pool result passes
    on the driver before anything consumes it (DESIGN.md §12.3)."""

    @given(case=flipped_results())
    @settings(max_examples=300, deadline=None)
    def test_every_single_bit_flip_changes_the_digest(self, case):
        assert flip_is_detected(result_digest, case)
        # The worker digests a resident view where it lies, the driver
        # its own C-ordered copy: any layout reads as its C-order bytes.
        arrays = case[0]
        copies = tuple(c_copy(a) for a in arrays)
        assert result_digest(arrays) == result_digest(copies)

    def test_the_property_catches_a_digest_that_skips_the_tail(self):
        arrays, i, byte, _ = find(
            flipped_results(),
            lambda case: not flip_is_detected(digest_without_tail, case),
            settings=settings(max_examples=2000, derandomize=True,
                              database=None))
        assert byte >= arrays[i].nbytes & ~7  # the flip is in the tail

    def test_swapped_and_truncated_results_differ(self):
        a, b = np.arange(4.0), np.arange(4.0) + 1.0
        assert result_digest((a, b)) != result_digest((b, a))
        assert result_digest((a,)) != result_digest((a[:3],))
        assert result_digest((np.zeros(2),)) != result_digest((np.zeros(3),))
        assert result_digest(()) != result_digest((np.zeros(0),))

    def test_a_contiguous_result_is_read_without_a_copy(self):
        import tracemalloc

        a = np.ones(1 << 20)  # 8 MiB
        tracemalloc.start()
        try:
            result_digest((a, a[:-1].view(np.uint8)[3:]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
