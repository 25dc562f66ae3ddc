"""Tests for the observability layer: tracer, recorder, metrics, roofline.

The three load-bearing properties (ISSUE acceptance criteria):

1. **Determinism** — two identical seeded traced runs export
   byte-identical JSONL;
2. **Zero cost when disabled** — the default NULL_TRACER records
   nothing, and enabling tracing changes neither the trajectory
   (bitwise) nor the simulated ``max_rank_time``;
3. **Valid exports** — the Chrome trace passes the schema validator,
   shows >= 2 per-rank tracks with the halo-exchange phase spans, and
   the roofline report classifies the paper's kernels.
"""

import json

import numpy as np
import pytest

from repro.backends import AthreadBackend, OpenACCBackend, table1_workloads
from repro.mesh import CubedSphereMesh
from repro.homme.distributed import DistributedShallowWater
from repro.obs import (
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    attribute_kernels,
    collect_dma,
    collect_ldm,
    collect_simmpi,
    roofline_report,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(ne=4)


def traced_sw_run(mesh, nsteps=2, mode="overlap", tracer=None):
    m = DistributedShallowWater(mesh, nranks=4, mode=mode, tracer=tracer)
    m.run_steps(nsteps)
    return m


class TestTracerBasics:
    def test_null_tracer_is_default_and_inert(self, mesh4):
        m = traced_sw_run(mesh4)
        assert m.tracer is NULL_TRACER
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.recorder is None

    def test_null_tracer_methods_are_noops(self):
        NULL_TRACER.span_at("t", "s", 0.0, 1.0)
        NULL_TRACER.instant("t", "i", 0.0)
        NULL_TRACER.counter("t", "c", 0.0, 1.0)

    def test_span_at_records_complete_event(self):
        tr = Tracer("t")
        tr.span_at("rank0", "pack", 1.0, 3.0, cat="exchange", peer=1)
        (ev,) = tr.recorder.events
        assert (ev.ph, ev.ts, ev.dur) == ("X", 1.0, 2.0)
        assert ev.args["peer"] == 1

    def test_recorder_rejects_unknown_phase(self):
        with pytest.raises(ValueError):
            FlightRecorder().record("t", "x", "c", "Q", 0.0)


class TestTraceDeterminism:
    def test_identical_runs_byte_identical_jsonl(self, mesh4):
        jsonls = []
        for _ in range(2):
            tr = Tracer("det")
            traced_sw_run(mesh4, nsteps=2, tracer=tr)
            jsonls.append(tr.recorder.to_jsonl())
        assert jsonls[0] == jsonls[1]
        assert len(jsonls[0].splitlines()) > 100

    def test_trace_timestamps_are_simulated_not_wall(self, mesh4):
        tr = Tracer("sim")
        m = traced_sw_run(mesh4, nsteps=1, tracer=tr)
        tmax = m.max_rank_time()
        rank_spans = [e for e in tr.recorder.events
                      if e.track.startswith("rank") and e.ph == "X"]
        assert rank_spans
        assert all(e.ts + e.dur <= tmax + 1e-12 for e in rank_spans)


class TestZeroCostDisabled:
    def test_disabled_records_nothing(self, mesh4):
        m = traced_sw_run(mesh4, nsteps=2)  # default NULL_TRACER
        assert m.tracer.recorder is None

    def test_tracing_does_not_change_numerics_or_time(self, mesh4):
        off = traced_sw_run(mesh4, nsteps=3)
        on = traced_sw_run(mesh4, nsteps=3, tracer=Tracer("on"))
        g_off, g_on = off.gather_state(), on.gather_state()
        assert np.array_equal(g_off.h, g_on.h)
        assert np.array_equal(g_off.v, g_on.v)
        assert off.max_rank_time() == on.max_rank_time()

    def test_tracing_classic_mode_unchanged_too(self, mesh4):
        off = traced_sw_run(mesh4, nsteps=2, mode="classic")
        on = traced_sw_run(mesh4, nsteps=2, mode="classic", tracer=Tracer())
        assert np.array_equal(off.gather_state().h, on.gather_state().h)
        assert off.max_rank_time() == on.max_rank_time()


class TestChromeExport:
    @pytest.fixture(scope="class")
    def trace(self):
        tr = Tracer("chrome")
        traced_sw_run(CubedSphereMesh(ne=4), nsteps=2, tracer=tr)
        return tr.recorder.chrome_trace()

    def test_schema_valid(self, trace):
        assert validate_chrome_trace(trace) == []
        # Round-trips through JSON.
        assert validate_chrome_trace(json.loads(json.dumps(trace))) == []

    def test_rank_tracks_present(self, trace):
        names = {ev["args"]["name"] for ev in trace["traceEvents"]
                 if ev["ph"] == "M"}
        assert {"rank0", "rank1", "rank2", "rank3"} <= names

    def test_halo_phases_on_rank_tracks(self, trace):
        spans = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "X"}
        for phase in ("pack", "send", "overlap", "unpack",
                      "compute.boundary", "mpi.wait", "step"):
            assert phase in spans, phase

    def test_validator_flags_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0,
                                "ts": 0.0}]}  # missing dur
        assert any("dur" in p for p in validate_chrome_trace(bad))


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter("c")
        c.inc(2)
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 2

    def test_gauge_tracks_peak(self):
        g = Gauge("g")
        g.set(5.0)
        g.set(2.0)
        assert (g.value, g.peak) == (2.0, 5.0)

    def test_histogram_log2_buckets(self):
        h = Histogram("h")
        for v in (0.5, 1, 2, 3, 1024):
            h.observe(v)
        assert h.count == 5
        assert h.buckets[0] == 2   # 0.5 and 1
        assert h.buckets[1] == 2   # 2 and 3
        assert h.buckets[10] == 1  # 1024
        assert h.mean == pytest.approx(1030.5 / 5)

    def test_registry_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError):
            reg.set_gauge("x", 1.0)

    def test_merge_semantics(self):
        a, b = MetricsRegistry("a"), MetricsRegistry("b")
        a.inc("dma.get.bytes", 100)
        b.inc("dma.get.bytes", 50)
        a.set_gauge("ldm.high_water", 10)
        b.set_gauge("ldm.high_water", 30)
        a.observe("msg.size", 8)
        b.observe("msg.size", 16)
        m = MetricsRegistry.merged([a, b])
        assert m.value("dma.get.bytes") == 150          # counters sum
        assert m.value("ldm.high_water") == 30          # gauges max
        assert m.histogram("msg.size").count == 2       # histograms add

    def test_merge_across_ranks_matches_total(self, mesh4):
        """Per-rank registries reduce to the same totals as one global."""
        m = traced_sw_run(mesh4, nsteps=1)
        per_rank = []
        for r in range(4):
            reg = MetricsRegistry(f"rank{r}")
            # Split the shared SimMPI tallies evenly as a stand-in for
            # genuinely per-rank components.
            reg.inc("mpi.messages.sent", m.mpi.messages_sent / 4)
            reg.set_gauge("mpi.time.max", m.mpi.now(r))
            per_rank.append(reg)
        merged = MetricsRegistry.merged(per_rank)
        assert merged.value("mpi.messages.sent") == m.mpi.messages_sent
        assert merged.value("mpi.time.max") == m.max_rank_time()

    def test_collect_simmpi(self, mesh4):
        m = traced_sw_run(mesh4, nsteps=1)
        reg = collect_simmpi(MetricsRegistry(), m.mpi)
        assert reg.value("mpi.messages.sent") > 0
        assert reg.value("mpi.bytes.sent") > 0
        assert reg.value("mpi.time.max") == m.max_rank_time()

    def test_collect_dma_and_ldm(self):
        from repro.sunway.dma import DMAEngine
        from repro.sunway.ldm import LDM

        eng = DMAEngine()
        eng.charge_get(4096)
        eng.charge_put(1024)
        ldm = LDM()
        blk = ldm.alloc(1000)
        ldm.free(blk)
        reg = MetricsRegistry()
        collect_dma(reg, eng)
        collect_ldm(reg, ldm)
        assert reg.value("dma.get.bytes") == 4096
        assert reg.value("dma.put.bytes") == 1024
        assert reg.value("ldm.used") == 0
        assert reg.gauge("ldm.high_water").value >= 1000

    def test_snapshot_and_render(self):
        reg = MetricsRegistry("r")
        reg.inc("a", 3)
        reg.set_gauge("b", 2)
        reg.observe("c", 7)
        snap = reg.snapshot()
        assert snap["a"] == 3
        assert snap["b"]["peak"] == 2
        assert snap["c"]["count"] == 1
        assert "a = 3" in reg.render()


class TestComponentInstrumentation:
    def test_dma_transfer_spans(self):
        from repro.sunway.dma import DMAEngine

        tr = Tracer("dma")
        eng = DMAEngine(tracer=tr)
        eng.charge_get(4096)
        eng.charge_put(2048)
        spans = tr.recorder.spans(track="dma")
        assert [s.name for s in spans] == ["dma.get", "dma.put"]
        assert spans[0].args["nbytes"] == 4096
        # Spans tile the engine's cycle timeline back to back.
        assert spans[1].ts == pytest.approx(spans[0].ts + spans[0].dur)

    def test_ldm_occupancy_counter(self):
        from repro.sunway.ldm import LDM

        tr = Tracer("ldm")
        ldm = LDM(tracer=tr)
        blk = ldm.alloc(512)
        ldm.free(blk)
        samples = [e.args["value"] for e in tr.recorder.events if e.ph == "C"]
        assert 512.0 in samples and samples[-1] == 0.0

    def test_backend_kernel_spans_carry_flops_and_bytes(self):
        tr = Tracer("be")
        be = AthreadBackend()
        be.tracer = tr
        wl = table1_workloads()["euler_step"]
        rep = be.execute(wl)
        (span,) = tr.recorder.spans(cat="kernel")
        assert span.track == "backend.athread"
        assert span.args["flops"] == rep.flops
        assert span.args["bytes"] == rep.bytes_moved
        assert span.dur == pytest.approx(rep.seconds)

    def test_mpi_retransmit_instant_on_dropped_message(self, mesh4):
        from repro.resilience.faults import FaultInjector

        tr = Tracer("faults")
        m = DistributedShallowWater(
            mesh4, nranks=4, faults=FaultInjector(drop_messages=(3,)),
            tracer=tr,
        )
        m.run_steps(1)
        assert tr.recorder.instants(name="mpi.retransmit")

    def test_resilience_rollback_and_checkpoint_events(self, mesh4, tmp_path):
        from repro.resilience import (
            BitFlip,
            Checkpointer,
            FaultInjector,
            ResilientRunner,
        )

        tr = Tracer("res")
        faults = FaultInjector(
            bitflips=[BitFlip(step=2, rank=0, field_name="h", word=0, bit=63)]
        )
        m = DistributedShallowWater(mesh4, nranks=4, faults=faults, tracer=tr)
        runner = ResilientRunner(
            m, Checkpointer(tmp_path, cadence=1),
            faults=faults, tracer=tr,
        )
        runner.run(3)
        assert tr.recorder.instants(track="resilience", name="fault.sdc")
        assert tr.recorder.instants(track="resilience", name="rollback")
        assert tr.recorder.instants(track="resilience", name="checkpoint")

    def test_serial_model_step_spans(self):
        from repro.config import ModelConfig
        from repro.homme.timestep import PrimitiveEquationModel

        tr = Tracer("serial")
        model = PrimitiveEquationModel(
            ModelConfig(ne=4, nlev=4, qsize=1), dt=600.0, tracer=tr
        )
        model.run_steps(3)
        assert len(tr.recorder.spans(track="serial", name="step")) == 3
        # rsplit = 3: exactly one remap record in three steps.
        assert len(tr.recorder.instants(track="serial", name="vertical_remap")) == 1


class TestRooflineAttribution:
    @pytest.fixture(scope="class")
    def recorder(self):
        tr = Tracer("roofline")
        be = AthreadBackend()
        be.tracer = tr
        acc = OpenACCBackend()
        acc.tracer = tr
        for wl in table1_workloads().values():
            be.execute(wl)
            acc.execute(wl)
        return tr.recorder

    def test_classifies_euler_and_hypervis(self, recorder):
        atts = attribute_kernels(recorder)
        names = {a.name for a in atts}
        assert {"euler_step", "hypervis_dp1", "hypervis_dp2"} <= names
        for a in atts:
            assert a.bound in ("memory", "compute")
            assert 0.0 < a.achieved_fraction <= 1.0 + 1e-9
            assert a.achieved_flops <= a.attainable_flops * (1 + 1e-9)

    def test_bound_consistent_with_intensity(self, recorder):
        from repro.sunway.spec import DEFAULT_SPEC

        ridge = DEFAULT_SPEC.cg_peak_flops / DEFAULT_SPEC.cg_memory_bandwidth
        for a in attribute_kernels(recorder):
            expected = "memory" if a.arithmetic_intensity < ridge else "compute"
            assert a.bound == expected

    def test_report_renders(self, recorder):
        text = roofline_report(recorder)
        assert "euler_step" in text and "of bound" in text

    def test_empty_recorder(self):
        assert "no kernel spans" in roofline_report(FlightRecorder())


class TestTextSummaryAndJsonl:
    def test_text_summary_lists_tracks(self, mesh4):
        tr = Tracer("sum")
        traced_sw_run(mesh4, nsteps=1, tracer=tr)
        text = tr.recorder.text_summary()
        assert "rank0" in text and "span pack" in text

    def test_jsonl_round_trips(self):
        tr = Tracer("rt")
        tr.span_at("rank0", "pack", 0.0, 1.0, peer=1)
        tr.instant("rank0", "mpi.isend", 0.5, nbytes=np.int64(64))
        rows = [json.loads(line) for line in
                tr.recorder.to_jsonl().splitlines()]
        assert rows[0]["name"] == "pack"
        assert rows[1]["args"]["nbytes"] == 64  # numpy scalar coerced

    def test_write_files(self, tmp_path):
        tr = Tracer("files")
        tr.span_at("rank0", "x", 0.0, 1.0)
        jp, cp = tmp_path / "t.jsonl", tmp_path / "t.json"
        tr.recorder.write_jsonl(str(jp))
        tr.recorder.write_chrome_trace(str(cp))
        assert json.loads(jp.read_text())["name"] == "x"
        assert validate_chrome_trace(json.loads(cp.read_text())) == []
