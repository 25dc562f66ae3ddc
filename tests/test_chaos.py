"""Chaos tests for the self-healing parallel engine (DESIGN.md §12).

The property under test everywhere: any injected worker fault — crash,
hang, overdue result, corrupted result block — is recovered *locally*
(respawn + redistribute + re-execute, never whole-pool degrade), and
the trajectory stays **bitwise identical** to the serial run.  Scenarios
are seeded and deterministic, mirroring the FaultInjector contract.
"""

import numpy as np
import pytest

from repro.homme.distributed import DistributedShallowWater
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.obs import MetricsRegistry, collect_parallel_engine
from repro.parallel import SCENARIOS, ParallelEngine, run_scenario, scenario_spec
from repro.parallel.engine import _ping_task
from repro.resilience import (
    BitFlip,
    Checkpointer,
    FaultInjector,
    ResilientRunner,
)


@pytest.fixture(scope="module")
def mesh2():
    return CubedSphereMesh(2, 4)


def schedule(fi: FaultInjector) -> tuple:
    """An injector's worker faults: kill, stall and delay task ids with
    their seconds, and the result flips."""
    return (tuple(sorted(fi.kill_tasks)), fi.stall_tasks, fi.delay_tasks,
            tuple(bf for bf in fi.bitflips if bf.task is not None))


def task_ids(fi: FaultInjector) -> list[int]:
    kills, stalls, delays, flips = schedule(fi)
    return [*kills, *stalls, *delays, *(bf.task for bf in flips)]


class TestChaosSpec:
    """The chaos spec: a scenario's seeded task schedule, drawn by
    ``scenario_spec`` onto one FaultInjector."""

    def test_seeded_is_deterministic(self):
        for name in SCENARIOS:
            a, ka = scenario_spec(name, workers=2, tasks=8, seed=42)
            b, kb = scenario_spec(name, workers=2, tasks=8, seed=42)
            assert schedule(a) == schedule(b) and ka == kb, name
            assert task_ids(a), name

    def test_seeded_draws_distinct_task_ids(self):
        for seed in range(20):
            fi, _ = scenario_spec("mixed", workers=4, tasks=2, seed=seed)
            tids = task_ids(fi)
            assert len(tids) == len(set(tids)) == 2
            assert all(4 <= t < 6 for t in tids)

    @pytest.mark.parametrize("seed, first, kill, corrupt", [
        (0, 2, 2, 3), (3, 8, 9, 8)])
    def test_pinned_task_ids(self, seed, first, kill, corrupt):
        """The draw is the one the scenarios have always made (workers 2,
        tasks 2): the kill alone, then the mixed kill and corrupt."""
        fi, _ = scenario_spec("kill-worker", 2, 2, seed, first)
        assert schedule(fi) == ((kill,), {}, {}, ())
        fi, _ = scenario_spec("mixed", 2, 2, seed, first)
        assert schedule(fi) == ((kill,), {}, {}, (BitFlip(task=corrupt),))

    def test_stall_and_delay_carry_their_seconds(self):
        stall, over = scenario_spec("stall-heartbeat", 2, 2, 0)
        assert stall.stall_tasks == {2: 60.0} and over == {"heartbeat_timeout": 1.5}
        delay, over = scenario_spec("delay-result", 2, 2, 0)
        assert delay.delay_tasks == {2: 45.0} and over == {"result_timeout": 3.0}

    def test_overbooked_span_raises(self):
        with pytest.raises(ValueError, match="cannot schedule"):
            scenario_spec("mixed", workers=2, tasks=1)

    def test_unknown_scenario_raises(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError, match="unknown chaos scenario"):
            scenario_spec("bogus", workers=2, tasks=4)


#: Scenario -> recovery tallies that must be non-zero once it has run.
EXPECTED_RECOVERY = {
    "kill-worker": ("crashes", "respawns", "redistributed_tasks"),
    "stall-heartbeat": ("hangs", "respawns"),
    "delay-result": ("timeouts", "respawns"),
    "corrupt-result": ("corrupt_results", "reexecuted_tasks"),
    "mixed": ("crashes", "respawns", "corrupt_results"),
}

#: (scenario, at_step): every scenario at step 1, and at step 0 the two
#: fast ones — the slow three land there in their own named tests of
#: TestScenarioRecovery.
LANDINGS = [
    (name, at_step)
    for name in sorted(EXPECTED_RECOVERY)
    for at_step in (0, 1)
    if at_step or name in ("kill-worker", "corrupt-result")
]


class TestScenarioRecovery:
    """Each scenario completes bitwise identical to serial with the
    expected recovery action and zero whole-pool degrades."""

    @pytest.mark.parametrize("name,at_step", LANDINGS)
    def test_every_scenario_at_both_landing_points(self, name, at_step):
        """Step 0's first stage is the first use of its stage arrays'
        arena regions; step 1's is the steady state.  The same seeded
        fault recovers at both."""
        rep = run_scenario(name, workers=2, seed=0, at_step=at_step)
        assert rep["bitwise_identical"]
        for key in EXPECTED_RECOVERY[name]:
            assert rep["recovery"][key] >= 1, key
        assert rep["recovery"]["pool_degrades"] == 0
        assert rep["pool_active_at_end"]
        assert rep["transport"]["results_shm"] > 0
        assert rep["leaked_shm"] == []
        # The ping, then 3 stages a step of one task per shard: the pool
        # splits the 4 ranks into a shard per worker.
        tasks = rep["tasks_per_stage"]
        assert tasks == 2
        first = 2 + at_step * 3 * tasks
        tids = [t for ids in rep["spec"].values() for t in ids]
        assert tids and all(first <= t < first + tasks for t in tids)

    def test_landing_point_outside_the_run_raises(self):
        from repro.errors import KernelError

        with pytest.raises(KernelError, match="at_step"):
            run_scenario("kill-worker", workers=2, steps=2, at_step=2)

    def test_stall_heartbeat_recovers(self):
        rep = run_scenario("stall-heartbeat", workers=2, seed=0)
        assert rep["bitwise_identical"]
        assert rep["recovery"]["hangs"] >= 1
        assert rep["recovery"]["respawns"] >= 1
        assert rep["recovery"]["pool_degrades"] == 0

    def test_delay_result_past_timeout_recovers(self):
        rep = run_scenario("delay-result", workers=2, seed=0)
        assert rep["bitwise_identical"]
        assert rep["recovery"]["timeouts"] >= 1
        assert rep["recovery"]["respawns"] >= 1
        assert rep["recovery"]["pool_degrades"] == 0

    def test_mixed_faults_recover(self):
        rep = run_scenario("mixed", workers=2, seed=0)
        assert rep["bitwise_identical"]
        assert rep["recovery"]["crashes"] >= 1
        assert rep["recovery"]["corrupt_results"] >= 1
        assert rep["recovery"]["pool_degrades"] == 0

    def test_seeded_scenarios_are_reproducible(self):
        a = run_scenario("kill-worker", workers=2, seed=3)
        b = run_scenario("kill-worker", workers=2, seed=3)
        assert a["spec"] == b["spec"]
        assert a["bitwise_identical"] and b["bitwise_identical"]

    def test_fault_injector_narrates_engine_recovery(self):
        """The engine reports what it saw into the same FaultInjector
        that scheduled the kill — one event log for a whole faulty run."""
        rep = run_scenario("kill-worker", workers=2, seed=0)
        assert rep["bitwise_identical"]
        assert rep["fault_events"].get("worker_crash", 0) >= 1


class TestKillOneOfThree:
    def test_kill_one_of_three_respawns_without_degrade(self):
        """Acceptance criterion: worker death no longer degrades
        unaffected payloads — >= 1 respawn in parallel.recovery.respawns
        and zero whole-pool degrades; every result still correct."""
        fi = FaultInjector(kill_tasks=(4,))  # ping takes tids 0..2
        with ParallelEngine(workers=3, faults=fi) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            outs = e.run(_ping_task, [
                ({"add": float(i)}, (np.arange(6.0),)) for i in range(9)
            ])
            for i, (out,) in enumerate(outs):
                assert np.array_equal(out, np.arange(6.0) + i)
            assert e.active
            assert e.recovery["respawns"] >= 1
            assert e.recovery["crashes"] >= 1
            assert e.recovery["redistributed_tasks"] >= 1
            assert e.recovery["pool_degrades"] == 0
            reg = collect_parallel_engine(MetricsRegistry("chaos"), e)
            assert reg.value("parallel.recovery.respawns") >= 1
            assert reg.value("parallel.recovery.pool_degrades") == 0
            assert sum(s.respawns for s in e.stats) >= 1


class TestResilientRunnerParallel:
    """Injected *state* faults roll back a parallel run via checkpoint
    restore while the engine keeps its pool — the integration of
    repro.resilience with repro.parallel."""

    def test_sdc_rollback_of_parallel_run_matches_serial(
            self, mesh2, tmp_path):
        ref = DistributedShallowWater(mesh2, nranks=4)
        ref.run_steps(3)
        gref = ref.gather_state()

        fi = FaultInjector(
            seed=5,
            bitflips=[BitFlip(step=1, field_name="h", rank=1, word=7, bit=63)],
        )
        with DistributedShallowWater(
            mesh2, nranks=4, dt=ref.dt, workers=2, faults=fi,
        ) as m:
            runner = ResilientRunner(
                m, Checkpointer(tmp_path, cadence=1), faults=fi)
            report = runner.run(3)
            got = m.gather_state()
            engine_active = m.engine.active

        assert report.rollbacks == 1
        assert report.resteps >= 1
        assert report.fault_summary.get("bitflip") == 1
        assert report.engine_recovery  # folded from the supervised engine
        assert np.array_equal(gref.h, got.h)
        assert np.array_equal(gref.v, got.v)
        assert engine_active  # rollback never cost the pool

    def test_worker_kill_and_sdc_in_one_run(self, mesh2, tmp_path):
        """Both recovery systems in one run: a chaos worker kill handled
        by the supervisor AND a state bit-flip handled by checkpoint
        rollback — one injector schedules and narrates both, final state
        bitwise."""
        ref = DistributedShallowWater(mesh2, nranks=4)
        ref.run_steps(3)
        gref = ref.gather_state()

        kill, _ = scenario_spec("kill-worker", workers=2, tasks=2, seed=1)
        fi = FaultInjector(
            seed=9, kill_tasks=kill.kill_tasks,
            bitflips=[BitFlip(step=2, field_name="h", rank=0, word=3, bit=63)],
        )
        with DistributedShallowWater(
            mesh2, nranks=4, dt=ref.dt, workers=2, faults=fi,
        ) as m:
            runner = ResilientRunner(
                m, Checkpointer(tmp_path, cadence=1), faults=fi)
            report = runner.run(3)
            got = m.gather_state()
            recovery = dict(m.engine.recovery)

        assert report.rollbacks == 1
        assert recovery["respawns"] >= 1
        assert recovery["pool_degrades"] == 0
        assert report.fault_summary.get("worker_crash", 0) >= 1
        assert report.fault_summary.get("bitflip") == 1
        assert np.array_equal(gref.h, got.h)
        assert np.array_equal(gref.v, got.v)


class TestFaultsAtTheDSSBarrier:
    """A DSS task is two stages around the batch's barrier — the pack
    writes the shard's rows of the resident flat buffer, the sum reads
    every shard's rows and writes the shard's fields.  A worker killed,
    or a result corrupted where it lies in shared memory, in either
    stage, at step 0 or in the steady state, is recovered locally: the
    trajectory is the serial one's bytes, no degrade, no leaked block,
    and the closed model still steps, in process, on the same arrays."""

    @pytest.mark.parametrize("at_step", [0, 1])
    @pytest.mark.parametrize("stage", ["pack", "sum"])
    @pytest.mark.parametrize("name", ["kill-worker", "corrupt-result"])
    def test_fault_in_a_stage_recovers_bitwise(self, mesh2, name, stage, at_step):
        from repro.parallel.engine import STAGE_TIDS

        steps = 2
        with DistributedShallowWater(mesh2, nranks=4) as serial:
            serial.run_steps(steps)
            ref = serial.gather_state()
            serial.step()
            after = serial.gather_state()
        faults, overrides = scenario_spec(
            name, 2, 2, seed=0,
            first_task=2 + at_step * 3 * 2 + (stage == "sum") * STAGE_TIDS)
        model = DistributedShallowWater(mesh2, nranks=4, workers=2,
                                        faults=faults, engine_kwargs=overrides)
        try:
            if not model.engine.active:
                pytest.skip(f"pool unavailable: {model.engine.fallback_reason}")
            assert len(model.groups) == 2
            model.run_steps(steps)
            got = model.gather_state()
            rec = model.engine.recovery
            key = "crashes" if name == "kill-worker" else "corrupt_results"
            assert rec[key] == 1 and rec["pool_degrades"] == 0
            assert model.engine.describe()["degrade_reasons"] == {}
        finally:
            model.close()
        assert model.engine.leaked_shm() == []
        for f in ("h", "v"):
            assert getattr(got, f).tobytes() == getattr(ref, f).tobytes(), f
        model.step()  # after close(): in process, on the resident arrays
        for f in ("h", "v"):
            assert getattr(model.gather_state(), f).tobytes() == \
                getattr(after, f).tobytes(), f
