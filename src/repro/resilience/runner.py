"""The self-healing driver: detect, roll back, retry, complete.

:class:`ResilientRunner` ties the subsystem together around any of the
four models, serial or distributed:

1. checkpoint on a cadence (:class:`~repro.resilience.checkpoint.Checkpointer`);
2. after every step, apply any scheduled silent-data-corruption from the
   :class:`~repro.resilience.faults.FaultInjector` (the simulated DMA
   bit flip landing in model state), then run the
   :class:`~repro.resilience.validator.StateValidator`;
3. on a violation, restore the newest intact checkpoint and re-execute
   the lost steps — the re-run is clean because scheduled faults fire
   exactly once;
4. give up with :class:`~repro.errors.ResilienceError` only after
   ``max_rollbacks`` recoveries.

Because every recovery path (retransmitted messages, restored
checkpoints, re-executed steps) reproduces the exact float64 stream of
the healthy run, a faulty run's final state matches the fault-free
trajectory bitwise — the property the acceptance tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ResilienceError
from ..homme.element import check_steps
from ..obs.tracer import NULL_TRACER
from .checkpoint import Checkpointer
from .faults import FaultInjector, flip_bit
from .validator import StateValidator


@dataclass
class RunReport:
    """What happened during one resilient integration."""

    steps: int = 0
    rollbacks: int = 0
    checkpoints: int = 0
    resteps: int = 0           # steps re-executed after rollbacks
    fault_summary: dict = field(default_factory=dict)
    #: ``engine.recovery`` snapshot when the model runs on a supervised
    #: parallel pool (worker respawns, redistributed tasks, ...); empty
    #: for serial models.
    engine_recovery: dict = field(default_factory=dict)
    #: :class:`repro.obs.health.HealthReport` as JSON when the model
    #: exposes a pool engine (``verdict``/``findings``/``stats``);
    #: empty for serial models.
    health: dict = field(default_factory=dict)
    log: list[str] = field(default_factory=list)


class ResilientRunner:
    """Run a model to completion through injected faults.

    Parameters
    ----------
    model:
        Anything with ``step()``, ``step_count``, ``rank_states()``,
        ``snapshot()`` and ``restore_snapshot()`` — all four HOMME
        models qualify (a serial model is one rank).
    checkpointer:
        Where and how often to checkpoint.
    validator:
        Post-step invariant checks (a default one is built if omitted).
    faults:
        The injector whose ``step``-scheduled :class:`BitFlip` entries
        corrupt model state.  Usually the same injector wired into the
        model's SimMPI so one seed governs the whole run.
    max_rollbacks:
        Recovery budget for a single :meth:`run` call.
    tracer:
        Observability tracer (:mod:`repro.obs`): fault injections,
        rollbacks, and checkpoint writes appear as instant events on
        the "resilience" track, stamped with the model's simulated time
        (``max_rank_time``) when available, the step count otherwise.
    """

    def __init__(
        self,
        model,
        checkpointer: Checkpointer,
        validator: StateValidator | None = None,
        faults: FaultInjector | None = None,
        max_rollbacks: int = 3,
        tracer=None,
    ) -> None:
        if max_rollbacks < 0:
            raise ResilienceError(f"max_rollbacks must be >= 0, got {max_rollbacks}")
        self.model = model
        self.checkpointer = checkpointer
        self.validator = validator or StateValidator()
        self.faults = faults
        self.max_rollbacks = max_rollbacks
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.report = RunReport()

    def _trace_now(self) -> float:
        """Simulated timestamp for resilience events."""
        max_rank_time = getattr(self.model, "max_rank_time", None)
        if max_rank_time is not None:
            return float(max_rank_time())
        return float(self.model.step_count)

    # -- fault application ----------------------------------------------------

    def _apply_state_faults(self) -> None:
        if self.faults is None:
            return
        for bf in self.faults.state_flips_at(self.model.step_count):
            ranks = self.model.rank_states()
            if not 0 <= bf.rank < len(ranks):
                raise ResilienceError(
                    f"bit-flip targets rank {bf.rank}; the model has ranks "
                    f"0..{len(ranks) - 1}"
                )
            state = ranks[bf.rank]
            arr = getattr(state, bf.field_name, None)
            if arr is None:
                raise ResilienceError(
                    f"bit-flip targets unknown field {bf.field_name!r}"
                )
            flip_bit(arr, bf.word, bf.bit)
            self.report.log.append(
                f"step {self.model.step_count}: SDC injected in rank "
                f"{bf.rank} {bf.field_name} (word {bf.word}, bit {bf.bit})"
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "resilience", "fault.sdc", self._trace_now(), cat="fault",
                    step=self.model.step_count, rank=bf.rank,
                    field=bf.field_name, word=bf.word, bit=bf.bit,
                )

    # -- driving ---------------------------------------------------------------

    def run(self, nsteps: int) -> RunReport:
        """Advance ``nsteps`` healthy steps, recovering as needed;
        :class:`ResilienceError` before anything is saved unless
        ``nsteps`` is a whole number >= 0."""
        check_steps(nsteps, ResilienceError)
        if self.checkpointer.latest() is None:
            self.checkpointer.save(self.model)  # step-0 safety net
        target = self.model.step_count + nsteps
        max_seen = self.model.step_count
        while self.model.step_count < target:
            self.model.step()
            self.report.steps += 1
            if self.model.step_count <= max_seen:
                self.report.resteps += 1
            max_seen = max(max_seen, self.model.step_count)
            self._apply_state_faults()
            problems = self.validator.problems(self.model)
            if problems:
                self._rollback(problems)
                continue
            if self.checkpointer.maybe(self.model) is not None:
                self.report.checkpoints += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "resilience", "checkpoint", self._trace_now(),
                        cat="resilience", step=self.model.step_count,
                    )
        if self.faults is not None:
            self.report.fault_summary = self.faults.summary()
        engine = getattr(self.model, "engine", None)
        if engine is not None:
            self.report.engine_recovery = dict(engine.recovery)
            self.report.health = engine.health().to_json()
        return self.report

    def _rollback(self, problems: list[str]) -> None:
        self.report.rollbacks += 1
        if self.report.rollbacks > self.max_rollbacks:
            raise ResilienceError(
                f"rollback budget ({self.max_rollbacks}) exhausted; "
                "last violations: " + "; ".join(problems)
            )
        restored = self.checkpointer.restore(self.model)
        self.report.log.append(
            f"validation failed ({'; '.join(problems)}); "
            f"rolled back to step {restored}"
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "resilience", "rollback", self._trace_now(), cat="fault",
                restored_step=restored, problems="; ".join(problems),
            )
