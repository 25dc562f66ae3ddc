"""Deterministic fault injection for the simulated machine.

The full-machine runs the paper reports (10.6 M cores for days) only
finish because the software tolerates the machine misbehaving: nodes
run slow, messages get lost, DRAM and DMA transfers flip bits, worker
processes die or hang.  :class:`FaultInjector` is the single source of
truth for every injected fault in the reproduction — the network layer,
the Sunway DMA engines, the parallel engine's workers and the resilient
runner all consult the same injector, so a whole faulty run is
reproducible from one seed.  (CPE loss is not injected here: it is
:meth:`~repro.sunway.core_group.CoreGroup.disable_cpes` and
``AthreadBackend(healthy_cpes=)``.)

Faults come in two flavours:

- **scheduled** — fire at an exact event index (the 3rd message sent,
  the 12th DMA transfer, model step 5, pool task 7), which is what the
  tests and the acceptance criteria use;
- **random** — fire with a configured probability from a seeded
  :class:`numpy.random.Generator`, for soak-style runs.

Every decision the injector takes is appended to :attr:`events`, so a
run can print exactly which faults fired and when.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class BitFlip:
    """One scheduled single-bit corruption.

    ``transfer`` targets the Nth DMA transfer (0-based, counted across
    all engines sharing the injector); ``step`` targets the model state
    after step N of a :class:`~repro.resilience.runner.ResilientRunner`;
    ``task`` targets the first float64 result of a pool task, by the
    engine's global task id, after its integrity digest is stamped
    (corruption in transit).  Exactly one of the three should be set.
    ``word`` and ``bit`` pick the
    float64 element (flattened index, modulo the array size) and the bit
    within its 64-bit pattern.  Bit 63 is the IEEE-754 sign bit — the
    classic silent-data-corruption that turns a layer thickness
    negative; bits 52-62 hit the exponent and typically produce huge
    values or Inf/NaN.
    """

    transfer: int | None = None
    step: int | None = None
    task: int | None = None
    field_name: str = "dp3d"
    rank: int = 0
    word: int = 0
    bit: int = 63


@dataclass
class FaultEvent:
    """One fault that actually fired (for logs and assertions)."""

    kind: str  # "drop" | "delay" | "retransmit_drop" | "bitflip" | "laggard"
    detail: dict = field(default_factory=dict)


def flip_bit(arr: np.ndarray, word: int, bit: int) -> None:
    """Flip ``bit`` of float64 element ``word`` (C-order flat index,
    wrapped) in place, whatever the array's strides."""
    if arr.dtype != np.float64:
        raise ValueError(f"bit flips model float64 SDC, got dtype {arr.dtype}")
    if not (0 <= bit < 64):
        raise ValueError(f"bit must be in 0..63, got {bit}")
    if not arr.size:
        raise ValueError("cannot flip a bit of an empty array")
    # A one-element view of ``arr`` itself (the trailing ``...`` keeps a
    # 0-d array a view): ``reshape(-1)`` would copy a strided array and
    # the flip would land in the copy.
    idx = np.unravel_index(word % arr.size, arr.shape)
    bits = arr[tuple(slice(i, i + 1) for i in idx) + (...,)].view(np.uint64)
    bits ^= np.uint64(1) << np.uint64(bit)


class FaultInjector:
    """Seeded, deterministic source of every injected fault.

    Parameters
    ----------
    seed:
        Seed for the probabilistic faults.  Two injectors built with the
        same arguments take identical decisions.
    drop_messages:
        Send indices (0-based, in posting order) whose message is lost
        in flight; SimMPI retransmits it after a timeout window.
    drop_probability:
        Additionally drop any message with this probability.
    drop_retransmits:
        If True, retransmissions are dropped too (drives the receiver to
        :class:`~repro.errors.SimMPITimeoutError`).
    delay_messages:
        Mapping of send index -> extra in-flight seconds (a congested or
        rerouted path; the message still arrives).
    laggards:
        Mapping of rank -> compute slowdown factor (>= 1).  A factor of
        4.0 models the "one slow node" that dominates full-machine jobs.
    bitflips:
        :class:`BitFlip` schedule for DMA transfers, model state and pool
        task results.
    kill_tasks:
        Pool task ids whose worker kills itself (``SIGKILL``) before
        computing.
    stall_tasks:
        Mapping of pool task id -> seconds its worker stops heartbeating
        and sleeps (a wedged process, seen only as silence).
    delay_tasks:
        Mapping of pool task id -> seconds its worker sleeps after
        computing, before replying (a result that misses its deadline).

    The three task schedules and the ``task`` bit flips are the worker
    faults of the supervised engine (DESIGN.md §12): task ids are the
    driver's, in dispatch order (the start-up ping takes
    ``0..workers-1``), and each fires only on a task's first dispatch,
    so a redistributed or re-executed task runs clean.  Workers inherit
    the injector through ``fork`` and only read it.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_messages: tuple[int, ...] | list[int] = (),
        drop_probability: float = 0.0,
        drop_retransmits: bool = False,
        delay_messages: dict[int, float] | None = None,
        laggards: dict[int, float] | None = None,
        bitflips: tuple[BitFlip, ...] | list[BitFlip] = (),
        kill_tasks: tuple[int, ...] | list[int] = (),
        stall_tasks: dict[int, float] | None = None,
        delay_tasks: dict[int, float] | None = None,
    ) -> None:
        if not (0.0 <= drop_probability < 1.0):
            raise ValueError(f"drop_probability must be in [0,1), got {drop_probability}")
        for r, f in (laggards or {}).items():
            if f < 1.0:
                raise ValueError(f"laggard factor for rank {r} must be >= 1, got {f}")
        self.rng = np.random.default_rng(seed)
        self.drop_messages = frozenset(int(i) for i in drop_messages)
        self.drop_probability = float(drop_probability)
        self.drop_retransmits = bool(drop_retransmits)
        self.delay_messages = {int(k): float(v) for k, v in (delay_messages or {}).items()}
        self.laggards = {int(r): float(f) for r, f in (laggards or {}).items()}
        self.bitflips = tuple(bitflips)
        self.kill_tasks = frozenset(int(t) for t in kill_tasks)
        self.stall_tasks = {int(k): float(v) for k, v in (stall_tasks or {}).items()}
        self.delay_tasks = {int(k): float(v) for k, v in (delay_tasks or {}).items()}
        self.events: list[FaultEvent] = []
        self.send_index = 0
        self.dma_index = 0
        self._fired_steps: set[int] = set()

    # -- network hooks ------------------------------------------------------

    def on_send(self, src: int, dst: int, tag: int, nbytes: int) -> tuple[str, float]:
        """Decide the fate of the next posted message.

        Returns ``("deliver", 0.0)``, ``("drop", 0.0)`` or
        ``("delay", extra_seconds)``.
        """
        i = self.send_index
        self.send_index += 1
        if i in self.drop_messages or (
            self.drop_probability > 0.0 and self.rng.random() < self.drop_probability
        ):
            self.events.append(
                FaultEvent("drop", {"index": i, "src": src, "dst": dst, "tag": tag})
            )
            return ("drop", 0.0)
        if i in self.delay_messages:
            dt = self.delay_messages[i]
            self.events.append(
                FaultEvent("delay", {"index": i, "src": src, "dst": dst, "extra": dt})
            )
            return ("delay", dt)
        return ("deliver", 0.0)

    def on_retransmit(self, src: int, dst: int, tag: int, attempt: int) -> bool:
        """Whether retransmission ``attempt`` (1-based) gets through."""
        if self.drop_retransmits:
            self.events.append(
                FaultEvent(
                    "retransmit_drop",
                    {"src": src, "dst": dst, "tag": tag, "attempt": attempt},
                )
            )
            return False
        return True

    def compute_factor(self, rank: int) -> float:
        """Compute-time multiplier for ``rank`` (1.0 = healthy)."""
        return self.laggards.get(rank, 1.0)

    # -- Sunway hooks -------------------------------------------------------

    def on_dma(self, buffer: np.ndarray) -> bool:
        """Called per DMA transfer; corrupts ``buffer`` in place if this
        transfer index is scheduled for a bit flip.  Returns True if a
        flip fired."""
        i = self.dma_index
        self.dma_index += 1
        fired = False
        for bf in self.bitflips:
            if bf.transfer == i and buffer.dtype == np.float64 and buffer.size:
                flip_bit(buffer, bf.word, bf.bit)
                self.events.append(
                    FaultEvent("bitflip", {"transfer": i, "word": bf.word, "bit": bf.bit})
                )
                fired = True
        return fired

    # -- model-state hooks --------------------------------------------------

    def state_flips_at(self, step: int) -> list[BitFlip]:
        """Scheduled state corruptions firing after model step ``step``.

        Each step's flips fire exactly once — after a rollback the
        re-executed step is clean, which is what lets the resilient
        runner converge.
        """
        if step in self._fired_steps:
            return []
        flips = [bf for bf in self.bitflips if bf.step == step]
        if flips:
            self._fired_steps.add(step)
            self.events.append(
                FaultEvent("bitflip", {"step": step, "count": len(flips)})
            )
        return flips

    # -- external observations ----------------------------------------------

    def record(self, kind: str, /, **detail) -> FaultEvent:
        """Append an externally observed fault to the event log.

        The supervised parallel engine reports what it *saw* — worker
        crashes, hangs, overdue results, corrupt results — through
        the same injector that scheduled the chaos, so one ``summary()``
        narrates cause and effect of a whole faulty run.
        """
        ev = FaultEvent(kind, detail)
        self.events.append(ev)
        return ev

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Count of fired faults by kind."""
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out
