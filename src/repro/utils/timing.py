"""The simulated-time clock.

The hardware simulators charge costs to a :class:`SimClock` rather than
reading the host's wall clock, so simulated results are deterministic and
independent of the machine running the reproduction.
"""

from __future__ import annotations


class SimClock:
    """A monotonically advancing simulated clock.

    Costs are charged in seconds via :meth:`advance`.  Components that
    overlap in simulated time (e.g. communication hidden behind
    computation) use :meth:`advance_to` with an absolute target so that
    the clock reflects the *maximum* of overlapping activities rather
    than their sum.
    """

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time [s]."""
        return self._now

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Advance the clock to absolute time ``t`` if ``t`` is later."""
        if t > self._now:
            self._now = t
        return self._now

    def reset(self) -> None:
        """Reset simulated time to zero."""
        self._now = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock(now={self._now:.6e}s)"
