"""State validation: catching silent data corruption before it spreads.

A flipped bit in a DMA transfer does not crash anything — it quietly
poisons one layer thickness, and three timesteps later the whole column
is NaN.  The defence the big runs use is cheap invariant checking after
every step: prognostic fields must be finite, and layer pressure
thickness ``dp3d`` must stay positive (a negative thickness is
unphysical and the vertical remap's death sentence).

:class:`StateValidator` implements those checks against the per-rank
states of any model (a serial model is one rank).  It reports *where* the violation
lives (rank and field), which the resilient runner logs before rolling
back to the last good checkpoint.
"""

from __future__ import annotations

from ..errors import ResilienceError
from ..homme.element import bad_values


class StateValidator:
    """Post-step invariant checks for per-rank model states: the rules
    every layout holds initial states and snapshots to
    (:func:`~repro.homme.element.bad_values`)."""

    def problems(self, model) -> list[str]:
        """All invariant violations in ``model.rank_states()``, each named
        by the rank whose rows hold it, human-readable."""
        found: list[str] = []
        for r, state in enumerate(model.rank_states()):
            for name, arr in vars(state).items():
                n, rule = bad_values(name, arr)
                if n:
                    found.append(f"rank {r}: {name} has {n} {rule} value(s)")
        return found

    def check(self, model) -> bool:
        """True if the state is healthy."""
        return not self.problems(model)

    def require(self, model) -> None:
        """Raise :class:`ResilienceError` on any violation."""
        found = self.problems(model)
        if found:
            raise ResilienceError(
                "state validation failed: " + "; ".join(found)
            )
