"""The step runs in the memory the state already holds.

The closing DSS of a step writes the state's fields where they lived
(the hyperviscosity update into v, T and dp3d, the tracer fixer — or a
remap step's remap — into qdp), on every layout, and the bytes are a
fresh-memory run's; a kept :meth:`snapshot` is untouched by later steps;
and the traced heap a step climbs above its starting size is flat from
step to step and bounded in state bytes (``scripts/step_peak.py``
prints the same number per layout).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from repro.homme import timestep
from repro.parallel import dycore

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "step_peak", REPO / "scripts" / "step_peak.py")
step_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_peak)

#: Elements of one block in the several-block layouts: four blocks at ne4
#: (one element of the 4-tracer, 8-level state is 4 KiB).
SHARD_ELEMS = 24
#: Bound on the per-step traced peak above the step's start, in state
#: bytes, in four blocks (measured 3.36 serial and twin; 4.50 and 4.10
#: before the closing DSS wrote in place and the one-shard DSS streamed).
PEAK_STATES = 3.4


def build(layout: str):
    """``serial`` (one block), ``blocks`` (the one-shard layout in four
    blocks), ``twin`` (four ranks in process: one shard of four blocks)
    or ``pool`` (the same on two workers: two shards of two blocks)."""
    blocks = 1 if layout == "serial" else 4
    budget = timestep.BLOCK_BYTES if blocks == 1 else SHARD_ELEMS * 4096
    with mock.patch.object(timestep, "BLOCK_BYTES", budget):
        model = step_peak.build("serial" if layout == "blocks" else layout)
    assert sum(len(dycore.blocks(g)) for g in model.geoms) == blocks
    if hasattr(model, "groups"):
        assert len(model.groups) == (2 if layout == "pool" else 1)
    if layout == "pool" and not model.engine.active:
        model.close()
        pytest.skip(f"pool unavailable: {model.engine.fallback_reason}")
    return model


def addresses(model) -> list[int]:
    return [a.ctypes.data for s in model.rank_states() for a in vars(s).values()]


def fresh_memory(model) -> None:
    """Make every DSS of ``model`` write fresh arrays, as before."""
    resident = model._resident
    model._resident = lambda outs: resident([getattr(o, "shape", o) for o in outs])


@pytest.mark.parametrize("layout", ["serial", "blocks", "twin", "pool"])
def test_the_closing_dss_writes_where_the_state_lived(layout):
    """Three steps, across the rsplit remap: every field stays at its
    address, and the bytes are a fresh-memory run's."""
    model, fresh = build(layout), build(layout)
    try:
        fresh_memory(fresh)
        where, fresh_where = addresses(model), addresses(fresh)
        for k in range(1, timestep.RSPLIT + 1):
            model.step()
            fresh.step()
            assert addresses(model) == where, f"step {k} moved the state"
            assert k > 1 or addresses(fresh) != fresh_where
            got, want = model.snapshot(), fresh.snapshot()
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), (key, k)
    finally:
        for m in (model, fresh):
            getattr(m, "close", lambda: None)()


@pytest.mark.parametrize("layout", ["serial", "twin"])
def test_a_kept_snapshot_survives_the_steps(layout):
    model = build(layout)
    snap = model.snapshot()
    was = {k: a.tobytes() for k, a in snap.items()}
    live = model.rank_states()[0].T.copy()
    model.run_steps(timestep.RSPLIT)
    assert {k: a.tobytes() for k, a in snap.items()} == was
    # The live arrays a caller keeps are the ones the steps overwrite.
    assert model.rank_states()[0].T.tobytes() != live.tobytes()


@pytest.mark.parametrize("layout", ["blocks", "twin"])
def test_the_step_peak_is_flat_and_bounded(layout):
    """The traced heap above each step's start, steps 2..20: flat among
    remap steps and among the others (a remap step also runs the remap's
    temporaries), and at most :data:`PEAK_STATES` state bytes."""
    model = build(layout)
    try:
        peaks = step_peak.traced_peaks(model, 20)
    finally:
        getattr(model, "close", lambda: None)()
    steady = list(enumerate(peaks, start=1))[1:]
    for remap in (True, False):
        kind = [p for k, p in steady if (k % timestep.RSPLIT == 0) == remap]
        assert max(kind) / min(kind) <= 1.05, (remap, kind)
    assert max(peaks[1:]) <= PEAK_STATES, peaks
