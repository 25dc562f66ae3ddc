"""Checkpoint/restart for every model.

Multi-day full-machine integrations are only as durable as their
checkpoints: the journey to 40-million-core climate runs (Duan et al.)
reports restart capability as a first-class engineering cost.  The
:class:`Checkpointer` here gives the reproduction the same contract the
real model has:

- **bitwise restart** — ``restore()`` reproduces the continued
  trajectory bit-for-bit (float64 arrays round-trip exactly through
  ``.npz``);
- **integrity** — every checkpoint embeds a CRC32 over all payload
  bytes; a corrupted file raises
  :class:`~repro.errors.CheckpointCorruptError` instead of silently
  resurrecting garbage;
- **atomicity** — files are written to a temporary name and
  ``os.replace``d into place, so a crash mid-write can never leave a
  half-checkpoint that looks valid;
- **rotation** — only the newest ``keep`` checkpoints are retained.

Any model exposing ``snapshot() -> dict[str, ndarray]`` and
``restore_snapshot(dict)`` can be checkpointed; all four HOMME models
do, through the one snapshot their layouts share
(:class:`repro.homme.timestep._Layout`), so this is the serial restart
as well as the distributed one.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..errors import CheckpointCorruptError, ResilienceError


def snapshot_crc(snap: dict[str, np.ndarray]) -> int:
    """CRC32 over every array's C-ordered bytes, in sorted key order
    (a contiguous array's buffer is hashed in place, not copied)."""
    crc = 0
    for key in sorted(snap):
        crc = zlib.crc32(key.encode(), crc)
        crc = zlib.crc32(np.ascontiguousarray(snap[key]).data, crc)
    return crc & 0xFFFFFFFF


class Checkpointer:
    """Cadenced, integrity-checked snapshots of a model.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created if missing).
    cadence:
        ``maybe(model)`` writes a checkpoint every ``cadence`` steps.
    keep:
        Retain at most this many checkpoints (oldest deleted first).
    """

    def __init__(self, directory: str | Path, cadence: int = 5, keep: int = 3) -> None:
        if cadence < 1:
            raise ResilienceError(f"cadence must be >= 1, got {cadence}")
        if keep < 1:
            raise ResilienceError(f"keep must be >= 1, got {keep}")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cadence = cadence
        self.keep = keep

    # -- paths --------------------------------------------------------------

    def _path(self, step: int) -> Path:
        return self.dir / f"ckpt_{step:08d}.npz"

    def checkpoints(self) -> list[Path]:
        """Finished checkpoint files (``ckpt_<step>.npz``), oldest first —
        never the temporary file of a save that was interrupted."""
        step = {p: p.stem.removeprefix("ckpt_") for p in self.dir.glob("ckpt_*.npz")}
        return sorted((p for p, s in step.items() if s.isdigit()),
                      key=lambda p: int(step[p]))

    def latest(self) -> Path | None:
        """Newest checkpoint file, or None."""
        cks = self.checkpoints()
        return cks[-1] if cks else None

    # -- writing ------------------------------------------------------------

    def save(self, model) -> Path:
        """Write one checkpoint of ``model`` atomically; returns its path."""
        snap = model.snapshot()
        snap["_crc"] = np.array([snapshot_crc(snap)], dtype=np.uint64)
        path = self._path(int(model.step_count))
        tmp = path.with_suffix(".tmp.npz")
        with open(tmp, "wb") as fh:
            np.savez(fh, **snap)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._rotate()
        return path

    def maybe(self, model) -> Path | None:
        """Checkpoint if the model's step count hits the cadence."""
        if model.step_count % self.cadence == 0:
            return self.save(model)
        return None

    def _rotate(self) -> None:
        for old in self.checkpoints()[: -self.keep]:
            old.unlink()

    # -- reading ------------------------------------------------------------

    def load(self, path: str | Path) -> dict[str, np.ndarray]:
        """Read and integrity-check one checkpoint file."""
        try:
            with np.load(path) as data:
                snap = {k: data[k] for k in data.files}
        except (OSError, ValueError, zipfile.BadZipFile, KeyError, EOFError) as err:
            # Byte-level damage can break the zip container or the npy
            # headers before the CRC is even reachable; that is the same
            # condition the CRC guards against.
            raise CheckpointCorruptError(f"{path}: unreadable ({err})") from err
        stored = snap.pop("_crc", None)
        if stored is None:
            raise CheckpointCorruptError(f"{path}: missing integrity record")
        actual = snapshot_crc(snap)
        if int(stored[0]) != actual:
            raise CheckpointCorruptError(
                f"{path}: CRC mismatch (stored {int(stored[0]):#010x}, "
                f"computed {actual:#010x})"
            )
        return snap

    def restore(self, model, path: str | Path | None = None) -> int:
        """Reset ``model`` from a checkpoint (newest good one by default).

        When scanning backwards, corrupt files are skipped with the next
        older checkpoint tried instead; only if *no* checkpoint survives
        does this raise.  Returns the restored step count.
        """
        candidates = [Path(path)] if path is not None else self.checkpoints()[::-1]
        last_err: Exception | None = None
        for cand in candidates:
            try:
                snap = self.load(cand)
            except CheckpointCorruptError as err:
                last_err = err
                continue
            model.restore_snapshot(snap)
            return int(model.step_count)
        if last_err is not None:
            raise CheckpointCorruptError(
                f"no intact checkpoint in {self.dir}: {last_err}"
            )
        raise ResilienceError(f"no checkpoint found in {self.dir}")
