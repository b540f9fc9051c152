"""Checkpoint/resume for distributed runs.

The paper's headline run — 10⁹ photons over ~2 hours on 150 non-dedicated
PCs — is exactly the kind of run that must survive a DataManager crash at
hour 1.9.  A :class:`CheckpointManager` persists every merged task result to
a directory as it arrives (per-task tally archives plus a JSON manifest
listing the completed set), so a killed run can be resumed: completed tasks
are loaded from disk, only the outstanding ones are re-executed, and the
reduction — restored and fresh results alike are fed through the canonical
pairwise tree of :class:`repro.core.reduce.PairwiseReducer`, whose shape
depends only on the task count — is **bit-identical** to the uninterrupted
run.  Bit-identity holds because task RNG streams are keyed by
``(seed, task_index)``, never by schedule, and because checkpoints store
*per-task* tallies rather than a running merged sum (floating-point merges
are not associative, so the reduction tree must be reconstructed from the
leaves, never replayed from a partial sum).

The manifest carries a *run key* (photon budget, seed, task size, kernel);
resuming against a checkpoint whose key differs is refused rather than
silently mixing incompatible runs.  All writes are atomic (temp file +
``os.replace``) so a crash mid-checkpoint never corrupts the manifest, and
a torn per-task tally file is simply dropped and its task re-run.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .protocol import TaskResult

__all__ = ["CheckpointError", "CheckpointManager", "run_key"]

logger = logging.getLogger(__name__)

_MANIFEST = "checkpoint.json"
_FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """The checkpoint directory cannot be used (corrupt or mismatched run)."""


def run_key(
    *,
    n_photons: int,
    seed: int,
    task_size: int,
    kernel: str,
    span_size: int | None = None,
    sub_batch: int | None = None,
    task_range: "tuple[int, int] | None" = None,
    base_spans: "list[tuple[int, int]] | None" = None,
    capture_paths: bool = False,
) -> dict:
    """The identity of a run's task decomposition.

    Two runs with the same key produce the same task list and per-task RNG
    streams, so their checkpoints are interchangeable; anything else must be
    refused at resume time.  ``span_size`` changes the dispatch-unit (and
    therefore checkpoint-entry) granularity, and ``sub_batch`` changes the
    kernel's RNG consumption pattern — both must match for a resume to stay
    bit-identical.  ``task_range`` (a partial-range run) and ``base_spans``
    (the coverage of a primed base frontier in a budget-extension delta run)
    change *which* tasks the run executes, so a delta run's checkpoint can
    only resume the same delta.  ``capture_paths`` changes what each
    checkpoint entry *stores* (per-photon path records): a capture run must
    not resume from paths-less entries — the merged records would silently
    vanish (``Tally.paths`` is all-or-nothing under merge).  All five enter
    the key only when set, so checkpoints written before these knobs
    existed keep resuming.
    """
    key = {
        "n_photons": int(n_photons),
        "seed": int(seed),
        "task_size": int(task_size),
        "kernel": str(kernel),
    }
    if span_size is not None:
        key["span_size"] = int(span_size)
    if sub_batch is not None:
        key["sub_batch"] = int(sub_batch)
    if task_range is not None:
        key["task_range"] = [int(task_range[0]), int(task_range[1])]
    if base_spans is not None:
        key["base_spans"] = [[int(s), int(e)] for s, e in base_spans]
    if capture_paths:
        key["capture_paths"] = True
    return key


@dataclass
class CheckpointManager:
    """Persist completed task results incrementally; reload them on resume.

    Parameters
    ----------
    directory:
        Where the manifest and per-task tally archives live (created on
        :meth:`load`).
    interval:
        Manifest rewrites are batched: the manifest is flushed after every
        ``interval`` recorded results (per-task tallies are always written
        immediately).  ``1`` (the default) flushes after every task.
    """

    directory: str | Path
    interval: int = 1

    _lock: threading.Lock = field(init=False, repr=False, default_factory=threading.Lock)
    _entries: dict[int, dict] = field(init=False, repr=False, default_factory=dict)
    _dirty: int = field(init=False, repr=False, default=0)
    _run: dict | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")

    @property
    def manifest_path(self) -> Path:
        return Path(self.directory) / _MANIFEST

    @property
    def exists(self) -> bool:
        """Whether this directory already holds a checkpoint manifest."""
        return self.manifest_path.exists()

    def load(self, key: dict) -> dict[int, TaskResult]:
        """Open the checkpoint for a run identified by ``key``.

        Returns the completed results found on disk (empty for a fresh
        checkpoint), keyed by task index.  Raises :class:`CheckpointError`
        if the directory holds a checkpoint of a *different* run or an
        unreadable manifest.
        """
        # Imported here, not at module top: repro.io.reports imports the
        # distributed package back, so a top-level import would be circular.
        from ..io.results import load_tally

        directory = Path(self.directory)
        directory.mkdir(parents=True, exist_ok=True)
        results: dict[int, TaskResult] = {}
        entries: dict[int, dict] = {}
        if self.exists:
            try:
                manifest = json.loads(self.manifest_path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint manifest {self.manifest_path}: {exc}"
                ) from exc
            if manifest.get("format_version") != _FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported checkpoint format version "
                    f"{manifest.get('format_version')!r}"
                )
            if manifest.get("run") != key:
                raise CheckpointError(
                    f"checkpoint in {directory} belongs to a different run "
                    f"(found {manifest.get('run')!r}, expected {key!r})"
                )
            for entry in manifest.get("tasks", []):
                idx = int(entry["task_index"])
                path = directory / entry["tally"]
                if not path.exists():
                    continue
                try:
                    # save_tally persists Tally.paths automatically when the
                    # result carried records; restore them so a capture run's
                    # resume keeps them.
                    tally = load_tally(path, paths=True)
                except (ValueError, OSError):  # torn write: redo the task
                    logger.warning("dropping unreadable checkpoint tally %s", path)
                    continue
                span = entry.get("span")
                results[idx] = TaskResult(
                    task_index=idx,
                    tally=tally,
                    worker_id=entry["worker_id"],
                    elapsed_seconds=entry["elapsed_seconds"],
                    attempt=entry["attempt"],
                    span=tuple(span) if span is not None else None,
                )
                entries[idx] = dict(entry)
        with self._lock:
            self._run = dict(key)
            self._entries = entries
            self._write_manifest()
        return results

    def record(self, result: TaskResult) -> None:
        """Persist one merged task result (tally immediately, manifest batched)."""
        from ..io.results import save_tally  # see load() for why this is lazy

        if self._run is None:
            raise CheckpointError("CheckpointManager.load() must run before record()")
        filename = f"task-{result.task_index:06d}.npz"
        save_tally(Path(self.directory) / filename, result.tally)
        with self._lock:
            entry = {
                "task_index": result.task_index,
                "worker_id": result.worker_id,
                "elapsed_seconds": result.elapsed_seconds,
                "attempt": result.attempt,
                "tally": filename,
            }
            if result.span is not None:
                # Span results index by unit; the covered task range is
                # needed to re-inject the partial at its subtree node.
                entry["span"] = list(result.span)
            self._entries[result.task_index] = entry
            self._dirty += 1
            if self._dirty >= self.interval:
                self._write_manifest()

    def flush(self) -> None:
        """Force any batched manifest entries to disk."""
        with self._lock:
            if self._run is not None and self._dirty:
                self._write_manifest()

    def completed_indices(self) -> set[int]:
        """Task indices recorded so far (including those loaded on resume)."""
        with self._lock:
            return set(self._entries)

    def _write_manifest(self) -> None:
        # Caller holds self._lock.
        manifest = {
            "format_version": _FORMAT_VERSION,
            "run": self._run,
            "tasks": [self._entries[i] for i in sorted(self._entries)],
        }
        tmp = self.manifest_path.with_name(_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, self.manifest_path)
        self._dirty = 0
