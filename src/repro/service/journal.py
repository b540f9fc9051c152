"""Crash-safe job journal for the serving subsystem.

The :class:`~repro.service.jobs.JobManager` keeps all job state in memory;
a process restart would lose every queued job and every simulation in
flight.  The :class:`JobJournal` makes that state durable the same way the
distributed layer made *runs* durable (PR 1's checkpoints): an append-only
JSONL log of job transitions, fsynced per record, replayed on startup.

Journal layout (one directory, the CLI's ``--journal DIR``)::

    <root>/journal.jsonl          append-only transition log
    <root>/checkpoints/<fp>/      per-flight checkpoint directories
                                  (repro.distributed.checkpoint format)

Each line is one JSON record::

    {"v": 1, "event": "submitted", "job_id": ..., "fingerprint": ...,
     "request": {...}|null, "priority": 1, "client": ..., "ts": ...}
    {"v": 1, "event": "started",   "job_id": ..., ...}
    {"v": 1, "event": "done" | "failed" | "cancelled", "job_id": ..., ...}

Replay folds the transitions per job id: a job whose latest event is
terminal is closed; everything else is *open* and must be re-enqueued by
the manager.  A job that was ``started`` when the process died resumes
from its flight's checkpoint directory (if any) instead of restarting from
photon zero — bit-identity is inherited from the checkpoint machinery.

Durability properties
---------------------
* **Append + fsync.**  Every record is flushed and fsynced before the
  submission is acknowledged; ``kill -9`` can lose at most the record
  being written.  The fsync cost is observed into the
  ``service.journal.fsync_seconds`` histogram (disable with
  ``fsync=False`` where durability is not needed, e.g. benchmarks).
* **Torn tails tolerated.**  A crash mid-append leaves a truncated final
  line; replay skips it (counted as ``service.journal.torn``) instead of
  refusing the whole journal.
* **Atomic compaction.**  The log grows without bound unless rewritten;
  :meth:`compact` atomically replaces it (temp file + ``os.replace`` +
  directory fsync) with one ``submitted`` record per open job, so a crash
  during compaction preserves either the old or the new journal, never a
  mix.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..observe import Telemetry

__all__ = ["JobJournal", "OpenJob"]

logger = logging.getLogger(__name__)

_JOURNAL_NAME = "journal.jsonl"
_CHECKPOINTS_DIR = "checkpoints"
_RECORD_VERSION = 1

#: Events that close a job; anything else leaves it open for replay.
_TERMINAL_EVENTS = frozenset({"done", "failed", "cancelled"})

#: Types of a ``submitted`` record's fingerprint, request, priority, client
#: and ts; replay skips a record that breaks one.
_OPTIONAL = type(None)
_SUBMITTED_TYPES = (str, (dict, _OPTIONAL), int, (str, _OPTIONAL), float)

#: Compact once the log exceeds this size (checked by the manager after
#: terminal events; purely a growth bound, not a correctness knob).
DEFAULT_MAX_BYTES = 4 << 20


@dataclass
class OpenJob:
    """A job the journal says is still owed a result."""

    job_id: str
    fingerprint: str
    request: dict | None
    priority: int = 1
    client: str | None = None
    submitted_ts: float = 0.0
    #: True when the process died while the job's flight was running —
    #: its checkpoint directory (if any) holds partial progress.
    was_running: bool = False


class JobJournal:
    """Durable JSONL log of job transitions, with atomic compaction."""

    def __init__(
        self,
        root: str | Path,
        *,
        fsync: bool = True,
        max_bytes: int = DEFAULT_MAX_BYTES,
        telemetry: Telemetry | None = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.max_bytes = max_bytes
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115

    # --------------------------------------------------------------- layout
    @property
    def path(self) -> Path:
        return self.root / _JOURNAL_NAME

    @property
    def checkpoints_root(self) -> Path:
        return self.root / _CHECKPOINTS_DIR

    def checkpoint_dir(self, fingerprint: str) -> Path:
        """Where a flight with this fingerprint checkpoints its tasks."""
        if not fingerprint or "/" in fingerprint or "." in fingerprint:
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        return self.checkpoints_root / fingerprint

    # --------------------------------------------------------------- append
    def record(
        self,
        event: str,
        job_id: str,
        *,
        fingerprint: str | None = None,
        request: dict | None = None,
        priority: int | None = None,
        client: str | None = None,
        **extra,
    ) -> None:
        """Append one transition and make it durable before returning.

        ``extra`` fields (JSON-serialisable) ride along in the record —
        e.g. a ``started`` record for a prefix-extension delta run carries
        ``cache``/``base_fingerprint``/``delta_photons``.  Replay ignores
        fields it does not know, so extras never break recovery.
        """
        payload: dict = {"v": _RECORD_VERSION, "event": event, "job_id": job_id,
                         "ts": time.time()}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        if request is not None:
            payload["request"] = request
        if priority is not None:
            payload["priority"] = priority
        if client is not None:
            payload["client"] = client
        for key, value in extra.items():
            if value is not None:
                payload[key] = value
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        with self._lock:
            if self._file.closed:
                return  # journal closed mid-shutdown: nothing left to protect
            t0 = time.perf_counter()
            self._file.write(line)
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._observe("service.journal.fsync_seconds", time.perf_counter() - t0)
        self._count("service.journal.records")

    def size(self) -> int:
        """Current byte size of the log (0 when it does not exist)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # --------------------------------------------------------------- replay
    def replay(self) -> list[OpenJob]:
        """Fold the log into the list of jobs still owed a result.

        Jobs come back in submission order.  A torn final line (crash
        mid-append) is skipped and counted, as is any line that is not a
        well-typed record; a ``started`` job with no terminal event is
        marked ``was_running`` so the manager resumes it from its
        checkpoint.
        """
        submitted: dict[str, OpenJob] = {}
        closed: set[str] = set()
        torn = 0
        try:
            # A torn multi-byte character must not sink the whole log.
            raw = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return []
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError):
                torn += 1
                continue
            if not isinstance(rec, dict) or rec.get("v") != _RECORD_VERSION:
                torn += 1
                continue
            event = rec.get("event")
            job_id = rec.get("job_id")
            if not isinstance(job_id, str) or not isinstance(event, str):
                torn += 1
                continue
            if event == "submitted":
                fields = (rec.get("fingerprint"), rec.get("request"),
                          rec.get("priority", 1), rec.get("client"), rec.get("ts", 0.0))
                if not all(map(isinstance, fields, _SUBMITTED_TYPES)):
                    torn += 1
                    continue
                fingerprint, request, priority, client, ts = fields
                submitted[job_id] = OpenJob(
                    job_id=job_id,
                    fingerprint=fingerprint,
                    request=request,
                    priority=priority,
                    client=client,
                    submitted_ts=ts,
                )
            elif event == "started":
                job = submitted.get(job_id)
                if job is not None:
                    job.was_running = True
            elif event in _TERMINAL_EVENTS:
                closed.add(job_id)
        if torn:
            logger.warning(
                "journal %s: skipped %d torn/unknown record(s)", self.path, torn
            )
            self._count("service.journal.torn", torn)
        return [job for job_id, job in submitted.items() if job_id not in closed]

    # ----------------------------------------------------------- compaction
    def compact(self, open_jobs: list[OpenJob]) -> None:
        """Atomically rewrite the log to exactly the given open jobs."""
        lines = []
        for job in open_jobs:
            payload: dict = {
                "v": _RECORD_VERSION,
                "event": "submitted",
                "job_id": job.job_id,
                "fingerprint": job.fingerprint,
                "ts": job.submitted_ts or time.time(),
                "priority": job.priority,
            }
            if job.request is not None:
                payload["request"] = job.request
            if job.client is not None:
                payload["client"] = job.client
            lines.append(json.dumps(payload, separators=(",", ":")))
            if job.was_running:
                lines.append(json.dumps(
                    {"v": _RECORD_VERSION, "event": "started",
                     "job_id": job.job_id, "ts": time.time()},
                    separators=(",", ":"),
                ))
        body = "".join(line + "\n" for line in lines)
        tmp = self.path.with_name(_JOURNAL_NAME + ".tmp")
        with self._lock:
            if self._file.closed:
                return
            self._file.close()
            try:
                with open(tmp, "w", encoding="utf-8") as fh:
                    fh.write(body)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                os.replace(tmp, self.path)
                if self.fsync:
                    self._fsync_dir()
            finally:
                tmp.unlink(missing_ok=True)
                self._file = open(self.path, "a", encoding="utf-8")  # noqa: SIM115
        self._count("service.journal.compactions")

    def _fsync_dir(self) -> None:
        # Make the rename itself durable (POSIX: fsync the directory).
        try:
            fd = os.open(self.root, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                if self.fsync:
                    try:
                        os.fsync(self._file.fileno())
                    except OSError:  # pragma: no cover
                        pass
                self._file.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- metrics
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.telemetry is not None:
            self.telemetry.count(name, amount)

    def _observe(self, name: str, value: float) -> None:
        if self.telemetry is not None:
            self.telemetry.observe(name, value)
