"""repro.api — one facade over every way to run a simulation.

The platform grew four entry points — serial :class:`~repro.core.Simulation`,
backend-pooled :class:`~repro.distributed.DataManager`, the TCP
:class:`~repro.distributed.NetworkServer`, and checkpointed resume — each
with its own construction ritual.  :func:`run` folds them behind a single
declarative :class:`RunRequest`, so flags such as workers, checkpointing,
deadlines and pathlength gating behave identically everywhere, and the
telemetry hooks (:mod:`repro.observe`) attach in exactly one place.

The decomposition contract still holds: a request's tally depends only on
``(config, n_photons, seed, task_size, kernel)`` — never on the backend,
worker count or schedule — so the same request run serially, on a process
pool, or over TCP produces bit-identical physics.

Examples
--------
>>> from repro.api import RunRequest, run
>>> report = run(RunRequest(model="white_matter", n_photons=2000))
>>> 0.0 < report.tally.diffuse_reflectance < 1.0
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__
from .core import RecordConfig, SimulationConfig
from .core.simulation import KernelName
from .distributed import (
    CheckpointManager,
    DataManager,
    NetworkServer,
    RunReport,
    make_backend,
)
from .observe import ProgressReporter, Telemetry, TTYProgress

__all__ = ["RunRequest", "run", "build_config", "resolve_checkpoint", "DEFAULT_TASK_SIZE"]

#: Default self-scheduling chunk size.  Deliberately independent of the
#: worker count: the decomposition — and therefore the tally — must be a
#: function of the request, not of the execution substrate.
DEFAULT_TASK_SIZE = 10_000

_MODELS = ("white_matter", "adult_head", "neonatal_head")


@dataclass
class RunRequest:
    """Declarative description of one simulation run.

    Exactly one of ``config`` (a full
    :class:`~repro.core.config.SimulationConfig`) or ``model`` (a named
    tissue model: ``white_matter`` / ``adult_head`` / ``neonatal_head``,
    given a pencil-beam source and the detector/gate fields below) must be
    set.

    Execution fields
    ----------------
    workers / backend:
        ``backend`` is one of ``"serial" | "thread" | "process"`` (see
        :func:`repro.distributed.make_backend`) or ``"auto"`` — serial for
        one worker, a process pool otherwise.
    mode:
        ``"local"`` executes on an in-host backend; ``"serve"`` starts a
        :class:`~repro.distributed.NetworkServer` on ``host:port`` and
        blocks (up to ``serve_timeout``) until connecting clients finish
        the photon budget.
    checkpoint / resume / task_deadline:
        The fault-tolerance knobs, identical in every mode: completed tasks
        persist under the ``checkpoint`` directory, ``resume`` continues an
        existing one (required — a stale directory is never extended
        silently), ``task_deadline`` enables speculative re-dispatch.
    compress:
        In ``"serve"`` mode, offer zlib frame compression to connecting
        clients (negotiated per connection; off by default).  Ignored in
        ``"local"`` mode, which has no wire.
    span_size / sub_batch:
        Coordinator-throughput and kernel-tuning knobs.  ``span_size``
        groups tasks into tree-aligned spans folded worker-side (one
        payload and one coordinator merge per span; bit-identical to
        per-task dispatch).  ``sub_batch`` overrides the vectorized
        kernel's internal batch size; results are statistically equivalent
        but not bit-identical across different values.  Both are
        execution-only: neither enters the request fingerprint
        (:mod:`repro.service.fingerprint`), and ``span_size`` never
        changes the merged tally at all.
    retain_task_tallies:
        ``False`` drops each per-task tally once it is folded into the
        incremental reduction, bounding memory on very large runs; the
        merged tally is unaffected, but ``RunReport.task_results`` then
        carry metadata only (see :mod:`repro.analysis` before disabling).

    Observability fields
    --------------------
    telemetry:
        A caller-owned :class:`~repro.observe.Telemetry`; or
    metrics_path / progress:
        Convenience constructors — a JSONL event-sink path and/or a
        progress reporter (``True`` for a TTY bar, or any
        :class:`~repro.observe.ProgressReporter`).  The facade then owns
        the telemetry lifecycle and attaches the final metrics snapshot to
        :attr:`~repro.distributed.RunReport.metrics`.
    """

    config: SimulationConfig | None = None
    model: str | None = None
    n_photons: int = 20_000
    seed: int = 0
    kernel: KernelName = "vector"
    task_size: int | None = None

    # execution
    workers: int = 1
    backend: str = "auto"
    mode: str = "local"
    host: str = "127.0.0.1"
    port: int = 0
    serve_timeout: float = 3600.0
    heartbeat_timeout: float | None = 30.0

    # fault tolerance
    checkpoint: str | Path | CheckpointManager | None = None
    resume: bool = False
    task_deadline: float | None = None
    max_retries: int = 2
    compress: bool = False
    retain_task_tallies: bool = True

    # coordinator-throughput / kernel tuning (execution-only knobs)
    span_size: int | None = None
    sub_batch: int | None = None
    #: Record per-detected-photon path records onto ``tally.paths`` — the
    #: raw material for :mod:`repro.perturb` reweighting.  Execution-only:
    #: capture adds no RNG draws, every other tally field is bit-identical
    #: with or without it, so it does NOT enter the request fingerprint.
    #: Works in both modes (the flag ships with every ``TaskSpec``).
    capture_paths: bool = False

    # prefix extension / partial-range runs
    #: Run only tasks ``[start, stop)`` of the canonical decomposition.  The
    #: tally is the deterministic partial fold of that range; *physics-
    #: bearing* (a partial tally is a different result), so it participates
    #: in the request fingerprint.
    task_range: tuple[int, int] | None = None
    #: A :class:`~repro.core.reduce.TallyFrontier` from a cached smaller-
    #: budget run of the same physics; its covered tasks are primed into the
    #: reducer and not re-simulated (the delta run).  Execution-only: the
    #: final tally is bit-identical with or without it, so it does NOT enter
    #: the fingerprint.
    frontier: "TallyFrontier | None" = None
    #: Capture the run's reduction frontier onto ``RunReport.frontier`` so
    #: the result can later be budget-extended.  Execution-only.
    capture_frontier: bool = False

    # model-building conveniences (ignored when ``config`` is given)
    detector_spacing: float | None = None
    gate: tuple[float, float] | None = None
    boundary_mode: str = "probabilistic"
    records: RecordConfig | None = None

    # observability
    telemetry: Telemetry | None = None
    metrics_path: str | Path | None = None
    progress: bool | ProgressReporter = False

    #: Called with the live :class:`NetworkServer` right after it binds in
    #: ``mode="serve"`` (e.g. to announce the chosen port); ignored otherwise.
    on_server_start: Callable[[NetworkServer], None] | None = None

    def __post_init__(self) -> None:
        if (self.config is None) == (self.model is None):
            raise ValueError("set exactly one of RunRequest.config or RunRequest.model")
        if self.model is not None and self.model not in _MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {_MODELS}")
        if self.mode not in ("local", "serve"):
            raise ValueError(f"mode must be 'local' or 'serve', got {self.mode!r}")
        if self.workers <= 0:
            raise ValueError(f"workers must be > 0, got {self.workers}")
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory")
        if self.span_size is not None and self.span_size < 1:
            raise ValueError(f"span_size must be >= 1 or None, got {self.span_size}")
        if self.sub_batch is not None and self.sub_batch <= 0:
            raise ValueError(f"sub_batch must be > 0 or None, got {self.sub_batch}")
        if self.task_range is not None:
            lo, hi = self.task_range
            n_tasks = -(-self.n_photons // self.resolved_task_size())
            if not 0 <= lo < hi <= n_tasks:
                raise ValueError(
                    f"task_range [{lo}, {hi}) out of range for the "
                    f"{n_tasks}-task decomposition of {self.n_photons} photons"
                )

    def resolved_task_size(self) -> int:
        return self.task_size if self.task_size is not None else DEFAULT_TASK_SIZE

    def resolved_backend(self) -> str:
        if self.backend != "auto":
            return self.backend
        return "serial" if self.workers == 1 else "process"

    def provenance(self) -> dict:
        """Self-description embedded in saved tallies (``save_tally``).

        Includes the canonical request ``fingerprint``
        (:func:`repro.service.request_fingerprint`), so any archive can be
        verified against the request that claims it
        (``load_tally(expected_fingerprint=...)``).
        """
        from .service.fingerprint import (
            derivation_basis,
            perturbable_coefficients,
            physics_fingerprint,
            request_fingerprint,
        )

        out = {
            "package": "repro",
            "version": __version__,
            "model": self.model or "custom",
            "n_photons": self.n_photons,
            "seed": self.seed,
            "kernel": self.kernel,
            "task_size": self.resolved_task_size(),
            "sub_batch": self.sub_batch,
            "boundary_mode": self.boundary_mode,
            "fingerprint": request_fingerprint(self),
            "physics_fingerprint": physics_fingerprint(self),
            "derivation_basis": derivation_basis(self),
            "coefficients": perturbable_coefficients(self),
            "created_unix": time.time(),
        }
        if self.task_range is not None:
            out["task_range"] = [int(self.task_range[0]), int(self.task_range[1])]
        return out


def build_config(request: RunRequest) -> SimulationConfig:
    """The :class:`SimulationConfig` a request describes.

    Returns ``request.config`` unchanged when one was given; otherwise
    assembles the named tissue model with a pencil beam and the requested
    detector/gate/boundary options (the construction the CLI has always
    performed, now shared by every entry point).
    """
    if request.config is not None:
        return request.config
    from .detect import AnnularDetector, PathlengthGate
    from .sources import PencilBeam
    from .tissue import adult_head, neonatal_head, white_matter

    stack = {
        "white_matter": white_matter,
        "adult_head": adult_head,
        "neonatal_head": neonatal_head,
    }[request.model]()
    kwargs: dict = dict(
        stack=stack,
        source=PencilBeam(),
        gate=PathlengthGate(*request.gate) if request.gate else None,
        boundary_mode=request.boundary_mode,
        records=(
            request.records
            if request.records is not None
            else RecordConfig(penetration_bins=(50.0, 200))
        ),
    )
    if request.detector_spacing is not None:
        rho = request.detector_spacing
        kwargs["detector"] = AnnularDetector(max(0.0, rho - 1.0), rho + 1.0)
    return SimulationConfig(**kwargs)


def resolve_checkpoint(
    directory: str | Path | CheckpointManager | None, resume: bool
) -> CheckpointManager | None:
    """Build (or validate) the checkpoint manager a request asks for.

    Without ``resume`` an *existing* checkpoint is refused rather than
    silently extended, so two unrelated runs can never be mixed by a stale
    directory (the semantics the CLI has always enforced).  A ready-made
    :class:`CheckpointManager` is subject to the same check.
    """
    if resume and directory is None:
        raise ValueError("resume requires a checkpoint directory")
    if directory is None:
        return None
    manager = (
        directory
        if isinstance(directory, CheckpointManager)
        else CheckpointManager(directory)
    )
    if manager.exists and not resume:
        raise ValueError(
            f"checkpoint {manager.directory} already exists; "
            "pass resume=True to continue"
        )
    return manager


def _resolve_telemetry(request: RunRequest) -> tuple[Telemetry | None, bool]:
    """The run's telemetry and whether the facade owns its lifecycle."""
    if request.telemetry is not None:
        return request.telemetry, False
    reporter: ProgressReporter | None = None
    if isinstance(request.progress, ProgressReporter):
        reporter = request.progress
    elif request.progress:
        reporter = TTYProgress()
    if request.metrics_path is None and reporter is None:
        return None, False
    if request.metrics_path is not None:
        return Telemetry.to_jsonl(str(request.metrics_path), progress=reporter), True
    return Telemetry(progress=reporter), True


def run(request: RunRequest) -> RunReport:
    """Execute ``request`` and return its :class:`~repro.distributed.RunReport`.

    The one entry point: serial, pooled, served-over-TCP and resumed runs
    all route through here, with identical decomposition, fault-tolerance
    and telemetry semantics.
    """
    config = build_config(request)
    checkpoint = resolve_checkpoint(request.checkpoint, request.resume)
    telemetry, owns_telemetry = _resolve_telemetry(request)
    try:
        # One plan, two transports: every scheduling and fault-tolerance
        # field means the same thing in either mode.
        plan = dict(
            n_photons=request.n_photons,
            seed=request.seed,
            task_size=request.resolved_task_size(),
            kernel=request.kernel,
            max_retries=request.max_retries,
            task_deadline=request.task_deadline,
            checkpoint=checkpoint,
            retain_task_tallies=request.retain_task_tallies,
            span_size=request.span_size,
            sub_batch=request.sub_batch,
            capture_paths=request.capture_paths,
            base_frontier=request.frontier,
            capture_frontier=request.capture_frontier,
            task_range=request.task_range,
            telemetry=telemetry,
        )
        if request.mode == "serve":
            server = NetworkServer(
                config,
                host=request.host,
                port=request.port,
                heartbeat_timeout=request.heartbeat_timeout,
                compress=request.compress,
                **plan,
            ).start()
            if request.on_server_start is not None:
                request.on_server_start(server)
            report = server.wait(timeout=request.serve_timeout)
        else:
            manager = DataManager(config, **plan)
            with make_backend(request.resolved_backend(), request.workers) as backend:
                report = manager.run(backend)
    finally:
        if owns_telemetry:
            final = telemetry.finish()
    if owns_telemetry:
        report.metrics = final
    return report
