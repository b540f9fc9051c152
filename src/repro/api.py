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

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, get_args

from . import __version__
from .core import RecordConfig, SimulationConfig
from .core.simulation import KernelName
from .distributed import (
    BACKEND_NAMES,
    CheckpointManager,
    DataManager,
    NetworkServer,
    RunReport,
    make_backend,
)
from .observe import ProgressReporter, Telemetry, TTYProgress

__all__ = [
    "DEFAULT_TASK_SIZE",
    "ROLES",
    "SCHEMA",
    "RunRequest",
    "build_config",
    "resolve_checkpoint",
    "run",
]

#: Default self-scheduling chunk size.  Deliberately independent of the
#: worker count: the decomposition — and therefore the tally — must be a
#: function of the request, not of the execution substrate.
DEFAULT_TASK_SIZE = 10_000

_MODELS = ("white_matter", "adult_head", "neonatal_head")

#: The four roles a request field plays.  Physics and budget fields decide
#: the tally and enter the request fingerprint; execution and
#: observability fields decide how (and how visibly) it is computed.
ROLES = ("physics", "budget", "execution", "observability")


def _field(default, role, kind=None, /, *, ge=None, gt=None, pair=False,
           wire=False, unjournalable=False, changes_bits=False,
           flag=None, commands=("run",), **cli):
    """One row of the request schema: a dataclass field and its metadata.

    ``kind`` is ``int``, ``float``, ``bool``, ``str``, a tuple of allowed
    strings, or ``None`` for an object the consumer checks; ``ge``/``gt``
    bound numbers (both ends of a ``pair``).  ``wire`` lets an HTTP body
    set the field.  ``unjournalable`` marks a non-wire field whose
    non-default value makes the request unreplayable from the journal.
    ``changes_bits`` marks the one execution field that changes the tally's
    bits without entering its fingerprint.  ``flag`` exposes the field on
    the ``commands`` CLI subcommands; the remaining keywords are argparse
    options (``default`` overrides the field default on the command line,
    ``defaults`` per command).
    """
    meta = dict(role=role, kind=kind, ge=ge, gt=gt, pair=pair, wire=wire,
                unjournalable=unjournalable, changes_bits=changes_bits)
    if flag is not None:
        meta["cli"] = dict(cli, flag=flag, commands=commands)
    return field(default=default, metadata=meta)


def _is(kind, item, pair: bool) -> bool:
    """Whether ``item`` is a value of ``kind`` (``int``/``float`` exclude bool)."""
    if kind is int:
        return isinstance(item, numbers.Integral) and not isinstance(item, bool)
    if kind is float:
        if not isinstance(item, numbers.Real) or isinstance(item, bool):
            return False
        try:  # an open-ended window (a pair's upper end) may be infinite
            return math.isfinite(item) or (pair and item == math.inf)
        except OverflowError:  # an int beyond float range
            return False
    return isinstance(item, kind)


def _check(name: str, value, meta) -> None:
    """Type- and range-check one field value against its schema row."""
    kind, pair = meta["kind"], meta["pair"]
    if kind is None or (value is None and meta["nullable"]):
        return
    if isinstance(kind, tuple):
        if value not in kind:
            raise ValueError(f"unknown {name} {value!r}; choose from {kind}")
        return
    items = value if pair and isinstance(value, tuple) else (value,)
    if len(items) != 1 + pair or not all(_is(kind, item, pair) for item in items):
        noun = "finite float" if kind is float else kind.__name__
        raise ValueError(
            f"{name} must be {f'a pair of {noun}s' if pair else noun}, got {value!r}"
        )
    for item in items:
        if meta["ge"] is not None and not item >= meta["ge"]:
            raise ValueError(f"{name} must be >= {meta['ge']}, got {value!r}")
        if meta["gt"] is not None and not item > meta["gt"]:
            raise ValueError(f"{name} must be > {meta['gt']}, got {value!r}")
    if pair and not items[0] < items[1]:
        raise ValueError(f"{name} must be an increasing pair, got {value!r}")


@dataclass
class RunRequest:
    """Declarative description of one simulation run.

    Exactly one of ``config`` (a full
    :class:`~repro.core.config.SimulationConfig`) or ``model`` (a named
    tissue model: ``white_matter`` / ``adult_head`` / ``neonatal_head``,
    given a pencil-beam source and the detector/gate fields below) must be
    set.

    Every field is one row of the request schema (:data:`SCHEMA`): its
    role, whether the HTTP wire may set it, whether the job journal can
    replay it, its type and range (checked here, so every entry point
    refuses the same values) and the ``run``/``serve`` flag that sets it.
    The wire whitelist and coercion (:mod:`repro.service.http`), the
    journal's replay rule and the CLI flag groups are all derived from it.

    ``mode="serve"`` starts a :class:`~repro.distributed.NetworkServer` on
    ``host:port`` and blocks (up to ``serve_timeout``) until connecting
    clients finish the photon budget; ``"local"`` runs on an in-host
    ``backend``.  ``telemetry`` is a caller-owned
    :class:`~repro.observe.Telemetry`; with ``metrics_path`` / ``progress``
    instead, the facade owns the telemetry lifecycle and attaches the final
    metrics snapshot to :attr:`~repro.distributed.RunReport.metrics`.
    """

    config: SimulationConfig | None = _field(None, "physics", unjournalable=True)
    model: str | None = _field(
        None, "physics", _MODELS, wire=True, flag="--model",
        commands=("run", "serve"), default="adult_head")
    n_photons: int = _field(
        20_000, "budget", int, ge=0, wire=True, flag="--photons",
        commands=("run", "serve"), defaults={"serve": 100_000}, metavar="PHOTONS")
    seed: int = _field(0, "physics", int, ge=0, wire=True, flag="--seed",
                       commands=("run", "serve"))
    kernel: KernelName = _field("vector", "physics", get_args(KernelName),
                                wire=True, flag="--kernel")
    task_size: int | None = _field(
        None, "physics", int, ge=1, wire=True, flag="--task-size",
        commands=("run", "serve"), default=DEFAULT_TASK_SIZE)

    workers: int = _field(1, "execution", int, ge=1, wire=True, flag="--workers",
                          help="run distributed on this many local workers")
    backend: str = _field(
        "auto", "execution", ("auto", *BACKEND_NAMES), wire=True, flag="--backend",
        help="execution backend (auto: serial for 1 worker, process pool otherwise)")
    mode: str = _field("local", "execution", ("local", "serve"), unjournalable=True)
    host: str = _field("127.0.0.1", "execution", str, flag="--host",
                       commands=("serve",))
    port: int = _field(0, "execution", int, ge=0, flag="--port", commands=("serve",),
                       help="0 picks a free port")
    serve_timeout: float = _field(3600.0, "execution", float, gt=0, flag="--timeout",
                                  commands=("serve",), metavar="SECONDS")
    heartbeat_timeout: float | None = _field(
        30.0, "execution", float, gt=0, flag="--heartbeat-timeout",
        commands=("serve",), metavar="SECONDS",
        help="declare a silent client hung after this long (0 disables)")

    checkpoint: str | Path | CheckpointManager | None = _field(
        None, "execution", flag="--checkpoint", commands=("run", "serve"),
        type=str, metavar="DIR",
        help="persist completed tasks to DIR so the run can be resumed")
    resume: bool = _field(
        False, "execution", bool, flag="--resume", commands=("run", "serve"),
        help="continue from an existing checkpoint in --checkpoint DIR")
    task_deadline: float | None = _field(
        None, "execution", float, gt=0, flag="--task-deadline",
        commands=("run", "serve"), metavar="SECONDS",
        help="speculatively re-dispatch tasks in flight longer than this")
    max_retries: int = _field(2, "execution", int, ge=0)
    compress: bool = _field(
        False, "execution", bool, flag="--compress", commands=("run", "serve"),
        help="offer zlib frame compression to TCP clients (negotiated per "
             "connection; a purely local run has no wire and ignores it)")
    retain_task_tallies: bool = _field(
        True, "execution", bool, wire=True, flag="--no-retain-task-tallies",
        commands=("run", "serve"),
        help="drop per-task tallies once folded into the reduction (bounds "
             "memory; task results carry metadata only)")
    span_size: int | None = _field(
        None, "execution", int, ge=1, flag="--span-size", commands=("run", "serve"),
        metavar="N", help="fold up to N tasks worker-side into one tree-aligned "
        "span per dispatch (rounded down to a power of two; bit-identical to "
        "per-task dispatch)")
    sub_batch: int | None = _field(
        None, "execution", int, ge=1, unjournalable=True, changes_bits=True,
        flag="--sub-batch", commands=("run", "serve"), metavar="N",
        help="vectorized-kernel sub-batch override (execution tuning; results "
        "differ bit-for-bit across values but are statistically equivalent, "
        "so it never enters the fingerprint)")
    capture_paths: bool = _field(
        False, "execution", bool, wire=True, flag="--capture-paths",
        help="record per-detected-photon per-layer pathlengths into the tally "
        "(and --save archive) so 'perturb sweep' can derive perturbed tallies "
        "without re-simulating (no RNG draws; every other field bit-identical)")

    task_range: tuple[int, int] | None = _field(
        None, "budget", int, ge=0, pair=True, wire=True, flag="--task-range",
        metavar=("LO", "HI"), help="simulate only tasks [LO, HI) of the "
        "decomposition (a partial tally; fingerprinted separately)")
    #: A :class:`~repro.core.reduce.TallyFrontier` from a cached smaller-
    #: budget run of the same physics; its covered tasks are primed into the
    #: reducer and not re-simulated.  The final tally is bit-identical.
    frontier: "TallyFrontier | None" = _field(None, "execution", unjournalable=True)
    capture_frontier: bool = _field(
        False, "execution", bool, unjournalable=True, flag="--capture-frontier",
        help="store the reducer's span partials in --save so the archive can "
        "later seed a larger-budget run")

    # model-building conveniences (ignored when ``config`` is given)
    detector_spacing: float | None = _field(
        None, "physics", float, ge=0, wire=True, flag="--detector-spacing",
        metavar="MM", help="annular detector at this source spacing "
        "(default: accept all)")
    gate: tuple[float, float] | None = _field(
        None, "physics", float, ge=0, pair=True, wire=True, flag="--gate",
        metavar=("L_MIN", "L_MAX"), help="pathlength gate in mm")
    boundary_mode: str = _field("probabilistic", "physics",
                                ("probabilistic", "classical"), wire=True,
                                flag="--boundary-mode")
    records: RecordConfig | None = _field(None, "physics", unjournalable=True)

    telemetry: Telemetry | None = _field(None, "observability")
    metrics_path: str | Path | None = _field(
        None, "observability", flag="--metrics", commands=("run", "serve"),
        type=str, metavar="FILE.jsonl",
        help="write structured telemetry events (spans, counters, progress) "
        "to this JSONL file")
    progress: bool | ProgressReporter = _field(
        False, "observability", flag="--progress", commands=("run", "serve"),
        action="store_true", help="live progress bar on stderr")
    #: Called with the live :class:`NetworkServer` right after it binds in
    #: ``mode="serve"`` (e.g. to announce the chosen port); ignored otherwise.
    on_server_start: Callable[[NetworkServer], None] | None = _field(
        None, "observability")

    def __post_init__(self) -> None:
        for name, meta in SCHEMA.items():
            _check(name, getattr(self, name), meta)
        if (self.config is None) == (self.model is None):
            raise ValueError("set exactly one of RunRequest.config or RunRequest.model")
        if self.model is not None:
            # e.g. a detector_spacing so large that the +-1 mm annulus rounds
            # away: refused here, not when the request is first fingerprinted.
            build_config(self)
        if self.resume and self.checkpoint is None:
            raise ValueError("resume=True requires a checkpoint directory")
        if self.task_range is not None:
            lo, hi = self.task_range
            n_tasks = -(-self.n_photons // self.resolved_task_size())
            if hi > n_tasks:
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


#: The request schema: every :class:`RunRequest` field's metadata and
#: ``default``, by name; a field is ``nullable`` when its annotation admits
#: ``None``.
SCHEMA = {
    f.name: {**f.metadata, "default": f.default, "nullable": "None" in f.type}
    for f in fields(RunRequest)
}


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
