"""High-level simulation façade.

``Simulation`` is the single-process entry point: it owns a
:class:`~repro.core.config.SimulationConfig` (or a
:class:`~repro.voxel.VoxelConfig`), splits the photon budget into
tasks with independent RNG streams (exactly the decomposition the
distributed ``DataManager`` uses), runs them through the selected kernel and
merges the tallies.  Because the task decomposition and seeding are shared
with :mod:`repro.distributed`, a serial run and a distributed run of the
same ``(config, n_photons, seed, task_size)`` produce *identical* results.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

from ..observe import maybe_span
from .config import SimulationConfig
from .kernel import run_batch_scalar
from .reduce import PairwiseReducer
from .rng import task_rng
from .tally import Tally
from .vkernel import run_batch_vectorized

__all__ = ["Simulation", "run_photons", "KernelName", "split_photons"]

KernelName = Literal["vector", "scalar"]

#: Each kernel and whether it takes ``sub_batch`` (the scalar kernel traces
#: one photon at a time).  Both take ``telemetry`` and ``capture_paths``.
_KERNELS: dict[str, tuple[Callable[..., Tally], bool]] = {
    "vector": (run_batch_vectorized, True),
    "scalar": (run_batch_scalar, False),
}


def run_photons(
    config: SimulationConfig,
    n_photons: int,
    rng: np.random.Generator,
    kernel: KernelName = "vector",
    *,
    sub_batch: int | None = None,
    telemetry=None,
    capture_paths: bool = False,
) -> Tally:
    """Trace ``n_photons`` with the named kernel (the worker-side entry point).

    ``telemetry`` (optional :class:`~repro.observe.Telemetry`) is handed to
    the kernel, which traces batch timings; ``None`` disables telemetry at
    zero cost.  ``sub_batch`` overrides the vectorized kernel's internal
    batching (``None`` keeps the kernel's default); it is an execution
    tuning knob — results for different sub-batch sizes are statistically
    equivalent but not bit-identical, so hold it fixed when comparing runs
    bit-for-bit.  ``capture_paths`` asks the kernel to record per-detected-
    photon path records (``Tally.paths``, perturbation-MC raw material);
    the returned records are *unsealed* — the caller owns assigning the
    task key via ``tally.paths.seal(task_index)``.  The scalar kernel has
    no sub-batching and ignores ``sub_batch``.

    ``config`` may be a :class:`SimulationConfig` or a
    :class:`~repro.voxel.VoxelConfig`; the vectorised kernel takes its
    geometry from the config, the scalar kernel traces layer stacks only.
    """
    try:
        fn, sub_batched = _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {sorted(_KERNELS)}"
        ) from None
    kwargs = {"telemetry": telemetry, "capture_paths": capture_paths}
    if sub_batch is not None and sub_batched:
        kwargs["sub_batch"] = sub_batch
    return fn(config, n_photons, rng, **kwargs)


def split_photons(n_photons: int, task_size: int) -> list[int]:
    """Split a photon budget into task-sized chunks (last may be short).

    This is *the* canonical decomposition: both :class:`Simulation` and the
    distributed ``DataManager`` use it, so task ``i`` always means the same
    photons with the same RNG stream regardless of execution backend.
    """
    if n_photons < 0:
        raise ValueError(f"n_photons must be >= 0, got {n_photons}")
    if task_size <= 0:
        raise ValueError(f"task_size must be > 0, got {task_size}")
    full, rem = divmod(n_photons, task_size)
    counts = [task_size] * full
    if rem:
        counts.append(rem)
    return counts


class Simulation:
    """Single-process Monte Carlo simulation of one experiment.

    Examples
    --------
    >>> from repro.tissue import white_matter
    >>> from repro.sources import PencilBeam
    >>> from repro.core import SimulationConfig, Simulation
    >>> config = SimulationConfig(stack=white_matter(), source=PencilBeam())
    >>> tally = Simulation(config).run(n_photons=1000, seed=1)
    >>> 0.0 < tally.diffuse_reflectance < 1.0
    True
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config

    def run(
        self,
        n_photons: int,
        seed: int = 0,
        *,
        kernel: KernelName = "vector",
        task_size: int | None = None,
        sub_batch: int | None = None,
        telemetry=None,
        capture_paths: bool = False,
    ) -> Tally:
        """Run the experiment and return the merged tally.

        Parameters
        ----------
        n_photons:
            Total photon budget.
        seed:
            Experiment seed; combined with per-task indices to derive
            independent streams.
        kernel:
            ``"vector"`` (production) or ``"scalar"`` (reference).
        task_size:
            Photons per task.  ``None`` runs everything as one task.
            Choosing the same ``task_size`` as a distributed run makes the
            results bit-identical to it.
        sub_batch:
            Vectorized-kernel sub-batch override (see :func:`run_photons`);
            an execution tuning knob, ``None`` keeps the kernel default.
        telemetry:
            Optional :class:`~repro.observe.Telemetry`; traces per-task
            spans, kernel batch timings and progress.  ``None`` (default)
            disables telemetry at zero cost.
        capture_paths:
            Record per-detected-photon path records (``Tally.paths``)
            keyed by task index — the raw material for perturbation
            Monte Carlo reweighting (:mod:`repro.perturb`).  Captured
            records do not change any other tally field; the merged
            records are bit-identical across serial and distributed
            execution for the same ``task_size``.
        """
        if task_size is None:
            task_size = max(n_photons, 1)
        counts = split_photons(n_photons, task_size)
        if not counts:
            return Tally(n_layers=len(self.config.stack), records=self.config.records)
        # Incremental pairwise reduction: each task tally is folded in as
        # soon as it is produced (no end-of-run merge pass), through the
        # same canonical tree the distributed DataManager uses — so serial
        # and distributed runs remain bit-identical.
        reducer = PairwiseReducer(len(counts), telemetry=telemetry)
        for i, count in enumerate(counts):
            with maybe_span(telemetry, "task", task=i, photons=count):
                tally = run_photons(
                    self.config, count, task_rng(seed, i), kernel,
                    sub_batch=sub_batch, telemetry=telemetry,
                    capture_paths=capture_paths,
                )
                if tally.paths is not None:
                    tally.paths.seal(i)
                reducer.add(i, tally, owned=True)
            if telemetry is not None:
                telemetry.progress_update(i + 1, len(counts))
        return reducer.result()
