"""Reproducible random-number streams for distributed Monte Carlo.

The distributed platform splits a simulation of ``n_photons`` into tasks, and
each task must draw from a random stream that is

* statistically independent of every other task's stream, and
* a pure function of ``(experiment_seed, task_index)`` — *not* of which worker
  executes the task, how tasks are interleaved, or how many workers exist.

That second property is what makes the merged tallies of a distributed run
bit-identical to a serial run (tested in
``tests/distributed/test_determinism.py``) and is the Python analogue of the
per-client seeding the paper's Java ``DataManager`` performs.

We build streams with :class:`numpy.random.SeedSequence` spawning, which is
the NumPy-endorsed mechanism for constructing provably non-overlapping
substreams, and use the Philox counter-based bit generator, the standard
choice for parallel Monte Carlo.
"""

from __future__ import annotations

import numpy as np

__all__ = ["task_rng"]

#: Bit generator used everywhere.  Philox is counter-based: streams keyed by
#: distinct SeedSequences never overlap, and generation order inside a stream
#: is independent of other streams.
_BITGEN = np.random.Philox


def task_rng(experiment_seed: int, task_index: int) -> np.random.Generator:
    """Return the random generator for one task of one experiment.

    Parameters
    ----------
    experiment_seed:
        The user-facing seed of the whole simulation.
    task_index:
        Zero-based index of the task within the simulation.  The same
        ``(experiment_seed, task_index)`` pair always yields a generator that
        produces the same sequence, regardless of process, platform or the
        number of workers.
    """
    if task_index < 0:
        raise ValueError(f"task_index must be >= 0, got {task_index}")
    ss = np.random.SeedSequence(entropy=experiment_seed, spawn_key=(task_index,))
    return np.random.Generator(_BITGEN(ss))
