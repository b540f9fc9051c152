"""Hold the timed region until the host is as fast as it has been seen to be.

The seed box is a two-core guest of a shared host.  For minutes at a time a
neighbour slows every adult-head task by 30-60 % (same user CPU seconds as
wall seconds, no steal time, nothing else running in the guest), and ten runs
that straddle such a spell spread wider than any bound ``BENCHMARK.json`` may
state.  The median of twelve 500-photon fast-medium ``api.run``s shows the
spell at once: 35-40 ms on a quiet host, 45-75 ms in a spell.  (Their minimum
does not: even a slow half-second has a quiet 35 ms in it.  A NumPy streaming
loop moves by a third as much, so the probe is the program's own kernel.)

Before the timed region, ``wait`` takes such a reading and, while it is more
than ``TOLERANCE`` times the lowest reading any run in this checkout has
taken, sleeps and reads again, for at most ``PATIENCE_S`` seconds in one run
(a quarter of that when the run before it waited in vain: the spell is a long
one) and ``BUDGET_S`` seconds over all runs of the checkout (the contract
caps their total).  Readings are compared only within one checkout, that is one
commit, so a faster kernel moves the reference with it.  Waiting is outside
both ``setup_s`` and ``run_s``; what it found is in the result file's stamp.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro import api
from repro.api import RunRequest

from workloads import fast_medium_config

TOLERANCE = 1.15
PATIENCE_S = 45.0
BUDGET_S = 450.0
UNITS = 12
PAUSE_S = 1.5


def reading() -> float:
    """Median wall seconds of ``UNITS`` 500-photon fast-medium runs."""
    request = RunRequest(config=fast_medium_config(grid=False), n_photons=500, task_size=500)
    walls = []
    for _ in range(UNITS):
        start = time.perf_counter()
        api.run(request)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def wait(state_file: Path) -> dict:
    """Wait for a quiet host within the budgets; returns what the stamp records."""
    try:
        state = json.loads(state_file.read_text())
    except (OSError, ValueError):
        state = {}
    best = float(state.get("best_s", float("inf")))
    spent = float(state.get("waited_s", 0.0))
    patience = PATIENCE_S if state.get("settled", True) else PATIENCE_S / 4
    start = time.perf_counter()
    deadline = start + min(patience, BUDGET_S - spent)
    while True:
        now = reading()
        best = min(best, now)
        if now <= TOLERANCE * best or time.perf_counter() + PAUSE_S > deadline:
            break
        time.sleep(PAUSE_S)
    waited = time.perf_counter() - start
    settled = now <= TOLERANCE * best
    state_file.write_text(json.dumps(
        {"best_s": best, "waited_s": spent + waited, "settled": settled}) + "\n")
    return {"reading_s": now, "best_s": best, "waited_s": waited, "quiet": settled}
