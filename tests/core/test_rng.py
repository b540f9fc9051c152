"""Tests for the per-task RNG streams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import task_rng


class TestTaskRng:
    def test_same_key_same_stream(self):
        a = task_rng(42, 3).random(100)
        b = task_rng(42, 3).random(100)
        np.testing.assert_array_equal(a, b)

    def test_different_tasks_differ(self):
        a = task_rng(42, 0).random(100)
        b = task_rng(42, 1).random(100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = task_rng(1, 0).random(100)
        b = task_rng(2, 0).random(100)
        assert not np.array_equal(a, b)

    def test_negative_task_index_rejected(self):
        with pytest.raises(ValueError, match="task_index"):
            task_rng(0, -1)

    def test_streams_are_statistically_independent(self):
        # Correlation between distinct streams should be tiny.
        a = task_rng(7, 0).random(20_000)
        b = task_rng(7, 1).random(20_000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.03

    def test_large_task_index(self):
        g = task_rng(0, 10**9)
        assert 0.0 <= g.random() < 1.0
