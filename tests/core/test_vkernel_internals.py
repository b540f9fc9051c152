"""White-box tests of the vectorised kernel's internals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SimulationConfig, run_batch_vectorized, task_rng
from repro.core.geometry import SlabGeometry
from repro.core.vkernel import _PathEvents, _State
from repro.detect import GridSpec
from repro.sources import PencilBeam
from repro.tissue import Layer, LayerStack, OpticalProperties

PROPS = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)


class TestPathEvents:
    @pytest.fixture
    def spec(self):
        return GridSpec(shape=(4, 4, 4), lo=(0, 0, 0), hi=(4, 4, 4))

    def test_outside_events_dropped_at_append(self, spec):
        events = _PathEvents(spec)
        events.append(
            np.array([0, 1]),
            np.array([1.0, 99.0]),  # second point far outside the grid
            np.array([1.0, 1.0]),
            np.array([1.0, 1.0]),
            np.array([0.5, 0.5]),
        )
        assert len(events.gids) == 1
        assert events.gids[0].tolist() == [0]

    def test_compact_deposits_detected_only(self, spec):
        events = _PathEvents(spec)
        events.append(
            np.array([0, 1]),
            np.array([0.5, 1.5]),
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.array([1.0, 2.0]),
        )
        grid = spec.zeros()
        detected = np.array([True, False])
        alive = np.array([False, False])
        events.compact(alive, detected, grid)
        assert grid.sum() == pytest.approx(1.0)  # only photon 0's weight
        assert not events.gids  # nothing retained (both dead)

    def test_compact_retains_live_photons(self, spec):
        events = _PathEvents(spec)
        events.append(
            np.array([0, 1]),
            np.array([0.5, 1.5]),
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            np.array([1.0, 2.0]),
        )
        grid = spec.zeros()
        events.compact(np.array([False, True]), np.array([False, False]), grid)
        assert grid.sum() == 0.0
        # Photon 1's event survives for a later compaction.
        assert events.gids[0].tolist() == [1]
        events.compact(np.array([False, False]), np.array([False, True]), grid)
        assert grid.sum() == pytest.approx(2.0)

    def test_empty_compact_noop(self, spec):
        events = _PathEvents(spec)
        grid = spec.zeros()
        events.compact(np.zeros(2, bool), np.zeros(2, bool), grid)
        assert grid.sum() == 0.0

    def test_mixed_dtype_inputs_deposit_exact_weights(self, spec):
        """gid/w arrive as lists or narrow dtypes; conversion must happen
        before masking so weights stay paired with their voxels."""
        events = _PathEvents(spec)
        events.append(
            [0, 1, 2],  # plain list gid
            np.array([0.5, 99.0, 2.5], dtype=np.float32),  # photon 1 outside
            np.array([0.5, 0.5, 0.5], dtype=np.float32),
            np.array([0.5, 0.5, 0.5], dtype=np.float32),
            np.array([1.25, 7.0, 0.5], dtype=np.float32),  # float32 weights
        )
        assert events.gids[0].dtype == np.int64
        assert events.ws[0].dtype == np.float64
        assert events.gids[0].tolist() == [0, 2]
        grid = spec.zeros()
        events.compact(
            np.zeros(3, bool), np.array([True, False, True]), grid
        )
        assert grid.sum() == pytest.approx(np.float32(1.25) + np.float32(0.5))
        # Each weight landed in its own photon's voxel, not a neighbour's.
        flat = grid.reshape(-1)
        assert flat[flat > 0].tolist() == [
            pytest.approx(float(np.float32(1.25))),
            pytest.approx(float(np.float32(0.5))),
        ]

    def test_scalar_weight_broadcasts_to_all_events(self, spec):
        events = _PathEvents(spec)
        events.append(
            np.array([0, 1], dtype=np.int32),  # narrow gid dtype
            np.array([0.5, 1.5]),
            np.array([0.5, 0.5]),
            np.array([0.5, 0.5]),
            0.75,  # scalar weight applies to every event
        )
        grid = spec.zeros()
        events.compact(np.zeros(2, bool), np.ones(2, bool), grid)
        assert grid.sum() == pytest.approx(1.5)

    def test_misaligned_inputs_rejected(self, spec):
        events = _PathEvents(spec)
        with pytest.raises(ValueError, match="misaligned"):
            events.append(
                np.array([0, 1, 2]),  # three gids for two positions
                np.array([0.5, 1.5]),
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
                np.array([1.0, 2.0]),
            )
        with pytest.raises(ValueError, match="misaligned"):
            events.append(
                np.array([0, 1]),
                np.array([0.5, 1.5]),
                np.array([0.5, 0.5]),
                np.array([0.5, 0.5]),
                np.array([1.0]),  # one weight for two positions
            )
        assert not events.gids  # nothing was buffered by the failed appends

    def test_non_contiguous_grid_rejected_not_silently_dropped(self, spec):
        events = _PathEvents(spec)
        events.append(
            np.array([0]), np.array([0.5]), np.array([0.5]), np.array([0.5]),
            np.array([1.0]),
        )
        base = np.zeros((4, 4, 8))
        view = base[:, :, ::2]  # non-contiguous: reshape(-1) would copy
        with pytest.raises(ValueError, match="contiguous"):
            events.compact(np.zeros(1, bool), np.ones(1, bool), view)


class TestState:
    def make_state(self, n=5):
        pos = np.zeros((n, 3))
        dirs = np.zeros((n, 3))
        dirs[:, 2] = 1.0
        return _State(pos, dirs, np.zeros(n, dtype=np.int64), np.ones(n))

    def test_squeeze_drops_dead(self):
        st = self.make_state(5)
        st.alive[:] = [True, False, True, False, True]
        st.w[:] = [1.0, 0.0, 2.0, 0.0, 3.0]
        st.squeeze()
        assert st.size == 3
        np.testing.assert_array_equal(st.w, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(st.gid, [0, 2, 4])
        assert st.alive.all()

    def test_gid_survives_multiple_squeezes(self):
        st = self.make_state(6)
        st.alive[:] = [True, True, False, True, True, True]
        st.squeeze()
        st.alive[:] = [False, True, True, False, True]
        st.squeeze()
        np.testing.assert_array_equal(st.gid, [1, 3, 5])


class TestSlabDistance:
    """Distance to the next interface along each photon's direction."""

    def state(self, z, uz, layer):
        n = len(z)
        pos = np.zeros((n, 3))
        pos[:, 2] = z
        dirs = np.zeros((n, 3))
        dirs[:, 2] = uz
        dirs[:, 0] = np.sqrt(1.0 - np.square(uz))
        return _State(pos, dirs, np.asarray(layer, dtype=np.int64), np.ones(n))

    def test_semi_infinite_layer(self):
        geometry = SlabGeometry(LayerStack.homogeneous(PROPS), classical=False)
        st = self.state([1.0, 1.0, 1.0], [-0.5, 0.5, 0.0], [0, 0, 0])
        d = geometry.distance(st)
        assert d[0] == (0.0 - 1.0) / -0.5
        assert d[1] == np.inf and d[2] == np.inf

    def test_each_photon_sees_its_own_layer_faces(self):
        stack = LayerStack([Layer("a", PROPS, 1.0), Layer("b", PROPS, 2.0)])
        geometry = SlabGeometry(stack, classical=False)
        z = [0.25, 0.25, 1.5, 1.5, 1.5]
        uz = [0.8, -0.8, 0.6, -0.6, 0.0]
        d = geometry.distance(self.state(z, uz, [0, 0, 1, 1, 1]))
        expected = [(1.0 - 0.25) / 0.8, (0.0 - 0.25) / -0.8,
                    (3.0 - 1.5) / 0.6, (1.0 - 1.5) / -0.6, np.inf]
        np.testing.assert_array_equal(d, expected)


class TestSubBatching:
    def test_results_independent_of_sub_batch(self):
        """Sub-batch size changes scheduling, not statistics."""
        config = SimulationConfig(
            stack=LayerStack.homogeneous(PROPS), source=PencilBeam()
        )
        small = run_batch_vectorized(config, 3_000, task_rng(0, 0), sub_batch=500)
        large = run_batch_vectorized(config, 3_000, task_rng(0, 0), sub_batch=10_000)
        assert small.n_launched == large.n_launched == 3_000
        assert small.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert large.energy_balance == pytest.approx(1.0, abs=1e-9)
        assert small.diffuse_reflectance == pytest.approx(
            large.diffuse_reflectance, rel=0.15
        )

    def test_invalid_sub_batch(self):
        config = SimulationConfig(
            stack=LayerStack.homogeneous(PROPS), source=PencilBeam()
        )
        with pytest.raises(ValueError, match="sub_batch"):
            run_batch_vectorized(config, 10, task_rng(0, 0), sub_batch=0)
