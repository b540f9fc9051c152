"""Shared fixtures for the test suite.

Test media are deliberately *fast*: absorption within an order of magnitude
of scattering, so photons terminate within tens of interactions and a test
tracing thousands of photons runs in milliseconds.  The slow, realistic
Table 1 media (albedo 0.9998) are exercised by the benchmarks, not by the
unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import RouletteConfig, SimulationConfig
from repro.sources import PencilBeam
from repro.tissue import Layer, LayerStack, OpticalProperties

#: ``--hypothesis-profile=fuzz``: the decoder fuzz tests at twenty times
#: Hypothesis' default budget (CI's "Decoder fuzz" step).
settings.register_profile("fuzz", max_examples=2000, deadline=None)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_props() -> OpticalProperties:
    """A strongly absorbing turbid medium (photons die in ~10 steps)."""
    return OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.4)


@pytest.fixture
def fast_stack(fast_props) -> LayerStack:
    """Semi-infinite fast medium."""
    return LayerStack.homogeneous(fast_props, name="fast")


@pytest.fixture
def fast_slab(fast_props) -> LayerStack:
    """A 1 mm slab of the fast medium (thin enough to transmit measurably)."""
    return LayerStack.homogeneous(fast_props, 1.0, name="fast-slab")


@pytest.fixture
def matched_stack() -> LayerStack:
    """Index-matched fast medium: no specular loss, no internal reflection.

    Makes analytic expectations exact (e.g. Beer-Lambert ballistic decay).
    """
    props = OpticalProperties(mu_a=1.0, mu_s=10.0, g=0.8, n=1.0)
    return LayerStack.homogeneous(props, name="matched")


@pytest.fixture
def fast_config(fast_stack) -> SimulationConfig:
    """Ready-to-run config on the fast medium with a pencil beam."""
    return SimulationConfig(stack=fast_stack, source=PencilBeam())


@pytest.fixture
def three_layer_stack() -> LayerStack:
    """Three fast layers with distinct coefficients (multi-layer logic)."""
    return LayerStack(
        [
            Layer("a", OpticalProperties(mu_a=0.5, mu_s=5.0, g=0.7, n=1.4), 2.0),
            Layer("b", OpticalProperties(mu_a=0.2, mu_s=1.0, g=0.3, n=1.4), 3.0),
            Layer("c", OpticalProperties(mu_a=1.0, mu_s=8.0, g=0.9, n=1.4), None),
        ]
    )


@pytest.fixture
def aggressive_roulette() -> RouletteConfig:
    """Roulette that triggers early (keeps test photons short-lived)."""
    return RouletteConfig(threshold=1e-2, boost=10.0)
