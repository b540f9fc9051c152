"""Core Monte Carlo photon-transport engine (the paper's Fig. 1 algorithm)."""

from .config import BoundaryMode, RecordConfig, SimulationConfig
from .fresnel import (
    cos_transmitted,
    critical_cosine,
    fresnel_reflectance,
    specular_reflectance,
)
from .kernel import run_batch_scalar, trace_photon
from .reduce import (
    PairwiseReducer,
    SpanFolder,
    TallyFrontier,
    aligned_spans,
    prefix_spans,
    reduce_all,
    span_level,
)
from .rng import task_rng
from .roulette import RouletteConfig, roulette
from .sampling import (
    hg_pdf,
    rotate_direction,
    sample_azimuth,
    sample_hg_cosine,
    sample_step_length,
)
from .simulation import KernelName, Simulation, run_photons, split_photons
from .tally import Tally
from .vkernel import run_batch_vectorized

__all__ = [
    "BoundaryMode",
    "KernelName",
    "PairwiseReducer",
    "RecordConfig",
    "RouletteConfig",
    "Simulation",
    "SimulationConfig",
    "SpanFolder",
    "Tally",
    "TallyFrontier",
    "aligned_spans",
    "cos_transmitted",
    "critical_cosine",
    "fresnel_reflectance",
    "hg_pdf",
    "prefix_spans",
    "reduce_all",
    "rotate_direction",
    "roulette",
    "run_batch_scalar",
    "run_batch_vectorized",
    "run_photons",
    "sample_azimuth",
    "sample_hg_cosine",
    "sample_step_length",
    "span_level",
    "specular_reflectance",
    "split_photons",
    "task_rng",
    "trace_photon",
]
