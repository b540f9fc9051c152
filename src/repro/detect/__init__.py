"""Detection, gating and result recording."""

from .detector import AcceptAll, AnnularDetector, Detector, DiscDetector
from .gating import PathlengthGate, TimeGate, open_gate
from .quantities import (
    layer_absorption_report,
    mean_time_of_flight,
    radial_reflectance,
)
from .records import GridSpec, Histogram, PathRecords, RunningStat
from .tpsf import tpsf, tpsf_moments

__all__ = [
    "AcceptAll",
    "AnnularDetector",
    "Detector",
    "DiscDetector",
    "GridSpec",
    "Histogram",
    "PathRecords",
    "PathlengthGate",
    "RunningStat",
    "TimeGate",
    "layer_absorption_report",
    "mean_time_of_flight",
    "open_gate",
    "radial_reflectance",
    "tpsf",
    "tpsf_moments",
]
