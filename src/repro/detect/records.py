"""Result-recording primitives: voxel grids and mergeable running statistics.

The paper's application offers "user defined granularity of results": photon
paths and absorbed energy are accumulated on a regular 3-D voxel grid whose
resolution the user chooses (Fig. 3 uses granularity 50³).  ``GridSpec``
describes such a grid and provides the vectorised world→voxel mapping; the
actual accumulation arrays live in the tallies so they can be merged across
distributed workers by plain addition.

``RunningStat`` is a mergeable first/second-moment accumulator used for the
differential-pathlength and penetration-depth statistics.

``PathRecords`` keeps *per-detected-photon* path statistics — per-layer
geometric pathlength, exit weight, optical pathlength, maximum depth and
detector id — the raw material of perturbation ("white") Monte Carlo:
:mod:`repro.perturb` re-weights these rows to derive tallies for perturbed
optical properties without re-simulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec", "RunningStat", "Histogram", "PathRecords"]


@dataclass(frozen=True)
class GridSpec:
    """A regular 3-D voxel grid over an axis-aligned box.

    Attributes
    ----------
    shape:
        Number of voxels along (x, y, z) — the paper's "granularity".
        Fig. 3 uses (50, 50, 50).
    lo, hi:
        Box corners in mm; ``lo < hi`` component-wise.
    """

    shape: tuple[int, int, int]
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or any(s <= 0 for s in self.shape):
            raise ValueError(f"shape must be three positive ints, got {self.shape}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"need lo < hi component-wise, got lo={self.lo} hi={self.hi}")

    @classmethod
    def cube(cls, granularity: int, half_extent: float, depth: float) -> "GridSpec":
        """Grid of ``granularity``³ voxels centred on the beam axis.

        Covers x, y in [-half_extent, +half_extent] and z in [0, depth] —
        the natural frame for the paper's surface-launched experiments.
        """
        if granularity <= 0:
            raise ValueError(f"granularity must be > 0, got {granularity}")
        if half_extent <= 0 or depth <= 0:
            raise ValueError("half_extent and depth must be > 0")
        return cls(
            shape=(granularity, granularity, granularity),
            lo=(-half_extent, -half_extent, 0.0),
            hi=(half_extent, half_extent, depth),
        )

    @classmethod
    def banana_box(
        cls,
        granularity: int,
        spacing: float,
        *,
        margin: float = 2.0,
        depth: float | None = None,
        y_halfwidth: float | None = None,
    ) -> "GridSpec":
        """Grid framing a source-detector pair for Fig. 3 style profiles.

        Covers x in [-margin, spacing + margin] (source at x = 0, detector
        at x = spacing), y in [-y_halfwidth, +y_halfwidth] and z in
        [0, depth].  Defaults scale with the optode spacing: depth equal to
        the spacing + margin (bananas peak near spacing/2), y half-width
        equal to half the spacing.
        """
        if granularity <= 0:
            raise ValueError(f"granularity must be > 0, got {granularity}")
        if spacing <= 0:
            raise ValueError(f"spacing must be > 0, got {spacing}")
        if margin < 0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        depth = depth if depth is not None else spacing + margin
        y_half = y_halfwidth if y_halfwidth is not None else max(0.5 * spacing, margin)
        return cls(
            shape=(granularity, granularity, granularity),
            lo=(-margin, -y_half, 0.0),
            hi=(spacing + margin, y_half, depth),
        )

    @property
    def voxel_size(self) -> tuple[float, float, float]:
        """Edge lengths of one voxel (mm)."""
        return tuple(
            (h - l) / s for l, h, s in zip(self.lo, self.hi, self.shape)
        )  # type: ignore[return-value]

    @property
    def voxel_volume(self) -> float:
        """Volume of one voxel (mm³)."""
        dx, dy, dz = self.voxel_size
        return dx * dy * dz

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def zeros(self) -> np.ndarray:
        """A fresh accumulation array for this grid."""
        return np.zeros(self.shape, dtype=np.float64)

    def axis_centres(self, axis: int) -> np.ndarray:
        """Voxel-centre coordinates along ``axis`` (0=x, 1=y, 2=z), in mm."""
        n = self.shape[axis]
        lo = self.lo[axis]
        hi = self.hi[axis]
        edges = np.linspace(lo, hi, n + 1)
        return 0.5 * (edges[:-1] + edges[1:])

    def world_to_index(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Map world points to flat voxel indices.

        Returns
        -------
        flat_index:
            int64 array of flattened (C-order) voxel indices; undefined where
            ``inside`` is False.
        inside:
            Boolean mask of points that fall inside the grid box.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        nx, ny, nz = self.shape
        # Insideness is defined on the coordinates themselves (half-open
        # box), then indices are clipped into range: this keeps points an
        # epsilon inside a face from rounding to an out-of-range voxel.
        inside = (
            (x >= self.lo[0]) & (x < self.hi[0])
            & (y >= self.lo[1]) & (y < self.hi[1])
            & (z >= self.lo[2]) & (z < self.hi[2])
        )
        fx = (x - self.lo[0]) / (self.hi[0] - self.lo[0]) * nx
        fy = (y - self.lo[1]) / (self.hi[1] - self.lo[1]) * ny
        fz = (z - self.lo[2]) / (self.hi[2] - self.lo[2]) * nz
        # minimum/maximum rather than np.clip: on small integer arrays clip's
        # bound checks cost several times the arithmetic (hot in the kernel).
        ix = np.minimum(np.maximum(np.floor(fx).astype(np.int64), 0), nx - 1)
        iy = np.minimum(np.maximum(np.floor(fy).astype(np.int64), 0), ny - 1)
        iz = np.minimum(np.maximum(np.floor(fz).astype(np.int64), 0), nz - 1)
        flat = (ix * ny + iy) * nz + iz
        return flat, inside

    def deposit(
        self,
        grid: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        weight: np.ndarray,
    ) -> None:
        """Accumulate ``weight`` into ``grid`` at world points, in place.

        Points outside the box are silently dropped (the grid is a window
        onto an infinite slab).  Uses ``np.add.at`` so repeated indices
        accumulate correctly.
        """
        if grid.shape != self.shape:
            raise ValueError(f"grid shape {grid.shape} != spec shape {self.shape}")
        flat, inside = self.world_to_index(x, y, z)
        if not np.count_nonzero(inside):
            return
        w = np.broadcast_to(np.asarray(weight, dtype=np.float64), flat.shape)
        np.add.at(grid.reshape(-1), flat[inside], w[inside])


@dataclass
class RunningStat:
    """Mergeable running first/second-moment accumulator.

    Supports exact merging across workers (all fields are sums or extrema),
    which is what lets the ``DataManager`` combine pathlength statistics
    from independent tasks without storing per-photon data.
    """

    count: float = 0.0
    weight: float = 0.0
    weighted_sum: float = 0.0
    weighted_sumsq: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, values: np.ndarray, weights: np.ndarray | float = 1.0) -> None:
        """Accumulate weighted samples."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), values.shape)
        self.count += float(values.size)
        self.weight += float(w.sum())
        self.weighted_sum += float((w * values).sum())
        self.weighted_sumsq += float((w * values * values).sum())
        self.minimum = min(self.minimum, float(values.min()))
        self.maximum = max(self.maximum, float(values.max()))

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Exact merge of two accumulators (returns a new one)."""
        return RunningStat(
            count=self.count + other.count,
            weight=self.weight + other.weight,
            weighted_sum=self.weighted_sum + other.weighted_sum,
            weighted_sumsq=self.weighted_sumsq + other.weighted_sumsq,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )

    @property
    def mean(self) -> float:
        """Weighted mean (NaN when empty)."""
        return self.weighted_sum / self.weight if self.weight > 0 else math.nan

    @property
    def variance(self) -> float:
        """Weighted population variance (NaN when empty)."""
        if self.weight <= 0:
            return math.nan
        m = self.mean
        return max(0.0, self.weighted_sumsq / self.weight - m * m)

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating sqrt


@dataclass
class Histogram:
    """Fixed-bin weighted histogram, mergeable by addition.

    Used for the gated differential-pathlength distributions: bin edges are
    decided up front (from the gate window), every worker fills the same
    bins, and merging is element-wise addition.
    """

    edges: np.ndarray
    counts: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise ValueError("edges must be a 1-D array with >= 2 entries")
        if np.any(np.diff(self.edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        if self.counts is None:
            self.counts = np.zeros(self.edges.size - 1, dtype=np.float64)
        else:
            self.counts = np.asarray(self.counts, dtype=np.float64)
            if self.counts.shape != (self.edges.size - 1,):
                raise ValueError("counts shape does not match edges")

    @classmethod
    def linear(cls, lo: float, hi: float, n_bins: int) -> "Histogram":
        if n_bins <= 0:
            raise ValueError(f"n_bins must be > 0, got {n_bins}")
        if hi <= lo:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        return cls(edges=np.linspace(lo, hi, n_bins + 1))

    def add(self, values: np.ndarray, weights: np.ndarray | float = 1.0) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        w = np.broadcast_to(np.asarray(weights, dtype=np.float64), values.shape)
        binned, _ = np.histogram(values, bins=self.edges, weights=w)
        self.counts += binned

    def merge(self, other: "Histogram") -> "Histogram":
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge histograms with different bin edges")
        return Histogram(edges=self.edges, counts=self.counts + other.counts)

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    @property
    def centres(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


#: Column name -> dtype of one detection-event row.  ``layer_paths`` is 2-D
#: (rows × n_layers); everything else is 1-D.
_PATH_COLUMNS = {
    "layer_paths": np.float64,
    "weight": np.float64,
    "opl": np.float64,
    "max_depth": np.float64,
    "detector": np.int64,
}


class PathRecords:
    """Per-detected-photon path statistics, mergeable across tasks.

    One row per *detection event* (in ``classical`` boundary mode a single
    photon may escape — and be detected — more than once, at decreasing
    weight; each partial escape is its own row):

    ``layer_paths``
        Geometric pathlength travelled in each tissue layer up to the
        detection, in mm — shape ``(rows, n_layers)``.  This is the
        sufficient statistic for exact absorption reweighting
        (``exp(-Σ Δμa_i · L_i)``) and first-order scattering reweighting.
    ``weight``
        The photon packet's weight as scored by the detector (roulette
        boosts and Fresnel splits included).
    ``opl``
        Optical pathlength (Σ n_i · geometric path) at detection, matching
        the quantity the pathlength tally and gate operate on.
    ``max_depth``
        Maximum z reached before detection (the penetration-depth tally's
        per-photon sample).
    ``detector``
        Detector id (0 in the current single-detector geometry; recorded
        so multi-detector layouts extend without a format change).

    Determinism contract
    --------------------
    Rows are appended by a kernel in event order, then **sealed** under the
    producing task's index.  Merging is a key-ordered splice of sealed
    segments (duplicate keys rejected), so the merged row order depends
    only on *which* tasks contributed — never on completion order, operand
    order or tree shape.  That makes records bit-identical across worker
    counts and schedules, exactly like the tallies they ride in.
    """

    __slots__ = ("n_layers", "_segments", "_open")

    def __init__(self, n_layers: int) -> None:
        if n_layers <= 0:
            raise ValueError(f"n_layers must be > 0, got {n_layers}")
        self.n_layers = int(n_layers)
        #: Sealed segments: key-sorted list of (key, {column: array}).
        self._segments: list[tuple[int, dict[str, np.ndarray]]] = []
        #: Un-sealed blocks appended by the producing kernel.
        self._open: list[dict[str, np.ndarray]] = []

    # -- producing -----------------------------------------------------------

    def append(
        self,
        layer_paths: np.ndarray,
        weight: np.ndarray | float,
        opl: np.ndarray | float,
        max_depth: np.ndarray | float,
        detector: np.ndarray | int = 0,
    ) -> None:
        """Append one event (1-D ``layer_paths``) or a block (2-D)."""
        lp = np.atleast_2d(np.asarray(layer_paths, dtype=np.float64))
        if lp.shape[1] != self.n_layers:
            raise ValueError(
                f"layer_paths has {lp.shape[1]} layers, expected {self.n_layers}"
            )
        n = lp.shape[0]
        if n == 0:
            return
        block = {
            "layer_paths": np.ascontiguousarray(lp),
            "weight": _column(weight, n, np.float64, "weight"),
            "opl": _column(opl, n, np.float64, "opl"),
            "max_depth": _column(max_depth, n, np.float64, "max_depth"),
            "detector": _column(detector, n, np.int64, "detector"),
        }
        self._open.append(block)

    def seal(self, key: int) -> None:
        """Close the open rows as the segment of task ``key``.

        Every producing kernel run must be sealed exactly once (even when
        it detected nothing) before its records can merge; the key is the
        task index, which is what keeps merged row order canonical.
        """
        key = int(key)
        if any(k == key for k, _ in self._segments):
            raise ValueError(f"segment {key} already sealed")
        if self._open:
            blocks = self._open
            segment = {
                name: np.concatenate([b[name] for b in blocks])
                for name in _PATH_COLUMNS
            }
        else:
            segment = self._empty_segment()
        self._open = []
        self._segments.append((key, segment))
        self._segments.sort(key=lambda item: item[0])

    def _empty_segment(self) -> dict[str, np.ndarray]:
        return {
            "layer_paths": np.empty((0, self.n_layers), dtype=np.float64),
            "weight": np.empty(0, dtype=np.float64),
            "opl": np.empty(0, dtype=np.float64),
            "max_depth": np.empty(0, dtype=np.float64),
            "detector": np.empty(0, dtype=np.int64),
        }

    # -- introspection -------------------------------------------------------

    @property
    def is_sealed(self) -> bool:
        return not self._open

    @property
    def n_rows(self) -> int:
        rows = sum(seg["weight"].size for _, seg in self._segments)
        return rows + sum(b["weight"].size for b in self._open)

    @property
    def segment_keys(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self._segments)

    @property
    def nbytes(self) -> int:
        total = 0
        for _, seg in self._segments:
            total += sum(a.nbytes for a in seg.values())
        for block in self._open:
            total += sum(a.nbytes for a in block.values())
        return total

    def column(self, name: str) -> np.ndarray:
        """One column concatenated over sealed segments in key order."""
        if name not in _PATH_COLUMNS:
            raise KeyError(name)
        self._require_sealed("column access")
        if not self._segments:
            return self._empty_segment()[name]
        return np.concatenate([seg[name] for _, seg in self._segments])

    def _require_sealed(self, action: str) -> None:
        if self._open:
            raise ValueError(
                f"{action} requires sealed records; call seal(task_index) first"
            )

    # -- merging -------------------------------------------------------------

    def merge(self, other: "PathRecords") -> "PathRecords":
        """Key-ordered merge of two sealed record sets (returns a new one)."""
        return self.copy().imerge(other)

    def imerge(self, other: "PathRecords") -> "PathRecords":
        """Merge ``other``'s segments into this one in place; returns self.

        Commutative in effect (segments land in key order regardless of
        operand order), which is what the pairwise reduction tree needs —
        it accumulates into whichever operand it owns.
        """
        if not isinstance(other, PathRecords):
            raise TypeError(f"cannot merge PathRecords with {type(other).__name__}")
        if other.n_layers != self.n_layers:
            raise ValueError(
                f"cannot merge records with {other.n_layers} layers into "
                f"{self.n_layers}"
            )
        self._require_sealed("merge")
        other._require_sealed("merge")
        mine = set(self.segment_keys)
        for key, _ in other._segments:
            if key in mine:
                raise ValueError(
                    f"segment {key} present on both sides (duplicate task result)"
                )
        self._segments.extend(other._segments)
        self._segments.sort(key=lambda item: item[0])
        return self

    def copy(self) -> "PathRecords":
        """Deep copy (independent arrays; open rows carried over)."""
        out = PathRecords(self.n_layers)
        out._segments = [
            (k, {name: a.copy() for name, a in seg.items()})
            for k, seg in self._segments
        ]
        out._open = [
            {name: a.copy() for name, a in block.items()} for block in self._open
        ]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathRecords):
            return NotImplemented
        if self.n_layers != other.n_layers:
            return False
        if self.segment_keys != other.segment_keys:
            return False
        if len(self._open) != len(other._open):
            return False
        pairs = list(zip(self._segments, other._segments))
        pairs += [((None, a), (None, b)) for a, b in zip(self._open, other._open)]
        for (_, mine), (_, theirs) in pairs:
            for name in _PATH_COLUMNS:
                a, b = mine[name], theirs[name]
                if a.shape != b.shape or a.tobytes() != b.tobytes():
                    return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathRecords(n_layers={self.n_layers}, rows={self.n_rows}, "
            f"segments={len(self._segments)})"
        )

    # -- (de)serialisation ---------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten to plain arrays for persistence.

        Returns the five columns concatenated in key order plus the
        segmentation itself (``keys``/``lengths``), so
        :meth:`from_arrays` can rebuild an equal :class:`PathRecords` —
        segmentation included, which is what keeps a restored record set
        mergeable and bit-comparable with a live one.
        """
        self._require_sealed("serialisation")
        out = {name: self.column(name) for name in _PATH_COLUMNS}
        out["keys"] = np.asarray(self.segment_keys, dtype=np.int64)
        out["lengths"] = np.asarray(
            [seg["weight"].size for _, seg in self._segments], dtype=np.int64
        )
        return out

    @classmethod
    def from_arrays(cls, n_layers: int, arrays: dict[str, np.ndarray]) -> "PathRecords":
        """Rebuild a sealed record set from :meth:`to_arrays` output."""
        keys = np.asarray(arrays["keys"], dtype=np.int64)
        lengths = np.asarray(arrays["lengths"], dtype=np.int64)
        if keys.shape != lengths.shape or keys.ndim != 1:
            raise ValueError("keys and lengths must be matching 1-D arrays")
        total = int(lengths.sum())
        columns = {}
        for name, dtype in _PATH_COLUMNS.items():
            col = np.asarray(arrays[name], dtype=dtype)
            if col.shape[0] != total:
                raise ValueError(
                    f"column {name!r} has {col.shape[0]} rows, "
                    f"segment lengths sum to {total}"
                )
            columns[name] = col
        out = cls(n_layers)
        offset = 0
        for key, length in zip(keys.tolist(), lengths.tolist()):
            if length < 0:
                raise ValueError(f"negative segment length for key {key}")
            seg = {
                name: np.ascontiguousarray(col[offset:offset + length])
                for name, col in columns.items()
            }
            offset += length
            out._segments.append((int(key), seg))
        out._segments.sort(key=lambda item: item[0])
        seen = out.segment_keys
        if len(set(seen)) != len(seen):
            raise ValueError("duplicate segment keys in serialised records")
        return out


def _column(values, n: int, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == 0:
        arr = np.full(n, arr[()], dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n},)")
    return np.ascontiguousarray(arr)
