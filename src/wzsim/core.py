"""Time grids, discrete paths and reproducible random streams.

Everything downstream (noise smoothing, solvers, Monte Carlo harnesses)
works on uniform grids over [0, T] and communicates through the two value
types defined here:

* ``Path`` -- an (N+1) x d array of samples on a ``TimeGrid``,
* ``RngStream`` -- a counter-based random stream keyed by
  (master_seed, stream_id), so that path i of a Monte Carlo run is a pure
  function of the seed and i, independent of worker scheduling;
  ``sample_brownian_batch`` re-keys one Philox generator per call to each
  path's fresh stream state (key (master_seed, stream_id + i), counter 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when arguments violate a documented precondition."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * T / N, k = 0..N."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValidationError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def node_index(self, t: float) -> int:
        """Index of grid node t; raises if t is not on the grid."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.steps or abs(k * self.dt - t) > 1e-9 * max(1.0, self.horizon):
            raise ValidationError(f"t={t} is not a node of the grid (dt={self.dt})")
        return k


def make_grid(horizon: float, steps: int) -> TimeGrid:
    """Build the uniform grid over [0, horizon] with the given step count."""
    return TimeGrid(float(horizon), steps)


@dataclass(frozen=True)
class Path:
    """A d-dimensional trajectory sampled on a ``TimeGrid``.

    ``values`` has shape (N+1, d) and is frozen after construction so paths
    can be shared freely across workers.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.steps + 1:
            raise ValidationError(
                f"values must have shape ({self.grid.steps + 1}, d), got {v.shape}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def component(self, i: int) -> np.ndarray:
        return self.values[:, i]


@dataclass(frozen=True)
class RngStream:
    """Counter-based stream: output is a pure function of (master_seed, stream_id).

    Streams with distinct ids are statistically independent (Philox-4x64
    keyed on both words).  Operations that consume ``paths`` streams use ids
    [stream_id, stream_id + paths); callers spacing their base ids at least
    that far apart never collide.
    """

    master_seed: int
    stream_id: int = 0

    def key(self) -> np.ndarray:
        """The Philox key: both words taken modulo 2^64."""
        return np.array([self.master_seed & 0xFFFFFFFFFFFFFFFF,
                         self.stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id + int(offset))


def sample_brownian(grid: TimeGrid, d: int, stream: RngStream) -> Path:
    """Sample a standard d-dimensional Brownian path on the grid; row 0 of the batch sampler."""
    return Path(grid, sample_brownian_batch(grid, d, stream, 1)[0])


def sample_brownian_batch(grid: TimeGrid, d: int, stream: RngStream, count: int) -> np.ndarray:
    """Sample ``count`` independent Brownian paths, shape (count, N+1, d).

    Path i draws its increments, independent N(0, dt) per component, from
    stream.child(i), and values[i, 0] = 0.  Each path is thus a pure
    function of (master_seed, stream_id + i), which is what makes
    reductions independent of how paths are distributed over workers.
    """
    if d < 1:
        raise ValidationError("dimension must be >= 1")
    out = np.empty((count, grid.steps + 1, d))
    out[:, 0] = 0.0
    sqrt_dt = np.sqrt(grid.dt)
    gen = stream.generator()
    start = gen.bit_generator.state  # counter zero, buffer empty
    for i in range(count):
        start["state"]["key"] = stream.child(i).key()
        gen.bit_generator.state = start
        dw = gen.standard_normal((grid.steps, d)) * sqrt_dt
        np.cumsum(dw, axis=0, out=out[i, 1:])
    return out


def sup_distance(a: Path, b: Path) -> float:
    """Max over grid nodes of the Euclidean distance between the two paths."""
    if a.grid != b.grid:
        raise ValidationError("paths live on different grids")
    if a.dim != b.dim:
        raise ValidationError("paths have different dimensions")
    return float(sup_distance_values(a.values, b.values))


def sup_distance_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sup over the grid nodes (axis -2) of the Euclidean distance, per path; NaN paths give NaN."""
    diff = a - b
    with np.errstate(invalid="ignore"):
        return np.sqrt((diff * diff).sum(axis=-1)).max(axis=-1)


def mean_se(x: np.ndarray):
    """Sample mean and standard error (ddof=1) along axis 0; floats for 1-D x.

    The one Monte Carlo reduction of the package: estimators store one value
    per sample in sample order and reduce them here, so a result does not
    depend on how the samples were batched.  One sample has standard error 0.
    """
    x = np.asarray(x, dtype=float)
    m = np.mean(x, axis=0)
    se = np.std(x, axis=0, ddof=1) / math.sqrt(len(x)) if len(x) > 1 else np.zeros_like(m)
    if x.ndim == 1:
        return float(m), float(se)
    return m, se
