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

``map_batches`` is the package's one loop over the batches of a Monte Carlo
run.  The calling process runs the first batch and times it.  When the rest
of the call would take at least ``FORK_MIN_S`` seconds at that pace, and no
other thread is running, the other paths are split into min(``WORKERS``,
batches) contiguous shares: the calling process runs the first and forks
(``os.fork``) one child per other share, which sends its rows back through a
pipe.  ``WORKERS`` is the number of cores this process may run on, capped by
its cgroup's CPU quota; both are internal constants that the tests vary.
Rows are joined in path order and path i draws only from stream.child(i),
so not one byte of a result depends on the batch size, the worker count or
whether the call forked.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
# numpy loads numpy.random on first attribute access; imported here, its C
# extensions load with wzsim and not inside the first Monte Carlo batch
from numpy.random import Generator, Philox


def _cores() -> int:
    """The cores this process may run on, capped by a cgroup v2 CPU quota (whole cores, at least 1)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()
        if quota != "max":
            cores = min(cores, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        pass
    return cores


# processes a map_batches call may use
WORKERS = _cores()
# a map_batches call forks only if its first batch says the rest takes at
# least this long: below it, a fork's start, copy-on-write faults and exit
# (about 20 ms of CPU and 30-90 MB of resident memory per worker) buy no
# wall time
FORK_MIN_S = 0.2


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
        if not 1 <= self.steps < math.inf or int(self.steps) != self.steps:
            raise ValidationError(f"steps must be a positive integer, got {self.steps}")
        object.__setattr__(self, "steps", int(self.steps))

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt


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

    def generator(self) -> Generator:
        return Generator(Philox(key=self.key()))

    def child(self, offset: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_id + int(offset))


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


def map_batches(simulate: Callable[[RngStream, int], np.ndarray], count: int, stream: RngStream,
                batch: int) -> np.ndarray:
    """Rows of simulate(stream.child(start), m) over the batches of ``count`` paths, in path order.

    The package's one loop over batches.  simulate(s, m) returns one row per
    path and draws its path j from s.child(j), so path i draws from
    stream.child(i) whatever the batch size.  This process runs the first
    batch; ``_workers`` then decides, from its time, how many processes
    share the other paths, in contiguous shares of about equal size, each
    run in batches of at most ``batch``.  This process runs the first share
    and a forked child runs each other one (``_fork``), so the rows do not
    depend on the worker count either.  An exception raised in a child is
    raised here with its type, and no child outlives the call.
    """
    if count < 1:
        raise ValidationError("need at least one path")

    def run(lo: int, hi: int) -> list[np.ndarray]:
        return [simulate(stream.child(start), min(batch, hi - start)) for start in range(lo, hi, batch)]

    first = min(batch, count)
    t0 = time.perf_counter()
    rows = run(0, first)
    workers = _workers(-(-count // batch), (time.perf_counter() - t0) * (count - first) / first)
    cuts = [first + (count - first) * k // workers for k in range(workers + 1)]
    pending = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            pending.append(_fork(run, lo, hi))
        rows += run(cuts[0], cuts[1])
        while pending:
            rows += _join(*pending.pop(0))
    finally:
        if pending:  # a share raised: stop and reap the children still running
            import signal
            for pid, fd in pending:
                os.kill(pid, signal.SIGKILL)
                os.close(fd)
                os.waitpid(pid, 0)
    return np.concatenate(rows)


def _workers(batches: int, rest_s: float) -> int:
    """Processes for a call of ``batches`` batches whose rest should take ``rest_s`` seconds on one core.

    min(WORKERS, batches) when the rest takes at least FORK_MIN_S, else 1.
    Also 1 while another thread runs: a forked child holds a copy of every
    lock as it was, and Python 3.12+ warns about such a fork.
    """
    threading = sys.modules.get("threading")
    if rest_s < FORK_MIN_S or (threading is not None and threading.active_count() > 1):
        return 1
    return min(WORKERS, batches)


def _fork(run: Callable[[int, int], list], lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that sends pickle((True, run(lo, hi))), or (False, the exception), down a pipe.

    Returns the child's pid and the pipe's read end.  The child leaves by
    os._exit, so no atexit, test-runner or stdio teardown of this process
    runs in it.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                result = True, run(lo, hi)
            except BaseException as e:
                result = False, e
            with open(w, "wb") as out:
                out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _join(pid: int, fd: int) -> list[np.ndarray]:
    """The rows a ``_fork`` child sent; its exception is raised here.  The child is reaped."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"batch worker {pid} ended with exit code {os.waitstatus_to_exitcode(status)}")
    try:
        ok, value = pickle.loads(data)
    except Exception as e:
        raise RuntimeError(f"batch worker {pid} sent an unreadable result ({len(data)} bytes)") from e
    if not ok:
        raise value
    return value


def sup_distance_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sup over the grid nodes (axis -2) of the Euclidean distance, per path; NaN paths give NaN.

    The root is taken after the max: sqrt is monotone and correctly rounded,
    so this gives the bits of the max of the roots.  In d = 1 the squares are
    read as a view, not summed over the size-1 axis.
    """
    sq = a - b
    sq *= sq
    sq = sq[..., 0] if sq.shape[-1] == 1 else sq.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        return np.sqrt(sq.max(axis=-1))


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
