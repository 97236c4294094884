"""Monte Carlo harnesses: convergence rates, stability, tubes, Girsanov weights.

Every estimator runs its paths through one driver, ``_run_paths``, in
batches with per-path counter-based streams (path i of a call uses
``stream.child(i)``); it keeps one value per path and level in path order,
which the estimator reduces in that fixed order -- so results are
byte-stable under any batch size.  A rate sweep is one such call: path j
uses ``stream.child(j)`` at every level, its Brownian sample and Euler
reference are computed once, and each level's random ODE runs against them
(the shared-path coupling of multilevel Monte Carlo, Giles 2008).  Its
level estimates are therefore positively correlated, and its first level
equals ``mc_mean_sup_error`` at that level on the same stream.  A
stability sweep shares paths across levels the same way.

A path whose solver status is non-zero or whose value is not finite is
aborted at that level: left out, counted and reported per level; an abort
of the Euler reference counts against every level.  A run in which any
level's abort fraction exceeds ``ABORT_TOLERANCE`` raises instead of
returning a biased estimate.  Input checks, for every level, run before the
first path is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .coeffs import (
    CorrectionMatrix,
    DiffusionField,
    DriftApproxSequence,
    DriftField,
    lp_distance,
)
from .core import (Path, RngStream, TimeGrid, ValidationError, mean_se, sample_brownian_batch,
                   sup_distance_values)
from .noise import NoiseFamily
from .registry import zero_drift
from .solvers import SolverConfig, _check_levels, coupled_batch, em_batch

ABORT_TOLERANCE = 0.01


class AbortRateError(RuntimeError):
    """Raised when more than ABORT_TOLERANCE of the paths blew up."""

    def __init__(self, aborted: int, paths: int):
        super().__init__(f"{aborted}/{paths} paths aborted (> {ABORT_TOLERANCE:.0%})")
        self.aborted = aborted
        self.paths = paths


def _run_paths(simulate: Callable[[RngStream, int], tuple[np.ndarray, ...]],
               paths: int, stream: RngStream,
               batch: int) -> tuple[list[np.ndarray], list[int]]:
    """Per level, the values of the paths that did not abort, in path order, and the abort count.

    simulate(s, m) returns values (m,) for one level or (m, L) for L levels,
    then statuses, each of that shape or (m,), which counts against every
    level.  A path is kept at a level when its value there is finite and
    every status is 0.  The abort rule is applied to each level on its own.
    """
    if paths < 1:
        raise ValidationError("need at least one path")
    values, kept = [], []
    for start in range(0, paths, batch):
        m = min(batch, paths - start)
        v, *statuses = simulate(stream.child(start), m)
        values.append(v.reshape(m, -1))
        kept.append(np.isfinite(values[-1]))
        for status in statuses:
            kept[-1] &= status.reshape(m, -1) == 0
    values, kept = np.concatenate(values), np.concatenate(kept)
    aborted = [paths - int(k) for k in kept.sum(axis=0)]
    if max(aborted) > ABORT_TOLERANCE * paths:
        raise AbortRateError(max(aborted), paths)
    return [col[k] for col, k in zip(values.T, kept.T)], aborted


# ---------------------------------------------------------------------------
# Wong-Zakai mean-square error and rate fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WongZakaiSetup:
    """Coefficients of one coupled simulation family.

    ``drift_seq`` supplies the smoothed drift b_n fed to the random ODE;
    when absent the drift itself is used on both routes (smooth case).
    """

    drift: DriftField
    sigma: DiffusionField
    correction: CorrectionMatrix
    family: NoiseFamily
    x0: float
    config: SolverConfig
    drift_seq: DriftApproxSequence | None = None

    def smoothed_drift(self, n: int) -> DriftField:
        if self.drift_seq is None:
            return self.drift
        return self.drift_seq.generator(n)


@dataclass(frozen=True)
class MeanSupError:
    estimate: float
    stderr: float
    paths: int
    aborted: int


def _mean_sup_errors(setup: WongZakaiSetup, ns: Sequence[int], paths: int, stream: RngStream,
                     batch: int) -> list[MeanSupError]:
    """mc_mean_sup_error at every level in ns from one run of shared coupled draws.

    Path j uses stream.child(j) at every level: its Brownian sample and
    Euler reference are computed once and every level's random ODE runs
    against them.  An SDE abort counts against every level.
    """
    if paths < 30:
        raise ValidationError("need at least 30 paths")
    levels = [(n, setup.smoothed_drift(n)) for n in ns]
    _check_levels(setup.sigma, setup.family, levels, setup.config.grid())

    sups, aborted = _run_paths(lambda s, m: coupled_batch(
        setup.drift, setup.sigma, setup.correction, setup.family, levels, setup.x0, s,
        setup.config, m), paths, stream, batch)
    return [MeanSupError(*mean_se(v**2), paths, ab) for v, ab in zip(sups, aborted)]


def mc_mean_sup_error(setup: WongZakaiSetup, n: int, paths: int, stream: RngStream,
                      batch: int = 256) -> MeanSupError:
    """Mean and standard error of sup_t |X_t - X^n_t|^2 over coupled draws."""
    return _mean_sup_errors(setup, [n], paths, stream, batch)[0]


@dataclass(frozen=True)
class RateReport:
    """MSE against n with a fitted log-log slope and its confidence half-width.

    ``aborted`` holds, per level in the order of ``points``, the paths left
    out of the estimate because a solver aborted them.
    """

    points: tuple[tuple[int, float, float], ...]
    paths: int
    slope: float
    slope_half_width: float
    aborted: tuple[int, ...]


def _fit_levels(ns: Sequence[float]) -> np.ndarray:
    """The levels of a rate fit as floats; at least 3, all distinct."""
    if len(ns) < 3:
        raise ValidationError("need at least 3 points to fit a rate")
    ns = np.array(ns, dtype=float)
    if len(np.unique(ns)) != len(ns):
        raise ValidationError("n values must be distinct")
    return ns


def fit_rate(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(mse) against log(n), with 95% half-width."""
    ns = _fit_levels([p[0] for p in points])
    ms = np.array([p[1] for p in points], dtype=float)
    if np.any(ms <= 0.0):
        raise ValidationError("mse values must be positive")
    x = np.log(ns)
    y = np.log(ms)
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    slope = float(coef[0])
    dof = len(points) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    sigma2 = float(res[0]) / dof if len(res) else 0.0
    half = float(special.stdtrit(dof, 0.975)) * math.sqrt(sigma2 / sxx)
    return slope, half


def rate_sweep(setup: WongZakaiSetup, n_list: Sequence[int], paths: int,
               stream: RngStream) -> RateReport:
    """mc_mean_sup_error across levels on shared draws, plus the fitted slope.

    Every level sees the same paths, so level 0 equals
    ``mc_mean_sup_error(setup, levels[0], paths, stream)`` and neighbouring
    levels' estimates are positively correlated.
    """
    levels = sorted(int(v) for v in n_list)
    _fit_levels(levels)
    results = _mean_sup_errors(setup, levels, paths, stream, 256)
    pts = tuple((n, r.estimate, r.stderr) for n, r in zip(levels, results))
    slope, half = fit_rate([(n, m) for n, m, _ in pts])
    return RateReport(pts, paths, slope, half, tuple(r.aborted for r in results))


# ---------------------------------------------------------------------------
# stability of the singular SDE in its drift
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Per level: (n, L^p drift distance, mse, stderr); plus the fitted constant.

    ``fitted_constant`` is the least-squares coefficient of mse on the
    squared drift distance (through the origin); ``max_ratio`` the largest
    observed mse / distance^2.  ``aborted`` holds, per level, the paths left
    out of the estimate because a solver aborted them.
    """

    levels: tuple[tuple[int, float, float, float], ...]
    paths: int
    fitted_constant: float
    max_ratio: float
    aborted: tuple[int, ...]


def stability_sweep(b: DriftField, seq: DriftApproxSequence, sigma: DiffusionField,
                    c: CorrectionMatrix, x0, n_levels: Sequence[int], paths: int,
                    stream: RngStream, config: SolverConfig,
                    batch: int = 256) -> StabilityReport:
    """Co-simulate the b-driven and b_n-driven corrected SDEs on shared noise.

    Both solutions start at the same x0 and consume identical increments,
    so the reported mse isolates the drift-difference term of the stability
    bound.  Path j uses stream.child(j) at every level; its increments and
    b-driven path are computed once, and an abort of the latter counts at every level.
    """
    grid = config.grid()
    ns = sorted(int(v) for v in n_levels)
    b_ns = [seq.generator(n) for n in ns]

    def simulate(s: RngStream, m: int):
        dw = np.diff(sample_brownian_batch(grid, sigma.dim, s, m), axis=1)
        xv, st_b = em_batch(b, sigma, c, x0, dw, grid.dt)
        sups = np.empty((m, len(ns)))
        st_bn = np.empty((m, len(ns)), dtype=np.int64)
        for li, b_n in enumerate(b_ns):
            yv, st_bn[:, li] = em_batch(b_n, sigma, c, x0, dw, grid.dt)
            sups[:, li] = sup_distance_values(xv, yv)
        return sups, st_b, st_bn

    sups, aborted = _run_paths(simulate, paths, stream, batch)
    levels = [(n, lp_distance(b, b_n, seq.p), *mean_se(v**2)) for n, b_n, v in zip(ns, b_ns, sups)]
    d2, ms = np.array([(lv[1] ** 2, lv[2]) for lv in levels]).T
    denom = float(np.sum(d2 * d2))
    fitted = float(np.sum(ms * d2) / denom) if denom > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(d2 > 0, ms / d2, 0.0)
    return StabilityReport(tuple(levels), paths, fitted, float(ratios.max()), tuple(aborted))


# ---------------------------------------------------------------------------
# tube probabilities (support of the law)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TubeReport:
    """Hit statistics for the sup-distance tube of radius epsilon around a target.

    Aborted paths count as misses; ``aborted`` says how many of the
    ``paths`` they were.
    """

    target: Path
    epsilon: float
    paths: int
    hits: int
    lower_confidence: float
    aborted: int


def _binomial_lcb(hits: int, paths: int, level: float = 0.95) -> float:
    """Exact (Clopper-Pearson style) one-sided lower bound on the hit probability."""
    if hits <= 0:
        return 0.0
    return float(special.betaincinv(hits, paths - hits + 1, 1.0 - level))


def _tube_sups(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix, x0,
               target: Path, paths: int, stream: RngStream,
               batch: int) -> tuple[np.ndarray, int]:
    """Sup distances to the target of the paths that did not abort, and the abort count."""
    grid = target.grid
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape[0] != target.dim:
        raise ValidationError("x0 dimension does not match the target path")
    if np.max(np.abs(target.values[0] - x0v)) > 1e-12:
        raise ValidationError("target path must start at x0")

    def simulate(s: RngStream, m: int):
        dw = np.diff(sample_brownian_batch(grid, target.dim, s, m), axis=1)
        xv, st = em_batch(b, sigma, c, x0v, dw, grid.dt)
        return sup_distance_values(xv, target.values), st

    (sups,), (aborted,) = _run_paths(simulate, paths, stream, batch)
    return sups, aborted


def tube_probability(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix, x0,
                     target: Path, epsilon: float, paths: int, stream: RngStream,
                     batch: int = 1024) -> TubeReport:
    """Fraction of corrected-SDE paths staying sup-within epsilon of the target."""
    return tube_ladder(b, sigma, c, x0, target, [epsilon], paths, stream, batch)[0]


def tube_ladder(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix, x0,
                target: Path, eps_list: Sequence[float], paths: int,
                stream: RngStream, batch: int = 1024) -> list[TubeReport]:
    """Tube reports for several radii evaluated on one shared path sample."""
    if any(eps <= 0.0 for eps in eps_list):
        raise ValidationError("epsilon must be positive")
    sups, aborted = _tube_sups(b, sigma, c, x0, target, paths, stream, batch)
    out = []
    for eps in eps_list:
        hits = int((sups < eps).sum())
        out.append(TubeReport(target, eps, paths, hits, _binomial_lcb(hits, paths), aborted))
    return out


# ---------------------------------------------------------------------------
# Girsanov weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GirsanovReport:
    """Weight statistics over the ``paths`` less the ``aborted`` ones the solver dropped."""

    mean_rho: float
    stderr: float
    max_weight: float
    paths: int
    aborted: int


def _require_diagonal(sigma: DiffusionField) -> None:
    """Girsanov weights invert sigma pointwise, read from its diagonal scalar form s."""
    if sigma.scalar is None:
        raise ValidationError("girsanov weights support diagonal diffusion fields with scalar forms only")


def _driftless_weights(b: DriftField, sigma: DiffusionField, x0, grid: TimeGrid,
                       stream: RngStream,
                       count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate Y (driftless Stratonovich reference, Ito form) and its weights.

    Y solves dY = correction(sigma, I/2) dt + sigma(Y) dW; the weight is the
    left-point discretization of exp(int b* sigma^-1 dW - 1/2 int b*(sigma
    sigma*)^-1 b ds) along Y.  sigma must pass ``_require_diagonal``.
    """
    d = sigma.dim
    half = CorrectionMatrix.half_identity(d)
    w = sample_brownian_batch(grid, d, stream, count)
    dw = np.diff(w, axis=1)
    yv, st = em_batch(zero_drift(d), sigma, half, x0, dw, grid.dt)
    y = yv[:, :-1, :]
    m, steps, _ = y.shape
    flat = y.reshape(-1, d)
    diag = sigma.scalar(flat).reshape(m, steps, d)
    if np.any(np.abs(diag) < 1e-12):
        raise ValidationError("sigma is singular along a simulated path")
    theta = b(flat).reshape(m, steps, d) / diag
    log_rho = np.einsum("mki,mki->m", theta, dw) - 0.5 * grid.dt * np.einsum("mki,mki->m", theta, theta)
    return np.exp(log_rho), yv, st


def girsanov_weight(b: DriftField, sigma: DiffusionField, x0, stream: RngStream,
                    grid: TimeGrid) -> tuple[float, Path]:
    """One Girsanov weight rho_T and the driftless reference path it rode on."""
    _require_diagonal(sigma)
    rho, yv, st = _driftless_weights(b, sigma, x0, grid, stream, 1)
    if st[0] != 0:
        raise AbortRateError(1, 1)
    return float(rho[0]), Path(grid, yv[0])


def girsanov_mean(b: DriftField, sigma: DiffusionField, x0, paths: int,
                  stream: RngStream, grid: TimeGrid, batch: int = 1024) -> GirsanovReport:
    """Sample mean of rho_T; equals 1 for admissible drifts (mean-one check)."""
    _require_diagonal(sigma)

    def simulate(s: RngStream, m: int):
        rho, _, st = _driftless_weights(b, sigma, x0, grid, s, m)
        return rho, st

    (rhos,), (aborted,) = _run_paths(simulate, paths, stream, batch)
    mean, se = mean_se(rhos)
    return GirsanovReport(mean, se, float(rhos.max()), paths, aborted)


# ---------------------------------------------------------------------------
# target paths for the tube probe
# ---------------------------------------------------------------------------


def make_target(kind: str, grid: TimeGrid, x0: float, **params) -> Path:
    """Deterministic target paths starting at x0: const, line, sine."""
    t = grid.nodes()
    if kind == "const":
        v = np.full_like(t, x0)
    elif kind == "line":
        v = x0 + params.get("slope", 1.0) * t
    elif kind == "sine":
        amp = params.get("amp", 0.3)
        freq = params.get("freq", 1.0)
        v = x0 + amp * np.sin(2.0 * math.pi * freq * t)
    else:
        raise ValidationError(f"unknown target '{kind}'; known: const, line, sine")
    return Path(grid, v[:, None])
