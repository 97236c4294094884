"""Monte Carlo harnesses: convergence rates, stability, tubes, Girsanov weights.

Every estimator takes the SDE as its first argument, one ``solvers.Model``
(drift, sigma, correction, x0, grid) whose dimensions its constructor has
checked; what varies around it comes as arguments: a rate sweep's noise
family, drift schedule and ``m_ode``, a stability sweep's schedule, a tube
ladder's targets on the model's grid and its radii.

Every estimator runs its paths through one driver, ``_run_paths``, in
the batches of ``core.map_batches``, with per-path counter-based streams
(path i of a call uses ``stream.child(i)``); it keeps one value per path
and level in path order, which the estimator reduces in that fixed order
-- so results do not depend on the batch sizes ``SWEEP_BATCH`` and
``EULER_BATCH``, the worker count ``core.WORKERS`` or whether a call
forked, internal choices that the tests vary.  ``map_batches`` times the
first batch in the calling process; when the rest would take at least
``core.FORK_MIN_S`` it splits the other paths into min(WORKERS, batches)
contiguous shares, runs the first there and forks one child per other
share.  A rate sweep is one such call: path j uses ``stream.child(j)`` at
every level, its Brownian sample and Euler reference are computed once, and
each level's random ODE runs against them (the shared-path coupling of
multilevel Monte Carlo, Giles 2008).  Its level estimates are therefore
positively correlated, and its first level equals ``mc_mean_sup_error`` at
that level on the same stream.  Within a batch the levels run in
``core.map_levels``, which splits the levels after the first into
contiguous groups the same way, so a sweep of one batch also runs on every
core; a worker never forks again, and a process with a live worker forks
no other.  A stability sweep shares paths across its levels, and splits
them, the same way; a tube ladder shares them across its targets and
radii: one Brownian sample and one Euler solve per path serve every
target.

A path whose value at a level is not finite is aborted at that level: left
out, counted and reported per level.  The solvers leave an aborted path
NaN, so an abort of the Euler reference makes every level's value NaN.  A
run in which any level's abort fraction exceeds ``ABORT_TOLERANCE`` raises
instead of returning a biased estimate.  Input checks, for every level,
run before the first path is simulated: a drift schedule must smooth the
model's drift and each b_n fit the model (``_schedule_levels``); a rate
sweep also checks b_n against the C^1 hypotheses of the theorem (its
declared slope bound and, with a schedule, the h(n) ||b||_p bound on its
C^1 norm), which a stability sweep, running b_n only through Euler, skips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .coeffs import DriftApproxSequence, DriftField, lp_distance
from .core import (Path, RngStream, TimeGrid, ValidationError, map_batches, map_levels, mean_se,
                   sample_brownian_batch, sup_distance_values)
from .noise import NoiseFamily
from .registry import zero_drift
from .solvers import M_ODE, Model, _check_levels, coupled_batch, em_batch

ABORT_TOLERANCE = 0.01
# paths per batch: the multi-level sweeps, and the one-level Euler estimators
SWEEP_BATCH = 256
EULER_BATCH = 1024
# one-sided confidence level of a tube's hit-probability bound
LCB_LEVEL = 0.95


class AbortRateError(RuntimeError):
    """Raised when more than ABORT_TOLERANCE of the paths blew up."""

    def __init__(self, aborted: int, paths: int):
        super().__init__(f"{aborted}/{paths} paths aborted (> {ABORT_TOLERANCE:.0%})")
        self.aborted = aborted
        self.paths = paths

    def __reduce__(self):  # a forked worker sends it pickled (core._run_parts)
        return type(self), (self.aborted, self.paths)


def _run_paths(simulate: Callable[[RngStream, int], np.ndarray], paths: int, stream: RngStream,
               batch: int) -> tuple[list[np.ndarray], list[int]]:
    """Per level, the values of the paths that did not abort, in path order, and the abort count.

    simulate(s, m) returns values (m,) for one level or (m, L) for L levels,
    path i of the batch from s.child(i) (``core.map_batches``).  A path is
    kept at a level when its value there is finite; the abort rule is
    applied to each level on its own.
    """
    values = map_batches(simulate, paths, stream, batch).reshape(paths, -1)
    kept = np.isfinite(values)
    aborted = [paths - int(k) for k in kept.sum(axis=0)]
    if max(aborted) > ABORT_TOLERANCE * paths:
        raise AbortRateError(max(aborted), paths)
    return [col[k] for col, k in zip(values.T, kept.T)], aborted


# ---------------------------------------------------------------------------
# Wong-Zakai mean-square error and rate fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeanSupError:
    estimate: float
    stderr: float
    paths: int
    aborted: int


def _schedule_levels(model: Model, seq: DriftApproxSequence, ns: Sequence[int]) -> list[DriftField]:
    """seq's b_n at each n in ns, each checked by ``Model`` in place of the drift that seq must smooth."""
    # registry names carry every builder parameter, so a name identifies its field
    if seq.base.name != model.drift.name:
        raise ValidationError(f"sequence '{seq.name}' smooths '{seq.base.name}', "
                              f"but the model's drift is '{model.drift.name}'")
    return [replace(model, drift=seq.generator(n)).drift for n in ns]


def _mean_sup_errors(model: Model, family: NoiseFamily, ns: Sequence[int], paths: int,
                     stream: RngStream, seq: DriftApproxSequence | None,
                     m_ode: int) -> list[MeanSupError]:
    """mc_mean_sup_error at every level in ns from one run of shared coupled draws.

    The random ODE of level n runs on seq's b_n, or on the model's drift
    when seq is None (smooth case).  Path j uses stream.child(j) at every
    level: its Brownian sample and Euler reference are computed once and
    every level's random ODE runs against them.  An SDE abort counts against
    every level.  With a drift schedule, every level's b_n must also meet the
    schedule's C^1 bound (``DriftApproxSequence.check_member``) before the
    first path.
    """
    if paths < 30:
        raise ValidationError("need at least 30 paths")
    levels = list(zip(ns, [model.drift] * len(ns) if seq is None else _schedule_levels(model, seq, ns)))
    _check_levels(model, family, levels, m_ode)  # before any path; coupled_batch checks again per batch
    if seq is not None:
        for n, b_n in levels:
            if not seq.check_member(n):
                raise ValidationError(f"level n={n}: '{b_n.name}' has C^1 norm {b_n.c1_norm:g} "
                                      f"above h(n) ||b||_p = {seq.bound(n) * seq.base_norm:g}")

    sups, aborted = _run_paths(lambda s, m: coupled_batch(model, family, levels, s, m, m_ode),
                               paths, stream, SWEEP_BATCH)
    return [MeanSupError(*mean_se(v**2), paths, ab) for v, ab in zip(sups, aborted)]


def mc_mean_sup_error(model: Model, family: NoiseFamily, n: int, paths: int, stream: RngStream,
                      seq: DriftApproxSequence | None = None, m_ode: int = M_ODE) -> MeanSupError:
    """Mean and standard error of sup_t |X_t - X^n_t|^2 over coupled draws."""
    return _mean_sup_errors(model, family, [n], paths, stream, seq, m_ode)[0]


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
    from scipy.special import stdtrit

    half = float(stdtrit(dof, 0.975)) * math.sqrt(sigma2 / sxx)
    return slope, half


def rate_sweep(model: Model, family: NoiseFamily, n_list: Sequence[int], paths: int,
               stream: RngStream, seq: DriftApproxSequence | None = None,
               m_ode: int = M_ODE) -> RateReport:
    """mc_mean_sup_error across levels on shared draws, plus the fitted slope.

    Every level sees the same paths, so level 0 equals ``mc_mean_sup_error``
    at that level with the same arguments, and neighbouring levels'
    estimates are positively correlated.
    """
    levels = sorted(int(v) for v in n_list)
    _fit_levels(levels)
    results = _mean_sup_errors(model, family, levels, paths, stream, seq, m_ode)
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


def stability_sweep(model: Model, seq: DriftApproxSequence, n_levels: Sequence[int], paths: int,
                    stream: RngStream) -> StabilityReport:
    """Co-simulate the model's SDE and its b_n-driven copies on shared noise.

    The b_n-driven copy swaps the model's drift b for seq's b_n.  Both
    solutions start at the same x0 and consume identical increments, so the
    reported mse isolates the drift-difference term of the stability bound.
    Path j uses stream.child(j) at every level; its increments and b-driven
    path are computed once, and an abort of the latter counts at every level.
    """
    ns = sorted(int(v) for v in n_levels)
    if not ns:
        raise ValidationError("need at least one level")
    b, sigma, c, x0, grid = model.drift, model.sigma, model.correction, model.x0, model.grid
    b_ns = _schedule_levels(model, seq, ns)

    def simulate(s: RngStream, m: int):
        dw = np.diff(sample_brownian_batch(grid, model.dim, s, m), axis=1)
        xv, _ = em_batch(b, sigma, c, x0, dw, grid.dt)

        def run(lo: int, hi: int) -> list[np.ndarray]:
            return [sup_distance_values(xv, em_batch(b_n, sigma, c, x0, dw, grid.dt)[0]) for b_n in b_ns[lo:hi]]

        return np.column_stack(map_levels(run, [1] * len(b_ns)))  # every level one Euler solve

    sups, aborted = _run_paths(simulate, paths, stream, SWEEP_BATCH)
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


def _binomial_lcb(hits: int, paths: int) -> float:
    """Exact (Clopper-Pearson style) one-sided LCB_LEVEL lower bound on the hit probability."""
    if hits <= 0:
        return 0.0
    from scipy.special import betaincinv

    return float(betaincinv(hits, paths - hits + 1, 1.0 - LCB_LEVEL))


def _tube_sups(model: Model, targets: Sequence[Path], paths: int,
               stream: RngStream) -> tuple[list[np.ndarray], list[int]]:
    """Per target, the sup distances of the paths that did not abort, and the abort count.

    Each batch samples W and runs ``em_batch`` once; every target's sup
    distance is taken from those paths, one target at a time, and an Euler
    abort counts against every target.
    """
    if not targets:
        raise ValidationError("need at least one target")
    grid = model.grid
    for target in targets:
        if target.grid != grid:
            raise ValidationError("every target path must lie on the model's grid")
        if target.dim != model.dim:
            raise ValidationError(f"a target path has dimension {target.dim}, the model {model.dim}")
        if not np.all(np.isfinite(target.values)):
            raise ValidationError("every target path value must be finite")
        if np.max(np.abs(target.values[0] - model.x0)) > 1e-12:
            raise ValidationError("target path must start at x0")

    def simulate(s: RngStream, m: int):
        dw = np.diff(sample_brownian_batch(grid, model.dim, s, m), axis=1)
        xv, _ = em_batch(model.drift, model.sigma, model.correction, model.x0, dw, grid.dt)
        return np.column_stack([sup_distance_values(xv, t.values) for t in targets])

    return _run_paths(simulate, paths, stream, EULER_BATCH)


def tube_ladder(model: Model, targets: Sequence[Path], eps_list: Sequence[float], paths: int,
                stream: RngStream) -> list[TubeReport]:
    """Tube reports for every target and radius, target-major, from one shared path sample.

    Path i uses stream.child(i) for every target and radius, as a sweep's
    paths do across its levels: each target's reports equal those of a
    one-target call on the same stream, and the estimates of different
    targets are correlated, so each ``lower_confidence`` is a marginal bound.
    """
    if not eps_list:
        raise ValidationError("need at least one radius")
    if not all(0.0 < eps < math.inf for eps in eps_list):
        raise ValidationError(f"every radius must be positive and finite, got {list(eps_list)}")
    sups, aborted = _tube_sups(model, targets, paths, stream)
    out = []
    for target, t_sups, t_aborted in zip(targets, sups, aborted):
        for eps in eps_list:
            hits = int((t_sups < eps).sum())
            out.append(TubeReport(target, eps, paths, hits, _binomial_lcb(hits, paths), t_aborted))
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


def _driftless_weights(model: Model, stream: RngStream, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights rho (count,) and the paths Y (count, steps + 1, d) of the model without its drift b.

    Y solves dY = correction(sigma, c) dt + sigma(Y) dW from x0, with the
    model's c; the weight is the left-point discretization of exp(int b*
    sigma^-1 dW - 1/2 int b*(sigma sigma*)^-1 b ds) along Y, and NaN where Y
    aborted.  The weights divide by sigma's diagonal, read from its scalar
    form s, so a field without one is rejected before any sample.
    """
    b, sigma, grid, d = model.drift, model.sigma, model.grid, model.dim
    if sigma.scalar is None:
        raise ValidationError("girsanov weights support diagonal diffusion fields with scalar forms only")
    w = sample_brownian_batch(grid, d, stream, count)
    dw = np.diff(w, axis=1)
    yv, _ = em_batch(zero_drift(d), sigma, model.correction, model.x0, dw, grid.dt)
    y = yv[:, :-1, :]
    m, steps, _ = y.shape
    flat = y.reshape(-1, d)
    diag = sigma.scalar(flat).reshape(m, steps, d)
    if np.any(np.abs(diag) < 1e-12):
        raise ValidationError("sigma is singular along a simulated path")
    theta = b(flat).reshape(m, steps, d) / diag
    log_rho = np.einsum("mki,mki->m", theta, dw) - 0.5 * grid.dt * np.einsum("mki,mki->m", theta, theta)
    # the sums end at the last left point: only Y's last node marks a Y that aborts on its last step
    return np.where(np.isnan(yv[:, -1, 0]), np.nan, np.exp(log_rho)), yv


def girsanov_mean(model: Model, paths: int, stream: RngStream) -> GirsanovReport:
    """Sample mean of rho_T; equals 1 for admissible drifts (mean-one check)."""
    (rhos,), (aborted,) = _run_paths(lambda s, m: _driftless_weights(model, s, m)[0], paths, stream,
                                     EULER_BATCH)
    mean, se = mean_se(rhos)
    return GirsanovReport(mean, se, float(rhos.max()), paths, aborted)


# ---------------------------------------------------------------------------
# target paths for the tube probe
# ---------------------------------------------------------------------------


def make_target(kind: str, grid: TimeGrid, x0: float) -> Path:
    """Deterministic target paths starting at x0: const, line x0 + t, sine x0 + 0.3 sin(2 pi t)."""
    if not math.isfinite(x0):
        raise ValidationError(f"target parameter 'x0' = {x0} is not finite")
    t = grid.nodes()
    if kind == "const":
        v = np.full_like(t, x0)
    elif kind == "line":
        v = x0 + t
    elif kind == "sine":
        v = x0 + 0.3 * np.sin(2.0 * math.pi * t)
    else:
        raise ValidationError(f"unknown target '{kind}'; known: const, line, sine")
    return Path(grid, v[:, None])
