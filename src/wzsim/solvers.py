"""Path solvers: corrected Euler SDE and the smoothed-noise random ODE.

``Model`` is the one SDE that every path estimator takes first: drift b,
diffusion sigma, correction matrix c, start x0 and the reference grid on
[0, T].  Its constructor checks that b, sigma and c share one dimension d
and that x0 is a scalar or has shape (d,), so a mismatch is a named error
before any path.  The step loops ``em_batch`` and ``rk4_batch`` take the
coefficients one by one, as the levels of a sweep swap in their own b_n.

Both solvers run on shared noise: the Euler route consumes the Brownian
increments on the reference grid, the Runge-Kutta route consumes the time
derivative of the smoothed path built from the same Brownian sample, with
steps aligned so every kink of the smoothed path is a step boundary.  A
coupled batch samples W and solves the corrected Euler SDE once per path,
whatever the number of levels n it is asked for; then, one level at a
time, it lays the level-n blocks over the same grid with
``noise.block_layout``, steps the random ODE in ``_level_values`` (the one
Runge-Kutta route over whole noise blocks) and keeps only the sup error per
path, so a level's arrays are freed before the next level starts.  The
random ODE takes ``m_ode`` steps per noise block (a keyword of
``coupled_batch``, default ``M_ODE`` = 4, at least 4), however fine the
reference grid is, and in a coupled run its values at the reference nodes
come from each step's cubic Hermite interpolant (dense output).  It runs on
a smoothed drift only: ``_require_c1``, the one C^1 check, rejects a drift
without C^1 metadata or whose central differences on a fixed grid exceed
its declared slope bound; every ``coupled_batch`` call checks each of its
levels before it samples a path.

Both routes are vectorized over a batch of paths in numpy and accept any
dimension and any coefficient field.  sigma is evaluated once per Euler
step and once per Runge-Kutta stage, in one of two forms:

* a diagonal field that carries its scalar forms (every registry
  diffusion) is evaluated elementwise as s(x) of shape (m, d): the noise
  term is s * dW and the correction drift c_kk s s';
* any other field is evaluated as the matrix sigma(x) (m, d, d): the noise
  term is an einsum and the correction drift the full contraction.

Both forms give the same bits for a diagonal field.  A path whose state
leaves [-limit, limit] is aborted: NaN from that step on, found in one pass
after the step loop (fields act row by row).  The step loops also return
that step as a status, which no package code reads (the benchmark's tracer
counts it); above them an abort is read from NaN values alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coeffs import CorrectionMatrix, DiffusionField, DriftField, correction_drift_batch, mid_grid
from .core import Path, RngStream, TimeGrid, ValidationError, sample_brownian_batch, sup_distance_values
from .noise import NoiseFamily, block_layout

OVERFLOW_LIMIT = 1e12
M_ODE = 4  # default RK4 steps per noise block; its error is checked in tests/test_solvers.py


@dataclass(frozen=True)
class Model:
    """One SDE dX = (b(X) + correction) dt + sigma(X) dW from x0 on a time grid.

    The correction drift is ``correction_drift_batch`` of sigma and the
    matrix c.  drift, sigma and correction share one dimension d, and x0 is
    a scalar (every coordinate) or has shape (d,); the constructor raises
    ``ValidationError`` otherwise, so every estimator that takes a Model
    sees a consistent one before its first path.
    """

    drift: DriftField
    sigma: DiffusionField
    correction: CorrectionMatrix
    x0: float | np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        d = self.sigma.dim
        for part, dim in ((f"drift '{self.drift.name}'", self.drift.dim),
                          ("correction", self.correction.dim)):
            if dim != d:
                raise ValidationError(f"{part} has dimension {dim}, sigma '{self.sigma.name}' {d}")
        if np.shape(self.x0) not in ((), (d,)):
            raise ValidationError(f"x0 of shape {np.shape(self.x0)} is neither a scalar nor of shape ({d},)")
        if not np.all(np.isfinite(self.x0)):
            raise ValidationError("x0 must be finite")

    @property
    def dim(self) -> int:
        return self.sigma.dim


def _sigma_at(sigma: DiffusionField, x: np.ndarray) -> np.ndarray:
    """sigma at x: the diagonal s(x) (m, d) for a field with scalar forms, else (m, d, d)."""
    return sigma.sigma(x) if sigma.scalar is None else sigma.scalar(x)


def _times(sigma: DiffusionField, sig: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sigma(x) v for a batch v (m, d), from the values _sigma_at returned."""
    return np.einsum("mij,mj->mi", sig, v) if sigma.scalar is None else sig * v


def _rhs(b: DriftField, sigma: DiffusionField, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """b(y) + sigma(y) v for a batch of states y (m, d) and driver values v (m, d)."""
    return b(y) + _times(sigma, _sigma_at(sigma, y), v)


def _flag_aborts(vals: np.ndarray) -> np.ndarray:
    """Status per path of the values (m, steps + 1, d) a step loop wrote.

    A path first not finite or outside [-limit, limit] at step k >= 1 gets
    status k and NaN from step k on; others get 0.  Per-path max/min find them.
    So a path aborts exactly when its last node is NaN, which is what callers
    read; only ``perfbench/layers.py`` counts the non-zero statuses.
    """
    flat = vals[:, 1:].reshape(len(vals), -1)
    bad = np.flatnonzero(~((flat.max(axis=1) <= OVERFLOW_LIMIT) & (flat.min(axis=1) >= -OVERFLOW_LIMIT)))
    status = np.zeros(len(vals), dtype=np.int64)
    status[bad] = 1 + np.argmin((np.abs(vals[bad, 1:]) <= OVERFLOW_LIMIT).all(axis=2), axis=1)
    for i in bad:
        vals[i, status[i]:] = np.nan
    return status


# ---------------------------------------------------------------------------
# Euler route for the corrected SDE
# ---------------------------------------------------------------------------


def em_batch(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix,
             x0: np.ndarray, dw: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler paths for dX = (b + correction) dt + sigma dW over a batch.

    x0: broadcast to (m, d); dw: (m, steps, d).  Returns values (m, steps+1, d) and a
    per-path status (0 = ok, k = aborted entering step k).
    """
    m, steps, d = dw.shape
    vals = np.empty((m, steps + 1, d))
    x = np.array(np.broadcast_to(x0, (m, d)), dtype=float)
    vals[:, 0] = x
    with np.errstate(all="ignore"):
        for k in range(steps):
            sig = _sigma_at(sigma, x)
            drift = b(x) + correction_drift_batch(sigma, c, x, sig)
            x = x + drift * dt + _times(sigma, sig, dw[:, k])
            vals[:, k + 1] = x
        return vals, _flag_aborts(vals)


def solve_ito_corrected(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix,
                        x0, w: Path) -> Path:
    """Integrate one corrected-SDE path on the grid of the Brownian sample w.

    Row 0 of a one-path ``em_batch``: NaN from the step it aborts on, as on
    every batch route.  No command calls it; the benchmark's
    ``oracle_single_path`` workload does, to time the per-call overhead.
    """
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape[0] != w.dim:
        raise ValidationError("x0 dimension does not match the Brownian path")
    dw = np.diff(w.values, axis=0)[None]
    return Path(w.grid, em_batch(b, sigma, c, x0v[None], dw, w.grid.dt)[0][0])


# ---------------------------------------------------------------------------
# Runge-Kutta route for the random ODE
# ---------------------------------------------------------------------------


def _stage_derivs(family: NoiseFamily, wsub: np.ndarray, n: int, msub: int,
                  blocks: int, m_ode: int) -> np.ndarray:
    """Driver derivative at RK4 stage positions over ``blocks`` whole blocks, block-local at kinks.

    Returns (paths, blocks * m_ode, 3, d); a step's third stage at a block
    end is the block's left limit.
    """
    j = np.arange(blocks * m_ode)
    frac = (j % m_ode).astype(float)
    kb = np.repeat(j // m_ode, 3)
    us = np.empty(3 * j.size)
    us[0::3] = frac / m_ode
    us[1::3] = (frac + 0.5) / m_ode
    us[2::3] = (frac + 1.0) / m_ode
    der = family.batch_derivs(wsub, n, msub, kb, us)
    return der.reshape(wsub.shape[0], j.size, 3, wsub.shape[2])


def rk4_batch(b: DriftField, sigma: DiffusionField, x0: np.ndarray,
              vstages: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """RK4 paths for dx/ds = b(x) + sigma(x) v(s) with precomputed stage drivers.

    vstages: (m, steps, 3, d).  Returns the step-end values (m, steps + 1, d)
    and the abort status per path.
    """
    m, steps, _, d = vstages.shape
    vals = np.empty((m, steps + 1, d))
    x = np.array(np.broadcast_to(x0, (m, d)), dtype=float)
    vals[:, 0] = x
    with np.errstate(all="ignore"):
        for k in range(steps):
            v0, vm, v1 = vstages[:, k, 0], vstages[:, k, 1], vstages[:, k, 2]
            k1 = _rhs(b, sigma, x, v0)
            k2 = _rhs(b, sigma, x + 0.5 * h * k1, vm)
            k3 = _rhs(b, sigma, x + 0.5 * h * k2, vm)
            k4 = _rhs(b, sigma, x + h * k3, v1)
            x = x + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            vals[:, k + 1] = x
        return vals, _flag_aborts(vals)


def _dense_values(b: DriftField, sigma: DiffusionField, xs: np.ndarray,
                  vstages: np.ndarray, h: float, nodes: int) -> np.ndarray:
    """Values of RK4 paths at ``nodes`` + 1 equispaced times over their steps.

    xs: the step-end values rk4_batch returned for vstages.  With S steps,
    node j lies in step s = j*S // nodes at fraction theta = (j*S mod nodes)
    / nodes.  A node with theta = 0 copies the step value; any other node
    takes the step's cubic Hermite interpolant through x_s, x_{s+1} and the
    slopes rhs(x_s, v0_s), rhs(x_{s+1}, v1_s) (Hairer-Norsett-Wanner,
    Solving ODEs I, II.6).  An aborted path stays NaN from its aborting step
    on.  Returns (m, nodes + 1, d).
    """
    m, _, d = xs.shape
    s, r = np.divmod(np.arange(nodes + 1) * vstages.shape[1], nodes)
    out = xs[:, s]
    inner = np.flatnonzero(r)
    if inner.size == 0:
        return out
    # the Hermite basis at theta, with the step length folded into the slope terms
    t = r[inner] / nodes
    h01 = (t * t * (3.0 - 2.0 * t))[None, :, None]
    h10 = (h * t * (1.0 - t) ** 2)[None, :, None]
    h11 = (-h * t * t * (1.0 - t))[None, :, None]
    si = s[inner]
    with np.errstate(all="ignore"):
        f0 = _rhs(b, sigma, xs[:, :-1].reshape(-1, d), vstages[:, :, 0].reshape(-1, d)).reshape(m, -1, d)
        f1 = _rhs(b, sigma, xs[:, 1:].reshape(-1, d), vstages[:, :, 2].reshape(-1, d)).reshape(m, -1, d)
        x0, x1 = xs[:, si], xs[:, si + 1]
        out[:, inner] = x0 + h01 * (x1 - x0) + h10 * f0[:, si] + h11 * f1[:, si]
    return out


def _require_c1(b_n: DriftField) -> None:
    """The random ODE runs on a smoothed drift: reject one without C^1 metadata, or whose
    central differences (step 1e-6) on a fixed grid exceed the declared slope bound by
    more than 0.1%.  Per axis the grid is uniform on the support box, capped at |x| <= 16;
    a support beyond that adds log-spaced points out to |x| = min(radius, 2^20)."""
    if not b_n.is_c1:
        raise ValidationError(f"drift '{b_n.name}' carries no C^1 metadata")
    r, d = b_n.support_radius, b_n.dim
    axis = mid_grid(-min(r, 16.0), min(r, 16.0), round(4096 ** (1 / d)))
    if r > 16.0:
        tail = np.geomspace(16.0, min(r, 2.0 ** 20), round(1024 ** (1 / d)))
        axis = np.concatenate([-tail[::-1], axis, tail])
    x = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    for e in 1e-6 * np.eye(d):
        slope = np.sqrt((((b_n(x + e) - b_n(x - e)) / 2e-6) ** 2).sum(axis=1)).max()
        if not slope <= b_n.sup_grad * (1.0 + 1e-3) + 1e-12:
            raise ValidationError(f"drift '{b_n.name}' declares a C^1 slope bound {b_n.sup_grad:g}, "
                                  f"but its central differences reach {slope:g}")


# ---------------------------------------------------------------------------
# coupled runs on shared noise
# ---------------------------------------------------------------------------


def _check_levels(model: Model, family: NoiseFamily, levels: Sequence[tuple[int, DriftField]],
                  m_ode: int) -> list[tuple[int, int]]:
    """Each level's (blocks, msub) over the model's grid, once m_ode >= 4 and every
    level's b_n has passed the ``Model`` check in the model's drift's place and
    ``_require_c1``.

    levels: (n, b_n) pairs.  Callers run this before the first path is drawn.
    """
    if m_ode < 4:
        raise ValidationError(f"need m_ode >= 4, got {m_ode}")
    for _, b_n in levels:
        replace(model, drift=b_n)  # Model rejects a b_n of another dimension
        _require_c1(b_n)
    return [block_layout(family, model.grid, n, model.dim) for n, _ in levels]


def _level_values(model: Model, b_n: DriftField, family: NoiseFamily, w: np.ndarray, n: int,
                  layout: tuple[int, int], m_ode: int) -> np.ndarray:
    """Random-ODE values of level n at the model's grid nodes, NaN from an aborting step on.

    RK4 steps dx/ds = b_n(x) + sigma(x) dW^n/ds from the model's x0 over the
    ``blocks`` whole noise blocks of ``layout``, m_ode steps per block, with
    the Brownian sample w on the model's grid.  The step values and stage
    drivers are freed on return; only the (paths, n_ref + 1, d) node values
    leave this scope.
    """
    blocks, msub = layout
    h = 1.0 / (n * m_ode)
    vst = _stage_derivs(family, w, n, msub, blocks, m_ode)
    xs, _ = rk4_batch(b_n, model.sigma, model.x0, vst, h)
    return _dense_values(b_n, model.sigma, xs, vst, h, model.grid.steps)


def coupled_batch(model: Model, family: NoiseFamily, levels: Sequence[tuple[int, DriftField]],
                  stream: RngStream, count: int, m_ode: int = M_ODE) -> np.ndarray:
    """Co-simulate the model's corrected SDE and the random ODE of every level on shared noise.

    levels: (n, b_n) pairs; the random ODE takes m_ode RK4 steps per noise
    block.  The levels are checked (``_check_levels``) before W is sampled on
    the model's grid and the Euler reference solved once, path i from
    stream.child(i); then each level in turn lays out its blocks over the
    same W, steps its ODE and keeps one sup error per path.  Returns the sup
    errors (count, L): NaN at every level where the SDE aborted, and at one
    level where that level's ODE did.
    """
    layouts = _check_levels(model, family, levels, m_ode)
    grid = model.grid
    w = sample_brownian_batch(grid, model.dim, stream, count)
    xv, _ = em_batch(model.drift, model.sigma, model.correction, model.x0, np.diff(w, axis=1), grid.dt)
    sups = np.empty((count, len(levels)))
    for li, ((n, b_n), layout) in enumerate(zip(levels, layouts)):  # one level's values alive at a time
        sups[:, li] = sup_distance_values(xv, _level_values(model, b_n, family, w, n, layout, m_ode))
    return sups
