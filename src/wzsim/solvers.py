"""Path solvers: corrected Euler SDE and the smoothed-noise random ODE.

Both solvers run on shared noise: the Euler route consumes the Brownian
increments on the reference grid, the Runge-Kutta route consumes the time
derivative of the smoothed path built from the same Brownian sample, with
steps aligned so every kink of the smoothed path is a step boundary.  A
coupled batch samples W and solves the corrected Euler SDE once per path,
whatever the number of levels n it is asked for; then, one level at a
time, it lays the level-n blocks over the same grid with
``noise.block_layout``, steps the random ODE through ``_ode_paths`` (the
one Runge-Kutta route over whole noise blocks; ``solve_random_ode`` is its
row 0 for a single smoothed path) and keeps only the sup error per path,
so a level's arrays are freed before the next level starts.  ``coupled_run``
is its one-path, one-level case that also returns both paths.  The random
ODE takes ``m_ode`` steps per noise block, however fine the reference grid
is, and in a coupled run its values at the reference nodes come from each
step's cubic Hermite interpolant (dense output).  It runs on a smoothed
drift only: ``_require_c1`` rejects a drift without C^1 metadata, on every
route and for every level before the first path is drawn.

Both routes are vectorized over a batch of paths in numpy and accept any
dimension and any coefficient field.  sigma is evaluated once per Euler
step and once per Runge-Kutta stage, in one of two forms:

* a diagonal field that carries its scalar forms (every registry
  diffusion) is evaluated elementwise as s(x) of shape (m, d): the noise
  term is s * dW and the correction drift c_kk s s';
* any other field is evaluated as the matrix sigma(x) (m, d, d): the noise
  term is an einsum and the correction drift the full contraction.

Both forms give the same bits for a diagonal field.  Paths whose state
leaves [-limit, limit] are aborted (tail NaN) and reported through a status
code, never silently dropped.  Aborts are found in one pass after the step
loop: fields act row by row, so a bad row never touches another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coeffs import CorrectionMatrix, DiffusionField, DriftField, correction_drift_batch
from .core import Path, RngStream, TimeGrid, ValidationError, make_grid, sample_brownian_batch, sup_distance_values
from .noise import ApproxPath, NoiseFamily, block_layout

OVERFLOW_LIMIT = 1e12


class SolverAbort(RuntimeError):
    """A path left the admissible range; carries the first bad step index."""

    def __init__(self, step: int):
        super().__init__(f"path aborted at step {step}: non-finite or |x| > {OVERFLOW_LIMIT:g}")
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """Grid resolution shared by coupled runs.

    ``n_ref`` reference-grid steps over the horizon; the random ODE takes
    ``m_ode`` Runge-Kutta steps per noise block, and its values at reference
    nodes between step ends are read from the steps' Hermite interpolants.
    """

    n_ref: int
    m_ode: int = 16
    horizon: float = 1.0

    def __post_init__(self):
        if self.n_ref < 1 or self.m_ode < 4:
            raise ValidationError("need n_ref >= 1 and m_ode >= 4")

    def grid(self) -> TimeGrid:
        return make_grid(self.horizon, self.n_ref)


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
    """Integrate one corrected-SDE path on the grid of the Brownian sample w."""
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0v.shape[0] != w.dim:
        raise ValidationError("x0 dimension does not match the Brownian path")
    dw = np.diff(w.values, axis=0)[None]
    vals, status = em_batch(b, sigma, c, x0v[None], dw, w.grid.dt)
    if status[0] != 0:
        raise SolverAbort(int(status[0]))
    return Path(w.grid, vals[0])


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


def _ode_paths(b_n: DriftField, sigma: DiffusionField, family: NoiseFamily, w: np.ndarray,
               n: int, msub: int, blocks: int, x0,
               m_ode: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """RK4 paths of dx/ds = b_n(x) + sigma(x) dW^n/ds over ``blocks`` whole noise blocks.

    w: Brownian samples (paths, blocks * msub + 1, d) laid out by
    ``block_layout``.  Returns the step-end values (paths, blocks * m_ode +
    1, d), the abort status per path, the stage drivers and the step length.
    """
    h = 1.0 / (n * m_ode)
    vst = _stage_derivs(family, w, n, msub, blocks, m_ode)
    xs, status = rk4_batch(b_n, sigma, x0, vst, h)
    return xs, status, vst, h


def _require_c1(b_n: DriftField) -> None:
    """The random ODE runs on a smoothed drift: reject one without C^1 metadata."""
    if not b_n.is_c1:
        raise ValidationError(f"drift '{b_n.name}' carries no C^1 metadata")


def solve_random_ode(b_n: DriftField, sigma: DiffusionField, wn: ApproxPath,
                     x0, m_ode: int = 16) -> Path:
    """Integrate dx/ds = b_n(x) + sigma(x) dW^n/ds over all noise blocks of wn.

    Returns the solution sampled on the ODE step grid (m_ode steps per block).
    """
    if m_ode < 4:
        raise ValidationError("m_ode must be >= 4")
    _require_c1(b_n)
    x0v = np.atleast_1d(np.asarray(x0, dtype=float))
    xs, status, _, _ = _ode_paths(b_n, sigma, wn.family, wn.brownian.values[None], wn.n,
                                  wn.msub, wn.blocks, x0v[None], m_ode)
    if status[0] != 0:
        raise SolverAbort(int(status[0]))
    return Path(make_grid(wn.blocks / wn.n, wn.blocks * m_ode), xs[0])


# ---------------------------------------------------------------------------
# coupled runs on shared noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledRun:
    x: Path
    xn: Path
    sup_error: float


def _check_levels(sigma: DiffusionField, family: NoiseFamily,
                  levels: Sequence[tuple[int, DriftField]], grid: TimeGrid) -> list[tuple[int, int]]:
    """Each level's (blocks, msub) over the grid, once every level's b_n has passed ``_require_c1``.

    levels: (n, b_n) pairs.  Callers run this before the first path is drawn.
    """
    for _, b_n in levels:
        _require_c1(b_n)
    return [block_layout(family, grid, n, sigma.dim) for n, _ in levels]


def _sde_paths(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix, x0,
               stream: RngStream, config: SolverConfig,
               count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brownian samples (count, n_ref + 1, d), path i from stream.child(i), and their
    corrected Euler paths and statuses: the half of a coupled run no level changes."""
    grid = config.grid()
    w = sample_brownian_batch(grid, sigma.dim, stream, count)
    xv, status = em_batch(b, sigma, c, x0, np.diff(w, axis=1), grid.dt)
    return w, xv, status


def _level_values(b_n: DriftField, sigma: DiffusionField, family: NoiseFamily, w: np.ndarray,
                  n: int, layout: tuple[int, int], x0,
                  config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Random-ODE values of level n at the reference nodes of w, and the ODE statuses.

    The step values and stage drivers are freed on return; only the
    (paths, n_ref + 1, d) node values leave this scope.
    """
    blocks, msub = layout
    xs, status, vst, h = _ode_paths(b_n, sigma, family, w, n, msub, blocks, x0, config.m_ode)
    return _dense_values(b_n, sigma, xs, vst, h, config.n_ref), status


def _level_sups(xv: np.ndarray, b_n: DriftField, sigma: DiffusionField, family: NoiseFamily,
                w: np.ndarray, n: int, layout: tuple[int, int], x0,
                config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sup distance of each Euler path in xv to its level-n random ODE, and the ODE statuses."""
    xnv, status = _level_values(b_n, sigma, family, w, n, layout, x0, config)
    return sup_distance_values(xv, xnv), status


def coupled_batch(b: DriftField, sigma: DiffusionField, c: CorrectionMatrix,
                  family: NoiseFamily, levels: Sequence[tuple[int, DriftField]], x0,
                  stream: RngStream, config: SolverConfig,
                  count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Co-simulate the corrected SDE and the random ODE of every level on shared noise.

    levels: (n, b_n) pairs.  W is sampled and the Euler reference solved
    once, path i from stream.child(i); then each level in turn lays out its
    blocks over the same W, steps its ODE and keeps one sup error per path.
    Returns sup errors (count, L), the SDE status (count,) and the ODE
    statuses (count, L); sup errors of aborted paths are NaN.
    """
    layouts = _check_levels(sigma, family, levels, config.grid())
    w, xv, st_sde = _sde_paths(b, sigma, c, x0, stream, config, count)
    sups = np.empty((count, len(levels)))
    st_ode = np.empty((count, len(levels)), dtype=np.int64)
    for li, ((n, b_n), layout) in enumerate(zip(levels, layouts)):
        sups[:, li], st_ode[:, li] = _level_sups(xv, b_n, sigma, family, w, n, layout, x0, config)
    return sups, st_sde, st_ode


def coupled_run(b: DriftField, b_n: DriftField, sigma: DiffusionField,
                c: CorrectionMatrix, family: NoiseFamily, n: int, x0,
                stream: RngStream, config: SolverConfig) -> CoupledRun:
    """One shared-noise draw at one level: corrected SDE vs random ODE, plus their sup distance."""
    (layout,) = _check_levels(sigma, family, [(n, b_n)], config.grid())
    w, xv, st_sde = _sde_paths(b, sigma, c, x0, stream, config, 1)
    xnv, st_ode = _level_values(b_n, sigma, family, w, n, layout, x0, config)
    for st in (st_sde, st_ode):
        if st[0] != 0:
            raise SolverAbort(int(st[0]))
    grid = config.grid()
    return CoupledRun(Path(grid, xv[0]), Path(grid, xnv[0]),
                      float(sup_distance_values(xv[0], xnv[0])))
