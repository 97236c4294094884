"""Smoothed approximations of the Wiener process and their area coefficients.

Three families are built from a Brownian path sampled on a uniform subgrid
with ``msub`` cells per noise block of width 1/n:

* ``PiecewiseShape`` -- blockwise interpolation of the increments with a
  C^1 shape function f (f(u)=u gives the familiar polygonal path),
* ``Mollified`` -- one-sided convolution with rho_n(s) = n rho(n s),
  linear in the path: each call applies one band operator from the
  subgrid samples to the requested times (numpy only; no SciPy),
* ``McShane`` -- d=2 blockwise interpolation where the two components swap
  shape functions whenever the block increments have opposite signs.

``block_layout`` is the one check of how the level-n blocks lie over a
Brownian grid (a whole number of blocks, a whole number of grid cells per
block, a dimension the family supports); the solvers' coupled runs go
through it, and the estimators reject a dimension the family does not
support by the same rule.

Every family has one evaluator pair, ``batch_values`` and ``batch_derivs``,
and both take block-local positions ``(k, u)``: block index k (an int
array) and offset u in [0, 1] within that block (a float array of the same
length), i.e. the time (k + u)/n.  u = 1 is the left limit at the block's
right end, so a derivative there is block k's even where d/ds W^n jumps at
(k + 1)/n -- what an integrator stepping up to a kink needs.

The module also estimates the coefficients that decide the limit equation:
the smoothed-path area density s_ij(1/n, n) and the drift-correction
density c_ij(t, n).  Each functional (area density, correction density, the
two sixth moments) is written once, as a batched per-sample function of
``(family, wsub, n, msub)``.  The estimators are plain Monte Carlo in which
sample i draws its path from ``stream.child(i)``; each keeps its per-sample
values in sample order and reduces them once with ``core.mean_se``, so
results do not depend on the batch sizes ``S_BATCH``, ``C_BATCH`` and
``MOMENT_BATCH``, internal constants that the tests vary.  Time integrals
use composite per-cell Gauss-Legendre, so piecewise-smooth integrands are
resolved exactly between kinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import RngStream, TimeGrid, ValidationError, make_grid, map_batches, mean_se, sample_brownian_batch
from .shapes import MollifierKernel, ShapeFunction, _gl_composite

QUAD_ORDER = 4          # Gauss-Legendre nodes per subgrid cell in the estimators
CONVOLUTION_ORDER = 6   # Gauss-Legendre nodes per sub-cell of the mollifier convolution
BLOCKS_PER_PATH = 8     # first-block area functionals drawn from each path by estimate_s
MOMENT_MSUB = 8         # Brownian subgrid cells per block in check_moment_condition
# paths per batch of estimate_s (512 block slices), estimate_c and check_moment_condition
S_BATCH = 64
C_BATCH = 256
MOMENT_BATCH = 2048


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


class NoiseFamily:
    """Interface: vectorized evaluation of W^n and its time derivative.

    ``wsub`` always has shape (npaths, nsub+1, d) with nsub = blocks*msub
    samples of W on the uniform subgrid of spacing 1/(n*msub); ``k`` and
    ``u`` are the block-local positions of the module docstring.  Both
    methods return shape (npaths, len(k), d).
    """

    name = "family"
    required_dim: int | None = None

    def batch_values(self, wsub: np.ndarray, n: int, msub: int,
                     k: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def batch_derivs(self, wsub: np.ndarray, n: int, msub: int,
                     k: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PiecewiseShape(NoiseFamily):
    """W^n_t = W_{k/n} + f(n(t - k/n)) (W_{(k+1)/n} - W_{k/n}) on each block."""

    shape: ShapeFunction

    @property
    def name(self):
        return f"piecewise[{self.shape.name}]"

    def batch_values(self, wsub, n, msub, k, u):
        w0 = wsub[:, k * msub, :]
        dw = wsub[:, (k + 1) * msub, :] - w0
        return w0 + self.shape.value(u)[None, :, None] * dw

    def batch_derivs(self, wsub, n, msub, k, u):
        dw = wsub[:, (k + 1) * msub, :] - wsub[:, k * msub, :]
        return n * self.shape.deriv(u)[None, :, None] * dw


@dataclass(frozen=True)
class McShane(NoiseFamily):
    """Two-dimensional blockwise construction with sign-dependent shape swap.

    On blocks where the product of the two component increments is
    nonnegative, component i is interpolated with f_i; otherwise the shapes
    are swapped.
    """

    f1: ShapeFunction
    f2: ShapeFunction

    required_dim = 2

    @property
    def name(self):
        return f"mcshane[{self.f1.name},{self.f2.name}]"

    def _blend(self, wsub, msub, k, fa, fb):
        """(W_{k/n}, shape factors times block increments, swapped where dW1 dW2 < 0)."""
        w0 = wsub[:, k * msub, :]
        dw = wsub[:, (k + 1) * msub, :] - w0
        swap = (dw[:, :, 0] * dw[:, :, 1]) < 0.0
        out = np.empty_like(dw)
        out[:, :, 0] = np.where(swap, fb, fa) * dw[:, :, 0]
        out[:, :, 1] = np.where(swap, fa, fb) * dw[:, :, 1]
        return w0, out

    def batch_values(self, wsub, n, msub, k, u):
        w0, inc = self._blend(wsub, msub, k, self.f1.value(u)[None, :], self.f2.value(u)[None, :])
        return w0 + inc

    def batch_derivs(self, wsub, n, msub, k, u):
        return self._blend(wsub, msub, k, n * self.f1.deriv(u)[None, :],
                           n * self.f2.deriv(u)[None, :])[1]


@dataclass(frozen=True)
class Mollified(NoiseFamily):
    """W^n_s = integral over r >= 0 of W_r rho_n(s - r) dr, rho_n(s) = n rho(n s).

    The convolution window [s - 1/n, s] is clipped at 0, matching the
    one-sided integral; W is extended by zero below 0 (continuous, since
    W_0 = 0).  The quadrature splits every cell at the sampled path's kink
    positions, so value and derivative are exact integrals of the linearly
    interpolated path and the derivative evaluator (which integrates
    rho_n' instead, the boundary terms vanishing because rho(0)=rho(1)=0)
    agrees with the finite-difference derivative to machine precision.
    W^n is C^1, so (k, u) is evaluated at the time s = (k + u)/n.

    Both evaluators are linear in the path: each call builds the quadrature
    as a band operator on numpy alone (a run with this family loads no
    SciPy), whose row r weights the consecutive subgrid samples from
    first[r] on, at most msub + 2 of them.  The operator does not depend on
    the path; it is rebuilt on every call, not cached, and applied to the
    whole batch one band column at a time.
    """

    kernel: MollifierKernel

    @property
    def name(self):
        return f"mollified[{self.kernel.name}]"

    def _convolve(self, wsub, n, msub, k, u, kernel_fn, scale):
        npaths, _, d = wsub.shape
        nsub = wsub.shape[1] - 1
        times = (k + u) / n
        nt = times.shape[0]
        h = 1.0 / (n * msub)

        # Split each of the msub tau-cells at the path-kink offset phi = t mod h,
        # then apply Gauss-Legendre on both sub-cells; integrands are smooth there.
        x, wq = _gl_composite(1, CONVOLUTION_ORDER)

        phi = np.mod(times, h)                       # (nt,)
        base = np.arange(msub) * h                   # (msub,)
        # sub-cell A: [c h, c h + phi], sub-cell B: [c h + phi, (c+1) h]
        tau_a = base[None, :, None] + phi[:, None, None] * x[None, None, :]
        tau_b = base[None, :, None] + phi[:, None, None] + (h - phi)[:, None, None] * x[None, None, :]
        w_a = np.broadcast_to((phi[:, None] * wq[None, :])[:, None, :], tau_a.shape)
        w_b = np.broadcast_to(((h - phi)[:, None] * wq[None, :])[:, None, :], tau_b.shape)

        tau = np.concatenate([tau_a, tau_b], axis=2).reshape(nt, -1)   # (nt, Q)
        wts = np.concatenate([w_a, w_b], axis=2).reshape(nt, -1)
        dens = kernel_fn(tau * n) * scale
        wts = wts * dens

        pos = times[:, None] - tau                   # (nt, Q) sample positions
        idx = pos * (n * msub)
        j = np.floor(idx).astype(np.int64)
        theta = idx - j
        valid = idx >= 0.0
        j = np.clip(j, 0, nsub - 1)

        # W at a node is (1 - theta) W_j + theta W_{j+1}, so row r's weights sit on
        # columns first[r], first[r] + 1, ...; bincount sums shared ones in input order.
        first = np.where(valid, j, nsub).min(axis=1)
        col = j - first[:, None]
        band = int(col[valid].max(initial=0)) + 2
        at = (np.arange(nt)[:, None] * band + col)[valid]
        weight = np.bincount(np.concatenate([at, at + 1]),
                             np.concatenate([(wts * (1.0 - theta))[valid], (wts * theta)[valid]]),
                             minlength=nt * band).reshape(nt, band)

        # Summed column by column into one output through one scratch buffer, so a
        # path's bits do not depend on its batch (a dense BLAS product's may).
        flat = np.ascontiguousarray(wsub.transpose(1, 0, 2)).reshape(nsub + 1, npaths * d)
        out = np.take(flat, first, axis=0, mode="clip") * weight[:, :1]
        buf = np.empty_like(out)
        for i in range(1, band):
            np.take(flat, first + i, axis=0, out=buf, mode="clip")
            buf *= weight[:, i:i + 1]
            out += buf
        return out.reshape(nt, npaths, d).transpose(1, 0, 2)

    def batch_values(self, wsub, n, msub, k, u):
        return self._convolve(wsub, n, msub, k, u, self.kernel.value, float(n))

    def batch_derivs(self, wsub, n, msub, k, u):
        return self._convolve(wsub, n, msub, k, u, self.kernel.deriv, float(n) * n)


# ---------------------------------------------------------------------------
# noise blocks over a Brownian grid
# ---------------------------------------------------------------------------


def _check_dim(family: NoiseFamily, d: int) -> None:
    """Reject a dimension the family does not support."""
    if family.required_dim is not None and d != family.required_dim:
        raise ValidationError(f"family {family.name} requires dimension {family.required_dim}, got {d}")


def block_layout(family: NoiseFamily, grid: TimeGrid, n: int, d: int) -> tuple[int, int]:
    """(blocks, msub): the level-n noise blocks over the grid and the grid cells per block.

    Rejects n < 1, a dimension the family does not support, a horizon that
    does not hold a whole number of blocks of width 1/n, and a grid whose
    cells do not tile every block.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    _check_dim(family, d)
    blocks = grid.horizon * n
    if abs(blocks - round(blocks)) > 1e-9:
        raise ValidationError("horizon does not hold a whole number of noise blocks")
    blocks = int(round(blocks))
    msub = grid.steps / blocks
    if abs(msub - round(msub)) > 1e-9 or round(msub) < 1:
        raise ValidationError(f"grid spacing {grid.dt} does not divide the block width 1/{n}")
    return blocks, int(round(msub))


# ---------------------------------------------------------------------------
# quadrature over whole blocks
# ---------------------------------------------------------------------------


def _block_quadrature(blocks: int, n: int, msub: int):
    """Composite Gauss-Legendre over [0, blocks/n] in (k, u) form, and its weights.

    Every block is split into its msub subgrid cells with QUAD_ORDER nodes
    each, so integrands that are smooth between subgrid nodes and block
    ends are integrated exactly up to the rule's order.
    """
    u, w = _gl_composite(cells=msub, order=QUAD_ORDER)
    k = np.repeat(np.arange(blocks), u.size)
    return k, np.tile(u, blocks), np.tile(w / n, blocks)


# ---------------------------------------------------------------------------
# coefficient estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientMatrix:
    """d x d matrix of Monte Carlo coefficient estimates."""

    values: np.ndarray
    stderrs: np.ndarray
    sample_count: int

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def area_density(family: NoiseFamily, wsub: np.ndarray, n: int, msub: int) -> np.ndarray:
    """Per-sample area density over the first block, the s_ij(1/n, n) integrand.

    Returns (m, d, d): (int_0^{1/n} W^{n,i} dW^{n,j}/ds ds - (i <-> j)) / (2/n)
    for each of the m Brownian samples in ``wsub`` (no expectation taken).
    """
    k, u, w = _block_quadrature(1, n, msub)
    vals = family.batch_values(wsub, n, msub, k, u)
    ders = family.batch_derivs(wsub, n, msub, k, u)
    a = np.einsum("pti,ptj->pij", w[None, :, None] * vals, ders)
    return (a - np.swapaxes(a, 1, 2)) / (2.0 / n)


def correction_density(family: NoiseFamily, wsub: np.ndarray, n: int, msub: int) -> np.ndarray:
    """Per-sample correction density over all of ``wsub``, the c_ij(t, n) integrand.

    With t = blocks/n the horizon of ``wsub``, returns (m, d, d):
    int_0^t dW^{n,i}/ds (W^{n,j}_t - W^{n,j}_s) ds / t for each sample.
    """
    blocks = (wsub.shape[1] - 1) // msub
    k, u, w = _block_quadrature(blocks, n, msub)
    vals = family.batch_values(wsub, n, msub, k, u)
    ders = family.batch_derivs(wsub, n, msub, k, u)
    vt = family.batch_values(wsub, n, msub, np.array([blocks - 1]), np.array([1.0]))
    return np.einsum("pti,ptj->pij", w[None, :, None] * ders, vt - vals) / (blocks / n)


def sixth_moments(family: NoiseFamily, wsub: np.ndarray, n: int, msub: int) -> np.ndarray:
    """Per-sample (|W^n_{1/n}|^6, (int_0^{1/n} |dW^n/ds| ds)^6) over the first block, (m, 2)."""
    k, u, w = _block_quadrature(1, n, msub)
    end = family.batch_values(wsub, n, msub, np.array([0]), np.array([1.0]))[:, 0, :]
    speed = np.sqrt((family.batch_derivs(wsub, n, msub, k, u) ** 2).sum(axis=2))
    # summed node by node in time order: ``speed @ w`` (BLAS) rounds a row by its
    # place in the batch, and ``.sum(axis=1)`` sums a one-path batch pairwise
    length = np.cumsum(speed * w, axis=1)[:, -1]
    return np.stack([(end * end).sum(axis=1) ** 3, length ** 6], axis=1)


def _per_sample(functional, blocks: int, n: int, msub: int, d: int, samples: int,
                stream: RngStream, batch: int) -> np.ndarray:
    """functional(wsub) of ``samples`` Brownian paths over ``blocks`` blocks, in sample order.

    Sample i draws its path from stream.child(i) whatever the batch size (``map_batches``).
    """
    grid = make_grid(blocks / n, blocks * msub)
    return map_batches(lambda s, m: functional(sample_brownian_batch(grid, d, s, m)), samples, stream, batch)


def estimate_s(family: NoiseFamily, n: int, samples: int, stream: RngStream,
               d: int = 2, msub: int = 8) -> CoefficientMatrix:
    """Monte Carlo estimate of the area density s_ij(1/n, n).

    ``samples`` independent paths each contribute ``BLOCKS_PER_PATH`` block
    functionals; block slices rebased at their left endpoint are fresh
    copies of the first-block functional (the shift property of the
    construction), and disjoint blocks use disjoint increments, so all
    sample_count = samples * BLOCKS_PER_PATH values are i.i.d.  All slices
    of a batch go through one ``area_density`` call, so a batch of
    ``S_BATCH`` = 64 paths is 512 slices.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    _check_dim(family, d)

    cells = np.arange(BLOCKS_PER_PATH)[:, None] * msub + np.arange(msub + 1)

    def blockwise(wsub):
        sl = wsub[:, cells, :]                        # (m, BLOCKS_PER_PATH, msub + 1, d)
        sl = sl - sl[:, :, :1, :]
        return area_density(family, sl.reshape(-1, msub + 1, d), n, msub)

    s = _per_sample(blockwise, BLOCKS_PER_PATH, n, msub, d, samples, stream, S_BATCH)
    mean, se = mean_se(s)
    return CoefficientMatrix(mean, se, s.shape[0])


def estimate_c(family: NoiseFamily, n: int, t: float, samples: int, stream: RngStream,
               d: int = 2, msub: int = 8) -> CoefficientMatrix:
    """Monte Carlo estimate of the correction density c_ij(t, n), t a multiple of 1/n."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    blocks = t * n
    if abs(blocks - round(blocks)) > 1e-9 or round(blocks) < 1:
        raise ValidationError("t must be a positive multiple of 1/n")
    _check_dim(family, d)
    c = _per_sample(lambda wsub: correction_density(family, wsub, n, msub),
                    int(round(blocks)), n, msub, d, samples, stream, C_BATCH)
    mean, se = mean_se(c)
    return CoefficientMatrix(mean, se, samples)


# ---------------------------------------------------------------------------
# moment condition of the approximation class
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheckReport:
    """Sixth-moment scaling of W^n over its first block, across levels n.

    Both E|W^n_{1/n}|^6 and E(int_0^{1/n} |dW^n/ds| ds)^6 must decay like
    C/n^3; the report carries the Monte Carlo estimates and the fitted
    log-log exponents.
    """

    family_name: str
    n_list: tuple[int, ...]
    endpoint_moment: np.ndarray
    endpoint_stderr: np.ndarray
    speed_moment: np.ndarray
    speed_stderr: np.ndarray
    endpoint_exponent: float
    speed_exponent: float
    sample_count: int


def check_moment_condition(family: NoiseFamily, n_list: Sequence[int], samples: int,
                           stream: RngStream, d: int = 1) -> MomentCheckReport:
    """Estimate the two sixth moments over a range of n and fit their n-exponents."""
    if samples < 100:
        raise ValidationError("need at least 100 samples")
    _check_dim(family, d)
    n_list = tuple(int(n) for n in n_list)
    if len(set(n_list)) < 2:
        raise ValidationError("need at least two distinct levels to fit an exponent")
    mean = np.zeros((len(n_list), 2))
    se = np.zeros((len(n_list), 2))
    for idx, n in enumerate(n_list):
        moments = _per_sample(lambda wsub: sixth_moments(family, wsub, n, MOMENT_MSUB), 1, n,
                              MOMENT_MSUB, d, samples, stream.child(idx * samples), MOMENT_BATCH)
        mean[idx], se[idx] = mean_se(moments)
    ln = np.log(np.asarray(n_list, dtype=float))
    exp_end = float(np.polyfit(ln, np.log(mean[:, 0]), 1)[0])
    exp_int = float(np.polyfit(ln, np.log(mean[:, 1]), 1)[0])
    return MomentCheckReport(family.name, n_list, mean[:, 0], se[:, 0], mean[:, 1], se[:, 1],
                             exp_end, exp_int, samples)
