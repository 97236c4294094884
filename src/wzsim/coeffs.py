"""Drift and diffusion coefficient fields, smoothing schedules, correction drift.

Fields are immutable bundles of vectorized evaluators plus the metadata the
theory cares about: support radius and L^p norms for the (possibly
discontinuous) drift, C^1 bounds for its smooth approximants, ellipticity
constants and gradients for the diffusion.  The smoothing schedules realize
the two explicit constructions for the indicator drift: the piecewise-linear
ramp with width parameter chi(n) and the Gaussian mollification with
precision kappa(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .core import RngStream, ValidationError
from .shapes import _gl_composite


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftField:
    """Vector field b: R^d -> R^d with support and smoothness metadata.

    ``fn`` is vectorized over a leading batch axis: input (m, d), output
    (m, d).  ``sup_value``/``sup_grad`` are present iff the field is
    declared C^1_b; ``lp_norm_fn`` supplies an analytic L^p norm when the
    support is unbounded.  ``breakpoints`` lists the jumps and kinks of a
    d = 1 field, so quadrature panels can be split there.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float = np.inf
    sup_value: float | None = None
    sup_grad: float | None = None
    lp_norm_fn: Callable[[float], float] | None = None
    breakpoints: tuple[float, ...] = ()
    name: str = "drift"

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))

    @property
    def is_c1(self) -> bool:
        return self.sup_value is not None and self.sup_grad is not None

    @property
    def c1_norm(self) -> float:
        if not self.is_c1:
            raise ValidationError(f"field '{self.name}' carries no C^1 metadata")
        return self.sup_value + self.sup_grad


@dataclass(frozen=True)
class DiffusionField:
    """Matrix field sigma: R^d -> R^{d x d} with gradient and ellipticity data.

    ``sigma`` maps (m, d) -> (m, d, d); ``grad`` maps (m, d) -> (m, d, d, d)
    with entry (i, j, l) = d sigma_ij / d x_l.  ``ellipticity`` is the
    constant K >= 1 with K^-1 <= xi' sigma sigma* xi <= K for unit xi;
    fields that violate it (used only as solver oracles) carry
    ``elliptic=False``.

    A diagonal field sigma(x) = diag(s(x_i)) also carries its scalar forms:
    ``scalar`` = s and ``scalar_grad`` = s', both applied elementwise to an
    (m, d) array.  The solvers and ``correction_drift_batch`` then work on
    the (m, d) diagonal and never build the matrices; a field without them
    goes through the full-matrix route.
    """

    dim: int
    sigma: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    ellipticity: float = 1.0
    elliptic: bool = True
    name: str = "diffusion"
    scalar: Callable[[np.ndarray], np.ndarray] | None = None
    scalar_grad: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class CorrectionMatrix:
    """d x d matrix c entering the corrected limit drift; c + c^T = Identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("correction matrix must be square")
        if np.max(np.abs(m + m.T - np.eye(m.shape[0]))) > 1e-10:
            raise ValidationError("correction matrix must satisfy c + c^T = Identity")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @staticmethod
    def half_identity(d: int) -> "CorrectionMatrix":
        return CorrectionMatrix(0.5 * np.eye(d))

    @staticmethod
    def from_area_matrix(s: np.ndarray) -> "CorrectionMatrix":
        """c = s + I/2 for a skew-symmetric area limit s."""
        s = np.asarray(s, dtype=float)
        if np.max(np.abs(s + s.T)) > 1e-10:
            raise ValidationError("area matrix must be skew-symmetric")
        return CorrectionMatrix(s + 0.5 * np.eye(s.shape[0]))


# ---------------------------------------------------------------------------
# L^p quadrature
# ---------------------------------------------------------------------------


def lp_norm(field: DriftField, p: float, cells: int = 1 << 14) -> float:
    """Composite-midpoint estimate of the L^p norm over the support box.

    Requires a finite support radius, or an analytic norm declared on the
    field (used verbatim in that case).
    """
    if p < 1:
        raise ValidationError("p must be >= 1")
    if not np.isfinite(field.support_radius):
        if field.lp_norm_fn is not None:
            return float(field.lp_norm_fn(p))
        raise ValidationError(
            f"field '{field.name}' has unbounded support and no declared L^p norm"
        )
    r = field.support_radius
    if field.dim == 1:
        x = mid_grid(-r, r, cells)[:, None]
        vals = np.abs(field(x)).ravel()
        return float((np.sum(vals**p) * (2 * r / cells)) ** (1.0 / p))
    if field.dim == 2:
        m = min(cells, 1 << 9)
        g = mid_grid(-r, r, m)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        vals = np.sqrt((field(pts) ** 2).sum(axis=1))
        return float((np.sum(vals**p) * (2 * r / m) ** 2) ** (1.0 / p))
    raise ValidationError("lp_norm quadrature supports dimensions 1 and 2")


def mid_grid(lo: float, hi: float, cells: int) -> np.ndarray:
    h = (hi - lo) / cells
    return lo + h * (np.arange(cells) + 0.5)


def lp_distance(b1: DriftField, b2: DriftField, p: float, cells: int = 1 << 14) -> float:
    """L^p norm of b1 - b2 over the union of the two supports."""
    if b1.dim != b2.dim:
        raise ValidationError("fields have different dimensions")
    r = max(b1.support_radius, b2.support_radius)
    if not np.isfinite(r):
        raise ValidationError("lp_distance needs finite supports")
    diff = DriftField(
        dim=b1.dim,
        fn=lambda x: b1(x) - b2(x),
        support_radius=r,
        name=f"{b1.name}-{b2.name}",
    )
    return lp_norm(diff, p, cells)


# ---------------------------------------------------------------------------
# smoothing schedules for the indicator drift
# ---------------------------------------------------------------------------


def indicator_drift() -> DriftField:
    """b(x) = 1 on [0, 1], 0 elsewhere (d = 1); unit L^p norm for every p."""
    def fn(x):
        x = np.asarray(x, dtype=float)
        return ((x >= 0.0) & (x <= 1.0)).astype(float)

    return DriftField(dim=1, fn=fn, support_radius=2.0,
                      lp_norm_fn=lambda p: 1.0,
                      breakpoints=(0.0, 1.0), name="indicator01")


def ramp_approximation(chi: float) -> DriftField:
    """Piecewise-linear surrogate of the indicator with flank width 2/chi.

    Zero outside [-2/chi, 1 + 2/chi], 1 on [0, 1], linear on the flanks.
    C^1 metadata: sup|b_n| = 1 and sup|b_n'| = chi/2, so the C^1 norm is
    (chi + 2)/2 exactly.

    Branch-free with t = x chi/2 (exact halving keeps the bits of chi x/2): the
    select of min(t + 1, 1) for x <= 1 and (chi + 2)/2 - t above, clipped at 0.
    """
    c = float(chi)
    if c <= 0.0:
        raise ValidationError(f"chi = {c} must be positive")

    def fn(x, h=c / 2.0, k=(c + 2.0) / 2.0):
        x = np.asarray(x, dtype=float)
        t = x * h
        out = k - t
        np.copyto(out, np.minimum(np.add(t, 1.0, out=t), 1.0, out=t), where=x <= 1.0)
        return np.maximum(out, 0.0, out=out)

    return DriftField(dim=1, fn=fn, support_radius=1.0 + 2.0 / c + 1e-9,
                      sup_value=1.0, sup_grad=c / 2.0,
                      breakpoints=(-2.0 / c, 0.0, 1.0, 1.0 + 2.0 / c),
                      name=f"ramp[chi={c:g}]")


def mollified_indicator(kappa: float) -> DriftField:
    """Gaussian mollification of the indicator in closed form.

    b * g_kappa(x) = (Phi(x sqrt(kappa)) - Phi((x-1) sqrt(kappa))) with the
    standard normal CDF Phi, evaluated via erf.  The peak is erf(sqrt(kappa/8))
    at x = 1/2; the slope bound is taken as the grid maximum of the exact
    derivative (s/sqrt(pi)) (exp(-x^2 s^2) - exp(-(x-1)^2 s^2)).
    """
    if kappa <= 0.0:
        raise ValidationError("kappa must be positive")
    s = math.sqrt(kappa / 2.0)

    def fn(x, s=s):
        x = np.asarray(x, dtype=float)
        return 0.5 * (special.erf(x * s) - special.erf((x - 1.0) * s))

    xs = np.linspace(-4.0 / s - 1.0, 1.0, 1 << 13)  # |b_n'| is symmetric about 1/2
    grad = (s / math.sqrt(math.pi)) * np.abs(np.exp(-(xs * s) ** 2) - np.exp(-((xs - 1.0) * s) ** 2))
    # support is unbounded; beyond ~10 sigma the field is below 1e-22
    eff = 1.0 + 10.0 / math.sqrt(kappa)
    return DriftField(dim=1, fn=fn, support_radius=eff,
                      sup_value=float(special.erf(0.5 * s)),
                      sup_grad=float(grad.max()) * (1.0 + 1e-9),
                      name=f"mollified[kappa={kappa:g}]")


def mollify_drift(b: DriftField, kappa: float, order: int = 16) -> DriftField:
    """Gaussian convolution sqrt(kappa/2pi) * int b(x - y) exp(-kappa y^2/2) dy.

    General quadrature route for any finite-support drift (d = 1); the
    window is truncated at 10 standard deviations.  The y-panels are split
    at the field's declared breakpoints (mapped to y = x - beta), so jumps
    and kinks of b never sit inside a Gauss-Legendre panel.  C^1 metadata
    is measured on a fine grid.
    """
    if not np.isfinite(b.support_radius):
        raise ValidationError("mollify_drift needs a finite support radius")
    if b.dim != 1:
        raise ValidationError("mollify_drift quadrature is implemented for d = 1")
    if kappa <= 0.0:
        raise ValidationError("kappa must be positive")
    half = 10.0 / math.sqrt(kappa)
    gx, gw = _gl_composite(1, order)
    # base panels keep the Gaussian well resolved even without breakpoints
    base_edges = np.linspace(-half, half, 33)
    beta = np.asarray(b.breakpoints, dtype=float)
    scale = math.sqrt(kappa / (2.0 * math.pi))

    def fn(x, base_edges=base_edges, beta=beta):
        x = np.asarray(x, dtype=float)
        m = x.shape[0]
        xf = x[:, 0]
        cuts = np.clip(xf[:, None] - beta[None, :], -half, half) if beta.size else \
            np.empty((m, 0))
        edges = np.sort(np.concatenate(
            [np.broadcast_to(base_edges, (m, base_edges.size)), cuts], axis=1), axis=1)
        lo = edges[:, :-1]
        width = edges[:, 1:] - lo
        y = lo[:, :, None] + width[:, :, None] * gx[None, None, :]
        wq = width[:, :, None] * gw[None, None, :]
        dens = scale * np.exp(-kappa * y**2 / 2.0)
        vals = b((xf[:, None, None] - y).reshape(-1, 1)).reshape(y.shape)
        return np.einsum("mpq,mpq->m", vals, wq * dens)[:, None]

    radius = b.support_radius + half
    xs = mid_grid(-radius, radius, 1 << 12)[:, None]
    vals = fn(xs).ravel()
    sup_v = float(np.max(np.abs(vals)))
    sup_g = float(np.max(np.abs(np.diff(vals))) / (2 * radius / (1 << 12)))
    return DriftField(dim=1, fn=fn, support_radius=radius,
                      sup_value=sup_v, sup_grad=sup_g,
                      name=f"{b.name}*gauss[kappa={kappa:g}]")


def schedule_chi(n: int, alpha: float) -> float:
    """chi(n) = max(2 sqrt(|log(n^alpha)|) - 2, 0)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return max(2.0 * math.sqrt(abs(alpha * math.log(n))) - 2.0, 0.0)


def schedule_kappa(n: int, alpha: float, c: float) -> float:
    """kappa(n) = max(sqrt(|log(n^alpha)|)/C - 1, 0)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    if c <= 0.0:
        raise ValidationError("C must be positive")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return max(math.sqrt(abs(alpha * math.log(n))) / c - 1.0, 0.0)


# ---------------------------------------------------------------------------
# approximation sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftApproxSequence:
    """A schedule n -> b_n of C^1 drifts approximating a singular base drift.

    ``bound`` is the function h with C^1-norm(b_n) <= h(n) ||b||_Lp;
    ``noise_rate`` is the area-coefficient rate f_n of the noise family the
    sequence is paired with; ``delta`` the rate split used in the joint
    speed condition.
    """

    base: DriftField
    p: float
    generator: Callable[[int], DriftField]
    bound: Callable[[int], float]
    noise_rate: Callable[[int], float]
    delta: float
    name: str = "sequence"

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")

    def check_member(self, n: int, base_norm: float | None = None, tol: float = 1e-9) -> bool:
        """Does b_n's declared C^1 norm respect the h(n)-bound?"""
        bn = self.generator(n)
        norm = base_norm if base_norm is not None else lp_norm(self.base, self.p)
        return bn.c1_norm <= self.bound(n) * norm * (1.0 + tol)


def ramp_sequence(alpha: float, p: float, delta: float = 0.5) -> DriftApproxSequence:
    """Ramp schedule for the indicator drift: chi(n) growing like sqrt(alpha log n).

    Valid from the first n with chi(n) > 0 (n > e^{1/alpha}).
    """
    base = indicator_drift()
    return DriftApproxSequence(
        base=base,
        p=p,
        generator=lambda n: ramp_approximation(schedule_chi(n, alpha)),
        bound=lambda n: (schedule_chi(n, alpha) + 2.0) / 2.0,
        noise_rate=lambda n: 0.0,
        delta=delta,
        name=f"ramp[alpha={alpha:g}]",
    )


def mollified_sequence(alpha: float, p: float, delta: float = 0.5) -> DriftApproxSequence:
    """Mollification schedule for the indicator: kappa(n) = sqrt(alpha log n)/C - 1.

    C is the measured constant with C^1-norm(b_kappa) <= C (kappa + 1); for
    the indicator, sup|b_kappa| <= 1 and sup|b_kappa'| = sqrt(kappa/2pi),
    and C = 1.1 covers every kappa > 0 (measured here on a kappa grid).
    """
    kappas = np.geomspace(1e-3, 50.0, 80)
    ratios = [mollified_indicator(k).c1_norm / (k + 1.0) for k in kappas]
    c_measured = float(np.max(ratios)) * 1.001
    base = indicator_drift()

    def gen(n, c=c_measured):
        k = schedule_kappa(n, alpha, c)
        if k <= 0.0:
            raise ValidationError(f"kappa({n}) = 0; schedule starts later")
        return mollified_indicator(k)

    return DriftApproxSequence(
        base=base,
        p=p,
        generator=gen,
        bound=lambda n, c=c_measured: c * (schedule_kappa(n, alpha, c) + 1.0),
        noise_rate=lambda n: 0.0,
        delta=delta,
        name=f"mollified[alpha={alpha:g}]",
    )


# ---------------------------------------------------------------------------
# joint speed condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedConditionReport:
    """Values of e^{h(n)^2 B^2} (f_n^2 + (1 + h(n)^2 B^2) n^{delta-1}) along n_list."""

    n_list: tuple[int, ...]
    values: np.ndarray
    log_values: np.ndarray
    converging: bool
    tail_decreasing: bool


def check_hfn(seq: DriftApproxSequence, base_norm: float, n_list: Sequence[int],
              threshold: float = 1.0) -> SpeedConditionReport:
    """Evaluate the joint noise/drift speed expression along n_list.

    The verdict is advisory: ``converging`` means the last value dropped
    below both the first value and the threshold; the report never blocks a
    run.  Computed in log space so diverging schedules report inf instead
    of overflowing.
    """
    if len(n_list) == 0:
        raise ValidationError("n_list must be nonempty")
    n_arr = np.asarray(sorted(int(n) for n in n_list), dtype=float)
    h = np.array([seq.bound(int(n)) for n in n_arr])
    f = np.array([seq.noise_rate(int(n)) for n in n_arr])
    hb2 = (h * base_norm) ** 2
    inner = f**2 + (1.0 + hb2) * n_arr ** (seq.delta - 1.0)
    logv = hb2 + np.log(inner)
    with np.errstate(over="ignore"):
        vals = np.exp(logv)
    converging = bool(logv[-1] < logv[0] and logv[-1] < math.log(threshold))
    tail_decreasing = bool(len(logv) < 2 or logv[-1] < logv[-2])
    return SpeedConditionReport(tuple(int(n) for n in n_arr), vals, logv,
                                converging, tail_decreasing)


# ---------------------------------------------------------------------------
# correction drift and assumption checks
# ---------------------------------------------------------------------------


def correction_drift(sigma: DiffusionField, c: CorrectionMatrix, x: np.ndarray) -> np.ndarray:
    """Extra drift of the corrected limit equation at points x.

    Component k is sum_{i,j,l} c_ij sigma_il(x) d_l sigma_jk(x); accepts a
    single point (d,) or a batch (m, d).
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    out = correction_drift_batch(sigma, c, xb)
    return out[0] if single else out


def correction_drift_batch(sigma: DiffusionField, c: CorrectionMatrix, x: np.ndarray,
                           sig_vals: np.ndarray | None = None) -> np.ndarray:
    """Correction drift at a batch x (m, d); ``sig_vals`` is sigma at x if known.

    For a field with scalar forms the sum reduces to c_kk s(x_k) s'(x_k),
    and ``sig_vals`` is the diagonal s(x) (m, d); otherwise it is the
    matrix sigma(x) (m, d, d).
    """
    if sigma.scalar is not None:
        s = sigma.scalar(x) if sig_vals is None else sig_vals
        return np.diagonal(c.matrix) * s * sigma.scalar_grad(x)
    sig = sigma.sigma(x) if sig_vals is None else sig_vals
    dsig = sigma.grad(x)
    return np.einsum("ij,mil,mjkl->mk", c.matrix, sig, dsig)


@dataclass(frozen=True)
class EllipticityReport:
    min_quotient: float
    max_quotient: float
    declared_k: float
    within_bounds: bool


def validate_assumptions(sigma: DiffusionField, sample_box: float, samples: int,
                         stream: RngStream) -> EllipticityReport:
    """Sample Rayleigh quotients of sigma sigma* over random (x, xi).

    Flags failure when any quotient leaves [1/K, K] for the declared K.
    """
    if samples < 100:
        raise ValidationError("need at least 100 samples")
    gen = stream.generator()
    x = gen.uniform(-sample_box, sample_box, size=(samples, sigma.dim))
    xi = gen.standard_normal((samples, sigma.dim))
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    s = sigma.sigma(x)
    a = np.einsum("mij,mkj->mik", s, s)
    q = np.einsum("mi,mij,mj->m", xi, a, xi)
    lo, hi = float(q.min()), float(q.max())
    k = sigma.ellipticity
    ok = (sigma.elliptic and np.isfinite(k) and lo > 0.0
          and lo >= 1.0 / k - 1e-12 and hi <= k + 1e-12)
    return EllipticityReport(lo, hi, k, ok)


def validate_c1(field: DriftField, stream: RngStream, points: int = 100,
                tol: float = 1e-3) -> bool:
    """Check declared C^1 metadata by finite differences at random points."""
    if not field.is_c1:
        raise ValidationError(f"field '{field.name}' carries no C^1 metadata")
    gen = stream.generator()
    r = min(field.support_radius, 1e6)
    x = gen.uniform(-r, r, size=(points, field.dim))
    h = 1e-6
    ok = True
    for l in range(field.dim):
        e = np.zeros(field.dim)
        e[l] = h
        fd = (field(x + e) - field(x - e)) / (2 * h)
        ok &= bool(np.max(np.sqrt((fd**2).sum(axis=1))) <= field.sup_grad * (1.0 + tol) + 1e-12)
    return ok
