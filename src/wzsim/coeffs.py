"""Drift and diffusion coefficient fields, smoothing schedules, correction drift.

Fields are immutable bundles of vectorized evaluators plus the metadata the
theory cares about: support radius and L^p norms for the (possibly
discontinuous) drift, C^1 bounds for its smooth approximants, ellipticity
constants and gradients for the diffusion.  The smoothing schedules realize
the two explicit constructions for the indicator drift: the piecewise-linear
ramp with width parameter chi(n) and the Gaussian mollification with
precision kappa(n).

``DriftApproxSequence`` owns the theorem's hypotheses on a schedule: it
rejects p outside p >= 2, p > d and stores ||b||_p once for ``check_member``
and ``check_hfn``.  Before a sweep's first path, ``experiments._schedule_levels``
rejects a base other than the model's drift and ``Model`` a b_n of another
dimension; a rate sweep adds ``solvers._require_c1`` and ``check_member``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import ValidationError

LP_CELLS = 1 << 14  # midpoint cells per axis of lp_norm's support box in d = 1


# ---------------------------------------------------------------------------
# field types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftField:
    """Vector field b: R^d -> R^d with support and smoothness metadata.

    ``fn`` is vectorized over a leading batch axis: input (m, d), output
    (m, d).  ``sup_value``/``sup_grad`` are present iff the field is
    declared C^1_b; ``lp_norm_fn`` supplies an analytic L^p norm when the
    support is unbounded.
    """

    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    support_radius: float = np.inf
    sup_value: float | None = None
    sup_grad: float | None = None
    lp_norm_fn: Callable[[float], float] | None = None
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
    fields that violate it (used only as solver oracles) carry K = inf.

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
    name: str = "diffusion"
    scalar: Callable[[np.ndarray], np.ndarray] | None = None
    scalar_grad: Callable[[np.ndarray], np.ndarray] | None = None


def _square_matrix(m, what: str) -> np.ndarray:
    """m as a float array, checked to be a d x d matrix, d >= 1, of finite entries."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"{what} must be square and at least 1 x 1, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{what} entries must be finite, got {m.tolist()}")
    return m


@dataclass(frozen=True)
class CorrectionMatrix:
    """d x d matrix c entering the corrected limit drift; c + c^T = Identity."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _square_matrix(self.matrix, "correction matrix")
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
        s = _square_matrix(s, "area matrix")
        if np.max(np.abs(s + s.T)) > 1e-10:
            raise ValidationError("area matrix must be skew-symmetric")
        return CorrectionMatrix(s + 0.5 * np.eye(s.shape[0]))


# ---------------------------------------------------------------------------
# L^p quadrature
# ---------------------------------------------------------------------------


def lp_norm(field: DriftField, p: float) -> float:
    """Composite-midpoint estimate of the L^p norm over the support box.

    Requires a finite p >= 1 and a finite support radius, or an analytic
    norm declared on the field (used verbatim in that case).  The box has
    LP_CELLS cells per axis in d = 1 and 512 in d = 2; |b| is Euclidean.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ValidationError(f"p = {p} must be finite and >= 1")
    if not np.isfinite(field.support_radius):
        if field.lp_norm_fn is not None:
            return float(field.lp_norm_fn(p))
        raise ValidationError(
            f"field '{field.name}' has unbounded support and no declared L^p norm"
        )
    d, r = field.dim, field.support_radius
    if d not in (1, 2):
        raise ValidationError("lp_norm quadrature supports dimensions 1 and 2")
    cells = LP_CELLS if d == 1 else 1 << 9
    g = mid_grid(-r, r, cells)
    pts = np.stack(np.meshgrid(*[g] * d, indexing="ij"), axis=-1).reshape(-1, d)
    vals = np.sqrt((field(pts) ** 2).sum(axis=1))
    return float((np.sum(vals**p) * (2 * r / cells) ** d) ** (1.0 / p))


def mid_grid(lo: float, hi: float, cells: int) -> np.ndarray:
    h = (hi - lo) / cells
    return lo + h * (np.arange(cells) + 0.5)


def lp_distance(b1: DriftField, b2: DriftField, p: float) -> float:
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
    return lp_norm(diff, p)


# ---------------------------------------------------------------------------
# smoothing schedules for the indicator drift
# ---------------------------------------------------------------------------


def indicator_drift() -> DriftField:
    """b(x) = 1 on [0, 1], 0 elsewhere (d = 1); unit L^p norm for every p."""
    def fn(x):
        return ((x >= 0.0) & (x <= 1.0)).astype(float)

    return DriftField(dim=1, fn=fn, support_radius=2.0, name="indicator01")


def ramp_approximation(chi: float) -> DriftField:
    """Piecewise-linear surrogate of the indicator with flank width 2/chi.

    Zero outside [-2/chi, 1 + 2/chi], 1 on [0, 1], linear on the flanks.
    C^1 metadata: sup|b_n| = 1 and sup|b_n'| = chi/2, so the C^1 norm is
    (chi + 2)/2 exactly.

    Branch-free with t = x chi/2 (exact halving keeps the bits of chi x/2): the
    select of min(t + 1, 1) for x <= 1 and (chi + 2)/2 - t above, clipped at 0.
    """
    c = float(chi)
    if not 0.0 < c < math.inf:
        raise ValidationError(f"chi = {c} must be positive and finite")

    def fn(x, h=c / 2.0, k=(c + 2.0) / 2.0):
        t = x * h
        out = k - t
        np.copyto(out, np.minimum(np.add(t, 1.0, out=t), 1.0, out=t), where=x <= 1.0)
        return np.maximum(out, 0.0, out=out)

    return DriftField(dim=1, fn=fn, support_radius=1.0 + 2.0 / c + 1e-9,
                      sup_value=1.0, sup_grad=c / 2.0, name=f"ramp[chi={c:g}]")


def mollified_indicator(kappa: float) -> DriftField:
    """Gaussian mollification of the indicator in closed form.

    b * g_kappa(x) = (Phi(x sqrt(kappa)) - Phi((x-1) sqrt(kappa))) with the
    standard normal CDF Phi, evaluated via erf.  The peak is erf(sqrt(kappa/8))
    at x = 1/2; the slope bound is taken as the grid maximum of the exact
    derivative (s/sqrt(pi)) (exp(-x^2 s^2) - exp(-(x-1)^2 s^2)).
    """
    if not 0.0 < kappa < math.inf:
        raise ValidationError(f"kappa = {kappa} must be positive and finite")
    # loaded when the field is built, before any path; runs without this field never load it
    from scipy.special import erf

    s = math.sqrt(kappa / 2.0)

    def fn(x, s=s):
        return 0.5 * (erf(x * s) - erf((x - 1.0) * s))

    xs = np.linspace(-4.0 / s - 1.0, 1.0, 1 << 13)  # |b_n'| is symmetric about 1/2
    grad = (s / math.sqrt(math.pi)) * np.abs(np.exp(-(xs * s) ** 2) - np.exp(-((xs - 1.0) * s) ** 2))
    # support is unbounded; beyond ~10 sigma the field is below 1e-22
    eff = 1.0 + 10.0 / math.sqrt(kappa)
    return DriftField(dim=1, fn=fn, support_radius=eff,
                      sup_value=float(erf(0.5 * s)),
                      sup_grad=float(grad.max()) * (1.0 + 1e-9),
                      name=f"mollified[kappa={kappa:g}]")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha = {alpha} must lie in (0, 1)")


def schedule_chi(n: int, alpha: float) -> float:
    """chi(n) = max(2 sqrt(|log(n^alpha)|) - 2, 0)."""
    _check_alpha(alpha)
    if n < 1:
        raise ValidationError("n must be >= 1")
    return max(2.0 * math.sqrt(abs(alpha * math.log(n))) - 2.0, 0.0)


def schedule_kappa(n: int, alpha: float, c: float) -> float:
    """kappa(n) = max(sqrt(|log(n^alpha)|)/C - 1, 0)."""
    _check_alpha(alpha)
    if not c > 0.0:
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
    ``delta`` the rate split used in the joint speed condition.  The noise
    family's area rate f_n is not part of the schedule (``check_hfn``).
    The constructor checks the theorem's p >= 2 and p > d and stores
    ``base_norm`` = ||base||_p.
    """

    base: DriftField
    p: float
    generator: Callable[[int], DriftField]
    bound: Callable[[int], float]
    delta: float
    name: str = "sequence"
    base_norm: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if not (self.p >= 2.0 and self.p > self.base.dim):
            raise ValidationError(f"p={self.p:g} must satisfy p >= 2 and p > d={self.base.dim}")
        object.__setattr__(self, "base_norm", lp_norm(self.base, self.p))

    def check_member(self, n: int) -> bool:
        """Does b_n's declared C^1 norm respect the h(n)-bound, to a relative 1e-9?"""
        return self.generator(n).c1_norm <= self.bound(n) * self.base_norm * (1.0 + 1e-9)


def ramp_sequence(alpha: float = 0.4, p: float = 2.0, delta: float = 0.5) -> DriftApproxSequence:
    """Ramp schedule for the indicator drift: chi(n) growing like sqrt(alpha log n).

    Valid from the first n with chi(n) > 0 (n > e^{1/alpha}).
    """
    _check_alpha(alpha)
    base = indicator_drift()
    return DriftApproxSequence(
        base=base,
        p=p,
        generator=lambda n: ramp_approximation(schedule_chi(n, alpha)),
        bound=lambda n: (schedule_chi(n, alpha) + 2.0) / 2.0,
        delta=delta,
        name=f"ramp[alpha={alpha:g}]",
    )


def mollified_sequence(alpha: float = 0.4, p: float = 2.0, delta: float = 0.5) -> DriftApproxSequence:
    """Mollification schedule for the indicator: kappa(n) = sqrt(alpha log n)/C - 1.

    C is the measured constant with C^1-norm(b_kappa) <= C (kappa + 1); for
    the indicator, sup|b_kappa| <= 1 and sup|b_kappa'| = sqrt(kappa/2pi),
    and C = 1.1 covers every kappa > 0 (measured here on a kappa grid).
    """
    _check_alpha(alpha)
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
        delta=delta,
        name=f"mollified[alpha={alpha:g}]",
    )


# ---------------------------------------------------------------------------
# joint speed condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedConditionReport:
    """log of e^{h(n)^2 B^2} (f_n^2 + (1 + h(n)^2 B^2) n^{delta-1}) along n_list, f_n taken as 0."""

    n_list: tuple[int, ...]
    log_values: np.ndarray
    converging: bool
    tail_decreasing: bool


def check_hfn(seq: DriftApproxSequence, n_list: Sequence[int]) -> SpeedConditionReport:
    """Evaluate the joint noise/drift speed expression along n_list.

    The verdict is advisory: ``converging`` means the last value dropped
    below both the first value and 1; the report never blocks a
    run.  The noise family's area rate f_n is taken as 0 (it is not
    measured), so the values leave it out.  Computed in log space so
    diverging schedules report inf instead of overflowing.
    """
    if len(n_list) == 0:
        raise ValidationError("n_list must be nonempty")
    n_arr = np.asarray(sorted(int(n) for n in n_list), dtype=float)
    h = np.array([seq.bound(int(n)) for n in n_arr])
    hb2 = (h * seq.base_norm) ** 2
    logv = hb2 + np.log((1.0 + hb2) * n_arr ** (seq.delta - 1.0))
    converging = bool(logv[-1] < logv[0] and logv[-1] < 0.0)
    tail_decreasing = bool(len(logv) < 2 or logv[-1] < logv[-2])
    return SpeedConditionReport(tuple(int(n) for n in n_arr), logv, converging, tail_decreasing)


# ---------------------------------------------------------------------------
# correction drift
# ---------------------------------------------------------------------------


def correction_drift_batch(sigma: DiffusionField, c: CorrectionMatrix, x: np.ndarray,
                           sig_vals: np.ndarray | None = None) -> np.ndarray:
    """Correction drift at a batch x (m, d); ``sig_vals`` is sigma at x if known.

    For a field with scalar forms the sum reduces to c_kk s(x_k) s'(x_k),
    and ``sig_vals`` is the diagonal s(x) (m, d); otherwise it is the
    matrix sigma(x) (m, d, d).
    """
    if sigma.scalar is not None:
        s = sigma.scalar(x) if sig_vals is None else sig_vals
        return c.matrix.diagonal() * s * sigma.scalar_grad(x)
    sig = sigma.sigma(x) if sig_vals is None else sig_vals
    dsig = sigma.grad(x)
    return np.einsum("ij,mil,mjkl->mk", c.matrix, sig, dsig)
