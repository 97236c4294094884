"""Named coefficient fields, drift schedules, noise families, shapes and kernels.

Every name a run config can give is looked up here, in one table per kind
(``DRIFTS``, ``DIFFUSIONS``, ``SEQUENCES``, ``FAMILIES``, ``SHAPES``,
``KERNELS``), and built by ``_build``: an unknown name, or a parameter the
builder does not take or needs and lacks, raises ValidationError naming it.
Each spec default is written once, in its builder's signature.  Each registry
field is defined once, as a vectorized numpy closed form that both solvers
evaluate directly; a schedule's level-n drift is reached only through its
sequence.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .core import ValidationError
from .coeffs import (
    DiffusionField,
    DriftApproxSequence,
    DriftField,
    indicator_drift,
    mollified_indicator,
    mollified_sequence,
    ramp_approximation,
    ramp_sequence,
)
from .noise import McShane, Mollified, NoiseFamily, PiecewiseShape
from .shapes import KERNELS, SHAPES, MollifierKernel, ShapeFunction


# Per Euler step at batch size 1, zeros(shape) or empty + fill take 0.25-0.45 us and *_like 1.1-1.4 us.
def _filled(x: np.ndarray, v: float) -> np.ndarray:
    """A float64 array of x's shape filled with v."""
    out = np.empty(x.shape)
    out.fill(v)
    return out


def _dim(d: int) -> int:
    """d as an int; ValidationError unless it is a positive integer."""
    if not 1 <= d < math.inf or d != int(d):
        raise ValidationError(f"dimension d = {d} must be a positive integer")
    return int(d)


def zero_drift(d: int = 1) -> DriftField:
    return DriftField(dim=_dim(d), fn=lambda x: np.zeros(x.shape),
                      support_radius=1.0, sup_value=0.0, sup_grad=0.0, name="zero")


def const_drift(v: float, d: int = 1) -> DriftField:
    if not math.isfinite(v):
        raise ValidationError(f"const drift value {v} must be finite")
    return DriftField(dim=_dim(d), fn=lambda x: _filled(x, v),
                      sup_value=abs(v), sup_grad=0.0, name=f"const[{v:g}]")


def gaussian_bump_drift(amp: float = 1.0, width: float = 1.0) -> DriftField:
    """b(x) = amp * exp(-x^2 / 2 width^2); unbounded support, analytic L^p norm."""
    if not (math.isfinite(amp) and 0.0 < width < math.inf):
        raise ValidationError(f"gaussian_bump needs a finite amp and a positive finite width, "
                              f"got {amp}, {width}")

    def fn(x, a=amp, w=width):
        x = np.asarray(x, dtype=float)
        return a * np.exp(-(x * x) / (2.0 * w * w))

    def norm(p, a=amp, w=width):
        return abs(a) * (w * math.sqrt(2.0 * math.pi / p)) ** (1.0 / p)

    return DriftField(dim=1, fn=fn, support_radius=np.inf,
                      sup_value=abs(amp), sup_grad=abs(amp) * math.exp(-0.5) / width,
                      lp_norm_fn=norm, name=f"gaussian_bump[{amp:g},{width:g}]")


def sin_bump_drift(radius: float = 5.0) -> DriftField:
    """b(x) = sin(x) * exp(1 - 1/(1 - (x/radius)^2)) inside |x| < radius, else 0.

    Smooth, compactly supported, C^1 bounds measured once on a fine grid.
    """
    if not 0.0 < radius < math.inf:
        raise ValidationError(f"radius = {radius} must be positive and finite")

    def fn(x, r=radius):
        x = np.asarray(x, dtype=float)
        u = x / r
        out = np.zeros_like(x)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.sin(x[inside]) * np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    xs = np.linspace(-radius, radius, 1 << 14)[:, None]
    vals = fn(xs).ravel()
    sup_v = float(np.max(np.abs(vals)))
    sup_g = float(np.max(np.abs(np.diff(vals))) / (2 * radius / (1 << 14)))
    return DriftField(dim=1, fn=fn, support_radius=radius,
                      sup_value=sup_v, sup_grad=sup_g * 1.01, name=f"sin_bump[{radius:g}]")


def _diag_field(s, ds, d, **meta) -> DiffusionField:
    """The diagonal field diag(s(x_i)): its scalar forms s, s' and their matrix lifts."""
    d = _dim(d)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        m = x.shape[0]
        out = np.zeros((m, d, d))
        idx = np.arange(d)
        out[:, idx, idx] = s(x)
        return out

    def grad(x):
        x = np.asarray(x, dtype=float)
        m = x.shape[0]
        out = np.zeros((m, d, d, d))
        idx = np.arange(d)
        out[:, idx, idx, idx] = ds(x)
        return out

    return DiffusionField(dim=d, sigma=sigma, grad=grad, scalar=s, scalar_grad=ds, **meta)


def const_diffusion(s0: float = 1.0, d: int = 1) -> DiffusionField:
    if not 0.0 < s0 < math.inf:
        raise ValidationError(f"s0 = {s0} must be positive and finite")
    k = max(s0 * s0, 1.0 / (s0 * s0))
    return _diag_field(lambda x: _filled(x, s0), lambda x: np.zeros(x.shape), d,
                       ellipticity=k, name=f"const[{s0:g}]" if s0 != 1.0 else "identity")


def identity_diffusion(d: int = 1) -> DiffusionField:
    return const_diffusion(1.0, d)


def sin_elliptic_diffusion(a: float = 1.0, b: float = 0.5, d: int = 1) -> DiffusionField:
    """sigma(x) = diag(a + b sin x_i); uniformly elliptic when a > |b|."""
    if not abs(b) < a < math.inf:
        raise ValidationError("sin_elliptic needs a finite a > |b| for uniform ellipticity")
    lo, hi = (a - abs(b)) ** 2, (a + abs(b)) ** 2
    k = max(hi, 1.0 / lo)
    return _diag_field(lambda x: a + b * np.sin(x), lambda x: b * np.cos(x), d,
                       ellipticity=k, name=f"sin_elliptic[{a:g},{b:g}]")


def linear_diffusion(d: int = 1) -> DiffusionField:
    """sigma(x) = diag(x_i).  Degenerate at 0: oracle-only, ellipticity K = inf."""
    return _diag_field(lambda x: x, lambda x: _filled(x, 1.0), d, ellipticity=np.inf, name="linear")


DRIFTS = {
    "zero": zero_drift,
    "const": const_drift,
    "indicator01": indicator_drift,
    "ramp": ramp_approximation,
    "mollified": mollified_indicator,
    "gaussian_bump": gaussian_bump_drift,
    "sin_bump": sin_bump_drift,
}

DIFFUSIONS = {
    "identity": identity_diffusion,
    "const": const_diffusion,
    "sin_elliptic": sin_elliptic_diffusion,
    "linear": linear_diffusion,
}

SEQUENCES = {
    "ramp": ramp_sequence,
    "mollified": mollified_sequence,
}


def _build(kind: str, name: str, table: dict, params: dict):
    """table[name](**params); an unknown name, or a parameter the builder does not
    take or needs and lacks, raises ValidationError naming it.

    A builder that takes ``**params`` checks the parameters it passes on itself.
    """
    try:
        builder = table[name]
    except KeyError:
        raise ValidationError(f"unknown {kind} '{name}'; known: {sorted(table)}") from None
    try:
        inspect.signature(builder).bind(**params)
    except TypeError as e:
        raise ValidationError(f"{kind} '{name}': {e}") from None
    return builder(**params)


def _piecewise(shape: str = "linear", **shape_params) -> NoiseFamily:
    return PiecewiseShape(get_shape(shape, **shape_params))


def _mollified(kernel: str = "bump") -> NoiseFamily:
    return Mollified(get_kernel(kernel))


def _mcshane(f1: str = "linear", f2: str = "quadratic") -> NoiseFamily:
    return McShane(get_shape(f1), get_shape(f2))


FAMILIES = {
    "piecewise": _piecewise,
    "mollified": _mollified,
    "mcshane": _mcshane,
}


def get_drift(name: str, /, **params) -> DriftField:
    return _build("drift", name, DRIFTS, params)


def get_diffusion(name: str, /, **params) -> DiffusionField:
    return _build("diffusion", name, DIFFUSIONS, params)


def get_sequence(name: str, p: float, /, **params) -> DriftApproxSequence:
    """The named schedule of the indicator drift at L^p exponent p; the caller sets p."""
    if "p" in params:
        raise ValidationError(f"sequence '{name}': 'p' is not a spec parameter; set it in [params]")
    return _build("sequence", name, SEQUENCES, {**params, "p": p})


def get_family(name: str, /, **params) -> NoiseFamily:
    return _build("family", name, FAMILIES, params)


def get_shape(name: str, /, **params) -> ShapeFunction:
    return _build("shape", name, SHAPES, params)


def get_kernel(name: str, /, **params) -> MollifierKernel:
    return _build("kernel", name, KERNELS, params)
