"""Shape functions on [0,1] and mollifier kernels used by the noise families.

A shape function f is continuously differentiable with f(0) = 0, f(1) = 1;
each block of a blockwise noise approximation interpolates the Brownian
increment with one of these.  A mollifier kernel rho is a nonnegative
function on [0,1] with unit integral; the smoothed-path family convolves
the Brownian path with rho_n(s) = n * rho(n s).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidationError


@dataclass(frozen=True)
class ShapeFunction:
    """C^1 function on [0,1] with f(0)=0, f(1)=1, given as (value, derivative)."""

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    name: str = "shape"

    def __post_init__(self):
        f0 = float(self.value(np.array(0.0)))
        f1 = float(self.value(np.array(1.0)))
        # every check is written so that a NaN fails it
        if not (abs(f0) <= 1e-12 and abs(f1 - 1.0) <= 1e-12):
            raise ValidationError(
                f"shape '{self.name}' must satisfy f(0)=0, f(1)=1; got f(0)={f0}, f(1)={f1}"
            )
        # derivative consistent with value by central differences
        u = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (self.value(u + h) - self.value(u - h)) / (2 * h)
        if not np.max(np.abs(fd - self.deriv(u))) <= 1e-6 * max(1.0, np.max(np.abs(self.deriv(u)))):
            raise ValidationError(f"shape '{self.name}': derivative inconsistent with value")


def linear_shape() -> ShapeFunction:
    return ShapeFunction(lambda u: np.asarray(u, dtype=float),
                         lambda u: np.ones_like(np.asarray(u, dtype=float)),
                         name="linear")


def power_shape(k: float) -> ShapeFunction:
    if not 1.0 <= k < np.inf:
        raise ValidationError(f"power shape needs a finite exponent >= 1 for a C^1 function on [0,1], "
                              f"got {k}")
    return ShapeFunction(lambda u, k=k: np.asarray(u, dtype=float) ** k,
                         lambda u, k=k: k * np.asarray(u, dtype=float) ** (k - 1),
                         name=f"power{k:g}")


def smoothstep_shape() -> ShapeFunction:
    """f(u) = 3u^2 - 2u^3; flat at both endpoints."""
    return ShapeFunction(lambda u: (3.0 - 2.0 * np.asarray(u, dtype=float)) * np.asarray(u, dtype=float) ** 2,
                         lambda u: 6.0 * np.asarray(u, dtype=float) * (1.0 - np.asarray(u, dtype=float)),
                         name="smoothstep")


SHAPES: dict[str, Callable[..., ShapeFunction]] = {
    "linear": linear_shape,
    "quadratic": lambda: power_shape(2.0),
    "cubic": lambda: power_shape(3.0),
    "smoothstep": smoothstep_shape,
    "power": power_shape,
}


@dataclass(frozen=True)
class MollifierKernel:
    """Nonnegative kernel on [0,1] with unit integral, as (value, derivative).

    Kernels must vanish at both endpoints: the analytic derivative of the
    smoothed path integrates rho' by parts, and the boundary terms are
    dropped.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    name: str = "kernel"

    def __post_init__(self):
        u, w = _gl_composite(cells=64, order=8)
        vals = self.value(u)
        # every check is written so that a NaN fails it
        if not np.all((vals >= -1e-14) & (vals < np.inf)):
            raise ValidationError(f"kernel '{self.name}' is negative or not finite at a quadrature node")
        mass = float(np.dot(w, vals))
        if not abs(mass - 1.0) <= 1e-8:
            raise ValidationError(f"kernel '{self.name}': integral is {mass}, expected 1")
        if not (abs(float(self.value(np.array(0.0)))) <= 1e-12
                and abs(float(self.value(np.array(1.0)))) <= 1e-12):
            raise ValidationError(f"kernel '{self.name}' must vanish at 0 and 1")


@functools.cache
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0,1], ``order`` points, read-only as every caller shares them.

    An eigenvalue solve, made on first use, once per order and process, so
    a run that integrates nothing neither imports ``numpy.polynomial`` nor
    calls LAPACK.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_composite(cells: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0,1]: ``cells`` cells, ``order`` points each."""
    x, w = _gl_rule(order)
    h = 1.0 / cells
    nodes = (np.arange(cells)[:, None] * h + x[None, :] * h).ravel()
    weights = np.broadcast_to(w[None, :] * h, (cells, order)).ravel()
    return nodes, weights


def bump_kernel() -> MollifierKernel:
    """The standard C-infinity bump exp(-1/(u(1-u))) on (0,1), normalized."""
    def raw(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            return np.where((u > 0.0) & (u < 1.0), np.exp(-1.0 / (u * (1.0 - u))), 0.0)

    nodes, weights = _gl_composite(cells=64, order=8)
    z = float(np.dot(weights, raw(nodes)))

    def value(u, z=z):
        return raw(u) / z

    def deriv(u, z=z):
        u = np.asarray(u, dtype=float)
        with np.errstate(all="ignore"):
            g = u * (1.0 - u)
            return np.where((u > 1e-12) & (u < 1.0 - 1e-12),
                            np.exp(-1.0 / g) * (1.0 - 2.0 * u) / (g * g) / z, 0.0)

    return MollifierKernel(value, deriv, name="bump")


def hann_kernel() -> MollifierKernel:
    """rho(u) = 1 - cos(2 pi u); unit mass in closed form, C^1 when extended by zero."""
    return MollifierKernel(
        lambda u: 1.0 - np.cos(2.0 * np.pi * np.asarray(u, dtype=float)),
        lambda u: 2.0 * np.pi * np.sin(2.0 * np.pi * np.asarray(u, dtype=float)),
        name="hann",
    )


KERNELS: dict[str, Callable[[], MollifierKernel]] = {
    "bump": bump_kernel,
    "hann": hann_kernel,
}

