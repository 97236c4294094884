"""NaN and +-inf in every numeric input: each is a ValidationError, never a silent NaN.

A check written as ``value > bound: raise`` lets NaN through, since every
comparison with NaN is false; this sweep feeds NaN and +-inf to every
numeric parameter of every registry builder and to the value types the
builders and estimators take.
"""

import inspect
import math

import numpy as np
import pytest

from wzsim import registry
from wzsim.coeffs import CorrectionMatrix
from wzsim.core import Path, RngStream, TimeGrid, ValidationError, make_grid
from wzsim.experiments import make_target, tube_ladder
from wzsim.shapes import MollifierKernel, ShapeFunction
from wzsim.solvers import Model

BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}

TABLES = {"drift": registry.DRIFTS, "diffusion": registry.DIFFUSIONS, "sequence": registry.SEQUENCES,
          "family": registry.FAMILIES, "shape": registry.SHAPES, "kernel": registry.KERNELS}
# valid values for the parameters without a default, and the piecewise family's power shape
REQUIRED = {("drift", "const"): {"v": 1.0}, ("drift", "ramp"): {"chi": 5.0},
            ("drift", "mollified"): {"kappa": 2.0}, ("shape", "power"): {"k": 2.0},
            ("family", "piecewise"): {"shape": "power", "k": 2.0}}


def _valid_params(kind, name):
    params = {k: p.default for k, p in inspect.signature(TABLES[kind][name]).parameters.items()
              if p.default is not inspect.Parameter.empty}
    return {**params, **REQUIRED.get((kind, name), {})}


BUILDER_PARAMS = [(kind, name, key) for kind, table in TABLES.items() for name in table
                  for key, v in _valid_params(kind, name).items()
                  if isinstance(v, (int, float)) and not isinstance(v, bool)]


def test_the_sweep_reaches_every_builder_from_valid_parameters():
    for kind, table in TABLES.items():
        for name in table:
            registry._build(kind, name, table, _valid_params(kind, name))
    assert len(BUILDER_PARAMS) == 23
    assert {("drift", "const", "d"), ("sequence", "ramp", "alpha"), ("family", "piecewise", "k"),
            ("shape", "power", "k")} <= set(BUILDER_PARAMS)


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("kind,name,key", BUILDER_PARAMS, ids=["-".join(p) for p in BUILDER_PARAMS])
def test_a_non_finite_builder_parameter_is_rejected(kind, name, key, bad):
    with pytest.raises(ValidationError):
        registry._build(kind, name, TABLES[kind], {**_valid_params(kind, name), key: BAD[bad]})


# the shape and kernel of x compute inf * 0 at x = +-inf; numpy's warning
# on it is silenced in them, and not in the checks that read their values


def _shape(x):
    """f(u) = u + x u (1 - u): a valid shape for every finite x."""
    def value(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            return u * (1.0 + x * (1.0 - u))

    def deriv(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            return 1.0 + x * (1.0 - 2.0 * u)

    return ShapeFunction(value, deriv)


def _kernel(x):
    """rho(u) = (1 - cos 2 pi u)(1 + x sin 2 pi u): unit mass for every x, nonnegative for |x| <= 1."""
    def value(u):
        a = 2.0 * np.pi * np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            return (1.0 - np.cos(a)) * (1.0 + x * np.sin(a))

    def deriv(u):
        a = 2.0 * np.pi * np.asarray(u, dtype=float)
        with np.errstate(invalid="ignore"):
            return 2.0 * np.pi * (np.sin(a) * (1.0 + x * np.sin(a)) + (1.0 - np.cos(a)) * x * np.cos(a))

    return MollifierKernel(value, deriv)


def _model(x0):
    return Model(registry.zero_drift(), registry.identity_diffusion(), CorrectionMatrix.half_identity(1),
                 x0, make_grid(1.0, 64))


def _tube(values):
    """A one-target tube ladder around the path of the given node values, started at 0."""
    grid = make_grid(1.0, 64)
    return tube_ladder(_model(0.0), [Path(grid, values)], [0.5], 100, RngStream(0, 0))


GRID_NODES = make_grid(1.0, 64).nodes()

# one valid value of each type at x = 0.5, built from the non-finite x instead
VALUE_TYPES = {
    "correction_matrix": lambda x: CorrectionMatrix([[x]]),
    # at x = nan this is [[0, nan], [nan, 0]]
    "area_matrix": lambda x: CorrectionMatrix.from_area_matrix([[0.0, x], [-x, 0.0]]),
    "shape": _shape,
    "kernel": _kernel,
    "model_x0": _model,
    "grid_horizon": lambda x: TimeGrid(x, 64),
    "grid_steps": lambda x: TimeGrid(1.0, 64 * x / 0.5),
    "target_x0": lambda x: make_target("sine", make_grid(1.0, 64), x),
    "tube_target_node": lambda x: _tube(np.where(GRID_NODES == 0.5, x, 0.0)),
    "tube_target_start": lambda x: _tube(np.where(GRID_NODES == 0.0, x - 0.5, 0.0)),
}


@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_each_value_type_accepts_its_finite_value(kind):
    VALUE_TYPES[kind](0.5)


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("kind", sorted(VALUE_TYPES))
def test_a_non_finite_value_is_rejected(monkeypatch, kind, bad):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was simulated before the input was checked")

    monkeypatch.setattr("wzsim.experiments.em_batch", unreachable)
    with pytest.raises(ValidationError):
        VALUE_TYPES[kind](BAD[bad])
