"""Wong-Zakai co-simulation of SDEs with singular drift.

Builds smoothed Brownian noise families, estimates their correction
coefficients, co-simulates the corrected Ito SDE against the smoothed
random ODE on shared noise, and runs the Monte Carlo harnesses (rates,
stability, tube probabilities, Girsanov weights) behind the ``wzsim`` CLI.
"""

__version__ = "0.1.0"

from .coeffs import (
    CorrectionMatrix,
    DiffusionField,
    DriftApproxSequence,
    DriftField,
    check_hfn,
    lp_distance,
    lp_norm,
    mollified_sequence,
    ramp_approximation,
    ramp_sequence,
    schedule_chi,
    schedule_kappa,
)
from .core import (
    Path,
    RngStream,
    TimeGrid,
    ValidationError,
    make_grid,
    sample_brownian_batch,
)
from .experiments import (
    GirsanovReport,
    RateReport,
    StabilityReport,
    TubeReport,
    fit_rate,
    girsanov_mean,
    mc_mean_sup_error,
    rate_sweep,
    stability_sweep,
    tube_ladder,
)
from .noise import (
    CoefficientMatrix,
    McShane,
    Mollified,
    NoiseFamily,
    PiecewiseShape,
    block_layout,
    check_moment_condition,
    estimate_c,
    estimate_s,
)
from .registry import get_kernel, get_shape
from .shapes import MollifierKernel, ShapeFunction
from .solvers import Model, solve_ito_corrected

__all__ = [name for name in dir() if not name.startswith("_")]
