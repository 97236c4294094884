import dataclasses

import numpy as np
import pytest

from wzsim import solvers
from wzsim.coeffs import CorrectionMatrix, DriftField, mollified_indicator, ramp_approximation, ramp_sequence
from wzsim.core import Path, RngStream, ValidationError, make_grid, sample_brownian_batch, sup_distance_values
from wzsim.noise import Mollified, PiecewiseShape, block_layout
from wzsim.registry import (
    const_diffusion,
    const_drift,
    gaussian_bump_drift,
    get_diffusion,
    indicator_drift,
    linear_diffusion,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)
from wzsim.shapes import bump_kernel, linear_shape
from wzsim.solvers import (
    Model,
    coupled_batch,
    em_batch,
    rk4_batch,
    solve_ito_corrected,
)

HALF = CorrectionMatrix.half_identity(1)
LIN = PiecewiseShape(linear_shape())


def _brownian(g, d, stream):
    """The Brownian path of ``stream``: row 0 of a one-path batch."""
    return Path(g, sample_brownian_batch(g, d, stream, 1)[0])


def test_additive_noise_is_exact():
    w = _brownian(make_grid(1.0, 512), 1, RngStream(1, 0))
    x = solve_ito_corrected(zero_drift(), const_diffusion(2.0), HALF, 0.3, w)
    assert np.max(np.abs(x.values[:, 0] - (0.3 + 2.0 * w.values[:, 0]))) < 1e-12


def test_zero_noise_constant_sigma_keeps_state():
    g = make_grid(1.0, 128)
    w = Path(g, np.zeros((129, 1)))
    x = solve_ito_corrected(zero_drift(), const_diffusion(1.0), HALF, 0.7, w)
    assert np.all(x.values == 0.7)


def _geometric_terminals(g, seed, count):
    """Terminal states of dX = X o dW from x0 = 1 for paths RngStream(seed, i), i < count.

    The paths are integrated in one batch; path 0 is also integrated alone
    through solve_ito_corrected, which must give the same values.
    """
    w = sample_brownian_batch(g, 1, RngStream(seed, 0), count)
    x, status = em_batch(zero_drift(), linear_diffusion(), HALF, np.ones((count, 1)),
                         np.diff(w, axis=1), g.dt)
    assert np.all(status == 0)
    single = solve_ito_corrected(zero_drift(), linear_diffusion(), HALF, 1.0, Path(g, w[0]))
    assert np.array_equal(single.values, x[0])
    return x[:, -1, 0], w[:, -1, 0]


def test_geometric_oracle_em():
    # corrected equation with sigma(x) = x and c = 1/2 is dX = X/2 dt + X dW,
    # whose strong solution is x0 exp(W_t)
    x_t, w_t = _geometric_terminals(make_grid(1.0, 1 << 14), 404, 300)
    oracle = np.exp(w_t)
    rms = float(np.sqrt(np.mean(np.square((x_t - oracle) / oracle))))
    assert rms < 1e-2


def test_refining_the_grid_halves_the_squared_error():
    # strong order 1/2: doubling the step count scales the terminal RMS by
    # ~1/sqrt(2); tolerance brackets a factor-2 slack either way
    rms = {}
    for steps in (1 << 10, 1 << 11):
        x_t, w_t = _geometric_terminals(make_grid(1.0, steps), 708, 1000)
        rms[steps] = float(np.sqrt(np.mean(np.square(x_t - np.exp(w_t)))))
    factor = rms[1 << 11] / rms[1 << 10]
    assert 0.5 / np.sqrt(2) <= factor <= 2.0 / np.sqrt(2)


def test_d2_runs_through_the_numpy_route():
    d2 = sample_brownian_batch(make_grid(1.0, 8), 2, RngStream(1, 0), 2)
    v, s = em_batch(zero_drift(), const_diffusion(1.0, d=2), CorrectionMatrix.half_identity(2),
                    np.zeros((2, 2)), np.diff(d2, axis=1), 1.0 / 8)
    assert v.shape == (2, 9, 2)
    assert np.all(s == 0)
    assert np.allclose(v[:, 1:], d2[:, 1:], atol=1e-12)


# Both routes of a diagonal field: the elementwise one (the field carries its
# scalar forms) against the full-matrix one (the same field without them)
ROUTE_FIELDS = [("identity", {}), ("const", {"s0": 1.7}), ("sin_elliptic", {}), ("linear", {})]
SKEW = CorrectionMatrix(np.array([[0.5, 0.3], [-0.3, 0.5]]))
ROUTE_SOLVES = [(d, solve) for d in (1, 2)
                for solve in ("em_half", "em_skew", "rk4") if d == 2 or solve != "em_skew"]


def _both_routes(sigma, d, solve, scale=1.0, paths=16, steps=64):
    """(values, status) of the elementwise and the full-matrix route on the same noise."""
    grid = make_grid(1.0, steps)
    gen = RngStream(12, d).generator()
    x0 = np.linspace(-2.0, 2.0, paths * d).reshape(paths, d)
    matrix_only = dataclasses.replace(sigma, scalar=None, scalar_grad=None)
    if solve == "rk4":
        v = scale / np.sqrt(grid.dt) * gen.standard_normal((paths, steps, 3, d))
        return [rk4_batch(sin_bump_drift(), f, x0, v, grid.dt) for f in (sigma, matrix_only)]
    c = SKEW if solve == "em_skew" else CorrectionMatrix.half_identity(d)
    dw = scale * np.sqrt(grid.dt) * gen.standard_normal((paths, steps, d))
    return [em_batch(sin_bump_drift(), f, c, x0, dw, grid.dt) for f in (sigma, matrix_only)]


@pytest.mark.parametrize("d,solve", ROUTE_SOLVES)
@pytest.mark.parametrize("name,params", ROUTE_FIELDS, ids=[n for n, _ in ROUTE_FIELDS])
def test_elementwise_and_matrix_routes_agree_bit_for_bit(name, params, d, solve):
    sigma = get_diffusion(name, d=d, **params)
    assert sigma.scalar is not None
    (v1, s1), (v2, s2) = _both_routes(sigma, d, solve)
    assert np.array_equal(v1, v2, equal_nan=True)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("solve", ["em_skew", "rk4"])
def test_abort_check_gives_the_same_status_and_nan_tail_on_both_routes(solve):
    # sigma(x) = x under strong noise: a path aborts at the first step whose
    # state leaves [-1e12, 1e12]; every state before it is finite and inside
    (v1, s1), (v2, s2) = _both_routes(get_diffusion("linear", d=2), 2, solve, scale=22.0)
    assert np.array_equal(v1, v2, equal_nan=True)
    assert np.array_equal(s1, s2)
    assert 0 < np.count_nonzero(s1) < s1.size
    for vals, k in zip(v1, s1):
        stop = k if k else len(vals)
        assert np.all(np.abs(vals[:stop]) <= solvers.OVERFLOW_LIMIT)
        assert np.all(np.isnan(vals[stop:]))


@pytest.mark.parametrize("solve", ["em", "rk4"])
def test_abort_pass_flags_the_first_step_of_a_path_that_comes_back(solve):
    # zero drift, unit additive noise, x0 = 0 and step length 1: the state is
    # the running sum of the kicks.  Row 1 leaves [-1e12, 1e12] at step 3, is
    # back inside at step 5, leaves again (second component) at step 8 and is
    # back at step 9; row 2 leaves at step 6 and stays out; rows 0 and 3 stay
    # in; row 4 leaves on its last kick only, so only its last node is NaN
    steps, d = 12, 2
    kicks = np.zeros((5, steps, d))
    kicks[0] = np.arange(steps * d).reshape(steps, d) % 5 - 2.0
    kicks[1, 2, 0], kicks[1, 4, 0] = 3e12, -3e12
    kicks[1, 7, 1], kicks[1, 8, 1] = -2e12, 2e12
    kicks[2, 5, 1] = 5e12
    kicks[3] = 8e10
    kicks[4, -1, 0] = -2e12
    sigma = const_diffusion(1.0, d=2)
    if solve == "em":
        vals, status = em_batch(zero_drift(2), sigma, CorrectionMatrix.half_identity(2),
                                np.zeros(d), kicks, 1.0)
    else:
        stages = np.repeat(kicks[:, :, None, :], 3, axis=2)
        vals, status = rk4_batch(zero_drift(2), sigma, np.zeros(d), stages, 1.0)
    assert status.tolist() == [0, 3, 6, 0, steps]
    path = np.concatenate([np.zeros((5, 1, d)), np.cumsum(kicks, axis=1)], axis=1)
    for row, k in enumerate(status):
        stop = k if k else steps + 1
        assert np.array_equal(vals[row, :stop], path[row, :stop])
        assert np.all(np.isnan(vals[row, stop:]))


def test_overflow_aborts_with_diagnostic():
    # the drift carries the path past 1e12 at some step k >= 1: finite before k, NaN from k on
    w = _brownian(make_grid(1.0, 64), 1, RngStream(2, 0))
    huge = const_drift(1e13)
    bad = np.isnan(solve_ito_corrected(huge, const_diffusion(1.0), HALF, 0.0, w).values[:, 0])
    k = int(np.argmax(bad))
    assert k >= 1
    assert np.all(bad[k:]) and not np.any(bad[:k])


def test_x0_dimension_checked():
    w = _brownian(make_grid(1.0, 16), 1, RngStream(3, 0))
    with pytest.raises(ValidationError):
        solve_ito_corrected(zero_drift(), const_diffusion(1.0), HALF, [0.0, 1.0], w)


# ---------------------------------------------------------------------------
# random ODE
# ---------------------------------------------------------------------------


def _block_positions(t, n, blocks):
    """Block positions (k, u) of times t in [0, blocks/n]; the end time is (blocks - 1, 1)."""
    k = np.clip(np.floor(t * n).astype(np.int64), 0, blocks - 1)
    return k, t * n - k


def _level_batch(n, family=LIN, steps=512):
    """The Brownian path of RngStream(9, 1) on ``steps`` cells as a one-path batch, and
    its level-n (blocks, msub)."""
    g = make_grid(1.0, steps)
    return sample_brownian_batch(g, 1, RngStream(9, 1), 1), block_layout(family, g, n, 1)


def _random_ode(b_n, sigma, x0, m_ode, family=LIN, n=32):
    """RK4 path of dx/ds = b_n(x) + sigma(x) dW^n/ds, m_ode steps per block, on
    ``_level_batch``: the step times, the step values and W^n at the step times."""
    w, (blocks, msub) = _level_batch(n, family)
    vst = solvers._stage_derivs(family, w, n, msub, blocks, m_ode)
    xs, status = rk4_batch(b_n, sigma, np.array([[x0]]), vst, 1.0 / (n * m_ode))
    assert status[0] == 0
    t = make_grid(blocks / n, blocks * m_ode).nodes()
    wn = family.batch_values(w, n, msub, *_block_positions(t, n, blocks))
    return t, xs[0, :, 0], wn[0, :, 0]


def _zero_sigma():
    from wzsim.coeffs import DiffusionField

    return DiffusionField(dim=1,
                          sigma=lambda x: np.zeros((x.shape[0], 1, 1)),
                          grad=lambda x: np.zeros((x.shape[0], 1, 1, 1)),
                          ellipticity=np.inf,
                          name="zero_sigma")


def test_ode_constant_drift_no_noise():
    t, x, _ = _random_ode(const_drift(1.7), _zero_sigma(), 0.2, m_ode=8)
    assert np.max(np.abs(x - (0.2 + 1.7 * t))) < 1e-10


def test_ode_additive_noise_reproduces_the_smoothed_path():
    _, x, wn = _random_ode(zero_drift(), const_diffusion(3.0), 0.5, m_ode=8)
    assert np.max(np.abs(x - (0.5 + 3.0 * (wn - wn[0])))) < 1e-8


@pytest.mark.parametrize("family,tol", [(LIN, 1e-6), (Mollified(bump_kernel()), 1e-5)])
def test_ode_exponential_oracle(family, tol):
    # the mollified driver is sharply peaked (bump kernel), which costs the
    # one-step integrator about a digit relative to the polygonal driver
    _, x, wn = _random_ode(zero_drift(), linear_diffusion(), 1.0, m_ode=16, family=family)
    oracle = np.exp(wn - wn[0])
    assert np.max(np.abs(x / oracle - 1.0)) < tol


def test_kink_alignment_two_half_windows_equal_one():
    # blocks 2..3 in one run, and block 2 then block 3 restarted from its end value
    w, (blocks, msub) = _level_batch(8)
    b, sigma, m_ode = sin_bump_drift(), sin_elliptic_diffusion(), 8
    vst = solvers._stage_derivs(LIN, w, 8, msub, blocks, m_ode)
    h = 1.0 / (8 * m_ode)
    full, _ = rk4_batch(b, sigma, np.array([[0.4]]), vst[:, 2 * m_ode:4 * m_ode], h)
    first, _ = rk4_batch(b, sigma, np.array([[0.4]]), vst[:, 2 * m_ode:3 * m_ode], h)
    second, _ = rk4_batch(b, sigma, first[:, -1], vst[:, 3 * m_ode:4 * m_ode], h)
    assert abs(full[0, -1, 0] - second[0, -1, 0]) < 1e-12


def test_ode_requires_smooth_drift_metadata():
    with pytest.raises(ValidationError, match="carries no C\\^1 metadata"):
        solvers._require_c1(indicator_drift())


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------


def test_coupled_additive_error_equals_direct_computation():
    # zero drift and sigma = s0: X = s0 W and x^n = s0 W^n, so the sup error
    # is s0 sup |W - W^n| over the reference nodes
    g = make_grid(1.0, 1 << 10)
    s0 = 1.5
    sup = coupled_batch(Model(zero_drift(), const_diffusion(s0), HALF, 0.0, g), LIN,
                        [(16, zero_drift())], RngStream(5, 77), 4)
    w = sample_brownian_batch(g, 1, RngStream(5, 77), 4)
    wn = LIN.batch_values(w, 16, 64, *_block_positions(g.nodes(), 16, 16))
    direct = s0 * np.max(np.abs(w - wn)[:, :, 0], axis=1)
    assert np.max(np.abs(sup[:, 0] - direct)) < 1e-10


def test_coupled_run_is_deterministic():
    args = (Model(sin_bump_drift(), sin_elliptic_diffusion(), HALF, 0.0, make_grid(1.0, 1 << 10)), LIN,
            [(16, sin_bump_drift())], RngStream(5, 78), 2)
    assert np.array_equal(coupled_batch(*args), coupled_batch(*args))


def test_each_level_of_a_coupled_batch_equals_its_one_level_batch():
    # the levels share one Brownian sample and one Euler reference per path,
    # so each column is what a batch of that level alone returns, bit for bit;
    # the smoothed drift may differ per level
    model = Model(sin_bump_drift(), sin_elliptic_diffusion(), HALF, 0.0, make_grid(1.0, 256))
    stream = RngStream(5, 83)
    levels = [(16, sin_bump_drift()), (32, sin_bump_drift(3.0)), (64, sin_bump_drift())]
    sup = coupled_batch(model, LIN, levels, stream, 6, m_ode=8)
    assert sup.shape == (6, 3)
    for li, level in enumerate(levels):
        one = coupled_batch(model, LIN, [level], stream, 6, m_ode=8)
        assert np.array_equal(sup[:, li], one[:, 0])
    assert len(np.unique(sup[0])) == 3


def _ode_nodes_and_steps(b, sigma, n_ref, m_ode, n, x0, stream, count, m_steps):
    """The coupled route's ODE values at the reference nodes (m_ode steps per
    block), and rk4_batch's step-end values and status at m_steps steps per
    block on the same Brownian paths."""
    model = Model(b, sigma, HALF, x0, make_grid(1.0, n_ref))
    w = sample_brownian_batch(model.grid, 1, stream, count)
    xnv = solvers._level_values(model, b, LIN, w, n, block_layout(LIN, model.grid, n, 1), m_ode)
    vst = solvers._stage_derivs(LIN, w, n, n_ref // n, n, m_steps)
    xs, st_steps = rk4_batch(b, sigma, np.full((count, 1), x0), vst, 1.0 / (n * m_steps))
    return xnv, xs, st_steps


def test_aligned_reference_nodes_copy_the_step_values():
    # msub = 4 reference cells and m_ode = 8 steps per block: every reference
    # node is the end of every second step
    xnv, xs, st_steps = _ode_nodes_and_steps(sin_bump_drift(), sin_elliptic_diffusion(), 256, 8,
                                             64, 0.3, RngStream(5, 80), 8, 8)
    assert not np.any(st_steps)
    assert np.array_equal(xnv, xs[:, ::2])


def test_hermite_reference_nodes_match_a_finer_aligned_run():
    # msub = 24 reference cells against m_ode = 16 steps per block: 1.5 nodes
    # per step, and every third node is a step end
    b, sigma = sin_bump_drift(), sin_elliptic_diffusion()
    xnv, xs, st = _ode_nodes_and_steps(b, sigma, 384, 16, 16, 0.3, RngStream(5, 81), 8, 16)
    _, fine, st_fine = _ode_nodes_and_steps(b, sigma, 384, 16, 16, 0.3, RngStream(5, 81), 8, 48)
    assert not np.any(st) and not np.any(st_fine)
    assert xnv.shape == (8, 385, 1)
    assert np.array_equal(xnv[:, ::3], xs[:, ::2])
    assert np.max(np.abs(xnv - fine[:, ::2])) < 1e-6


def test_hermite_reference_nodes_are_nan_from_the_aborting_step_on():
    # sigma(x) = x from x0 = 5e11: x = x0 exp(W^n) leaves [-1e12, 1e12] once
    # W^n exceeds log 2, which about half the paths do
    n_ref, m_ode = 384, 16
    xnv, _, st = _ode_nodes_and_steps(zero_drift(), linear_diffusion(), n_ref, m_ode, 16, 5e11,
                                      RngStream(5, 82), 32, 16)
    assert 0 < np.count_nonzero(st) < st.size
    # node j lies at step position j * steps / n_ref; a path with status k
    # aborted in the step from k - 1 to k
    pos = np.arange(n_ref + 1) * (16 * m_ode)
    for vals, k in zip(xnv[:, :, 0], st):
        finite = pos <= (k - 1) * n_ref if k else pos >= 0
        assert np.all(np.isfinite(vals[finite]))
        assert np.all(np.isnan(vals[~finite]))


def test_coupled_error_shrinks_with_n_for_smooth_setup():
    b = sin_bump_drift()
    model = Model(b, sin_elliptic_diffusion(), HALF, 0.0, make_grid(1.0, 1 << 11))
    err = coupled_batch(model, LIN, [(8, b), (128, b)], RngStream(6, 1000), 20)
    assert np.all(np.isfinite(err))
    mse = np.mean(err**2, axis=0)
    assert mse[1] < mse[0]


def test_coupled_identity_coupling_is_exact_for_additive_noise():
    # n = n_ref with the polygonal family: the smoothed path hits every grid
    # node, both solvers are exact, so the coupled error vanishes
    model = Model(zero_drift(), const_diffusion(2.0), HALF, 0.0, make_grid(1.0, 256))
    sup = coupled_batch(model, LIN, [(256, zero_drift())], RngStream(7, 0), 1)
    assert sup[0, 0] < 1e-12


# (model, drift schedule or None for the model's own drift): the benchmark's
# singular rate sweep and criterion 02's smooth one, each at its n_ref
ODE_ERROR_MODELS = {
    "ramp_smoothed_indicator": (Model(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF, 0.0,
                                      make_grid(1.0, 4096)), ramp_sequence(alpha=0.4, p=2.0, delta=0.5)),
    "sin_bump": (Model(sin_bump_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF, 0.0, make_grid(1.0, 8192)),
                 None),
}


@pytest.mark.parametrize("name", sorted(ODE_ERROR_MODELS))
def test_the_default_ode_steps_err_far_below_every_level_mse(name):
    # on shared W, E sup |x^{n, M_ODE} - x^{n, 64}|^2 (the random ODE's own
    # error, dense output included) against the level's E sup |X - x^{n, M_ODE}|^2;
    # measured ratios are 1e-11 and below.  Criterion 02's levels 256 and 512
    # are left out: the ratio falls with n (2e-14, 3e-15) and they take 3 s.
    model, seq = ODE_ERROR_MODELS[name]
    w = sample_brownian_batch(model.grid, 1, RngStream(9, 0), 16)
    xv, _ = em_batch(model.drift, model.sigma, HALF, model.x0, np.diff(w, axis=1), model.grid.dt)
    for n in (16, 32, 64, 128):
        b_n = model.drift if seq is None else seq.generator(n)
        layout = block_layout(LIN, model.grid, n, 1)
        x_default = solvers._level_values(model, b_n, LIN, w, n, layout, solvers.M_ODE)
        x_fine = solvers._level_values(model, b_n, LIN, w, n, layout, 64)
        ode_error = np.mean(sup_distance_values(x_default, x_fine) ** 2)
        mse = np.mean(sup_distance_values(xv, x_default) ** 2)
        assert ode_error < 1e-8 * mse, (n, ode_error, mse)


UNDERSTATED = dataclasses.replace(ramp_approximation(6.0), sup_grad=0.01)

C1_FIELDS = {
    "zero": zero_drift(), "zero_2d": zero_drift(2), "const": const_drift(1e15),
    "ramp": ramp_approximation(6.0), "steep_ramp": ramp_approximation(1756.0),
    "mollified": mollified_indicator(25.0), "flat_mollified": mollified_indicator(1e-3),
    "gaussian_bump": gaussian_bump_drift(2.0, 0.5), "sin_bump": sin_bump_drift(),
}


@pytest.mark.parametrize("name", sorted(C1_FIELDS))
def test_declared_slope_bounds_pass_the_central_difference_check(name):
    solvers._require_c1(C1_FIELDS[name])


RAMP6 = ramp_approximation(6.0)
# a drift with unbounded support that is steepest outside |x| <= 16: the
# bump of width 100 has slope e^(-1/2)/100 = 6.07e-3 at |x| = 100
WIDE_BUMP = gaussian_bump_drift(1.0, 100.0)


@pytest.mark.parametrize("field,sup_grad,reach,accepted", [
    # the ramp's slope is chi/2 = 3: any bound below it by more than 0.1% fails
    (RAMP6, 0.01, "3", 2.999),
    (RAMP6, 2.99, "3", 2.999),
    (WIDE_BUMP, 2e-3, "0.00606", 6.07e-3),
], ids=["0.01", "2.99", "wide_bump_beyond_the_box"])
def test_an_understated_slope_bound_is_rejected(field, sup_grad, reach, accepted):
    with pytest.raises(ValidationError, match=f"central differences reach {reach}"):
        solvers._require_c1(dataclasses.replace(field, sup_grad=sup_grad))
    solvers._require_c1(dataclasses.replace(field, sup_grad=accepted))


def test_an_understated_slope_bound_is_rejected_in_two_dimensions():
    # b(x) = (sin x_2, 0): its slope is along the second axis only
    def fn(x):
        return np.stack([np.sin(x[:, 1]), np.zeros(len(x))], axis=1)

    field = DriftField(dim=2, fn=fn, support_radius=np.inf, sup_value=1.0, sup_grad=1.0)
    solvers._require_c1(field)
    with pytest.raises(ValidationError, match="C\\^1"):
        solvers._require_c1(dataclasses.replace(field, sup_grad=0.5))


# the Euler reference runs on the indicator; the random ODE needs each level's b_n C^1
SINGULAR = Model(indicator_drift(), sin_elliptic_diffusion(), HALF, 0.0, make_grid(1.0, 256))

COUPLED_BAD_DRIFT_CALLS = {
    # a batch of one path
    "coupled_run": lambda: coupled_batch(
        SINGULAR, LIN, [(16, indicator_drift())], RngStream(8, 1), 1, m_ode=8),
    "coupled_batch": lambda: coupled_batch(
        SINGULAR, LIN, [(16, indicator_drift())], RngStream(8, 1), 4, m_ode=8),
    # the first level is smooth: the singular later level must still stop the batch
    "coupled_batch_later_level": lambda: coupled_batch(
        SINGULAR, LIN, [(16, sin_bump_drift()), (32, indicator_drift())], RngStream(8, 1), 4, m_ode=8),
    # C^1 metadata present, but its slope bound is below the ramp's slope chi/2 = 3
    "coupled_run_understated_slope": lambda: coupled_batch(
        SINGULAR, LIN, [(16, UNDERSTATED)], RngStream(8, 1), 1, m_ode=8),
    "coupled_batch_later_level_understated_slope": lambda: coupled_batch(
        SINGULAR, LIN, [(16, ramp_approximation(6.0)), (32, UNDERSTATED)], RngStream(8, 1), 4, m_ode=8),
}


@pytest.mark.parametrize("call", sorted(COUPLED_BAD_DRIFT_CALLS))
def test_coupled_routes_reject_a_drift_without_c1_metadata_before_sampling(monkeypatch, call):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was simulated before the drift was checked")

    for name in ("sample_brownian_batch", "em_batch", "rk4_batch"):
        monkeypatch.setattr(solvers, name, unreachable)
    with pytest.raises(ValidationError, match="C\\^1"):
        COUPLED_BAD_DRIFT_CALLS[call]()


def test_coupled_rejects_incompatible_n_ref():
    model = Model(zero_drift(), const_diffusion(1.0), HALF, 0.0, make_grid(1.0, 1000))
    with pytest.raises(ValidationError):
        coupled_batch(model, LIN, [(16, zero_drift())], RngStream(8, 0), 1)


# one part of each model disagrees with the d = 1 sigma
MISMATCHED_MODELS = {
    "drift": lambda: Model(zero_drift(2), sin_elliptic_diffusion(), HALF, 0.0, make_grid(1.0, 64)),
    "correction": lambda: Model(zero_drift(), sin_elliptic_diffusion(), CorrectionMatrix.half_identity(2),
                                0.0, make_grid(1.0, 64)),
    "x0": lambda: Model(zero_drift(), sin_elliptic_diffusion(), HALF, np.zeros(2), make_grid(1.0, 64)),
    "x0_matrix": lambda: Model(zero_drift(), sin_elliptic_diffusion(), HALF, np.zeros((1, 1)),
                               make_grid(1.0, 64)),
    "x0_nan": lambda: Model(zero_drift(), sin_elliptic_diffusion(), HALF, float("nan"), make_grid(1.0, 64)),
}


@pytest.mark.parametrize("part", sorted(MISMATCHED_MODELS))
def test_model_rejects_a_part_of_another_dimension(part):
    with pytest.raises(ValidationError, match="x0" if part.startswith("x0") else part):
        MISMATCHED_MODELS[part]()


def test_model_takes_a_scalar_or_a_vector_x0():
    sigma, half = sin_elliptic_diffusion(d=2), CorrectionMatrix.half_identity(2)
    for x0 in (0.5, np.array([0.5, -0.5])):
        assert Model(zero_drift(2), sigma, half, x0, make_grid(1.0, 64)).dim == 2
