import dataclasses

import numpy as np
import pytest

from wzsim import solvers
from wzsim.coeffs import CorrectionMatrix
from wzsim.core import (Path, RngStream, ValidationError, make_grid, sample_brownian,
                        sample_brownian_batch)
from wzsim.noise import Mollified, PiecewiseShape, block_layout, build_approximation
from wzsim.registry import (
    const_diffusion,
    const_drift,
    get_diffusion,
    indicator_drift,
    linear_diffusion,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)
from wzsim.shapes import bump_kernel, linear_shape
from wzsim.solvers import (
    SolverAbort,
    SolverConfig,
    coupled_batch,
    coupled_run,
    em_batch,
    rk4_batch,
    solve_ito_corrected,
    solve_random_ode,
)

HALF = CorrectionMatrix.half_identity(1)
LIN = PiecewiseShape(linear_shape())


def test_additive_noise_is_exact():
    w = sample_brownian(make_grid(1.0, 512), 1, RngStream(1, 0))
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
    # back at step 9; row 2 leaves at step 6 and stays out; rows 0 and 3 stay in
    steps, d = 12, 2
    kicks = np.zeros((4, steps, d))
    kicks[0] = np.arange(steps * d).reshape(steps, d) % 5 - 2.0
    kicks[1, 2, 0], kicks[1, 4, 0] = 3e12, -3e12
    kicks[1, 7, 1], kicks[1, 8, 1] = -2e12, 2e12
    kicks[2, 5, 1] = 5e12
    kicks[3] = 8e10
    sigma = const_diffusion(1.0, d=2)
    if solve == "em":
        vals, status = em_batch(zero_drift(2), sigma, CorrectionMatrix.half_identity(2),
                                np.zeros(d), kicks, 1.0)
    else:
        stages = np.repeat(kicks[:, :, None, :], 3, axis=2)
        vals, status = rk4_batch(zero_drift(2), sigma, np.zeros(d), stages, 1.0)
    assert status.tolist() == [0, 3, 6, 0]
    path = np.concatenate([np.zeros((4, 1, d)), np.cumsum(kicks, axis=1)], axis=1)
    for row, k in enumerate(status):
        stop = k if k else steps + 1
        assert np.array_equal(vals[row, :stop], path[row, :stop])
        assert np.all(np.isnan(vals[row, stop:]))


def test_overflow_aborts_with_diagnostic():
    w = sample_brownian(make_grid(1.0, 64), 1, RngStream(2, 0))
    huge = const_drift(1e13)
    with pytest.raises(SolverAbort) as exc:
        solve_ito_corrected(huge, const_diffusion(1.0), HALF, 0.0, w)
    assert exc.value.step >= 1


def test_x0_dimension_checked():
    w = sample_brownian(make_grid(1.0, 16), 1, RngStream(3, 0))
    with pytest.raises(ValidationError):
        solve_ito_corrected(zero_drift(), const_diffusion(1.0), HALF, [0.0, 1.0], w)


# ---------------------------------------------------------------------------
# random ODE
# ---------------------------------------------------------------------------


def _approx(n=32, steps=512, seed=9, sid=1, family=LIN):
    w = sample_brownian(make_grid(1.0, steps), 1, RngStream(seed, sid))
    return build_approximation(family, w, n)


def _zero_sigma():
    from wzsim.coeffs import DiffusionField

    return DiffusionField(dim=1,
                          sigma=lambda x: np.zeros((x.shape[0], 1, 1)),
                          grad=lambda x: np.zeros((x.shape[0], 1, 1, 1)),
                          ellipticity=np.inf, elliptic=False,
                          name="zero_sigma")


def test_ode_constant_drift_no_noise():
    ap = _approx()
    x = solve_random_ode(const_drift(1.7), _zero_sigma(), ap, 0.2, m_ode=8)
    t = x.grid.nodes()
    assert np.max(np.abs(x.values[:, 0] - (0.2 + 1.7 * t))) < 1e-10


def test_ode_additive_noise_reproduces_the_smoothed_path():
    ap = _approx()
    x = solve_random_ode(zero_drift(), const_diffusion(3.0), ap, 0.5, m_ode=8)
    t = x.grid.nodes()
    wn = ap.values_at(t)[:, 0]
    assert np.max(np.abs(x.values[:, 0] - (0.5 + 3.0 * (wn - wn[0])))) < 1e-8


@pytest.mark.parametrize("family,tol", [(LIN, 1e-6), (Mollified(bump_kernel()), 1e-5)])
def test_ode_exponential_oracle(family, tol):
    # the mollified driver is sharply peaked (bump kernel), which costs the
    # one-step integrator about a digit relative to the polygonal driver
    ap = _approx(family=family)
    x = solve_random_ode(zero_drift(), linear_diffusion(), ap, 1.0, m_ode=16)
    t = x.grid.nodes()
    wn = ap.values_at(t)[:, 0]
    oracle = np.exp(wn - wn[0])
    assert np.max(np.abs(x.values[:, 0] / oracle - 1.0)) < tol


def test_kink_alignment_two_half_windows_equal_one():
    # blocks 2..3 in one run, and block 2 then block 3 restarted from its end value
    ap = _approx(n=8)
    b, sigma, m_ode = sin_bump_drift(), sin_elliptic_diffusion(), 8
    vst = solvers._stage_derivs(LIN, ap.brownian.values[None], ap.n, ap.msub, ap.blocks, m_ode)
    h = 1.0 / (ap.n * m_ode)
    full, _ = rk4_batch(b, sigma, np.array([[0.4]]), vst[:, 2 * m_ode:4 * m_ode], h)
    first, _ = rk4_batch(b, sigma, np.array([[0.4]]), vst[:, 2 * m_ode:3 * m_ode], h)
    second, _ = rk4_batch(b, sigma, first[:, -1], vst[:, 3 * m_ode:4 * m_ode], h)
    assert abs(full[0, -1, 0] - second[0, -1, 0]) < 1e-12


def test_ode_requires_smooth_drift_metadata():
    ap = _approx()
    singular = indicator_drift()
    with pytest.raises(ValidationError):
        solve_random_ode(singular, const_diffusion(1.0), ap, 0.0)


# ---------------------------------------------------------------------------
# coupled runs
# ---------------------------------------------------------------------------


def test_coupled_additive_error_equals_direct_computation():
    cfg = SolverConfig(n_ref=1 << 10, m_ode=16)
    s0 = 1.5
    r = coupled_run(zero_drift(), zero_drift(), const_diffusion(s0), HALF, LIN,
                    16, 0.0, RngStream(5, 77), cfg)
    w = sample_brownian(cfg.grid(), 1, RngStream(5, 77).child(0))
    ap = build_approximation(LIN, w, 16)
    nodes = cfg.grid().nodes()
    direct = s0 * np.max(np.abs(w.values[:, 0] - ap.values_at(nodes)[:, 0]))
    assert abs(r.sup_error - direct) < 1e-10


def test_coupled_run_is_deterministic():
    cfg = SolverConfig(n_ref=1 << 10, m_ode=16)
    args = (sin_bump_drift(), sin_bump_drift(), sin_elliptic_diffusion(), HALF, LIN,
            16, 0.0, RngStream(5, 78), cfg)
    assert coupled_run(*args).sup_error == coupled_run(*args).sup_error


def test_coupled_run_is_row_zero_of_the_batched_route():
    cfg = SolverConfig(n_ref=1 << 9, m_ode=16)
    b, sigma, stream = sin_bump_drift(), sin_elliptic_diffusion(), RngStream(5, 79)
    r = coupled_run(b, b, sigma, HALF, LIN, 16, 0.0, stream, cfg)
    w, xv, _ = solvers._sde_paths(b, sigma, HALF, 0.0, stream, cfg, 4)
    xnv, _ = solvers._level_values(b, sigma, LIN, w, 16, block_layout(LIN, cfg.grid(), 16, 1),
                                   0.0, cfg)
    sup, _, _ = coupled_batch(b, sigma, HALF, LIN, [(16, b)], 0.0, stream, cfg, 4)
    assert sup.shape == (4, 1)
    assert np.array_equal(r.x.values, xv[0])
    assert np.array_equal(r.xn.values, xnv[0])
    assert r.sup_error == sup[0, 0]


def test_each_level_of_a_coupled_batch_equals_its_one_level_batch():
    # the levels share one Brownian sample and one Euler reference per path,
    # so each column is what a batch of that level alone returns, bit for bit;
    # the smoothed drift may differ per level
    cfg = SolverConfig(n_ref=256, m_ode=8)
    sigma, stream = sin_elliptic_diffusion(), RngStream(5, 83)
    levels = [(16, sin_bump_drift()), (32, sin_bump_drift(3.0)), (64, sin_bump_drift())]
    sup, st_sde, st_ode = coupled_batch(sin_bump_drift(), sigma, HALF, LIN, levels, 0.0,
                                        stream, cfg, 6)
    assert sup.shape == st_ode.shape == (6, 3) and st_sde.shape == (6,)
    for li, level in enumerate(levels):
        one, one_sde, one_ode = coupled_batch(sin_bump_drift(), sigma, HALF, LIN, [level], 0.0,
                                              stream, cfg, 6)
        assert np.array_equal(sup[:, li], one[:, 0])
        assert np.array_equal(st_sde, one_sde)
        assert np.array_equal(st_ode[:, li], one_ode[:, 0])
    assert len(np.unique(sup[0])) == 3


def _ode_nodes_and_steps(b, sigma, cfg, n, x0, stream, count, m_steps):
    """The coupled route's ODE values and status at the reference nodes, and
    rk4_batch's step-end values and status at m_steps steps per block on the
    same Brownian paths."""
    w = sample_brownian_batch(cfg.grid(), 1, stream, count)
    xnv, st = solvers._level_values(b, sigma, LIN, w, n, block_layout(LIN, cfg.grid(), n, 1),
                                    x0, cfg)
    vst = solvers._stage_derivs(LIN, w, n, cfg.n_ref // n, n, m_steps)
    xs, st_steps = rk4_batch(b, sigma, np.full((count, 1), x0), vst, 1.0 / (n * m_steps))
    return xnv, st, xs, st_steps


def test_aligned_reference_nodes_copy_the_step_values():
    # msub = 4 reference cells and m_ode = 8 steps per block: every reference
    # node is the end of every second step
    xnv, st, xs, st_steps = _ode_nodes_and_steps(sin_bump_drift(), sin_elliptic_diffusion(),
                                                 SolverConfig(n_ref=256, m_ode=8), 64, 0.3,
                                                 RngStream(5, 80), 8, 8)
    assert np.array_equal(xnv, xs[:, ::2])
    assert np.array_equal(st, st_steps)


def test_hermite_reference_nodes_match_a_finer_aligned_run():
    # msub = 24 reference cells against m_ode = 16 steps per block: 1.5 nodes
    # per step, and every third node is a step end
    cfg = SolverConfig(n_ref=384, m_ode=16)
    b, sigma = sin_bump_drift(), sin_elliptic_diffusion()
    xnv, st, xs, _ = _ode_nodes_and_steps(b, sigma, cfg, 16, 0.3, RngStream(5, 81), 8, 16)
    _, _, fine, st_fine = _ode_nodes_and_steps(b, sigma, cfg, 16, 0.3, RngStream(5, 81), 8, 48)
    assert not np.any(st) and not np.any(st_fine)
    assert xnv.shape == (8, 385, 1)
    assert np.array_equal(xnv[:, ::3], xs[:, ::2])
    assert np.max(np.abs(xnv - fine[:, ::2])) < 1e-6


def test_hermite_reference_nodes_are_nan_from_the_aborting_step_on():
    # sigma(x) = x from x0 = 5e11: x = x0 exp(W^n) leaves [-1e12, 1e12] once
    # W^n exceeds log 2, which about half the paths do
    cfg = SolverConfig(n_ref=384, m_ode=16)
    xnv, st, _, st_steps = _ode_nodes_and_steps(zero_drift(), linear_diffusion(), cfg, 16, 5e11,
                                                RngStream(5, 82), 32, 16)
    assert np.array_equal(st, st_steps)
    assert 0 < np.count_nonzero(st) < st.size
    # node j lies at step position j * steps / n_ref; a path with status k
    # aborted in the step from k - 1 to k
    pos = np.arange(cfg.n_ref + 1) * (16 * cfg.m_ode)
    for vals, k in zip(xnv[:, :, 0], st):
        finite = pos <= (k - 1) * cfg.n_ref if k else pos >= 0
        assert np.all(np.isfinite(vals[finite]))
        assert np.all(np.isnan(vals[~finite]))


def test_coupled_error_shrinks_with_n_for_smooth_setup():
    cfg = SolverConfig(n_ref=1 << 11, m_ode=16)
    b = sin_bump_drift()
    err, st_sde, st_ode = coupled_batch(b, sin_elliptic_diffusion(), HALF, LIN, [(8, b), (128, b)],
                                        0.0, RngStream(6, 1000), cfg, 20)
    assert not np.any(st_sde) and not np.any(st_ode)
    mse = np.mean(err**2, axis=0)
    assert mse[1] < mse[0]


def test_coupled_identity_coupling_is_exact_for_additive_noise():
    # n = n_ref with the polygonal family: the smoothed path hits every grid
    # node, both solvers are exact, so the coupled error vanishes
    cfg = SolverConfig(n_ref=256, m_ode=16)
    r = coupled_run(zero_drift(), zero_drift(), const_diffusion(2.0), HALF, LIN,
                    256, 0.0, RngStream(7, 0), cfg)
    assert r.sup_error < 1e-12


COUPLED_BAD_DRIFT_CALLS = {
    "coupled_run": lambda cfg: coupled_run(
        indicator_drift(), indicator_drift(), sin_elliptic_diffusion(), HALF, LIN, 16, 0.0,
        RngStream(8, 1), cfg),
    "coupled_batch": lambda cfg: coupled_batch(
        indicator_drift(), sin_elliptic_diffusion(), HALF, LIN, [(16, indicator_drift())], 0.0,
        RngStream(8, 1), cfg, 4),
    # the first level is smooth: the singular later level must still stop the batch
    "coupled_batch_later_level": lambda cfg: coupled_batch(
        indicator_drift(), sin_elliptic_diffusion(), HALF, LIN,
        [(16, sin_bump_drift()), (32, indicator_drift())], 0.0, RngStream(8, 1), cfg, 4),
}


@pytest.mark.parametrize("call", sorted(COUPLED_BAD_DRIFT_CALLS))
def test_coupled_routes_reject_a_drift_without_c1_metadata_before_sampling(monkeypatch, call):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was simulated before the drift was checked")

    for name in ("sample_brownian_batch", "em_batch", "rk4_batch"):
        monkeypatch.setattr(solvers, name, unreachable)
    with pytest.raises(ValidationError, match="C\\^1"):
        COUPLED_BAD_DRIFT_CALLS[call](SolverConfig(n_ref=256, m_ode=8))


def test_coupled_rejects_incompatible_n_ref():
    cfg = SolverConfig(n_ref=1000, m_ode=16)
    with pytest.raises(ValidationError):
        coupled_run(zero_drift(), zero_drift(), const_diffusion(1.0), HALF, LIN,
                    16, 0.0, RngStream(8, 0), cfg)
