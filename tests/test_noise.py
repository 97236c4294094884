import dataclasses

import numpy as np
import pytest

from wzsim import get_shape, noise
from wzsim.core import Path, RngStream, ValidationError, make_grid, sample_brownian_batch
from wzsim.noise import (
    CONVOLUTION_ORDER,
    McShane,
    Mollified,
    PiecewiseShape,
    area_density,
    block_layout,
    check_moment_condition,
    correction_density,
    estimate_c,
    estimate_s,
    sixth_moments,
)
from wzsim.shapes import (
    MollifierKernel,
    ShapeFunction,
    bump_kernel,
    _gl_composite,
    hann_kernel,
    linear_shape,
    power_shape,
    smoothstep_shape,
)

LIN = PiecewiseShape(linear_shape())
MCS = McShane(linear_shape(), power_shape(2.0))


def brownian(n_steps=256, d=1, seed=5, sid=0, horizon=1.0):
    g = make_grid(horizon, n_steps)
    return Path(g, sample_brownian_batch(g, d, RngStream(seed, sid), 1)[0])


def at_times(family, w, n, times, derivs=False):
    """W^n (or dW^n/ds with derivs) of the path w at absolute times, shape (len(times), d)."""
    blocks, msub = block_layout(family, w.grid, n, w.dim)
    # block positions (k, u) of the times; the end time is (blocks - 1, 1)
    tn = np.atleast_1d(np.asarray(times, dtype=float)) * n
    k = np.clip(np.floor(tn).astype(np.int64), 0, blocks - 1)
    evaluate = family.batch_derivs if derivs else family.batch_values
    return evaluate(w.values[None], n, msub, k, tn - k)[0]


# ---------------------------------------------------------------------------
# shape functions and kernels
# ---------------------------------------------------------------------------


def test_shape_endpoint_validation():
    with pytest.raises(ValidationError):
        ShapeFunction(lambda u: np.asarray(u) + 0.1, lambda u: np.ones_like(np.asarray(u)))


def test_shape_derivative_validation():
    with pytest.raises(ValidationError):
        ShapeFunction(lambda u: np.asarray(u, dtype=float) ** 2,
                      lambda u: np.ones_like(np.asarray(u, dtype=float)))


@pytest.mark.parametrize("name", ["linear", "quadratic", "cubic", "smoothstep"])
def test_builtin_shapes_valid(name):
    f = get_shape(name)
    assert float(f.value(np.array(0.0))) == pytest.approx(0.0, abs=1e-12)
    assert float(f.value(np.array(1.0))) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kern", [bump_kernel, hann_kernel])
def test_kernels_unit_mass_nonnegative(kern):
    k = kern()
    u = np.linspace(0, 1, 1001)
    assert np.all(k.value(u) >= -1e-14)


def test_bad_kernel_rejected():
    with pytest.raises(ValidationError):
        MollifierKernel(lambda u: 2.0 * np.ones_like(np.asarray(u, dtype=float)),
                        lambda u: np.zeros_like(np.asarray(u, dtype=float)))


# ---------------------------------------------------------------------------
# smoothed paths of one Brownian path
# ---------------------------------------------------------------------------


def test_piecewise_linear_is_the_polygonal_interpolant():
    w = brownian(256, d=2)
    # block endpoints reproduce the Brownian path exactly
    assert np.allclose(at_times(LIN, w, 8, np.arange(9) / 8), w.values[::32], atol=1e-14)
    # mid-block values are the linear interpolant
    t = 3 / 8 + 1 / 16
    expect = 0.5 * (w.values[96] + w.values[128])
    assert np.allclose(at_times(LIN, w, 8, t)[0], expect, atol=1e-13)


def test_endpoint_interpolation_any_shape():
    w = brownian(256)
    for shape in [power_shape(2.0), smoothstep_shape()]:
        ends = at_times(PiecewiseShape(shape), w, 8, np.arange(9) / 8)
        assert np.allclose(ends, w.values[::32], atol=1e-13)


def test_zero_path_maps_to_zero_for_every_family():
    g = make_grid(1.0, 256)
    z2 = Path(g, np.zeros((257, 2)))
    ts = np.linspace(0.0, 1.0, 17)
    for fam in [LIN, Mollified(bump_kernel()), McShane(linear_shape(), power_shape(2.0))]:
        assert np.all(at_times(fam, z2, 8, ts) == 0.0)
        assert np.all(at_times(fam, z2, 8, ts, derivs=True) == 0.0)


def test_mcshane_swaps_shapes_on_negative_increment_product():
    # one block with dW1 = +1, dW2 = -1: component 1 takes f2, component 2 takes f1
    g = make_grid(1.0, 8)
    vals = np.zeros((9, 2))
    vals[:, 0] = np.linspace(0.0, 1.0, 9)    # dW1 = +1 over the single block
    vals[:, 1] = -np.linspace(0.0, 1.0, 9)   # dW2 = -1
    w = Path(g, vals)
    fam = McShane(linear_shape(), power_shape(2.0))
    u = 0.3
    got = at_times(fam, w, 1, u)[0]
    assert got[0] == pytest.approx(u**2 * 1.0)     # f2 on component 1
    assert got[1] == pytest.approx(u * (-1.0))     # f1 on component 2


def test_mcshane_keeps_shapes_on_positive_product():
    g = make_grid(1.0, 8)
    vals = np.zeros((9, 2))
    vals[:, 0] = np.linspace(0.0, 1.0, 9)
    vals[:, 1] = np.linspace(0.0, 2.0, 9)
    w = Path(g, vals)
    u = 0.3
    got = at_times(McShane(linear_shape(), power_shape(2.0)), w, 1, u)[0]
    assert got[0] == pytest.approx(u)
    assert got[1] == pytest.approx(u**2 * 2.0)


def test_linearity_in_the_brownian_path():
    w = brownian(256, d=2, seed=8)
    ts = np.linspace(0.05, 0.95, 23)
    for fam, alphas in [(LIN, (2.5, -1.3)),
                        (Mollified(bump_kernel()), (2.5, -1.3)),
                        (McShane(linear_shape(), power_shape(2.0)), (2.5,))]:
        base = at_times(fam, w, 8, ts)
        for a in alphas:
            scaled = at_times(fam, Path(w.grid, a * np.asarray(w.values)), 8, ts)
            assert np.allclose(scaled, a * base, atol=1e-12)


def test_grid_incompatibility_rejected():
    w = brownian(100)  # spacing 1/100 does not divide 1/8
    with pytest.raises(ValidationError):
        block_layout(LIN, w.grid, 8, w.dim)


def test_mcshane_requires_dimension_two():
    w = brownian(256, d=1)
    with pytest.raises(ValidationError):
        block_layout(McShane(linear_shape(), linear_shape()), w.grid, 8, w.dim)


def test_mollified_smoothness_fd_vs_analytic_derivative():
    w = brownian(512, seed=3, sid=5)
    fam = Mollified(bump_kernel())
    rng = np.random.default_rng(0)
    ts = rng.uniform(0.2, 0.95, 100)
    analytic = at_times(fam, w, 8, ts, derivs=True)
    h = 1e-6
    fd = (at_times(fam, w, 8, ts + h) - at_times(fam, w, 8, ts - h)) / (2 * h)
    assert np.max(np.abs(fd - analytic)) < 1e-4


def test_mollified_starts_at_zero_and_has_no_kinks():
    w = brownian(512)
    fam = Mollified(bump_kernel())
    assert np.all(at_times(fam, w, 8, 0.0) == 0.0)
    # at each inner block end the left limit (k - 1, u=1) and the right
    # start (k, u=0) are one and the same time for the mollified family ...
    wsub, k = w.values[None], np.arange(1, 8)
    assert np.array_equal(fam.batch_derivs(wsub, 8, 64, k - 1, np.ones(7)),
                          fam.batch_derivs(wsub, 8, 64, k, np.zeros(7)))
    # ... while the polygonal path's slope jumps there
    left = LIN.batch_derivs(wsub, 8, 64, k - 1, np.ones(7))
    assert np.all(left != LIN.batch_derivs(wsub, 8, 64, k, np.zeros(7)))


def _mollified_by_nodes(kernel, wsub, n, msub, k, u, deriv):
    """Mollified W^n (deriv=False) or dW^n/ds by one gather per quadrature node.

    The oracle of the band operator in ``Mollified._convolve``: every
    subgrid cell of the window is split at the path's kink offset phi and
    each part gets CONVOLUTION_ORDER Gauss-Legendre nodes.
    """
    fn, scale = (kernel.deriv, n * n) if deriv else (kernel.value, n)
    t = (k + u) / n
    h = 1.0 / (n * msub)
    x, wq = _gl_composite(1, CONVOLUTION_ORDER)
    phi = np.mod(t, h)
    out = np.zeros((wsub.shape[0], t.size, wsub.shape[2]))
    for c in range(msub):
        for start, width in ((c * h, phi), (c * h + phi, h - phi)):
            for xq, wgt in zip(x, wq):
                tau = start + width * xq
                idx = (t - tau) * (n * msub)
                theta = idx - np.floor(idx)
                j = np.clip(np.floor(idx).astype(np.int64), 0, wsub.shape[1] - 2)
                w = (width * wgt * fn(tau * n) * scale * (idx >= 0.0))[None, :, None]
                out += w * ((1.0 - theta)[None, :, None] * wsub[:, j] + theta[None, :, None] * wsub[:, j + 1])
    return out


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n,msub", [(8, 64), (16, 8), (64, 32)])
def test_mollified_operator_matches_the_per_node_loop(n, msub, d):
    blocks = 3
    g = make_grid(blocks / n, blocks * msub)
    wsub = sample_brownian_batch(g, d, RngStream(13, n), 3)
    rng = np.random.default_rng(n + d)
    # block starts, left limits at block ends, and times below 1/n (window clipped at 0)
    k = np.concatenate([[0, 0, 0, 0, 1, 1, 2, 2], rng.integers(0, blocks, 40)])
    u = np.concatenate([[0.0, 1e-3, 0.4, 1.0, 0.0, 1.0, 0.0, 1.0], rng.uniform(0.0, 1.0, 40)])
    fam = Mollified(bump_kernel())
    for deriv, got in ((False, fam.batch_values(wsub, n, msub, k, u)),
                       (True, fam.batch_derivs(wsub, n, msub, k, u))):
        ref = _mollified_by_nodes(fam.kernel, wsub, n, msub, k, u, deriv)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [1, 2])
def test_mollified_path_rows_do_not_depend_on_the_batch(d):
    n, msub = 16, 8
    wsub = sample_brownian_batch(make_grid(4 / n, 4 * msub), d, RngStream(14, d), 7)
    k, u = np.repeat(np.arange(4), 5), np.tile(np.linspace(0.0, 1.0, 5), 4)
    fam = Mollified(bump_kernel())
    batch = fam.batch_derivs(wsub, n, msub, k, u)
    for i in range(7):
        assert np.array_equal(batch[i], fam.batch_derivs(wsub[i:i + 1], n, msub, k, u)[0])


@pytest.mark.parametrize("fam", [PiecewiseShape(power_shape(2.0)), MCS], ids=["piecewise", "mcshane"])
def test_u_one_is_the_left_limit_of_block_k(fam):
    # f = u^2 has f'(1) = 2 and f'(0) = 0, so block k's slope at its right
    # end differs from block k+1's at its start
    n, msub = 8, 8
    wsub = brownian(64, d=2, seed=12).values[None]
    k = np.arange(n)
    got = fam.batch_derivs(wsub, n, msub, k, np.ones(n))[0]
    dw = wsub[0, (k + 1) * msub] - wsub[0, k * msub]
    slope = np.full((n, 2), 2.0)
    if isinstance(fam, McShane):
        # f1 = u (slope 1) on component 0 unless the block's increments
        # have opposite signs, in which case the components swap shapes
        swap = dw[:, 0] * dw[:, 1] < 0.0
        slope[:, 0] = np.where(swap, 2.0, 1.0)
        slope[:, 1] = np.where(swap, 1.0, 2.0)
    assert np.allclose(got, n * slope * dw, rtol=1e-14, atol=0.0)
    right = fam.batch_derivs(wsub, n, msub, k[1:], np.zeros(n - 1))[0]
    assert np.all(got[:-1] != right)


# ---------------------------------------------------------------------------
# coefficient estimators
# ---------------------------------------------------------------------------


def test_s_vanishes_pathwise_for_common_shape_families():
    # within a block W^{n,i} dW^{n,j}/ds is symmetric in (i,j), so the area
    # integrand cancels exactly, sample by sample
    m = estimate_s(LIN, 16, 300, RngStream(70, 0))
    assert np.max(np.abs(m.values)) < 1e-16
    assert np.all(np.diag(m.values) == 0.0)


def test_s_estimator_matrix_is_skew():
    m = estimate_s(McShane(linear_shape(), power_shape(2.0)), 16, 500, RngStream(71, 0))
    assert np.array_equal(m.values, -m.values.T)
    assert np.all(np.diag(m.values) == 0.0)


def test_mcshane_s12_against_blockwise_brute_force():
    """Independent oracle: simulate the block construction directly.

    Over one block the area integral reduces to dW1 dW2 * q(sign), with
    q = int (f_a df_b - f_b df_a) over the chosen shape order; the oracle
    samples increments and integrates the shapes by fine trapezoid, with no
    use of the path evaluators.
    """
    n = 32
    fam = McShane(linear_shape(), power_shape(2.0))
    est = estimate_s(fam, n, 4000, RngStream(72, 0))

    u = np.linspace(0.0, 1.0, 20001)
    f1, d1 = u, np.ones_like(u)
    f2, d2 = u**2, 2 * u
    q_keep = np.trapezoid(f1 * d2 - f2 * d1, u)
    gen = RngStream(9090, 0).generator()
    dw = gen.standard_normal((200_000, 2)) / np.sqrt(n)
    sign = dw[:, 0] * dw[:, 1] >= 0
    per = n * dw[:, 0] * dw[:, 1] * np.where(sign, q_keep, -q_keep) / 2.0
    oracle = per.mean()
    oracle_se = per.std(ddof=1) / np.sqrt(per.size)

    joint_se = np.hypot(est.stderrs[0, 1], oracle_se)
    assert abs(est.values[0, 1] - oracle) < 3 * joint_se
    # the classical 1/pi value is what the swap construction approaches for
    # shapes with a vanishing cross integral; recorded here for reference only
    assert abs(oracle - (1 - 2 / 3) / np.pi) < 3 * oracle_se


def test_c_identifies_half_identity_for_polygonal_family():
    c = estimate_c(LIN, 32, 0.5, 4000, RngStream(73, 0))
    assert np.all(np.abs(np.diag(c.values) - 0.5) < 0.05)
    off = np.abs(c.values - np.diag(np.diag(c.values)))
    off_se = np.where(np.eye(2) == 1, np.inf, c.stderrs)
    assert np.all(off <= 3 * off_se)


def test_c_decay_toward_limit_with_slowly_growing_block_count():
    # block count Z = n^{delta/4} with delta = 0.8; the smoothed family's
    # boundary bias shrinks with Z, so the deviation from 1/2 must decay in n
    fam = Mollified(bump_kernel())
    devs = []
    ns = [2**5, 2**10, 2**15]
    for n, z in zip(ns, [2, 4, 8]):
        est = estimate_c(fam, n, z / n, 6000, RngStream(74, n))
        devs.append(abs(est.values[0, 0] - 0.5))
    slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
    assert slope < 0.0
    assert devs[-1] < devs[0] / 2


def test_c_equals_s_plus_half_identity():
    c = estimate_c(LIN, 32, 1.0, 3000, RngStream(75, 0))
    s = estimate_s(LIN, 32, 3000, RngStream(75, 1 << 33))
    rel = c.values - s.values - 0.5 * np.eye(2)
    se = np.sqrt(c.stderrs**2 + s.stderrs**2)
    assert np.all(np.abs(rel) <= 3 * np.maximum(se, 1e-12))


@pytest.mark.parametrize("fam", [LIN, Mollified(bump_kernel()), MCS],
                         ids=["piecewise", "mollified", "mcshane"])
def test_batched_functionals_vanish_on_zero_path(fam):
    # three zero paths over two blocks of width 1/4 with 32 subgrid cells each
    z = np.zeros((3, 65, 2))
    for got, shape in [(area_density(fam, z, 4, 32), (3, 2, 2)),
                       (correction_density(fam, z, 4, 32), (3, 2, 2)),
                       (sixth_moments(fam, z, 4, 32), (3, 2))]:
        assert got.shape == shape
        assert np.all(got == 0.0)


def test_c_rejects_time_off_the_block_lattice():
    with pytest.raises(ValidationError):
        estimate_c(LIN, 16, 0.7 / 16, 200, RngStream(1, 0))


LEVEL_BELOW_ONE_CALLS = {
    "estimate_s_zero": lambda: estimate_s(LIN, 0, 100, RngStream(1, 0)),
    "estimate_s_negative": lambda: estimate_s(LIN, -2, 100, RngStream(1, 0)),
    "estimate_c_zero": lambda: estimate_c(LIN, 0, 1.0, 100, RngStream(1, 0)),
    "check_moment_condition_zero_first": lambda: check_moment_condition(LIN, [0, 4], 100, RngStream(1, 0)),
    "check_moment_condition_zero_last": lambda: check_moment_condition(LIN, [4, 0], 100, RngStream(1, 0)),
}


@pytest.mark.parametrize("call", sorted(LEVEL_BELOW_ONE_CALLS))
def test_a_level_below_one_is_rejected_before_any_sample(monkeypatch, call):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was sampled before the level was checked")

    monkeypatch.setattr(noise, "sample_brownian_batch", unreachable)
    with pytest.raises(ValidationError, match="n must be >= 1"):
        LEVEL_BELOW_ONE_CALLS[call]()


BATCHED_ESTIMATORS = {
    "estimate_s": lambda: estimate_s(MCS, 16, 100, RngStream(76, 0)),
    "estimate_s_mollified": lambda: estimate_s(Mollified(bump_kernel()), 16, 100, RngStream(76, 3)),
    "estimate_c": lambda: estimate_c(Mollified(bump_kernel()), 16, 0.25, 100, RngStream(76, 1)),
    "check_moment_condition": lambda: check_moment_condition(LIN, [4, 8, 16], 100, RngStream(76, 2)),
    "check_moment_condition_mollified": lambda: check_moment_condition(
        Mollified(bump_kernel()), [4, 8, 16], 100, RngStream(76, 4)),
}


@pytest.mark.parametrize("estimator", sorted(BATCHED_ESTIMATORS))
def test_batched_and_unbatched_estimates_agree(monkeypatch, estimator):
    # sample i always draws stream.child(i) and its value is reduced once, in
    # sample order, so the batch size (one path at a time; 7 and 16, which do
    # not divide the 100 samples; 100, one batch) must not change a single
    # bit of the report
    def run(batch):
        for name in ("S_BATCH", "C_BATCH", "MOMENT_BATCH"):
            monkeypatch.setattr(noise, name, batch)
        return dataclasses.astuple(BATCHED_ESTIMATORS[estimator]())

    unbatched = run(100)
    for batch in (1, 7, 16):
        got = run(batch)
        assert all(np.array_equal(a, b) for a, b in zip(got, unbatched))


# ---------------------------------------------------------------------------
# sixth-moment scaling
# ---------------------------------------------------------------------------


def test_moment_scaling_polygonal():
    rep = check_moment_condition(LIN, [4, 8, 16, 32], 4000, RngStream(80, 0))
    assert abs(rep.endpoint_exponent + 3.0) < 0.3
    assert abs(rep.speed_exponent + 3.0) < 0.3
    # endpoint moment at level n is that of W_{1/n} itself: 15 / n^3 in d=1
    theory = 15.0 / np.asarray(rep.n_list, dtype=float) ** 3
    assert np.all(np.abs(rep.endpoint_moment - theory) < 5 * theory)


def test_moment_scaling_mollified():
    rep = check_moment_condition(Mollified(bump_kernel()), [4, 8, 16, 32], 3000, RngStream(81, 0))
    assert abs(rep.endpoint_exponent + 3.0) < 0.3
    assert abs(rep.speed_exponent + 3.0) < 0.3


def test_check_moment_condition_needs_samples():
    with pytest.raises(ValidationError):
        check_moment_condition(LIN, [4, 8], 50, RngStream(0, 0))
