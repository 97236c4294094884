import dataclasses

import numpy as np
import pytest

from wzsim import experiments, solvers
from wzsim.coeffs import CorrectionMatrix, DiffusionField, DriftApproxSequence, ramp_sequence
from wzsim.core import Path, RngStream, ValidationError, make_grid, sample_brownian_batch
from wzsim.experiments import (
    AbortRateError,
    WongZakaiSetup,
    fit_rate,
    girsanov_mean,
    girsanov_weight,
    make_target,
    mc_mean_sup_error,
    rate_sweep,
    stability_sweep,
    tube_ladder,
    tube_probability,
)
from wzsim.noise import PiecewiseShape
from wzsim.registry import (
    const_diffusion,
    const_drift,
    identity_diffusion,
    indicator_drift,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)
from wzsim.shapes import linear_shape
from wzsim.solvers import SolverConfig, em_batch

HALF = CorrectionMatrix.half_identity(1)
LIN = PiecewiseShape(linear_shape())


def _setup(drift=None, sigma=None, n_ref=1 << 10, m_ode=16, x0=0.0, seq=None):
    return WongZakaiSetup(
        drift=drift if drift is not None else sin_bump_drift(),
        sigma=sigma if sigma is not None else sin_elliptic_diffusion(1.0, 0.5),
        correction=HALF,
        family=LIN,
        x0=x0,
        config=SolverConfig(n_ref=n_ref, m_ode=m_ode),
        drift_seq=seq,
    )


# ---------------------------------------------------------------------------
# mean sup error
# ---------------------------------------------------------------------------


def test_zero_setup_reports_exact_zero():
    s = _setup(drift=zero_drift(), sigma=_zero_sigma())
    r = mc_mean_sup_error(s, 16, 50, RngStream(1, 0))
    assert r.estimate == 0.0
    assert r.aborted == 0


def _zero_sigma():
    return DiffusionField(dim=1,
                          sigma=lambda x: np.zeros((x.shape[0], 1, 1)),
                          grad=lambda x: np.zeros((x.shape[0], 1, 1, 1)),
                          ellipticity=np.inf, elliptic=False,
                          name="zero_sigma")


def test_estimate_shrinks_at_finer_noise_levels():
    s = _setup(n_ref=1 << 11)
    coarse = mc_mean_sup_error(s, 16, 200, RngStream(2, 0))
    fine = mc_mean_sup_error(s, 64, 200, RngStream(2, 0))
    margin = 3 * np.hypot(coarse.stderr, fine.stderr)
    assert fine.estimate < coarse.estimate - margin


def test_estimate_is_deterministic():
    s = _setup()
    a = mc_mean_sup_error(s, 16, 60, RngStream(3, 9))
    b = mc_mean_sup_error(s, 16, 60, RngStream(3, 9))
    assert a.estimate == b.estimate and a.stderr == b.stderr


BATCHED_ESTIMATORS = {
    "mc_mean_sup_error": lambda batch: mc_mean_sup_error(
        _setup(), 16, 70, RngStream(4, 0), batch=batch),
    # the multi-level driver behind mc_mean_sup_error and rate_sweep
    "mc_mean_sup_error_three_levels": lambda batch: experiments._mean_sup_errors(
        _setup(n_ref=128, m_ode=4), [16, 32, 64], 70, RngStream(4, 4), batch),
    "stability_sweep": lambda batch: stability_sweep(
        indicator_drift(), ramp_sequence(alpha=0.4, p=2.0, delta=0.5),
        sin_elliptic_diffusion(1.0, 0.5), HALF, 0.0, [16, 64], 70, RngStream(4, 1),
        SolverConfig(n_ref=256), batch=batch),
    # the target path is an input echoed into every report; compare the rest
    "tube_ladder": lambda batch: [dataclasses.replace(r, target=None) for r in tube_ladder(
        indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF, 0.0,
        make_target("line", make_grid(1.0, 256), 0.0), [0.25, 0.5, 1.0], 70,
        RngStream(4, 2), batch=batch)],
    "girsanov_mean": lambda batch: girsanov_mean(
        indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), 0.0, 70, RngStream(4, 3),
        make_grid(1.0, 256), batch=batch),
}


@pytest.mark.parametrize("estimator", sorted(BATCHED_ESTIMATORS))
def test_batched_and_unbatched_estimates_agree(estimator):
    # path i always consumes stream.child(i), so the batch size (7 divides
    # the 70 paths, 16 does not, 70 is one batch) must not change a single
    # field of the report
    run = BATCHED_ESTIMATORS[estimator]
    unbatched = run(70)
    assert run(7) == unbatched
    assert run(16) == unbatched


def test_driver_counts_non_finite_values_as_aborted():
    # path 5 returns NaN and path 6 inf with status 0; path 7 has a solver
    # status: all three are aborted and left out of the values
    def simulate(s, m):
        v = np.arange(s.stream_id, s.stream_id + m, dtype=float)
        status = np.where(v == 7, 3, 0)
        v[v == 5] = np.nan
        v[v == 6] = np.inf
        return v, status

    (values,), (aborted,) = experiments._run_paths(simulate, 300, RngStream(0, 0), 16)
    assert aborted == 3
    assert values.tolist() == [float(i) for i in range(300) if i not in (5, 6, 7)]
    with pytest.raises(AbortRateError):
        experiments._run_paths(simulate, 200, RngStream(0, 0), 16)


def test_driver_applies_the_abort_rule_per_level():
    # two levels: path 3 has an SDE status (m,), which counts against both;
    # path 8 has an ODE status (m, L) at level 0 only; path 4 is NaN at level 1 only
    def simulate(s, m):
        ids = np.arange(s.stream_id, s.stream_id + m, dtype=float)
        v = np.stack([ids, ids + 0.5], axis=1)
        v[ids == 4, 1] = np.nan
        st_ode = np.zeros((m, 2), dtype=np.int64)
        st_ode[ids == 8, 0] = 5
        return v, np.where(ids == 3, 2, 0), st_ode

    (lv0, lv1), aborted = experiments._run_paths(simulate, 300, RngStream(0, 0), 16)
    assert aborted == [2, 2]
    assert lv0.tolist() == [float(i) for i in range(300) if i not in (3, 8)]
    assert lv1.tolist() == [i + 0.5 for i in range(300) if i not in (3, 4)]
    # each level breaks the tolerance at 150 paths (2 > 1.5)
    with pytest.raises(AbortRateError):
        experiments._run_paths(simulate, 150, RngStream(0, 0), 16)


def _coupled_sigma():
    # constant, uniformly elliptic, not diagonal
    mat = np.array([[1.0, 0.0], [0.5, 1.0]])
    return DiffusionField(dim=2,
                          sigma=lambda x: np.broadcast_to(mat, (x.shape[0], 2, 2)).copy(),
                          grad=lambda x: np.zeros((x.shape[0], 2, 2, 2)),
                          name="coupled_sigma")


FAIL_FAST_CALLS = {
    "rate_sweep_two_levels": lambda: rate_sweep(_setup(), [16, 32], 30, RngStream(0, 0)),
    "rate_sweep_repeated_level": lambda: rate_sweep(_setup(), [16, 32, 32], 30, RngStream(0, 0)),
    # smooth at n = 16, singular at n = 32: one batch spans every level, so
    # the later level must be checked before the first path
    "rate_sweep_later_level_not_c1": lambda: rate_sweep(
        _setup(drift=indicator_drift(), seq=DriftApproxSequence(
            base=indicator_drift(), p=2.0,
            generator=lambda n: sin_bump_drift() if n == 16 else indicator_drift(),
            bound=lambda n: 1.0, noise_rate=lambda n: 0.0, delta=0.5)),
        [16, 32, 64], 30, RngStream(0, 0)),
    # no drift sequence: the random ODE would run on the indicator itself
    "mc_mean_sup_error_singular_ode_drift": lambda: mc_mean_sup_error(
        _setup(drift=indicator_drift()), 16, 30, RngStream(0, 0)),
    "tube_ladder_zero_radius": lambda: tube_ladder(
        zero_drift(), identity_diffusion(), HALF, 0.0,
        make_target("const", make_grid(1.0, 64), 0.0), [0.5, 0.0], 100, RngStream(0, 0)),
    "girsanov_mean_full_sigma": lambda: girsanov_mean(
        zero_drift(2), _coupled_sigma(), np.zeros(2), 100, RngStream(0, 0), make_grid(1.0, 64)),
    "girsanov_weight_full_sigma": lambda: girsanov_weight(
        zero_drift(2), _coupled_sigma(), np.zeros(2), RngStream(0, 0), make_grid(1.0, 64)),
    # diagonal, but without the scalar form the weights read its diagonal from
    "girsanov_mean_diagonal_without_scalar_forms": lambda: girsanov_mean(
        zero_drift(), dataclasses.replace(sin_elliptic_diffusion(1.0, 0.5), scalar=None,
                                          scalar_grad=None),
        0.0, 100, RngStream(0, 0), make_grid(1.0, 64)),
}


@pytest.mark.parametrize("call", sorted(FAIL_FAST_CALLS))
def test_bad_input_is_rejected_before_any_path(monkeypatch, call):
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was simulated before the input was checked")

    for name in ("coupled_batch", "em_batch", "sample_brownian_batch"):
        monkeypatch.setattr(experiments, name, unreachable)
    with pytest.raises(ValidationError):
        FAIL_FAST_CALLS[call]()


def test_identity_coupling_additive_noise_is_exact_zero():
    s = _setup(drift=zero_drift(), sigma=const_diffusion(2.0), n_ref=256)
    r = mc_mean_sup_error(s, 256, 40, RngStream(5, 0))
    assert r.estimate < 1e-24


def test_abort_threshold_raises():
    s = _setup(drift=const_drift(1e15), sigma=const_diffusion(1.0), n_ref=256)
    with pytest.raises(AbortRateError):
        mc_mean_sup_error(s, 16, 40, RngStream(6, 0))


def test_requires_minimum_paths():
    with pytest.raises(ValidationError):
        mc_mean_sup_error(_setup(), 16, 10, RngStream(0, 0))


def test_stderr_scaling_on_doubled_paths():
    s = _setup(n_ref=1 << 10)
    small = mc_mean_sup_error(s, 16, 250, RngStream(7, 0))
    big = mc_mean_sup_error(s, 16, 500, RngStream(7, 0))
    ratio = big.stderr / small.stderr
    assert 0.6 <= ratio <= 0.85


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_recovers_synthetic_power_law():
    pts = [(n, 1.0 / n) for n in (8, 16, 32, 64)]
    slope, half = fit_rate(pts)
    assert abs(slope + 1.0) < 1e-10
    assert half < 1e-8


def test_fit_rate_constant_is_flat():
    slope, _ = fit_rate([(n, 2.5) for n in (8, 16, 32, 64)])
    assert abs(slope) < 1e-12


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValidationError):
        fit_rate([(8, 1.0), (16, 0.5)])
    with pytest.raises(ValidationError):
        fit_rate([(8, 1.0), (16, 0.5), (16, 0.25)])
    with pytest.raises(ValidationError):
        fit_rate([(8, 1.0), (16, 0.0), (32, 0.2)])


def test_quantiles_equal_scipy_stats_bit_for_bit():
    # fit_rate and _binomial_lcb take their quantiles from scipy.special, so
    # importing the CLI does not load scipy.stats; the values must not move
    from scipy import stats

    gen = RngStream(17, 0).generator()
    for dof in range(1, 60):
        ns = np.arange(8, 8 + dof + 2, dtype=float)
        ms = np.exp(-0.5 * np.log(ns) + 0.1 * gen.standard_normal(ns.size))
        x = np.log(ns)
        res = np.polyfit(x, np.log(ms), 1, full=True)[1]
        sxx = float(np.sum((x - x.mean()) ** 2))
        expect = float(stats.t.ppf(0.975, dof)) * np.sqrt(float(res[0]) / dof / sxx)
        assert fit_rate(list(zip(ns, ms)))[1] == expect
    for paths in (50, 64, 100, 257, 1000, 4096, 20000):
        for hits in np.unique(np.geomspace(1, paths, 40).astype(int)):
            expect = float(stats.beta.ppf(1.0 - 0.95, hits, paths - hits + 1))
            assert experiments._binomial_lcb(int(hits), paths) == expect


def test_rate_sweep_level_zero_is_mc_mean_sup_error_bit_for_bit():
    s = _setup(n_ref=256, seq=ramp_sequence(alpha=0.4, p=2.0, delta=0.5),
               drift=indicator_drift())
    levels, paths, stream = [16, 32, 64], 40, RngStream(8, 3)
    rep = rate_sweep(s, levels, paths, stream)
    r = mc_mean_sup_error(s, levels[0], paths, stream)
    assert rep.points[0] == (levels[0], r.estimate, r.stderr)
    assert rep.aborted[0] == r.aborted


def test_rate_sweep_samples_and_solves_the_reference_once_per_batch(monkeypatch):
    # 300 paths are two batches of 256; each batch draws W and solves the
    # Euler reference once and runs the random ODE once per level
    calls = {"sample_brownian_batch": 0, "em_batch": 0, "rk4_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(solvers, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    rate_sweep(_setup(n_ref=64, m_ode=4), [4, 8, 16, 32], 300, RngStream(8, 4))
    assert calls == {"sample_brownian_batch": 2, "em_batch": 2, "rk4_batch": 8}


def test_rate_sweep_reports_negative_slope():
    s = _setup(n_ref=1 << 11)
    rep = rate_sweep(s, [16, 32, 64, 128], 120, RngStream(8, 0))
    assert rep.slope < -0.5
    assert len(rep.points) == 4


# ---------------------------------------------------------------------------
# stability sweep
# ---------------------------------------------------------------------------


def test_stability_identity_sequence_is_exact_zero():
    from wzsim.coeffs import DriftApproxSequence

    b = indicator_drift()
    ident = DriftApproxSequence(base=b, p=2.0, generator=lambda n: b,
                                bound=lambda n: 1.0, noise_rate=lambda n: 0.0,
                                delta=0.5)
    rep = stability_sweep(b, ident, sin_elliptic_diffusion(1.0, 0.5), HALF, 0.0,
                          [16, 64], 60, RngStream(9, 0), SolverConfig(n_ref=1 << 10))
    assert all(mse == 0.0 for _, _, mse, _ in rep.levels)
    assert all(dist == 0.0 for _, dist, _, _ in rep.levels)


def test_initial_offset_with_shared_noise_is_preserved():
    # zero drift, constant sigma: the two solutions differ by exactly x1 - x2
    g = make_grid(1.0, 256)
    w = sample_brownian_batch(g, 1, RngStream(10, 0), 50)
    dw = np.diff(w, axis=1)
    a, _ = em_batch(zero_drift(), const_diffusion(1.0), HALF, np.full((50, 1), 0.0), dw, g.dt)
    b, _ = em_batch(zero_drift(), const_diffusion(1.0), HALF, np.full((50, 1), 0.75), dw, g.dt)
    sup2 = ((a - b) ** 2).sum(axis=2).max(axis=1)
    assert np.allclose(sup2, 0.75**2, atol=1e-12)


def test_stability_ramp_sequence_mse_drops():
    # start left of the plateau: the widest ramp still reaches x0 = -4, the
    # narrower ones do not, so the drift mismatch the paths see collapses
    seq = ramp_sequence(alpha=0.4, p=2.0, delta=0.5)
    rep = stability_sweep(indicator_drift(), seq, sin_elliptic_diffusion(1.0, 0.5),
                          HALF, -4.0, [16, 64, 256], 200, RngStream(11, 0),
                          SolverConfig(n_ref=1 << 11))
    mses = [mse for _, _, mse, _ in rep.levels]
    assert mses == sorted(mses, reverse=True)
    assert mses[-1] < mses[0] / 4


def _ramp_stability(levels, paths, stream, n_ref=256):
    return stability_sweep(indicator_drift(), ramp_sequence(alpha=0.4, p=2.0, delta=0.5),
                           sin_elliptic_diffusion(1.0, 0.5), HALF, -4.0, levels, paths,
                           stream, SolverConfig(n_ref=n_ref))


def test_each_stability_level_equals_its_one_level_sweep():
    # path j uses stream.child(j) at every level
    levels, paths, stream = [16, 64, 256], 40, RngStream(11, 2)
    rep = _ramp_stability(levels, paths, stream)
    for lv, ab, n in zip(rep.levels, rep.aborted, levels):
        one = _ramp_stability([n], paths, stream)
        assert one.levels == (lv,) and one.aborted == (ab,)


def test_stability_sweep_samples_and_solves_the_b_path_once_per_batch(monkeypatch):
    # 300 paths are two batches of 256; each batch draws its increments and
    # solves the b-driven path once, and one b_n-driven path per level
    calls = {"sample_brownian_batch": 0, "em_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    _ramp_stability([16, 64, 256], 300, RngStream(11, 3), n_ref=64)
    assert calls == {"sample_brownian_batch": 2, "em_batch": 8}


# ---------------------------------------------------------------------------
# tube probabilities
# ---------------------------------------------------------------------------


def test_huge_radius_hits_everything():
    g = make_grid(1.0, 256)
    t = make_target("const", g, 0.0)
    rep = tube_probability(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF,
                           0.0, t, 1e6, 500, RngStream(12, 0))
    assert rep.hits == rep.paths == 500
    assert rep.lower_confidence > 0.99


def test_simulated_path_is_in_the_bulk():
    # target = one previously simulated path of the same equation, drawn from
    # a stream disjoint from the fresh sample
    g = make_grid(1.0, 512)
    w = sample_brownian_batch(g, 1, RngStream(13, (1 << 33) + 4), 1)
    vals, st = em_batch(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF,
                        np.zeros((1, 1)), np.diff(w, axis=1), g.dt)
    assert st[0] == 0
    target = Path(g, vals[0])
    rep = tube_probability(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF,
                           0.0, target, 0.5, 10000, RngStream(13, 0))
    assert rep.hits > 0


def test_ladder_is_monotone_on_shared_samples():
    g = make_grid(1.0, 256)
    t = make_target("line", g, 0.0, slope=1.0)
    reports = tube_ladder(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF,
                          0.0, t, [0.25, 0.5, 1.0, 2.0], 2000, RngStream(14, 0))
    hits = [r.hits for r in reports]
    assert hits == sorted(hits)
    # shared samples: rerunning a single radius gives the identical count
    single = tube_probability(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), HALF,
                              0.0, t, 0.5, 2000, RngStream(14, 0))
    assert single.hits == hits[1]


def test_target_must_start_at_x0():
    g = make_grid(1.0, 64)
    t = make_target("const", g, 1.0)
    with pytest.raises(ValidationError):
        tube_probability(zero_drift(), identity_diffusion(), HALF, 0.0, t, 0.5,
                         100, RngStream(15, 0))


def test_make_target_kinds():
    g = make_grid(1.0, 4)
    assert np.allclose(make_target("const", g, 2.0).values[:, 0], 2.0)
    assert np.allclose(make_target("line", g, 1.0, slope=2.0).values[:, 0],
                       1.0 + 2.0 * g.nodes())
    sine = make_target("sine", g, 0.0, amp=0.3, freq=1.0)
    assert sine.values[0, 0] == 0.0
    with pytest.raises(ValidationError):
        make_target("spiral", g, 0.0)


# ---------------------------------------------------------------------------
# Girsanov weights
# ---------------------------------------------------------------------------


def test_zero_drift_weight_is_one():
    rho, y = girsanov_weight(zero_drift(), sin_elliptic_diffusion(1.0, 0.5), 0.0,
                             RngStream(16, 0), make_grid(1.0, 256))
    assert rho == 1.0
    assert y.values.shape == (257, 1)


def test_constant_drift_identity_sigma_closed_form():
    g = make_grid(1.0, 512)
    b = const_drift(0.8)
    rho, y = girsanov_weight(b, identity_diffusion(), 0.0, RngStream(17, 3), g)
    # Y = W here; the weight collapses to exp(b W_T - b^2 T / 2)
    w_t = y.values[-1, 0] - y.values[0, 0]
    assert abs(rho - np.exp(0.8 * w_t - 0.32)) < 1e-8


def test_mean_weight_is_one_within_three_se():
    rep = girsanov_mean(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), 0.0,
                        3000, RngStream(18, 0), make_grid(1.0, 2048))
    assert rep.stderr > 0
    assert abs(rep.mean_rho - 1.0) < 3 * rep.stderr
    assert rep.max_weight > 0


def test_weights_are_positive():
    rhos = []
    for i in range(50):
        rho, _ = girsanov_weight(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5),
                                 0.0, RngStream(19, i), make_grid(1.0, 256))
        rhos.append(rho)
    assert np.all(np.asarray(rhos) > 0.0)


def test_girsanov_stderr_scaling_on_doubled_paths():
    g = make_grid(1.0, 512)
    small = girsanov_mean(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5),
                          0.0, 1500, RngStream(20, 0), g)
    big = girsanov_mean(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5),
                        0.0, 3000, RngStream(20, 0), g)
    assert 0.6 <= big.stderr / small.stderr <= 0.85
