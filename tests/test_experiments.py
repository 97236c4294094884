import dataclasses

import numpy as np
import pytest

from wzsim import experiments, solvers
from wzsim.coeffs import (CorrectionMatrix, DiffusionField, DriftApproxSequence, ramp_approximation,
                          ramp_sequence)
from wzsim.core import Path, RngStream, ValidationError, make_grid, sample_brownian_batch
from wzsim.experiments import (
    AbortRateError,
    fit_rate,
    girsanov_mean,
    make_target,
    mc_mean_sup_error,
    rate_sweep,
    stability_sweep,
    tube_ladder,
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
from wzsim.solvers import Model, em_batch

HALF = CorrectionMatrix.half_identity(1)
LIN = PiecewiseShape(linear_shape())
SIN_ELL = sin_elliptic_diffusion(1.0, 0.5)


def _model(drift=None, sigma=None, n_ref=1 << 10, x0=0.0, c=HALF):
    """The d = 1 model of sin_bump (or drift) and sin_elliptic (or sigma) on [0, 1]."""
    return Model(drift if drift is not None else sin_bump_drift(),
                 sigma if sigma is not None else SIN_ELL, c, x0, make_grid(1.0, n_ref))


# ---------------------------------------------------------------------------
# mean sup error
# ---------------------------------------------------------------------------


def test_zero_setup_reports_exact_zero():
    m = _model(drift=zero_drift(), sigma=_zero_sigma())
    r = mc_mean_sup_error(m, LIN, 16, 50, RngStream(1, 0))
    assert r.estimate == 0.0
    assert r.aborted == 0


def _zero_sigma():
    return DiffusionField(dim=1,
                          sigma=lambda x: np.zeros((x.shape[0], 1, 1)),
                          grad=lambda x: np.zeros((x.shape[0], 1, 1, 1)),
                          ellipticity=np.inf,
                          name="zero_sigma")


def test_estimate_shrinks_at_finer_noise_levels():
    m = _model(n_ref=1 << 11)
    coarse = mc_mean_sup_error(m, LIN, 16, 200, RngStream(2, 0))
    fine = mc_mean_sup_error(m, LIN, 64, 200, RngStream(2, 0))
    margin = 3 * np.hypot(coarse.stderr, fine.stderr)
    assert fine.estimate < coarse.estimate - margin


def test_estimate_is_deterministic():
    m = _model()
    a = mc_mean_sup_error(m, LIN, 16, 60, RngStream(3, 9))
    b = mc_mean_sup_error(m, LIN, 16, 60, RngStream(3, 9))
    assert a.estimate == b.estimate and a.stderr == b.stderr


BATCHED_ESTIMATORS = {
    "mc_mean_sup_error": lambda: mc_mean_sup_error(_model(), LIN, 16, 70, RngStream(4, 0)),
    # the multi-level driver behind mc_mean_sup_error and rate_sweep
    "mc_mean_sup_error_three_levels": lambda: experiments._mean_sup_errors(
        _model(n_ref=128), LIN, [16, 32, 64], 70, RngStream(4, 4), None, 4),
    "stability_sweep": lambda: stability_sweep(
        _model(indicator_drift(), n_ref=256), ramp_sequence(alpha=0.4, p=2.0, delta=0.5),
        [16, 64], 70, RngStream(4, 1)),
    # the target paths are inputs echoed into every report; compare the rest.
    # Two targets: the batches are shared across them
    "tube_ladder": lambda: [dataclasses.replace(r, target=None) for r in tube_ladder(
        _model(indicator_drift(), n_ref=256),
        [make_target(kind, make_grid(1.0, 256), 0.0) for kind in ("line", "sine")],
        [0.25, 0.5, 1.0], 70, RngStream(4, 2))],
    "girsanov_mean": lambda: girsanov_mean(_model(indicator_drift(), n_ref=256), 70, RngStream(4, 3)),
}


@pytest.mark.parametrize("estimator", sorted(BATCHED_ESTIMATORS))
def test_batched_and_unbatched_estimates_agree(monkeypatch, estimator):
    # path i always consumes stream.child(i), so the batch size (7 divides
    # the 70 paths, 16 does not, 70 is one batch) must not change a single
    # field of the report
    def run(batch):
        for name in ("SWEEP_BATCH", "EULER_BATCH"):
            monkeypatch.setattr(experiments, name, batch)
        return BATCHED_ESTIMATORS[estimator]()

    unbatched = run(70)
    assert run(7) == unbatched
    assert run(16) == unbatched


def test_driver_counts_non_finite_values_as_aborted():
    # paths 5 and 7 return NaN (a solver leaves an aborted path NaN) and path
    # 6 inf: all three are aborted and left out of the values
    def simulate(s, m):
        v = np.arange(s.stream_id, s.stream_id + m, dtype=float)
        v[(v == 5) | (v == 7)] = np.nan
        v[v == 6] = np.inf
        return v

    (values,), (aborted,) = experiments._run_paths(simulate, 300, RngStream(0, 0), 16)
    assert aborted == 3
    assert values.tolist() == [float(i) for i in range(300) if i not in (5, 6, 7)]
    with pytest.raises(AbortRateError):
        experiments._run_paths(simulate, 200, RngStream(0, 0), 16)


def test_driver_applies_the_abort_rule_per_level():
    # two levels: path 3 is NaN at both (an aborted SDE reference), path 8 at
    # level 0 only and path 4 at level 1 only (an aborted level ODE)
    def simulate(s, m):
        ids = np.arange(s.stream_id, s.stream_id + m, dtype=float)
        v = np.stack([ids, ids + 0.5], axis=1)
        v[ids == 3] = np.nan
        v[ids == 8, 0] = np.nan
        v[ids == 4, 1] = np.nan
        return v

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


def _on_a_2d_base():
    """A schedule of d = 1 ramps on the d = 2 zero drift (so p > 2): it pairs with a
    d = 2 zero-drift model, whose Model check then stops each level."""
    return DriftApproxSequence(base=zero_drift(2), p=3.0, generator=lambda n: ramp_approximation(5.0),
                               bound=lambda n: 1e3, delta=0.5)


def _ramp_seq(edit):
    """The alpha = 0.4 ramp schedule with each member b_n replaced by edit(b_n, n)."""
    seq = ramp_sequence(alpha=0.4, p=2.0)
    return dataclasses.replace(seq, generator=lambda n: edit(seq.generator(n), n))


# d = 2 parts, for models whose parts disagree
SIN_ELL_2 = sin_elliptic_diffusion(1.0, 0.5, d=2)
HALF_2 = CorrectionMatrix.half_identity(2)
GRID_64 = make_grid(1.0, 64)

FAIL_FAST_CALLS = {
    "rate_sweep_two_levels": lambda: rate_sweep(_model(), LIN, [16, 32], 30, RngStream(0, 0)),
    "rate_sweep_repeated_level": lambda: rate_sweep(_model(), LIN, [16, 32, 32], 30, RngStream(0, 0)),
    "rate_sweep_m_ode_below_4": lambda: rate_sweep(_model(), LIN, [16, 32, 64], 30, RngStream(0, 0),
                                                   m_ode=3),
    # smooth at n = 16, singular at n = 32: one batch spans every level, so
    # the later level must be checked before the first path
    "rate_sweep_later_level_not_c1": lambda: rate_sweep(
        _model(drift=indicator_drift()), LIN, [16, 32, 64], 30, RngStream(0, 0), DriftApproxSequence(
            base=indicator_drift(), p=2.0,
            generator=lambda n: sin_bump_drift() if n == 16 else indicator_drift(),
            bound=lambda n: 1e3, delta=0.5)),
    # C^1 metadata at every level, but the n = 64 ramp declares a slope bound
    # (0.01) below its own slope: the central-difference check stops the sweep
    "rate_sweep_later_level_understates_its_slope": lambda: rate_sweep(
        _model(drift=indicator_drift()), LIN, [16, 32, 64], 30, RngStream(0, 0),
        _ramp_seq(lambda b_n, n: dataclasses.replace(b_n, sup_grad=0.01) if n == 64 else b_n)),
    # the n = 64 member's C^1 norm exceeds h(64) ||b||_p: the sequence check stops it
    "rate_sweep_later_member_breaks_its_bound": lambda: rate_sweep(
        _model(drift=indicator_drift()), LIN, [16, 32, 64], 30, RngStream(0, 0),
        _ramp_seq(lambda b_n, n: ramp_approximation(50.0) if n == 64 else b_n)),
    # a d = 1 schedule on a d = 2 model
    "rate_sweep_level_of_another_dimension": lambda: rate_sweep(
        Model(zero_drift(2), SIN_ELL_2, HALF_2, 0.0, GRID_64), LIN, [16, 32, 64], 30, RngStream(0, 0),
        ramp_sequence(alpha=0.4, p=2.0)),
    "rate_sweep_paired_level_of_another_dimension": lambda: rate_sweep(
        Model(zero_drift(2), SIN_ELL_2, HALF_2, 0.0, GRID_64), LIN, [16, 32, 64], 30, RngStream(0, 0),
        _on_a_2d_base()),
    # the ramp schedule smooths the indicator, not the model's sin_bump
    "rate_sweep_drift_not_the_schedules_base": lambda: rate_sweep(
        _model(), LIN, [16, 32, 64], 30, RngStream(0, 0), ramp_sequence(alpha=0.4, p=2.0)),
    # p = 1.5 is outside the theorem's p >= 2
    "rate_sweep_p_below_2": lambda: rate_sweep(
        _model(drift=indicator_drift()), LIN, [16, 32, 64], 30, RngStream(0, 0),
        ramp_sequence(alpha=0.4, p=1.5)),
    "rate_sweep_x0_of_another_dimension": lambda: rate_sweep(
        _model(x0=np.zeros(2)), LIN, [16, 32, 64], 30, RngStream(0, 0)),
    # no drift sequence: the random ODE would run on the indicator itself
    "mc_mean_sup_error_singular_ode_drift": lambda: mc_mean_sup_error(
        _model(drift=indicator_drift()), LIN, 16, 30, RngStream(0, 0)),
    "stability_sweep_drift_of_another_dimension": lambda: stability_sweep(
        Model(indicator_drift(), SIN_ELL_2, HALF_2, np.zeros(2), GRID_64),
        ramp_sequence(alpha=0.4, p=2.0), [16, 64], 100, RngStream(0, 0)),
    "stability_sweep_level_of_another_dimension": lambda: stability_sweep(
        Model(zero_drift(2), SIN_ELL_2, HALF_2, 0.0, GRID_64),
        ramp_sequence(alpha=0.4, p=2.0), [16, 64], 100, RngStream(0, 0)),
    "stability_sweep_paired_level_of_another_dimension": lambda: stability_sweep(
        Model(zero_drift(2), SIN_ELL_2, HALF_2, 0.0, GRID_64), _on_a_2d_base(), [16, 64], 100,
        RngStream(0, 0)),
    "stability_sweep_drift_not_the_schedules_base": lambda: stability_sweep(
        _model(zero_drift(), n_ref=64), ramp_sequence(alpha=0.4, p=2.0), [16, 64], 100, RngStream(0, 0)),
    "stability_sweep_p_below_2": lambda: stability_sweep(
        _model(indicator_drift(), n_ref=64), ramp_sequence(alpha=0.4, p=1.5), [16, 64], 100,
        RngStream(0, 0)),
    "tube_ladder_zero_radius": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0)], [0.5, 0.0], 100, RngStream(0, 0)),
    "tube_ladder_nan_radius": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0)], [0.5, float("nan")], 100, RngStream(0, 0)),
    "tube_ladder_infinite_radius": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0)], [0.5, float("inf")], 100, RngStream(0, 0)),
    "tube_ladder_no_target": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64), [], [0.5], 100, RngStream(0, 0)),
    "tube_ladder_no_radius": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0)], [], 100, RngStream(0, 0)),
    # the second target lies on another grid than the model's, or starts away from x0
    "tube_ladder_target_on_another_grid": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0),
         make_target("line", make_grid(1.0, 128), 0.0)], [0.5], 100, RngStream(0, 0)),
    "tube_ladder_target_away_from_x0": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [make_target("const", GRID_64, 0.0),
         make_target("line", GRID_64, 1.0)], [0.5], 100, RngStream(0, 0)),
    "tube_ladder_correction_of_another_dimension": lambda: tube_ladder(
        _model(indicator_drift(), n_ref=64, c=HALF_2),
        [make_target("const", GRID_64, 0.0)], [0.5], 100, RngStream(0, 0)),
    # a target with a NaN node, or a NaN start, would make every sup distance NaN
    "tube_ladder_target_with_a_nan_node": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [Path(GRID_64, np.where(GRID_64.nodes() == 0.5, np.nan, 0.0))], [0.5], 100, RngStream(0, 0)),
    "tube_ladder_target_with_a_nan_start": lambda: tube_ladder(
        _model(zero_drift(), identity_diffusion(), n_ref=64),
        [Path(GRID_64, np.where(GRID_64.nodes() == 0.0, np.nan, 0.0))], [0.5], 100, RngStream(0, 0)),
    "make_target_nan_x0": lambda: make_target("const", GRID_64, float("nan")),
    "girsanov_mean_full_sigma": lambda: girsanov_mean(
        Model(zero_drift(2), _coupled_sigma(), HALF_2, np.zeros(2), GRID_64), 100, RngStream(0, 0)),
    "girsanov_weight_full_sigma": lambda: experiments._driftless_weights(
        Model(zero_drift(2), _coupled_sigma(), HALF_2, np.zeros(2), GRID_64), RngStream(0, 0), 1),
    # diagonal, but without the scalar form the weights read its diagonal from
    "girsanov_mean_diagonal_without_scalar_forms": lambda: girsanov_mean(
        _model(zero_drift(), dataclasses.replace(SIN_ELL, scalar=None, scalar_grad=None), n_ref=64),
        100, RngStream(0, 0)),
    "girsanov_mean_drift_of_another_dimension": lambda: girsanov_mean(
        Model(indicator_drift(), SIN_ELL_2, HALF_2, np.zeros(2), GRID_64), 100, RngStream(0, 0)),
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
    m = _model(drift=zero_drift(), sigma=const_diffusion(2.0), n_ref=256)
    r = mc_mean_sup_error(m, LIN, 256, 40, RngStream(5, 0))
    assert r.estimate < 1e-24


def test_abort_threshold_raises():
    m = _model(drift=const_drift(1e15), sigma=const_diffusion(1.0), n_ref=256)
    with pytest.raises(AbortRateError):
        mc_mean_sup_error(m, LIN, 16, 40, RngStream(6, 0))


def test_requires_minimum_paths():
    with pytest.raises(ValidationError):
        mc_mean_sup_error(_model(), LIN, 16, 10, RngStream(0, 0))


def test_stderr_scaling_on_doubled_paths():
    m = _model(n_ref=1 << 10)
    small = mc_mean_sup_error(m, LIN, 16, 250, RngStream(7, 0))
    big = mc_mean_sup_error(m, LIN, 16, 500, RngStream(7, 0))
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
    # fit_rate and _binomial_lcb take their quantiles from scipy.special, which
    # they import when called (the CLI's rate-sweep and tube load it before
    # their first path), so no run loads scipy.stats; the values must not move
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
    m, seq = _model(n_ref=256, drift=indicator_drift()), ramp_sequence(alpha=0.4, p=2.0, delta=0.5)
    levels, paths, stream = [16, 32, 64], 40, RngStream(8, 3)
    rep = rate_sweep(m, LIN, levels, paths, stream, seq)
    r = mc_mean_sup_error(m, LIN, levels[0], paths, stream, seq)
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
    rate_sweep(_model(n_ref=64), LIN, [4, 8, 16, 32], 300, RngStream(8, 4), m_ode=4)
    assert calls == {"sample_brownian_batch": 2, "em_batch": 2, "rk4_batch": 8}


def test_a_sweep_checks_its_levels_before_its_first_batch_and_in_every_batch(monkeypatch):
    # 300 paths are two batches of 256: the sweep runs _check_levels (with the
    # central-difference C^1 check) before its first batch, and every
    # coupled_batch call checks the levels it is given again (about 1 ms a
    # call, against 0.65 s for one 256-path batch of the benchmark's sweep)
    calls = []

    def counted(*args, _fn=solvers._check_levels, **kwargs):
        calls.append([n for n, _ in args[2]])
        return _fn(*args, **kwargs)

    for module in (solvers, experiments):
        monkeypatch.setattr(module, "_check_levels", counted)
    model = _model(drift=indicator_drift(), n_ref=128)
    rate_sweep(model, LIN, [16, 32, 64], 300, RngStream(8, 4), ramp_sequence(), m_ode=4)
    assert calls == [[16, 32, 64]] * 3
    solvers.coupled_batch(model, LIN, [(16, ramp_approximation(1.0))], RngStream(8, 4), 3, m_ode=4)
    assert calls == [[16, 32, 64]] * 3 + [[16]]


def test_rate_sweep_reports_negative_slope():
    rep = rate_sweep(_model(n_ref=1 << 11), LIN, [16, 32, 64, 128], 120, RngStream(8, 0))
    assert rep.slope < -0.5
    assert len(rep.points) == 4


# ---------------------------------------------------------------------------
# stability sweep
# ---------------------------------------------------------------------------


def test_stability_identity_sequence_is_exact_zero():
    from wzsim.coeffs import DriftApproxSequence

    b = indicator_drift()
    ident = DriftApproxSequence(base=b, p=2.0, generator=lambda n: b,
                                bound=lambda n: 1.0, delta=0.5)
    rep = stability_sweep(_model(b), ident, [16, 64], 60, RngStream(9, 0))
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
    rep = stability_sweep(_model(indicator_drift(), n_ref=1 << 11, x0=-4.0), seq, [16, 64, 256], 200,
                          RngStream(11, 0))
    mses = [mse for _, _, mse, _ in rep.levels]
    assert mses == sorted(mses, reverse=True)
    assert mses[-1] < mses[0] / 4


def _ramp_stability(levels, paths, stream, n_ref=256):
    return stability_sweep(_model(indicator_drift(), n_ref=n_ref, x0=-4.0),
                           ramp_sequence(alpha=0.4, p=2.0, delta=0.5), levels, paths, stream)


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
    (rep,) = tube_ladder(_model(indicator_drift(), n_ref=256), [t], [1e6], 500, RngStream(12, 0))
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
    (rep,) = tube_ladder(_model(indicator_drift(), n_ref=512), [target], [0.5], 10000, RngStream(13, 0))
    assert rep.hits > 0


def test_ladder_is_monotone_on_shared_samples():
    g = make_grid(1.0, 256)
    t = make_target("line", g, 0.0)
    reports = tube_ladder(_model(indicator_drift(), n_ref=256), [t], [0.25, 0.5, 1.0, 2.0], 2000,
                          RngStream(14, 0))
    hits = [r.hits for r in reports]
    assert hits == sorted(hits)
    # shared samples: rerunning a single radius gives the identical count
    (single,) = tube_ladder(_model(indicator_drift(), n_ref=256), [t], [0.5], 2000, RngStream(14, 0))
    assert single.hits == hits[1]


def test_each_target_equals_its_one_target_ladder():
    # path i uses stream.child(i) for every target, so a three-target call is
    # three one-target calls on the same stream, target-major, bit for bit
    g = make_grid(1.0, 256)
    targets = [make_target(kind, g, 0.0) for kind in ("const", "line", "sine")]
    ladder, stream = [0.25, 0.5, 1.0], RngStream(14, 1)
    reports = tube_ladder(_model(indicator_drift(), n_ref=256), targets, ladder, 1500, stream)
    assert len(reports) == 3 * len(ladder)
    for ti, target in enumerate(targets):
        one = tube_ladder(_model(indicator_drift(), n_ref=256), [target], ladder, 1500, stream)
        shared = reports[ti * len(ladder):(ti + 1) * len(ladder)]
        assert [(r.epsilon, r.hits, r.lower_confidence, r.aborted) for r in shared] == \
            [(r.epsilon, r.hits, r.lower_confidence, r.aborted) for r in one]
        assert all(np.array_equal(r.target.values, target.values) for r in shared)


def test_target_must_start_at_x0():
    g = make_grid(1.0, 64)
    t = make_target("const", g, 1.0)
    with pytest.raises(ValidationError):
        tube_ladder(_model(zero_drift(), identity_diffusion(), n_ref=64), [t], [0.5], 100, RngStream(15, 0))


def test_make_target_kinds():
    g = make_grid(1.0, 4)
    assert np.allclose(make_target("const", g, 2.0).values[:, 0], 2.0)
    assert np.allclose(make_target("line", g, 1.0).values[:, 0], 1.0 + g.nodes())
    sine = make_target("sine", g, 0.0)
    assert np.allclose(sine.values[:, 0], 0.3 * np.sin(2.0 * np.pi * g.nodes()))
    assert sine.values[0, 0] == 0.0
    with pytest.raises(ValidationError):
        make_target("spiral", g, 0.0)


# ---------------------------------------------------------------------------
# Girsanov weights
# ---------------------------------------------------------------------------


def test_zero_drift_weight_is_one():
    rho, y = experiments._driftless_weights(_model(zero_drift(), n_ref=256), RngStream(16, 0), 1)
    assert rho.tolist() == [1.0]
    assert y.shape == (1, 257, 1)


def test_constant_drift_identity_sigma_closed_form():
    m = _model(const_drift(0.8), identity_diffusion(), n_ref=512)
    rho, y = experiments._driftless_weights(m, RngStream(17, 3), 4)
    # Y = W here; the weight collapses to exp(b W_T - b^2 T / 2)
    w_t = y[:, -1, 0] - y[:, 0, 0]
    assert np.max(np.abs(rho - np.exp(0.8 * w_t - 0.32))) < 1e-8


def test_mean_weight_is_one_within_three_se():
    rep = girsanov_mean(_model(indicator_drift(), n_ref=2048), 3000, RngStream(18, 0))
    assert rep.stderr > 0
    assert abs(rep.mean_rho - 1.0) < 3 * rep.stderr
    assert rep.max_weight > 0


def test_girsanov_counts_a_path_that_aborts_on_its_last_step(monkeypatch):
    # path 0 of the driftless Euler batch is NaN at its last node only, as
    # em_batch leaves a path that aborts on its last step: the weight's
    # left-point sums never read that node, so only the node itself can mark
    # the path as aborted
    solve = experiments.em_batch

    def abort_on_last_step(*args, **kwargs):
        vals, status = solve(*args, **kwargs)
        vals, status = vals.copy(), status.copy()
        vals[0, -1] = np.nan
        status[0] = vals.shape[1] - 1
        return vals, status

    monkeypatch.setattr(experiments, "em_batch", abort_on_last_step)
    assert girsanov_mean(_model(indicator_drift(), n_ref=256), 200, RngStream(21, 0)).aborted == 1


def test_weights_are_positive():
    rhos, _ = experiments._driftless_weights(_model(indicator_drift(), n_ref=256), RngStream(19, 0), 50)
    assert np.all(rhos > 0.0)


def test_girsanov_stderr_scaling_on_doubled_paths():
    m = _model(indicator_drift(), n_ref=512)
    small = girsanov_mean(m, 1500, RngStream(20, 0))
    big = girsanov_mean(m, 3000, RngStream(20, 0))
    assert 0.6 <= big.stderr / small.stderr <= 0.85
