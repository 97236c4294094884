import math

import numpy as np
import pytest

from wzsim.coeffs import (
    CorrectionMatrix,
    DriftField,
    check_hfn,
    correction_drift_batch,
    indicator_drift,
    lp_distance,
    lp_norm,
    mollified_indicator,
    mollified_sequence,
    ramp_approximation,
    ramp_sequence,
    schedule_chi,
    schedule_kappa,
)
from wzsim.core import RngStream, ValidationError
from wzsim.noise import estimate_s
from wzsim.registry import (
    DIFFUSIONS,
    const_diffusion,
    const_drift,
    gaussian_bump_drift,
    linear_diffusion,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)
from wzsim.solvers import _require_c1


def ramp_lp_exact(chi: float, p: float) -> float:
    """Exact L^p distance of the ramp surrogate from the indicator.

    Each flank contributes int_0^1 u^p (2/chi) du = 2/(chi (p+1)); adding
    the two disjoint flanks and taking the p-th root gives
    (4 / (chi (p+1)))^{1/p}.
    """
    return (4.0 / (chi * (p + 1.0))) ** (1.0 / p)


# ---------------------------------------------------------------------------
# L^p quadrature
# ---------------------------------------------------------------------------


def test_indicator_has_unit_norm_for_every_p():
    b = indicator_drift()
    # no analytic value is declared: both are the midpoint quadrature
    quad = DriftField(dim=1, fn=b.fn, support_radius=2.0)
    for p in (1.0, 2.0, 4.0, 7.0):
        assert lp_norm(b, p) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(quad, p) == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan, 0.5])
def test_lp_norm_rejects_a_non_finite_or_small_exponent(p):
    # a midpoint sum has no p = inf limit: it gave 1.0 for every field, though
    # sin_bump's sup is 0.906
    with pytest.raises(ValidationError, match="must be finite and >= 1"):
        lp_norm(sin_bump_drift(), p)
    with pytest.raises(ValidationError, match="must be finite and >= 1"):
        lp_distance(sin_bump_drift(), zero_drift(), p)


def test_zero_field_has_zero_norm():
    assert lp_norm(zero_drift(), 3.0) == 0.0


def test_unbounded_support_needs_declared_norm():
    anon = DriftField(dim=1, fn=lambda x: np.exp(-np.abs(x)), support_radius=np.inf)
    with pytest.raises(ValidationError):
        lp_norm(anon, 2.0)
    g = gaussian_bump_drift(amp=2.0, width=0.7)
    # analytic: |a| (w sqrt(2 pi / p))^(1/p)
    assert lp_norm(g, 2.0) == pytest.approx(2.0 * (0.7 * math.sqrt(math.pi)) ** 0.5)


def test_ramp_lp_distance_matches_exact_closed_form():
    b = indicator_drift()
    for p in (2.0, 4.0):
        for chi in (1.0, 5.0, 20.0):
            bn = ramp_approximation(chi)
            got = lp_distance(b, bn, p)
            assert got == pytest.approx(ramp_lp_exact(chi, p), rel=1e-3)


def test_ramp_lp_distance_p1_matches_both_forms():
    # at p = 1 the two-triangle area 2/chi equals the flank-sum form as well
    b = indicator_drift()
    bn = ramp_approximation(5.0)
    assert lp_distance(b, bn, 1.0) == pytest.approx(2.0 / 5.0, rel=1e-4)


# ---------------------------------------------------------------------------
# ramp construction
# ---------------------------------------------------------------------------


def test_ramp_branch_values():
    chi = 4.0
    bn = ramp_approximation(chi)
    assert bn(np.array([[0.5]]))[0, 0] == 1.0
    assert bn(np.array([[-2.0 / chi]]))[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert bn(np.array([[1.0 + 2.0 / chi]]))[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert bn(np.array([[-1.0 / chi]]))[0, 0] == pytest.approx(0.5)
    assert bn(np.array([[50.0]]))[0, 0] == 0.0


def _ramp_masked(x, c):
    """The ramp as three masked flanks; the field must give the same bits."""
    out = np.zeros_like(x)
    left = (x >= -2.0 / c) & (x < 0.0)
    right = (x > 1.0) & (x <= 1.0 + 2.0 / c)
    mid = (x >= 0.0) & (x <= 1.0)
    out[left] = c * x[left] / 2.0 + 1.0
    out[mid] = 1.0
    out[right] = -c * x[right] / 2.0 + (c + 2.0) / 2.0
    return out


def _floats_around(x0, count=50):
    """x0 and the count neighbouring floats on either side of it."""
    out = [x0]
    for direction in (-np.inf, np.inf):
        x = x0
        for _ in range(count):
            x = np.nextafter(x, direction)
            out.append(x)
    return out


# the rate-sweep schedule's chi at n = 16 and 128, and a spread of widths.
# At chi = 0.3, (chi + 2)/2 - chi/2 rounds below 1, so a form without the
# select at x = 1 would miss 1 just below x = 1; at 1756.564449469384 the
# masked right flank rounds below 0 just below 1 + 2/chi
RAMP_CHIS = [schedule_chi(16, 0.4), schedule_chi(128, 0.4), 0.3, 1.0, 1.9100141734189666, 4.0,
             7.25, 1756.564449469384]


@pytest.mark.parametrize("chi", RAMP_CHIS)
def test_ramp_matches_its_masked_definition_bit_for_bit(chi):
    rng = np.random.default_rng(int(chi * 1000))
    near = [v for bp in (-2.0 / chi, 0.0, 1.0, 1.0 + 2.0 / chi) for v in _floats_around(bp)]
    far = [np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324]
    x = np.concatenate([rng.uniform(-2.0 / chi - 1.0, 2.0 + 2.0 / chi, 200_000), near, far])[:, None]
    with np.errstate(over="ignore"):  # x chi/2 at x = +-1e308
        got = ramp_approximation(chi)(x)
    want = _ramp_masked(x, chi)
    assert np.all((got >= 0.0) & (got <= 1.0))
    # where the masked form rounds a right-flank value below 0, the field gives +0.0
    clipped = want < 0.0
    assert np.all((x[clipped] > 1.0) & (x[clipped] <= 1.0 + 2.0 / chi))
    assert np.array_equal(got[~clipped].view(np.int64), want[~clipped].view(np.int64))
    assert np.all(got[clipped].view(np.int64) == 0)
    if chi == RAMP_CHIS[-1]:
        assert clipped.any()
    # the one change on non-finite input: NaN propagates instead of giving 0.0
    nan = np.array([[np.nan]])
    assert _ramp_masked(nan, chi)[0, 0] == 0.0
    assert np.isnan(ramp_approximation(chi)(nan)[0, 0])


def test_ramp_c1_metadata():
    chi = 6.0
    bn = ramp_approximation(chi)
    assert bn.c1_norm == pytest.approx((chi + 2.0) / 2.0)
    _require_c1(bn)


def test_ramp_rejects_nonpositive_chi():
    with pytest.raises(ValidationError):
        ramp_approximation(0.0)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _gaussian_window(x: float, kappa: float) -> float:
    """sqrt(kappa/2pi) int_0^1 exp(-kappa (x - y)^2 / 2) dy by adaptive quadrature."""
    from scipy import integrate

    val, _ = integrate.quad(lambda y: math.exp(-kappa * (x - y) ** 2 / 2.0), 0.0, 1.0,
                            points=[x] if 0.0 < x < 1.0 else None, epsabs=1e-13, epsrel=1e-12)
    return math.sqrt(kappa / (2.0 * math.pi)) * val


def test_mollified_indicator_against_gaussian_cdf_oracle():
    # the closed form (Phi(x sqrt(kappa)) - Phi((x-1) sqrt(kappa))) against the
    # Gaussian window integrated over the indicator's support
    for kappa in (0.5, 100.0, 1e4):
        closed = mollified_indicator(kappa)
        xs = np.linspace(-0.5, 1.5, 41)
        quad = np.array([_gaussian_window(x, kappa) for x in xs])
        assert np.allclose(closed(xs[:, None])[:, 0], quad, rtol=0.0, atol=1e-9)
    assert abs(mollified_indicator(1e4)(np.array([[0.5]]))[0, 0] - 1.0) < 1e-3


def test_mollified_indicator_symmetry_about_half():
    bn = mollified_indicator(25.0)
    u = np.linspace(0.0, 0.49, 20)
    left = bn((0.5 - u)[:, None])
    right = bn((0.5 + u)[:, None])
    assert np.max(np.abs(left - right)) < 1e-10


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


def test_chi_schedule_values():
    assert schedule_chi(1, 0.5) == 0.0
    n = round(math.exp(8.0))
    assert schedule_chi(n, 0.5) == pytest.approx(2.0, abs=1e-3)
    vals = [schedule_chi(n, 0.3) for n in range(1, 2000, 17)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_kappa_schedule_values():
    assert schedule_kappa(1, 0.5, 1.0) == 0.0
    n = round(math.exp(8.0))
    assert schedule_kappa(n, 0.5, 2.0) == pytest.approx(0.0, abs=1e-4)
    assert schedule_kappa(n, 0.5, 0.5) == pytest.approx(3.0, abs=1e-3)


def test_schedules_reject_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValidationError):
            schedule_chi(10, alpha)
        with pytest.raises(ValidationError):
            schedule_kappa(10, alpha, 1.0)


# ---------------------------------------------------------------------------
# approximation sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seq_builder", [ramp_sequence, mollified_sequence])
def test_sequences_satisfy_membership(seq_builder):
    seq = seq_builder(alpha=0.4, p=2.0)
    ns = [2**4, 2**6, 2**8, 2**10]
    dists = [lp_distance(seq.base, seq.generator(n), seq.p) for n in ns]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))  # nonincreasing
    for n in ns:
        assert seq.check_member(n)


def test_sequence_validation_catches_broken_bound():
    from wzsim.coeffs import DriftApproxSequence

    good = ramp_sequence(alpha=0.4, p=2.0)
    bad_member = ramp_approximation(50.0)  # C^1 norm 26 >> bound(16)
    broken = DriftApproxSequence(base=good.base, p=2.0,
                                 generator=lambda n: bad_member,
                                 bound=good.bound, delta=good.delta)
    assert not broken.check_member(16)


# ---------------------------------------------------------------------------
# joint speed condition
# ---------------------------------------------------------------------------


def _with_bound(seq, bound):
    from wzsim.coeffs import DriftApproxSequence

    return DriftApproxSequence(base=seq.base, p=seq.p, generator=seq.generator,
                               bound=bound, delta=seq.delta)


def test_hfn_power_law_schedule_converges():
    seq = _with_bound(ramp_sequence(alpha=0.4, p=2.0), lambda n: 1.0)
    rep = check_hfn(seq, [2**k for k in range(4, 15, 2)])
    # e * 2 n^{-1/2}: consecutive log ratios follow the power law
    expect = 0.5 * np.log(np.asarray(rep.n_list[:-1], dtype=float) / np.asarray(rep.n_list[1:]))
    assert np.allclose(np.diff(rep.log_values), expect, rtol=1e-12)
    assert rep.converging


@pytest.mark.parametrize("build", [ramp_sequence, mollified_sequence])
def test_hfn_log_values_keep_their_bits(build):
    # both schedules have h(n) ||b||_p = sqrt(0.4 log n), so they share these values
    rep = check_hfn(build(0.4, 2.0, 0.5), [16, 32, 64, 128, 1024])
    assert [repr(v) for v in rep.log_values.tolist()] == [
        "0.4689718564880808", "0.5231680959119713", "0.5637727250768356",
        "0.5934827431987666", "0.6346142489783864"]


def test_hfn_ramp_schedule_tail_decreases():
    seq = ramp_sequence(alpha=0.4, p=2.0, delta=0.5)  # alpha + delta < 1
    rep = check_hfn(seq, [2**k for k in range(4, 15, 2)])
    assert rep.tail_decreasing


def test_hfn_linear_growth_diverges():
    seq = _with_bound(ramp_sequence(alpha=0.4, p=2.0), lambda n: float(n))
    rep = check_hfn(seq, [2**4, 2**6, 2**8])
    assert not rep.converging
    assert rep.log_values[-1] > rep.log_values[0]


def test_hfn_rejects_empty_levels():
    with pytest.raises(ValidationError):
        check_hfn(ramp_sequence(0.4, 2.0), [])


# ---------------------------------------------------------------------------
# correction matrix and drift
# ---------------------------------------------------------------------------


def test_correction_matrix_invariant():
    CorrectionMatrix(np.array([[0.5, 0.3], [-0.3, 0.5]]))
    with pytest.raises(ValidationError):
        CorrectionMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]))


@pytest.mark.parametrize("call,what", [
    (lambda: CorrectionMatrix(np.zeros((0, 0))), "correction matrix"),
    (lambda: CorrectionMatrix(np.zeros((2, 3))), "correction matrix"),
    (lambda: CorrectionMatrix.from_area_matrix(np.zeros((0, 0))), "area matrix"),
    (lambda: CorrectionMatrix.from_area_matrix(np.zeros((2, 3))), "area matrix"),
])
def test_an_empty_or_non_square_matrix_is_rejected_by_name(call, what):
    with pytest.raises(ValidationError, match=f"{what} must be square and at least 1 x 1"):
        call()


def test_correction_from_estimated_area_is_exact():
    from wzsim.noise import McShane
    from wzsim.shapes import linear_shape, power_shape

    fam = McShane(linear_shape(), power_shape(2.0))
    m = estimate_s(fam, 16, 400, RngStream(31, 0))
    c = CorrectionMatrix.from_area_matrix(m.values)
    assert np.max(np.abs(c.matrix + c.matrix.T - np.eye(2))) == 0.0


def test_correction_drift_constant_sigma_vanishes():
    sig = const_diffusion(2.0, d=3)
    c = CorrectionMatrix.half_identity(3)
    assert np.all(correction_drift_batch(sig, c, np.array([[0.4, -1.0, 2.0]])) == 0.0)


def test_correction_drift_linear_sigma():
    sig = linear_diffusion()
    c = CorrectionMatrix.half_identity(1)
    x = np.array([[1.7]])
    assert correction_drift_batch(sig, c, x)[0, 0] == pytest.approx(1.7 / 2)


def test_correction_drift_sin_elliptic_values():
    sig = sin_elliptic_diffusion(1.0, 0.5)
    c = CorrectionMatrix.half_identity(1)
    x = np.array([[0.0], [math.pi / 2], [math.pi]])
    expect = (1 + 0.5 * np.sin(x)) * (0.5 * np.cos(x)) / 2
    assert np.allclose(correction_drift_batch(sig, c, x), expect, rtol=0.0, atol=1e-12)


def test_correction_drift_linear_in_c():
    # doubling c means a matrix with c'+c'^T = 2I, outside the type's
    # invariant, so linearity is asserted on the raw batch evaluator
    from types import SimpleNamespace

    sig = sin_elliptic_diffusion(1.0, 0.5)
    x = np.array([[0.7]])
    c1 = CorrectionMatrix.half_identity(1)
    v1 = correction_drift_batch(sig, c1, x)
    v2 = correction_drift_batch(sig, SimpleNamespace(matrix=2.0 * c1.matrix), x)
    assert np.allclose(v2, 2.0 * v1)


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------


DIFFUSION_PARAMS = {"const": {"s0": 1.7}, "sin_elliptic": {"a": 1.0, "b": 0.5}}


@pytest.mark.parametrize("name", sorted(DIFFUSIONS))
def test_declared_ellipticity_bounds_s_squared(name):
    # every registry diffusion is diag(s(x_i)), so the Rayleigh quotients of
    # sigma sigma* range over s(x)^2; the declared K must bracket them
    sigma = DIFFUSIONS[name](**DIFFUSION_PARAMS.get(name, {}))
    s2 = sigma.scalar(np.linspace(-10.0, 10.0, 4001)[:, None]) ** 2
    k = sigma.ellipticity
    assert 1.0 / k - 1e-12 <= s2.min() and s2.max() <= k + 1e-12
    if name == "identity":
        assert k == 1.0 and np.all(s2 == 1.0)
    if name == "sin_elliptic":
        assert s2.min() == pytest.approx(0.25, abs=1e-6) and s2.max() == pytest.approx(2.25, abs=1e-6)


# a registry field's constant form and the *_like expression it replaces
CONSTANT_FORMS = {
    "zero_drift": (zero_drift().fn, np.zeros_like),
    "const_drift": (const_drift(-2.5).fn, lambda x: np.full_like(x, -2.5)),
    "const_drift_negative_zero": (const_drift(-0.0).fn, lambda x: np.full_like(x, -0.0)),
    "const_diffusion_s": (const_diffusion(1.7).scalar, lambda x: np.full_like(x, 1.7)),
    "const_diffusion_ds": (const_diffusion(1.7).scalar_grad, np.zeros_like),
    "linear_diffusion_ds": (linear_diffusion().scalar_grad, np.ones_like),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("form", sorted(CONSTANT_FORMS))
def test_constant_forms_equal_their_like_expressions(form, d):
    fn, like = CONSTANT_FORMS[form]
    x = np.linspace(-3.0, 3.0, 7 * d).reshape(7, d)
    got = fn(x)
    assert got.dtype == np.float64 and got.shape == (7, d)
    assert np.array_equal(got.view(np.int64), like(x).view(np.int64))


def test_linear_diffusion_flagged_degenerate():
    # s(x) = x vanishes at 0: no finite K holds, and the field declares K = inf
    sigma = linear_diffusion()
    assert sigma.ellipticity == np.inf
    assert sigma.scalar(np.array([[0.0]]))[0, 0] == 0.0


def test_sin_bump_metadata_consistent():
    _require_c1(sin_bump_drift())


NON_FINITE_BUILDERS = {
    "const_drift_v": const_drift,
    "ramp_chi": ramp_approximation,
    "mollified_kappa": mollified_indicator,
    "const_diffusion_s0": const_diffusion,
    "sin_elliptic_a": lambda v: sin_elliptic_diffusion(v, 0.5),
    "sin_elliptic_b": lambda v: sin_elliptic_diffusion(1.0, v),
    "gaussian_bump_amp": lambda v: gaussian_bump_drift(v, 1.0),
    "gaussian_bump_width": lambda v: gaussian_bump_drift(1.0, v),
    "sin_bump_radius": sin_bump_drift,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("builder", sorted(NON_FINITE_BUILDERS))
def test_field_builders_reject_a_non_finite_parameter(builder, value):
    # a check written as x <= 0 lets nan through, and x > 0 lets inf through
    with pytest.raises(ValidationError):
        NON_FINITE_BUILDERS[builder](value)
