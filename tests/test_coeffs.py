import math

import numpy as np
import pytest
from scipy import special

from wzsim.coeffs import (
    CorrectionMatrix,
    DriftField,
    check_hfn,
    correction_drift,
    indicator_drift,
    lp_distance,
    lp_norm,
    mollified_indicator,
    mollified_sequence,
    mollify_drift,
    ramp_approximation,
    ramp_sequence,
    schedule_chi,
    schedule_kappa,
    validate_assumptions,
    validate_c1,
)
from wzsim.core import RngStream, ValidationError
from wzsim.noise import estimate_s
from wzsim.registry import (
    const_diffusion,
    gaussian_bump_drift,
    identity_diffusion,
    linear_diffusion,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)


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
    # analytic value is declared; the quadrature must agree
    quad = DriftField(dim=1, fn=b.fn, support_radius=2.0)
    for p in (1.0, 2.0, 4.0, 7.0):
        assert lp_norm(b, p) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(quad, p) == pytest.approx(1.0, rel=1e-6)


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


def test_ramp_c1_metadata():
    chi = 6.0
    bn = ramp_approximation(chi)
    assert bn.c1_norm == pytest.approx((chi + 2.0) / 2.0)
    assert validate_c1(bn, RngStream(4, 0))


def test_ramp_rejects_nonpositive_chi():
    with pytest.raises(ValidationError):
        ramp_approximation(0.0)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def test_mollify_preserves_constants_deep_inside():
    wide = DriftField(dim=1, fn=lambda x: np.where(np.abs(x) <= 50.0, 3.25, 0.0),
                      support_radius=50.0)
    bn = mollify_drift(wide, kappa=4.0)
    assert bn(np.array([[0.3]]))[0, 0] == pytest.approx(3.25, abs=1e-6)


def test_mollified_indicator_against_gaussian_cdf_oracle():
    # oracle: b*g_kappa(x) = Phi((x) sqrt(kappa)) - Phi((x-1) sqrt(kappa))
    kappa = 1e4
    quad = mollify_drift(indicator_drift(), kappa)
    x = np.array([[0.5]])
    oracle = 0.5 * (special.erf(0.5 * math.sqrt(kappa / 2)) - special.erf(-0.5 * math.sqrt(kappa / 2)))
    assert abs(oracle - 1.0) < 1e-3  # the oracle itself is ~1 at this kappa
    assert quad(x)[0, 0] == pytest.approx(oracle, abs=1e-9)
    assert abs(quad(x)[0, 0] - 1.0) < 1e-3
    # panels split at the indicator's jumps, so the quadrature stays sharp
    # across the whole line
    closed = mollified_indicator(100.0)
    quad100 = mollify_drift(indicator_drift(), 100.0)
    xs = np.linspace(-0.5, 1.5, 41)[:, None]
    assert np.allclose(quad100(xs), closed(xs), atol=1e-9)


def test_mollified_indicator_symmetry_about_half():
    bn = mollify_drift(indicator_drift(), 25.0)
    u = np.linspace(0.0, 0.49, 20)
    left = bn((0.5 - u)[:, None])
    right = bn((0.5 + u)[:, None])
    assert np.max(np.abs(left - right)) < 1e-10


def test_mollify_rejects_unbounded_support():
    with pytest.raises(ValidationError):
        mollify_drift(gaussian_bump_drift(), 1.0)


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
        assert seq.check_member(n, base_norm=1.0)


def test_sequence_validation_catches_broken_bound():
    from wzsim.coeffs import DriftApproxSequence

    good = ramp_sequence(alpha=0.4, p=2.0)
    bad_member = ramp_approximation(50.0)  # C^1 norm 26 >> bound(16)
    broken = DriftApproxSequence(base=good.base, p=2.0,
                                 generator=lambda n: bad_member,
                                 bound=good.bound, noise_rate=good.noise_rate,
                                 delta=good.delta)
    assert not broken.check_member(16, base_norm=1.0)


# ---------------------------------------------------------------------------
# joint speed condition
# ---------------------------------------------------------------------------


def _with_bound(seq, bound):
    from wzsim.coeffs import DriftApproxSequence

    return DriftApproxSequence(base=seq.base, p=seq.p, generator=seq.generator,
                               bound=bound, noise_rate=seq.noise_rate, delta=seq.delta)


def test_hfn_power_law_schedule_converges():
    seq = _with_bound(ramp_sequence(alpha=0.4, p=2.0), lambda n: 1.0)
    rep = check_hfn(seq, 1.0, [2**k for k in range(4, 15, 2)])
    # e * 2 n^{-1/2}: consecutive ratios follow the power law
    ratio = rep.values[1:] / rep.values[:-1]
    expect = (np.asarray(rep.n_list[:-1], dtype=float) / np.asarray(rep.n_list[1:])) ** 0.5
    assert np.allclose(ratio, expect, rtol=1e-12)
    assert rep.converging


def test_hfn_ramp_schedule_tail_decreases():
    seq = ramp_sequence(alpha=0.4, p=2.0, delta=0.5)  # alpha + delta < 1
    rep = check_hfn(seq, 1.0, [2**k for k in range(4, 15, 2)])
    assert rep.tail_decreasing


def test_hfn_linear_growth_diverges():
    seq = _with_bound(ramp_sequence(alpha=0.4, p=2.0), lambda n: float(n))
    rep = check_hfn(seq, 1.0, [2**4, 2**6, 2**8])
    assert not rep.converging
    assert rep.log_values[-1] > rep.log_values[0]


def test_hfn_rejects_empty_levels():
    with pytest.raises(ValidationError):
        check_hfn(ramp_sequence(0.4, 2.0), 1.0, [])


# ---------------------------------------------------------------------------
# correction matrix and drift
# ---------------------------------------------------------------------------


def test_correction_matrix_invariant():
    CorrectionMatrix(np.array([[0.5, 0.3], [-0.3, 0.5]]))
    with pytest.raises(ValidationError):
        CorrectionMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]))


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
    assert np.all(correction_drift(sig, c, np.array([0.4, -1.0, 2.0])) == 0.0)


def test_correction_drift_linear_sigma():
    sig = linear_diffusion()
    c = CorrectionMatrix.half_identity(1)
    x = np.array([1.7])
    assert correction_drift(sig, c, x)[0] == pytest.approx(1.7 / 2)


def test_correction_drift_sin_elliptic_values():
    sig = sin_elliptic_diffusion(1.0, 0.5)
    c = CorrectionMatrix.half_identity(1)
    for x in (0.0, math.pi / 2, math.pi):
        expect = (1 + 0.5 * math.sin(x)) * (0.5 * math.cos(x)) / 2
        assert correction_drift(sig, c, np.array([x]))[0] == pytest.approx(expect, abs=1e-12)


def test_correction_drift_linear_in_c():
    # doubling c means a matrix with c'+c'^T = 2I, outside the type's
    # invariant, so linearity is asserted on the raw batch evaluator
    from types import SimpleNamespace

    from wzsim.coeffs import correction_drift_batch

    sig = sin_elliptic_diffusion(1.0, 0.5)
    x = np.array([[0.7]])
    c1 = CorrectionMatrix.half_identity(1)
    v1 = correction_drift_batch(sig, c1, x)
    v2 = correction_drift_batch(sig, SimpleNamespace(matrix=2.0 * c1.matrix), x)
    assert np.allclose(v2, 2.0 * v1)


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------


def test_identity_diffusion_quotients_are_one():
    rep = validate_assumptions(identity_diffusion(2), 5.0, 500, RngStream(1, 0))
    assert rep.min_quotient == pytest.approx(1.0)
    assert rep.max_quotient == pytest.approx(1.0)
    assert rep.within_bounds


def test_sin_elliptic_quotients_within_band():
    rep = validate_assumptions(sin_elliptic_diffusion(1.0, 0.5), 10.0, 2000, RngStream(2, 0))
    assert 0.25 - 1e-9 <= rep.min_quotient <= rep.max_quotient <= 2.25 + 1e-9
    assert rep.within_bounds


def test_linear_diffusion_flagged_degenerate():
    rep = validate_assumptions(linear_diffusion(), 2.0, 2000, RngStream(3, 0))
    assert not rep.within_bounds


def test_sin_bump_metadata_consistent():
    b = sin_bump_drift()
    assert validate_c1(b, RngStream(8, 0))
