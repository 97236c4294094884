"""End-to-end acceptance checks.

One test per criterion, each printing a PASS/FAIL line with the measured
quantity next to its tolerance.  Criterion 6 pins the L^p distance of the
ramp surrogate from the indicator drift to the exact closed form
(4/(chi (p+1)))^(1/p), which follows flank by flank; the published constant
2 (2/(chi (p+1)))^(1/p) is the Minkowski sum of the two flank norms and is
checked as an upper bound.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line.
"""

import subprocess
import sys

import numpy as np
import pytest

from wzsim.coeffs import (
    CorrectionMatrix,
    DriftApproxSequence,
    DriftField,
    indicator_drift,
    lp_distance,
    ramp_approximation,
    ramp_sequence,
)
from wzsim.core import RngStream, make_grid, sample_brownian_batch
from wzsim.experiments import (
    fit_rate,
    girsanov_mean,
    make_target,
    mc_mean_sup_error,
    rate_sweep,
    stability_sweep,
    tube_ladder,
)
from wzsim.noise import (
    McShane,
    Mollified,
    PiecewiseShape,
    check_moment_condition,
    estimate_c,
    estimate_s,
)
from wzsim.registry import (
    linear_diffusion,
    sin_bump_drift,
    sin_elliptic_diffusion,
    zero_drift,
)
from wzsim.shapes import bump_kernel, linear_shape, power_shape
from wzsim.solvers import Model, em_batch, rk4_batch, _stage_derivs

HALF = CorrectionMatrix.half_identity(1)
LIN = PiecewiseShape(linear_shape())
SIN_ELL = sin_elliptic_diffusion(1.0, 0.5)


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def test_criterion_01_exponential_oracles():
    # corrected Euler against x0 exp(W_T)
    grid = make_grid(1.0, 1 << 14)
    paths = 1000
    rels = np.empty(paths)
    for start in range(0, paths, 250):
        w = sample_brownian_batch(grid, 1, RngStream(101, start), 250)
        dw = np.diff(w, axis=1)
        xv, st = em_batch(zero_drift(), linear_diffusion(), HALF,
                          np.ones((250, 1)), dw, grid.dt)
        assert np.all(st == 0)
        oracle = np.exp(w[:, -1, 0])
        rels[start : start + 250] = (xv[:, -1, 0] - oracle) / oracle
    rms = float(np.sqrt(np.mean(rels**2)))

    # smoothed-path integrator against x0 exp(W^n_T - W^n_0)
    n, m_ode = 64, 16
    w = sample_brownian_batch(grid, 1, RngStream(102, 0), 50)
    msub = grid.steps // n
    vst = _stage_derivs(LIN, w, n, msub, n, m_ode)
    xv, st = rk4_batch(zero_drift(), linear_diffusion(), np.ones((50, 1)), vst,
                       1.0 / (n * m_ode))
    assert np.all(st == 0)
    # W^n(1) of every path: the end of the last block, block position (n - 1, 1)
    ends = LIN.batch_values(w, n, msub, np.array([n - 1]), np.array([1.0]))[:, 0, 0]
    rel_ode = float(np.max(np.abs(xv[:, -1, 0] / np.exp(ends) - 1.0)))

    verdict(1, rms < 1e-2 and rel_ode < 1e-6,
            f"euler rel RMS {rms:.2e} < 1e-2; smoothed-ode rel err {rel_ode:.2e} < 1e-6")


def test_criterion_02_smooth_coefficient_rate():
    model = Model(sin_bump_drift(), SIN_ELL, HALF, 0.0, make_grid(1.0, 1 << 13))
    rep = rate_sweep(model, LIN, [2**k for k in range(4, 10)], 500, RngStream(2024, 0))
    ok = -1.2 <= rep.slope <= -0.7
    verdict(2, ok, f"fitted mse slope {rep.slope:+.3f} in [-1.2, -0.7] "
                   f"(half-width {rep.slope_half_width:.3f})")


def test_criterion_03_singular_drift_convergence():
    # x0 sits inside the widest ramp flank only (width 2/chi: 18.8, 3.4, 2.0),
    # so the drift mismatch the paths see collapses across the levels
    seq = ramp_sequence(alpha=0.4, p=2.0, delta=0.5)
    model = Model(indicator_drift(), SIN_ELL, HALF, -4.0, make_grid(1.0, 1 << 13))
    mses = []
    for i, n in enumerate([2**4, 2**6, 2**8]):
        r = mc_mean_sup_error(model, LIN, n, 500, RngStream(31337, i * 500), seq)
        mses.append(r.estimate)
    ok = mses[-1] < mses[0] / 4
    verdict(3, ok, "mse " + " -> ".join(f"{m:.3e}" for m in mses) +
            f"; last/first {mses[-1] / mses[0]:.3f} < 0.25")


def test_criterion_04_coefficient_identification():
    c = estimate_c(LIN, 32, 0.5, 10_000, RngStream(55, 0))
    s = estimate_s(LIN, 32, 10_000, RngStream(55, 1 << 33))
    diag_ok = bool(np.all(np.abs(np.diag(c.values) - 0.5) < 0.05))
    off = ~np.eye(2, dtype=bool)
    off_ok = bool(np.all(np.abs(c.values[off]) <= 3 * np.maximum(c.stderrs[off], 1e-12)))
    s_ok = bool(np.all(np.abs(s.values) <= 3 * np.maximum(s.stderrs, 1e-12)))

    fam = McShane(linear_shape(), power_shape(2.0))
    mc = estimate_s(fam, 32, 10_000, RngStream(55, 1 << 34))
    # blockwise brute-force oracle, independent of the path evaluators
    u = np.linspace(0.0, 1.0, 20001)
    q_keep = np.trapezoid(u * 2 * u - u**2 * 1.0, u)
    gen = RngStream(9091, 0).generator()
    dw = gen.standard_normal((400_000, 2)) / np.sqrt(32)
    sign = dw[:, 0] * dw[:, 1] >= 0
    per = 32 * dw[:, 0] * dw[:, 1] * np.where(sign, q_keep, -q_keep) / 2.0
    oracle = float(per.mean())
    joint = float(np.hypot(mc.stderrs[0, 1], per.std(ddof=1) / np.sqrt(per.size)))
    mc_ok = abs(mc.values[0, 1] - oracle) < 3 * joint

    verdict(4, diag_ok and off_ok and s_ok and mc_ok,
            f"polygonal c diag {np.diag(c.values)} ~ 0.5; "
            f"swap-family s12 {mc.values[0, 1]:+.4f} vs oracle {oracle:+.4f} "
            f"(3SE {3 * joint:.4f}; classical reference 1/pi = {1 / np.pi:.4f})")


def test_criterion_05_sixth_moment_scaling():
    rep_lin = check_moment_condition(LIN, [4, 8, 16, 32], 10_000, RngStream(500, 0))
    rep_mol = check_moment_condition(Mollified(bump_kernel()), [4, 8, 16, 32], 10_000,
                                 RngStream(501, 0))
    oks = [abs(e + 3.0) < 0.3 for e in
           (rep_lin.endpoint_exponent, rep_lin.speed_exponent,
            rep_mol.endpoint_exponent, rep_mol.speed_exponent)]
    verdict(5, all(oks),
            f"exponents polygonal ({rep_lin.endpoint_exponent:+.2f}, "
            f"{rep_lin.speed_exponent:+.2f}) mollified ({rep_mol.endpoint_exponent:+.2f}, "
            f"{rep_mol.speed_exponent:+.2f}) all within -3 +- 0.3")


def test_criterion_06_published_lp_identity():
    """The ramp's L^p distance from the indicator equals its exact closed form.

    On each flank of `ramp_approximation`, |b - b_n| is a linear ramp from 0
    to 1 over a width of 2/chi, so its p-th power integrates to
    2/(chi (p+1)).  The two flanks are disjoint, hence
    ||b - b_n||_p = (4/(chi (p+1)))^(1/p).  The published constant
    2 (2/(chi (p+1)))^(1/p) adds the two flank norms instead: it is
    Minkowski's upper bound, larger than the norm by 2^(1-1/p) (x1.41 at
    p=2, x1.68 at p=4), so it is asserted as a bound only.
    """
    b = indicator_drift()
    worst = 0.0
    bound_ratio = 0.0
    for p in (2.0, 4.0):
        for chi in (1.0, 5.0, 20.0):
            bn = ramp_approximation(chi)
            got = lp_distance(b, bn, p)
            exact = (4.0 / (chi * (p + 1.0))) ** (1.0 / p)
            published = 2.0 * (2.0 / (chi * (p + 1.0))) ** (1.0 / p)
            worst = max(worst, abs(got / exact - 1.0))
            bound_ratio = max(bound_ratio, got / published)
    verdict(6, worst < 1e-3 and bound_ratio <= 1.0 + 1e-3,
            f"max relative deviation from the exact (4/(chi(p+1)))^(1/p) {worst:.2e} < 1e-3; "
            f"max ratio to the published flank-sum bound {bound_ratio:.5f} <= 1.001")


def test_criterion_07_girsanov_mean_one():
    rep = girsanov_mean(Model(indicator_drift(), SIN_ELL, HALF, 0.0, make_grid(1.0, 1 << 12)),
                        10_000, RngStream(77, 0))
    dev = abs(rep.mean_rho - 1.0)
    verdict(7, dev < 3 * rep.stderr,
            f"mean weight {rep.mean_rho:.4f} +- {rep.stderr:.4f} "
            f"(|mean-1| = {dev / rep.stderr:.2f} SE < 3)")


def test_criterion_08_support_probe():
    grid = make_grid(1.0, 1 << 11)
    paths = 100_000
    ladder = [0.25, 0.5, 1.0]
    all_ok = True
    details = []
    kinds = ["const", "line", "sine"]
    # one path sample serves every target and radius
    reports = tube_ladder(Model(indicator_drift(), SIN_ELL, HALF, 0.0, grid),
                          [make_target(kind, grid, 0.0) for kind in kinds],
                          ladder, paths, RngStream(88, 0))
    for ti, kind in enumerate(kinds):
        hits = [r.hits for r in reports[ti * len(ladder):(ti + 1) * len(ladder)]]
        all_ok &= hits[1] >= 1 and hits == sorted(hits)
        details.append(f"{kind}:{hits}")
    verdict(8, all_ok, f"hits per radius {ladder} on shared samples: " + "  ".join(details))


def _shifted_indicator(a: float) -> DriftField:
    """b(x) = 1 on [a, 1 + a], 0 elsewhere; ||1_[0,1] - b||_2^2 = 2a for 0 < a < 1."""
    return DriftField(dim=1, fn=lambda x: ((x >= a) & (x <= 1.0 + a)).astype(float),
                      support_radius=2.0, name=f"indicator[{a:g},{1 + a:g}]")


def test_criterion_09_stability_constant():
    b = indicator_drift()
    # identical drifts on identical streams: the sweep must report exact zero
    ident = DriftApproxSequence(base=b, p=2.0, generator=lambda n: b,
                                bound=lambda n: 1.0, delta=0.5)
    rep0 = stability_sweep(Model(b, SIN_ELL, HALF, 0.0, make_grid(1.0, 1 << 12)), ident, [16, 64], 100,
                           RngStream(99, 0))
    zeros = [mse for _, _, mse, _ in rep0.levels]

    # shifted indicators b_n = 1_[a, 1+a], a = 1/n: the stability bound makes
    # the mse at most C ||b - b_n||_2^2 = 2 C a, so log mse against log 2a
    # must not fall with a slope below 1
    seq = DriftApproxSequence(base=b, p=2.0, generator=lambda n: _shifted_indicator(1.0 / n),
                              bound=lambda n: 1.0, delta=0.5)
    rep = stability_sweep(Model(b, SIN_ELL, HALF, 0.0, make_grid(1.0, 1 << 13)), seq, [2, 5, 20, 100], 500,
                          RngStream(99, 1 << 33))
    d2 = [2.0 / n for n, _, _, _ in rep.levels]
    mses = [mse for _, _, mse, _ in rep.levels]
    positive = all(m > 0.0 for m in mses)
    slope, half = fit_rate(list(zip(d2, mses))) if positive else (float("nan"), float("nan"))
    verdict(9, zeros == [0.0, 0.0] and positive and slope + half >= 1.0,
            f"identical-drift mse {zeros} (must be 0); shifted indicators: mse {np.round(mses, 5)} at "
            f"||b-b_n||_2^2 = {np.round(d2, 4)}, fitted slope {slope:.3f} +- {half:.3f} (need >= 1 "
            f"within the half-width)")


def test_criterion_10_levy_area_variance():
    grid = make_grid(1.0, 1 << 12)
    vals = np.empty(10_000)
    for start in range(0, 10_000, 500):
        w = sample_brownian_batch(grid, 2, RngStream(123, start), 500)
        # S_12(1) = (int_0^1 W^1 o dW^2 - W^2 o dW^1) / 2 by midpoint sums, path by path
        # (faster here than one batched product over all 500 paths)
        for i, v in enumerate(w):
            a = (0.5 * (v[:-1] + v[1:])).T @ np.diff(v, axis=0)
            vals[start + i] = (a[0, 1] - a[1, 0]) / 2.0
    var = float(vals.var(ddof=1))
    verdict(10, 0.225 <= var <= 0.275, f"Var(S_12(1)) = {var:.4f} within 0.25 +- 10%")


CFG_REPRO = """
[run]
command = {command}
seed = 4242
out = PLACEHOLDER

[model]
{model}

[params]
{params}
"""

# each command's own [model] and [params] keys: a key it does not read exits 2
REPRO_KEYS = {
    "coeffs": ("family = piecewise shape=linear", "n = 16\nsamples = 1500\nt_mult = 8\nd = 2"),
    "rate-sweep": ("drift = indicator01\ndiffusion = sin_elliptic a=1 b=0.5\n"
                   "family = piecewise shape=linear\nsequence = ramp alpha=0.4 delta=0.5\nx0 = 0.0",
                   "n_ref = 512\nm_ode = 8\nn_list = 16 32 64\npaths = 60"),
}


@pytest.mark.parametrize("command,csvs", [
    ("coeffs", ["coeffs_c.csv", "coeffs_s.csv"]),
    ("rate-sweep", ["rate_sweep.csv"]),
])
def test_criterion_11_reproducibility(tmp_path, package_env, command, csvs):
    cfg = tmp_path / "run.ini"
    model, params = REPRO_KEYS[command]
    cfg.write_text(CFG_REPRO.format(command=command, model=model, params=params), encoding="utf-8")
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run([sys.executable, "-m", "wzsim.cli", "--config", str(cfg),
                        "--out", str(out)],
                       env=package_env, check=True, capture_output=True)
    same = all((outs[0] / c).read_bytes() == (outs[1] / c).read_bytes() for c in csvs)
    verdict(11, same, f"{command}: CSV bytes identical for two runs of the same config")
