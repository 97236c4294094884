"""Planted wrong answers, each of which a named check must fail.

Every row monkeypatches one mutant into the library and runs the cheapest
test that kills it under ``pytest.raises(AssertionError)``.  A mutant that
no test kills is not listed as an expected failure: it is an open gap in the
checks.  Contracting with c transposed in ``coeffs.correction_drift_batch``
is one today, as every diffusion the tests simulate is diagonal or constant.

An equivalent mutant, one that cannot change a result, is not a row either:
* ``<`` -> ``<=`` in ``tube_ladder``'s hit count: a sup distance equal to a
  radius has probability 0;
* a zero status planted in the ``em_batch`` that ``_driftless_weights``
  calls: no package code reads the step status.
"""

import inspect
import textwrap

import numpy as np
import pytest

import test_acceptance
import test_cli
import test_experiments
import test_noise
import test_solvers
from wzsim import coeffs, experiments, noise, solvers


def _edited(monkeypatch, owner, name, old, new):
    """Plant owner.name recompiled from its source with the one occurrence of old replaced by new.

    ``owner`` is a module or a class; a method is compiled in its module's namespace.
    The copy reads that namespace live, so a fake its check plants there later reaches it.
    """
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1
    defined = {}
    exec(source.replace(old, new), vars(inspect.getmodule(owner)), defined)
    monkeypatch.setattr(owner, name, defined[name])


def _ito_reference(monkeypatch):
    """Euler without the correction drift: the reference solves the Ito SDE."""
    monkeypatch.setattr(solvers, "correction_drift_batch", lambda sigma, c, x, sig: np.zeros_like(x))


def _anticipating_weight(monkeypatch):
    """The Girsanov integrand theta taken at Y_{k+1}: the weights see every driftless path one node ahead."""
    solve = experiments.em_batch

    def ahead(*args, **kwargs):
        vals, status = solve(*args, **kwargs)
        return np.concatenate([vals[:, 1:], vals[:, -1:]], axis=1), status

    monkeypatch.setattr(experiments, "em_batch", ahead)


def _abort_read_a_node_early(monkeypatch):
    """Girsanov weights that read Y's next-to-last node: a path aborting on its last step keeps a finite weight."""
    _edited(monkeypatch, experiments, "_driftless_weights", "yv[:, -1, 0]", "yv[:, -2, 0]")


def _right_limit_at_block_ends(monkeypatch):
    """The third RK4 stage of a block's last step takes the next block's derivative (its right limit)."""
    stages = solvers._stage_derivs

    def right_limit(family, wsub, n, msub, blocks, m_ode):
        der = stages(family, wsub, n, msub, blocks, m_ode)
        ends = np.arange(m_ode - 1, (blocks - 1) * m_ode, m_ode)
        der[:, ends, 2] = der[:, ends + 1, 0]
        return der

    monkeypatch.setattr(solvers, "_stage_derivs", right_limit)


def _swapped_hermite_slopes(monkeypatch):
    """Dense output with the start slope on the end's basis function and the end slope on the start's."""
    _edited(monkeypatch, solvers, "_dense_values", "h10 * f0[:, si] + h11 * f1[:, si]",
            "h10 * f1[:, si] + h11 * f0[:, si]")


def _unpaired_schedule(monkeypatch):
    """A schedule's levels built without checking that it smooths the model's drift."""
    _edited(monkeypatch, experiments, "_schedule_levels", "if seq.base.name != model.drift.name:", "if False:")


def _lp_norm_without_root(monkeypatch):
    """The L^p quadrature returns the integral of |b|^p, not its p-th root."""
    _edited(monkeypatch, coeffs, "lp_norm", ") ** (1.0 / p))", "))")


def _stability_on_independent_increments(monkeypatch):
    """The stability sweep's b_n copy of each path runs on the next path's increments."""
    _edited(monkeypatch, experiments, "stability_sweep", "em_batch(b_ns[j], sigma, c, x0, dw, grid.dt)",
            "em_batch(b_ns[j], sigma, c, x0, np.roll(dw, 1, axis=0), grid.dt)")
    # criterion 09 calls the name it imported
    monkeypatch.setattr(test_acceptance, "stability_sweep", experiments.stability_sweep)


def _band_without_right_neighbour(monkeypatch):
    """The mollified band operator gives W at a node as (1 - theta) W_j, without theta W_{j+1}."""
    _edited(monkeypatch, noise.Mollified, "_convolve", "(wts * theta)[valid]", "0.0 * (wts * theta)[valid]")


def _two_sided_lcb(monkeypatch):
    """The tube's lower bound at the two-sided level: the 2.5% beta quantile for a 95% one-sided bound."""
    _edited(monkeypatch, experiments, "_binomial_lcb", "1.0 - LCB_LEVEL", "(1.0 - LCB_LEVEL) / 2.0")


# mutant: (plant it, the check that must fail)
MUTANTS = {
    "euler_without_correction_drift": (
        _ito_reference, lambda mp, *_: test_acceptance.test_criterion_01_exponential_oracles()),
    "girsanov_theta_at_the_next_node": (
        _anticipating_weight, lambda mp, *_: test_experiments.test_mean_weight_is_one_within_three_se()),
    "girsanov_blind_to_a_last_step_abort": (
        _abort_read_a_node_early,
        lambda mp, *_: test_experiments.test_girsanov_counts_a_path_that_aborts_on_its_last_step(mp)),
    "rk4_right_limit_at_block_ends": (
        _right_limit_at_block_ends,
        lambda mp, *_: test_solvers.test_ode_exponential_oracle(test_solvers.LIN, 1e-6)),
    "dense_output_slopes_swapped": (
        _swapped_hermite_slopes, lambda mp, *_: test_solvers.test_hermite_reference_nodes_match_a_finer_aligned_run()),
    "schedule_levels_without_pairing_check": (
        _unpaired_schedule,
        lambda mp, tmp_path, capsys: test_cli.test_a_drift_the_schedule_does_not_smooth_exits_2_before_any_path(
            tmp_path, capsys, mp, test_cli.SWEEP_CFG, "sin_bump")),
    "lp_norm_without_its_root": (
        _lp_norm_without_root, lambda mp, *_: test_acceptance.test_criterion_06_published_lp_identity()),
    "stability_copy_on_independent_increments": (
        _stability_on_independent_increments,
        lambda mp, *_: test_acceptance.test_criterion_09_stability_constant()),
    "mollified_band_without_right_neighbour": (
        _band_without_right_neighbour,
        lambda mp, *_: test_noise.test_mollified_operator_matches_the_per_node_loop(8, 64, 1)),
    "tube_lcb_at_the_two_sided_level": (
        _two_sided_lcb, lambda mp, *_: test_experiments.test_quantiles_equal_scipy_stats_bit_for_bit()),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_its_check(monkeypatch, tmp_path, capsys, mutant):
    plant, check = MUTANTS[mutant]
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch, tmp_path, capsys)
