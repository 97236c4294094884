"""Planted wrong answers, each of which a named check must fail.

Every row monkeypatches one mutant into the library and runs the cheapest
test that kills it under ``pytest.raises(AssertionError)``.  A mutant that
no test kills is not listed as an expected failure: it is an open gap in the
checks.  Contracting with c transposed in ``coeffs.correction_drift_batch``
is one today, as every diffusion the tests simulate is diagonal or constant.
"""

import inspect

import numpy as np
import pytest

import test_acceptance
import test_experiments
import test_solvers
from wzsim import experiments, solvers


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


def _status_blind_weights(monkeypatch):
    """Girsanov weights that read no solver status: a path aborting on its last step keeps a finite weight."""
    weights = experiments._driftless_weights

    def blind(model, stream, count):
        solve = experiments.em_batch
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(experiments, "em_batch",
                          lambda *args: (solve(*args)[0], np.zeros(len(args[4]), dtype=np.int64)))
            return weights(model, stream, count)

    monkeypatch.setattr(experiments, "_driftless_weights", blind)


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
    line = "h10 * f0[:, si] + h11 * f1[:, si]"
    source = inspect.getsource(solvers._dense_values)
    assert source.count(line) == 1
    namespace = dict(vars(solvers))
    exec(source.replace(line, "h10 * f1[:, si] + h11 * f0[:, si]"), namespace)
    monkeypatch.setattr(solvers, "_dense_values", namespace["_dense_values"])


# mutant: (plant it, the check that must fail)
MUTANTS = {
    "euler_without_correction_drift": (
        _ito_reference, lambda mp: test_acceptance.test_criterion_01_exponential_oracles()),
    "girsanov_theta_at_the_next_node": (
        _anticipating_weight, lambda mp: test_experiments.test_mean_weight_is_one_within_three_se()),
    "girsanov_blind_to_a_last_step_abort": (
        _status_blind_weights,
        lambda mp: test_experiments.test_girsanov_counts_a_path_that_aborts_on_its_last_step(mp)),
    "rk4_right_limit_at_block_ends": (
        _right_limit_at_block_ends,
        lambda mp: test_solvers.test_ode_exponential_oracle(test_solvers.LIN, 1e-6)),
    "dense_output_slopes_swapped": (
        _swapped_hermite_slopes, lambda mp: test_solvers.test_hermite_reference_nodes_match_a_finer_aligned_run()),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_its_check(monkeypatch, mutant):
    plant, check = MUTANTS[mutant]
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
