"""Planted wrong answers, each of which a named check must fail.

Every row monkeypatches one mutant into the library and runs the cheapest
test that kills it under ``pytest.raises(AssertionError)``.  A mutant that
no test kills is not listed as an expected failure: it is an open gap in the
checks.  Contracting with c transposed in ``coeffs.correction_drift_batch``
is one today, as every diffusion the tests simulate is diagonal or constant.
"""

import numpy as np
import pytest

import test_acceptance
import test_experiments
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


# mutant: (plant it, the check that must fail)
MUTANTS = {
    "euler_without_correction_drift": (
        _ito_reference, lambda mp: test_acceptance.test_criterion_01_exponential_oracles()),
    "girsanov_theta_at_the_next_node": (
        _anticipating_weight, lambda mp: test_experiments.test_mean_weight_is_one_within_three_se()),
    "girsanov_blind_to_a_last_step_abort": (
        _status_blind_weights,
        lambda mp: test_experiments.test_girsanov_counts_a_path_that_aborts_on_its_last_step(mp)),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_each_mutant_fails_its_check(monkeypatch, mutant):
    plant, check = MUTANTS[mutant]
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check(monkeypatch)
