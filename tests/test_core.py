import numpy as np
import pytest

from wzsim.core import (
    Path,
    RngStream,
    ValidationError,
    make_grid,
    sample_brownian,
    sample_brownian_batch,
    sup_distance,
)


def test_make_grid_nodes():
    g = make_grid(1.0, 4)
    assert np.allclose(g.nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.nodes()[-1] == 1.0


def test_make_grid_minimal():
    g = make_grid(1.0, 1)
    assert np.allclose(g.nodes(), [0.0, 1.0])


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3)])
def test_make_grid_rejects_bad_args(horizon, steps):
    with pytest.raises(ValidationError):
        make_grid(horizon, steps)


def test_brownian_starts_at_zero_and_is_deterministic():
    g = make_grid(1.0, 1)
    s = RngStream(12345, 7)
    w1 = sample_brownian(g, 3, s)
    w2 = sample_brownian(g, 3, s)
    assert np.all(w1.values[0] == 0.0)
    assert np.array_equal(w1.values, w2.values)


def test_distinct_streams_differ():
    g = make_grid(1.0, 8)
    a = sample_brownian(g, 1, RngStream(1, 0))
    b = sample_brownian(g, 1, RngStream(1, 1))
    assert not np.array_equal(a.values, b.values)


def test_batch_matches_single_paths():
    g = make_grid(1.0, 16)
    s = RngStream(999, 10)
    batch = sample_brownian_batch(g, 2, s, 5)
    for i in range(5):
        assert np.array_equal(batch[i], sample_brownian(g, 2, s.child(i)).values)


@pytest.mark.parametrize("seed,sid", [(999, 10), (2**64 + 5, 2**64 - 2)])
def test_batch_rows_are_the_streams_of_fresh_generators(seed, sid):
    # the second case wraps both key words modulo 2^64 and its child ids past 2^64
    g = make_grid(1.0, 32)
    s = RngStream(seed, sid)
    batch = sample_brownian_batch(g, 3, s, 5)
    for i in range(5):
        dw = s.child(i).generator().standard_normal((32, 3)) * np.sqrt(g.dt)
        assert np.all(batch[i, 0] == 0.0)
        assert np.array_equal(batch[i, 1:], np.cumsum(dw, axis=0))


def test_sampler_calls_share_no_generator_state():
    g = make_grid(1.0, 16)
    a, b = RngStream(7, 0), RngStream(8, 100)
    alone = [sample_brownian_batch(g, 2, a, 4), sample_brownian_batch(g, 1, b, 3)]
    b_first = sample_brownian_batch(g, 1, b, 3), sample_brownian_batch(g, 2, a, 4)
    a_first = sample_brownian_batch(g, 2, a, 4), sample_brownian_batch(g, 1, b, 3)
    assert np.array_equal(b_first[1], alone[0]) and np.array_equal(b_first[0], alone[1])
    assert np.array_equal(a_first[0], alone[0]) and np.array_equal(a_first[1], alone[1])


def test_terminal_moments_match_brownian_law():
    # Var(W_T) = T and E W_T = 0, checked over 10^4 streams at T = 1
    g = make_grid(1.0, 4)
    n = 10_000
    w = sample_brownian_batch(g, 1, RngStream(2024, 0), n)
    terminal = w[:, -1, 0]
    se_mean = 1.0 / np.sqrt(n)
    assert abs(terminal.mean()) < 3 * se_mean
    var = terminal.var(ddof=1)
    se_var = np.sqrt(2.0 / (n - 1))  # Var of the variance estimator for N(0,1)
    assert abs(var - 1.0) < 3 * se_var


def test_increment_covariance_is_dt_identity():
    g = make_grid(2.0, 4)
    n = 10_000
    w = sample_brownian_batch(g, 2, RngStream(7, 0), n)
    inc = np.diff(w, axis=1).reshape(-1, 2)
    cov = inc.T @ inc / inc.shape[0]
    se = 3 * g.dt * np.sqrt(2.0 / inc.shape[0])
    assert np.all(np.abs(cov - g.dt * np.eye(2)) < 3 * se + 3 * g.dt / np.sqrt(inc.shape[0]))


def test_sup_distance_hand_values():
    g = make_grid(1.0, 2)
    p = Path(g, np.array([0.0, 1.0, 0.0]))
    q = Path(g, np.array([0.0, 0.0, 2.0]))
    assert sup_distance(p, q) == 2.0
    assert sup_distance(p, p) == 0.0


def test_sup_distance_translation():
    g = make_grid(1.0, 8)
    w = sample_brownian(g, 2, RngStream(3, 3))
    v = np.array([0.6, -0.8])
    shifted = Path(g, w.values + v)
    assert np.isclose(sup_distance(w, shifted), 1.0)


def test_sup_distance_rejects_mismatched_grids():
    a = Path(make_grid(1.0, 2), np.zeros(3))
    b = Path(make_grid(2.0, 2), np.zeros(3))
    with pytest.raises(ValidationError):
        sup_distance(a, b)


def test_sup_distance_is_a_metric():
    g = make_grid(1.0, 16)
    rng = np.random.default_rng(51)
    for _ in range(25):
        a = Path(g, rng.standard_normal((17, 2)))
        b = Path(g, rng.standard_normal((17, 2)))
        c = Path(g, rng.standard_normal((17, 2)))
        dab, dba = sup_distance(a, b), sup_distance(b, a)
        assert dab == dba
        assert sup_distance(a, c) <= dab + sup_distance(b, c) + 1e-12
        assert dab > 0.0
    a = Path(g, rng.standard_normal((17, 2)))
    assert sup_distance(a, Path(g, a.values.copy())) == 0.0


def test_path_values_are_frozen():
    g = make_grid(1.0, 2)
    p = Path(g, np.zeros(3))
    with pytest.raises(ValueError):
        p.values[0] = 1.0
