import numpy as np
import pytest

from wzsim.core import (
    Path,
    RngStream,
    ValidationError,
    make_grid,
    sample_brownian_batch,
    sup_distance_values,
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
    w1 = Path(g, sample_brownian_batch(g, 3, s, 1)[0])
    w2 = Path(g, sample_brownian_batch(g, 3, s, 1)[0])
    assert np.all(w1.values[0] == 0.0)
    assert np.array_equal(w1.values, w2.values)


def test_distinct_streams_differ():
    g = make_grid(1.0, 8)
    a = sample_brownian_batch(g, 1, RngStream(1, 0), 1)[0]
    b = sample_brownian_batch(g, 1, RngStream(1, 1), 1)[0]
    assert not np.array_equal(a, b)


def test_batch_matches_single_paths():
    g = make_grid(1.0, 16)
    s = RngStream(999, 10)
    batch = sample_brownian_batch(g, 2, s, 5)
    for i in range(5):
        assert np.array_equal(batch[i], sample_brownian_batch(g, 2, s.child(i), 1)[0])


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
    p = np.array([[0.0], [1.0], [0.0]])
    q = np.array([[0.0], [0.0], [2.0]])
    assert sup_distance_values(p, q) == 2.0
    assert sup_distance_values(p, p) == 0.0


def test_sup_distance_translation():
    w = sample_brownian_batch(make_grid(1.0, 8), 2, RngStream(3, 3), 1)[0]
    assert np.isclose(sup_distance_values(w, w + np.array([0.6, -0.8])), 1.0)


def test_sup_distance_is_a_metric():
    # 25 triples in one call: the distances are per path, over the grid nodes
    rng = np.random.default_rng(51)
    a, b, c = rng.standard_normal((3, 25, 17, 2))
    dab, dba = sup_distance_values(a, b), sup_distance_values(b, a)
    assert np.array_equal(dab, dba)
    assert np.all(sup_distance_values(a, c) <= dab + sup_distance_values(b, c) + 1e-12)
    assert np.all(dab > 0.0)
    assert np.all(sup_distance_values(a, a.copy()) == 0.0)
    # a NaN path gives NaN, so `_run_paths` can count it as aborted
    a[3, 5, 1] = np.nan
    assert np.flatnonzero(np.isnan(sup_distance_values(a, b))).tolist() == [3]


@pytest.mark.parametrize("d", [1, 2])
def test_sup_distance_has_the_bits_of_the_max_of_the_roots(d):
    # the root is taken after the max, and d = 1 skips the sum: the same bits
    # as the max over the nodes of sqrt(sum of squares), NaN rows and signed zeros included
    rng = np.random.default_rng(52)
    a, b = rng.standard_normal((2, 40, 33, d))
    a[:5] = b[:5]
    a[5:8] = -0.0
    b[5:7] = 0.0
    a[8, 3, 0] = np.nan
    b[9, :, d - 1] = np.nan
    a[10, 7] = np.inf
    expected = np.sqrt(((a - b) * (a - b)).sum(axis=-1)).max(axis=-1)
    got = sup_distance_values(a, b)
    assert got.shape == (40,)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.isnan(got[[8, 9]]).all() and got[10] == np.inf and np.all(got[:7] == 0.0)


def test_path_values_are_frozen():
    g = make_grid(1.0, 2)
    p = Path(g, np.zeros(3))
    with pytest.raises(ValueError):
        p.values[0] = 1.0
