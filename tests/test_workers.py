"""core.map_batches on several workers: the same bytes, exceptions with their type, no child left."""

import io
import os
import pickle
import threading
import time

import numpy as np
import pytest

from wzsim import core, experiments, noise
from wzsim.coeffs import CorrectionMatrix
from wzsim.core import RngStream, ValidationError, make_grid, map_batches
from wzsim.experiments import AbortRateError, girsanov_mean, make_target, tube_ladder
from wzsim.noise import McShane, Mollified, estimate_c, estimate_s
from wzsim.registry import indicator_drift, sin_elliptic_diffusion
from wzsim.shapes import bump_kernel, linear_shape, power_shape
from wzsim.solvers import Model

GRID = make_grid(1.0, 256)
MODEL = Model(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), CorrectionMatrix.half_identity(1), 0.0, GRID)
PATHS = 70
ESTIMATORS = {
    "tube_ladder": lambda: tube_ladder(MODEL, [make_target(kind, GRID, 0.0) for kind in ("line", "sine")],
                                       [0.25, 0.5, 1.0], PATHS, RngStream(5, 2)),
    "girsanov_mean": lambda: girsanov_mean(MODEL, PATHS, RngStream(5, 3)),
    "estimate_s": lambda: estimate_s(McShane(linear_shape(), power_shape(2.0)), 16, PATHS, RngStream(5, 0)),
    "estimate_c": lambda: estimate_c(Mollified(bump_kernel()), 16, 0.25, PATHS, RngStream(5, 1)),
}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pool(monkeypatch, workers):
    # fork whatever the first batch took
    monkeypatch.setattr(core, "WORKERS", workers)
    monkeypatch.setattr(core, "FORK_MIN_S", 0.0)


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_the_worker_count_does_not_change_a_byte(monkeypatch, estimator):
    # 70 paths in batches of 70, 35, 24 and 16 are 1, 2, 3 and 5 batches (the
    # last two with a short last batch): fewer, as many and more batches than
    # 2 or 3 workers; 3 workers fork even on a machine with fewer cores
    def run(workers, batch):
        _pool(monkeypatch, workers)
        for module, names in ((experiments, ("SWEEP_BATCH", "EULER_BATCH")),
                              (noise, ("S_BATCH", "C_BATCH", "MOMENT_BATCH"))):
            for name in names:
                monkeypatch.setattr(module, name, batch)
        return pickle.dumps(ESTIMATORS[estimator]())

    serial = run(1, PATHS)
    for workers in (1, 2, 3):
        for batch in (PATHS, 35, 24, 16):
            assert run(workers, batch) == serial, (workers, batch)
    _no_child_left()


def _ids(s, m):
    return np.arange(s.stream_id, s.stream_id + m, dtype=float)


@pytest.mark.parametrize("workers", [2, 3])
def test_rows_wider_than_a_pipe_buffer_come_back_in_path_order(monkeypatch, workers):
    # each share sends about 1.6 MB, far more than a pipe holds: the parent
    # reads a child's pipe to its end before it waits for the child
    _pool(monkeypatch, workers)
    rows = map_batches(lambda s, m: np.repeat(_ids(s, m)[:, None], 10000, axis=1), 50, RngStream(0, 0), 10)
    assert np.array_equal(rows, np.repeat(np.arange(50.0)[:, None], 10000, axis=1))
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_exception_in_a_child_share_reaches_the_caller_with_its_type(monkeypatch, workers):
    _pool(monkeypatch, workers)
    parent = os.getpid()

    def simulate(s, m):
        if os.getpid() != parent:
            raise ValidationError(f"bad batch at path {s.stream_id}")
        return _ids(s, m)

    # 4 batches of 10: the parent runs the first, then the first of the
    # shares of the other 30 paths
    with pytest.raises(ValidationError, match=f"bad batch at path {10 + 30 // workers}$"):
        map_batches(simulate, 40, RngStream(0, 0), 10)
    _no_child_left()


def test_an_abort_in_a_child_share_keeps_its_counts(monkeypatch):
    _pool(monkeypatch, 2)
    parent = os.getpid()

    def simulate(s, m):
        if os.getpid() != parent:
            raise AbortRateError(3, 40)
        return _ids(s, m)

    with pytest.raises(AbortRateError) as err:
        map_batches(simulate, 40, RngStream(0, 0), 10)
    assert (err.value.aborted, err.value.paths) == (3, 40)
    _no_child_left()


@pytest.mark.parametrize("child", ["still_running", "blocked_on_a_full_pipe"])
@pytest.mark.parametrize("workers", [2, 3])
def test_an_exception_in_the_parent_share_stops_every_child(monkeypatch, workers, child):
    # 6 batches of 10: the parent runs batch 0, forks, and raises in batch 1
    # while its children either compute for a minute or have sent more than
    # a pipe holds and wait for a reader: the call must neither wait for them
    # nor leave them running
    _pool(monkeypatch, workers)
    parent = os.getpid()

    def simulate(s, m):
        if os.getpid() == parent:
            if s.stream_id == 0:
                return np.zeros((m, 100000))
            time.sleep(0.2)
            raise ValidationError("bad parent batch")
        if child == "still_running":
            time.sleep(60)
        return np.zeros((m, 100000))

    t0 = time.monotonic()
    with pytest.raises(ValidationError, match="bad parent batch"):
        map_batches(simulate, 60, RngStream(0, 0), 10)
    assert time.monotonic() - t0 < 30
    _no_child_left()


def _refuse_to_fork(*args):
    raise AssertionError("forked")


def test_a_call_whose_rest_is_short_does_not_fork(monkeypatch):
    monkeypatch.setattr(core, "WORKERS", 2)
    monkeypatch.setattr(core, "_fork", _refuse_to_fork)
    assert np.array_equal(map_batches(_ids, 40, RngStream(0, 0), 10), np.arange(40.0))


def test_nothing_forks_while_another_thread_runs(monkeypatch):
    _pool(monkeypatch, 2)
    monkeypatch.setattr(core, "_fork", _refuse_to_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        rows = map_batches(_ids, 40, RngStream(0, 0), 10)
    finally:
        release.set()
        other.join()
    assert np.array_equal(rows, np.arange(40.0))
    _no_child_left()


@pytest.mark.parametrize("cpu_max,cores", [("max 100000\n", 8), ("150000 100000\n", 1), ("400000 100000\n", 4),
                                           ("50000 100000\n", 1), (None, 8)])
def test_the_core_count_is_capped_by_the_cgroup_quota(monkeypatch, cpu_max, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))

    def fake_open(path):
        if cpu_max is None:
            raise FileNotFoundError(path)
        return io.StringIO(cpu_max)

    monkeypatch.setattr(core, "open", fake_open, raising=False)
    assert core._cores() == cores


def test_a_child_that_exits_without_its_rows_raises(monkeypatch):
    _pool(monkeypatch, 2)
    parent = os.getpid()

    def simulate(s, m):
        if os.getpid() != parent:
            os._exit(7)
        return _ids(s, m)

    with pytest.raises(RuntimeError, match="exit code 7"):
        map_batches(simulate, 40, RngStream(0, 0), 10)
    _no_child_left()


def test_a_truncated_payload_raises(monkeypatch):
    # only the forked child pickles: cut its payload short
    _pool(monkeypatch, 2)
    dumps = pickle.dumps
    monkeypatch.setattr(pickle, "dumps", lambda *args: dumps(*args)[:-8])
    with pytest.raises(RuntimeError, match="unreadable result"):
        map_batches(_ids, 40, RngStream(0, 0), 10)
    _no_child_left()
