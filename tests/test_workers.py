"""core.map_batches and core.map_levels on several workers: the same bytes, exceptions with their type,
no child left, no worker that forks."""

import io
import os
import pickle
import threading
import time

import numpy as np
import pytest

from wzsim import core, experiments, noise, solvers
from wzsim.coeffs import CorrectionMatrix, ramp_sequence
from wzsim.core import RngStream, ValidationError, make_grid, map_batches
from wzsim.experiments import AbortRateError, girsanov_mean, make_target, rate_sweep, stability_sweep, tube_ladder
from wzsim.noise import McShane, Mollified, PiecewiseShape, estimate_c, estimate_s
from wzsim.registry import indicator_drift, sin_bump_drift, sin_elliptic_diffusion
from wzsim.shapes import bump_kernel, linear_shape, power_shape
from wzsim.solvers import Model

GRID = make_grid(1.0, 256)
MODEL = Model(indicator_drift(), sin_elliptic_diffusion(1.0, 0.5), CorrectionMatrix.half_identity(1), 0.0, GRID)
PATHS = 70
LIN = PiecewiseShape(linear_shape())
SEQ = ramp_sequence(alpha=0.4, p=2.0, delta=0.5)
# a C^1 drift needs no schedule, so its sweeps can take cheap low levels
SMOOTH = Model(sin_bump_drift(), MODEL.sigma, MODEL.correction, 0.0, GRID)
LEVELS = [2, 4, 8, 16, 32]


def _sweep(levels):
    # the driver of rate_sweep, which needs 3 levels for its fit
    return experiments._mean_sup_errors(SMOOTH, LIN, levels, PATHS, RngStream(5, 4), None, 4)


ESTIMATORS = {
    "tube_ladder": lambda: tube_ladder(MODEL, [make_target(kind, GRID, 0.0) for kind in ("line", "sine")],
                                       [0.25, 0.5, 1.0], PATHS, RngStream(5, 2)),
    "girsanov_mean": lambda: girsanov_mean(MODEL, PATHS, RngStream(5, 3)),
    "estimate_s": lambda: estimate_s(McShane(linear_shape(), power_shape(2.0)), 16, PATHS, RngStream(5, 0)),
    "estimate_c": lambda: estimate_c(Mollified(bump_kernel()), 16, 0.25, PATHS, RngStream(5, 1)),
    # 1, 2, 4 and 5 levels: fewer, as many and more levels than 2 or 3 workers
    "rate_sweep": lambda: rate_sweep(MODEL, LIN, [16, 32, 64, 128], PATHS, RngStream(5, 4), SEQ, m_ode=4),
    "rate_sweep_1_level": lambda: _sweep(LEVELS[:1]),
    "rate_sweep_2_levels": lambda: _sweep(LEVELS[:2]),
    "rate_sweep_5_levels": lambda: _sweep(LEVELS),
    "stability_sweep": lambda: stability_sweep(MODEL, SEQ, [16, 32, 64, 128], PATHS, RngStream(5, 5)),
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
    # 2 or 3 workers; 3 workers fork even on a machine with fewer cores.  A
    # sweep's first batch also splits its levels over the workers
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


def _level_values_failing(where):
    # solvers._level_values that raises at levels above 2 in the process named by where
    parent, values = os.getpid(), solvers._level_values

    def level_values(model, b_n, family, w, n, layout, m_ode):
        if n > 2:
            here = os.getpid() == parent
            if here == (where == "parent"):
                if here:
                    time.sleep(0.2)
                raise ValidationError(f"bad level {n}")
            if not here:
                time.sleep(60)  # the child, while the parent raises
        return values(model, b_n, family, w, n, layout, m_ode)

    return level_values


@pytest.mark.parametrize("workers", [2, 3])
def test_an_exception_in_a_childs_levels_reaches_the_caller_with_its_type(monkeypatch, workers):
    # levels 2 4 8 16 are 8, 16, 32 and 64 RK4 steps: after level 2 the
    # parent runs {4, 8} and one child {16}, for 2 workers or 3
    _pool(monkeypatch, workers)
    monkeypatch.setattr(solvers, "_level_values", _level_values_failing("child"))
    levels = [(n, SMOOTH.drift) for n in LEVELS[:4]]
    with pytest.raises(ValidationError, match="bad level 16$"):
        solvers.coupled_batch(SMOOTH, LIN, levels, RngStream(0, 0), 8, m_ode=4)
    _no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_an_exception_in_the_parents_levels_stops_the_child_at_once(monkeypatch, workers):
    # the parent raises at level 4 while its child computes level 16 for a
    # minute: the call must neither wait for the child nor leave it running
    _pool(monkeypatch, workers)
    monkeypatch.setattr(solvers, "_level_values", _level_values_failing("parent"))
    levels = [(n, SMOOTH.drift) for n in LEVELS[:4]]
    t0 = time.monotonic()
    with pytest.raises(ValidationError, match="bad level 4$"):
        solvers.coupled_batch(SMOOTH, LIN, levels, RngStream(0, 0), 8, m_ode=4)
    assert time.monotonic() - t0 < 30
    _no_child_left()


def test_equal_levels_split_into_one_group_per_worker(monkeypatch):
    _pool(monkeypatch, 3)
    parent, ran = os.getpid(), []

    def run(lo, hi):
        ran.append((lo, hi))
        return [(lv, os.getpid() == parent) for lv in range(lo, hi)]

    out = core.map_levels(run, [1] * 7)
    assert [lv for lv, _ in out] == list(range(7))
    assert [lv for lv, here in out if here] == [0, 1, 2]
    assert ran == [(0, 1), (1, 3)]
    _no_child_left()


def test_no_worker_forks_and_no_more_than_the_workers_compute_at_once(monkeypatch, tmp_path):
    # 70 paths in batches of 24 are 3 batches.  The first batch splits its
    # levels over 2 processes; then map_batches forks a share of the other
    # paths, whose sweeps, in the parent and in the child, must not fork
    # again.  Every fork and reap is logged with the pid that made it
    _pool(monkeypatch, 2)
    monkeypatch.setattr(experiments, "SWEEP_BATCH", 24)
    log = tmp_path / "forks"
    fork, waitpid = os.fork, os.waitpid

    def record(line):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{line}\n".encode())
        finally:
            os.close(fd)

    def logged_fork():
        pid = fork()
        if pid:
            record(f"fork {os.getpid()} {pid}")
        return pid

    def logged_waitpid(pid, options):
        out = waitpid(pid, options)
        record(f"reap {os.getpid()} {out[0]}")
        return out

    monkeypatch.setattr(os, "fork", logged_fork)
    monkeypatch.setattr(os, "waitpid", logged_waitpid)
    rate_sweep(SMOOTH, LIN, LEVELS[:4], PATHS, RngStream(5, 4), m_ode=4)
    events = [line.split() for line in log.read_text().splitlines()]
    assert {by for _, by, _ in events} == {str(os.getpid())}
    live, most = set(), 0
    for kind, _, pid in events:
        (live.add if kind == "fork" else live.discard)(pid)
        most = max(most, len(live))
    assert [kind for kind, _, _ in events] == ["fork", "reap"] * 2
    assert most + 1 <= core.WORKERS
    _no_child_left()
