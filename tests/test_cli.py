import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wzsim import cli, core, experiments, noise, registry
from wzsim.cli import main
from wzsim.coeffs import check_hfn, ramp_approximation, ramp_sequence
from wzsim.core import ValidationError


def run_cli(*args):
    return main(list(args))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


COEFFS_CFG = """
[run]
command = coeffs
seed = 42
out = {out}

[model]
family = piecewise shape=linear

[params]
n = 32
samples = 2000
t_mult = 16
d = 2
"""

RATE_CFG = """
[run]
command = rate-sweep
seed = 7
out = {out}

[model]
drift = sin_bump
diffusion = sin_elliptic a=1 b=0.5
family = piecewise shape=linear
x0 = 0.0

[params]
n_ref = 512
m_ode = 8
n_list = 8 16 32
paths = 60
"""


def test_coeffs_command_writes_both_tables(tmp_path, capsys):
    out = tmp_path / "res"
    cfg = write(tmp_path, "c.ini", COEFFS_CFG.format(out=out))
    assert run_cli("--config", cfg) == 0
    s_csv = (out / "coeffs_s.csv").read_text().splitlines()
    c_csv = (out / "coeffs_c.csv").read_text().splitlines()
    assert s_csv[0].startswith("# wzsim ")
    assert "seed=42" in s_csv[0] and "config_sha256=" in s_csv[0]
    assert s_csv[1] == "i,j,t,n,estimate,stderr,samples"
    # diagonal c estimates sit near 1/2 for the polygonal family
    rows = [line.split(",") for line in c_csv[2:]]
    diag = [float(r[4]) for r in rows if r[0] == r[1]]
    assert all(abs(v - 0.5) < 0.07 for v in diag)
    assert (out / "summary.txt").exists()


def test_missing_config_exits_2(tmp_path):
    assert run_cli("--config", str(tmp_path / "nope.ini")) == 2


def test_empty_config_exits_2(tmp_path):
    cfg = write(tmp_path, "empty.ini", "")
    assert run_cli("--config", cfg) == 2


def test_unknown_command_exits_2_and_lists_commands(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[run]\ncommand = frobnicate\n")
    assert run_cli("--config", cfg) == 2
    err = capsys.readouterr().err
    for cmd in ("coeffs", "rate-sweep", "stability", "tube", "girsanov-check", "def31-check"):
        assert cmd in err


def test_unknown_registry_name_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.ini", RATE_CFG.format(out=tmp_path / "o").replace("sin_bump", "warp"))
    assert run_cli("--config", cfg) == 2


def test_non_elliptic_diffusion_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "lin.ini",
                RATE_CFG.format(out=tmp_path / "o").replace("sin_elliptic a=1 b=0.5", "linear"))
    assert run_cli("--config", cfg) == 2
    assert "non-elliptic" in capsys.readouterr().err


def test_p_outside_the_hypothesis_exits_2(tmp_path, capsys):
    # the ramp schedule is defined from n = 16 on at alpha = 0.4
    base = (RATE_CFG.format(out=tmp_path / "o") + "p = 1.5\n").replace(
        "n_list = 8 16 32", "n_list = 16 32 64")
    seq = base.replace("[model]", "[model]\nsequence = ramp alpha=0.4 delta=0.5")
    cfg = write(tmp_path, "p.ini", seq)
    assert run_cli("--config", cfg) == 2
    assert "p=1.5 must satisfy p >= 2" in capsys.readouterr().err


def test_rate_sweep_csv_schema(tmp_path):
    out = tmp_path / "res"
    cfg = write(tmp_path, "r.ini", RATE_CFG.format(out=out))
    assert run_cli("--config", cfg) == 0
    lines = (out / "rate_sweep.csv").read_text().splitlines()
    assert lines[1] == "n,mse,stderr,paths,aborted"
    assert len(lines) == 5
    ns = [int(l.split(",")[0]) for l in lines[2:]]
    assert ns == [8, 16, 32]


def test_seed_override_changes_output(tmp_path):
    out1, out2, out3 = (tmp_path / f"o{i}" for i in range(3))
    cfg = write(tmp_path, "r.ini", RATE_CFG.format(out="PLACEHOLDER"))
    run_cli("--config", cfg, "--seed", "7", "--out", str(out1))
    run_cli("--config", cfg, "--seed", "7", "--out", str(out2))
    run_cli("--config", cfg, "--seed", "8", "--out", str(out3))
    b1 = (out1 / "rate_sweep.csv").read_bytes()
    b2 = (out2 / "rate_sweep.csv").read_bytes()
    b3 = (out3 / "rate_sweep.csv").read_bytes()
    assert b1 == b2
    assert b1 != b3


@pytest.mark.parametrize("seed", ["18446744073709551619", "-1"], ids=["above_2_64", "negative"])
def test_a_seed_outside_64_bits_exits_2_from_the_command_line(tmp_path, capsys, seed):
    # the streams key on the seed modulo 2^64: 2^64 + 3 would rerun seed 3, and -1 seed 2^64 - 1
    out = tmp_path / "o"
    cfg = write(tmp_path, "r.ini", RATE_CFG.format(out=out))
    assert run_cli("--config", cfg, "--seed", seed) == 2
    assert "'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_def31_command(tmp_path):
    out = tmp_path / "res"
    cfg = write(tmp_path, "d.ini", f"""
[run]
command = def31-check
seed = 9
out = {out}

[model]
family = piecewise shape=linear

[params]
samples = 1500
n_list = 4 8 16 32
""")
    assert run_cli("--config", cfg) == 0
    lines = (out / "def31.csv").read_text().splitlines()
    assert lines[1] == "moment,n,estimate,stderr,samples"
    assert len(lines) == 2 + 8
    summary = (out / "summary.txt").read_text()
    assert "fitted exponent" in summary


GIRSANOV_CFG = """
[run]
command = girsanov-check
seed = 5
out = {out}

[model]
drift = indicator01
diffusion = sin_elliptic a=1 b=0.5
x0 = 0.0

[params]
paths = 1000
n_ref = 1024
"""


def test_girsanov_command(tmp_path):
    out = tmp_path / "res"
    cfg = write(tmp_path, "g.ini", GIRSANOV_CFG.format(out=out))
    assert run_cli("--config", cfg) == 0
    lines = (out / "girsanov.csv").read_text().splitlines()
    assert lines[1] == "paths,mean_rho,stderr,max_weight,aborted"
    mean_rho = float(lines[2].split(",")[1])
    assert abs(mean_rho - 1.0) < 0.1


TUBE_CFG = """
[run]
command = tube
seed = 3
out = {out}

[model]
drift = indicator01
diffusion = sin_elliptic a=1 b=0.5
x0 = 0.0

[params]
paths = 3000
n_ref = 512
eps_ladder = 0.5 1.0 2.0
targets = const line
"""


def test_tube_command(tmp_path):
    out = tmp_path / "res"
    cfg = write(tmp_path, "t.ini", TUBE_CFG.format(out=out))
    assert run_cli("--config", cfg) == 0
    lines = (out / "tube.csv").read_text().splitlines()
    assert lines[1] == "target,epsilon,paths,hits,lcb,aborted"
    rows = [l.split(",") for l in lines[2:]]
    assert len(rows) == 6
    for kind in ("const", "line"):
        hits = [int(r[3]) for r in rows if r[0] == kind]
        assert hits == sorted(hits)


def test_tube_samples_and_solves_once_per_batch_for_every_target(tmp_path, monkeypatch):
    # 3000 paths are three batches of 1024; each batch draws W and runs the
    # Euler solve once, and all three targets read their sup distances from it.
    # One worker: a forked worker would count in its own copy
    monkeypatch.setattr(core, "WORKERS", 1)
    calls = {"sample_brownian_batch": 0, "em_batch": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(experiments, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    out = tmp_path / "res"
    text = TUBE_CFG.format(out=out).replace("targets = const line", "targets = const line sine")
    assert run_cli("--config", write(tmp_path, "t.ini", text)) == 0
    assert len((out / "tube.csv").read_text().splitlines()) == 2 + 3 * 3
    assert calls == {"sample_brownian_batch": 3, "em_batch": 3}


@pytest.mark.parametrize("config,line,bad,key", [
    (RATE_CFG, "paths = 60", "paths = forty", "paths"),
    (RATE_CFG, "n_list = 8 16 32", "n_list = 16 32 x", "n_list"),
    (TUBE_CFG, "eps_ladder = 0.5 1.0 2.0", "eps_ladder = 0.5 wide", "eps_ladder"),
    (RATE_CFG, "paths = 60", "paths = 40.5", "paths"),
    (RATE_CFG, "seed = 7", "seed = abc", "seed"),
    # a seed outside [0, 2^64) would share its streams with the seed it equals modulo 2^64
    (RATE_CFG, "seed = 7", "seed = 18446744073709551619", "seed"),
    (RATE_CFG, "seed = 7", "seed = -1", "seed"),
    (RATE_CFG, "x0 = 0.0", "x0 = zero", "x0"),
    (RATE_CFG, "x0 = 0.0", "sequence = ramp alpha=big\nx0 = 0.0", "alpha"),
    (RATE_CFG, "a=1 b=0.5", "a=one b=0.5", "a"),
    (RATE_CFG, "a=1 b=0.5", "a=1 b=0.5 d=two", "d"),
    # not a number but a drift the random ODE cannot take: no C^1 metadata
    (RATE_CFG, "drift = sin_bump", "drift = indicator01", "indicator01"),
    # keys the field, the diffusion or the family's shape does not take
    (RATE_CFG, "drift = sin_bump", "drift = indicator01 foo=1", "foo"),
    (RATE_CFG, "a=1 b=0.5", "a=1 b=0.5 scale=2", "scale"),
    (RATE_CFG, "shape=linear", "shape=linear bar=2", "bar"),
    # every rate-sweep runs in d = 1
    (RATE_CFG, "a=1 b=0.5", "a=1 b=0.5 d=2", "d"),
    # a key given twice
    (RATE_CFG, "a=1 b=0.5", "a=1 b=0.5 a=2", "a"),
    # a schedule's level-n drift is reached only through its sequence
    (RATE_CFG, "drift = sin_bump", "drift = ramp chi=5 alpha=0.4", "alpha"),
    # keys a sequence does not take; p is the [params] exponent
    (RATE_CFG, "x0 = 0.0", "sequence = ramp alpah=0.2\nx0 = 0.0", "alpah"),
    (RATE_CFG, "x0 = 0.0", "sequence = mollified foo=1\nx0 = 0.0", "foo"),
    (RATE_CFG, "x0 = 0.0", "sequence = ramp p=3\nx0 = 0.0", "p"),
    (RATE_CFG, "x0 = 0.0", "sequence = zigzag\nx0 = 0.0", "zigzag"),
    # a [model] key no command reads
    (COEFFS_CFG, "family = piecewise shape=linear", "famliy = mollified kernel=bump", "famliy"),
    # a number must be finite
    (RATE_CFG, "paths = 60", "paths = 60\np = nan", "p"),
    (RATE_CFG, "x0 = 0.0", "x0 = inf", "x0"),
    (TUBE_CFG, "eps_ladder = 0.5 1.0 2.0", "eps_ladder = 0.5 nan", "eps_ladder"),
    (RATE_CFG, "drift = sin_bump", "drift = ramp chi=nan", "chi"),
    # '%' is text, not configparser interpolation
    (GIRSANOV_CFG, "paths = 1000", "paths = 10%", "paths"),
], ids=["word", "list_entry", "ladder_entry", "fraction_for_int", "seed", "seed_above_2_64",
        "negative_seed", "x0",
        "sequence_param", "diffusion_param", "diffusion_dim", "singular_ode_drift",
        "unknown_drift_param", "unknown_diffusion_param", "unknown_family_param",
        "diffusion_dim_not_the_commands", "repeated_param", "schedule_param_of_a_drift",
        "unknown_sequence_param", "unknown_mollified_sequence_param", "sequence_exponent",
        "unknown_sequence", "unknown_model_key", "nan_exponent", "infinite_x0",
        "nan_ladder_entry", "nan_field_param", "percent"])
def test_malformed_number_exits_2_naming_the_key(tmp_path, capsys, config, line, bad, key):
    text = config.format(out=tmp_path / "o")
    assert line in text
    cfg = write(tmp_path, "bad.ini", text.replace(line, bad))
    assert run_cli("--config", cfg) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


STABILITY_CFG = """
[run]
command = stability
seed = 11
out = {out}

[model]
drift = indicator01
diffusion = sin_elliptic a=1 b=0.5
sequence = ramp alpha=0.4 delta=0.5
x0 = -4.0

[params]
n_ref = 1024
n_list = 16 64
paths = 60
p = 2
"""


ABORT_CASES = {
    # command: (solver it batches over, config, CSV, batches per row); a
    # rate-sweep or stability level of 100 paths is one batch, 3000 tube
    # paths are three, 1000 girsanov paths are one
    "rate-sweep": ("coupled_batch", RATE_CFG.replace("paths = 60", "paths = 100"),
                   "rate_sweep.csv", 1),
    "stability": ("em_batch", STABILITY_CFG.replace("paths = 60", "paths = 100"),
                  "stability.csv", 1),
    "tube": ("em_batch", TUBE_CFG, "tube.csv", 3),
    "girsanov-check": ("em_batch", GIRSANOV_CFG, "girsanov.csv", 1),
}


@pytest.mark.parametrize("command", sorted(ABORT_CASES))
def test_aborted_paths_reach_the_csv(tmp_path, monkeypatch, command):
    # the solver returns the first path of every batch as NaN, as it leaves an
    # aborted path; em_batch returns (values, status), coupled_batch the sup errors
    solver, cfg_text, csv_name, batches = ABORT_CASES[command]
    solve = getattr(experiments, solver)

    def abort_first_path(*args, **kwargs):
        out = solve(*args, **kwargs)
        values = (out[0] if isinstance(out, tuple) else out).copy()
        values[0] = np.nan
        return (values, *out[1:]) if isinstance(out, tuple) else values

    monkeypatch.setattr(experiments, solver, abort_first_path)
    out = tmp_path / "res"
    assert run_cli("--config", write(tmp_path, "a.ini", cfg_text.format(out=out))) == 0
    lines = (out / csv_name).read_text().splitlines()
    assert lines[1].endswith(",aborted")
    assert [int(line.split(",")[-1]) for line in lines[2:]] == [batches] * len(lines[2:])


def test_abort_threshold_exits_3(tmp_path, capsys):
    out = tmp_path / "res"
    cfg = write(tmp_path, "boom.ini",
                RATE_CFG.format(out=out).replace("drift = sin_bump",
                                                 "drift = const v=1e15"))
    assert run_cli("--config", cfg) == 3
    assert "aborted" in capsys.readouterr().err


@pytest.mark.parametrize("raised,code", [("abort", 3), ("validation", 2)])
def test_exit_codes_hold_when_the_batches_run_on_two_workers(tmp_path, monkeypatch, capsys, raised, code):
    # 60 paths in batches of 16 are four batches, two per worker.  An abort is
    # counted in the calling process; a ValidationError raised in the forked
    # worker's share only must still exit 2.  FORK_MIN_S = 0: fork however
    # short the run
    monkeypatch.setattr(core, "WORKERS", 2)
    monkeypatch.setattr(core, "FORK_MIN_S", 0.0)
    monkeypatch.setattr(experiments, "SWEEP_BATCH", 16)
    text = RATE_CFG.format(out=tmp_path / "res")
    if raised == "abort":
        text = text.replace("drift = sin_bump", "drift = const v=1e15")
    else:
        parent, solve = os.getpid(), experiments.coupled_batch

        def refuse_in_the_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise ValidationError("refused in the worker")
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "coupled_batch", refuse_in_the_worker)
    assert run_cli("--config", write(tmp_path, "w.ini", text)) == code
    assert ("aborted" if raised == "abort" else "refused in the worker") in capsys.readouterr().err


def test_stability_command(tmp_path):
    out = tmp_path / "res"
    cfg = write(tmp_path, "s.ini", STABILITY_CFG.format(out=out))
    assert run_cli("--config", cfg) == 0
    lines = (out / "stability.csv").read_text().splitlines()
    assert lines[1] == "level,lp_distance,mse,stderr,aborted"
    assert len(lines) == 4


def test_importing_the_cli_leaves_scipy_stats_unloaded(package_env):
    # Importing the package or its CLI loads no SciPy module at all: scipy.stats
    # takes about a second to import and scipy.special about 0.3 s.  The runs
    # that use SciPy load it while they are set up (next test).
    for module in ("wzsim", "wzsim.cli"):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]", module


# With SciPy blocked, each golden config runs in a child Python; the Monte
# Carlo entries the benchmark times from are wrapped to record their calls.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from pathlib import Path
from wzsim import cli

golden, tmp = Path(sys.argv[1]), Path(sys.argv[2])
calls = []
for name in ("rate_sweep", "tube_ladder", "estimate_s"):
    def wrapped(*args, _name=name, _fn=getattr(cli, name), **kwargs):
        calls.append(_name)
        return _fn(*args, **kwargs)
    setattr(cli, name, wrapped)
result = {}
for name in sys.argv[3:]:
    calls.clear()
    try:
        rc = cli.main(["--config", str(golden / f"{name}.ini"), "--out", str(tmp / name)])
    except ImportError:
        rc = "ImportError"
    result[name] = [rc, list(calls)]
print(json.dumps(result))
"""


def test_scipy_loads_before_the_first_path_of_the_runs_that_need_it(tmp_path, package_env):
    # rate-sweep (fit_rate) and tube (_binomial_lcb) need SciPy and must fail
    # while they are set up, before their Monte Carlo entry and before any CSV;
    # the other commands, the mollified noise family among them, run and write
    # their recorded bytes on numpy alone
    golden = Path(__file__).resolve().parent / "data" / "golden"
    free = ["coeffs", "coeffs-mollified", "def31-check", "girsanov-check", "stability"]
    needs = ["rate-sweep", "tube"]
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(golden), str(tmp_path), *free, *needs],
                         env=package_env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    for name in free:
        assert result[name][0] == 0, name
        recorded = sorted(p.name for p in (golden / name).glob("*.csv"))
        assert recorded and sorted(p.name for p in (tmp_path / name).glob("*.csv")) == recorded
        for csv in recorded:
            assert (tmp_path / name / csv).read_bytes() == (golden / name / csv).read_bytes(), csv
    for name in needs:
        assert result[name] == ["ImportError", []], name
        assert not list((tmp_path / name).glob("*.csv")), name


# Runs the config argv[1] in a child Python and prints the modules first loaded
# after the Monte Carlo entry estimate_s was called.
_LOADED_AFTER_ENTRY = """
import json, sys
from wzsim import cli

at_entry = []
def wrapped(*args, _fn=cli.estimate_s, **kwargs):
    at_entry.append(set(sys.modules))
    return _fn(*args, **kwargs)
cli.estimate_s = wrapped
cli.main(["--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps(sorted(set(sys.modules) - at_entry[0])))
"""


def test_a_mollified_coeffs_run_loads_no_module_after_its_monte_carlo_starts(tmp_path, package_env):
    # numpy.random (a dozen C extensions) and numpy.polynomial (the kernel's
    # Gauss-Legendre rule) load while the run is set up: an import inside the
    # Monte Carlo phase would add file system and loader time, which varies from
    # run to run, to the time the benchmark divides the samples by
    config = Path(__file__).resolve().parent / "data" / "golden" / "coeffs-mollified.ini"
    out = subprocess.run([sys.executable, "-c", _LOADED_AFTER_ENTRY, str(config), str(tmp_path)],
                         env=package_env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_the_benchmark_tracer_finds_every_name_it_wraps(package_env):
    # perfbench/layers.py wraps package functions by name (solve_ito_corrected,
    # mc_mean_sup_error, _tube_sups, ...): deleting one breaks traced benchmark runs
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = f"import sys; sys.path.insert(0, {str(perfbench)!r}); import layers; layers.Tracer().install()"
    out = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr


# Installs the benchmark's tracer, makes the calls it counts and prints the counts.
_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
tracer = layers.Tracer()
tracer.install()
import numpy as np
from wzsim import cli, experiments, solvers
from wzsim.coeffs import CorrectionMatrix
from wzsim.core import Path, RngStream, make_grid, sample_brownian_batch
from wzsim.noise import PiecewiseShape
from wzsim.registry import const_diffusion, sin_bump_drift, sin_elliptic_diffusion, zero_drift
from wzsim.shapes import linear_shape

half, grid, family = CorrectionMatrix.half_identity(1), make_grid(1.0, 64), PiecewiseShape(linear_shape())
model = solvers.Model(sin_bump_drift(), sin_elliptic_diffusion(1.0, 0.5), half, 0.0, grid)
experiments.mc_mean_sup_error(model, family, 16, 30, RngStream(1, 0))
cli.estimate_s(family, 16, 10, RngStream(2, 0), d=2)
cli.estimate_c(family, 16, 0.5, 10, RngStream(3, 0), d=2)
w = sample_brownian_batch(grid, 1, RngStream(4, 0), 1)[0]
solvers.solve_ito_corrected(zero_drift(), const_diffusion(1.0), half, 0.0, Path(grid, w))
dw = np.zeros((2, 64, 1))
dw[1, 10] = 1e13  # path 1 leaves [-1e12, 1e12] and aborts
solvers.em_batch(zero_drift(), const_diffusion(1.0), half, 0.0, dw, grid.dt)
print(json.dumps(tracer.report()["counts"]))
"""


def test_the_benchmark_tracer_counts_what_its_wrapped_calls_did(package_env):
    # the tracer reads the arguments of the calls it wraps by position (em_batch's
    # increments, rk4_batch's stage drivers, the estimators' sample counts):
    # a reordered argument would make a traced benchmark run crash or count wrong
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    out = subprocess.run([sys.executable, "-c", _TRACED, str(perfbench)], env=package_env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.splitlines()[-1])
    # Euler: the 30 coupled references, the one solve_ito_corrected path and the
    # two paths of the aborting batch, 64 steps each; RK4: 30 paths x 16 blocks x 4 steps
    assert counts["solvers.em_batch.path_steps"] == (30 + 1 + 2) * 64
    assert counts["solvers.rk4_batch.path_steps"] == 30 * 16 * 4
    assert counts["solvers.paths"] == 30 + 30 + 1 + 2
    assert counts["solvers.aborted_paths"] == 1
    assert counts["noise.estimate_s.samples"] == 10
    assert counts["noise.estimate_c.samples"] == 10


def _no_paths(monkeypatch):
    """Make every sampler and solver a command could reach fail the test."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a path was simulated before the input was checked")

    for module, name in ((experiments, "coupled_batch"), (experiments, "em_batch"),
                         (experiments, "sample_brownian_batch"), (noise, "sample_brownian_batch")):
        monkeypatch.setattr(module, name, unreachable)


SWEEP_CFG = RATE_CFG.replace("drift = sin_bump", "drift = indicator01\nsequence = ramp alpha=0.4 delta=0.5") \
    .replace("n_list = 8 16 32", "n_list = 16 32 64")


@pytest.mark.parametrize("edit,message", [
    # the n = 64 ramp declares a slope bound below its own slope chi/2
    (lambda b_n, n: dataclasses.replace(b_n, sup_grad=0.01) if n == 64 else b_n,
     "central differences reach"),
    # the n = 64 member's C^1 norm, 26, exceeds h(64) ||b||_p
    (lambda b_n, n: ramp_approximation(50.0) if n == 64 else b_n, "level n=64"),
], ids=["understated_slope", "member_above_its_bound"])
def test_rate_sweep_rejects_a_level_outside_the_hypotheses_before_any_path(
        tmp_path, capsys, monkeypatch, edit, message):
    def edited(alpha, p, delta):
        seq = ramp_sequence(alpha, p, delta)
        return dataclasses.replace(seq, generator=lambda n: edit(seq.generator(n), n))

    monkeypatch.setitem(registry.SEQUENCES, "ramp", edited)
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    assert run_cli("--config", write(tmp_path, "r.ini", SWEEP_CFG.format(out=out))) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_rate_sweep_summary_reports_the_speed_condition(tmp_path):
    out = tmp_path / "o"
    assert run_cli("--config", write(tmp_path, "r.ini", SWEEP_CFG.format(out=out))) == 0
    summary = (out / "summary.txt").read_text()
    logged = {int(n): float(v) for n, v in re.findall(r"n=\s*(\d+)\s+log speed value = (\S+)", summary)}
    rep = check_hfn(ramp_sequence(0.4, 2.0, 0.5), [16, 32, 64])
    assert logged == dict(zip(rep.n_list, rep.log_values.tolist()))
    assert f"converging={rep.converging} tail_decreasing={rep.tail_decreasing}" in summary
    assert "f_n taken as 0" in summary
    assert "speed" not in (out / "rate_sweep.csv").read_text()


def test_a_sequence_without_keys_takes_the_default_schedule(tmp_path):
    text = SWEEP_CFG.format(out=tmp_path / "o").replace("ramp alpha=0.4 delta=0.5", "ramp")
    seq = cli._build_sequence(cli.load_config(write(tmp_path, "r.ini", text)))
    assert (seq.name, seq.p, seq.delta) == ("ramp[alpha=0.4]", 2.0, 0.5)


@pytest.mark.parametrize("config,drift", [(SWEEP_CFG, "sin_bump"), (STABILITY_CFG, "zero")],
                         ids=["rate_sweep", "stability"])
def test_a_drift_the_schedule_does_not_smooth_exits_2_before_any_path(tmp_path, capsys, monkeypatch,
                                                                     config, drift):
    # the ramp schedule smooths indicator01: on another drift its levels would
    # approximate a field the SDE does not run with
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    text = config.format(out=out)
    assert "drift = indicator01" in text
    assert run_cli("--config", write(tmp_path, "m.ini", text.replace("drift = indicator01",
                                                                     f"drift = {drift}"))) == 2
    err = capsys.readouterr().err
    assert "'indicator01'" in err and f"'{drift}" in err
    assert not out.exists()


@pytest.mark.parametrize("line,bad,key", [
    ("targets = const line", "targets = const bogus", "bogus"),
    ("targets = const line", "targets = const line\nline_slope = steep", "line_slope"),
    ("targets = const line", "targets = const sine\nsine_freq = fast", "sine_freq"),
], ids=["unknown_target", "line_slope", "sine_freq"])
def test_tube_builds_every_target_before_any_path(tmp_path, capsys, monkeypatch, line, bad, key):
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    text = TUBE_CFG.format(out=out)
    assert line in text
    assert run_cli("--config", write(tmp_path, "t.ini", text.replace(line, bad))) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_stability_without_levels_exits_2_before_any_path(tmp_path, capsys, monkeypatch):
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    text = STABILITY_CFG.format(out=out).replace("n_list = 16 64", "n_list =")
    assert run_cli("--config", write(tmp_path, "s.ini", text)) == 2
    assert "level" in capsys.readouterr().err
    assert not out.exists()


DEF31_CFG = """
[run]
command = def31-check
seed = 9
out = {out}

[model]
family = piecewise shape=linear

[params]
samples = 200
n_list = 4 8
"""


@pytest.mark.parametrize("n_list", ["", "8", "8 8"], ids=["empty", "one_level", "one_distinct_level"])
def test_def31_needs_two_distinct_levels_before_any_sample(tmp_path, capsys, monkeypatch, n_list):
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    text = DEF31_CFG.format(out=out).replace("n_list = 4 8", f"n_list = {n_list}")
    assert run_cli("--config", write(tmp_path, "d.ini", text)) == 2
    assert "two distinct levels" in capsys.readouterr().err
    assert not out.exists()


def _mcshane(config, out, d=None):
    """config with the mcshane family, and 'd = <d>' in place of its own 'd' line (none if None)."""
    text = re.sub(r"\nd = \d+\n", "\n", config.format(out=out))
    return text.replace("piecewise shape=linear", "mcshane") + (f"d = {d}\n" if d else "")


@pytest.mark.parametrize("config,d", [(COEFFS_CFG, 3), (DEF31_CFG, 1)], ids=["coeffs", "def31-check"])
def test_a_dimension_the_family_does_not_support_exits_2(tmp_path, capsys, monkeypatch, config, d):
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    assert run_cli("--config", write(tmp_path, "m.ini", _mcshane(config, out, d))) == 2
    assert "requires dimension 2, got" in capsys.readouterr().err
    assert not out.exists()


def test_the_default_dimension_is_the_familys(tmp_path):
    # mcshane needs d = 2: with no 'd' line both commands run in it
    coeffs = _mcshane(COEFFS_CFG, tmp_path / "c").replace("samples = 2000", "samples = 200")
    assert run_cli("--config", write(tmp_path, "c.ini", coeffs)) == 0
    assert len((tmp_path / "c" / "coeffs_s.csv").read_text().splitlines()) == 2 + 4
    assert run_cli("--config", write(tmp_path, "d.ini", _mcshane(DEF31_CFG, tmp_path / "d"))) == 0


@pytest.mark.parametrize("config,line,bad,named", [
    # a [params] key no command reads
    (COEFFS_CFG, "n = 32", "n = 32\nsample = 10", "'sample'"),
    (RATE_CFG, "paths = 60", "paths = 60\nn_reff = 64", "'n_reff'"),
    (STABILITY_CFG, "paths = 60", "paths = 60\npath = 3", "'path'"),
    (TUBE_CFG, "paths = 3000", "paths = 3000\nn_reff = 64\npath = 3", "'n_reff'"),
    (GIRSANOV_CFG, "paths = 1000", "paths = 1000\nn_reff = 64", "'n_reff'"),
    (DEF31_CFG, "samples = 200", "samples = 200\nsample = 10", "'sample'"),
    # a [params] key that only another command reads
    (STABILITY_CFG, "paths = 60", "paths = 60\nm_ode = 8", "'m_ode'"),
    (DEF31_CFG, "samples = 200", "samples = 200\nn_ref = 64", "'n_ref'"),
    (TUBE_CFG, "paths = 3000", "paths = 3000\nd = 1", "'d'"),
    # epsilon is no alias of eps_ladder, and an empty ladder has no radius
    (TUBE_CFG, "eps_ladder = 0.5 1.0 2.0", "eps_ladder =\nepsilon = 0.7", "'epsilon'"),
    (TUBE_CFG, "eps_ladder = 0.5 1.0 2.0", "eps_ladder =", "need at least one radius"),
    # a level below 1, before the coeffs command divides t_mult by it
    (COEFFS_CFG, "n = 32", "n = 0", "n must be >= 1"),
    (DEF31_CFG, "n_list = 4 8", "n_list = 4 0 8", "n must be >= 1"),
    # a [model] key the command does not read
    (GIRSANOV_CFG, "x0 = 0.0", "x0 = 0.0\nsequence = ramp alpha=0.4", "'sequence'"),
    (GIRSANOV_CFG, "x0 = 0.0", "x0 = 0.0\nfamily = mcshane", "'family'"),
    (COEFFS_CFG, "[model]", "[model]\ndrift = indicator01", "'drift'"),
    # a misspelt [run] key or section; [DEFAULT] keys reach every section
    (GIRSANOV_CFG, "seed = 5", "sed = 5", "'sed'"),
    (GIRSANOV_CFG, "[params]", "[param]", "[param]"),
    (GIRSANOV_CFG, "[run]", "[DEFAULT]\nseed = 1\n\n[run]", "[DEFAULT]"),
], ids=["coeffs_unknown", "rate_sweep_unknown", "stability_unknown", "tube_unknown",
        "girsanov_unknown", "def31_unknown", "stability_m_ode", "def31_n_ref", "tube_d",
        "tube_epsilon", "tube_empty_ladder", "coeffs_n_0", "def31_n_list_0", "girsanov_sequence",
        "girsanov_family", "coeffs_drift", "run_key", "section", "default_section"])
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, monkeypatch, config, line, bad, named):
    _no_paths(monkeypatch)
    out = tmp_path / "o"
    text = config.format(out=out)
    assert line in text
    assert run_cli("--config", write(tmp_path, "k.ini", text.replace(line, bad))) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_every_golden_and_benchmark_config_loads(tmp_path, monkeypatch):
    # a key the table rejects would turn a benchmark run into exit 2; perfbench/
    # is imported through sys.path, as the tracer test does
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    try:
        import workloads
    finally:
        sys.modules.pop("workloads", None)
    paths = sorted((root / "tests" / "data" / "golden").glob("*.ini"))
    paths += [write(tmp_path, f"{name}.ini", wl.config)
              for name, wl in workloads.WORKLOADS.items() if wl.config is not None]
    assert len(paths) == 7 + 3
    for path in paths:
        assert cli.load_config(str(path)).command in cli.COMMANDS


def test_every_param_the_cli_reads_is_in_the_readme_config_block():
    root = Path(__file__).resolve().parent.parent
    keys = {key for command in cli.COMMANDS.values() for key in command.params}
    assert {"m_sub", "n_list", "eps_ladder"} <= keys
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0].lower()
    params = block.split("[params]", 1)[1]
    # configparser lower-cases keys, so 'T' in the README is the key 't'
    missing = sorted(k for k in keys if not re.search(rf"(?<!\w){k}(?!\w)", params))
    assert missing == []
    # every registry name, and every key of a sequence spec, is named in [model]
    model = block.split("[model]", 1)[1].split("[params]", 1)[0]
    tables = (registry.DRIFTS, registry.DIFFUSIONS, registry.SEQUENCES, registry.FAMILIES,
              registry.SHAPES, registry.KERNELS)
    names = {name for table in tables for name in table}
    names |= {k for b in registry.SEQUENCES.values() for k in inspect.signature(b).parameters} - {"p"}
    assert {"indicator01", "alpha", "delta", "hann", "smoothstep"} <= names
    missing = sorted(n for n in names if not re.search(rf"(?<!\w){n}(?!\w)", model))
    assert missing == []


def test_the_readme_library_sketch_runs(package_env):
    # the block as written, in a child Python; its slope lies in criterion 02's window
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = subprocess.run([sys.executable, "-c", code], env=package_env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert -1.2 <= float(out.stdout.split()[-1]) <= -0.7


def test_no_public_callable_takes_a_removed_knob():
    # batch sizes, quadrature cells, the speed threshold and the member
    # tolerance are module constants, not parameters of the public API; and
    # the SDE comes as one Model, not as a second config or setup bundle
    import wzsim

    knobs = {"batch", "cells", "threshold", "tol", "config", "setup"}
    found = []
    for name in wzsim.__all__:
        obj = getattr(wzsim, name)
        if not callable(obj):
            continue
        members = [obj]
        if inspect.isclass(obj):
            members += [m for k, m in vars(obj).items() if not k.startswith("_") and callable(m)]
        for fn in members:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            found += [f"{name}.{getattr(fn, '__name__', '')}({p})" for p in params if p in knobs]
    assert found == []
