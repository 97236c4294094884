"""Batch front-end: parse a run config, dispatch one experiment, emit CSV.

Config grammar (INI, parsed with configparser; see README for the full
reference)::

    [run]
    command = rate-sweep        ; coeffs | rate-sweep | stability | tube
    seed = 42                   ;         | girsanov-check | def31-check
    out = results

    [model]
    drift = indicator01
    diffusion = sin_elliptic a=1 b=0.5
    family = piecewise shape=linear
    sequence = ramp alpha=0.4 delta=0.5   ; optional; smooths the drift, which it names
    x0 = 0.0

    [params]
    T = 1.0
    n_ref = 8192
    ...

``COMMANDS`` lists each command's ``[model]`` keys and ``[params]`` keys with
their defaults; any other section, ``[run]`` key other than command, seed and
out, or key the command does not read exits 2 naming it.
Field specs are ``name key=value ...`` with registry names; drift,
diffusion and sequence values are numbers, and a family spec may also name
a shape or kernel (``shape=``, ``kernel=``, ``f1=``, ``f2=``).  Every name
is built through ``registry._build``, so an unknown name, an unknown or
missing key and a key given twice in a spec exit 2 naming it.
``_build_model`` builds the one ``solvers.Model`` of the four path commands
(rate-sweep, stability, tube, girsanov-check): d = 1, the correction I/2,
and the grid of ``t`` and ``n_ref``; ``Model`` checks that its parts share
that dimension.  A value is text to configparser (no ``%`` interpolation).
Every CSV starts with a provenance comment (seed, config hash, tool
version), uses a header row, UTF-8, LF line endings and '.' decimals.  Exit
codes: 0 ok, 2 validation error, 3 aborted-path threshold breached.

Importing this module loads no SciPy module.  rate-sweep and tube import
``scipy.special`` before they build their model (the slope's t quantile,
the tube's lower bound), and the mollified drift and drift sequence load
it when they are built (``erf``), so a run that needs SciPy loads it (or
fails) before its first path.  The other commands run on numpy alone,
with any noise family, the mollified one included.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Callable, NamedTuple

from . import __version__
from .coeffs import CorrectionMatrix, DriftApproxSequence, check_hfn
from .core import RngStream, ValidationError, make_grid
from .experiments import (
    AbortRateError,
    girsanov_mean,
    make_target,
    rate_sweep,
    stability_sweep,
    tube_ladder,
)
from .noise import NoiseFamily, check_moment_condition, estimate_c, estimate_s
from .registry import get_diffusion, get_drift, get_family, get_sequence
from .solvers import M_ODE, Model

# wide id spacing between sub-estimators of one run
_STRIDE = 1 << 32


@dataclass
class RunConfig:
    command: str
    seed: int
    out: FsPath
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)  # every [params] key of the command, typed
    config_hash: str = ""


def _number(key: str, text: str, cast=float):
    """text as a finite float, or as an int when cast is int; ValidationError naming key otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"parameter '{key}': '{text.strip()}' is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"parameter '{key}': '{text.strip()}' is not finite")
    if cast is int:
        if not value.is_integer():
            raise ValidationError(f"parameter '{key}': '{text.strip()}' is not an integer")
        return int(value)
    return value


def _param(key: str, text: str, default):
    """text as a value of default's type: str, a list of its first entry's type, float, or int."""
    if isinstance(default, str):
        return text.strip()
    if isinstance(default, list):
        return [_number(key, v, type(default[0])) for v in text.replace(",", " ").split()]
    return _number(key, text, float if isinstance(default, float) else int)


def _parse_field_spec(spec: str, names: bool = False) -> tuple[str, dict]:
    """``name key=value ...``; every value is a number, or with ``names`` a number or a name.

    A value that is not a finite number where one is required, or a key
    given twice, raises ValidationError naming the key.
    """
    parts = spec.split()
    if not parts:
        raise ValidationError("empty field spec")
    name = parts[0]
    params: dict = {}
    for tok in parts[1:]:
        if "=" not in tok:
            raise ValidationError(f"bad field parameter '{tok}' (expected key=value)")
        k, v = tok.split("=", 1)
        if k in params:
            raise ValidationError(f"parameter '{k}' of '{name}' is given twice")
        try:
            float(v)
        except ValueError:
            if names:
                params[k] = v
                continue
        params[k] = _number(k, v)
    return name, params


def load_config(path: str, seed=None, out=None) -> RunConfig:
    p = FsPath(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    raw = p.read_bytes()
    # no interpolation: '%' in a value is text, which _number then rejects naming its key
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        cp.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot parse config: {e}") from None
    if not cp.has_section("run") or not cp.has_option("run", "command"):
        raise ValidationError("config must contain a [run] section with a 'command' key")
    command = cp.get("run", "command").strip()
    if command not in COMMANDS:
        raise ValidationError(f"unknown command '{command}'; commands: {', '.join(COMMANDS)}")
    spec = COMMANDS[command]
    keys = {"run": ("command", "seed", "out"), "model": spec.model, "params": tuple(spec.params)}
    # configparser copies [DEFAULT] keys into every section, so it is checked first
    for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
        if section not in keys:
            raise ValidationError(f"unknown section [{section}]; sections: {', '.join(keys)}")
        for key in cp.options(section):
            if key not in keys[section]:
                raise ValidationError(f"{command} reads no key '{key}' in [{section}]; "
                                      f"its keys: {', '.join(keys[section])}")
    text = cp.get("run", "seed", fallback="0") if seed is None else seed
    try:
        seed = int(text)  # never through float: seeds above 2^53 must stay exact
    except ValueError:
        raise ValidationError(f"parameter 'seed': '{text}' is not an integer") from None
    if not 0 <= seed < 1 << 64:  # RngStream keys on the seed modulo 2^64
        raise ValidationError(f"parameter 'seed': {seed} is outside [0, 2^64)")
    given = dict(cp.items("params")) if cp.has_section("params") else {}
    return RunConfig(
        command=command,
        seed=seed,
        out=FsPath(out if out is not None else cp.get("run", "out", fallback="out")),
        model=dict(cp.items("model")) if cp.has_section("model") else {},
        params={key: _param(key, given[key], default) if key in given else default
                for key, default in spec.params.items()},
        config_hash=hashlib.sha256(raw).hexdigest()[:16],
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(cfg: RunConfig, name: str, header: list[str], rows: list[tuple]) -> FsPath:
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / name
    lines = [f"# wzsim {__version__} command={cfg.command} seed={cfg.seed} config_sha256={cfg.config_hash}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_summary(cfg: RunConfig, lines: list[str]) -> None:
    cfg.out.mkdir(parents=True, exist_ok=True)
    text = "\n".join(lines) + "\n"
    (cfg.out / "summary.txt").write_text(text, encoding="utf-8", newline="\n")
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------


def _build_model(cfg: RunConfig) -> Model:
    """The [model] drift, diffusion and x0 on the grid of the [params] t and n_ref.

    Every path command runs in d = 1 with the correction I/2.
    """
    d = 1
    if "drift" not in cfg.model:
        raise ValidationError("missing 'drift' in [model]")
    if "diffusion" not in cfg.model:
        raise ValidationError("missing 'diffusion' in [model]")
    dname, dpar = _parse_field_spec(cfg.model["drift"])
    drift = get_drift(dname, **dpar)
    sname, spar = _parse_field_spec(cfg.model["diffusion"])
    if spar.setdefault("d", d) != d:
        raise ValidationError(f"parameter 'd' of '{sname}': {spar['d']:g} differs from "
                              f"the command's dimension {d}")
    spar["d"] = d
    sigma = get_diffusion(sname, **spar)
    if not math.isfinite(sigma.ellipticity):
        raise ValidationError(
            f"diffusion '{sigma.name}' is flagged non-elliptic (oracle-only); "
            "it cannot be used from the CLI"
        )
    x0 = _number("x0", cfg.model.get("x0", "0.0"))
    grid = make_grid(cfg.params["t"], cfg.params["n_ref"])
    return Model(drift, sigma, CorrectionMatrix.half_identity(d), x0, grid)


def _build_family(cfg: RunConfig) -> NoiseFamily:
    fname, fpar = _parse_field_spec(cfg.model.get("family", "piecewise"), names=True)
    return get_family(fname, **fpar)


def _build_sequence(cfg: RunConfig) -> DriftApproxSequence | None:
    """The [model] sequence at the [params] exponent p (which it checks), None if absent."""
    if "sequence" not in cfg.model:
        return None
    name, par = _parse_field_spec(cfg.model["sequence"])
    return get_sequence(name, cfg.params["p"], **par)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_coeffs(cfg: RunConfig, stream: RngStream) -> None:
    family = _build_family(cfg)
    n, samples, msub = (cfg.params[k] for k in ("n", "samples", "m_sub"))
    d = family.required_dim or 2 if cfg.params["d"] is None else cfg.params["d"]
    s_est = estimate_s(family, n, samples, stream, d=d, msub=msub)  # rejects n < 1 before t divides by it
    t = cfg.params["t_mult"] / n
    c_est = estimate_c(family, n, t, samples, stream.child(_STRIDE), d=d, msub=msub)
    dd = s_est.dim
    for name, est, at in (("coeffs_s.csv", s_est, 1.0 / n), ("coeffs_c.csv", c_est, t)):
        write_csv(cfg, name, ["i", "j", "t", "n", "estimate", "stderr", "samples"],
                  [(i, j, at, n, float(est.values[i, j]), float(est.stderrs[i, j]), est.sample_count)
                   for i in range(dd) for j in range(dd)])
    lines = [f"coeffs: family={family.name} n={n} t={t:g} samples={samples}"]
    for i in range(dd):
        for j in range(dd):
            lines.append(f"  c[{i},{j}] = {c_est.values[i, j]:+.5f} +- {c_est.stderrs[i, j]:.5f}"
                         f"   s[{i},{j}] = {s_est.values[i, j]:+.5f} +- {s_est.stderrs[i, j]:.5f}")
    _write_summary(cfg, lines)


def _make_setup(cfg: RunConfig) -> tuple[Model, NoiseFamily, DriftApproxSequence | None]:
    """The rate sweep's model, noise family and drift schedule (None if absent)."""
    return _build_model(cfg), _build_family(cfg), _build_sequence(cfg)


def _cmd_rate_sweep(cfg: RunConfig, stream: RngStream) -> None:
    # loaded before the model is built, so a broken SciPy fails before the Monte Carlo, not after it
    import scipy.special  # noqa: F401

    model, family, seq = _make_setup(cfg)
    paths = cfg.params["paths"]
    rep = rate_sweep(model, family, cfg.params["n_list"], paths, stream, seq, m_ode=cfg.params["m_ode"])
    rows = [(n, mse, se, paths, ab) for (n, mse, se), ab in zip(rep.points, rep.aborted)]
    write_csv(cfg, "rate_sweep.csv", ["n", "mse", "stderr", "paths", "aborted"], rows)
    lines = [f"rate-sweep: drift={model.drift.name} sigma={model.sigma.name} family={family.name}",
             *(f"  n={n:5d}  mse={mse:.6e} +- {se:.2e}" for n, mse, se in rep.points),
             f"  fitted log-log slope = {rep.slope:+.4f} +- {rep.slope_half_width:.4f}"]
    if seq is not None:
        speed = check_hfn(seq, [n for n, _, _ in rep.points])
        lines += [f"  n={n:5d}  log speed value = {v!r}"
                  for n, v in zip(speed.n_list, speed.log_values.tolist())]
        lines.append(f"  speed condition (advisory, noise area rate f_n taken as 0): "
                     f"converging={speed.converging} tail_decreasing={speed.tail_decreasing}")
    _write_summary(cfg, lines)


def _cmd_stability(cfg: RunConfig, stream: RngStream) -> None:
    model = _build_model(cfg)
    seq = _build_sequence(cfg)
    if seq is None:
        raise ValidationError("stability needs a 'sequence' entry in [model]")
    paths = cfg.params["paths"]
    rep = stability_sweep(model, seq, cfg.params["n_list"], paths, stream)
    rows = [(lvl, dist, mse, se, ab)
            for lvl, ((n, dist, mse, se), ab) in enumerate(zip(rep.levels, rep.aborted))]
    write_csv(cfg, "stability.csv", ["level", "lp_distance", "mse", "stderr", "aborted"], rows)
    _write_summary(cfg, [
        f"stability: drift={model.drift.name} sequence={seq.name} sigma={model.sigma.name} paths={paths}",
        *(f"  n={n:5d}  ||b-b_n||_p={dist:.5f}  mse={mse:.6e} +- {se:.2e}"
          for n, dist, mse, se in rep.levels),
        f"  fitted constant mse/dist^2 = {rep.fitted_constant:.5f}; max ratio = {rep.max_ratio:.5f}",
    ])


def _cmd_tube(cfg: RunConfig, stream: RngStream) -> None:
    # loaded before the model is built, so a broken SciPy fails before the Monte Carlo, not after it
    import scipy.special  # noqa: F401

    model = _build_model(cfg)
    paths, eps_ladder = cfg.params["paths"], cfg.params["eps_ladder"]
    kinds = cfg.params["targets"].split()
    targets = [make_target(kind, model.grid, model.x0) for kind in kinds]
    reports = tube_ladder(model, targets, eps_ladder, paths, stream)
    rows = []
    lines = [f"tube: drift={model.drift.name} sigma={model.sigma.name} x0={model.x0:g} paths={paths}"]
    for kind, rep in zip([kind for kind in kinds for _ in eps_ladder], reports):
        rows.append((kind, rep.epsilon, rep.paths, rep.hits, rep.lower_confidence, rep.aborted))
        lines.append(f"  target={kind:5s} eps={rep.epsilon:<6g} hits={rep.hits:7d}"
                     f"  lcb={rep.lower_confidence:.3e}")
    write_csv(cfg, "tube.csv", ["target", "epsilon", "paths", "hits", "lcb", "aborted"], rows)
    _write_summary(cfg, lines)


def _cmd_girsanov(cfg: RunConfig, stream: RngStream) -> None:
    model = _build_model(cfg)
    paths = cfg.params["paths"]
    rep = girsanov_mean(model, paths, stream)
    write_csv(cfg, "girsanov.csv", ["paths", "mean_rho", "stderr", "max_weight", "aborted"],
              [(rep.paths, rep.mean_rho, rep.stderr, rep.max_weight, rep.aborted)])
    dev = abs(rep.mean_rho - 1.0) / rep.stderr if rep.stderr > 0 else 0.0
    _write_summary(cfg, [
        f"girsanov-check: drift={model.drift.name} sigma={model.sigma.name} paths={paths}",
        f"  mean(rho_T) = {rep.mean_rho:.5f} +- {rep.stderr:.5f} "
        f"(|mean-1| = {dev:.2f} SE); max weight = {rep.max_weight:.3f}",
    ])


def _cmd_def31(cfg: RunConfig, stream: RngStream) -> None:
    family = _build_family(cfg)
    samples = cfg.params["samples"]
    d = family.required_dim or 1 if cfg.params["d"] is None else cfg.params["d"]
    rep = check_moment_condition(family, cfg.params["n_list"], samples, stream, d=d)
    rows = []
    for i, n in enumerate(rep.n_list):
        rows.append(("endpoint6", n, float(rep.endpoint_moment[i]), float(rep.endpoint_stderr[i]), samples))
        rows.append(("speed6", n, float(rep.speed_moment[i]), float(rep.speed_stderr[i]), samples))
    write_csv(cfg, "def31.csv", ["moment", "n", "estimate", "stderr", "samples"], rows)
    _write_summary(cfg, [
        f"def31-check: family={family.name} samples={samples} n={list(rep.n_list)}",
        f"  fitted exponent of E|W^n(1/n)|^6      = {rep.endpoint_exponent:+.3f} (target -3)",
        f"  fitted exponent of E(int |dW^n/ds|)^6 = {rep.speed_exponent:+.3f} (target -3)",
    ])


class Command(NamedTuple):
    """A command's function, its [model] keys, and its [params] keys with their defaults."""

    run: Callable[[RunConfig, RngStream], None]
    model: tuple[str, ...]
    params: dict


_PATH_MODEL = ("drift", "diffusion", "x0")

# a key's type is its default's; d's default None is an int, the family's own dimension
COMMANDS = {
    "coeffs": Command(_cmd_coeffs, ("family",),
                      {"d": None, "n": 32, "samples": 10000, "t_mult": 16, "m_sub": 8}),
    "rate-sweep": Command(_cmd_rate_sweep, (*_PATH_MODEL, "family", "sequence"),
                          {"t": 1.0, "n_ref": 8192, "m_ode": M_ODE, "p": 2.0,
                           "n_list": [16, 32, 64, 128, 256, 512], "paths": 500}),
    "stability": Command(_cmd_stability, (*_PATH_MODEL, "sequence"),
                         {"t": 1.0, "n_ref": 8192, "p": 2.0, "n_list": [16, 64, 256], "paths": 500}),
    "tube": Command(_cmd_tube, _PATH_MODEL,
                    {"t": 1.0, "n_ref": 2048, "paths": 100000, "eps_ladder": [0.5],
                     "targets": "const line sine"}),
    "girsanov-check": Command(_cmd_girsanov, _PATH_MODEL, {"t": 1.0, "n_ref": 4096, "paths": 10000}),
    "def31-check": Command(_cmd_def31, ("family",),
                           {"d": None, "samples": 10000, "n_list": [4, 8, 16, 32]}),
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        COMMANDS[cfg.command].run(cfg, RngStream(cfg.seed, 0))
    except (ValidationError, AbortRateError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2 if isinstance(e, ValidationError) else 3
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="wzsim", description=__doc__.split("\n")[0])
    ap.add_argument("--config", required=True, help="run configuration file (INI)")
    ap.add_argument("--seed", type=int, default=None, help="override the config seed")
    ap.add_argument("--out", default=None, help="override the output directory")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out=args.out)
    except ValidationError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
