"""Batch front-end: parse a run config, dispatch one experiment, emit CSV.

Config grammar (INI, parsed with configparser; see README for the full
reference)::

    [run]
    command = rate-sweep        ; coeffs | rate-sweep | stability | tube
    seed = 42                   ;         | girsanov-check | def31-check
    out = results

    [model]
    drift = sin_bump
    diffusion = sin_elliptic a=1 b=0.5
    family = piecewise shape=linear
    sequence = ramp alpha=0.4 delta=0.5   ; optional drift-smoothing schedule
    x0 = 0.0

    [params]
    T = 1.0
    n_ref = 8192
    ...

Field specs are ``name key=value ...`` with registry names; drift,
diffusion and sequence values are numbers, and a family spec may also name
a shape or kernel (``shape=``, ``kernel=``, ``f1=``, ``f2=``).  Every CSV
starts with a provenance comment (seed, config hash, tool version), uses a
header row, UTF-8, LF line endings and '.' decimals.  Exit codes: 0 ok,
2 validation error, 3 aborted-path threshold breached.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from . import __version__
from .coeffs import CorrectionMatrix, DriftApproxSequence, mollified_sequence, ramp_sequence
from .core import RngStream, ValidationError, make_grid
from .experiments import (
    AbortRateError,
    WongZakaiSetup,
    girsanov_mean,
    make_target,
    rate_sweep,
    stability_sweep,
    tube_ladder,
)
from .noise import check_moment_condition, estimate_c, estimate_s
from .registry import get_diffusion, get_drift, get_family
from .solvers import SolverConfig

COMMANDS = ("coeffs", "rate-sweep", "stability", "tube", "girsanov-check", "def31-check")

# wide id spacing between sub-estimators of one run
_STRIDE = 1 << 32


@dataclass
class RunConfig:
    command: str
    seed: int
    out: FsPath
    model: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    config_hash: str = ""

    def param(self, key, default=None, cast=float):
        """[params] value of key as float, int, bool, str or list (of ints).

        A value that is not a number, or not an integer where one is
        expected, raises ValidationError naming the key.
        """
        if key not in self.params:
            if default is None:
                raise ValidationError(f"missing required parameter '{key}'")
            return default
        raw = self.params[key]
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if cast is list:
            return [_number(key, v, int) for v in raw.replace(",", " ").split()]
        if cast is str:
            return raw.strip()
        return _number(key, raw, cast)


def _number(key: str, text: str, cast=float):
    """text as a float, or as an int when cast is int; ValidationError naming key if it is neither."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"parameter '{key}': '{text.strip()}' is not a number") from None
    if cast is int:
        if not value.is_integer():
            raise ValidationError(f"parameter '{key}': '{text.strip()}' is not an integer")
        return int(value)
    return value


def _parse_field_spec(spec: str, names: bool = False) -> tuple[str, dict]:
    """``name key=value ...``; every value is a number, or with ``names`` a number or a name.

    A value that is not a number where one is required raises
    ValidationError naming the key.
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
        try:
            params[k] = float(v)
        except ValueError:
            if not names:
                raise ValidationError(f"parameter '{k}' of '{name}': '{v}' is not a number") from None
            params[k] = v
    return name, params


def load_config(path: str, seed=None, out=None) -> RunConfig:
    p = FsPath(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {path}")
    raw = p.read_bytes()
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot parse config: {e}") from None
    if not cp.has_section("run") or not cp.has_option("run", "command"):
        raise ValidationError("config must contain a [run] section with a 'command' key")
    command = cp.get("run", "command").strip()
    if command not in COMMANDS:
        raise ValidationError(f"unknown command '{command}'; commands: {', '.join(COMMANDS)}")
    text = cp.get("run", "seed", fallback="0") if seed is None else seed
    try:
        seed = int(text)  # never through float: seeds above 2^53 must stay exact
    except ValueError:
        raise ValidationError(f"parameter 'seed': '{text}' is not an integer") from None
    cfg = RunConfig(
        command=command,
        seed=seed,
        out=FsPath(out if out is not None else cp.get("run", "out", fallback="out")),
        model=dict(cp.items("model")) if cp.has_section("model") else {},
        params=dict(cp.items("params")) if cp.has_section("params") else {},
        config_hash=hashlib.sha256(raw).hexdigest()[:16],
    )
    return cfg


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


def _build_model(cfg: RunConfig, d: int):
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
    if not sigma.elliptic:
        raise ValidationError(
            f"diffusion '{sigma.name}' is flagged non-elliptic (oracle-only); "
            "it cannot be used from the CLI"
        )
    return drift, sigma


def _build_family(cfg: RunConfig):
    fname, fpar = _parse_field_spec(cfg.model.get("family", "piecewise shape=linear"), names=True)
    return get_family(fname, **fpar)


def _build_sequence(cfg: RunConfig, p: float) -> DriftApproxSequence | None:
    if "sequence" not in cfg.model:
        return None
    name, par = _parse_field_spec(cfg.model["sequence"])
    alpha = par.get("alpha", 0.4)
    delta = par.get("delta", 0.5)
    if name == "ramp":
        return ramp_sequence(alpha, p, delta)
    if name == "mollified":
        return mollified_sequence(alpha, p, delta)
    raise ValidationError(f"unknown sequence '{name}'; known: ramp, mollified")


def _check_p(cfg: RunConfig, p: float, d: int) -> None:
    if p >= 2.0 and p > d:
        return
    if cfg.param("allow_p_violation", default=False, cast=bool):
        sys.stderr.write(f"warning: p={p:g} violates p >= 2, p > d={d} (override on)\n")
        return
    raise ValidationError(f"p={p:g} must satisfy p >= 2 and p > d={d} "
                          "(set allow_p_violation = true to override)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_coeffs(cfg: RunConfig, stream: RngStream) -> None:
    d = cfg.param("d", default=2, cast=int)
    family = _build_family(cfg)
    n = cfg.param("n", default=32, cast=int)
    samples = cfg.param("samples", default=10000, cast=int)
    t_mult = cfg.param("t_mult", default=16, cast=int)
    msub = cfg.param("m_sub", default=8, cast=int)
    t = t_mult / n
    s_est = estimate_s(family, n, samples, stream, d=d, msub=msub)
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


def _make_setup(cfg: RunConfig) -> WongZakaiSetup:
    d = 1
    drift, sigma = _build_model(cfg, d)
    family = _build_family(cfg)
    p = cfg.param("p", default=2.0)
    seq = _build_sequence(cfg, p)
    if seq is not None:
        _check_p(cfg, p, d)
    config = SolverConfig(
        n_ref=cfg.param("n_ref", default=1 << 13, cast=int),
        m_ode=cfg.param("m_ode", default=16, cast=int),
        horizon=cfg.param("t", default=1.0),
    )
    return WongZakaiSetup(drift=drift, sigma=sigma,
                          correction=CorrectionMatrix.half_identity(1),
                          family=family, x0=_model_x0(cfg),
                          config=config, drift_seq=seq)


def _model_x0(cfg: RunConfig) -> float:
    return _number("x0", cfg.model.get("x0", "0.0"))


def _cmd_rate_sweep(cfg: RunConfig, stream: RngStream) -> None:
    setup = _make_setup(cfg)
    n_list = cfg.param("n_list", default=[16, 32, 64, 128, 256, 512], cast=list)
    paths = cfg.param("paths", default=500, cast=int)
    rep = rate_sweep(setup, n_list, paths, stream)
    rows = [(n, mse, se, paths, ab) for (n, mse, se), ab in zip(rep.points, rep.aborted)]
    write_csv(cfg, "rate_sweep.csv", ["n", "mse", "stderr", "paths", "aborted"], rows)
    _write_summary(cfg, [
        f"rate-sweep: drift={setup.drift.name} sigma={setup.sigma.name} family={setup.family.name}",
        *(f"  n={n:5d}  mse={mse:.6e} +- {se:.2e}" for n, mse, se in rep.points),
        f"  fitted log-log slope = {rep.slope:+.4f} +- {rep.slope_half_width:.4f}",
    ])


def _cmd_stability(cfg: RunConfig, stream: RngStream) -> None:
    d = 1
    drift, sigma = _build_model(cfg, d)
    p = cfg.param("p", default=2.0)
    seq = _build_sequence(cfg, p)
    if seq is None:
        raise ValidationError("stability needs a 'sequence' entry in [model]")
    _check_p(cfg, p, d)
    n_list = cfg.param("n_list", default=[16, 64, 256], cast=list)
    paths = cfg.param("paths", default=500, cast=int)
    config = SolverConfig(n_ref=cfg.param("n_ref", default=1 << 13, cast=int),
                          horizon=cfg.param("t", default=1.0))
    rep = stability_sweep(drift, seq, sigma, CorrectionMatrix.half_identity(1),
                          _model_x0(cfg), n_list, paths, stream, config)
    rows = [(lvl, dist, mse, se, ab)
            for lvl, ((n, dist, mse, se), ab) in enumerate(zip(rep.levels, rep.aborted))]
    write_csv(cfg, "stability.csv", ["level", "lp_distance", "mse", "stderr", "aborted"], rows)
    _write_summary(cfg, [
        f"stability: drift={drift.name} sequence={seq.name} sigma={sigma.name} paths={paths}",
        *(f"  n={n:5d}  ||b-b_n||_p={dist:.5f}  mse={mse:.6e} +- {se:.2e}"
          for n, dist, mse, se in rep.levels),
        f"  fitted constant mse/dist^2 = {rep.fitted_constant:.5f}; max ratio = {rep.max_ratio:.5f}",
    ])


def _cmd_tube(cfg: RunConfig, stream: RngStream) -> None:
    d = 1
    drift, sigma = _build_model(cfg, d)
    x0 = _model_x0(cfg)
    paths = cfg.param("paths", default=100000, cast=int)
    grid = make_grid(cfg.param("t", default=1.0), cfg.param("n_ref", default=2048, cast=int))
    eps_ladder = [_number("eps_ladder", v) for v in cfg.params.get("eps_ladder", "").split()] or \
        [cfg.param("epsilon", default=0.5)]
    targets = cfg.param("targets", default="const line sine", cast=str).split()
    rows = []
    lines = [f"tube: drift={drift.name} sigma={sigma.name} x0={x0:g} paths={paths}"]
    for ti, kind in enumerate(targets):
        tpar = {}
        if kind == "line":
            tpar["slope"] = cfg.param("line_slope", default=1.0)
        if kind == "sine":
            tpar["amp"] = cfg.param("sine_amp", default=0.3)
            tpar["freq"] = cfg.param("sine_freq", default=1.0)
        target = make_target(kind, grid, x0, **tpar)
        reports = tube_ladder(drift, sigma, CorrectionMatrix.half_identity(1), x0,
                              target, eps_ladder, paths, stream.child(ti * _STRIDE))
        for rep in reports:
            rows.append((kind, rep.epsilon, rep.paths, rep.hits, rep.lower_confidence,
                         rep.aborted))
            lines.append(f"  target={kind:5s} eps={rep.epsilon:<6g} hits={rep.hits:7d}"
                         f"  lcb={rep.lower_confidence:.3e}")
    write_csv(cfg, "tube.csv", ["target", "epsilon", "paths", "hits", "lcb", "aborted"], rows)
    _write_summary(cfg, lines)


def _cmd_girsanov(cfg: RunConfig, stream: RngStream) -> None:
    d = 1
    drift, sigma = _build_model(cfg, d)
    paths = cfg.param("paths", default=10000, cast=int)
    grid = make_grid(cfg.param("t", default=1.0), cfg.param("n_ref", default=4096, cast=int))
    rep = girsanov_mean(drift, sigma, _model_x0(cfg), paths, stream, grid)
    write_csv(cfg, "girsanov.csv", ["paths", "mean_rho", "stderr", "max_weight", "aborted"],
              [(rep.paths, rep.mean_rho, rep.stderr, rep.max_weight, rep.aborted)])
    dev = abs(rep.mean_rho - 1.0) / rep.stderr if rep.stderr > 0 else 0.0
    _write_summary(cfg, [
        f"girsanov-check: drift={drift.name} sigma={sigma.name} paths={paths}",
        f"  mean(rho_T) = {rep.mean_rho:.5f} +- {rep.stderr:.5f} "
        f"(|mean-1| = {dev:.2f} SE); max weight = {rep.max_weight:.3f}",
    ])


def _cmd_def31(cfg: RunConfig, stream: RngStream) -> None:
    family = _build_family(cfg)
    d = cfg.param("d", default=1, cast=int)
    samples = cfg.param("samples", default=10000, cast=int)
    n_list = cfg.param("n_list", default=[4, 8, 16, 32], cast=list)
    rep = check_moment_condition(family, n_list, samples, stream, d=d)
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


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "rate-sweep": _cmd_rate_sweep,
    "stability": _cmd_stability,
    "tube": _cmd_tube,
    "girsanov-check": _cmd_girsanov,
    "def31-check": _cmd_def31,
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        _DISPATCH[cfg.command](cfg, RngStream(cfg.seed, 0))
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
