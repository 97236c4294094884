"""The benchmark's workloads: inputs, Monte Carlo sample counts and output checks.

Each check reads the CSV files a run wrote and returns a list of problems
(empty when the output is right), so a run that is fast but wrong fails.
The inputs are fixed here; only the seed changes between runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    config: str | None          # INI text for CLI workloads, None for the library loop
    entry: str | None           # wzsim.cli name whose first call ends set-up
    samples: int                # Monte Carlo samples completed per run
    sample_unit: str
    check: Callable[[Path], list[str]]


def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _slope(xs, ys) -> float:
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


# --- rate_sweep_singular ----------------------------------------------------

RATE_N_LIST = (16, 32, 64, 128)
RATE_PATHS = 256
# MSE at n=128: seeds 1..10 gave 0.386..0.454 with a standard error of about
# 0.021; without the Ito correction drift in the Euler route it is about 0.75.
RATE_FINEST_MSE_BAND = (0.33, 0.53)

RATE_CONFIG = f"""\
[run]
command = rate-sweep

[model]
drift = indicator01
diffusion = sin_elliptic a=1 b=0.5
family = piecewise shape=linear
sequence = ramp alpha=0.4 delta=0.5
x0 = 0.0

[params]
n_ref = 4096
m_ode = 16
n_list = {" ".join(map(str, RATE_N_LIST))}
paths = {RATE_PATHS}
"""


def check_rate_sweep(out: Path) -> list[str]:
    rows = _rows(out / "rate_sweep.csv")
    ns = [int(r["n"]) for r in rows]
    mse = [float(r["mse"]) for r in rows]
    se = [float(r["stderr"]) for r in rows]
    if ns != list(RATE_N_LIST):
        return [f"levels {ns} != {list(RATE_N_LIST)}"]
    problems = [f"n={n}: mse {m!r} not finite and positive"
                for n, m in zip(ns, mse) if not (math.isfinite(m) and m > 0.0)]
    if problems:
        return problems
    # Levels use disjoint paths, so neighbouring estimates are independent:
    # a rise counts only beyond three standard errors of their difference.
    for k in range(len(ns) - 1):
        if mse[k + 1] > mse[k] + 3.0 * math.hypot(se[k], se[k + 1]):
            problems.append(f"mse rises from n={ns[k]} to n={ns[k + 1]}: {mse[k]:.4g} -> {mse[k + 1]:.4g}")
    if not mse[-1] < mse[0]:
        problems.append(f"mse at n={ns[-1]} is not below n={ns[0]}")
    lo, hi = RATE_FINEST_MSE_BAND
    if not lo <= mse[-1] <= hi:
        problems.append(f"mse at n={ns[-1]} = {mse[-1]:.4f} outside [{lo}, {hi}]")
    slope = _slope([math.log(n) for n in ns], [math.log(m) for m in mse])
    if not slope < 0.0:
        problems.append(f"fitted log-log slope {slope:+.4f} is not negative")
    return problems


# --- coeffs_mollified -------------------------------------------------------

COEFFS_SAMPLES = 1000

COEFFS_CONFIG = f"""\
[run]
command = coeffs

[model]
family = mollified kernel=bump

[params]
d = 2
n = 16
t_mult = 4
m_sub = 8
samples = {COEFFS_SAMPLES}
"""

# c_ii(t=4/n, n=16) of the bump mollifier: seeds 1..30 gave 0.39..0.46 with a
# standard error of about 0.019 each; the band is about four standard errors
# either side of their mean 0.425 and stays below the t -> infinity limit 1/2.
C_DIAG_BAND = (0.35, 0.50)


def check_coeffs(out: Path) -> list[str]:
    problems = []
    s = {(int(r["i"]), int(r["j"])): (float(r["estimate"]), float(r["stderr"]))
         for r in _rows(out / "coeffs_s.csv")}
    c = {(int(r["i"]), int(r["j"])): float(r["estimate"]) for r in _rows(out / "coeffs_c.csv")}
    if sorted(s) != [(0, 0), (0, 1), (1, 0), (1, 1)] or sorted(c) != sorted(s):
        return ["coeffs tables are not 2 x 2"]
    if s[0, 0][0] != 0.0 or s[1, 1][0] != 0.0:
        problems.append("s has a nonzero diagonal")
    if s[0, 1][0] != -s[1, 0][0]:
        problems.append("s is not exactly skew")
    if abs(s[0, 1][0]) > 4.0 * s[0, 1][1]:
        problems.append(f"|s_01| = {abs(s[0, 1][0]):.3g} exceeds 4 SE ({s[0, 1][1]:.3g})")
    lo, hi = C_DIAG_BAND
    for i in (0, 1):
        if not lo <= c[i, i] <= hi:
            problems.append(f"c_{i}{i} = {c[i, i]:.4f} outside [{lo}, {hi}]")
    return problems


# --- tube_support -----------------------------------------------------------

TUBE_PATHS = 4096
TUBE_TARGETS = ("const", "line", "sine")
TUBE_EPS = (0.25, 0.5, 1.0)

TUBE_CONFIG = f"""\
[run]
command = tube

[model]
drift = indicator01
diffusion = sin_elliptic a=1 b=0.5
x0 = 0.0

[params]
n_ref = 2048
paths = {TUBE_PATHS}
targets = {" ".join(TUBE_TARGETS)}
eps_ladder = {" ".join(map(str, TUBE_EPS))}
"""


def check_tube(out: Path) -> list[str]:
    problems = []
    hits: dict[str, list[tuple[float, int]]] = {}
    for r in _rows(out / "tube.csv"):
        hits.setdefault(r["target"], []).append((float(r["epsilon"]), int(r["hits"])))
    if sorted(hits) != sorted(TUBE_TARGETS):
        return [f"targets {sorted(hits)} != {sorted(TUBE_TARGETS)}"]
    for target, ladder in hits.items():
        ladder.sort()
        if [e for e, _ in ladder] != list(TUBE_EPS):
            problems.append(f"{target}: radii {[e for e, _ in ladder]}")
            continue
        counts = [h for _, h in ladder]
        if any(b < a for a, b in zip(counts, counts[1:])):
            problems.append(f"{target}: hits decrease with epsilon: {counts}")
        if counts[-1] < 1:
            problems.append(f"{target}: no path within epsilon=1")
        if counts[-1] <= counts[0]:
            problems.append(f"{target}: the widest tube holds no more paths than the narrowest")
    return problems


# --- oracle_single_path -----------------------------------------------------

ORACLE = {"paths": 50, "steps": 2048, "x0": 1.0}


def check_oracle(out: Path) -> list[str]:
    rows = _rows(out / "oracle.csv")
    if len(rows) != ORACLE["paths"]:
        return [f"{len(rows)} paths, expected {ORACLE['paths']}"]
    rel = []
    for r in rows:
        exact = ORACLE["x0"] * math.exp(float(r["w_T"]))
        rel.append((float(r["x_T"]) - exact) / exact)
    rms = math.sqrt(sum(e * e for e in rel) / len(rel))
    if not rms < 0.05:
        return [f"RMS relative terminal error {rms:.4g} is not below 0.05"]
    return []


WORKLOADS = {
    "rate_sweep_singular": Workload("rate_sweep_singular", RATE_CONFIG, "rate_sweep",
                                    RATE_PATHS * len(RATE_N_LIST), "coupled path per level",
                                    check_rate_sweep),
    "coeffs_mollified": Workload("coeffs_mollified", COEFFS_CONFIG, "estimate_s",
                                 2 * COEFFS_SAMPLES, "Brownian sample per estimator",
                                 check_coeffs),
    "tube_support": Workload("tube_support", TUBE_CONFIG, "tube_ladder",
                             TUBE_PATHS * len(TUBE_TARGETS), "SDE path per target",
                             check_tube),
    "oracle_single_path": Workload("oracle_single_path", None, None, ORACLE["paths"],
                                   "single path", check_oracle),
}
