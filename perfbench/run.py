"""wzsim benchmark: Monte Carlo workloads timed end to end, per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/wzsim``; nothing has
to be installed).  For ``--seconds`` the command launches the workload as a
fresh child process (``perfbench/child.py``, which runs ``wzsim.cli.main``
or the library loop), one child at a time, every child with the same seed.
Each child's output is checked, and the sha256 of its CSV files must match
that of every other child of the run: results are byte-reproducible for a
given (seed, config).

``--trace 0`` reports the end-to-end metrics, medians over the children:
``wall_s`` (launch to exit), ``setup_s`` (launch to the first call into the
workload's Monte Carlo entry), ``samples_per_s`` (samples / (wall_s -
setup_s)), ``cpu_s`` (user + sys of the child) and ``peak_rss_mb`` (its
max RSS).  ``--trace 1`` alternates untraced children with traced ones and
reports the per-layer metrics of the traced ones (see ``layers.py``) plus
the tracing overhead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; failed / attempted
is the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 160.0            # one workload's run must end within 180 s
MAX_FAILS_IN_A_ROW = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

# name -> unit; rates divide a call's inclusive time by the work it did
PER_LAYER = {
    "core.self_s": "s",
    "core.sample_brownian_batch.self_s": "s",
    "core.sample_brownian_batch.ns_per_increment": "ns",
    "noise.self_s": "s",
    "noise.batch_values.self_s": "s",
    "noise.batch_values.ns_per_eval": "ns",
    "noise.batch_derivs.self_s": "s",
    "noise.batch_derivs.ns_per_eval": "ns",
    "noise.batch_derivs_blockwise.self_s": "s",
    "noise.batch_derivs_blockwise.ns_per_eval": "ns",
    "noise.estimate_s.us_per_sample": "us",
    "noise.estimate_c.us_per_sample": "us",
    "coeffs.self_s": "s",
    "coeffs.drift_eval.self_s": "s",
    "coeffs.drift_eval.ns_per_point": "ns",
    "coeffs.sigma_eval.self_s": "s",
    "coeffs.sigma_eval.ns_per_point": "ns",
    "coeffs.correction_drift_batch.self_s": "s",
    "solvers.self_s": "s",
    "solvers.em_batch.self_s": "s",
    "solvers.em_batch.ns_per_path_step": "ns",
    "solvers.rk4_batch.self_s": "s",
    "solvers.rk4_batch.ns_per_path_step": "ns",
    "solvers.coupled_batch.self_s": "s",
    "solvers.solve_ito_corrected.us_per_call": "us",
    "solvers.paths": "count",
    "solvers.aborted_paths": "count",
    "experiments.self_s": "s",
    "experiments.batches": "count",
    "cli.self_s": "s",
    "cli.import_s": "s",
    "cli.setup.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.csv_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.setup_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Child:
    traced: bool
    rc: int | None = None
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    csv_sha256: str = ""
    csv_bytes: int = 0
    problems: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems

    @property
    def measured(self) -> bool:
        """Ran to the end, so its timings exist even if its output is wrong."""
        return self.rc == 0 and "stamps" in self.report


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            asked = int(env.get(var, nproc))
        except ValueError:
            asked = nproc
        env[var] = str(max(1, min(asked, nproc)))
    return env


def csv_digest(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def launch(wl, seed: int, idx: int, traced: bool, env: dict, timeout: float) -> Child:
    out = WORK / f"{wl.name}-{idx}"
    report = WORK / f"{wl.name}-{idx}.json"
    log = WORK / f"{wl.name}-{idx}.log"
    shutil.rmtree(out, ignore_errors=True)
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--out", str(out), "--report", str(report)]
    if wl.config is not None:
        cmd += ["--config", str(WORK / f"{wl.name}.ini")]
    if traced:
        cmd.append("--trace")
    child = Child(traced)
    with log.open("wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        child.wall_s = time.monotonic() - t0
    child.rc = proc.returncode
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.peak_rss_mb = usage.ru_maxrss / 1024.0
    if child.rc != 0:
        child.problems.append(f"exit code {child.rc}: "
                              + log.read_text(errors="replace")[-2000:].strip())
        return child
    try:
        rep = json.loads(report.read_text(encoding="utf-8"))
        child.setup_s = rep["stamps"]["t_entry"] - t0
        if not rep["wzsim_file"].startswith(str(ROOT / "src")):
            child.problems.append(f"ran wzsim from {rep['wzsim_file']}, not this checkout")
        child.report = rep
        child.csv_sha256, child.csv_bytes = csv_digest(out)
        child.problems += wl.check(out)
    except (OSError, ValueError, KeyError) as e:
        child.problems.append(f"unreadable report or output: {e!r}")
    shutil.rmtree(out, ignore_errors=True)
    return child


def layer_metrics(c: Child) -> dict:
    """Per-layer metrics of one traced child (trace.overhead_s is added by the caller)."""
    tr = c.report["trace"]
    spans, counts, layers = tr["spans"], tr["counts"], tr["layers"]

    def own(key):
        return spans.get(key, [0, 0.0, 0.0])[1]

    def per(key, work, scale):
        n = counts.get(work, 0)
        return spans[key][2] * scale / n if n else 0.0

    m = {f"{layer}.self_s": layers[layer] for layer in layers}
    for key in ("core.sample_brownian_batch", "noise.batch_values", "noise.batch_derivs",
                "noise.batch_derivs_blockwise", "coeffs.drift_eval", "coeffs.sigma_eval",
                "coeffs.correction_drift_batch", "solvers.em_batch", "solvers.rk4_batch",
                "solvers.coupled_batch", "cli.setup", "cli.write_csv"):
        m[f"{key}.self_s"] = own(key)
    m["core.sample_brownian_batch.ns_per_increment"] = per(
        "core.sample_brownian_batch", "core.sample_brownian_batch.increments", 1e9)
    for key in ("noise.batch_values", "noise.batch_derivs", "noise.batch_derivs_blockwise"):
        m[f"{key}.ns_per_eval"] = per(key, f"{key}.evals", 1e9)
    for key in ("noise.estimate_s", "noise.estimate_c"):
        m[f"{key}.us_per_sample"] = per(key, f"{key}.samples", 1e6)
    for key in ("coeffs.drift_eval", "coeffs.sigma_eval"):
        m[f"{key}.ns_per_point"] = per(key, f"{key}.points", 1e9)
    for key in ("solvers.em_batch", "solvers.rk4_batch"):
        m[f"{key}.ns_per_path_step"] = per(key, f"{key}.path_steps", 1e9)
    calls = spans.get("solvers.solve_ito_corrected", [0, 0.0, 0.0])
    m["solvers.solve_ito_corrected.us_per_call"] = calls[2] * 1e6 / calls[0] if calls[0] else 0.0
    for key in ("solvers.paths", "solvers.aborted_paths", "experiments.batches"):
        m[key] = counts.get(key, 0)
    stamps = c.report["stamps"]
    m["cli.import_s"] = stamps["t_imported"] - stamps["t_start"]
    m["cli.csv_bytes"] = c.csv_bytes
    m["trace.wall_s"] = c.wall_s
    m["trace.setup_s"] = c.setup_s
    m["trace.unaccounted_s"] = c.wall_s - c.setup_s - tr["self_after_entry"]
    return m


@dataclass
class Result:
    name: str
    children: list
    metrics: dict

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.children)

    @property
    def problems(self) -> list:
        return [f"child {i}: {p}" for i, c in enumerate(self.children) for p in c.problems]


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict) -> Result:
    wl = workloads.WORKLOADS[name]
    if wl.config is not None:
        (WORK / f"{name}.ini").write_text(wl.config, encoding="utf-8")
    children: list[Child] = []
    started = time.monotonic()
    fails_in_a_row = 0
    while True:
        traced = trace and len(children) % 2 == 1
        elapsed = time.monotonic() - started
        c = launch(wl, seed, len(children), traced, env, max(5.0, HARD_LIMIT_S - elapsed))
        children.append(c)
        fails_in_a_row = 0 if c.ok else fails_in_a_row + 1
        if fails_in_a_row >= MAX_FAILS_IN_A_ROW:
            break
        now = time.monotonic()
        both_kinds = not trace or len(children) >= 2
        if now - started >= seconds and both_kinds:
            break
        if now - started + 1.5 * max(x.wall_s for x in children) > HARD_LIMIT_S:
            break

    good = [c for c in children if c.ok]
    for c in good[1:]:
        if c.csv_sha256 != good[0].csv_sha256:
            c.problems.append(f"CSV sha256 {c.csv_sha256} differs from {good[0].csv_sha256}"
                              f" of an earlier child with seed {seed}")

    # timings come from every child that ran to the end; a wrong output
    # already makes the run incorrect
    measured = [c for c in children if c.measured]
    plain = [c for c in measured if not c.traced]
    traced = [layer_metrics(c) for c in measured if c.traced]
    median = statistics.median
    metrics = {}
    if plain and not trace:
        metrics = {
            "wall_s": median([c.wall_s for c in plain]),
            "setup_s": median([c.setup_s for c in plain]),
            "samples_per_s": median([wl.samples / (c.wall_s - c.setup_s) for c in plain]),
            "cpu_s": median([c.cpu_s for c in plain]),
            "peak_rss_mb": median([c.peak_rss_mb for c in plain]),
        }
    elif plain and traced:
        metrics = {k: median([t[k] for t in traced]) for k in traced[0]}
        metrics["trace.overhead_s"] = (median([c.wall_s for c in measured if c.traced])
                                       - median([c.wall_s for c in plain]))
    return Result(name, children, metrics)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wzsim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(results: list[Result], env: dict, nproc: int) -> dict:
    reports = [c.report for r in results for c in r.children if c.report]
    first = reports[0] if reports else {}
    return {
        "backend": first.get("backend", "unknown"),
        "nproc": nproc,
        "threads": {var: env[var] for var in THREAD_VARS},
        **first.get("versions", {}),
        "commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def print_result(r: Result, seed: int, trace: bool) -> None:
    wl = workloads.WORKLOADS[r.name]
    n_traced = sum(c.traced for c in r.children)
    print(f"workload {r.name} seed={seed}: {len(r.children)} children "
          f"({n_traced} traced), medians over those that ran to the end")
    units = PER_LAYER if trace else END_TO_END
    for k, unit in units.items():
        if k in r.metrics:
            note = f"  ({wl.sample_unit})" if k == "samples_per_s" else ""
            print(f"  {k:<44} {r.metrics[k]:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<44} {r.failed / len(r.children):>14.6g}"
          f"  ({r.failed}/{len(r.children)} runs failed or wrong)")
    print(f"  {'children wall_s':<44} "
          + " ".join(f"{c.wall_s:.3f}{'t' if c.traced else ''}" for c in r.children))
    digests = sorted({c.csv_sha256 for c in r.children if c.ok})
    print(f"  {'csv_sha256':<44} {' '.join(digests) or '-'}")
    for p in r.problems:
        print(f"  PROBLEM {p}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "wzsim" / "cli.py").is_file():
        print(f"error: no wzsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), env))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print("stamp " + json.dumps(stamp(results, env, nproc), sort_keys=True))
    for r in results:
        print_result(r, args.seed, bool(args.trace))
    if any(not r.metrics for r in results):
        print("error: no child ran to the end", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    metrics = {(f"{r.name}." if prefix else "") + k: {"value": v, "unit": units[k]}
               for r in results for k, v in r.metrics.items()}
    print(json.dumps({
        "correct": not any(r.problems for r in results),
        "attempted": sum(len(r.children) for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
