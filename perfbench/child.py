"""One benchmark child: run one workload once and write a JSON report.

    python3 perfbench/child.py --workload NAME --seed N --out DIR --report FILE [--trace]

CLI workloads run ``wzsim.cli.main`` with the workload's config; the
library workload runs its loop here.  Before the run, the one function
that starts the workload's Monte Carlo phase is wrapped so that its first
call stamps ``t_entry`` (``time.monotonic``, which is system-wide, so the
parent can subtract its own launch stamp).  With ``--trace`` the per-layer
wrappers of ``layers.Tracer`` are installed as well.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

T_START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (benchmark-local module next to this file)


def oracle_single_path(seed: int, out: Path, mark) -> int:
    """Single-path corrected Euler on dX = X o dW, exact solution x0 exp(W_T)."""
    from wzsim import core, registry, solvers
    from wzsim.coeffs import CorrectionMatrix

    spec = workloads.ORACLE
    grid = core.make_grid(1.0, spec["steps"])
    drift = registry.zero_drift()
    sigma = registry.linear_diffusion()
    half = CorrectionMatrix.half_identity(1)
    stream = core.RngStream(seed, 0)
    mark()
    w = core.sample_brownian_batch(grid, 1, stream, spec["paths"])
    rows = []
    for i in range(spec["paths"]):
        x = solvers.solve_ito_corrected(drift, sigma, half, spec["x0"], core.Path(grid, w[i]))
        rows.append(f"{i},{float(x.values[-1, 0])!r},{float(w[i, -1, 0])!r}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "oracle.csv").write_text("i,x_T,w_T\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--report", type=Path, required=True)
    ap.add_argument("--config", type=Path, help="INI file for CLI workloads")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import wzsim.cli as cli

    stamps = {"t_start": T_START, "t_imported": time.monotonic()}
    from wzsim import _kernels

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    def mark():
        if "t_entry" not in stamps:
            stamps["t_entry"] = time.monotonic()
            if tracer is not None:
                tracer.mark_entry()

    wl = workloads.WORKLOADS[args.workload]
    if wl.entry is None:
        rc = oracle_single_path(args.seed, args.out, mark)
    else:
        entry = getattr(cli, wl.entry)

        def first_call(*a, **kw):
            mark()
            return entry(*a, **kw)

        setattr(cli, wl.entry, first_call)
        rc = cli.main(["--config", str(args.config), "--seed", str(args.seed),
                       "--out", str(args.out)])

    import numpy
    import scipy

    report = {
        "stamps": stamps,
        "backend": "numba" if _kernels.NUMBA_ENABLED else "numpy",
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "wzsim": cli.__version__},
        "wzsim_file": cli.__file__,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    args.report.write_text(json.dumps(report), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
