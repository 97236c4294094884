"""Per-layer tracing for one benchmark child: wrappers around wzsim's layer calls.

The wrappers live here, in the benchmark, not in the package.  Each one
records a span (calls, inclusive time, self time) under a key
``<layer>.<function>`` and, where the layer does countable work, a count
(paths, path-steps, evaluation points).  A span's self time is its duration
minus the time covered by the wrapped spans it encloses, so the self times
of all keys add up to the time spent inside wrapped calls without double
counting.

wzsim modules import each other's functions with ``from .x import y``, so a
function is patched in every module namespace it is looked up from (for
example ``sample_brownian_batch`` in ``core``, ``solvers``, ``experiments``
and ``noise``).  Field evaluations are method or attribute calls and are
patched on the classes: ``DriftField.__call__`` for the drift and the
``sigma``/``grad`` callables of every ``DiffusionField`` built after
installation.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

LAYERS = ("core", "noise", "coeffs", "solvers", "experiments", "cli")


class Tracer:
    """Span and count accumulator for one process; install() patches wzsim."""

    def __init__(self):
        # key -> [calls, self_s, inclusive_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(int)
        self._stack = []
        self._self_total = 0.0
        self.self_before_entry = 0.0

    def wrap(self, key, fn, on_return=None):
        """Return fn wrapped in a span named key; on_return(args, out) adds counts."""
        span = self.spans[key]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                own = dur - inner[0]
                span[0] += 1
                span[1] += own
                span[2] += dur
                self._self_total += own
            if on_return is not None:
                on_return(args, out)
            return out

        return wrapper

    def mark_entry(self):
        """Called at the first Monte Carlo call: later self time is the Monte Carlo phase."""
        self.self_before_entry = self._self_total

    @property
    def self_after_entry(self) -> float:
        return self._self_total - self.self_before_entry

    def patch(self, module, name, key, on_return=None):
        setattr(module, name, self.wrap(key, getattr(module, name), on_return))

    def install(self):
        """Wrap the layer boundaries of an imported wzsim (call before any run)."""
        from wzsim import cli, coeffs, core, experiments, noise, solvers

        add = self.counts

        def brownian(args, out):
            add["core.sample_brownian_batch.increments"] += out.shape[0] * (out.shape[1] - 1) * out.shape[2]

        for mod in (core, solvers, experiments, noise):
            self.patch(mod, "sample_brownian_batch", "core.sample_brownian_batch", brownian)

        # noise: family methods on every class that defines its own
        def evals(key):
            def on_return(args, out):
                add[key] += out.shape[0] * out.shape[1]
            return on_return

        for cls in (noise.NoiseFamily, noise.PiecewiseShape, noise.McShane, noise.Mollified):
            for meth in ("batch_values", "batch_derivs", "batch_derivs_blockwise"):
                if meth in cls.__dict__:
                    key = f"noise.{meth}"
                    setattr(cls, meth, self.wrap(key, cls.__dict__[meth], evals(key + ".evals")))

        def samples(key, pos):
            def on_return(args, out):
                add[key] += int(args[pos])
            return on_return

        self.patch(cli, "estimate_s", "noise.estimate_s", samples("noise.estimate_s.samples", 2))
        self.patch(cli, "estimate_c", "noise.estimate_c", samples("noise.estimate_c.samples", 3))

        # coeffs: field evaluations and the correction drift
        def points(key):
            def on_return(args, out):
                add[key] += out.shape[0]
            return on_return

        coeffs.DriftField.__call__ = self.wrap("coeffs.drift_eval", coeffs.DriftField.__call__,
                                               points("coeffs.drift_eval.points"))
        diffusion_init = coeffs.DiffusionField.__init__
        sigma_points = points("coeffs.sigma_eval.points")

        def traced_init(field, *args, **kwargs):
            diffusion_init(field, *args, **kwargs)
            for attr in ("sigma", "grad"):
                object.__setattr__(field, attr, self.wrap(
                    "coeffs.sigma_eval", getattr(field, attr), sigma_points))

        coeffs.DiffusionField.__init__ = traced_init
        self.patch(solvers, "correction_drift_batch", "coeffs.correction_drift_batch")

        # solvers: the two path integrators, their aborts, the coupled batch
        def integrated(key, noise_arg):
            def on_return(args, out):
                noise_in = args[noise_arg]  # (paths, steps, ...)
                add[key] += noise_in.shape[0] * noise_in.shape[1]
                add["solvers.paths"] += noise_in.shape[0]
                add["solvers.aborted_paths"] += int(np.count_nonzero(out[1]))
            return on_return

        em_counts = integrated("solvers.em_batch.path_steps", 4)
        self.patch(solvers, "em_batch", "solvers.em_batch", em_counts)
        self.patch(solvers, "rk4_batch", "solvers.rk4_batch",
                   integrated("solvers.rk4_batch.path_steps", 3))
        self.patch(solvers, "solve_ito_corrected", "solvers.solve_ito_corrected")

        # experiments: the Monte Carlo loops; each solver batch they run is counted
        def batch_then(counts=None):
            def on_return(args, out):
                add["experiments.batches"] += 1
                if counts is not None:
                    counts(args, out)
            return on_return

        self.patch(experiments, "coupled_batch", "solvers.coupled_batch", batch_then())
        self.patch(experiments, "em_batch", "solvers.em_batch", batch_then(em_counts))
        for name in ("mc_mean_sup_error", "fit_rate", "_tube_sups"):
            self.patch(experiments, name, f"experiments.{name}")
        for name in ("rate_sweep", "tube_ladder", "make_target"):
            self.patch(cli, name, f"experiments.{name}")

        # cli: config parse and model build (set-up), CSV and summary output
        for name in ("load_config", "_build_model", "_build_family", "_build_sequence",
                     "_make_setup"):
            self.patch(cli, name, "cli.setup")
        self.patch(cli, "write_csv", "cli.write_csv")
        self.patch(cli, "_write_summary", "cli.summary")

    def layer_self(self, layer: str) -> float:
        return sum(s[1] for k, s in self.spans.items() if k.split(".", 1)[0] == layer)

    def report(self) -> dict:
        """Raw spans and counts, for the parent to turn into metrics."""
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "layers": {layer: self.layer_self(layer) for layer in LAYERS},
            "self_after_entry": self.self_after_entry,
        }
