"""Per-layer spans for a traced benchmark op, recorded from outside the package.

``install`` wraps the public entry points of each dimerwave layer by rebinding
the names where their callers look them up (class attributes, and module
globals in every module that imported the function by name).  Each call
becomes a span ``[name, parent, start, end]`` kept in memory; a layer's self
time is its spans' durations minus the parts covered by child spans.
``layer_metrics`` turns the spans and the counters the wrappers keep into the
per-layer metrics of ``BENCHMARK.json``.

Nothing here edits the package: a plain (untraced) op never imports this file.
"""

import functools
import threading
import time


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, fn, name, after=None):
        """``fn`` recorded as span ``name``; ``after(rec, args, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, stack[-1] if stack else -1, time.perf_counter(), None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if after is not None:
                after(self, args, result)
            return result

        return traced


def _line_eval_bytes(rec, args, result):
    # LineField.eval_at builds dense cos and sin matrices of shape
    # (points, n/2 + 1); the byte count is computed from those shapes.
    import numpy as np

    field, X = args[0], np.asarray(args[1])
    itemsize = np.result_type(X, field.grid.k).itemsize
    rec.count("spectral.line_eval_bytes", 2 * X.size * field.grid.k.size * itemsize)


def _picard(rec, args, result):
    rec.count("periodic.picard_iterations", result[1])


def _periodic_solve(rec, args, result):
    rec.peak("periodic.modes", result.psi1.M)


def _nanopteron_solve(rec, args, result):
    state, _, diag = result
    rec.count("nanopteron.outer_iterations", diag.iterations)
    rec.count("nanopteron.ripple_solves", diag.ripple_solves)
    rec.peak("nanopteron.grid_n", state.eta1.grid.n)


def _a_solve(rec, args, result):
    rec.count("nanopteron.gmres_iterations", args[0].last_gmres_iterations)


def _rk4(rec, args, result):
    r, steps = args[0], args[3]
    rec.count("kernels.site_steps", len(r) * steps)


def install(rec):
    """Wrap every traced entry point; returns the recorder for chaining."""
    from dimerwave import cli, dispersion, lattice, nanopteron, nonlinear, periodic, spectral

    def rebind(fn, name, owners, after=None):
        traced = rec.wrap(fn, name, after)
        for owner, attr in owners:
            setattr(owner, attr, traced)

    def method(cls, attr, name, after=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(raw.__func__, name, after)))
        else:
            setattr(cls, attr, rec.wrap(raw, name, after))

    method(spectral.PeriodicField, "eval_at", "spectral.periodic_eval")
    method(spectral.LineField, "eval_at", "spectral.line_eval", _line_eval_bytes)
    for fn in ("fine_samples", "from_fine_samples"):
        rebind(getattr(spectral, fn), "spectral.dealias", [(spectral, fn), (nonlinear, fn)])
    rebind(spectral.periodic_product, "spectral.periodic_product",
           [(spectral, "periodic_product"), (nonlinear, "periodic_product")])

    rebind(nonlinear.B_eps, "nonlinear.B_eps",
           [(nonlinear, "B_eps"), (nanopteron, "B_eps"), (periodic, "B_eps")])

    rebind(periodic.solve_periodic, "periodic.solve", [(periodic, "solve_periodic"),
                                                        (nanopteron, "solve_periodic"),
                                                        (cli, "solve_periodic")],
           _periodic_solve)
    method(periodic.PeriodicSolver, "iterate", "periodic.iterate", _picard)

    rebind(nanopteron.solve_nanopteron, "nanopteron.solve",
           [(nanopteron, "solve_nanopteron"), (cli, "solve_nanopteron")], _nanopteron_solve)
    method(nanopteron.SolverOperators, "__init__", "nanopteron.operators")
    method(nanopteron.SolverOperators, "A_solve", "nanopteron.A_solve", _a_solve)
    rebind(nanopteron.system_residual, "nanopteron.residual",
           [(nanopteron, "system_residual")])

    method(lattice.TravelingProfile, "from_nanopteron", "lattice.profile")
    method(lattice.TravelingProfile, "sample", "lattice.profile")
    method(lattice.TravelingProfile, "velocity", "lattice.profile")
    rebind(lattice.simulate, "lattice.simulate", [(lattice, "simulate"), (cli, "simulate")])
    rebind(lattice.shape_error, "lattice.shape_error",
           [(lattice, "shape_error"), (cli, "shape_error")])
    rebind(lattice.stegoton_diagnostics, "lattice.diagnostics",
           [(lattice, "stegoton_diagnostics"), (cli, "stegoton_diagnostics")])
    method(lattice.LatticeTrajectory, "energy_drift", "lattice.diagnostics")
    rebind(lattice.rk4_steps, "kernels.rk4", [(lattice, "rk4_steps")], _rk4)

    method(dispersion.SymbolSet, "find_resonance", "dispersion.find_resonance")

    rebind(cli.dispatch, "cli.dispatch", [(cli, "dispatch")])
    return rec


def _busy(spans, names):
    """Seconds inside spans named in ``names``, not counting nested ones twice."""
    names = set(names)
    total = 0.0
    for name, parent, start, end in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(rec):
    """Per-layer metrics of one traced op (times in s, counts as numbers)."""
    spans = rec.spans
    self_time = {}
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for (name, _, start, end), inner in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start) - inner
    calls = {}
    for span in spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    counters = rec.counters
    rk4_s = _busy(spans, ["kernels.rk4"])
    site_steps = counters.get("kernels.site_steps", 0)
    metrics = {
        "spectral.periodic_eval_s": _busy(spans, ["spectral.periodic_eval"]),
        "spectral.periodic_eval_calls": calls.get("spectral.periodic_eval", 0),
        "spectral.line_eval_s": _busy(spans, ["spectral.line_eval"]),
        "spectral.line_eval_calls": calls.get("spectral.line_eval", 0),
        "spectral.line_eval_bytes": counters.get("spectral.line_eval_bytes", 0),
        "spectral.dealias_s": _busy(spans, ["spectral.dealias"]),
        "spectral.self_s": self_time.get("spectral", 0.0),
        "nonlinear.B_eps_calls": calls.get("nonlinear.B_eps", 0),
        "nonlinear.self_s": self_time.get("nonlinear", 0.0),
        "periodic.solves": calls.get("periodic.solve", 0),
        "periodic.picard_iterations": counters.get("periodic.picard_iterations", 0),
        "periodic.modes": counters.get("periodic.modes", 0),
        "periodic.self_s": self_time.get("periodic", 0.0),
        "nanopteron.outer_iterations": counters.get("nanopteron.outer_iterations", 0),
        "nanopteron.ripple_solves": counters.get("nanopteron.ripple_solves", 0),
        "nanopteron.grid_n": counters.get("nanopteron.grid_n", 0),
        "nanopteron.gmres_iterations": counters.get("nanopteron.gmres_iterations", 0),
        "nanopteron.A_solve_s": _busy(spans, ["nanopteron.A_solve"]),
        "nanopteron.operators_s": _busy(spans, ["nanopteron.operators"]),
        "nanopteron.residual_s": _busy(spans, ["nanopteron.residual"]),
        "nanopteron.self_s": self_time.get("nanopteron", 0.0),
        "lattice.profile_s": _busy(spans, ["lattice.profile"]),
        "lattice.shape_error_s": _busy(spans, ["lattice.shape_error"]),
        "lattice.diagnostics_s": _busy(spans, ["lattice.diagnostics"]),
        "lattice.self_s": self_time.get("lattice", 0.0),
        "kernels.rk4_s": rk4_s,
        "kernels.site_steps": site_steps,
        "kernels.ns_per_site_step": 1e9 * rk4_s / site_steps if site_steps else 0.0,
        "dispersion.find_resonance_calls": calls.get("dispersion.find_resonance", 0),
        "dispersion.self_s": self_time.get("dispersion", 0.0),
        "cli.self_s": self_time.get("cli", 0.0),
    }
    return metrics
