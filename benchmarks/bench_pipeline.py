"""Time each layer of the nanopteron pipeline in process, and print the numbers
as one JSON document.

Run from the repository root (the package is imported from this checkout's
``src/``; nothing needs to be installed):

    python3 benchmarks/bench_pipeline.py [--repeats 5] [--steps 2000]

and regenerate the committed numbers with

    python3 benchmarks/bench_pipeline.py > benchmarks/BENCH_pipeline.json

The document goes to standard output and one progress line per section to
standard error, so a run writes no file unless its output is redirected.

Every time is the best of ``--repeats`` calls.  The sections follow the
pipeline:

- ``solve_periodic``: one ripple solve at eps = 0.1, a = 1e-3 in float64, in
  ms, with its Picard iterations and its ``BQ_ripple`` calls (Picard steps and
  the final residual).
- ``B_eps``: one ``B_eps(v, v)``, in ms, with ``v`` the ansatz's shape (the KdV
  core plus a ripple of amplitude 1e-3) on the grids of the benchmark's
  float64 sweep (eps = 0.1, n = 4096) and its longdouble solve (eps = 0.05,
  n = 8192), after one call that fills the diagonalizer tables as the first
  product of a solve does.  The Clenshaw columns count the ripple sweeps
  (``spectral._clenshaw`` calls) of one product, the coefficients they hold,
  and the coefficients they run the recurrence over once the negligible tail
  is chopped.
- ``solve_ld``: ``solve_nanopteron`` at eps = 0.05 in longdouble, in s, with
  its ``a``, ``residual_rel``, iteration counts, and the coefficient x point
  products its Clenshaw sweeps hold and run.
- ``line_eval``: ``LineField.eval_at``, in ms per call, at 512 and 2048
  points on the solver's default n = 4096, L = 60 grid.  The points are an
  arithmetic progression across the window, as a parity class of ring sites
  is, and ``eval_at`` takes them as one chirp-z transform.
- ``rk4``: the ring integrator in ns per site-step (wall time over sites x
  ``--steps``), with the quadratic law every ``simulate`` ring runs and with
  cubic spring remainders.
- ``output``: ``stegoton_diagnostics`` of the solved profile (which lifts
  its ripple line, as the ``simulate`` record does) and ``save_trajectory``,
  the ``trajectory.npz`` archive ``simulate`` writes, in ms, with its bytes,
  on the ring-4096 trajectory: the float64 eps = 0.2 nanopteron on 4096 sites,
  run to 20/c with 25 steps between snapshots.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dimerwave import periodic, spectral  # noqa: E402
from dimerwave.cli import save_trajectory  # noqa: E402
from dimerwave.dispersion import SymbolSet  # noqa: E402
from dimerwave.kdv import core_profile  # noqa: E402
from dimerwave.lattice import LatticeConfig, TravelingProfile  # noqa: E402
from dimerwave.lattice import rk4_steps, simulate, stegoton_diagnostics  # noqa: E402
from dimerwave.model import DimerParams  # noqa: E402
from dimerwave.nanopteron import NanopteronConfig, solve_nanopteron  # noqa: E402
from dimerwave.nonlinear import B_eps, VectorField  # noqa: E402
from dimerwave.periodic import solve_periodic  # noqa: E402

PARAMS = DimerParams(kappa=2.0, beta=1.0)
CUBIC = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))
GRIDS = (("sweep-f64", 0.1, 4096, np.float64), ("solve-ld", 0.05, 8192, np.longdouble))
POINTS = (512, 2048)
SITES = (256, 1024, 4096, 16384)
BASE = 1024


def best_of(repeats, fn):
    """The shortest of ``repeats`` calls of ``fn``, in s."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@contextmanager
def patched(owner, name, record):
    """Call ``record(result, *args)`` after each call of ``owner.name`` in the block."""
    original = getattr(owner, name)

    def recording(*args):
        out = original(*args)
        record(out, *args)
        return out

    setattr(owner, name, recording)
    try:
        yield
    finally:
        setattr(owner, name, original)


def clenshaw_log(log):
    """Log ``(coefficients held, coefficients swept, points)`` of every ripple sweep."""
    def record(_, x, a):
        swept = spectral._significant(a, np.finfo(np.result_type(x, a)).eps)
        log.append((len(a), swept, x.size))

    return patched(spectral, "_clenshaw", record)


def bench_solve_periodic(repeats, eps=0.1, a=1e-3):
    best = best_of(repeats, lambda: solve_periodic(PARAMS, eps, a))
    calls = []
    with patched(periodic, "BQ_ripple", lambda *_: calls.append(None)):
        wave = solve_periodic(PARAMS, eps, a)
    return {"eps": eps, "a": a, "best_ms": 1e3 * best,
            "picard_iterations": wave.iterations, "BQ_ripple_calls": len(calls)}


def bench_B_eps(repeats):
    rows = []
    for name, eps, n, dtype in GRIDS:
        eps = dtype(eps)
        grid = spectral.LineGrid(n, 60.0, dtype=dtype)
        sigma, _ = core_profile(PARAMS, grid)
        wave = solve_periodic(PARAMS, eps, dtype(1e-3))
        v = VectorField.from_line(sigma, spectral.LineField.zero(grid)) + wave.as_vector(grid)
        symbols = SymbolSet(PARAMS)
        B_eps(symbols, v, v, eps)
        best = best_of(repeats, lambda: B_eps(symbols, v, v, eps))
        log = []
        with clenshaw_log(log):
            B_eps(symbols, v, v, eps)
        rows.append({
            "grid": name, "n": n, "dtype": dtype.__name__, "best_ms": 1e3 * best,
            "clenshaw_sweeps": len(log), "coefficients_held": sum(h for h, _, _ in log),
            "coefficients_swept": sum(s for _, s, _ in log),
        })
    return rows


def bench_solve_ld(repeats):
    eps, config = np.longdouble("0.05"), NanopteronConfig(dtype=np.longdouble)
    best = best_of(repeats, lambda: solve_nanopteron(PARAMS, eps, config))
    log = []
    with clenshaw_log(log):
        state, _, diag = solve_nanopteron(PARAMS, eps, config)
    return {
        "eps": "0.05", "dtype": "longdouble", "best_s": best, "a": float(state.a),
        "residual_rel": diag.residual_rel, "outer_iterations": diag.iterations,
        "ripple_solves": diag.ripple_solves, "gmres_iterations": diag.gmres_iterations,
        "clenshaw_coefficient_points_held": sum(h * n for h, _, n in log),
        "clenshaw_coefficient_points_swept": sum(s * n for _, s, n in log),
    }


def bench_line_eval(repeats):
    grid = spectral.LineGrid(4096, 60.0)
    field = spectral.LineField(grid, 1 / np.cosh(grid.X / 2) ** 2)
    rows = []
    for points in POINTS:
        start, step = -grid.L + 0.3 * grid.dx, 2 * grid.L / points
        best = best_of(repeats, lambda: field.eval_at(start, step, points))
        rows.append({"points": points, "best_ms": 1e3 * best})
    return {"n": grid.n, "L": grid.L, "rows": rows}


def bench_rk4(repeats, steps):
    def ns_per_site_step(params, sites):
        # copies of one wave on at most BASE sites: sampling the profile costs
        # memory in proportion to the sites, which the kernel does not
        base = min(sites, BASE)
        prof = TravelingProfile.leading_order(params, 0.2, base)
        r, v = (np.tile(x, sites // base) for x in prof.initial())
        best = best_of(repeats, lambda: rk4_steps(r, v, 0.02, steps, params))
        return 1e9 * best / (sites * steps)

    rows = [{"sites": sites, "quadratic_ns": ns_per_site_step(PARAMS, sites),
             "cubic_ns": ns_per_site_step(CUBIC, sites)} for sites in SITES]
    return {"steps": steps, "n1": CUBIC.n1, "n2": CUBIC.n2, "rows": rows}


def bench_output(repeats, eps=0.2, sites=4096):
    state, wave, _ = solve_nanopteron(PARAMS, eps)
    prof = TravelingProfile.from_nanopteron(state, wave, sites)
    config = LatticeConfig(sites=sites, dt=0.02, T=20.0 / prof.c, snap_every=25)
    traj = simulate(PARAMS, config, *prof.initial())
    diag = best_of(repeats, lambda: stegoton_diagnostics(traj, prof))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.npz"
        write = best_of(repeats, lambda: save_trajectory(path, traj))
        size = path.stat().st_size
    return {"eps": eps, "sites": sites, "snapshots": len(traj.times),
            "stegoton_diagnostics_ms": 1e3 * diag, "write_trajectory_ms": 1e3 * write,
            "trajectory_bytes": size}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--steps", type=int, default=2000)
    args = ap.parse_args()
    record = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count()},
        "repeats": args.repeats,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (HERE.parent / "src").rglob("*.py")),
    }
    sections = (
        ("solve_periodic", bench_solve_periodic),
        ("B_eps", bench_B_eps),
        ("solve_ld", bench_solve_ld),
        ("line_eval", bench_line_eval),
        ("rk4", bench_rk4, args.steps),
        ("output", bench_output),
    )
    for name, bench, *extra in sections:
        record[name] = bench(args.repeats, *extra)
        print(f"{name}: {json.dumps(record[name])}", file=sys.stderr)
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
