"""Time one bilinear product ``B_eps(v, v)`` on the solver's grids, one ripple
solve, and one longdouble nanopteron solve, and write the numbers to
``BENCH_nonlinear.json`` next to this script.

Run from the repository root (the package is imported from this checkout's
``src/``; nothing needs to be installed):

    python3 benchmarks/bench_nonlinear.py [--repeats 7]

``v`` is the nanopteron ansatz's shape: the KdV core plus a ripple of the
periodic family (amplitude 1e-3).  Two grids are timed, those of the
benchmark's float64 sweep (eps = 0.1, n = 4096) and of its longdouble solve
(eps = 0.05, n = 8192).  Times are the best of ``--repeats`` calls in ms,
after one call that fills the ``SymbolSet``'s diagonalizer tables as the
first product of a solve does.  The Clenshaw columns count the ripple
sweeps (``spectral._clenshaw`` calls) of one product, the coefficients
those sweeps hold, and the coefficients they run the recurrence over once
the negligible tail is chopped.

The ripple solve is ``solve_periodic`` at eps = 0.1 and a = 1e-3 in float64,
timed as the best of ``--repeats`` solves in ms.  Its Picard iterations are
summed over every mode cutoff the solve tries, and its count of
``BQ_ripple`` calls (the cosine-coefficient nonlinearity, the only one a
ripple solve evaluates) covers the Picard steps and the final residual.

The nanopteron solve is ``solve_nanopteron`` at eps = 0.05 in longdouble
(the benchmark's solve-ld point), timed as the best of ``--repeats`` solves
in s, with its amplitude ``a``, ``residual_rel``, iteration counts, and the
coefficient x point products its Clenshaw sweeps hold and run.
"""

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from dimerwave import periodic, spectral  # noqa: E402
from dimerwave._kernels import HAS_NUMBA  # noqa: E402
from dimerwave.dispersion import SymbolSet  # noqa: E402
from dimerwave.kdv import core_profile  # noqa: E402
from dimerwave.model import DimerParams  # noqa: E402
from dimerwave.nanopteron import NanopteronConfig, solve_nanopteron  # noqa: E402
from dimerwave.nonlinear import B_eps, VectorField  # noqa: E402
from dimerwave.periodic import PeriodicSolver, solve_periodic  # noqa: E402

PARAMS = DimerParams(kappa=2.0, beta=1.0)
CASES = (("sweep-f64", 0.1, 4096, np.float64), ("solve-ld", 0.05, 8192, np.longdouble))
OUT = HERE / "BENCH_nonlinear.json"


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def ansatz(eps, n, dtype):
    grid = spectral.LineGrid(n, 60.0, dtype=dtype)
    sigma, _ = core_profile(PARAMS, grid)
    wave = solve_periodic(PARAMS, dtype(eps), dtype(1e-3))
    core = VectorField.from_line(sigma, spectral.LineField.zero(grid))
    return core + wave.as_vector(grid)


@contextmanager
def clenshaw_log():
    """Log ``(coefficients held, coefficients swept, points)`` of every ripple sweep."""
    sweep = spectral._clenshaw
    log = []

    def counting(x, a):
        swept = spectral._significant(a, np.finfo(np.result_type(x, a)).eps)
        log.append((len(a), swept, x.size))
        return sweep(x, a)

    spectral._clenshaw = counting
    try:
        yield log
    finally:
        spectral._clenshaw = sweep


def ripple_counts(eps, a):
    """Picard iterations and ``BQ_ripple`` calls of one ``solve_periodic``."""
    product, iterate = periodic.BQ_ripple, PeriodicSolver.iterate
    calls, iterations = [], []

    def counting(*args):
        calls.append(None)
        return product(*args)

    def recording(solver, amplitude):
        out = iterate(solver, amplitude)
        iterations.append(out[1])
        return out

    periodic.BQ_ripple = counting
    PeriodicSolver.iterate = recording
    try:
        solve_periodic(PARAMS, eps, a)
    finally:
        periodic.BQ_ripple = product
        PeriodicSolver.iterate = iterate
    return sum(iterations), len(calls)


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in (HERE.parent / "src").rglob("*.py"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    record = {
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "numba": HAS_NUMBA},
        "repeats": args.repeats,
        "src_lines": src_lines(),
        "B_eps": [],
    }

    print(f"{'grid':>10} {'n':>6} {'dtype':>11} {'B_eps (ms)':>11} {'sweeps':>7} "
          f"{'held':>6} {'swept':>6}")
    for name, eps, n, dtype in CASES:
        eps = dtype(eps)
        v = ansatz(eps, n, dtype)
        symbols = SymbolSet(PARAMS)
        B_eps(symbols, v, v, eps)
        best = best_of(args.repeats, lambda: B_eps(symbols, v, v, eps))
        with clenshaw_log() as log:
            B_eps(symbols, v, v, eps)
        sweeps, held, swept = len(log), sum(h for h, _, _ in log), sum(s for _, s, _ in log)
        print(f"{name:>10} {n:>6} {dtype.__name__:>11} {1e3 * best:>11.2f} {sweeps:>7} "
              f"{held:>6} {swept:>6}")
        record["B_eps"].append({
            "grid": name, "n": n, "dtype": dtype.__name__, "best_ms": 1e3 * best,
            "clenshaw_sweeps": sweeps, "coefficients_held": held,
            "coefficients_swept": swept,
        })

    eps, a = 0.1, 1e-3
    best = best_of(args.repeats, lambda: solve_periodic(PARAMS, eps, a))
    picard, products = ripple_counts(eps, a)
    print(f"\nsolve_periodic eps={eps} a={a:g}: {1e3 * best:.2f} ms, "
          f"{picard} Picard iterations, {products} BQ_ripple calls")
    record["solve_periodic"] = {"eps": eps, "a": a, "best_ms": 1e3 * best,
                                "picard_iterations": picard, "BQ_ripple_calls": products}

    eps, config = np.longdouble("0.05"), NanopteronConfig(dtype=np.longdouble)
    best = best_of(args.repeats, lambda: solve_nanopteron(PARAMS, eps, config))
    with clenshaw_log() as log:
        state, _, diag = solve_nanopteron(PARAMS, eps, config)
    held = sum(h * n for h, _, n in log)
    swept = sum(s * n for _, s, n in log)
    print(f"solve_nanopteron eps=0.05 longdouble: {best:.3f} s, a = {float(state.a)!r}, "
          f"residual_rel = {diag.residual_rel!r}, (outer, ripple, GMRES) = "
          f"({diag.iterations}, {diag.ripple_solves}, {diag.gmres_iterations}), "
          f"Clenshaw coefficient x points {held:.3g} held, {swept:.3g} swept")
    record["solve_ld"] = {
        "eps": "0.05", "dtype": "longdouble", "best_s": best, "a": float(state.a),
        "residual_rel": diag.residual_rel, "outer_iterations": diag.iterations,
        "ripple_solves": diag.ripple_solves, "gmres_iterations": diag.gmres_iterations,
        "clenshaw_coefficient_points_held": held, "clenshaw_coefficient_points_swept": swept,
    }

    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {OUT}")


if __name__ == "__main__":
    main()
