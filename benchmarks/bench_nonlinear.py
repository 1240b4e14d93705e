"""Time one bilinear product ``B_eps(v, v)`` on the solver's grids, and one
ripple solve.

Run from the repository root (the package is imported from this checkout's
``src/``; nothing needs to be installed):

    python3 benchmarks/bench_nonlinear.py [--repeats 7]

``v`` is the nanopteron ansatz's shape: the KdV core plus a ripple of the
periodic family (amplitude 1e-3).  Two grids are timed, those of the
benchmark's float64 sweep (eps = 0.1, n = 4096) and of its longdouble solve
(eps = 0.05, n = 8192).  Times are the best of ``--repeats`` calls in ms,
after one call that fills the ``SymbolSet``'s diagonalizer tables as the
first product of a solve does.  The Clenshaw column counts the ripple
sweeps (``spectral._clenshaw`` calls) of one product.

The ripple solve is ``solve_periodic`` at eps = 0.1 and a = 1e-3 in float64,
timed as the best of ``--repeats`` solves in ms.  Its Picard iterations are
summed over every mode cutoff the solve tries, and its ``B_eps`` count covers
the Picard steps and the final residual.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dimerwave import nonlinear, periodic, spectral  # noqa: E402
from dimerwave.dispersion import SymbolSet  # noqa: E402
from dimerwave.kdv import core_profile  # noqa: E402
from dimerwave.model import DimerParams  # noqa: E402
from dimerwave.nonlinear import B_eps, VectorField  # noqa: E402
from dimerwave.periodic import PeriodicSolver, solve_periodic  # noqa: E402

PARAMS = DimerParams(kappa=2.0, beta=1.0)
CASES = (("sweep-f64", 0.1, 4096, np.float64), ("solve-ld", 0.05, 8192, np.longdouble))


def ansatz(eps, n, dtype):
    grid = spectral.LineGrid(n, 60.0, dtype=dtype)
    sigma, _ = core_profile(PARAMS, grid)
    wave = solve_periodic(PARAMS, dtype(eps), dtype(1e-3))
    core = VectorField.from_line(sigma, spectral.LineField.zero(grid))
    return core + wave.as_vector(grid)


def clenshaw_calls(symbols, v, eps):
    sweep = spectral._clenshaw
    calls = []

    def counting(x, a):
        calls.append(len(a))
        return sweep(x, a)

    spectral._clenshaw = counting
    try:
        B_eps(symbols, v, v, eps)
    finally:
        spectral._clenshaw = sweep
    return len(calls)


def ripple_counts(eps, a):
    """Picard iterations and ``B_eps`` calls of one ``solve_periodic``."""
    product, iterate = nonlinear.B_eps, PeriodicSolver.iterate
    # patch every module namespace the solver may read B_eps from
    owners = [m for m in (nonlinear, periodic) if getattr(m, "B_eps", None) is product]
    calls, iterations = [], []

    def counting(*args):
        calls.append(None)
        return product(*args)

    def recording(solver, amplitude):
        out = iterate(solver, amplitude)
        iterations.append(out[1])
        return out

    for m in owners:
        m.B_eps = counting
    PeriodicSolver.iterate = recording
    try:
        solve_periodic(PARAMS, eps, a)
    finally:
        for m in owners:
            m.B_eps = product
        PeriodicSolver.iterate = iterate
    return sum(iterations), len(calls)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    print(f"{'grid':>10} {'n':>6} {'dtype':>11} {'B_eps (ms)':>11} {'Clenshaw':>9}")
    for name, eps, n, dtype in CASES:
        eps = dtype(eps)
        v = ansatz(eps, n, dtype)
        symbols = SymbolSet(PARAMS)
        B_eps(symbols, v, v, eps)
        best = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            B_eps(symbols, v, v, eps)
            best = min(best, time.perf_counter() - t0)
        calls = clenshaw_calls(symbols, v, eps)
        print(f"{name:>10} {n:>6} {dtype.__name__:>11} {1e3 * best:>11.2f} {calls:>9}")

    eps, a = 0.1, 1e-3
    best = float("inf")
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        solve_periodic(PARAMS, eps, a)
        best = min(best, time.perf_counter() - t0)
    picard, products = ripple_counts(eps, a)
    print(f"\nsolve_periodic eps={eps} a={a:g}: {1e3 * best:.2f} ms, "
          f"{picard} Picard iterations, {products} B_eps calls")


if __name__ == "__main__":
    main()
