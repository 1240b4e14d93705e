"""Time the ring integrator's pure-numpy path, and the compiled one if numba
imports, then the line sampler ``LineField.eval_at`` that sets up the ring.

Run from the repository root (the package is imported from this checkout's
``src/``; nothing needs to be installed):

    python3 benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]

Integrator times are the best of ``--repeats`` runs, in ns per site-step (wall
time over sites x steps), the unit of the traced benchmark's
``kernels.ns_per_site_step``.  The numba column is printed only when numba
imports; the compiled path is warmed once so JIT compilation is not billed to
the timings.  Sampler times are the best of ``--repeats`` calls, in ms per
call, on the solver's default n = 4096, L = 60 grid.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dimerwave._kernels import HAS_NUMBA, rk4_steps  # noqa: E402
from dimerwave.lattice import TravelingProfile  # noqa: E402
from dimerwave.model import DimerParams  # noqa: E402
from dimerwave.spectral import LineField, LineGrid  # noqa: E402

PARAMS = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))
SITES = (256, 1024, 4096, 16384)
BASE = 1024
POINTS = (512, 2048)


def ns_per_site_step(sites, steps, compiled):
    # copies of one wave on at most BASE sites: sampling the profile costs
    # memory in proportion to the sites, which the kernel does not
    base = min(sites, BASE)
    prof = TravelingProfile.leading_order(PARAMS, 0.2, base)
    r, v = (np.tile(x, sites // base) for x in prof.initial())
    odd = np.tile(prof.odd, sites // base)
    t0 = time.perf_counter()
    rk4_steps(r, v, 0.02, steps, odd, PARAMS.kappa, PARAMS.beta,
              PARAMS.n1, PARAMS.n2, compiled=compiled)
    return 1e9 * (time.perf_counter() - t0) / (sites * steps)


def eval_at_ms(points, repeats):
    grid = LineGrid(4096, 60.0)
    field = LineField(grid, 1 / np.cosh(grid.X / 2) ** 2)
    X = np.linspace(-grid.L, grid.L, points, endpoint=False) + 0.3 * grid.dx

    def once():
        t0 = time.perf_counter()
        field.eval_at(X)
        return 1e3 * (time.perf_counter() - t0)

    return min(once() for _ in range(repeats))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    def best(sites, compiled):
        return min(ns_per_site_step(sites, args.steps, compiled) for _ in range(args.repeats))

    if HAS_NUMBA:
        ns_per_site_step(64, 2, compiled=True)  # trigger compilation outside the timings
        print(f"{'sites':>8} {'numpy (ns)':>12} {'numba (ns)':>12} {'speedup':>9}")
    else:
        print(f"{'sites':>8} {'numpy (ns)':>12}")
    for sites in SITES:
        t_np = best(sites, False)
        if HAS_NUMBA:
            t_nb = best(sites, True)
            print(f"{sites:>8} {t_np:>12.1f} {t_nb:>12.1f} {t_np / t_nb:>8.1f}x")
        else:
            print(f"{sites:>8} {t_np:>12.1f}")
    print(f"\n{'points':>8} {'eval_at (ms)':>13}")
    for points in POINTS:
        print(f"{points:>8} {eval_at_ms(points, args.repeats):>13.2f}")


if __name__ == "__main__":
    main()
