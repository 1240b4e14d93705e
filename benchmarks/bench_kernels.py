"""Time the ring integrator's compiled and pure-numpy paths.

Run from the repository root:

    python3 benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]

The compiled path is warmed once so JIT compilation is not billed to the
timings.
"""

import argparse
import time

import numpy as np

from dimerwave._kernels import HAS_NUMBA, rk4_steps
from dimerwave.lattice import TravelingProfile
from dimerwave.model import DimerParams

PARAMS = DimerParams(kappa=2.0, beta=1.0, n1=(0.5,), n2=(-0.3, 0.1))


def run_one(sites, steps, compiled):
    prof = TravelingProfile.leading_order(PARAMS, 0.2, sites)
    r, v = prof.initial()
    t0 = time.perf_counter()
    rk4_steps(r, v, 0.02, steps, prof.odd, PARAMS.kappa, PARAMS.beta,
              PARAMS.n1, PARAMS.n2, compiled=compiled)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    if HAS_NUMBA:
        run_one(64, 2, compiled=True)  # trigger compilation outside the timings

    print(f"{'sites':>8} {'numpy (ms)':>12} {'numba (ms)':>12} {'speedup':>9}")
    for sites in (256, 1024, 4096, 16384):
        t_np = min(run_one(sites, args.steps, False) for _ in range(args.repeats))
        if HAS_NUMBA:
            t_nb = min(run_one(sites, args.steps, True) for _ in range(args.repeats))
            print(f"{sites:>8} {1e3 * t_np:>12.2f} {1e3 * t_nb:>12.2f}"
                  f" {t_np / t_nb:>8.1f}x")
        else:
            print(f"{sites:>8} {1e3 * t_np:>12.2f} {'n/a':>12} {'n/a':>9}")


if __name__ == "__main__":
    main()
