"""Time the last layer of a ring run: the crest diagnostics and the CSV dump.

Run from the repository root (the package is imported from this checkout's
``src/``; nothing needs to be installed):

    python3 benchmarks/bench_output.py [--repeats 5]

The trajectory is the ring-4096 one: the float64 eps = 0.2 nanopteron on
4096 sites, run to the validation horizon 20/c with 25 steps between
snapshots (36 snapshots).  Both times are the best of ``--repeats`` calls, in
ms per call: ``stegoton_diagnostics`` with the ripple wavenumber, as the
``simulate`` record computes it, and ``_write_csv`` of the (t, j, r_j)
blocks ``simulate`` writes, into a temporary directory.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dimerwave.cli import _write_csv  # noqa: E402
from dimerwave.lattice import (  # noqa: E402
    LatticeConfig,
    TravelingProfile,
    simulate,
    stegoton_diagnostics,
)
from dimerwave.model import DimerParams  # noqa: E402
from dimerwave.nanopteron import solve_nanopteron  # noqa: E402

PARAMS = DimerParams(kappa=2.0, beta=1.0)
EPS, SITES = 0.2, 4096


def best_ms(fn, repeats):
    def once():
        t0 = time.perf_counter()
        fn()
        return 1e3 * (time.perf_counter() - t0)

    return min(once() for _ in range(repeats))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    state, wave, _ = solve_nanopteron(PARAMS, EPS)
    prof = TravelingProfile.from_nanopteron(PARAMS, EPS, state, wave, SITES)
    config = LatticeConfig(sites=SITES, dt=0.02, T=20.0 / prof.c, snap_every=25)
    traj = simulate(PARAMS, config, *prof.initial())
    print(f"trajectory: {len(traj.times)} snapshots x {SITES} sites")

    diag = best_ms(lambda: stegoton_diagnostics(traj, prof.core_width_sites(),
                                                ripple_wavenumber=EPS * prof.omega),
                   args.repeats)
    print(f"stegoton_diagnostics  {diag:8.1f} ms")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"

        def dump():
            blocks = ((t, traj.sites, R) for t, R in zip(traj.times, traj.R))
            _write_csv(path, ("t", "j", "r_j"), blocks)

        csv = best_ms(dump, args.repeats)
        size = path.stat().st_size
    print(f"_write_csv            {csv:8.1f} ms  ({size / 1e6:.1f} MB)")


if __name__ == "__main__":
    main()
