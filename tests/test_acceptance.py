"""Release gates: one test per group of ``dimerwave.gates``, each with a
runtime budget.

The gate functions compute every quantity and bound; ``dimerwave validate``
runs the same functions.  Every test prints a single ``gate NN`` line with
the measured quantities, so ``pytest -v`` (or ``-s``) reads as a checklist,
and asserts every row it checks.
"""

import time

import numpy as np
import pytest

from dimerwave import gates
from dimerwave.model import DimerParams

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())


def _check(label, rows, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"gate {label}: " + "; ".join(f"{name} {detail}" for name, _, detail in rows)
          + f", {elapsed:.3f}s")
    failed = [f"{name}: {detail}" for name, passed, detail in rows if not passed]
    assert rows and not failed, "; ".join(failed)
    assert elapsed < budget


def test_c01_dispersion_trace_det_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    rows = []
    for kap in (1.5, 2.0, 5.0):
        rows += gates.identities(DimerParams(kappa=kap, beta=1.0),
                                 rng.uniform(-np.pi, np.pi, 10_000))
    _check("01 trace/det identities", rows, t0, 1.0)


def test_c02a_branch_slopes_bounded_by_two():
    t0 = time.perf_counter()
    rows = []
    for kap in (1.5, 2.0, 5.0):
        rows += gates.slope_bound(DimerParams(kappa=kap, beta=1.0))
    _check("02a global slope bound", rows, t0, 1.0)


def test_c02b_branch_slopes_bounded_by_sound_cone():
    t0 = time.perf_counter()
    _check("02b sound-cone slope bound", gates.sound_cone(QUAD), t0, 1.0)


def test_c03_resonance_residual_and_bracket():
    t0 = time.perf_counter()
    _check("03 resonance", gates.resonance(QUAD, (0.3, 0.1, 0.03)), t0, 1.0)


def test_c04_core_profile_residual():
    # run at two half-lengths so the gate also certifies that the domain
    # truncation is converged, not coincidental
    t0 = time.perf_counter()
    rows = []
    for kap, bet in ((2.0, 1.0), (3.0, -1.0)):
        rows += gates.core(DimerParams(kappa=kap, beta=bet), (40.0, 60.0))
    _check("04 core residual", rows, t0, 1.0)


def test_c05_core_operator_kernel():
    t0 = time.perf_counter()
    _check("05 kernel", gates.kernel(QUAD, 0.1), t0, 5.0)


def test_c06a_conjugation_deviation_monotone():
    t0 = time.perf_counter()
    rows = [row for row in gates.conjugation(QUAD) if row[0] == "monotone"]
    _check("06a conjugation monotone", rows, t0, 5.0)


def test_c06b_conjugation_halving_ratio_window():
    t0 = time.perf_counter()
    rows = [row for row in gates.conjugation(QUAD) if row[0].startswith("halving")]
    _check("06b halving-ratio window", rows, t0, 5.0)


def test_c08_periodic_family():
    t0 = time.perf_counter()
    _check("08 periodic family", gates.periodic_family(QUAD, 0.1, 1e-3), t0, 30.0)


def test_c09_ripple_amplitude_beyond_all_orders():
    t0 = time.perf_counter()
    rows = gates.amplitude_decay(
        QUAD, ((0.2, np.float64), (0.1, np.float64), (0.05, np.longdouble))
    )
    _check("09 amplitude decay", rows, t0, 600.0)


def test_c10_lattice_validation(solved02):
    t0 = time.perf_counter()
    state, wave, _ = solved02
    _check("10 lattice validation", gates.lattice_runs(state, wave, 512),
           t0, 300.0)


def test_c11_fixed_point_forms_agree(solved02):
    t0 = time.perf_counter()
    state, _, _ = solved02
    _check("11 fixed-point forms", gates.fixed_point_forms(QUAD, 0.2, state), t0, 600.0)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
