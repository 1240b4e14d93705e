"""The gate table: every numerical check of the paper's claims, computed once.

Each function checks one group of claims and returns rows
``(name, passed, detail)``, the rows a run record prints under ``[gates]``.
``table`` runs every group at one parameter set (``dimerwave validate``);
the ``dispersion``, ``periodic``, ``nanopteron`` and ``simulate`` commands
call the group they share with it, and ``tests/test_acceptance.py`` asserts
every row at its own inputs.  Default arguments are the acceptance inputs.

Two bounds are the ones the expansions give, not monotonicity alone: the
acoustic branch opens as ``c**2*k**2``, so its slope lies in the cone
``2*c**2*|k|``, sharp at ``k = 0``; and the cosh/sech conjugation of an even
symbol has no ``q**(1/2)`` term, so the deviation's halving ratios lie in
``[2, 4]`` and rise from the O(q) toward the O(q**2) regime as q halves.
"""

import numpy as np

from . import lattice
from .dispersion import SymbolSet
from .errors import (DegenerateSolvability, LinearSolveFailure, NoConvergence,
                     UnresolvedAmplitude, UnresolvedCorrector)
from .kdv import core_profile, kdv_residual
from .model import DimerParams
from .nanopteron import NanopteronConfig, SolverOperators, refined_grid, solve_nanopteron
from .periodic import PeriodicSolver
from .spectral import LineField, LineGrid, conjugated_multiplier, l2_norm, sup_norm

# Solves that end in one of these give a failed row instead of an exit.
SOLVE_FAILURES = (NoConvergence, LinearSolveFailure, UnresolvedAmplitude, UnresolvedCorrector,
                  DegenerateSolvability)

# eps and dtype of the amplitude-decay ladder: each halving of eps shrinks |a|
# by a larger factor, which no power of eps does.
DECAY_LADDER = ((0.2, np.float64), (0.1, np.float64), (0.05, np.longdouble))

_SLOPE_K = np.linspace(-np.pi, np.pi, 10_000)


def _at_most(name, value, bound):
    """The row for ``value <= bound``; ``bound`` is given as the text to print."""
    return name, value <= float(bound), f"{value:.3e} <= {bound}"


def failure(exc):
    """The failed row that stands for a solve that raised ``exc``."""
    name = {UnresolvedAmplitude: "amplitude_resolved",
            UnresolvedCorrector: "corrector_resolved",
            DegenerateSolvability: "solvability"}.get(type(exc), "converged")
    return name, False, str(exc)


# -- dispersion ------------------------------------------------------------------


def identities(params, k):
    """``lambda_- + lambda_+ = 2 + 2*kappa`` and ``lambda_- * lambda_+ = 4*kappa*sin(k)**2``."""
    lam_m, lam_p = SymbolSet(params).lambda_pm(k)
    kap = params.kappa
    trace = np.max(np.abs(lam_m + lam_p - (2 + 2 * kap)))
    det = np.max(np.abs(lam_m * lam_p - 4 * kap * np.sin(k) ** 2))
    return [_at_most("trace", trace, "1e-12"), _at_most("det", det, "1e-12")]


def slope_bound(params, k=_SLOPE_K):
    """Both branches have ``|lambda_pm'| <= 2``."""
    slope = max(np.max(np.abs(d)) for d in SymbolSet(params).lambda_pm_prime(k))
    return [("slope_bound", slope <= 2 + 1e-6, f"max |lambda'| = {slope:.9f} <= 2 + 1e-6")]


def sound_cone(params, k=_SLOPE_K):
    """``|lambda_pm'(k)| <= 2*c**2*|k|``, with equality as ``k -> 0`` on the acoustic branch."""
    d_minus, d_plus = SymbolSet(params).lambda_pm_prime(k)
    c0 = params.sound_speed
    cone = 2 * c0 * c0 * np.abs(k)
    excess = max(np.max(np.abs(d_minus) - cone), np.max(np.abs(d_plus) - cone))
    near = (np.abs(k) < 0.1) & (k != 0)
    ratio = np.max(np.abs(d_minus[near]) / cone[near])
    return [
        ("sound_cone", excess <= 1e-6,
         f"max(|lambda'| - 2c^2|k|) = {excess:.3e} <= 1e-6 at c = {c0:.6f}"),
        ("cone_sharp", abs(ratio - 1) <= 1e-6,
         f"|lambda_-'|/(2c^2|k|) = {ratio:.8f} near k = 0, within 1e-6 of 1"),
    ]


def dispersion(params):
    """Identities at 10,000 uniform random wavenumbers, then the slope bounds."""
    k = np.random.default_rng(11).uniform(-np.pi, np.pi, 10_000)
    return identities(params, k) + slope_bound(params) + sound_cone(params)


def resonance(params, eps_values=(0.3, 0.1, 0.03)):
    """``c**2*Omega**2 = lambda_+(Omega)`` with ``sqrt(2k)/c <= Omega <= sqrt(2+2k)/c``."""
    symbols = SymbolSet(params)
    kap = params.kappa
    defect, bracketed = 0.0, True
    for eps in eps_values:
        res = symbols.find_resonance(eps)
        defect = max(defect, abs(res.c**2 * res.Omega**2 - symbols.lambda_pm(res.Omega)[1]))
        bracketed &= np.sqrt(2 * kap) / res.c <= res.Omega <= np.sqrt(2 + 2 * kap) / res.c
    where = ", ".join(f"{eps:g}" for eps in eps_values)
    return [
        ("residual", defect <= 1e-12,
         f"|c^2 Omega^2 - lambda_+(Omega)| = {defect:.3e} <= 1e-12 at eps = {where}"),
        ("bracket", bracketed, f"sqrt(2k)/c <= Omega <= sqrt(2+2k)/c at eps = {where}"),
    ]


# -- core and operators ------------------------------------------------------------


def core(params, L_values=(40.0, 60.0)):
    """The core profile solves its equation at each half-length, so truncation is converged."""
    worst = max(sup_norm(kdv_residual(params, core_profile(params, LineGrid(2048, L))[0]))
                for L in L_values)
    return [_at_most("kdv_residual", worst, "1e-10")]


def kernel(params, eps=0.1):
    """The linearization ``A`` about the core annihilates the core's slope, on
    the 40-long window refined (``refined_grid``) until it resolves the ripple."""
    resonance = SymbolSet(params).find_resonance(eps)
    ops = SolverOperators(params, eps, refined_grid(resonance.omega, 40.0), resonance)
    return [_at_most("annihilates_slope", ops.kernel_defect, "1e-6")]


def conjugation(params, q_values=(0.2, 0.1, 0.05, 0.025)):
    """Deviation of the cosh/sech-conjugated acoustic symbol on 20 even fields.

    The first-order term of ``cosh(qX) mu(sech(qX) f) - mu f`` is
    proportional to ``q*tanh(qX) * mu'(D) f``, whose pointwise halving ratio
    ``4/(1 + tanh(qX/2)**2)`` lies in (2, 4]: 2 in the O(q) regime at large
    ``|qX|``, 4 in the O(q**2) regime where the even symbol cancels the O(q)
    term.  So every field's deviation shrinks, by a ratio in [2, 4] that rises
    as q halves.
    """
    grid = LineGrid(1024, 30.0)
    varpi0 = SymbolSet(params).varpi_0(grid.k)
    rng = np.random.default_rng(0)
    devs = np.empty((20, len(q_values)))
    for i in range(len(devs)):
        spec = np.zeros(grid.n // 2 + 1)
        spec[:24] = rng.standard_normal(24)
        vals = grid.irfft(spec)
        f = LineField(grid, vals / np.max(np.abs(vals)))
        for j, q in enumerate(q_values):
            delta = conjugated_multiplier(varpi0, q, f) - f.apply(varpi0)
            devs[i, j] = l2_norm(delta) / l2_norm(f)
    ratios = devs[:, :-1] / devs[:, 1:]
    rise = np.min(np.diff(ratios, axis=1))
    return [
        ("monotone", np.all(devs[:, :-1] > devs[:, 1:]),
         "mean deviations " + " > ".join(f"{d:.3e}" for d in devs.mean(axis=0))
         + " over q = " + ", ".join(f"{q:g}" for q in q_values)),
        ("halving_window", np.all((2.0 <= ratios) & (ratios <= 4.0)),
         f"halving ratios in [{ratios.min():.3f}, {ratios.max():.3f}] within [2, 4]"),
        ("halving_rising", rise > 0,
         f"smallest rise of a field's halving ratio {rise:.3e} > 0"),
    ]


# -- ripple, nanopteron and lattice -------------------------------------------------


def periodic(wave):
    """Convergence, contraction and residual of one solved ripple."""
    return [
        ("converged", wave.converged, f"{wave.iterations} iterations"),
        ("iteration_budget", wave.iterations <= 50, f"{wave.iterations} <= 50"),
        ("contraction", wave.contraction_ratio <= 0.9, f"{wave.contraction_ratio:.3f} <= 0.9"),
        _at_most("residual", wave.residual, "1e-10"),
    ]


def periodic_family(params, eps=0.1, amplitude=1e-3):
    """The ripple at ``amplitude``, and its frequency along 9 amplitudes from 0.

    At ``a = 0`` the frequency is the resonance's; it moves Lipschitz in ``a``.
    """
    amps = np.linspace(0.0, amplitude, 9)
    solver = PeriodicSolver(params, eps)  # one resonance for every amplitude
    waves = [solver.solve(a) for a in amps]
    omegas = np.array([w.omega for w in waves])
    lipschitz = np.max(np.abs(np.diff(omegas) / np.diff(amps)))
    linear = abs(waves[0].omega - waves[0].resonance.omega)
    return periodic(waves[-1]) + [
        ("linear_frequency", linear <= 1e-12,
         f"|omega(a=0) - omega_eps| = {linear:.3e} <= 1e-12"),
        _at_most("frequency_lipschitz", lipschitz, "1.0"),
    ]


def nanopteron(eps, diag):
    """Residual and corrector size of one solve.

    ``solve_nanopteron`` has already run ``NanopteronState.validate`` and
    refused an amplitude below ``amplitude_floor`` (see ``failure``).
    """
    ratio = max(diag.eta_sup) / eps
    return [
        ("converged", diag.converged, f"{diag.iterations} iterations"),
        _at_most("residual_rel", diag.residual_rel, "1e-6"),
        ("corrector_bound", ratio <= 2.0, f"sup(eta)/eps = {ratio:.3f} <= 2.0"),
    ]


def ring(prof, traj):
    """Rows for one ring run, and the numbers its run record summarises.

    A leading-order profile (``prof.omega == 0``) is held to a shape error
    of 5e-2; a solved one to 1e-3 and to peak ratios within 2% of kappa.
    """
    err = lattice.shape_error(traj, prof)
    drift = traj.energy_drift()
    rep = lattice.stegoton_diagnostics(traj, prof)
    shape_bound = 1e-3 if prof.omega else 5e-2
    rows = [
        ("shape_error", err <= shape_bound, f"{err:.3e} <= {shape_bound:g}"),
        ("energy_drift", drift <= 1e-8, f"{drift:.3e} <= 1e-8"),
    ]
    if prof.omega:
        ratio_dev = float(np.max(np.abs(rep.ratios - prof.params.kappa) / prof.params.kappa))
        rows.append(("peak_ratio", ratio_dev <= 0.02,
                     f"max deviation {ratio_dev * 100:.2f}% <= 2%"))
    summary = dict(shape_error=err, energy_drift=drift, ratio_min=float(rep.ratios.min()),
                   ratio_max=float(rep.ratios.max()),
                   tail_max=float(rep.tail_amplitudes.max()))
    return rows, summary


def lattice_runs(state, wave, sites=512):
    """The solved wave and the leading-order one, each run for 20 core transits."""
    solved = lattice.TravelingProfile.from_nanopteron(state, wave, sites)
    lead = lattice.TravelingProfile.leading_order(wave.params, wave.eps, sites)
    rows = []
    for prof, prefix in ((solved, ""), (lead, "leading_")):
        config = lattice.LatticeConfig(sites=sites, dt=0.02, T=20.0 / prof.c, snap_every=50)
        traj = lattice.simulate(prof.params, config, *prof.initial())
        run_rows, _ = ring(prof, traj)
        rows += [(prefix + name, passed, detail) for name, passed, detail in run_rows]
    return rows


def fixed_point_forms(params, eps, state):
    """The "original" fixed-point form reaches ``state``, the "new" form's solution."""
    other, _, _ = solve_nanopteron(params, eps, NanopteronConfig(fixed_point="original"))
    d_eta = max(sup_norm(state.eta1 - other.eta1), sup_norm(state.eta2 - other.eta2))
    return [_at_most("eta_agree", d_eta, "1e-8"), _at_most("a_agree", abs(state.a - other.a), "1e-8")]


def amplitude_decay(params, ladder=DECAY_LADDER, solved=None):
    """``|a|`` shrinks beyond all orders down an eps ladder of converged solves.

    ``solved`` maps ``(eps, dtype)`` to the ``(state, diag)`` of a solve
    already made with the default config, or to the exception that solve
    raised; a rung it holds is not solved again.
    """
    solved = solved or {}
    eps = np.array([e for e, _ in ladder])
    amps, residual, corrector = [], 0.0, 0.0
    for e, dtype in ladder:
        held = solved.get((e, dtype))
        if isinstance(held, Exception):
            raise held
        if held:
            state, diag = held
        else:
            state, _, diag = solve_nanopteron(params, e, NanopteronConfig(dtype=dtype))
        amps.append(abs(float(state.a)))
        residual = max(residual, diag.residual_rel)
        corrector = max(corrector, max(float(s) for s in diag.eta_sup) / e)
    slopes = np.abs(np.diff(np.log(amps)) / np.diff(np.log(eps)))
    return [
        _at_most("residual_rel", residual, "1e-6"),
        ("corrector_bound", corrector <= 2.0, f"sup(eta)/eps <= {corrector:.3f} <= 2.0"),
        ("decreasing", np.all(np.diff(amps) < 0),
         "|a| = " + " > ".join(f"{a:.3e}" for a in amps)
         + " at eps = " + ", ".join(f"{e:g}" for e in eps)),
        ("beyond_all_orders", np.all(np.diff(slopes) > 0),
         "log-log slopes " + " -> ".join(f"{s:.1f}" for s in slopes) + " steepen"),
    ]


# -- the whole table ------------------------------------------------------------------


def _named(group, rows):
    return group, [(f"{group}_{name}", passed, detail) for name, passed, detail in rows]


def _run(group, check, *args):
    try:
        return _named(group, check(*args))
    except SOLVE_FAILURES as exc:
        return _named(group, [failure(exc)])


def table(params: DimerParams, eps):
    """Every group at ``params``, solving the nanopteron at ``eps``.

    Yields ``(group, rows)`` in order, each row name prefixed with its group,
    as soon as the group is computed.  A solve that fails gives its group one
    failed row carrying the message (``failure``); the lattice and
    fixed-point groups need the nanopteron and are left out without it.  The
    amplitude ladder reuses the nanopteron solve, or its failure, for a rung
    at ``eps``.
    """
    yield _run("dispersion", dispersion, params)
    yield _run("resonance", resonance, params)
    yield _run("core", core, params)
    yield _run("kernel", kernel, params)
    yield _run("conjugation", conjugation, params)
    yield _run("periodic", periodic_family, params)
    rung = (eps, NanopteronConfig().dtype)
    solved = {}
    try:
        state, wave, diag = solve_nanopteron(params, eps)
    except SOLVE_FAILURES as exc:
        solved[rung] = exc
        yield _named("nanopteron", [failure(exc)])
    else:
        solved[rung] = (state, diag)
        yield _named("nanopteron", nanopteron(eps, diag))
        yield _run("lattice", lattice_runs, state, wave)
        yield _run("fixed_point", fixed_point_forms, params, eps, state)
    yield _run("amplitude", amplitude_decay, params, DECAY_LADDER, solved)
