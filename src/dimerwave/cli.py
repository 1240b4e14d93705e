"""Command-line driver: solve, simulate, and validate from one entry point.

Subcommands
-----------
dispersion   sample both branches and their derivatives; locate the resonance
periodic     solve the ripple family at one (eps, amplitude)
nanopteron   solve the core + ripple + corrector system, optionally sweeping eps
simulate     integrate a ring initialized from a profile; dump (t, j, r_j)
validate     run the whole gate table

Every gate in a run record comes from ``dimerwave.gates``: ``validate`` runs
its whole table, the acceptance suite's checks at the configured kappa and
beta, and each other command records the groups it shares with that table.

Configuration resolves in three layers: command-line flags override entries
from ``--config FILE`` (``key = value`` lines, ``#`` comments), which override
the defaults below.  ``SETTINGS`` declares each setting once, with its type,
its default, and the subcommands that take it as a flag; a config file may
set any of them.

======================  ==========================================  ==========
flag                    meaning                                     default
======================  ==========================================  ==========
--kappa                 stiff/soft linear spring ratio (> 1)        2.0
--beta                  stiff spring's quadratic coefficient        1.0
--eps                   long-wave parameter                         0.2
--out                   output directory                            runs
--samples (dispersion)  wavenumber samples on [-pi, pi]             2048
--amplitude (periodic)  ripple amplitude a                          1e-3
--sweep (nanopteron)    comma list of eps values (not with --eps)   (none)
--init (simulate)       'leading' or path to a saved solution       leading
--sites (simulate)      ring size (even)                            512
--dt (simulate)         integrator step                             0.02
--T (simulate)          horizon (default: the 20/c_eps validation)  (derived)
--snap-every (simulate) steps between snapshots                     25
======================  ==========================================  ==========

Exit codes: 0 success, 1 solver non-convergence or a failed gate, 2 invalid
configuration or usage.  Nothing in the pipeline draws fresh randomness, so
for a fixed configuration the data files — and every run-record section
except the trailing ``[timings]`` one — are byte-identical across reruns.

A plotting helper is deliberately not part of the package; a trajectory dump
loads with ``numpy.loadtxt(path, delimiter=",", skiprows=2)`` and reshapes to
(snapshots, sites) for e.g. ``matplotlib.pyplot.pcolormesh``.
"""

import argparse
import sys
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import gates
from .dispersion import Resonance, SymbolSet
from .errors import InvalidParams, LinearSolveFailure, NoConvergence
from .kdv import core_profile
from .lattice import LatticeConfig, TravelingProfile, simulate
from .model import DimerParams
from .nanopteron import NanopteronState, solve_nanopteron
from .periodic import PeriodicField, PeriodicWave, check_long_wave, solve_periodic
from .spectral import LineField, LineGrid

SCHEMA_RECORD = "dimerwave-runrecord/1"
SCHEMA_SOLUTION = "dimerwave-nanopteron/1"
SCHEMA_CSV = "dimerwave-csv/1"


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@dataclass
class RunRecord:
    """Everything one run decided and measured, as structured text.

    ``gates`` rows are (name, passed, detail), as ``dimerwave.gates``
    returns them; every number printed in the summary or a gate detail comes
    from a named module output.
    """

    command: str
    config: dict
    summary: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def add(self, rows):
        self.gates += [(name, bool(passed), detail) for name, passed, detail in rows]

    @property
    def all_passed(self):
        return all(p for _, p, _ in self.gates)

    def render(self) -> str:
        lines = [f"schema = {SCHEMA_RECORD}", f"command = {self.command}", "", "[config]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in sorted(self.config.items())]
        lines += ["", "[summary]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.summary.items()]
        lines += ["", "[gates]"]
        lines += [
            f"{name} = {'PASS' if p else 'FAIL'} ({detail})" for name, p, detail in self.gates
        ]
        lines += ["", "[timings]"]
        lines += [f"{k}_seconds = {v:.3f}" for k, v in self.timings.items()]
        return "\n".join(lines) + "\n"

    def write(self, path: Path):
        path.write_text(self.render())

    def print_gates(self):
        width = max((len(n) for n, _, _ in self.gates), default=4)
        for name, p, detail in self.gates:
            print(f"  {name:<{width}}  {'PASS' if p else 'FAIL'}  {detail}")


_CSV_ROWS_PER_WRITE = 256


def _cells(values: np.ndarray):
    """``_fmt`` of every value of one column, formatted a column at a time."""
    if values.dtype.kind == "f":  # _fmt prints repr of the float64 value
        return list(map(repr, values.astype(np.float64).tolist()))
    return list(map(_fmt, values.tolist()))


def _write_csv(path: Path, header, blocks):
    """Write a CSV whose cells read as ``_fmt`` prints them.

    ``blocks`` yields tuples of equal-length arrays and 0-d values, which fill
    every row.  An array that is the same (unmodified) object as in the last
    block keeps its cells; others are formatted ``_CSV_ROWS_PER_WRITE`` rows at a time.
    """
    previous, kept = (), {}  # the last block's columns; cells of repeated arrays
    with path.open("w", newline="\n") as fh:
        fh.write(f"# schema = {SCHEMA_CSV}\n")
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            arrays = [np.asarray(col) for col in columns]
            rows = min((len(a) for a in arrays if a.ndim), default=1)
            kept = {i: kept[i] if i in kept else _cells(a)
                    for i, (col, a) in enumerate(zip(columns, arrays))
                    if a.ndim and i < len(previous) and previous[i] is col}
            filled = {i: _cells(a.reshape(1)) * min(rows, _CSV_ROWS_PER_WRITE)
                      for i, a in enumerate(arrays) if not a.ndim}
            previous = columns
            for lo in range(0, rows, _CSV_ROWS_PER_WRITE):
                hi = lo + _CSV_ROWS_PER_WRITE
                cells = [filled[i] if i in filled else kept[i][lo:hi] if i in kept
                         else _cells(a[lo:hi]) for i, a in enumerate(arrays)]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# -- solution files -----------------------------------------------------------


def save_solution(path, params: DimerParams, eps, state, wave):
    """Archive a solved nanopteron so ``simulate`` can reconstruct it."""
    np.savez(
        path,
        schema=SCHEMA_SOLUTION,
        kappa=params.kappa,
        beta=params.beta,
        n1=np.asarray(params.n1, dtype=np.float64),
        n2=np.asarray(params.n2, dtype=np.float64),
        eps=float(eps),
        grid_n=state.eta1.grid.n,
        grid_L=state.eta1.grid.L,
        eta1=np.asarray(state.eta1.values, dtype=np.float64),
        eta2=np.asarray(state.eta2.values, dtype=np.float64),
        a=float(state.a),
        psi1=np.asarray(wave.psi1.coeffs, dtype=np.float64),
        psi2=np.asarray(wave.psi2.coeffs, dtype=np.float64),
        wave_a=float(wave.a),
        wave_t=float(wave.t),
        wave_omega=float(wave.omega),
        wave_residual=float(wave.residual),
        wave_iterations=wave.iterations,
        wave_contraction=float(wave.contraction_ratio),
        res_c=float(wave.resonance.c),
        res_Omega=float(wave.resonance.Omega),
        res_omega=float(wave.resonance.omega),
        res_Upsilon=float(wave.resonance.Upsilon),
        res_residual=float(wave.resonance.residual),
    )


def load_solution(path):
    """Rebuild ``(params, eps, state, wave)`` from a solution archive.

    Raises
    ------
    InvalidParams
        If the file is not an ``.npz`` archive, lacks a key, holds a
        non-finite number, or describes an invalid solution; the message
        names the file and, where one is at fault, the key.
    """
    try:
        archive = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidParams(f"{path}: not a solution archive ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise InvalidParams(f"{path}: not a solution archive (a bare array, not .npz)")
    with archive:
        z = {key: archive[key] for key in archive.files}
    for key, value in z.items():
        if value.dtype.kind == "f" and not np.all(np.isfinite(value)):
            raise InvalidParams(f"{path}: key {key!r} holds a non-finite value")

    try:
        if str(z["schema"]) != SCHEMA_SOLUTION:
            raise InvalidParams(f"unknown solution schema {z['schema']!r}")
        n = int(z["grid_n"])
        for key in ("eta1", "eta2"):
            if z[key].shape != (n,):
                raise InvalidParams(f"key {key!r} has shape {z[key].shape}, not ({n},)")
        params = DimerParams(
            kappa=float(z["kappa"]), beta=float(z["beta"]),
            n1=tuple(z["n1"]), n2=tuple(z["n2"]),
        )
        eps = float(z["eps"])
        grid = LineGrid(n, float(z["grid_L"]))
        state = NanopteronState(
            LineField(grid, z["eta1"]),
            LineField(grid, z["eta2"]),
            float(z["a"]),
        )
        resonance = Resonance(
            c=float(z["res_c"]), eps=eps, Omega=float(z["res_Omega"]),
            omega=float(z["res_omega"]), Upsilon=float(z["res_Upsilon"]),
            residual=float(z["res_residual"]),
        )
        wave = PeriodicWave(
            params=params, eps=eps, a=float(z["wave_a"]), t=float(z["wave_t"]),
            omega=float(z["wave_omega"]), psi1=PeriodicField(z["psi1"]),
            psi2=PeriodicField(z["psi2"]), resonance=resonance,
            residual=float(z["wave_residual"]), iterations=int(z["wave_iterations"]),
            contraction_ratio=float(z["wave_contraction"]), converged=True,
        )
    except KeyError as exc:
        raise InvalidParams(f"{path}: missing key {exc}") from exc
    except (InvalidParams, TypeError, ValueError) as exc:
        raise InvalidParams(f"{path}: {exc}") from exc
    return params, eps, state, wave


# -- configuration ------------------------------------------------------------


def _parse_config_file(path):
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParams(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args) -> dict:
    """Defaults, then config-file entries, then explicit flags."""
    cfg = dict(DEFAULTS)
    given = set()  # keys set by the config file or a flag
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if key not in SETTINGS:
                raise InvalidParams(f"unknown config key {key!r}")
            try:
                cfg[key] = SETTINGS[key].type(raw)
            except ValueError as exc:
                raise InvalidParams(f"config key {key!r}: {exc}") from exc
            given.add(key)
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
            given.add(key)
    if args.command == "nanopteron" and cfg["sweep"] and "eps" in given:
        raise InvalidParams(f"eps = {cfg['eps']!r} and sweep = {cfg['sweep']!r} are both set; "
                            "a sweep solves only its own eps values, so give one of them")
    cfg["command"] = args.command
    return cfg


def _params(cfg) -> DimerParams:
    return DimerParams(kappa=cfg["kappa"], beta=cfg["beta"], n1=(), n2=())


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _record_config(cfg, keys):
    return {k: cfg[k] for k in ("kappa", "beta") + keys}


# -- subcommands ---------------------------------------------------------------


def cmd_dispersion(cfg) -> int:
    if not cfg["samples"] >= 1:
        raise InvalidParams(f"--samples must be at least 1, got {cfg['samples']}")
    params = _params(cfg)
    S = SymbolSet(params)
    rec = RunRecord("dispersion", _record_config(cfg, ("eps", "samples")))
    t0 = time.perf_counter()
    ks = np.linspace(-np.pi, np.pi, cfg["samples"])
    lam_minus, lam_plus = S.lambda_pm(ks)
    d_minus, d_plus = S.lambda_pm_prime(ks)
    res = S.find_resonance(cfg["eps"])
    rec.summary.update(speed=res.c, Omega=res.Omega, omega=res.omega, Upsilon=res.Upsilon)
    rec.add(gates.dispersion(params) + gates.resonance(params, (cfg["eps"],)))
    rec.timings["total"] = time.perf_counter() - t0
    out = _outdir(cfg)
    _write_csv(out / "dispersion.csv", ("k", "lambda_minus", "lambda_plus",
                                        "dlambda_minus", "dlambda_plus"),
               [(ks, lam_minus, lam_plus, d_minus, d_plus)])
    rec.write(out / "dispersion_record.txt")
    rec.print_gates()
    return 0 if rec.all_passed else 1


def cmd_periodic(cfg) -> int:
    params = _params(cfg)
    rec = RunRecord("periodic", _record_config(cfg, ("eps", "amplitude")))
    t0 = time.perf_counter()
    wave = solve_periodic(params, cfg["eps"], cfg["amplitude"])
    rec.timings["solve"] = time.perf_counter() - t0
    rec.summary.update(
        omega=wave.omega, frequency_shift=wave.t, iterations=wave.iterations,
        contraction_ratio=wave.contraction_ratio, residual=wave.residual,
        modes=wave.psi1.M,
    )
    rec.add(gates.periodic(wave))
    out = _outdir(cfg)
    c1, c2 = wave.psi1.coeffs, wave.psi2.coeffs
    _write_csv(out / "periodic.csv", ("mode", "psi1", "psi2"),
               [(np.arange(len(c1)), c1, c2)])
    rec.write(out / "periodic_record.txt")
    rec.print_gates()
    return 0 if rec.all_passed else 1


def _solve_one_nanopteron(params, eps, cfg):
    """The run record of one eps, and ``(state, wave)`` or the solve's failure."""
    rec = RunRecord("nanopteron", dict(_record_config(cfg, ()), eps=eps))
    t0 = time.perf_counter()
    try:
        state, wave, diag = solve_nanopteron(params, eps)
    except gates.SOLVE_FAILURES as exc:
        rec.timings["solve"] = time.perf_counter() - t0
        rec.add([gates.failure(exc)])
        return rec, exc
    rec.timings["solve"] = time.perf_counter() - t0
    rec.summary.update(
        a=state.a, residual_rel=diag.residual_rel, residual_sup=diag.residual_sup,
        iterations=diag.iterations, ripple_solves=diag.ripple_solves,
        gmres_iterations=diag.gmres_iterations, eta1_sup=diag.eta_sup[0],
        eta2_sup=diag.eta_sup[1], upsilon=diag.upsilon, omega=wave.omega,
        speed=wave.resonance.c,
    )
    rec.add(gates.nanopteron(eps, diag))
    return rec, (state, wave)


def cmd_nanopteron(cfg) -> int:
    """Solve each eps in turn; write every record, and the data of each solved eps.

    An eps the solver refuses as invalid (an amplitude the dtype cannot
    resolve, a corrector the window cannot hold, a degenerate solvability
    weight) keeps a record with a failed gate, and the command then exits 2.
    """
    params = _params(cfg)
    try:
        eps_list = ([float(s) for s in str(cfg["sweep"]).split(",")]
                    if cfg["sweep"] else [cfg["eps"]])
    except ValueError as exc:
        raise InvalidParams(
            f"--sweep must be a comma list of numbers, got {cfg['sweep']!r}") from exc
    tagged = {}  # output tag -> eps, before any solve, so a bad entry costs no work
    for eps in eps_list:
        check_long_wave(eps)
        tag = f"eps{eps:g}"
        if tag in tagged:
            raise InvalidParams(f"--sweep entries {tagged[tag]!r} and {eps!r} would both "
                                f"write the files tagged {tag!r}")
        tagged[tag] = eps
    out = _outdir(cfg)
    code, refusal = 0, None
    for tag, eps in tagged.items():
        rec, solved = _solve_one_nanopteron(params, eps, cfg)
        rec.write(out / f"nanopteron_{tag}_record.txt")
        if isinstance(solved, InvalidParams):
            refusal = refusal or solved
            continue
        if isinstance(solved, Exception):
            code = 1
            print(f"eps = {eps:g}: solver did not converge")
            continue
        state, wave = solved
        save_solution(out / f"nanopteron_{tag}.npz", params, eps, state, wave)
        grid = state.eta1.grid
        sigma, _ = core_profile(params, grid)
        _write_csv(out / f"nanopteron_{tag}.csv", ("X", "sigma", "eta1", "eta2"),
                   [(grid.X, sigma.values, state.eta1.values, state.eta2.values)])
        print(f"eps = {eps:g}: a = {state.a:.6e}")
        rec.print_gates()
        if not rec.all_passed:
            code = 1
    if refusal is not None:
        raise refusal
    return code


def cmd_simulate(cfg) -> int:
    if cfg["init"] == "leading":
        params = _params(cfg)
        eps = cfg["eps"]
        prof = TravelingProfile.leading_order(params, eps, cfg["sites"])
        ripple_k = None
    else:
        if not Path(cfg["init"]).exists():
            raise InvalidParams(f"--init: no such solution file {cfg['init']!r}")
        params, eps, state, wave = load_solution(cfg["init"])
        prof = TravelingProfile.from_nanopteron(params, eps, state, wave, cfg["sites"])
        ripple_k = eps * prof.omega
    horizon = cfg["T"] if cfg["T"] is not None else 20.0 / prof.c
    if cfg["T"] is None and horizon < cfg["dt"] < np.inf:  # LatticeConfig names a bad dt
        raise InvalidParams(
            f"eps = {eps!r} makes the default horizon T = 20/c = {horizon:g} shorter than "
            f"one step dt = {cfg['dt']!r}; set --T or use a smaller --dt")
    lat = LatticeConfig(sites=cfg["sites"], dt=cfg["dt"], T=horizon,
                        snap_every=cfg["snap_every"])
    rec = RunRecord("simulate", dict(
        _record_config(cfg, ("init", "sites", "dt", "snap_every")),
        eps=eps, T=horizon))
    r0, v0 = prof.initial()
    t0 = time.perf_counter()
    traj = simulate(params, lat, r0, v0)
    rec.timings["integrate"] = time.perf_counter() - t0
    rows, measured = gates.ring(params, prof, traj, ripple_k)
    rec.summary.update(speed=prof.c, steps=int(round(horizon / cfg["dt"])), **measured)
    rec.add(rows)
    out = _outdir(cfg)
    blocks = ((t, traj.sites, R) for t, R in zip(traj.times, traj.R))
    _write_csv(out / "trajectory.csv", ("t", "j", "r_j"), blocks)
    rec.write(out / "simulate_record.txt")
    rec.print_gates()
    return 0 if rec.all_passed else 1


def cmd_validate(cfg) -> int:
    """Run ``gates.table`` at the configured params and eps; time each group."""
    rec = RunRecord("validate", _record_config(cfg, ("eps",)))
    t_all = t0 = time.perf_counter()
    for group, rows in gates.table(_params(cfg), cfg["eps"]):
        rec.add(rows)
        rec.timings[group] = time.perf_counter() - t0
        t0 = time.perf_counter()
    rec.timings["total"] = time.perf_counter() - t_all
    rec.write(_outdir(cfg) / "validate_record.txt")
    rec.print_gates()
    print(f"{sum(p for _, p, _ in rec.gates)}/{len(rec.gates)} gates passed")
    return 0 if rec.all_passed else 1


# -- settings and argument parsing ---------------------------------------------


_COMMANDS = {
    "dispersion": (cmd_dispersion, "sample branches and locate the resonance"),
    "periodic": (cmd_periodic, "solve the ripple family at one amplitude"),
    "nanopteron": (cmd_nanopteron, "solve the full traveling-wave system"),
    "simulate": (cmd_simulate, "integrate a ring and dump (t, j, r_j)"),
    "validate": (cmd_validate, "run the whole gate table"),
}
_EVERY = tuple(_COMMANDS)


class Setting(NamedTuple):
    """A setting's type, its default, and the subcommands that take it as a flag.

    A ``--config`` file may set any key, whatever the subcommand.
    """

    type: type
    default: object
    commands: tuple
    help: str = None


SETTINGS = {
    "kappa": Setting(float, 2.0, _EVERY),
    "beta": Setting(float, 1.0, _EVERY),
    "eps": Setting(float, 0.2, _EVERY),
    "out": Setting(str, "runs", _EVERY, "output directory"),
    "samples": Setting(int, 2048, ("dispersion",)),
    "amplitude": Setting(float, 1e-3, ("periodic",)),
    "sweep": Setting(str, None, ("nanopteron",), "comma-separated eps values"),
    "init": Setting(str, "leading", ("simulate",),
                    "'leading' or path to a nanopteron solution file"),
    "sites": Setting(int, 512, ("simulate",)),
    "dt": Setting(float, 0.02, ("simulate",)),
    "T": Setting(float, None, ("simulate",)),
    "snap_every": Setting(int, 25, ("simulate",)),
}
DEFAULTS = {key: setting.default for key, setting in SETTINGS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimerwave",
        description="Nanopteron traveling waves of the spring-dimer lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        for key, setting in SETTINGS.items():
            if command in setting.commands:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=setting.type, help=setting.help)
    return parser


def dispatch(argv=None) -> int:
    """Parse, run, and map failures to exit codes (0 ok / 1 solver / 2 config)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command][0](cfg)
    except InvalidParams as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, LinearSolveFailure) as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
