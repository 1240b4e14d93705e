"""Command-line driver tests.

Exit-code contract, configuration layering, run records and ``.npz`` data
archives, the solution-file roundtrip, and byte-identical reruns.
"""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dimerwave import cli, gates
from dimerwave.cli import DEFAULTS, SCHEMA_DATA, dispatch, load_solution, save_solution
from dimerwave.errors import NoConvergence
from dimerwave.kdv import core_profile
from dimerwave.lattice import LatticeConfig, TravelingProfile, simulate
from dimerwave.model import DimerParams
from dimerwave.nanopteron import NanopteronConfig, solve_nanopteron

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())
README = Path(__file__).resolve().parents[1] / "README.md"


def _strip_timings(text: str) -> str:
    return text.split("[timings]")[0]


def _assert_plot_columns(path):
    """The solution archive's ``X`` and ``sigma`` are its grid and KdV core."""
    state, wave = load_solution(path)
    params, grid = wave.params, state.eta1.grid
    with np.load(path) as z:
        assert np.array_equal(z["X"], grid.X)
        assert np.array_equal(z["sigma"], core_profile(params, grid)[0].values)


class TestDispatch:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["simulate", "--bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert dispatch(["--help"]) == 0

    def test_invalid_eps_exits_2(self, tmp_path, capsys):
        code = dispatch(["periodic", "--eps", "0.9", "--out", str(tmp_path)])
        assert code == 2

    def test_missing_solution_file_exits_2(self, tmp_path, capsys):
        code = dispatch(["simulate", "--init", str(tmp_path / "nope.npz"),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        code = dispatch(["dispersion", "--config", str(cfgfile),
                         "--out", str(tmp_path)])
        assert code == 2

    def test_threads_config_key_is_unknown(self, tmp_path, capsys):
        # the sweep is serial: no worker-pool size is settable
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("threads = 2\n")
        code = dispatch(["nanopteron", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_samples_checked_only_where_read(self, tmp_path, capsys):
        # a config file shared across subcommands may set dispersion's samples
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 0\n")
        code = dispatch(["periodic", "--config", str(cfgfile), "--out", str(tmp_path)])
        assert code == 0

    def test_flag_table_lists_every_default(self):
        # the module docstring's flag table and DEFAULTS name the same settings,
        # each with the subcommand the settings table gives it (none: every one)
        rows = re.findall(r"^--(\w[\w-]*) (?:\((\w+)\))?", cli.__doc__, re.M)
        documented = {flag.replace("-", "_"): command for flag, command in rows}
        assert set(documented) == set(DEFAULTS)
        for key, command in documented.items():
            assert cli.SETTINGS[key].commands == ((command,) if command else tuple(cli._COMMANDS))

    @pytest.mark.parametrize("key", list(cli.SETTINGS))
    def test_setting_flag_only_on_its_subcommands(self, tmp_path, capsys, key):
        setting, flag = cli.SETTINGS[key], "--" + key.replace("_", "-")
        parser = cli._build_parser()
        for command in cli._COMMANDS:
            if command in setting.commands:
                assert getattr(parser.parse_args([command, flag, "1"]), key) == setting.type("1")
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([command, flag, "1"])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = 1\n")
        args = parser.parse_args([setting.commands[0], "--config", str(cfgfile)])
        assert cli._resolve(args)[key] == setting.type("1")

    @pytest.mark.parametrize("argv, limit", [
        (["nanopteron", "--sweep", "0.2,abc"], "comma list of numbers"),
        (["dispersion", "--samples", "-3"], "--samples must be at least 1"),
        (["dispersion", "--samples", "0"], "--samples must be at least 1"),
        (["nanopteron", "--threads", "2"], "unrecognized arguments: --threads 2"),
        (["simulate", "--snap-every", "0"], "snap_every must be at least 1"),
        (["simulate", "--snap-every", "-5"], "snap_every must be at least 1"),
        (["nanopteron", "--eps", "nan"], "eps must be a finite number > 0, got nan"),
        (["nanopteron", "--sweep", "0.2,nan"], "eps must be a finite number > 0, got nan"),
        (["nanopteron", "--eps", "0"], "eps must be a finite number > 0, got 0.0"),
        (["dispersion", "--eps", "inf"], "eps must be a finite number > 0, got inf"),
        (["dispersion", "--eps", "-0.2"], "eps must be a finite number > 0, got -0.2"),
        (["simulate", "--eps", "nan"], "eps must be a finite number > 0, got nan"),
        (["dispersion", "--kappa", "inf"], "kappa must be finite, got inf"),
        (["nanopteron", "--beta", "inf"], "beta must be finite, got inf"),
        (["simulate", "--beta", "inf"], "beta must be finite, got inf"),
        (["simulate", "--T", "inf"], "T must be finite and cover at least one step, got inf"),
        (["periodic", "--amplitude", "nan"],
         "amplitude must be finite with |a| <= a_max=0.01, got a=nan"),
        (["simulate", "--dt", "100"], "eps = 0.2 makes the default horizon T = 20/c = "
                                      "17.0664 shorter than one step dt = 100.0; "
                                      "set --T or use a smaller --dt"),
        (["dispersion", "--kappa", "1e200"], "kappa**3 must be finite, got kappa=1e+200"),
        (["simulate", "--eps", "1e300"], "eps**2 must be finite, got eps=1e+300"),
        (["simulate", "--eps", "10"], "eps = 10.0 exceeds the long-wave bound EPS_MAX = 0.5"),
        (["nanopteron", "--kappa", "5", "--beta", "-4.035496711730957"], "upsilon"),
        (["periodic", "--amplitude", "-0.5"],
         "amplitude must be finite with |a| <= a_max=0.01, got a=-0.5"),
        (["nanopteron", "--sweep", ""], "sweep = '' lists no eps"),
    ])
    def test_malformed_input_exits_2_naming_the_limit(self, tmp_path, capsys, argv, limit):
        assert dispatch(argv + ["--out", str(tmp_path)]) == 2
        assert limit in capsys.readouterr().err

    def test_degenerate_solvability_row_is_named_solvability(self, tmp_path):
        argv = ["nanopteron", "--kappa", "5", "--beta", "-4.035496711730957"]
        assert dispatch(argv + ["--out", str(tmp_path)]) == 2
        record = (tmp_path / "nanopteron_eps0.2_record.txt").read_text()
        assert "\nsolvability = FAIL (solvability weight |upsilon|" in record
        assert "converged = " not in record

    def test_sweep_checks_every_eps_before_any_solve(self, tmp_path, capsys):
        argv = ["nanopteron", "--sweep", "0.2,0.6", "--out", str(tmp_path)]
        assert dispatch(argv) == 2
        assert not list(tmp_path.glob("nanopteron_eps0.2*"))
        assert "eps = 0.6 exceeds the long-wave bound EPS_MAX = 0.5" in capsys.readouterr().err

    def test_unresolvable_ripple_names_the_grid_ceiling(self, tmp_path, capsys):
        # the solve has already refined to its largest grid, so no flag can help
        # (eps 1e-5 is refused earlier, by the ripple solve's eps floor)
        assert dispatch(["nanopteron", "--eps", "1e-3", "--out", str(tmp_path)]) == 2
        assert "refines its grid up to 65536 points" in capsys.readouterr().err

    def test_unresolvable_ripple_at_the_eps_bound_advises_no_larger_eps(self, tmp_path, capsys):
        # omega = Omega/eps falls as eps grows, but at kappa 1e5 even EPS_MAX
        # leaves it above what the 65536-point grid resolves (omega < 428.9)
        argv = ["nanopteron", "--kappa", "1e5", "--eps", "0.5", "--out", str(tmp_path)]
        assert dispatch(argv) == 2
        err = capsys.readouterr().err
        assert re.search(r"cannot resolve the ripple at omega = 596\.29; solve_nanopteron "
                         r"refines its grid up to 65536 points, too few even at eps = EPS_MAX = "
                         r"0\.5 \(omega = 596\.29\)\n$", err)
        assert "larger eps" not in err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dimerwave.cli", "dispersion",
             "--samples", "64", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "dispersion.npz").exists()


class TestDispersionCommand:
    def test_artifacts_and_gates(self, tmp_path, capsys):
        code = dispatch(["dispersion", "--eps", "0.1", "--samples", "128",
                         "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "dispersion_record.txt").read_text()
        assert "schema = dimerwave-runrecord/1" in record
        assert "FAIL" not in record
        with np.load(tmp_path / "dispersion.npz") as z:
            assert z.files == ["schema", "k", "lambda_minus", "lambda_plus",
                               "dlambda_minus", "dlambda_plus"]
            assert str(z["schema"]) == SCHEMA_DATA
            assert all(z[key].shape == (128,) for key in z.files[1:])
        assert "PASS" in capsys.readouterr().out

    def test_large_eps_locates_the_resonance(self, tmp_path, capsys):
        # the root is about sqrt(2 kappa)/c = 2e-4, so the bracket margin scales with it
        code = dispatch(["dispersion", "--eps", "1e4", "--samples", "64",
                         "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "dispersion_record.txt").read_text()
        assert "residual = PASS" in record and "bracket = PASS" in record


class TestPeriodicCommand:
    def test_gate_table(self, tmp_path, capsys):
        code = dispatch(["periodic", "--eps", "0.1", "--amplitude", "1e-3",
                         "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "periodic_record.txt").read_text()
        assert "contraction = PASS" in record
        with np.load(tmp_path / "periodic.npz") as z:
            assert z.files == ["schema", "mode", "psi1", "psi2"]
            assert np.array_equal(z["mode"], np.arange(len(z["psi1"])))

    @pytest.mark.parametrize("eps", ["1e-7", "1e-9"])
    def test_eps_below_the_floor_exits_2_naming_it(self, tmp_path, capsys, eps):
        # varpi_eps is 8e-4 off at eps 1e-7 and NaN at 1e-9 in float64
        assert dispatch(["periodic", "--eps", eps, "--out", str(tmp_path)]) == 2
        assert (f"eps = {float(eps)} is below the floor 0.000149 of the float64 ripple solve"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("eps", ["1.5e-4", "1e-3"])
    def test_small_eps_above_the_floor_exits_0(self, tmp_path, capsys, eps):
        assert dispatch(["periodic", "--eps", eps, "--out", str(tmp_path)]) == 0
        assert "contraction = PASS" in (tmp_path / "periodic_record.txt").read_text()


class TestSolutionRoundtrip:
    def test_save_load_preserves_fields(self, tmp_path, solved02):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, state, wave)
        state2, wave2 = load_solution(path)
        assert wave2.params == QUAD and wave2.eps == 0.2
        assert np.array_equal(state2.eta1.values, state.eta1.values)
        assert np.array_equal(state2.eta2.values, state.eta2.values)
        assert state2.a == state.a
        assert np.array_equal(wave2.psi1.coeffs, wave.psi1.coeffs)
        assert np.array_equal(wave2.psi2.coeffs, wave.psi2.coeffs)
        # the load rebuilds the wave, and every field it derives comes out bit for bit
        assert wave2.resonance == wave.resonance
        for name in ("a", "t", "omega", "residual", "steps", "iterations", "contraction_ratio"):
            assert getattr(wave2, name) == getattr(wave, name), name

    def test_reconstruction_matches_original(self, tmp_path, solved02):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, state, wave)
        state2, wave2 = load_solution(path)
        a = TravelingProfile.from_nanopteron(state, wave, 64).initial()
        b = TravelingProfile.from_nanopteron(state2, wave2, 64).initial()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBadSolutionArchive:
    @pytest.mark.parametrize("defect, message", [
        ("missing_key", "missing key 'psi1'"),
        ("not_npz", "not a solution archive"),
        ("nan_eta1", "key 'eta1' holds a non-finite value"),
        ("old_schema", "unknown solution schema"),
        ("t_out_of_range", "frequency shift |t| must be <= 1, got t = 2.0"),
        ("psi1_tail", "coefficient tail"),
        ("psi1_moved", "rebuilt ripple residual 1.000e-03 exceeds RESIDUAL_MAX = 1e-10"),
    ], ids=["missing_key", "not_npz", "nan_eta1", "old_schema", "t_out_of_range", "psi1_tail",
            "psi1_moved"])
    def test_exits_2_naming_file_and_key(self, tmp_path, solved02, capsys,
                                         defect, message):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, state, wave)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        if defect == "missing_key":
            del data["psi1"]
            np.savez(path, **data)
        elif defect == "not_npz":
            path.write_text("not an archive\n")
        elif defect == "old_schema":
            data["schema"] = np.array("dimerwave-nanopteron/1")
            np.savez(path, **data)
        elif defect == "t_out_of_range":
            data["t"] = np.array(2.0)
            np.savez(path, **data)
        elif defect == "psi1_tail":
            # the load re-runs the solve's tail check: a refusal, not a solver failure
            data["psi1"] = data["psi1"].copy()
            data["psi1"][-1] = 1e-3
            np.savez(path, **data)
        elif defect == "psi1_moved":
            # tail untouched, so only the rebuilt residual (1.0e-3) refuses it
            data["psi1"] = data["psi1"].copy()
            data["psi1"][0] += 1e-3
            np.savez(path, **data)
        else:
            data["eta1"] = data["eta1"].copy()
            data["eta1"][len(data["eta1"]) // 2] = np.nan
            np.savez(path, **data)
        code = dispatch(["simulate", "--init", str(path), "--sites", "64",
                         "--T", "0.1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and message in err


class TestSimulateCommand:
    def test_from_solution_file(self, tmp_path, solved02, capsys):
        state, wave, _ = solved02
        sol = tmp_path / "sol.npz"
        save_solution(sol, state, wave)
        code = dispatch(["simulate", "--init", str(sol), "--sites", "512",
                         "--T", "5.0", "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "simulate_record.txt").read_text()
        assert "shape_error = PASS" in record
        assert "peak_ratio = PASS" in record

    @pytest.fixture(scope="class")
    def kappa3(self, tmp_path_factory):
        """A solution archive at kappa 3, beta -1, eps 0.2 (not the defaults)."""
        params = DimerParams(kappa=3.0, beta=-1.0)
        path = tmp_path_factory.mktemp("kappa3") / "sol.npz"
        save_solution(path, *solve_nanopteron(params, 0.2)[:2])
        return path

    @pytest.mark.parametrize("flags", [
        [], ["--kappa", "3", "--beta", "-1", "--eps", "0.2"],
    ], ids=["unset", "equal"])
    def test_records_the_archive_parameters(self, tmp_path, kappa3, capsys, flags):
        # the ring runs kappa 3 (its even/odd crest ratio is near 3), and the
        # record says so; the exit code is the gates' (peak_ratio, ROADMAP item 17)
        code = dispatch(["simulate", "--init", str(kappa3), *flags, "--sites", "512",
                         "--T", "2", "--out", str(tmp_path)])
        assert code in (0, 1)
        record = (tmp_path / "simulate_record.txt").read_text()
        for line in ("kappa = 3.0", "beta = -1.0", "eps = 0.2"):
            assert f"\n{line}\n" in record
        ratio = float(re.search(r"\nratio_min = (\S+)\n", record).group(1))
        assert abs(ratio - 3.0) < 0.15

    @pytest.mark.parametrize("flags, config, message", [
        (["--kappa", "5"], "", "kappa = 5.0 differs from kappa = 3.0"),
        ([], "eps = 0.1\n", "eps = 0.1 differs from eps = 0.2"),
    ], ids=["flag", "config"])
    def test_differing_parameter_exits_2(self, tmp_path, kappa3, capsys, flags, config,
                                         message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        code = dispatch(["simulate", "--init", str(kappa3), "--config", str(cfgfile),
                         *flags, "--T", "2", "--out", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "simulate_record.txt").exists()

    def test_undecayed_profile_exits_2(self, tmp_path, solved02, capsys):
        # a corrector offset by a constant is not decayed at X = -L; the ring
        # must refuse it rather than cut it off at the window's edge
        state, wave, _ = solved02
        sol = tmp_path / "sol.npz"
        save_solution(sol, state, wave)
        with np.load(sol) as z:
            data = {k: z[k] for k in z.files}
        data["eta1"] = data["eta1"] + 1e-3
        np.savez(sol, **data)
        code = dispatch(["simulate", "--init", str(sol), "--sites", "4096",
                         "--T", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "profile line1 boundary value" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.npz").exists()

    @pytest.mark.parametrize("eps", ["1e-100", "1e-160"])
    def test_underflowing_ring_energy_exits_2(self, tmp_path, capsys, eps):
        # the squared profile underflows, so the energy is 0 and its drift 0/0
        assert dispatch(["simulate", "--eps", eps, "--out", str(tmp_path)]) == 2
        assert (f"eps = {float(eps)!r} gives a ring of initial energy 0.000e+00, which is not "
                "a positive normal float") in capsys.readouterr().err
        assert not (tmp_path / "trajectory.npz").exists()

    def test_tiny_eps_ring_keeps_its_energy(self, tmp_path):
        # a 512-site ring at eps 1e-10 holds an energy of order 1e-38: tiny, but normal
        assert dispatch(["simulate", "--eps", "1e-10", "--out", str(tmp_path)]) == 0
        record = (tmp_path / "simulate_record.txt").read_text()
        assert "\nenergy_drift = PASS (0.000e+00 <= 1e-8)\n" in record

    def test_leading_trajectory_dump(self, tmp_path, capsys):
        code = dispatch(["simulate", "--init", "leading", "--eps", "0.2",
                         "--sites", "64", "--T", "1.0", "--snap-every", "10",
                         "--out", str(tmp_path)])
        assert code == 0
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        traj = simulate(QUAD, LatticeConfig(sites=64, dt=0.02, T=1.0, snap_every=10),
                        *prof.initial())
        with np.load(tmp_path / "trajectory.npz") as z:
            assert z.files == ["schema", "t", "j", "r_j"]
            assert str(z["schema"]) == SCHEMA_DATA
            assert np.array_equal(z["t"], traj.times) and len(z["t"]) == 1 + 5
            assert np.array_equal(z["j"], traj.sites) and z["j"][0] == -32
            assert z["r_j"].shape == (len(z["t"]), 64)  # (snapshots, sites)
            assert np.array_equal(z["r_j"], traj.R)

    def test_rerun_is_bit_identical(self, tmp_path, capsys):
        args = ["simulate", "--init", "leading", "--eps", "0.2", "--sites", "128",
                "--T", "2.0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert (a / "trajectory.npz").read_bytes() == (b / "trajectory.npz").read_bytes()
        assert _strip_timings((a / "simulate_record.txt").read_text()) == _strip_timings(
            (b / "simulate_record.txt").read_text()
        )


class TestCsvWriter:
    """The archive holds, element for element, the rows of the old CSV table."""

    def test_trajectory_matches_per_element_writer(self, tmp_path, capsys):
        code = dispatch(["simulate", "--init", "leading", "--eps", "0.2",
                         "--sites", "64", "--T", "1.0", "--snap-every", "10",
                         "--out", str(tmp_path)])
        assert code == 0
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        traj = simulate(QUAD, LatticeConfig(sites=64, dt=0.02, T=1.0, snap_every=10),
                        *prof.initial())
        want = [(traj.times[i], traj.sites[j], traj.R[i, j])
                for i in range(len(traj.times)) for j in range(len(traj.sites))]
        with np.load(tmp_path / "trajectory.npz") as z:
            t, sites, r = z["t"], z["j"], z["r_j"]
        got = [(t[i], sites[j], r[i, j]) for i in range(len(t)) for j in range(len(sites))]
        assert len(got) == 6 * 64
        assert got == want


class TestConfigLayering:
    def test_flags_override_config_file_overrides_defaults(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eps = 0.1\nsites = 256\nT = 9.0\n# comment\n")
        code = dispatch(["simulate", "--config", str(cfgfile), "--T", "2.0",
                         "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "simulate_record.txt").read_text()
        assert "T = 2.0" in record          # flag wins
        assert "eps = 0.1" in record        # config file wins over default
        assert "sites = 256" in record
        assert f"dt = {DEFAULTS['dt']}" in record  # default survives


class TestSweep:
    def test_sweep_emits_one_record_per_eps(self, tmp_path, capsys):
        code = dispatch(["nanopteron", "--sweep", "0.2,0.15", "--out", str(tmp_path)])
        assert code == 0
        for tag in ("eps0.2", "eps0.15"):
            assert (tmp_path / f"nanopteron_{tag}_record.txt").exists()
            _assert_plot_columns(tmp_path / f"nanopteron_{tag}.npz")
        assert not list(tmp_path.glob("*.csv"))

    def test_out_of_range_eps_exits_1(self, tmp_path, capsys):
        code = dispatch(["nanopteron", "--eps", "0.25", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "nanopteron_eps0.25_record.txt").read_text()
        assert "converged = FAIL" in record

    def test_escaped_amplitude_fails_before_the_ripple_solve(self, tmp_path, capsys):
        # the outer loop checks |a| <= a_max before re-solving the ripple at a,
        # which would refuse it as invalid input (exit 2, no record)
        code = dispatch(["nanopteron", "--eps", "0.3", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "nanopteron_eps0.3_record.txt").read_text()
        assert re.search(r"^converged = FAIL \(ripple amplitude \|a\| = \S+ escaped the "
                         r"ansatz region a_max = 0\.01\)$", record, re.M)

    def test_small_eps_refused_at_the_noise_floor(self, tmp_path, capsys):
        # the A-solve sees only even right-hand sides, so an odd rounding
        # residue cannot stall GMRES before the amplitude check refuses |a|
        code = dispatch(["nanopteron", "--eps", "0.01", "--out", str(tmp_path)])
        assert code == 2
        assert "below the float64 noise floor" in capsys.readouterr().err

    @pytest.mark.parametrize("refused_at", [1, 2])
    def test_refused_eps_keeps_the_other_outputs(self, tmp_path, capsys, refused_at):
        # float64 cannot resolve |a| at eps 0.05; eps 0.1 converges and is kept,
        # whether the refused entry comes first or last in the sweep
        sweep = ["0.1"]
        sweep.insert(refused_at - 1, "0.05")
        code = dispatch(["nanopteron", "--sweep", ",".join(sweep), "--out", str(tmp_path)])
        assert code == 2
        assert "noise floor" in capsys.readouterr().err
        assert (tmp_path / "nanopteron_eps0.1_record.txt").exists()
        _assert_plot_columns(tmp_path / "nanopteron_eps0.1.npz")
        record = (tmp_path / "nanopteron_eps0.1_record.txt").read_text()
        listed = record.split("[gates]\n")[1].split("\n\n")[0].splitlines()
        assert listed and all(" = PASS (" in line for line in listed)
        assert "amplitude_resolved = FAIL" in (
            tmp_path / "nanopteron_eps0.05_record.txt").read_text()
        assert not (tmp_path / "nanopteron_eps0.05.npz").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--eps", "0.9", "--sweep", "0.2"], ""),
        ([], "eps = 0.9\nsweep = 0.2\n"),
        (["--sweep", "0.2"], "eps = 0.9\n"),
        (["--eps", "0.9"], "sweep = 0.2\n"),
    ], ids=["flags", "config", "config_eps", "config_sweep"])
    def test_eps_with_sweep_exits_2_before_any_solve(self, tmp_path, capsys, flags, config):
        # a sweep solves its own eps values, so an eps beside it would be ignored
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        code = dispatch(["nanopteron", "--config", str(cfgfile), *flags, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "eps = 0.9 and sweep = '0.2' are both set" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--sweep", "", "--eps", "0.1"], ""),
        ([], "sweep =\n"),
    ], ids=["flags_with_eps", "config"])
    def test_empty_sweep_exits_2_before_any_solve(self, tmp_path, capsys, flags, config):
        # an empty sweep would otherwise solve the default eps, or hide the eps beside it
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        code = dispatch(["nanopteron", "--config", str(cfgfile), *flags, "--out", str(out)])
        assert code == 2
        assert "sweep = '' lists no eps" in capsys.readouterr().err
        assert not out.exists()

    def test_colliding_tags_exit_2_before_any_solve(self, tmp_path, capsys):
        # both print as eps0.1, so the second would overwrite the first's files
        out = tmp_path / "out"
        code = dispatch(["nanopteron", "--sweep", "0.2,0.1,0.1000001", "--out", str(out)])
        assert code == 2
        assert "entries 0.1 and 0.1000001" in capsys.readouterr().err
        assert not out.exists()

    def test_unheld_corrector_keeps_every_record(self, tmp_path, capsys):
        # at kappa 1.1 the converged eta2 has not decayed at X = -L at either
        # eps: each keeps a record with a failed row, and the sweep exits 2
        code = dispatch(["nanopteron", "--kappa", "1.1", "--sweep", "0.2,0.15",
                         "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "eta2 boundary value" in err and "exceeds DECAY_TOL = 1e-05" in err
        assert "window too short" not in err  # a longer window does not help here
        for tag in ("eps0.2", "eps0.15"):
            record = (tmp_path / f"nanopteron_{tag}_record.txt").read_text()
            assert re.search(r"\ncorrector_resolved = FAIL \(eta2 boundary value "
                             r"\d\.\d\de-\d\d of peak exceeds DECAY_TOL = 1e-05\)\n", record)
        assert not list(tmp_path.glob("nanopteron_*.npz"))

    def test_noise_level_amplitude_exits_2(self, tmp_path, capsys):
        # the CLI solves in float64, whose noise floor is above |a| at eps 0.04
        code = dispatch(["nanopteron", "--eps", "0.04", "--out", str(tmp_path)])
        assert code == 2
        assert "noise floor" in capsys.readouterr().err
        assert not list(tmp_path.glob("nanopteron_*.npz"))


class TestValidateCommand:
    def test_full_gate_table_passes(self, tmp_path, capsys, monkeypatch):
        table, names = gates.table, []

        def recording_table(*args):
            for group, rows in table(*args):
                names.extend(name for name, _, _ in rows)
                yield group, rows

        solve, solves = gates.solve_nanopteron, []

        def recording_solve(params, eps, config=None):
            cfg = config or NanopteronConfig()
            solves.append((eps, cfg.dtype))
            return solve(params, eps, config)

        monkeypatch.setattr(gates, "table", recording_table)
        monkeypatch.setattr(gates, "solve_nanopteron", recording_solve)
        code = dispatch(["validate", "--kappa", "2", "--beta", "1",
                         "--out", str(tmp_path)])
        assert code == 0 and names
        # one solve per rung: the amplitude ladder's eps 0.2 rung is the
        # nanopteron group's solve
        assert solves == [(0.2, np.float64), (0.1, np.float64), (0.05, np.longdouble)]
        assert f"{len(names)}/{len(names)} gates passed" in capsys.readouterr().out
        # README quotes the gate count in its CLI quick start and its testing notes
        quoted = re.findall(r"\b(\d+)\s+(?:self-check\s+)?gates\b", README.read_text())
        assert quoted == [str(len(names))] * 2
        record = (tmp_path / "validate_record.txt").read_text()
        listed = record.split("[gates]\n")[1].split("\n\n")[0].splitlines()
        assert [line.split(" = ")[0] for line in listed] == names
        assert all(" = PASS (" in line for line in listed)

    def test_failed_solve_is_not_repeated_by_the_ladder(self, tmp_path, capsys, monkeypatch):
        solves = []

        def failing_solve(params, eps, config=None):
            solves.append((eps, (config or NanopteronConfig()).dtype))
            raise NoConvergence("stand-in failure")

        monkeypatch.setattr(gates, "solve_nanopteron", failing_solve)
        code = dispatch(["validate", "--out", str(tmp_path)])
        assert code == 1
        # the ladder's eps 0.2 rung carries the nanopteron group's failure
        assert solves == [(0.2, np.float64)]
        record = (tmp_path / "validate_record.txt").read_text()
        assert "\nnanopteron_converged = FAIL (stand-in failure)" in record
        assert "\namplitude_converged = FAIL (stand-in failure)" in record

    def test_refused_solve_is_a_failed_row(self, tmp_path, capsys):
        # float64 cannot resolve |a| at eps 0.05: the record says so, and the
        # groups that need the solution are left out
        code = dispatch(["validate", "--eps", "0.05", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "validate_record.txt").read_text()
        assert "nanopteron_amplitude_resolved = FAIL (ripple amplitude" in record
        assert "lattice_" not in record and "amplitude_beyond_all_orders = PASS" in record

    def test_large_kappa_kernel_gate_refines_its_grid(self, tmp_path, capsys):
        # omega = 45.7 at kappa 20, eps 0.1: the kernel gate's 4096-point
        # grid misses the ripple, so it doubles as solve_nanopteron's does
        code = dispatch(["validate", "--kappa", "20", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "validate_record.txt").read_text()
        assert "\nkernel_annihilates_slope = PASS (" in record

    def test_unheld_corrector_is_a_failed_row(self, tmp_path, capsys):
        code = dispatch(["validate", "--kappa", "1.1", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "validate_record.txt").read_text()
        assert "\nnanopteron_corrector_resolved = FAIL (eta2 boundary value" in record
        assert "\namplitude_corrector_resolved = FAIL (eta2 boundary value" in record
        assert "lattice_" not in record
