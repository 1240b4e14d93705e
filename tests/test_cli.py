"""Command-line driver tests.

Exit-code contract, configuration layering, record/CSV artifacts, the
solution-file roundtrip, and byte-identical reruns.
"""

import re
import subprocess
import sys

import numpy as np
import pytest

from dimerwave import cli, gates
from dimerwave.cli import (
    DEFAULTS,
    SCHEMA_CSV,
    _write_csv,
    dispatch,
    load_solution,
    save_solution,
)
from dimerwave.lattice import LatticeConfig, TravelingProfile, simulate
from dimerwave.model import DimerParams
from dimerwave.nanopteron import NanopteronConfig

QUAD = DimerParams(kappa=2.0, beta=1.0, n1=(), n2=())


def _strip_timings(text: str) -> str:
    return text.split("[timings]")[0]


def _per_element_fmt(x):
    """The record's cell format: repr of floats, str of ints, true/false."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _per_element_csv(path, header, rows):
    """A CSV written one row and one formatted element at a time."""
    with path.open("w", newline="\n") as fh:
        fh.write(f"# schema = {SCHEMA_CSV}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_per_element_fmt(x) for x in row) + "\n")


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
        assert dispatch(["nanopteron", "--eps", "1e-5", "--out", str(tmp_path)]) == 2
        assert "refines its grid up to 65536 points" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dimerwave.cli", "dispersion",
             "--samples", "64", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "dispersion.csv").exists()


class TestDispersionCommand:
    def test_artifacts_and_gates(self, tmp_path, capsys):
        code = dispatch(["dispersion", "--eps", "0.1", "--samples", "128",
                         "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "dispersion_record.txt").read_text()
        assert "schema = dimerwave-runrecord/1" in record
        assert "FAIL" not in record
        lines = (tmp_path / "dispersion.csv").read_text().splitlines()
        assert lines[0].startswith("# schema =")
        assert lines[1] == "k,lambda_minus,lambda_plus,dlambda_minus,dlambda_plus"
        assert len(lines) == 2 + 128
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
        assert (tmp_path / "periodic.csv").exists()


class TestSolutionRoundtrip:
    def test_save_load_preserves_fields(self, tmp_path, solved02):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, QUAD, 0.2, state, wave)
        params, eps, state2, wave2 = load_solution(path)
        assert params == QUAD and eps == 0.2
        assert np.array_equal(state2.eta1.values, state.eta1.values)
        assert np.array_equal(state2.eta2.values, state.eta2.values)
        assert state2.a == state.a
        assert np.array_equal(wave2.psi1.coeffs, wave.psi1.coeffs)
        assert wave2.omega == wave.omega
        assert wave2.resonance.c == wave.resonance.c

    def test_reconstruction_matches_original(self, tmp_path, solved02):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, QUAD, 0.2, state, wave)
        params, eps, state2, wave2 = load_solution(path)
        a = TravelingProfile.from_nanopteron(QUAD, 0.2, state, wave, 64).initial()
        b = TravelingProfile.from_nanopteron(params, eps, state2, wave2, 64).initial()
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBadSolutionArchive:
    @pytest.mark.parametrize("defect, message", [
        ("missing_key", "missing key 'psi1'"),
        ("not_npz", "not a solution archive"),
        ("nan_eta1", "key 'eta1' holds a non-finite value"),
    ], ids=["missing_key", "not_npz", "nan_eta1"])
    def test_exits_2_naming_file_and_key(self, tmp_path, solved02, capsys,
                                         defect, message):
        state, wave, _ = solved02
        path = tmp_path / "sol.npz"
        save_solution(path, QUAD, 0.2, state, wave)
        with np.load(path) as z:
            data = {k: z[k] for k in z.files}
        if defect == "missing_key":
            del data["psi1"]
            np.savez(path, **data)
        elif defect == "not_npz":
            path.write_text("not an archive\n")
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
        save_solution(sol, QUAD, 0.2, state, wave)
        code = dispatch(["simulate", "--init", str(sol), "--sites", "512",
                         "--T", "5.0", "--out", str(tmp_path)])
        assert code == 0
        record = (tmp_path / "simulate_record.txt").read_text()
        assert "shape_error = PASS" in record
        assert "peak_ratio = PASS" in record

    def test_undecayed_profile_exits_2(self, tmp_path, solved02, capsys):
        # a corrector offset by a constant is not decayed at X = -L; the ring
        # must refuse it rather than cut it off at the window's edge
        state, wave, _ = solved02
        sol = tmp_path / "sol.npz"
        save_solution(sol, QUAD, 0.2, state, wave)
        with np.load(sol) as z:
            data = {k: z[k] for k in z.files}
        data["eta1"] = data["eta1"] + 1e-3
        np.savez(sol, **data)
        code = dispatch(["simulate", "--init", str(sol), "--sites", "4096",
                         "--T", "0.1", "--out", str(tmp_path)])
        assert code == 2
        assert "profile line1 boundary value" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_leading_trajectory_dump(self, tmp_path, capsys):
        code = dispatch(["simulate", "--init", "leading", "--eps", "0.2",
                         "--sites", "64", "--T", "1.0", "--snap-every", "25",
                         "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=2)
        snaps = 1 + 2  # t = 0 plus two 25-step snapshots at dt = 0.02
        assert data.shape == (snaps * 64, 3)
        assert data[0, 1] == -32  # site labels
        assert np.all(np.diff(data[:, 0]) >= 0)  # time-major ordering

    def test_rerun_is_bit_identical(self, tmp_path, capsys):
        args = ["simulate", "--init", "leading", "--eps", "0.2", "--sites", "128",
                "--T", "2.0"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert dispatch(args + ["--out", str(a)]) == 0
        assert dispatch(args + ["--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert _strip_timings((a / "simulate_record.txt").read_text()) == _strip_timings(
            (b / "simulate_record.txt").read_text()
        )


class TestCsvWriter:
    """The column-at-a-time writer gives the bytes of the per-element one."""

    def test_trajectory_matches_per_element_writer(self, tmp_path, capsys):
        code = dispatch(["simulate", "--init", "leading", "--eps", "0.2",
                         "--sites", "64", "--T", "1.0", "--snap-every", "10",
                         "--out", str(tmp_path)])
        assert code == 0
        prof = TravelingProfile.leading_order(QUAD, 0.2, 64)
        traj = simulate(QUAD, LatticeConfig(sites=64, dt=0.02, T=1.0, snap_every=10),
                        *prof.initial())
        rows = ((traj.times[i], traj.sites[j], traj.R[i, j])
                for i in range(len(traj.times)) for j in range(len(traj.sites)))
        _per_element_csv(tmp_path / "want.csv", ("t", "j", "r_j"), rows)
        assert (tmp_path / "trajectory.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()

    def test_mixed_table_matches_per_element_writer(self, tmp_path):
        header = ("flag", "n", "x", "x_ld", "x_f32")
        block = (
            np.array([True, False, True, False, True]),
            np.arange(5) - 2,
            np.array([0.1, -0.0, 1e22, 5e-324, np.nan]),
            np.array([1, 2, 3, 7, 11], dtype=np.longdouble) / 3,
            np.array([0.1, 1e-7, -2.5, np.inf, 3e38], dtype=np.float32),
        )
        blocks = [block, tuple(col[::-2] for col in block)]
        _write_csv(tmp_path / "got.csv", header, blocks)
        _per_element_csv(tmp_path / "want.csv", header,
                         (row for cols in blocks for row in zip(*cols)))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_scalar_column_matches_per_element_writer(self, tmp_path):
        # a 0-d column fills every row of its block
        header = ("t", "j", "x", "flag")
        blocks = [
            (0.1, np.arange(4), np.array([0.5, -0.0, 1e22, np.nan]), np.True_),
            (np.float64(2.5e-7), np.arange(3) - 1, np.linspace(0, 1, 3), False),
            (np.longdouble(1) / 3, np.array([7]), np.array([np.inf]), np.bool_(True)),
        ]
        _write_csv(tmp_path / "got.csv", header, blocks)
        rows = ((t, j, x, flag) for t, js, xs, flag in blocks for j, x in zip(js, xs))
        _per_element_csv(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_repeated_column_matches_per_element_writer(self, tmp_path):
        # the same array object in consecutive blocks, then a new object
        # of equal length, which must not be mistaken for it
        sites = np.arange(300) - 150
        values = np.random.default_rng(0).standard_normal((5, 300))
        columns = [sites, sites, sites, sites[::-1].copy(), sites]
        blocks = [(t, col, v) for t, col, v in zip(range(5), columns, values)]
        _write_csv(tmp_path / "got.csv", ("t", "j", "r_j"), blocks)
        rows = ((t, j, x) for t, col, v in blocks for j, x in zip(col, v))
        _per_element_csv(tmp_path / "want.csv", ("t", "j", "r_j"), rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
            assert (tmp_path / f"nanopteron_{tag}.npz").exists()
            assert (tmp_path / f"nanopteron_{tag}.csv").exists()

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
        for name in ("nanopteron_eps0.1_record.txt", "nanopteron_eps0.1.npz",
                     "nanopteron_eps0.1.csv"):
            assert (tmp_path / name).exists()
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
        assert "window too short" in capsys.readouterr().err
        for tag in ("eps0.2", "eps0.15"):
            record = (tmp_path / f"nanopteron_{tag}_record.txt").read_text()
            assert "\ncorrector_resolved = FAIL (eta2 boundary value" in record
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
            solves.append((eps, cfg.dtype, cfg.fixed_point))
            return solve(params, eps, config)

        monkeypatch.setattr(gates, "table", recording_table)
        monkeypatch.setattr(gates, "solve_nanopteron", recording_solve)
        code = dispatch(["validate", "--kappa", "2", "--beta", "1",
                         "--out", str(tmp_path)])
        assert code == 0 and names
        # the amplitude ladder's eps 0.2 rung is the nanopteron group's solve
        assert len(set(solves)) == len(solves) and (0.2, np.float64, "new") in solves
        assert f"{len(names)}/{len(names)} gates passed" in capsys.readouterr().out
        record = (tmp_path / "validate_record.txt").read_text()
        listed = record.split("[gates]\n")[1].split("\n\n")[0].splitlines()
        assert [line.split(" = ")[0] for line in listed] == names
        assert all(" = PASS (" in line for line in listed)

    def test_refused_solve_is_a_failed_row(self, tmp_path, capsys):
        # float64 cannot resolve |a| at eps 0.05: the record says so, and the
        # groups that need the solution are left out
        code = dispatch(["validate", "--eps", "0.05", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "validate_record.txt").read_text()
        assert "nanopteron_amplitude_resolved = FAIL (ripple amplitude" in record
        assert "lattice_" not in record and "amplitude_beyond_all_orders = PASS" in record

    def test_unheld_corrector_is_a_failed_row(self, tmp_path, capsys):
        code = dispatch(["validate", "--kappa", "1.1", "--out", str(tmp_path)])
        assert code == 1
        record = (tmp_path / "validate_record.txt").read_text()
        assert "\nnanopteron_corrector_resolved = FAIL (eta2 boundary value" in record
        assert "\namplitude_corrector_resolved = FAIL (eta2 boundary value" in record
        assert "lattice_" not in record
