import argparse
import contextlib
import io
import json
import math
import os
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chainrad
from chainrad.cli import (
    COMMANDS,
    DEFAULT_CONFIG,
    EMISSION_CONFIG,
    EXIT_ACCURACY,
    EXIT_CAUSALITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_USAGE,
    SUPPORTED_FIGURES,
    VERIFY_TOL,
    UsageError,
    _load_config,
    _parse_plain,
    build_parser,
    main,
    parse_state,
)
from chainrad.emission import latest_retardation
from chainrad.scales import ANGSTROM, config_from_dict, config_to_dict
from record_outputs import RECORDED_OPS, cli_output, recorded_output
from test_console import run_fresh


def first_ops_loading(ops, package):
    """Run the CLI ops in turn in one fresh process; map each op after
    which a new ``package`` module is loaded (the first op also answers
    for ``import chainrad.cli``) to the first modules it added."""
    code = f"""
import contextlib, io, json, sys

def loaded():
    return {{m for m in sys.modules if m.split(".")[0] == {package!r}}}

seen = loaded()
from chainrad.cli import main

found = {{}}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    assert rc == 0, (argv, rc)
    if loaded() - seen:
        found[" ".join(argv)] = sorted(loaded() - seen)[:3]
        seen = loaded()
print(json.dumps(found))
"""
    done = run_fresh("-c", code, json.dumps(ops))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def read_csv(path):
    meta, columns, rows, footer = {}, None, [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and columns is None:
                key, val = body.split("=", 1)
                meta[key] = val
            else:
                footer.append(body)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, columns, np.array(rows), footer


class TestParseState:
    def test_named_states(self):
        assert parse_state("sym", 3).coeffs == (1, 1, 1)
        assert parse_state("alt", 3).coeffs == (1, -1, 1)

    def test_explicit_pattern(self):
        assert parse_state("+-++-", 5).coeffs == (1, -1, 1, 1, -1)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            parse_state("+-+-", 3)

    def test_invalid_characters(self):
        with pytest.raises(UsageError):
            parse_state("+0+", 3)
        with pytest.raises(UsageError):
            parse_state("", 3)


class TestCommands:
    def test_scales_output(self, tmp_path):
        out = tmp_path / "scales.csv"
        assert main(["scales", "--out", str(out)]) == EXIT_OK
        meta, columns, rows, _ = read_csv(out)
        assert "qa_a" in columns
        assert rows[0][columns.index("qa_a")] == pytest.approx(0.5, abs=0.01)
        assert meta["derived.gamma_source"] == "radiative_formula"

    @pytest.mark.parametrize(
        "sets, source",
        [([], "radiative_formula"), (["--set", "gamma_override_hz=1e8"], "override")],
    )
    def test_scales_header_names_the_gamma_source(self, sets, source):
        # where gamma_a came from: the config's override, if it has one
        header = cli_output(["scales", *sets]).decode()
        assert f"# derived.gamma_source={source}\n" in header

    def test_config_file_and_set_override(self, tmp_path):
        cfg = tmp_path / "chain.json"
        cfg.write_text(
            json.dumps(
                {
                    "n_atoms": 3,
                    "lattice_const_angstrom": 500,
                    "transition_energy_ev": 2.0,
                    "dipole_e_angstrom": 1.0,
                }
            )
        )
        out = tmp_path / "scales.csv"
        rc = main(
            ["scales", "--config", str(cfg), "--set", "transition_energy_ev=1.0",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, _, _, _ = read_csv(out)
        assert meta["config.transition_energy_ev"] == "1"
        assert meta["config.n_atoms"] == "3"

    def test_damping_with_oracle_column(self, tmp_path):
        out = tmp_path / "damping.csv"
        rc = main(
            ["damping", "--state", "alt", "--range", "0.5:2", "--points", "4",
             "--oracle", "--out", str(out)]
        )
        assert rc == EXIT_OK
        meta, columns, rows, footer = read_csv(out)
        assert "gamma_quadrature_phi0" in columns
        assert any(f.startswith("max_rel_err=") for f in footer)
        cf = rows[:, columns.index("gamma_phi0")]
        qd = rows[:, columns.index("gamma_quadrature_phi0")]
        assert np.allclose(cf, qd, rtol=1e-8)

    def test_emission_defaults_are_causal(self, tmp_path):
        out = tmp_path / "emission.csv"
        rc = main(["emission", "--points", "50", "--set", "gamma_override_hz=1e8",
                   "--out", str(out)])
        assert rc == EXIT_OK
        _, columns, rows, _ = read_csv(out)
        assert columns == ["a_angstrom", "intensity_ratio"]
        assert len(rows) == 50

    def test_emission_default_time_is_causal_for_descending_range(self):
        def lines(lo_hi):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(["emission", "--range", lo_hi, "--points", "3",
                           "--set", "n_atoms=3"])
            assert rc == EXIT_OK, lo_hi
            text = out.getvalue().splitlines()
            return [l for l in text if l.startswith("#")], [
                l for l in text if not l.startswith("#")
            ]

        up_header, up_rows = lines("1e3:1e7")
        down_header, down_rows = lines("1e7:1e3")
        # the same default t (the header's t_s), and the same rows reversed
        assert down_header == up_header
        assert down_rows == up_rows[:1] + up_rows[:0:-1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--range", "1e3:213024"],
            ["--set", "n_atoms=7", "--range", "1e3:396099"],
        ],
    )
    def test_emission_default_time_is_causal_to_the_last_bit(self, argv):
        # grids whose default time, taken by math.hypot, fell one ulp short
        # of the np.hypot retardation the intensity sum checks against
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["emission", *argv, "--points", "5"]) == EXIT_OK
        assert len([l for l in out.getvalue().splitlines() if l[:1].isdigit()]) == 5

    @pytest.mark.parametrize("command", ["coupling", "damping"])
    def test_one_point_sweep_is_the_range_start(self, tmp_path, command):
        # --points takes 1..MAX_POINTS for every command
        out = tmp_path / f"{command}.csv"
        argv = [command, "--range", "0.5:2", "--points", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        _, _, rows, _ = read_csv(out)
        assert rows.shape[0] == 1 and rows[0][0] == 0.5

    def test_nscaling_range_sets_n_max(self, tmp_path):
        out = tmp_path / "nscaling.csv"
        assert main(["nscaling", "--range", "1:12", "--out", str(out)]) == EXIT_OK
        _, columns, rows, _ = read_csv(out)
        assert columns[0] == "N"
        assert rows[:, 0].tolist() == list(range(1, 13))

    def test_constants_header_pinned(self, tmp_path):
        # frozen CODATA literals: the header must not follow scipy's edition
        out = tmp_path / "scales.csv"
        assert main(["scales", "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if l.startswith("# const.")]
        assert lines == [
            "# const.c_m_s=299792458",
            "# const.elementary_charge_C=1.602176634e-19",
            "# const.epsilon_0_F_m=8.8541878188e-12",
            "# const.hbar_J_s=1.05457181765e-34",
        ]

    def test_cli_import_loads_no_scipy(self):
        # nor numpy: only the emission builders and the oracle import it;
        # nor dataclasses (which imports inspect) or json (only --config
        # reads it), each a sizeable share of a cold start; nor numbers or
        # __future__, which only a type check and the annotations needed;
        # nor argparse with its gettext and locale, which only help, usage
        # errors and argv that is not plain need
        heavy = (
            "numpy", "scipy", "dataclasses", "inspect", "json", "numbers",
            "__future__", "argparse", "gettext", "locale",
        )
        code = (
            "import sys; before = set(sys.modules); import chainrad.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            f"if m.split('.')[0] in {heavy!r}))"
        )
        done = run_fresh("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_plain_run_imports_no_argparse(self):
        # -X importtime names every module the run imports, on stderr
        done = run_fresh("-X", "importtime", "-m", "chainrad.cli", "scales")
        assert done.returncode == EXIT_OK, done.stderr
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines() if line.startswith("import time:")
        }
        assert "chainrad.scales" in imported
        assert not imported & {"argparse", "gettext", "locale"}

    def test_closed_form_library_calls_load_no_numpy(self):
        code = """
import sys
from chainrad.damping import closed_form_rates, damping_general, x_sweep
from chainrad.states import alternating_state

calls = {
    "damping_general": lambda: damping_general(alternating_state(7), 0.5, 0.3),
    "x_sweep": lambda: x_sweep(alternating_state(3), 0.1, 2.0, 5, [0.0, 1.0]),
    "closed_form_rates": lambda: closed_form_rates([[-1], [2, 1]], 0.5, [0.0]),
}
for name, call in calls.items():
    call()
    if "numpy" in sys.modules:
        print(name)
        break
"""
        done = run_fresh("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""

    def test_emission_import_loads_no_dataclasses(self):
        # its records are Frozen subclasses like every other record
        done = run_fresh(
            "-c", "import sys, chainrad.emission; print('dataclasses' in sys.modules)"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_non_emission_commands_load_no_numpy(self):
        ops = [[name] for name in ("scales", "coupling", "damping", "nscaling", "angles")]
        ops += [["figure", str(k)] for k in range(2, 15)]
        assert first_ops_loading(ops, "numpy") == {}

    def test_no_command_loads_scipy(self):
        ops = [[name] for name in COMMANDS if name not in ("figure", "verify")]
        ops += [["figure", str(k)] for k in SUPPORTED_FIGURES]
        ops += [["verify", "--nmax", "2"], ["damping", "--oracle", "--points", "5"]]
        assert first_ops_loading(ops, "scipy") == {}

    def test_verify_runs_in_fresh_process(self):
        # the quadrature oracle imports numpy on first use
        done = run_fresh("-m", "chainrad.cli", "verify", "--nmax", "2")
        assert done.returncode == EXIT_OK, done.stderr
        assert "# max_rel_err=" in done.stdout

    def test_verify_small(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--nmax", "3", "--out", str(out)]) == EXIT_OK
        _, columns, rows, footer = read_csv(out)
        assert columns == ["N", "n_states", "max_rel_err"]
        # only the C_1 = +1 half is integrated, but every state is counted
        assert rows[:, 1].tolist() == [2, 4, 8]
        assert np.all(rows[:, 2] <= 1e-8)

    def test_verify_integrates_the_plus_half_in_order(self, monkeypatch, tmp_path):
        # each N's batch is the 2^(N-1) patterns with C_1 = +1,
        # lexicographic with + before -
        from chainrad import cli

        seen = {}
        quadrature_rates = cli.quadrature_rates

        def spy(states, x, phi_list):
            seen.setdefault(states[0].n, [str(state) for state in states])
            return quadrature_rates(states, x, phi_list)

        monkeypatch.setattr(cli, "quadrature_rates", spy)
        assert main(["verify", "--nmax", "4", "--out", str(tmp_path / "v.csv")]) == EXIT_OK
        assert seen == {
            1: ["+"],
            2: ["++", "+-"],
            3: ["+++", "++-", "+-+", "+--"],
            4: ["++++", "+++-", "++-+", "++--", "+-++", "+-+-", "+--+", "+---"],
        }


class TestExitCodes:
    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "15"]) == EXIT_USAGE
        assert main(["figure", "99"]) == EXIT_USAGE

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["scales", "--config", str(bad)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "raw", [b'{"n_atoms": ' + b"1" * 5000 + b"}", b'{"n_atoms": "\xff"}'],
        ids=["5000-digit-integer", "not-utf8"],
    )
    def test_unparsable_config_file_is_config_error(self, tmp_path, capsys, raw):
        # json raises a plain ValueError for an integer past the
        # interpreter's digit limit, and reading the file raises one for
        # bytes that are not UTF-8
        path = tmp_path / "cfg.json"
        path.write_bytes(raw)
        assert main(["scales", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"chainrad: config error: cannot read config {path}: ")

    def test_empty_config_path_is_config_error(self, capsys):
        # a given --config is read as given: "" names no file, and does not
        # fall back to the default chain
        assert main(["scales", "--config", ""]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chainrad: config error: cannot read config : ")

    def test_invalid_config_value(self):
        assert main(["scales", "--set", "n_atoms=0"]) == EXIT_CONFIG

    def test_infinite_chain_length_in_config_file(self, tmp_path, capsys):
        # JSON reads 1e400 as inf, which int() cannot convert
        inf = tmp_path / "inf.json"
        inf.write_text(
            '{"n_atoms": 1e400, "lattice_const_angstrom": 1000,'
            ' "transition_energy_ev": 1, "dipole_e_angstrom": 1}'
        )
        assert main(["scales", "--config", str(inf)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("chainrad: config error: ")

    def test_bad_state_token(self):
        assert main(["damping", "--state", "++-"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["coupling", "--points", "0"],
            ["damping", "--points", "0"],
            ["angles", "--points", "0"],
            ["emission", "--points", "0"],
            ["emission", "--points", "-3"],
            ["emission", "--obs-x", "0"],
            ["emission", "--obs-x", "inf"],
            ["emission", "--time", "nan"],
            ["emission", "--range", "0:1e7"],
            ["emission", "--range=-5:1e7"],
            ["coupling", "--range", "0.1:inf"],
            ["damping", "--range", "5:1"],
            ["nscaling", "--range", "5:50"],
            ["nscaling", "--range", "1:20.5"],
            # the sweep refuses an N_max over MAX_ATOMS before any work
            ["nscaling", "--range", "1:10001"],
            ["scales", "--out", "no_such_dir/scales.csv"],
            ["verify", "--nmax", "0"],
            # VERIFY_MAX_N refuses it before any state is built
            ["verify", "--nmax", "21"],
            # VERIFY_MAX_N itself: 12 takes about 0.78 s as a fresh
            # process, and each atom doubles the work
            ["verify", "--nmax", "13"],
            # checked before a grid exists
            ["coupling", "--points", "100001"],
            ["damping", "--points", "100001"],
            ["angles", "--points", "100001"],
            ["emission", "--points", "100001"],
            # the oracle's work grows as points * N^2 * x: over its budget
            ["damping", "--set", "n_atoms=10000", "--oracle"],
            ["damping", "--range", "0.01:1e6", "--oracle"],
            # finite inputs whose powers or quotients leave the float range
            ["coupling", "--range", "1:1e300"],
            ["damping", "--range", "1:1e300", "--points", "2"],
            ["coupling", "--range", "1e-300:1"],
            ["angles", "--set", "lattice_const_angstrom=1e300"],
            ["nscaling", "--set", "lattice_const_angstrom=1e300"],
            ["emission", "--obs-x", "1e300", "--points", "3"],
            # x = 1e-300 squares to zero in the oracle's integrand
            ["damping", "--range", "1e-300:1", "--oracle", "--points", "5"],
            # x^3 is subnormal at x = 1e-105, and 1/x^3 overflows to inf
            ["coupling", "--range", "1e-105:1", "--points", "2"],
            # points * N over emission's work budget
            ["emission", "--set", "n_atoms=10000", "--points", "1001"],
            # points * (N - 1) over the closed form's budget
            ["damping", "--set", "n_atoms=10000", "--points", "100000"],
            # a flag that is given is used as given: "" is no state
            ["damping", "--state", ""],
            ["emission", "--state", ""],
            ["coupling", "--range", ""],
            ["nscaling", "--range", ""],
            # per-atom amplitudes near 1/obs_x overflow when squared
            ["emission", "--obs-x", "1e-150", "--points", "2"],
            ["emission", "--obs-x", "1e-300", "--points", "2"],
            # "" is a path that cannot be written, not stdout
            ["scales", "--out", ""],
            ["figure", "2", "--out", ""],
        ],
    )
    def test_invalid_flag_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("chainrad: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the grid builder and the emission sweep word these refusals,
            # for the CLI and the library alike
            (["coupling", "--points", "0"], "a grid takes 1..100000 points, got 0"),
            (["emission", "--points", "100001"],
             "a grid takes 1..100000 points, got 100001"),
            (["emission", "--time", "nan"], "observation time must be finite, got nan"),
        ],
        ids=["coupling_no_points", "emission_too_many_points", "emission_nan_time"],
    )
    def test_library_words_the_refusal(self, argv, message, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"chainrad: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["nscaling", "--points", "10"],
            ["angles", "--range", "10:20"],
            ["scales", "--points", "5", "--range", "1:2"],
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        # argparse reports them after its usage line
        assert main(argv) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chain_length_above_max_atoms_is_config_error(self, capsys):
        # rejected before any work, which grows as N^2 per rate
        assert main(["damping", "--set", "n_atoms=10001"]) == EXIT_CONFIG
        assert "n_atoms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scales", "--set", "lattice_const_angstrom=inf"],
            ["scales", "--set", "polarization_deg=nan"],
            ["damping", "--set", "polarization_deg=nan"],
            ["emission", "--set", "transition_energy_ev=-inf"],
            # finite inputs whose derived scales overflow
            ["scales", "--set", "transition_energy_ev=1e300"],
            ["damping", "--set", "dipole_e_angstrom=1e200"],
            # or underflow (gamma_a = 0): every chain command refuses them
            # before its sweep, which for the last argv sums for over a minute
            *(
                [command, "--set", "transition_energy_ev=1e-300"]
                for command in COMMANDS if "--config" in COMMANDS[command][2]
            ),
            ["damping", "--set", "transition_energy_ev=1e-300",
             "--set", "n_atoms=1000", "--points", "100000"],
        ],
    )
    def test_non_finite_config_is_config_error(self, argv, monkeypatch):
        from chainrad import cli, emission

        calls = []
        for module, name in [
            (cli, "coupling_sweep"), (cli, "x_sweep"), (cli, "n_scaling_sweep"),
            (cli, "angle_sweep"), (emission, "emission_sweep"),
        ]:
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: calls.append(name))
        assert main(argv) == EXIT_CONFIG
        assert calls == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["nscaling", "--set", "n_atoms=abc"], "n_atoms must be a number, got 'abc'"),
            (["nscaling", "--set", "n_atoms=20000"],
             "n_atoms must be a whole number in 1..10000, got 20000.0"),
            (["nscaling", "--range", "2:5", "--config", "{missing}"],
             "cannot read config {missing}: [Errno 2] No such file or directory: "
             "'{missing}'"),
            *(
                ([*argv, "--set", "transition_energy_ev=1e-300"],
                 "derived scale gamma_a = 0.0 is not finite and > 0; the "
                 "configuration is outside double-precision range")
                for argv in [
                    ["emission", "--state", "xyz"], ["damping", "--state", "xyz"],
                    ["angles", "--points", "0"], ["coupling", "--range", "bad"],
                ]
            ),
        ],
    )
    def test_chain_is_checked_before_the_flags(self, tmp_path, capsys, argv, message):
        # one order for every chain command: the chain (file, --set keys,
        # derived scales), then the command's flags, then the work
        missing = str(tmp_path / "missing.json")
        assert main([word.format(missing=missing) for word in argv]) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", f"chainrad: config error: {message.format(missing=missing)}\n"
        )

    def test_oracle_budget_checked_before_any_work(self, capsys, monkeypatch):
        from chainrad import damping

        monkeypatch.setattr(damping, "quadrature_rates", None)  # never reached
        argv = ["damping", "--set", "n_atoms=300", "--oracle", "--points", "1000"]
        assert main(argv) == EXIT_USAGE
        assert "over its budget" in capsys.readouterr().err

    def test_closed_form_budget_checked_before_any_work(self, capsys, monkeypatch):
        from chainrad import damping

        monkeypatch.setattr(damping, "closed_form_rates", None)  # never reached
        argv = ["damping", "--set", "n_atoms=10000", "--points", "100000"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "chainrad: the closed form over 100000 points at N=10000 needs "
            "about 1.00e+09 bond terms, over its budget of 1e+08; use fewer "
            "points or a shorter chain\n"
        )

    def test_closed_form_budget_weighs_series_bonds(self, capsys, monkeypatch):
        from chainrad import damping

        # 9.999e7 bonds, every one on the kernel's series branch (k x < 1.5,
        # 2-7 us each: several minutes), so 10 terms each
        monkeypatch.setattr(damping, "closed_form_rates", None)  # never reached
        argv = ["damping", "--set", "n_atoms=10000", "--range", "1e-5:1.5e-4",
                "--points", "10000"]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "about 1.00e+09 bond terms, over its budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # MAX_ATOMS chains: one pass over 9999 bonds shared by every
            # angle, and every chain length up to 10^4
            ["angles", "--set", "n_atoms=10000", "--points", "1000"],
            ["nscaling", "--range", "1:10000"],
            ["angles", "--set", "n_atoms=10000", "--points", "100000"],
        ],
    )
    def test_largest_closed_form_sweeps_are_within_budget(self, argv, monkeypatch):
        from chainrad import damping

        # a stand-in for the sum (seconds of work) keeps the test fast
        monkeypatch.setattr(
            damping, "closed_form_rates",
            lambda autocorrs, x, phis: [[1.0] * len(phis) for _ in autocorrs],
        )
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_atoms", 2.7),
            ("n_atoms", True),
            ("lattice_const_angstrom", True),
            ("polarization_deg", True),
            ("gamma_override_hz", False),
        ],
    )
    def test_bool_or_fractional_file_value_is_config_error(
        self, tmp_path, capsys, key, value
    ):
        # "n_atoms": 2.7 used to run as N = 2 and true as N = 1
        data = {"n_atoms": 3, "lattice_const_angstrom": 500,
                "transition_energy_ev": 2.0, "dipole_e_angstrom": 1.0}
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(dict(data, **{key: value})))
        assert main(["scales", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("chainrad: config error: ") and key in err

    def test_nscaling_takes_n_atoms_from_set_and_config_alike(self, tmp_path):
        # both routes build the same run, and the swept chain lengths do
        # not use it: only the config.n_atoms header line differs
        argv = ["nscaling", "--range", "1:12"]
        by_set = cli_output([*argv, "--set", "n_atoms=7"])
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(dict(DEFAULT_CONFIG, n_atoms=7)))
        assert cli_output([*argv, "--config", str(cfg)]) == by_set
        default = cli_output(argv)
        assert by_set.replace(b"config.n_atoms=7\n", b"config.n_atoms=2\n") == default

    def test_non_finite_oracle_is_refused_without_warning(self, capsys):
        # before any row is written: no footer can hide a nan
        argv = ["damping", "--range", "1e-300:1", "--oracle", "--points", "5"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chainrad: the inputs left double-precision range: ")

    @pytest.mark.parametrize("obs_x", ["1e-150", "1e-300"])
    def test_tiny_observer_distance_is_refused_without_warning(self, capsys, obs_x):
        argv = ["emission", "--obs-x", obs_x, "--points", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("chainrad: the inputs left double-precision range: ")

    def test_zero_time_is_not_replaced_by_default(self):
        rc = main(
            ["emission", "--points", "10", "--set", "gamma_override_hz=1e8",
             "--time", "0"]
        )
        assert rc == EXIT_CAUSALITY

    def test_causality_violation(self):
        rc = main(
            ["emission", "--points", "10", "--set", "gamma_override_hz=1e8",
             "--time", "1e-15"]
        )
        assert rc == EXIT_CAUSALITY


def load_config(config=None, sets=None):
    return _load_config(argparse.Namespace(config=config, set=sets))


class TestConfigMerge:
    """--config is read as external-unit keys, --set is applied to them, and
    the chain is built once from the result."""

    def test_file_and_set_build_the_same_chain(self, tmp_path):
        rng = random.Random(14)
        for i in range(40):
            data = {
                "n_atoms": rng.randint(1, 100),
                "lattice_const_angstrom": 10.0 ** rng.uniform(0.0, 6.0),
                "transition_energy_ev": rng.uniform(0.5, 5.0),
                "dipole_e_angstrom": rng.uniform(0.1, 5.0),
                "polarization_deg": rng.uniform(-180.0, 180.0),
            }
            config = config_from_dict(data)
            # the fields are the keys in their units: no round trip moves a bit
            assert config_from_dict(config_to_dict(config)) == config, data
            path = tmp_path / f"chain{i}.json"
            path.write_text(json.dumps(data))
            sets = [f"{key}={value!r}" for key, value in data.items()]
            assert load_config(str(path)) == config, data
            assert load_config(None, sets) == config, data

    @pytest.mark.parametrize("text, value", [("3.0", 3.0), ("1e3", 1e3)])
    def test_set_chain_length_reads_like_the_file(self, tmp_path, text, value):
        # a whole float is a chain length by --set as in a --config file
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(dict(DEFAULT_CONFIG, n_atoms=value)))
        assert load_config(None, [f"n_atoms={text}"]) == load_config(str(path))
        assert load_config(str(path)).n_atoms == int(value)

    @pytest.mark.parametrize("key", sorted(EMISSION_CONFIG))
    @pytest.mark.parametrize("value", ["null", "[1]", str(10**400)])
    def test_bad_file_value_names_its_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "chain.json"
        text = json.dumps(dict(EMISSION_CONFIG, **{key: "VALUE"}))
        path.write_text(text.replace('"VALUE"', value))
        if key == "gamma_override_hz" and value == "null":  # its default
            assert main(["scales", "--config", str(path)]) == EXIT_OK
            assert "gamma_source=radiative_formula" in capsys.readouterr().out
            return
        assert main(["scales", "--config", str(path)]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"chainrad: config error: {key} ")

    def test_set_completes_a_partial_file(self, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps(
            {"lattice_const_angstrom": 500, "transition_energy_ev": 2.0,
             "dipole_e_angstrom": 1.0}
        ))
        assert main(["scales", "--config", str(partial)]) == EXIT_CONFIG
        assert "missing config keys: ['n_atoms']" in capsys.readouterr().err
        argv = ["scales", "--config", str(partial), "--set", "n_atoms=3"]
        assert main(argv) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and "# config.n_atoms=3\n" in out


def parse_outcome(run, argv):
    """(exit code, stdout, stderr) of ``run(argv)``; SystemExit gives the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def full_parser(argv):
    """Parse with argparse alone: the reference that main's outcome, by
    either parser, must match."""
    build_parser().parse_args(argv)


ALL_COMMANDS = "{" + ",".join(COMMANDS) + "}"


class TestParser:
    """``main`` parses a plain argv itself and builds argparse's parser for
    any other; either way it says exactly what argparse alone would."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unknown_flag_prints_full_usage(self, command):
        # figure needs its number first, or argparse reports that instead
        argv = [command, *(["2"] if command == "figure" else []), "--bogus"]
        code, out, err = parse_outcome(main, argv)
        assert (code, out) == (EXIT_USAGE, "")
        usage, message = err.split("chainrad: error: ")
        assert usage.startswith("usage: chainrad [-h] [--version]")
        assert ALL_COMMANDS in usage
        assert message == "unrecognized arguments: --bogus\n"
        assert (code, out, err) == parse_outcome(full_parser, argv)

    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            ([], EXIT_USAGE, 2, "the following arguments are required: command\n"),
            (["nope"], EXIT_USAGE, 2, "invalid choice: 'nope'"),
            (["figure"], EXIT_USAGE, 2, "the following arguments are required: number\n"),
            (["--version"], EXIT_OK, 1, f"{chainrad.__version__}\n"),
            *(([c, "--help"], EXIT_OK, 1, f"usage: chainrad {c} [-h]") for c in COMMANDS),
        ],
    )
    def test_outcome_matches_full_parser(self, argv, code, stream, text):
        outcome = parse_outcome(main, argv)
        assert outcome == parse_outcome(full_parser, argv)
        assert outcome[0] == code
        assert text in outcome[stream]
        assert outcome[3 - stream] == ""  # the other stream stays empty

    def test_usage_never_reaches_stdout_with_stderr_closed(self, monkeypatch, capsys):
        # argparse's error() prints usage to sys.stderr, and to stdout when
        # sys.stderr is None (a process started with stderr closed)
        monkeypatch.setattr(sys, "stderr", None)
        assert main(["damping", "--bogus"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_main_reads_sys_argv(self, monkeypatch, capsys):
        # entry(), the console script's and python -m's function, calls
        # main() with no arguments; that run too builds a parser only for
        # an argv that is not plain
        from chainrad import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(
            cli, "build_parser", lambda: built.append(sys.argv[1:]) or real()
        )
        monkeypatch.setattr(sys, "argv", ["chainrad", "--version"])
        assert main() == EXIT_OK
        assert capsys.readouterr().out == f"{chainrad.__version__}\n"
        monkeypatch.setattr(sys, "argv", ["chainrad", "figure", "99"])
        assert main() == EXIT_USAGE
        assert "unsupported figure 99" in capsys.readouterr().err
        assert built == [["--version"]]


class TestEntry:
    """``entry()`` runs ``main()`` as a process: a one-thread BLAS default,
    a final flush, and ``os._exit`` without interpreter finalization. The
    fresh-process cases are in tests/test_console.py."""

    @pytest.mark.parametrize(
        "preset, expected",
        [
            ({}, "1"),
            ({"OPENBLAS_NUM_THREADS": "4"}, "4"),
            ({"OMP_NUM_THREADS": "3"}, None),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, "2"),
        ],
    )
    def test_blas_default_only_when_unset(self, monkeypatch, preset, expected):
        from chainrad import cli

        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in preset.items():
            monkeypatch.setenv(var, value)
        seen, exits = [], []
        monkeypatch.setattr(
            cli, "main",
            lambda: seen.append(os.environ.get("OPENBLAS_NUM_THREADS")) or EXIT_ACCURACY,
        )
        monkeypatch.setattr(cli.os, "_exit", exits.append)
        cli.entry()
        assert seen == [expected]  # set before main, so before numpy loads
        assert exits == [EXIT_ACCURACY]  # main's code, unchanged
        assert os.environ.get("OMP_NUM_THREADS") == preset.get("OMP_NUM_THREADS")

    @pytest.mark.parametrize("code", [EXIT_OK, EXIT_USAGE])
    def test_failed_final_flush_is_reported_once(self, monkeypatch, capsys, code):
        from chainrad import cli

        class Full(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        exits = []
        monkeypatch.setattr(cli, "main", lambda: code)
        monkeypatch.setattr(cli.os, "_exit", exits.append)
        monkeypatch.setattr(sys, "stdout", Full())
        cli.entry()
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert exits == [EXIT_USAGE]
            assert err == "chainrad: cannot write output: [Errno 28] No space left on device\n"
        else:  # a CSV that failed in _emit was reported there
            assert (exits, err) == ([code], "")

    def test_unwritable_out_file_is_usage_error(self, capsys):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        assert main(["scales", "--out", "/dev/full"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "chainrad: cannot write output: [Errno 28] No space left on device\n"
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["figure", "99"], EXIT_USAGE),
            (["scales", "--set", "n_atoms=0"], EXIT_CONFIG),
            (["verify", "--nmax", "2"], EXIT_ACCURACY),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
    )
    def test_failing_stderr_keeps_the_exit_code_in_process(
        self, monkeypatch, capsys, argv, code
    ):
        from chainrad import cli

        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "VERIFY_TOL", -1.0)  # every verify run fails
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(
            "verify FAILED: " if argv[0] == "verify" else "chainrad: "
        )
        monkeypatch.setattr(sys, "stderr", Full())
        assert main(argv) == code

class TestFigures:
    def test_all_supported_figures_run(self, tmp_path):
        for number in SUPPORTED_FIGURES:
            out = tmp_path / f"fig{number}.csv"
            assert main(["figure", str(number), "--out", str(out)]) == EXIT_OK
            _, columns, rows, _ = read_csv(out)
            assert len(columns) >= 2
            assert rows.shape[0] >= 100

    def test_figure_output_deterministic(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        main(["figure", "6", "--out", str(first)])
        main(["figure", "6", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_figure2_zero_crossing(self, tmp_path):
        out = tmp_path / "fig2.csv"
        main(["figure", "2", "--out", str(out)])
        _, columns, rows, _ = read_csv(out)
        x = rows[:, columns.index("x")]
        j = rows[:, columns.index("J_exact_phi0")]
        window = (x >= 2) & (x <= 4)
        assert np.min(j[window]) < 0 < np.max(j[window])

    def test_figure7_monotone(self, tmp_path):
        out = tmp_path / "fig7.csv"
        main(["figure", "7", "--out", str(out)])
        _, columns, rows, _ = read_csv(out)
        for name in ("gamma_phi0", "gamma_phi90"):
            assert np.all(np.diff(rows[:, columns.index(name)]) > 0)

    def test_figure9_saturates(self, tmp_path):
        out = tmp_path / "fig9.csv"
        main(["figure", "9", "--out", str(out)])
        _, columns, rows, _ = read_csv(out)
        n = rows[:, columns.index("N")]
        gam = rows[:, columns.index("gamma_phi0")]
        ref = gam[n == 50][0]
        assert np.all(np.abs(gam[n >= 50] - ref) <= 0.5)


#: Largest move of a ``verify`` error cell, or of its footer's worst
#: error, from the recording: the cells depend on BLAS rounding.
VERIFY_CELL_ATOL = 1e-8


class TestRecordedOutputs:
    """The CLI runs of ``record_outputs.RECORDED_OPS`` against their
    recordings in ``tests/recorded/``."""

    @pytest.mark.parametrize("name", sorted(set(RECORDED_OPS) - {"verify"}))
    def test_csv_bytes_match_recording(self, name):
        assert cli_output(RECORDED_OPS[name]) == recorded_output(name)

    def test_verify_matches_recording(self):
        # the error cells and the footer's worst error are held to
        # VERIFY_CELL_ATOL; every other line, N and n_states included,
        # matches byte for byte
        got = cli_output(RECORDED_OPS["verify"]).decode().splitlines()
        want = recorded_output("verify").decode().splitlines()
        assert len(got) == len(want)
        for line, ref in zip(got, want):
            if line[:1].isdigit():
                sep = ","
            elif line.startswith("# max_rel_err="):
                sep = "="
            else:
                assert line == ref
                continue
            (head, cell), (ref_head, ref_cell) = line.rsplit(sep, 1), ref.rsplit(sep, 1)
            assert head == ref_head
            assert abs(float(cell) - float(ref_cell)) <= VERIFY_CELL_ATOL, line
            assert float(cell) < VERIFY_TOL, line


# --- CLI fuzzing: every argv ends in a documented exit code -------------

_FLAGS = {
    name: tuple(f for f in (*flags, "--out") if f.startswith("--"))
    for name, (_, _, flags) in COMMANDS.items()
}
# Values bound the work: at most 50 points, 8 atoms, verify --nmax 3 and
# nscaling N_max 50. "{tmp}" is replaced by a temporary directory.
_VALUES = {
    "--config": st.sampled_from([
        "{tmp}/chain.json", "{tmp}/missing.json", "{tmp}", "{tmp}/inf.json",
        "{tmp}/partial.json", "{tmp}/fraction.json", "{tmp}/bool.json",
    ]),
    "--set": st.sampled_from([
        "n_atoms=1", "n_atoms=3", "n_atoms=8", "n_atoms=0", "n_atoms=-2",
        "n_atoms=2.5", "n_atoms=", "lattice_const_angstrom=300",
        "lattice_const_angstrom=0", "lattice_const_angstrom=inf",
        "lattice_const_angstrom=1e-300", "lattice_const_angstrom=1e300",
        "transition_energy_ev=2",
        "transition_energy_ev=1e300", "transition_energy_ev=1e-310",
        "transition_energy_ev=nan",
        "dipole_e_angstrom=1e200", "dipole_e_angstrom=-1",
        "polarization_deg=90", "polarization_deg=-30", "gamma_override_hz=1e8",
        "gamma_override_hz=0", "colour=blue", "no_equals_sign",
    ]),
    "--points": st.one_of(st.integers(-2, 50).map(str), st.just("ten")),
    "--range": st.sampled_from([
        "0.5:2", "0.01:20", "1:50", "1:12", "1:1", "1e3:1e5", "5:1", "0:3",
        "-1:3", "1:inf", "nan:2", "a:b", "7", "1:2:3", "1:1e300", "1e-300:1",
        "1e-105:1",
    ]),
    "--out": st.sampled_from(["{tmp}/out.csv", "{tmp}/no_such_dir/out.csv"]),
    "--state": st.sampled_from(["sym", "alt", "+", "+-", "+-+", "++--", "+0", ""]),
    "--obs-x": st.sampled_from([
        "1e6", "1e3", "0", "-5", "inf", "nan", "far", "1e300", "1e-150", "1e-300",
    ]),
    "--time": st.sampled_from(["1e-3", "1e-15", "0", "-1", "nan", "1e300", "now"]),
    "--nmax": st.one_of(st.integers(-1, 3).map(str), st.just("2.5")),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command == "figure":
        argv.append(draw(st.one_of(st.integers(-1, 21).map(str), st.just("seven"))))
    flags = draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4))
    # the defaults (verify --nmax 8, damping --oracle on 1000 points)
    # cost seconds; always bound them
    if command == "verify":
        flags.append("--nmax")
    if "--oracle" in flags:
        flags.append("--points")
    for flag in flags:
        argv.append(flag)
        if flag != "--oracle":
            argv.append(draw(_VALUES[flag]))
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "--nmax", "--help"])))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    chain = {"n_atoms": 3, "lattice_const_angstrom": 500,
             "transition_energy_ev": 2.0, "dipole_e_angstrom": 1.0}
    (path / "chain.json").write_text(json.dumps(chain))
    (path / "partial.json").write_text(
        json.dumps({k: v for k, v in chain.items() if k != "n_atoms"})
    )
    (path / "fraction.json").write_text(json.dumps(dict(chain, n_atoms=2.7)))
    (path / "bool.json").write_text(json.dumps(dict(chain, n_atoms=True)))
    (path / "inf.json").write_text(
        '{"n_atoms": 1e400, "lattice_const_angstrom": 500,'
        ' "transition_energy_ev": 2.0, "dipole_e_angstrom": 1.0}'
    )
    return path


class TestFuzz:
    @given(argv=cli_argv())
    @settings(
        max_examples=100, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_argv_ends_in_documented_exit_code(self, fuzz_dir, argv):
        argv = [a.replace("{tmp}", str(fuzz_dir)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_ACCURACY,
                      EXIT_CAUSALITY), (argv, rc)
        if rc != EXIT_OK:
            assert err.getvalue().strip(), argv
        assert "Traceback" not in err.getvalue(), argv
        if rc == EXIT_OK:  # no nan or inf cell in what it wrote
            outs = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--out"]
            text = out.getvalue() or Path(outs[-1]).read_text()
            cells = {
                cell for line in text.splitlines() if not line.startswith("#")
                for cell in line.split(",")
            }
            assert not cells & {"nan", "inf", "-inf"}, argv


def same_namespace(plain, argv):
    """Whether ``plain`` holds what argparse parses from ``argv``: the same
    names, values of the same type and repr (a nan too), the same func."""
    reprs = lambda ns: {key: repr(value) for key, value in vars(ns).items()}
    return reprs(plain) == reprs(build_parser().parse_args(argv))


class TestPlainParser:
    """``main`` parses a plain argv without argparse: the namespace must be
    the one argparse builds, and any other argv goes to argparse."""

    @given(argv=cli_argv())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_plain_namespace_is_argparse_namespace(self, argv):
        plain = _parse_plain(argv)
        if plain is not None:
            assert same_namespace(plain, argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            *RECORDED_OPS.values(),
            ["verify", "--nmax", "3", "--out", "v.csv"],
            ["damping", "--oracle", "--set", "n_atoms=3", "--set", "x=1", "--oracle"],
            ["damping", "--points", "5", "--points", "7", "--state", ""],
            ["emission", "--obs-x", "1e3", "--time", "1e-3", "--range", "1:2"],
            ["figure", "07", "--out", "f.csv"],
        ],
        ids=" ".join,
    )
    def test_cli_ops_are_plain(self, argv):
        plain = _parse_plain(argv)
        assert plain is not None and same_namespace(plain, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["damping", "--poi", "5"],  # an abbreviation
            ["damping", "--points=5"],
            ["damping", "-h"],
            ["emission", "--time", "-1"],  # a value that starts with "-"
            ["figure", "--out", "f.csv", "7"],  # the number not first
            ["damping", "extra"],
            ["damping", "--", "x"],
            ["--version"],
            [],
            ["nope"],
            ["figure"],
            ["figure", "seven"],  # values argparse's type callables refuse
            ["damping", "--points", "ten"],
            ["damping", "--state"],  # a flag without its value
            ["damping", "--oracle", "x"],
            ["scales", "--points", "5"],  # a flag scales does not read
            ["damping", "--out", "o.csv", "--help"],
        ],
        ids=" ".join,
    )
    def test_other_argv_goes_to_argparse(self, argv):
        assert _parse_plain(argv) is None


#: Each command's defaults that a command line can spell, as (flag, value):
#: None is no value and --oracle's False is its absence. Commands with
#: none (scales, figure) are left out.
SPELLED_DEFAULTS = {
    name: [
        (flag, str(default)) for flag, default in flags.items()
        if default is not None and not isinstance(default, bool)
    ]
    for name, (_, _, flags) in COMMANDS.items()
}
SPELLED_DEFAULTS = {name: pairs for name, pairs in SPELLED_DEFAULTS.items() if pairs}


class TestDefaults:
    """COMMANDS holds every default, and both parsers fill them from it."""

    @pytest.mark.parametrize("command", sorted(SPELLED_DEFAULTS))
    def test_spelled_out_defaults_give_the_bare_output(self, command):
        bare = cli_output([command])
        pairs = SPELLED_DEFAULTS[command]
        spaced = [command, *(word for pair in pairs for word in pair)]
        assert _parse_plain(spaced) is not None
        assert cli_output(spaced) == bare
        # --flag=value is argparse's to parse, with its own defaults
        joined = [command, *(f"{flag}={value}" for flag, value in pairs)]
        assert _parse_plain(joined) is None
        assert cli_output(joined) == bare

    @pytest.mark.parametrize("command", sorted(SPELLED_DEFAULTS))
    def test_help_shows_each_default(self, command):
        code, out, err = parse_outcome(main, [command, "--help"])
        assert (code, err) == (EXIT_OK, "")
        text = " ".join(out.split())
        for flag, value in SPELLED_DEFAULTS[command]:
            assert f"(default {value})" in text, flag

    def test_time_help_names_the_real_default(self):
        # without --time, emission observes at the grid's latest
        # retardation; 2x/c is only the time of figures 16-20
        code, out, err = parse_outcome(main, ["emission", "--help"])
        assert (code, err) == (EXIT_OK, "")
        assert "2x/c" not in out
        assert "(default: the grid's latest retardation)" in " ".join(out.split())
        header = cli_output(["emission", "--points", "3"]).decode()
        (t,) = latest_retardation(2, 1e7 * ANGSTROM, 1e6 * ANGSTROM)
        assert f"# t_s={format(t, '.12g')}\n" in header
