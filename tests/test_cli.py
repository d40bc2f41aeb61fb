import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chainrad
from chainrad.cli import (
    EXIT_ACCURACY,
    EXIT_CAUSALITY,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_USAGE,
    SUPPORTED_FIGURES,
    UsageError,
    main,
    parse_state,
)


def run_fresh(*args):
    """Run python with ``args`` in a fresh process on this chainrad tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(chainrad.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


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
        code = (
            "import sys, chainrad.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        done = run_fresh("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_verify_runs_in_fresh_process(self):
        # the quadrature oracle imports scipy on first use
        done = run_fresh("-m", "chainrad.cli", "verify", "--nmax", "2")
        assert done.returncode == EXIT_OK, done.stderr
        assert "# max_rel_err=" in done.stdout

    def test_verify_small(self, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--nmax", "3", "--out", str(out)]) == EXIT_OK
        _, columns, rows, footer = read_csv(out)
        assert columns == ["N", "n_states", "max_rel_err"]
        assert np.all(rows[:, 2] <= 1e-8)


class TestExitCodes:
    def test_unknown_figure_is_usage_error(self, capsys):
        assert main(["figure", "15"]) == EXIT_USAGE
        assert main(["figure", "99"]) == EXIT_USAGE

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["scales", "--config", str(bad)]) == EXIT_CONFIG

    def test_invalid_config_value(self):
        assert main(["scales", "--set", "n_atoms=0"]) == EXIT_CONFIG

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
            ["nscaling", "--points", "10"],
            ["nscaling", "--range", "5:50"],
            ["nscaling", "--range", "1:20.5"],
            ["verify", "--nmax", "0"],
            # rejected before any work: 21 would enumerate 2^20 states first
            ["verify", "--nmax", "21"],
        ],
    )
    def test_invalid_flag_values_are_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("chainrad: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["scales", "--set", "lattice_const_angstrom=inf"],
            ["scales", "--set", "polarization_deg=nan"],
            ["damping", "--set", "polarization_deg=nan"],
            ["emission", "--set", "transition_energy_ev=-inf"],
        ],
    )
    def test_non_finite_config_is_config_error(self, argv):
        assert main(argv) == EXIT_CONFIG

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
