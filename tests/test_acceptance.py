"""End-to-end acceptance gate.

Each test checks one numbered acceptance criterion at its pinned tolerance
and prints a single PASS/FAIL line so the suite output doubles as a
checklist.  Expected values marked "frozen" were computed once with an
independent method (high-precision quadrature or mpmath) and pinned.
"""

import math

import numpy as np
import pytest
from scipy import constants as const

from chainrad.cli import main
from chainrad.damping import damping_general, f_kernel, quadrature_rates
from chainrad.coupling import transfer_electrostatic, transfer_exact
from chainrad.emission import emission_sweep
from chainrad.scales import ANGSTROM, config_from_dict, derive_scales
from chainrad.states import alternating_state, symmetric_state
from oracles import (
    column,
    one_point_intensity,
    sign_states,
    two_atom_asymptotic,
    two_atom_intensity,
)

OBS_X = 1e6 * ANGSTROM
T_OBS = 2 * OBS_X / const.c


@pytest.fixture
def report(capsys):
    def _report(number, label, ok):
        with capsys.disabled():
            print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'}")
        assert ok, f"acceptance criterion {number} ({label}) failed"

    return _report


@pytest.fixture
def emitter_scales():
    config = config_from_dict(
        {
            "n_atoms": 2,
            "lattice_const_angstrom": 1000.0,
            "transition_energy_ev": 1.0,
            "dipole_e_angstrom": 1.0,
            "gamma_override_hz": 1e8,
        }
    )
    return derive_scales(config)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_coupling_anchors(report):
    checks = [
        abs(transfer_exact(0.5, 0.0) - (-13.41)) <= 0.05,
        abs(transfer_exact(0.5, math.pi / 2) - 5.39) <= 0.05,
        rel_err(transfer_electrostatic(0.5, 0.0), -12.0) <= 1e-12,
        rel_err(transfer_electrostatic(0.5, math.pi / 2), 6.0) <= 1e-12,
    ]
    report(1, "coupling anchors", all(checks))


def test_criterion_2_kernel_anchors(report):
    checks = [
        abs(f_kernel(0.5, 0.0) - 0.9752) <= 5e-4,
        abs(f_kernel(0.5, math.pi / 2) - 0.9507) <= 5e-4,
    ]
    for phi in (0.0, math.pi / 4, math.pi / 2):
        checks.append(abs(f_kernel(1e-6, phi) - 1.0) <= 1e-9)
    report(2, "kernel anchors", all(checks))


def test_criterion_3_closed_form_specializations(report):
    checks = []
    for x in (0.1, 0.5, 1.0, 5.0):
        for phi in (0.0, math.pi / 2):
            f1 = f_kernel(x, phi)
            f2 = f_kernel(2 * x, phi)
            pairs = [
                (damping_general(symmetric_state(2), x, phi).rate_ratio, 1.0 + f1),
                (damping_general(alternating_state(2), x, phi).rate_ratio, 1.0 - f1),
                (damping_general(symmetric_state(3), x, phi).rate_ratio,
                 1.0 + (2.0 / 3.0) * (2 * f1 + f2)),
                (damping_general(alternating_state(3), x, phi).rate_ratio,
                 1.0 - (2.0 / 3.0) * (2 * f1 - f2)),
            ]
            checks.extend(rel_err(got, want) <= 1e-12 for got, want in pairs)
    report(3, "closed-form specializations", all(checks))


def test_criterion_4_limits(report):
    checks = []
    for n in range(1, 51):
        for phi in (0.0, math.pi / 4, math.pi / 2):
            ratio = damping_general(symmetric_state(n), 1e-4, phi).rate_ratio / n
            checks.append(0.999 <= ratio <= 1.0)
    checks.append(damping_general(alternating_state(2), 1e-6, 0.0).rate_ratio <= 1e-6)
    checks.append(
        abs(damping_general(alternating_state(3), 1e-4, 0.0).rate_ratio - 1.0 / 3.0)
        <= 1e-3
    )
    report(4, "superradiant / dark / metastable limits", all(checks))


def test_criterion_5_oracle_equivalence(report):
    worst = 0.0
    for n in range(1, 9):
        for state in sign_states(n):
            for x in (0.1, 0.5, 1.0, 3.0, 10.0):
                for phi in (0.0, math.pi / 4, math.pi / 2):
                    cf = damping_general(state, x, phi).rate_ratio
                    qd = quadrature_rates([state], x, [phi])[0][0]
                    worst = max(worst, rel_err(cf, qd))
    report(5, f"oracle equivalence, max rel err {worst:.3e}", worst <= 1e-8)


def test_criterion_6_sign_state_average(report):
    checks = []
    for n in range(1, 7):
        rates = [
            damping_general(s, 0.7, math.radians(30)).rate_ratio
            for s in sign_states(n)
        ]
        checks.append(abs(sum(rates) / len(rates) - 1.0) <= 1e-12)
    report(6, "sign-state average", all(checks))


def test_criterion_7_emission_anchors(report, emitter_scales):
    checks = []
    a_small = 1000 * ANGSTROM
    i_anti = two_atom_intensity(False, a_small, 0.0, OBS_X, T_OBS, emitter_scales)
    i_sym = two_atom_intensity(True, a_small, 0.0, OBS_X, T_OBS, emitter_scales)
    checks.append(i_anti <= 1e-4 * i_sym)

    # causal portion of the default log grid at t = 2x/c
    a_max = math.sqrt((const.c * T_OBS) ** 2 - OBS_X**2) * (1 - 1e-12)
    a_grid = np.logspace(3, math.log10(a_max / ANGSTROM), 2000) * ANGSTROM
    traces = {
        name: emission_sweep(state, a_grid, math.pi / 2, OBS_X, T_OBS,
                             emitter_scales, 1.0)
        for name, state in (("sym", symmetric_state(2)),
                            ("anti", alternating_state(2)))
    }
    values = column(traces["sym"].table, "intensity_ratio")
    a_col = column(traces["sym"].table, "a_angstrom")
    peak = int(np.argmax(values))
    nearest = int(np.argmin(np.abs(a_col - 1e6)))
    checks.append(abs(peak - nearest) <= 1)

    d2 = math.sqrt(2.0) * OBS_X
    expected_peak = 0.0625 * math.exp(-emitter_scales.gamma_a * (T_OBS - d2 / const.c))
    checks.append(abs(values[peak] - expected_peak) <= 1e-3)

    checks.append(
        np.array_equal(values, column(traces["anti"].table, "intensity_ratio"))
    )
    report(7, "emission anchors", all(checks))


def test_criterion_8_emission_consistency(report, emitter_scales):
    checks = []
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        a = float(rng.uniform(1e5, 1.7e6)) * ANGSTROM
        phi = float(rng.uniform(0, math.pi / 2))
        t = math.hypot(OBS_X, a) / const.c * float(rng.uniform(1.0, 1.5))
        i_sym = two_atom_intensity(True, a, phi, OBS_X, t, emitter_scales)
        i_anti = two_atom_intensity(False, a, phi, OBS_X, t, emitter_scales)
        for sym, state, closed in ((True, symmetric_state(2), i_sym),
                                   (False, alternating_state(2), i_anti)):
            general = one_point_intensity(state, a, phi, OBS_X, emitter_scales, t)
            checks.append(rel_err(closed, general) <= 1e-12)
        # the cross terms cancel in the state sum, leaving twice the
        # independent-atom intensities
        d2 = math.hypot(OBS_X, a)
        phi1 = math.pi / 2 - phi
        phi2 = math.pi - phi - math.atan2(OBS_X, a)
        i_single = 0.25 * (
            math.sin(phi1) ** 2
            * math.exp(-emitter_scales.gamma_a * (t - OBS_X / const.c))
            + OBS_X**2 * math.sin(phi2) ** 2 / d2**2
            * math.exp(-emitter_scales.gamma_a * (t - d2 / const.c))
        )
        checks.append(rel_err(i_sym + i_anti, 2 * i_single) <= 1e-12)

    # asymptotic gate: symmetric state at phi = 0, where the dropped
    # O(a/x) amplitude corrections do not enter
    for frac in (1e-2, 3e-3, 1e-3):
        a = frac * OBS_X
        exact = two_atom_intensity(True, a, 0.0, OBS_X, T_OBS, emitter_scales)
        approx = two_atom_asymptotic(True, a, 0.0, OBS_X, T_OBS, emitter_scales)
        checks.append(rel_err(exact, approx) <= 1e-3)
    report(8, "emission consistency", all(checks))


def test_criterion_9_figure_smoke(report, tmp_path):
    def load(number):
        out = tmp_path / f"fig{number}.csv"
        status = main(["figure", str(number), "--out", str(out)])
        columns, rows = None, []
        for line in out.read_text().splitlines():
            if line.startswith("#"):
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
        return status, columns, np.array(rows)

    checks = []
    for number in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20):
        status, columns, rows = load(number)
        checks.append(status == 0)
        checks.append(columns is not None and len(columns) >= 2 and rows.size > 0)
        if number == 2:
            x = rows[:, columns.index("x")]
            j = rows[:, columns.index("J_exact_phi0")]
            window = (x >= 2) & (x <= 4)
            checks.append(np.min(j[window]) < 0 < np.max(j[window]))
        elif number == 7:
            checks.append(bool(np.all(np.diff(rows[:, columns.index("gamma_phi0")]) > 0)))
        elif number == 9:
            n = rows[:, columns.index("N")]
            gam = rows[:, columns.index("gamma_phi0")]
            ref = gam[n == 50][0]
            checks.append(bool(np.all(np.abs(gam[n >= 50] - ref) <= 0.5)))
    report(9, "figure smoke tests", all(checks))
