import math

import numpy as np
import pytest
from mpmath import mp, mpf

from chainrad.coupling import (
    coupling_sweep,
    transfer_electrostatic,
    transfer_exact,
)
from oracles import column

# frozen high-precision values of the exact coupling at x = 0.5
J_HALF_PARALLEL = -13.407543974309691
J_HALF_PERP = 5.387398144319286

MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))


def transfer_exact_mp(x: float, phi: float) -> float:
    """J/gamma_a at 50 digits, for the float inputs x and phi."""
    with mp.workdps(50):
        x, c2 = mpf(x), mp.cos(mpf(phi)) ** 2
        bracket = mp.sin(x) / x**2 + mp.cos(x) / x**3
        return float(mpf(0.75) * (bracket * (1 - 3 * c2) - mp.cos(x) / x * (1 - c2)))


class TestTransferExact:
    def test_parallel_anchor(self):
        assert transfer_exact(0.5, 0.0) == pytest.approx(-13.4, abs=0.05)
        assert transfer_exact(0.5, 0.0) == pytest.approx(J_HALF_PARALLEL, rel=1e-12)

    def test_perpendicular_anchor(self):
        assert transfer_exact(0.5, math.pi / 2) == pytest.approx(5.4, abs=0.05)
        assert transfer_exact(0.5, math.pi / 2) == pytest.approx(J_HALF_PERP, rel=1e-12)

    def test_large_x_decay_envelope(self):
        for x in (30.0, 100.0, 300.0):
            # every term carries at least one inverse power of x
            assert abs(transfer_exact(x, 0.0)) < 2.0 / x
            assert abs(transfer_exact(x, math.pi / 2)) < 2.0 / x

    @pytest.mark.parametrize("x", [0.05, 0.5, 3.0])
    def test_even_in_phi(self, x):
        for phi in (0.1, 0.7, 1.3):
            assert transfer_exact(x, phi) == pytest.approx(
                transfer_exact(x, -phi), rel=1e-14
            )
            assert transfer_exact(x, phi) == pytest.approx(
                transfer_exact(x, math.pi - phi), rel=1e-14
            )

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_nonpositive_separation_rejected(self, x):
        with pytest.raises(ValueError):
            transfer_exact(x, 0.0)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
    def test_matches_mpmath_at_small_x(self, phi):
        # the bracket is evaluated as written down to the smallest x: its
        # 1/x^3 part dominates there, so nothing cancels
        rng = np.random.default_rng(14)
        for x in 10.0 ** rng.uniform(-8.0, -2.0, 2000):
            want = transfer_exact_mp(float(x), phi)
            assert abs(transfer_exact(x, phi) - want) <= 2e-15 * abs(want), x

    @pytest.mark.parametrize("x", [1e-105, 1.4e-108, 1.8e-103])
    @pytest.mark.parametrize("transfer", [transfer_exact, transfer_electrostatic])
    def test_non_finite_coupling_raises(self, transfer, x):
        # x^3 is subnormal, and 1/x^3 overflows to inf without raising
        with pytest.raises(OverflowError, match="not finite"):
            transfer(x, 0.0)


class TestTransferElectrostatic:
    def test_anchors(self):
        assert transfer_electrostatic(0.5, 0.0) == pytest.approx(-12.0, rel=1e-12)
        assert transfer_electrostatic(0.5, math.pi / 2) == pytest.approx(6.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.2, 1.0, 7.0])
    def test_magic_angle_zero(self, x):
        assert transfer_electrostatic(x, MAGIC_ANGLE) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_separation_rejected(self):
        with pytest.raises(ValueError):
            transfer_electrostatic(0.0, 0.0)

    @pytest.mark.parametrize("x", [0.01, 0.005, 0.001])
    def test_electrostatic_limit(self, x):
        exact = transfer_exact(x, 0.0)
        approx = transfer_electrostatic(x, 0.0)
        assert abs(exact - approx) / abs(approx) <= 1e-4


class TestCouplingSweep:
    def test_anchor_row(self):
        table = coupling_sweep(0.1, 0.9, 5, [0.0, math.pi / 2])
        xs = column(table, "x")
        idx = int(np.argmin(np.abs(xs - 0.5)))
        assert xs[idx] == pytest.approx(0.5)
        assert column(table, "J_exact_phi0")[idx] == pytest.approx(-13.4, abs=0.05)
        assert column(table, "J_exact_phi90")[idx] == pytest.approx(5.4, abs=0.05)
        assert column(table, "J_approx_phi0")[idx] == pytest.approx(-12.0, rel=1e-12)
        assert column(table, "J_approx_phi90")[idx] == pytest.approx(6.0, rel=1e-12)

    def test_small_x_convergence(self):
        exact = transfer_exact(0.1, 0.0)
        approx = transfer_electrostatic(0.1, 0.0)
        assert abs(exact - approx) / abs(approx) < 0.02

    def test_large_x_regimes(self):
        assert abs(transfer_electrostatic(50.0, 0.0)) < 1e-4
        assert abs(transfer_electrostatic(50.0, math.pi / 2)) < 1e-4
        # exact coupling still oscillates with a 1/x envelope (the
        # surviving cos x/x term needs a perpendicular component)
        vals = [abs(transfer_exact(x, math.pi / 2)) for x in np.linspace(49, 51, 40)]
        assert max(vals) > 1e-3
        assert max(vals) < 2.0 / 49

    def test_rows_ordered_ascending(self):
        table = coupling_sweep(0.01, 5.0, 50, [0.0])
        xs = column(table, "x")
        assert np.all(np.diff(xs) > 0)

    def test_one_point_grid_is_x_min(self):
        table = coupling_sweep(0.1, 0.9, 1, [0.0])
        assert table.rows == [(0.1, transfer_exact(0.1, 0.0), transfer_electrostatic(0.1, 0.0))]

    @pytest.mark.parametrize("args", [(0.0, 1.0, 10), (-1.0, 1.0, 10), (1.0, 0.5, 10), (0.1, 1.0, 0)])
    def test_bad_grids_rejected(self, args):
        with pytest.raises(ValueError):
            coupling_sweep(*args, [0.0])
