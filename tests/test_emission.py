import math
import warnings

import numpy as np
import pytest
from scipy import constants as const

from chainrad.emission import (
    CausalityError,
    emission_sweep,
    lattice_grid,
    latest_retardation,
    reference_intensity,
)
from chainrad.scales import ANGSTROM, config_from_dict, derive_scales
from chainrad.states import SignState, alternating_state, symmetric_state
from oracles import (
    column,
    emission_geometry,
    one_point_intensity,
    sign_coeffs,
    total_intensity_mp,
    total_intensity_pairwise,
    two_atom_asymptotic,
    two_atom_intensity,
)

OBS_X = 1e6 * ANGSTROM
T_OBS = 2 * OBS_X / const.c


def reference_config(n_atoms=2, a_angstrom=1000.0, phi_deg=0.0):
    return config_from_dict(
        {
            "n_atoms": n_atoms,
            "lattice_const_angstrom": a_angstrom,
            "transition_energy_ev": 1.0,
            "dipole_e_angstrom": 1.0,
            "polarization_deg": phi_deg,
            "gamma_override_hz": 1e8,
        }
    )


@pytest.fixture
def scales():
    return derive_scales(reference_config())


class TestGeometry:
    def test_two_atom_angles(self):
        phi = 0.3
        a = 2000 * ANGSTROM
        geom = emission_geometry(2, a, phi, OBS_X)
        assert geom.phi_n[0] == pytest.approx(math.pi / 2 - phi, rel=1e-14)
        alpha = math.atan(OBS_X / a)
        assert geom.phi_n[1] == pytest.approx(math.pi - phi - alpha, rel=1e-14)

    def test_two_atom_unit_vector_overlap(self):
        a = 5e5 * ANGSTROM
        geom = emission_geometry(2, a, 0.0, OBS_X)
        expected = OBS_X / math.sqrt(OBS_X**2 + a**2)
        assert float(np.dot(geom.unit_n[0], geom.unit_n[1])) == pytest.approx(
            expected, rel=1e-14
        )

    def test_unit_vectors_normalized(self):
        geom = emission_geometry(6, 3e5 * ANGSTROM, 0.5, OBS_X)
        norms = np.linalg.norm(geom.unit_n, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    def test_distances_and_retardation_increase(self):
        geom = emission_geometry(5, 1e5 * ANGSTROM, 0.0, OBS_X)
        assert np.all(geom.dist_n >= OBS_X)
        assert geom.dist_n[0] == OBS_X
        assert np.all(np.diff(geom.retard_n) > 0)

    def test_latest_retardation_is_the_last_atoms_bitwise(self):
        # the rule behind the sweep's causality checks and the CLI's
        # default --time is the largest retardation of the intensity sum,
        # to the last bit (math.hypot differs from np.hypot in the last ulp)
        rng = np.random.default_rng(1313)
        for _ in range(500):
            n = int(rng.integers(1, 51))
            a = 10 ** float(rng.uniform(3, 7)) * ANGSTROM
            obs_x = 10 ** float(rng.uniform(4, 8)) * ANGSTROM
            geom = emission_geometry(n, a, 0.0, obs_x)
            (t,) = latest_retardation(n, a, obs_x)
            assert t == float(np.max(geom.retard_n))

    def test_latest_retardation_of_a_grid_is_the_pointwise_float(self):
        # one return type: an array of the grid's shape, and a lone float
        # is a one-point grid; each point's time is its one-point grid's to
        # the last bit, so the sweep's whole-grid check and the CLI's
        # default time agree
        rng = np.random.default_rng(1919)
        for _ in range(200):
            n = int(rng.integers(1, 10_001))
            obs_x = 10 ** float(rng.uniform(-2, 8)) * ANGSTROM
            a_grid = 10 ** rng.uniform(-3, 7, size=int(rng.integers(1, 100))) * ANGSTROM
            a_grid[0] = 0.0
            got = latest_retardation(n, a_grid, obs_x)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            assert got.shape == a_grid.shape
            for a, t in zip(a_grid, got):
                for one_point in (float(a), [float(a)]):
                    want = latest_retardation(n, one_point, obs_x)
                    assert isinstance(want, np.ndarray) and want.shape == (1,)
                    assert t == want[0], (n, a, obs_x)

    def test_coincident_atoms(self):
        geom = emission_geometry(4, 0.0, 0.2, OBS_X)
        assert np.all(geom.phi_n == geom.phi_n[0])
        assert np.all(geom.retard_n == geom.retard_n[0])

    def test_nonpositive_observation_point(self, scales):
        with pytest.raises(ValueError, match="obs_x"):
            one_point_intensity(symmetric_state(2), 1000 * ANGSTROM, 0.0, 0.0, scales, T_OBS)


class TestTotalIntensity:
    def test_symmetric_coincident_pair(self, scales):
        # all four terms coincide; I/I_0 = exp(-gamma x/c)
        val = one_point_intensity(symmetric_state(2), 0.0, 0.0, OBS_X, scales, T_OBS)
        assert val == pytest.approx(math.exp(-scales.gamma_a * OBS_X / const.c), rel=1e-12)
        assert val == pytest.approx(1 - 3.3e-5, abs=2e-6)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2])
    def test_antisymmetric_coincident_pair_dark(self, scales, phi):
        assert one_point_intensity(
            alternating_state(2), 0.0, phi, OBS_X, scales, T_OBS
        ) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("sym", [True, False])
    def test_perpendicular_polarization_profile(self, scales, sym):
        # only atom 2 radiates toward the observer; maximum at a = x
        state = symmetric_state(2) if sym else alternating_state(2)
        a = OBS_X
        t2 = math.hypot(OBS_X, a) / const.c
        expected = 0.25 * OBS_X**2 * a**2 / (OBS_X**2 + a**2) ** 2 * math.exp(
            -scales.gamma_a * (T_OBS - t2)
        )
        assert one_point_intensity(
            state, a, math.pi / 2, OBS_X, scales, T_OBS
        ) == pytest.approx(expected, rel=1e-12)

    def test_causality_error(self, scales):
        with pytest.raises(CausalityError):
            one_point_intensity(
                symmetric_state(2), 1e5 * ANGSTROM, 0.0, OBS_X, scales,
                0.5 * OBS_X / const.c,
            )


class TestRankOneForm:
    @pytest.mark.parametrize("kind", ["sym", "alt", "random"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_matches_pairwise_oracle(self, scales, kind, n):
        # Differences are measured against the all-in-phase bound
        # (x^2/2N)(sum_n |v_n|)^2, the size of the largest terms either
        # form adds: near-dark points cancel those terms by up to 1e6,
        # and there the pairwise sum's own rounding reaches ~1e-10 of the
        # value (see test_near_dark_pair_matches_mpmath).
        coeffs = sign_coeffs(kind, n)
        for a_angstrom in np.logspace(3, 7, 9):
            for phi in (0.0, 0.7, math.pi / 2):
                a = a_angstrom * ANGSTROM
                geom = emission_geometry(n, a, phi, OBS_X)
                t = 1.3 * float(np.max(geom.retard_n))
                got = one_point_intensity(SignState(coeffs), a, phi, OBS_X, scales, t)
                want = total_intensity_pairwise(coeffs, geom, scales, t)
                weights = np.abs(np.sin(geom.phi_n)) / geom.dist_n * np.exp(
                    -0.5 * scales.gamma_a * (t - geom.retard_n)
                )
                bound = OBS_X**2 / (2 * n) * float(np.sum(weights)) ** 2
                assert abs(got - want) <= 1e-12 * bound, (a_angstrom, phi)

    @pytest.mark.parametrize("a_angstrom", [1e3, 2e3, 5e3])
    @pytest.mark.parametrize("phi", [0.0, 0.7])
    def test_near_dark_pair_matches_mpmath(self, scales, a_angstrom, phi):
        # alt N = 2 at a << x: I/I_0 ~ 1e-7 to 1e-5 of terms ~ 0.25
        coeffs = alternating_state(2).coeffs
        a = a_angstrom * ANGSTROM
        geom = emission_geometry(2, a, phi, OBS_X)
        got = one_point_intensity(SignState(coeffs), a, phi, OBS_X, scales, T_OBS)
        want = total_intensity_mp(coeffs, geom, scales, T_OBS)
        assert 1e-8 < want < 1e-4
        assert abs(got - want) <= 1e-12 * want


class TestTwoAtomClosedForm:
    def test_small_a_angle_dependence(self, scales):
        a = 100 * ANGSTROM
        full = two_atom_intensity(True, a, 0.0, OBS_X, T_OBS, scales)
        half = two_atom_intensity(True, a, math.pi / 4, OBS_X, T_OBS, scales)
        zero = two_atom_intensity(True, a, math.pi / 2, OBS_X, T_OBS, scales)
        assert half == pytest.approx(full / 2, rel=1e-3)
        assert zero < 1e-8 * full

    def test_antisymmetric_small_a_dark(self, scales):
        assert two_atom_intensity(False, 100 * ANGSTROM, 0.0, OBS_X, T_OBS, scales) < 1e-8

    def test_large_a_finite(self, scales):
        t = 12 * OBS_X / const.c
        for sym in (True, False):
            val = two_atom_intensity(sym, 10 * OBS_X, 0.0, OBS_X, t, scales)
            assert 0.01 < val < 1.0

    def test_specialization_equality_randomized(self, scales):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            a = float(rng.uniform(1e5, 1.7e6)) * ANGSTROM
            phi = float(rng.uniform(0, math.pi / 2))
            t = math.hypot(OBS_X, a) / const.c * float(rng.uniform(1.0, 1.5))
            for sym, state in ((True, symmetric_state(2)), (False, alternating_state(2))):
                closed = two_atom_intensity(sym, a, phi, OBS_X, t, scales)
                general = one_point_intensity(state, a, phi, OBS_X, scales, t)
                assert abs(closed - general) <= 1e-12 * max(abs(closed), abs(general))

    def test_cross_term_cancellation(self, scales):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = float(rng.uniform(0, 1.7e6)) * ANGSTROM
            phi = float(rng.uniform(0, math.pi / 2))
            t = math.hypot(OBS_X, a) / const.c * float(rng.uniform(1.0, 1.2))
            i_sym = two_atom_intensity(True, a, phi, OBS_X, t, scales)
            i_anti = two_atom_intensity(False, a, phi, OBS_X, t, scales)
            # independent per-atom sum, written out directly
            d2 = math.hypot(OBS_X, a)
            phi1 = math.pi / 2 - phi
            phi2 = math.pi - phi - math.atan2(OBS_X, a)
            i_single = 0.25 * (
                math.sin(phi1) ** 2
                * math.exp(-scales.gamma_a * (t - OBS_X / const.c))
                + OBS_X**2 * math.sin(phi2) ** 2 / d2**2
                * math.exp(-scales.gamma_a * (t - d2 / const.c))
            )
            assert i_sym + i_anti == pytest.approx(2 * i_single, rel=1e-12)

    def test_perpendicular_traces_identical(self, scales):
        for a_angstrom in (1e3, 1e5, 1e6):
            a = a_angstrom * ANGSTROM
            assert two_atom_intensity(
                True, a, math.pi / 2, OBS_X, T_OBS, scales
            ) == two_atom_intensity(False, a, math.pi / 2, OBS_X, T_OBS, scales)


class TestAsymptotic:
    def test_zero_separation_limits(self, scales):
        decay = math.exp(-scales.gamma_a * (T_OBS - OBS_X / const.c))
        for phi in (0.0, 0.5):
            assert two_atom_asymptotic(True, 0.0, phi, OBS_X, T_OBS, scales) == pytest.approx(
                math.cos(phi) ** 2 * decay, rel=1e-14
            )
            assert two_atom_asymptotic(False, 0.0, phi, OBS_X, T_OBS, scales) == 0.0

    @pytest.mark.parametrize("frac", [1e-2, 3e-3, 1e-3])
    def test_matches_exact_symmetric_parallel(self, scales, frac):
        a = frac * OBS_X
        exact = two_atom_intensity(True, a, 0.0, OBS_X, T_OBS, scales)
        approx = two_atom_asymptotic(True, a, 0.0, OBS_X, T_OBS, scales)
        assert abs(approx - exact) / abs(exact) <= 1e-3

    def test_degrades_with_polarization_angle(self, scales):
        # the amplitude replacement drops O(a/x tan(phi)) terms; document
        # that the 1e-3 agreement is a parallel-polarization statement
        a = 1e-2 * OBS_X
        exact = two_atom_intensity(True, a, math.pi / 4, OBS_X, T_OBS, scales)
        approx = two_atom_asymptotic(True, a, math.pi / 4, OBS_X, T_OBS, scales)
        rel = abs(approx - exact) / abs(exact)
        assert 1e-3 < rel < 5e-2

    def test_antisymmetric_misses_geometric_suppression(self, scales):
        # for the nearly dark antisymmetric state the dropped O((a/x)^2)
        # amplitude terms dominate the tiny intensity at small a, so the
        # printed asymptotic form stays ~10% off there
        a = 1e-2 * OBS_X
        exact = two_atom_intensity(False, a, 0.0, OBS_X, T_OBS, scales)
        approx = two_atom_asymptotic(False, a, 0.0, OBS_X, T_OBS, scales)
        rel = abs(approx - exact) / abs(exact)
        assert 0.05 < rel < 0.3


class TestLatticeGrid:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_bound_not_finite_and_positive_refused(self, side, bad):
        lo, hi = (bad, 1e7) if side == "lo" else (1e3, bad)
        with pytest.raises(ValueError) as info:
            lattice_grid(lo, hi, 5)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            f"need 0 < lo < inf and 0 < hi < inf Angstrom, got [{lo}, {hi}]"
        )

    def test_power_past_dbl_max_is_inf_without_a_warning(self):
        # 10 to the top exponent rounds past DBL_MAX; the sweep refuses it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = lattice_grid(3.356068024160366e-238, 1.7976931348623157e308, 3)
        assert grid[-1] == math.inf and np.isfinite(grid[:-1]).all()


class TestEmissionSweep:
    def test_perpendicular_peak_location_and_value(self, scales):
        a_grid = np.logspace(math.log10(1e3), math.log10(1.7e6), 2000) * ANGSTROM
        trace = emission_sweep(
            symmetric_state(2), a_grid, math.pi / 2, OBS_X, T_OBS, scales, 1.0
        )
        a_col = column(trace.table, "a_angstrom")
        i_col = column(trace.table, "intensity_ratio")
        peak = int(np.argmax(i_col))
        step = a_grid[1] / a_grid[0]
        assert 1e6 / step <= a_col[peak] <= 1e6 * step
        expected_peak = 0.0625 * math.exp(
            -scales.gamma_a * (T_OBS - math.sqrt(2) * OBS_X / const.c)
        )
        assert i_col[peak] == pytest.approx(expected_peak, abs=1e-3)

    def test_non_negative_everywhere(self, scales):
        a_grid = np.logspace(3, math.log10(1.7e6), 400) * ANGSTROM
        for state in (symmetric_state(2), alternating_state(2)):
            for phi in (0.0, math.pi / 4, math.pi / 2):
                trace = emission_sweep(state, a_grid, phi, OBS_X, T_OBS, scales, 1.0)
                assert np.all(column(trace.table, "intensity_ratio") >= -1e-12)

    def test_causality_violation_names_point(self, scales):
        a_grid = np.array([1e5, 5e6]) * ANGSTROM  # second point is acausal at 2x/c
        with pytest.raises(CausalityError, match="5e\\+06"):
            emission_sweep(symmetric_state(2), a_grid, 0.0, OBS_X, T_OBS, scales, 1.0)

    def test_empty_grid_rejected(self, scales):
        with pytest.raises(ValueError):
            emission_sweep(symmetric_state(2), [], 0.0, OBS_X, T_OBS, scales, 1.0)

    def test_work_over_budget_refused_before_any_work(self, scales, monkeypatch):
        from chainrad import emission

        # never reached: neither the causality check nor the intensity runs
        monkeypatch.setattr(emission, "latest_retardation", None)
        monkeypatch.setattr(emission, "_point_intensity", None)
        state = symmetric_state(10_000)
        a_grid = np.full(1001, 1e3 * ANGSTROM)  # 1.001e7 atom-points
        # the default time too is taken only after the budget check
        for t in (T_OBS, None):
            with pytest.raises(ValueError, match="1001 points at N=10000 .* 1.00e\\+07"):
                emission_sweep(state, a_grid, 0.0, OBS_X, t, scales, 1.0)
        # and after the obs_x and lattice-constant checks
        for obs_x, a in [(0.0, 1e3), (OBS_X, math.nan), (OBS_X, -1.0)]:
            with pytest.raises(ValueError, match="^(obs_x|lattice constant) "):
                emission_sweep(
                    symmetric_state(2), [a * ANGSTROM], 0.0, obs_x, None, scales, 1.0
                )

    def test_work_at_budget_runs(self, scales, monkeypatch):
        from chainrad import emission

        # 1000 points at N = 10^4 is the budget itself; a stand-in for the
        # per-point sum (seconds of work) keeps the test fast
        monkeypatch.setattr(emission, "_point_intensity", lambda *args: 0.0)
        a = 1e3 * ANGSTROM
        (t,) = latest_retardation(10_000, a, OBS_X)
        trace = emission_sweep(
            symmetric_state(10_000), np.full(1000, a), 0.0, OBS_X, t, scales, 1.0
        )
        assert len(trace.table.rows) == 1000

    @pytest.mark.parametrize("a_angstrom", [math.nan, -1e4])
    def test_non_finite_or_negative_lattice_constant_rejected(self, scales, a_angstrom):
        a_grid = np.array([a_angstrom, 1e4]) * ANGSTROM
        with pytest.raises(ValueError, match="lattice constant"):
            emission_sweep(symmetric_state(2), a_grid, 0.0, OBS_X, T_OBS, scales, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, scales, t):
        a_grid = np.array([1e4, 1e5]) * ANGSTROM
        with pytest.raises(ValueError, match="observation time"):
            emission_sweep(symmetric_state(2), a_grid, 0.0, OBS_X, t, scales, 1.0)

    def test_latest_retardation_is_always_causal(self, scales):
        # the CLI's default --time. Under two rules (math.hypot for that
        # time and the sweep's check, np.hypot for the intensity's check)
        # one of these 2000 pairs, and about 1 in 650 in general, was
        # refused as acausal by the last ulp
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            n = int(rng.integers(1, 51))
            a_max = 10 ** float(rng.uniform(3, 7)) * ANGSTROM
            (t,) = latest_retardation(n, a_max, OBS_X)
            trace = emission_sweep(
                symmetric_state(n), [a_max], 0.0, OBS_X, t, scales, 1.0
            )
            assert len(trace.table.rows) == 1

    def test_latest_retardation_of_the_largest_point_is_causal_for_the_grid(self, scales):
        # the CLI's default --time over a whole grid, in any order
        rng = np.random.default_rng(2025)
        for _ in range(300):
            n = int(rng.integers(1, 51))
            a_grid = 10 ** rng.uniform(3, 7, size=int(rng.integers(2, 30))) * ANGSTROM
            t = float(latest_retardation(n, a_grid, OBS_X).max())
            trace = emission_sweep(
                symmetric_state(n), a_grid, 0.0, OBS_X, t, scales, 1.0
            )
            assert len(trace.table.rows) == a_grid.size

    @pytest.mark.parametrize(
        "n, a_angstrom",
        [(2, [1e3, 1e5, 1e7]), (2, [1e7, 1e5, 1e3]), (5, [3e4]), (64, [2e3, 9e4, 5e3])],
        ids=["ascending", "descending", "one-point", "unordered"],
    )
    def test_default_time_is_the_latest_retardation(self, scales, n, a_angstrom):
        # t None writes the bytes of the grid's latest retardation given
        # explicitly, whatever the order of the grid
        a_grid = np.array(a_angstrom) * ANGSTROM
        t = float(latest_retardation(n, a_grid, OBS_X).max())

        def csv(t):
            return emission_sweep(
                alternating_state(n), a_grid, 0.3, OBS_X, t, scales, 1.0
            ).table.to_csv()

        assert csv(None) == csv(t)
        assert f"# t_s={t:.12g}\n" in csv(None)

    @pytest.mark.parametrize("a_angstrom", [math.nan, -1e4])
    def test_bad_last_point_refused_before_any_sum(self, scales, monkeypatch, a_angstrom):
        from chainrad import emission

        calls = []
        monkeypatch.setattr(
            emission, "_point_intensity", lambda *args: calls.append(args) or 0.0
        )
        a_grid = np.array([1e4, 1e5, a_angstrom]) * ANGSTROM
        with pytest.raises(ValueError, match="lattice constant"):
            emission_sweep(symmetric_state(2), a_grid, 0.0, OBS_X, T_OBS, scales, 1.0)
        assert calls == []

    @pytest.mark.parametrize(
        "n, a_angstrom, obs_x, t, error, text",
        [
            (10_000, [1e3] * 1001, OBS_X, T_OBS, ValueError,
             "emission over 1001 points at N=10000 needs about 1.00e+07 "
             "atom-points, over its budget of 1e+07; use fewer points or a "
             "shorter chain"),
            (2, [1e5, 5e6, 6e6], OBS_X, T_OBS, CausalityError,
             "grid point a=5e+06 A violates causality: t=6.671281903963041e-13 "
             "s < retardation 1.7008498304492985e-12 s"),
            (2, [1e4, math.nan], OBS_X, T_OBS, ValueError,
             "lattice constant must be finite and >= 0, got nan A"),
            (2, [1e4, -1e4], OBS_X, T_OBS, ValueError,
             "lattice constant must be finite and >= 0, got -10000 A"),
            (2, [1e4], 0.0, T_OBS, ValueError, "obs_x must be > 0, got 0 A"),
            (2, [1e4], math.inf, T_OBS, ValueError,
             "obs_x must be > 0 and finite, got inf A"),
            (2, [1e4], OBS_X, math.nan, ValueError,
             "observation time must be finite, got nan"),
            (2, [], OBS_X, T_OBS, ValueError, "empty lattice-constant grid"),
            (2, 1e4, OBS_X, T_OBS, ValueError,
             "the lattice-constant grid must be one-dimensional, got shape ()"),
            (2, [[1e4, 2e4]], OBS_X, T_OBS, ValueError,
             "the lattice-constant grid must be one-dimensional, got shape (1, 2)"),
        ],
        ids=["budget", "causality", "nan-a", "negative-a", "obs-x", "obs-x-inf", "time",
             "empty", "scalar", "two-dimensional"],
    )
    def test_refusal_text(self, scales, n, a_angstrom, obs_x, t, error, text):
        a_grid = np.array(a_angstrom, dtype=float) * ANGSTROM
        with pytest.raises(ValueError) as info:
            emission_sweep(symmetric_state(n), a_grid, 0.0, obs_x, t, scales, 1.0)
        assert type(info.value) is error
        assert str(info.value) == text

    @pytest.mark.parametrize("obs_x_angstrom", [1e-150, 1e170])
    def test_obs_x_out_of_square_range_is_a_non_finite_intensity(
        self, scales, obs_x_angstrom
    ):
        # amplitudes near 1/obs_x, or obs_x itself, overflow when squared:
        # the sweep's own refusal, not Python's errno text
        a_grid = np.array([1e3, 1e4]) * ANGSTROM
        obs_x = obs_x_angstrom * ANGSTROM
        with pytest.raises(OverflowError) as info:
            emission_sweep(symmetric_state(2), a_grid, 0.0, obs_x, None, scales, 1.0)
        assert str(info.value) == (
            f"the intensity at obs_x={obs_x_angstrom:.6g} A is not finite"
        )

    @pytest.mark.parametrize(
        "omega_a, obs_x_angstrom", [(None, 1e-300), (1e80, 1e6)],
        ids=["obs_x_squared_zero", "omega_a_fourth_overflows"],
    )
    def test_reference_intensity_refused_before_any_sum(
        self, scales, monkeypatch, omega_a, obs_x_angstrom
    ):
        # obs_x^2 underflows to 0 in the denominator, or omega_a^4 overflows:
        # I_0's own refusal, not Python's division or errno text
        from chainrad import emission

        if omega_a is not None:
            scales = scales._replace(omega_a=omega_a)
        obs_x = obs_x_angstrom * ANGSTROM
        text = f"the reference intensity at obs_x={obs_x_angstrom:.6g} A is not finite"
        with pytest.raises(OverflowError) as info:
            reference_intensity(scales, 1.0, obs_x)
        assert str(info.value) == text
        monkeypatch.setattr(emission, "_point_intensity", None)  # never reached
        a_grid = np.array([1e3, 1e4]) * ANGSTROM
        with pytest.raises(OverflowError) as info:
            emission_sweep(symmetric_state(2), a_grid, 0.0, obs_x, None, scales, 1.0)
        assert str(info.value) == text

    def test_reference_intensity_underflows_where_obs_x_squared_overflows(self, scales):
        assert reference_intensity(scales, 1.0, 1e170 * ANGSTROM) == 0.0

    @pytest.mark.parametrize("mu", [-1.0, 0.0, math.inf, math.nan])
    def test_dipole_refused_after_time_before_causality(self, scales, mu):
        # a finite t that violates causality: the dipole is checked first
        state, a_grid = symmetric_state(2), np.array([1e5, 5e6, 6e6]) * ANGSTROM
        with pytest.raises(ValueError) as info:
            emission_sweep(state, a_grid, 0.0, OBS_X, T_OBS, scales, mu)
        assert type(info.value) is ValueError
        assert str(info.value) == f"dipole moment must be finite and > 0, got {mu}"
        # and a non-finite t before it
        with pytest.raises(ValueError, match="observation time"):
            emission_sweep(state, a_grid, 0.0, OBS_X, math.nan, scales, mu)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused_before_any_sum(self, scales, monkeypatch, phi):
        # not blamed on obs_x as a non-finite intensity: the one angle rule
        # refuses it before the causality check and the sums
        from chainrad import emission

        calls = []
        monkeypatch.setattr(
            emission, "_point_intensity", lambda *args: calls.append(args) or 0.0
        )
        a_grid = np.array([1e5, 5e6, 6e6]) * ANGSTROM  # 6e6 A is acausal at T_OBS
        with pytest.raises(ValueError) as info:
            emission_sweep(symmetric_state(2), a_grid, phi, OBS_X, T_OBS, scales, 1.0)
        assert type(info.value) is ValueError
        assert str(info.value) == f"polarization angle must be finite, got phi={phi}"
        assert calls == []

    def test_independent_atom_regime_warns_nothing(self, scales):
        a_grid = np.array([1e3, 2e3]) * ANGSTROM  # q_a a ~ 0.5 and 1
        assert scales.q_a * a_grid[0] < 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = emission_sweep(
                symmetric_state(2), a_grid, 0.0, OBS_X, T_OBS, scales, 1.0
            )
        assert len(trace.table.rows) == 2

    def test_metadata_records_setup(self, scales):
        a_grid = np.array([1e4, 1e5]) * ANGSTROM
        trace = emission_sweep(
            alternating_state(2), a_grid, math.pi / 4, OBS_X, T_OBS, scales, 1.0
        )
        meta = trace.table.metadata
        assert meta["state"] == "+-"
        assert float(meta["phi_deg"]) == pytest.approx(45.0)
        assert float(meta["obs_x_angstrom"]) == pytest.approx(1e6)
        assert trace.reference_intensity == pytest.approx(
            reference_intensity(scales, 1.0, OBS_X), rel=1e-14
        )
