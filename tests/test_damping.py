import math
import tracemalloc
from itertools import product
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.integrate import quad

from chainrad import damping
from chainrad.cli import VERIFY_TOL
from chainrad.damping import (
    F_SERIES_THRESHOLD,
    QuadratureAccuracyError,
    _kernel_parts,
    _power_spectrum,
    angle_sweep,
    bond_autocorrelation,
    closed_form_rates,
    damping_general,
    f_kernel,
    n_scaling_sweep,
    quadrature_rates,
    relative_error,
    x_sweep,
)
from chainrad.scales import MAX_ATOMS
from chainrad.states import SignState, alternating_state, symmetric_state
from chainrad.sweeps import MAX_POINTS, linspace
from oracles import (
    closed_form_rates_mp,
    column,
    damping_autocorrelation_mp,
    damping_bond_count,
    damping_pairwise,
    damping_quad,
    golden_rule_integrand_per_term,
    kernel_minus_one,
    kernel_parts_reference,
    sign_coeffs,
    sign_states,
)

# fixed mixed-sign state for the oracle/closed-form cross-check
RANDOM_STATE_N7 = SignState(coeffs=(1, 1, -1, 1, -1, -1, 1))


# the grid `chainrad verify` runs every sign state on
VERIFY_X = (0.1, 0.5, 1.0, 3.0, 10.0)
VERIFY_PHI = (0.0, math.pi / 4, math.pi / 2)


#: The near-dark rows of the long-chain family that the closed form gets
#: wrong today, with their measured relative error against mpmath. The
#: Thue-Morse state of length 2^m has bond moments that vanish up to
#: order m, so its rate falls as x^(2m) while the bond sum cancels in
#: double precision.
LONG_CHAIN_KNOWN_DEFECTS = {
    ("tm", 16, 0.001): "1.0: the rate 7.8e-24 is written as 0",
    ("tm", 64, 0.001): "1.0: the rate 2.6e-31 is written as 0",
    ("tm", 256, 0.001): "5.8e16 off the rate 2.6e-36",
    ("tm", 1024, 0.001): "3.5e21 off the rate 7.3e-39",
    ("tm", 1024, 0.1): "1.5e-8 off the rate 5.6e-8, above VERIFY_TOL",
}


def long_chain_cases():
    """sym, alt, random and Thue-Morse states at N = 16 to 1024 on verify's
    x grid plus x = 0.001, the known defects marked strict xfail."""
    for kind in ("sym", "alt", "random", "tm"):
        for n in (16, 64, 256, 1024):
            for x in (0.001,) + VERIFY_X:
                defect = LONG_CHAIN_KNOWN_DEFECTS.get((kind, n, x))
                marks = [pytest.mark.xfail(strict=True, reason=defect)] if defect else []
                yield pytest.param(kind, n, x, marks=marks, id=f"{kind}-{n}-{x:g}")


def golden_rule_integrand(y, coeffs, x, cos2phi):
    """The oracle's integrand at one point y: its Horner power spectrum
    times the weight (1 + cos^2 phi) - (y^2/x^2)(3 cos^2 phi - 1)."""
    (((power,),),) = _power_spectrum(np.array([[y]]), np.array([coeffs], dtype=complex))
    return power * ((1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0))


def per_point_rate(state, x, phi):
    """The closed-form rate at one point, written out as
    (sum C)^2/N + 2 (1.5 (a S + b G))/N with the moments S = sum_k A_k s
    and G = sum_k A_k g of each bond's (s, g) = _kernel_parts(k x), summed
    one bond at a time, and (a, b) = (1 - cos^2 phi, 1 - 3 cos^2 phi)."""
    c2 = math.cos(phi) ** 2
    s_sum = g_sum = 0.0
    for k, a_k in enumerate(bond_autocorrelation(state), start=1):
        s, g = _kernel_parts(k * x)
        s_sum += a_k * s
        g_sum += a_k * g
    minus_one = 1.5 * ((1.0 - c2) * s_sum + (1.0 - 3.0 * c2) * g_sum)
    return float(sum(state.coeffs)) ** 2 / state.n + 2.0 * minus_one / state.n


class TestFKernel:
    def test_parallel_anchor(self):
        assert f_kernel(0.5, 0.0) == pytest.approx(0.9752, abs=5e-4)

    def test_perpendicular_anchor(self):
        assert f_kernel(0.5, math.pi / 2) == pytest.approx(0.9507, abs=5e-4)

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
    def test_zero_limit(self, phi):
        assert f_kernel(0.0, phi) == 1.0
        assert f_kernel(1e-6, phi) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("phi", [0.0, 0.6, math.pi / 2])
    def test_large_x_envelope(self, phi):
        bound = 1.5 * (1 + math.cos(phi) ** 2)
        for x in (20.0, 80.0, 300.0):
            assert abs(f_kernel(x, phi)) <= bound / x * (1 + 1e-12)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            f_kernel(-0.1, 0.0)

    @pytest.mark.parametrize("x", [0.01, 0.7, 1.4999, 1.5, 4.0, 37.0])
    def test_bond_kernels_match_one_bond_kernel(self, x):
        # an A_k whose only bond is of length k sums just that bond's F - 1
        phis = [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2]
        for k in range(1, 12):
            (rates,) = closed_form_rates([[0] * (k - 1) + [1]], x, phis)
            assert rates == [
                (k + 3) / (k + 1) + 2.0 * kernel_minus_one(k * x, p) / (k + 1)
                for p in phis
            ]
            # and f_kernel, figure 5's F, is that bond's 1 + (F - 1)
            assert [f_kernel(k * x, p) for p in phis] == [
                1.0 + kernel_minus_one(k * x, p) for p in phis
            ]

    def test_series_direct_agreement_at_threshold(self):
        x0 = F_SERIES_THRESHOLD
        below = x0 * (1 - 1e-15)  # series branch
        s, g = _kernel_parts(below)
        assert s == pytest.approx(math.sin(x0) / x0 - 1.0, rel=1e-10)
        assert g == pytest.approx(
            math.cos(x0) / x0**2 - math.sin(x0) / x0**3 + 1.0 / 3.0, rel=1e-10
        )
        assert _kernel_parts(x0) == (
            math.sin(x0) / x0 - 1.0,
            math.cos(x0) / x0**2 - math.sin(x0) / x0**3 + 1.0 / 3.0,
        )

    def test_kernel_parts_bitwise_equal_to_reference(self):
        # log-uniform x down to 1e-300, the bonds k x that rates_scaling
        # sums on both branches, and the threshold with its neighbours
        rng = np.random.default_rng(0)
        top = math.log10(F_SERIES_THRESHOLD)
        xs = (10.0 ** rng.uniform(-300.0, top, 10**5)).tolist()
        xs += [k * 0.001 for k in range(1, 1500)] + [k * 0.5 for k in range(1, 1000)]
        x0 = F_SERIES_THRESHOLD
        xs += [math.nextafter(x0, 0.0), x0, math.nextafter(x0, math.inf)]
        mismatches = [x for x in xs if _kernel_parts(x) != kernel_parts_reference(x)]
        assert mismatches == []

    @pytest.mark.parametrize("x", [0.3, 1.0, 4.0])
    @pytest.mark.parametrize("phi", [0.0, 0.9, math.pi / 2])
    def test_golden_rule_integral_identity(self, x, phi):
        # F(x) is the normalized single-bond cosine moment of the
        # golden-rule angular integrand
        c2 = math.cos(phi) ** 2

        def integrand(y):
            return math.cos(y) * ((1 + c2) - (y * y) / (x * x) * (3 * c2 - 1))

        val, _ = quad(integrand, -x, x, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert f_kernel(x, phi) == pytest.approx(3.0 / (8.0 * x) * val, abs=1e-9)


class TestClosedForms:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    def test_small_n_specializations(self, x, phi):
        f1 = f_kernel(x, phi)
        f2 = f_kernel(2 * x, phi)
        assert damping_general(symmetric_state(1), x, phi).rate_ratio == 1.0
        assert damping_general(symmetric_state(2), x, phi).rate_ratio == pytest.approx(
            1.0 + f1, rel=1e-12
        )
        assert damping_general(symmetric_state(3), x, phi).rate_ratio == pytest.approx(
            1.0 + (2.0 / 3.0) * (2 * f1 + f2), rel=1e-12
        )

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 5.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    def test_antisymmetric_specializations(self, x, phi):
        f1 = f_kernel(x, phi)
        f2 = f_kernel(2 * x, phi)
        assert damping_general(alternating_state(2), x, phi).rate_ratio == pytest.approx(
            1.0 - f1, rel=1e-12
        )
        assert damping_general(alternating_state(3), x, phi).rate_ratio == pytest.approx(
            1.0 - (2.0 / 3.0) * (2 * f1 - f2), rel=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_all_plus_matches_symmetric(self, n):
        for x in (0.3, 2.0):
            assert damping_general(symmetric_state(n), x, 0.4).rate_ratio == pytest.approx(
                damping_bond_count(n, x, 0.4), rel=1e-13
            )

    def test_superradiant_limit(self):
        for n in (2, 10, 50):
            ratio = damping_general(symmetric_state(n), 1e-4, 0.0).rate_ratio
            assert 0.999 <= ratio / n <= 1.0
        # looser bound survives up to x = 1e-3
        assert 0.99 <= damping_general(symmetric_state(50), 1e-3, 0.0).rate_ratio / 50 <= 1.0

    def test_dark_state_limit(self):
        assert damping_general(alternating_state(2), 1e-6, 0.0).rate_ratio <= 1e-6

    def test_metastable_trimer_limit(self):
        ratio = damping_general(alternating_state(3), 1e-4, 0.0).rate_ratio
        assert ratio == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_rate_never_negative(self):
        for state in sign_states(5):
            for x in (0.1, 0.5, 1.0, 3.0, 10.0):
                for phi in (0.0, math.pi / 4, math.pi / 2):
                    assert damping_general(state, x, phi).rate_ratio >= 0.0

    def test_zero_separation_rejected(self):
        with pytest.raises(ValueError):
            damping_general(symmetric_state(3), 0.0, 0.0)
        with pytest.raises(ValueError):
            damping_general(symmetric_state(2), -1.0, 0.0)


class TestAutocorrelationForm:
    @pytest.mark.parametrize("kind", ["sym", "alt", "random"])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 200])
    @pytest.mark.parametrize("x", [0.001, 0.5, 5.0])
    def test_matches_pairwise_oracle(self, kind, n, x):
        coeffs = sign_coeffs(kind, n)
        for phi in (0.0, 0.7, math.pi / 2):
            got = damping_general(SignState(coeffs), x, phi).rate_ratio
            want = damping_pairwise(coeffs, x, phi)
            assert abs(got - want) <= 1e-12 * abs(want), (phi, got, want)

    @pytest.mark.parametrize("phi", [0.0, 0.7, math.pi / 2])
    def test_near_dark_large_chain_matches_mpmath(self, phi):
        # alt N = 1000 at x = 0.001: the rate (~5e-5 to ~1e-4) is what is
        # left after the bond sum cancels ~4 orders of magnitude
        state = alternating_state(1000)
        got = damping_general(state, 0.001, phi).rate_ratio
        want = damping_autocorrelation_mp(state.coeffs, 0.001, phi)
        assert 4e-5 < want < 1e-4
        assert abs(got - want) <= 1e-11 * want

    def test_long_symmetric_angle_sweep_matches_mpmath(self):
        # N = 10^4 at x = 0.1 over 181 angles: one pair of moments keeps
        # every angle within 2.5e-12 of a 40-digit value
        n, x = 10_000, 0.1
        grid = [math.radians(d) for d in linspace(0.0, 90.0, 181)]
        rates = [row[1] for row in angle_sweep(n, x, grid).rows]
        want = closed_form_rates_mp(n, range(n - 1, 0, -1), x, grid)
        for phi, got, ref in zip(grid, rates, want):
            assert abs(got - ref) <= 2.5e-12 * ref, (phi, got, ref)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coeffs=st.lists(st.sampled_from([1, -1]), min_size=1, max_size=1000))
    def test_bitmask_autocorrelation_matches_numpy(self, coeffs):
        c = np.array(coeffs)
        want = np.correlate(c, c, "full")[len(coeffs):].tolist()
        assert bond_autocorrelation(SignState(tuple(coeffs))) == want


class TestLongChainAccuracy:
    """Past verify's N <= 12, where subradiant states live: every rate of
    the family within VERIFY_TOL of an 80-digit reference (80 and 110
    digits agree to 1e-37 or better on every row)."""

    @pytest.mark.parametrize("kind, n, x", long_chain_cases())
    def test_matches_mpmath(self, kind, n, x):
        coeffs = sign_coeffs(kind, n)
        autocorr = bond_autocorrelation(SignState(coeffs))
        (got,) = closed_form_rates((autocorr,), x, VERIFY_PHI)
        want = closed_form_rates_mp(sum(coeffs), autocorr, x, VERIFY_PHI, dps=80)
        for phi, rate, ref in zip(VERIFY_PHI, got, want):
            assert abs(rate - float(ref)) <= VERIFY_TOL * float(ref), (phi, rate, ref)


def oracle_rate(state, x, phi):
    """The quadrature oracle's rate of one state at one phi."""
    return quadrature_rates([state], x, [phi])[0][0]


class TestQuadratureOracle:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("phi", [0.0, 1.0])
    def test_single_atom_normalization(self, x, phi):
        assert oracle_rate(symmetric_state(1), x, phi) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_pair_anchor(self):
        assert oracle_rate(symmetric_state(2), 0.5, 0.0) == pytest.approx(
            1.0 + 0.9752, abs=1e-4
        )

    def test_matches_closed_form_on_mixed_state(self):
        cf = damping_general(RANDOM_STATE_N7, 1.3, 0.7).rate_ratio
        qd = oracle_rate(RANDOM_STATE_N7, 1.3, 0.7)
        assert abs(cf - qd) / abs(cf) <= 1e-8

    def test_equivalence_sample(self):
        for state in sign_states(4):
            for x in (0.1, 1.0, 10.0):
                cf = damping_general(state, x, 0.3).rate_ratio
                qd = oracle_rate(state, x, 0.3)
                assert abs(cf - qd) / max(abs(cf), abs(qd)) <= 1e-8

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(damping, "ORACLE_TOL", 1e-30)
        with pytest.raises(QuadratureAccuracyError) as info:
            oracle_rate(RANDOM_STATE_N7, 1.3, 0.7)
        assert info.value.requested == 1e-30
        assert info.value.achieved > 1e-30
        # the error still carries a usable estimate
        assert info.value.estimate == pytest.approx(0.5665718598084711, rel=1e-6)

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_long_chains_match_closed_form(self, n, x):
        # past verify's N <= 12: the oracle integrates |P|^2 and shares no
        # bond term with the closed form (worst seen 9.1e-12 at N = 1000)
        states = [SignState(sign_coeffs(kind, n)) for kind in ("sym", "alt", "random")]
        phis = [0.0, math.pi / 2]
        closed = closed_form_rates([bond_autocorrelation(s) for s in states], x, phis)
        assert relative_error(closed, quadrature_rates(states, x, phis)) <= VERIFY_TOL

    @pytest.mark.parametrize("kind", ["sym", "alt", "random"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("x", [0.1, 3.0, 10.0])
    def test_horner_integrand_matches_per_term_form(self, kind, n, x):
        coeffs = sign_coeffs(kind, n)
        for cos2phi in (0.0, 0.5, 1.0):
            for y in np.linspace(0.0, x, 97):
                got = golden_rule_integrand(float(y), coeffs, x, cos2phi)
                want = golden_rule_integrand_per_term(float(y), coeffs, x, cos2phi)
                assert abs(got - want) <= 1e-14 * n * n, (y, got, want)

    @pytest.mark.parametrize("kind", ["sym", "alt", "random"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("x", [0.1, 3.0, 10.0, 40.0])
    def test_gauss_legendre_matches_adaptive_quadrature(self, kind, n, x):
        coeffs = sign_coeffs(kind, n)
        for phi in (0.0, 0.7, math.pi / 2):
            got = oracle_rate(SignState(coeffs), x, phi)
            want = damping_quad(coeffs, x, phi)
            assert abs(got - want) <= 1e-12 * abs(want), (phi, got, want)

    def test_blocks_cover_every_panel(self, monkeypatch):
        # 47 panels at N = 7, x = 40; blocks of 5 leave a partial last one
        state = SignState(sign_coeffs("random", 7))
        whole = oracle_rate(state, 40.0, 0.7)
        monkeypatch.setattr(damping, "ORACLE_BLOCK_PANELS", 5)
        blocked = oracle_rate(state, 40.0, 0.7)
        assert abs(blocked - whole) <= 1e-14 * whole

    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, math.pi / 2])
    def test_matches_mpmath_at_verify_worst_point(self, phi):
        # +--+-++- at x = 0.1 is verify's worst row: a rate of ~1e-6 that
        # the closed form reaches only to ~6e-12 (it cancels ~1e4 there)
        state = SignState((1, -1, -1, 1, -1, 1, 1, -1))
        got = oracle_rate(state, 0.1, phi)
        want = damping_autocorrelation_mp(state.coeffs, 0.1, phi)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_mpmath_on_verify_grid(self, n):
        # the half with C_1 = +1 that verify integrates, at 50 digits
        states = [SignState((1, *rest)) for rest in product((1, -1), repeat=n - 1)]
        for x in VERIFY_X:
            for state, row in zip(states, quadrature_rates(states, x, VERIFY_PHI)):
                want = closed_form_rates_mp(
                    sum(state.coeffs), bond_autocorrelation(state), x, VERIFY_PHI, dps=50
                )
                for phi, got, ref in zip(VERIFY_PHI, row, want):
                    assert abs(got - float(ref)) <= 1e-14 * float(ref), (state, x, phi)

    @pytest.mark.parametrize("n", [7, 64])
    def test_horner_integrand_matches_mpmath_at_large_y(self, n):
        # past y ~ 10 the per-term form's phases (k + 1) y carry rounding
        # of order n y eps, and at n = 64 it drifts from the exact value by
        # ~3e-11; Horner's rule stays within 1e-14 n^2
        coeffs = sign_coeffs("random", n)
        x, cos2phi = 40.0, 0.5
        for y in np.linspace(0.0, x, 33):
            y = float(y)
            with mp.workdps(40):
                amp = sum(c * mp.expj((k + 1) * mpf(y)) for k, c in enumerate(coeffs))
                weight = (1 + mpf(cos2phi)) - mpf(y) ** 2 / mpf(x) ** 2 * (
                    3 * mpf(cos2phi) - 1
                )
                want = float(abs(amp) ** 2 * weight)
            got = golden_rule_integrand(y, coeffs, x, cos2phi)
            assert abs(got - want) <= 1e-14 * n * n, (y, got, want)


class TestSignFlip:
    """C and -C share A_k, and the oracle integrand only flips the sign of
    its real and imaginary parts, so both rates are bitwise equal."""

    @pytest.mark.parametrize("x, phi", [(0.5, 0.0), (3.0, math.pi / 4)])
    def test_rates_bitwise_equal(self, x, phi):
        for n in range(1, 6):
            for state in sign_states(n):
                flipped = SignState(tuple(-c for c in state.coeffs))
                closed = [damping_general(c, x, phi).rate_ratio for c in (state, flipped)]
                quads = [oracle_rate(c, x, phi) for c in (state, flipped)]
                assert closed[0] == closed[1], ("closed form", state)
                assert quads[0] == quads[1], ("quadrature", state)


class TestBatchedOracle:
    """quadrature_rates over many states gives each state bitwise the rate
    that it gives the state alone, at one phi."""

    @staticmethod
    def one_by_one(states, x):
        return [
            [oracle_rate(state, x, phi) for phi in VERIFY_PHI]
            for state in states
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_equals_per_state_loop(self, n):
        states = sign_states(n)
        for x in VERIFY_X:
            assert quadrature_rates(states, x, VERIFY_PHI) == self.one_by_one(states, x), x

    @pytest.mark.parametrize("n", [5, 6])
    def test_partial_last_block(self, n, monkeypatch):
        # 3 state-panels per block: at one panel per state (x <= 1) the
        # 2^n states leave a partial last block, and at x = 10 (9 or 10
        # panels) each state's panels are split over blocks of 3
        monkeypatch.setattr(damping, "ORACLE_BLOCK_PANELS", 3)
        states = sign_states(n)
        assert len(states) % 3 != 0
        for x in VERIFY_X:
            assert quadrature_rates(states, x, VERIFY_PHI) == self.one_by_one(states, x), x

    def test_small_blocks_agree_with_default(self, monkeypatch):
        states = sign_states(6)
        whole = quadrature_rates(states, 10.0, VERIFY_PHI)
        monkeypatch.setattr(damping, "ORACLE_BLOCK_PANELS", 3)
        blocked = quadrature_rates(states, 10.0, VERIFY_PHI)
        for got, want in zip(np.ravel(blocked), np.ravel(whole)):
            assert abs(got - want) <= 1e-14 * want

    def test_error_names_the_failing_point(self, monkeypatch):
        states = [RANDOM_STATE_N7, symmetric_state(7)]
        monkeypatch.setattr(damping, "ORACLE_TOL", 1e-30)
        with pytest.raises(QuadratureAccuracyError) as info:
            quadrature_rates(states, 1.3, [0.7, 0.2])
        # the first state and phi in order
        assert (info.value.state, info.value.x, info.value.phi) == (RANDOM_STATE_N7, 1.3, 0.7)
        assert "state ++-+--+, x=1.3, phi=0.7" in str(info.value)

    def test_generator_batch_gives_the_list_batch_rows(self):
        # the batch is read once, like closed_form_rates' batch
        states = sign_states(4)
        rows = quadrature_rates(states, 1.3, VERIFY_PHI)
        assert quadrature_rates((s for s in states), 1.3, VERIFY_PHI) == rows != []

    def test_iterator_of_angles_names_the_failing_angle(self, monkeypatch):
        monkeypatch.setattr(damping, "ORACLE_TOL", 1e-30)
        with pytest.raises(QuadratureAccuracyError) as info:
            quadrature_rates([RANDOM_STATE_N7], 1.3, iter([0.7, 0.2]))
        assert (info.value.state, info.value.x, info.value.phi) == (RANDOM_STATE_N7, 1.3, 0.7)

    @pytest.mark.parametrize("x", VERIFY_X)
    def test_phi_alone_equals_phi_in_a_long_list(self, x):
        # each phi is formed from the same two phi-free moments
        states = sign_states(4)
        phis = linspace(0.0, math.pi, 100)
        batched = quadrature_rates(states, x, phis)
        for j, phi in enumerate(phis):
            alone = quadrature_rates(states, x, [phi])
            assert [[row[j]] for row in batched] == alone, phi

    def test_states_of_one_batch_share_a_length(self):
        with pytest.raises(ValueError):
            quadrature_rates([symmetric_state(2), symmetric_state(3)], 1.0, [0.0])

    def test_empty_batch_is_no_rows(self):
        # one list per state: no states, no lists
        assert quadrature_rates([], 0.5, [0.0, math.pi / 2]) == []

    @pytest.mark.parametrize("x", [1e-300, 1e-310])
    def test_non_finite_result_raises_without_warning(self, x):
        # x^2 underflows to zero, so the angular weight divides by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="not finite"):
                quadrature_rates([symmetric_state(2)], x, [0.0, math.pi / 2])


class TestClosedFormRates:
    """closed_form_rates over many states gives each state bitwise the rate
    that damping_general gives it alone."""

    @staticmethod
    def batch(states, x, phis=VERIFY_PHI):
        autocorrs = [bond_autocorrelation(state) for state in states]
        return closed_form_rates(autocorrs, x, phis)

    @staticmethod
    def one_by_one(states, x):
        return [
            [damping_general(state, x, phi).rate_ratio for phi in VERIFY_PHI]
            for state in states
        ]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_batch_equals_one_state_calls(self, n):
        states = sign_states(n)
        for x in VERIFY_X:
            assert self.batch(states, x) == self.one_by_one(states, x), x

    def test_empty_batch_is_no_rows(self):
        assert closed_form_rates([], 0.5, [0.0, math.pi / 2]) == []

    def test_generator_batch_equals_list_batch(self):
        # the batch is read once, so a generator gives every row too
        states = [s for n in (3, 6, 1, 2, 5, 4) for s in sign_states(n)]
        for x in VERIFY_X:
            autocorrs = (bond_autocorrelation(state) for state in states)
            assert closed_form_rates(autocorrs, x, VERIFY_PHI) == self.batch(states, x), x

    def test_mixed_lengths_share_the_longest_kernel(self):
        # each state reads only its own N - 1 bonds of the shared kernel
        states = [s for n in (3, 6, 1, 2, 5, 4) for s in sign_states(n)]
        for x in VERIFY_X:
            assert self.batch(states, x) == self.one_by_one(states, x), x

    @pytest.mark.parametrize("x", VERIFY_X)
    def test_phi_alone_equals_phi_in_a_long_list(self, x):
        states = sign_states(4)
        phis = linspace(0.0, math.pi, 100)
        batched = self.batch(states, x, phis)
        for j, phi in enumerate(phis):
            assert [[row[j]] for row in batched] == self.batch(states, x, [phi]), phi

    @pytest.mark.parametrize("n_phi", [1, 1000])
    def test_one_moment_pass_per_x(self, monkeypatch, n_phi):
        # the kernel's series are evaluated once per bond of the longest
        # chain, whatever the number of states or polarizations
        calls = []
        kernel_parts = damping._kernel_parts
        monkeypatch.setattr(
            damping, "_kernel_parts", lambda x: calls.append(x) or kernel_parts(x)
        )
        states = [symmetric_state(50), alternating_state(200), RANDOM_STATE_N7]
        phis = linspace(0.0, math.pi / 2, n_phi)
        for x in (0.01, 0.5, 5.0):
            calls.clear()
            rates = self.batch(states, x, phis)
            assert len(calls) == 199
            assert [len(row) for row in rates] == [n_phi] * len(states)
        calls.clear()
        x_sweep(alternating_state(200), 0.01, 5.0, 7, phis)
        assert len(calls) == 7 * 199

    # N + 2 sum_k A_k = (sum C)^2 in exact integers below 2^53, so the
    # constant part (N + 2 sum_k A_k)/N is bitwise float(sum C)^2/N
    @pytest.mark.parametrize("n", range(1, 11))
    def test_constant_part_of_every_state_is_its_squared_sum(self, n):
        for state in sign_states(n):
            autocorr, total = bond_autocorrelation(state), sum(state.coeffs)
            assert n + 2 * sum(autocorr) == total**2, state
            assert (n + 2 * sum(autocorr)) / n == float(total) ** 2 / n, state

    @pytest.mark.parametrize("kind", ["sym", "alt", "random", "tm"])
    @pytest.mark.parametrize("n", [16, 64, 999, 1024, 4097, MAX_ATOMS])
    def test_constant_part_of_long_chains_is_their_squared_sum(self, kind, n):
        coeffs = sign_coeffs(kind, n)
        autocorr, total = bond_autocorrelation(SignState(coeffs)), sum(coeffs)
        assert n + 2 * sum(autocorr) == total**2
        assert (n + 2 * sum(autocorr)) / n == float(total) ** 2 / n

    def test_roundoff_below_zero_is_clamped(self):
        # Thue-Morse at N = 16 has sum C = 0 and bond moments that vanish
        # to x^8: at x = 0.001 its bond sum rounds to about -9.5e-22
        autocorr = bond_autocorrelation(SignState(sign_coeffs("tm", 16)))
        assert closed_form_rates([autocorr], 0.001, [0.0]) == [[0.0]]
        # A_k = (-3, 1, 0) is no sign state: N + 2 sum A_k = 0, and at
        # phi = 0 its rate is -6 G/4 = -x^2/20 to leading order
        for x in (1e-6, math.sqrt(1e-11), math.sqrt(2e-11) * (1 - 1e-6)):
            assert closed_form_rates([[-3, 1, 0]], x, [0.0]) == [[0.0]], x

    def test_negative_rate_rejected(self):
        for x in (0.01, math.sqrt(4e-11), math.sqrt(2e-11) * (1 + 1e-6)):
            with pytest.raises(ValueError, match="negative decay rate"):
                closed_form_rates([[-3, 1, 0]], x, [0.0])

    def test_negative_rate_refused(self):
        # A_1 = -5 is no sign state: its constant part is (2 - 10)/2
        with pytest.raises(ValueError, match="negative decay rate"):
            closed_form_rates([[-5]], 1.0, [0.0])

    def test_zero_separation_rejected_by_every_caller(self):
        state = symmetric_state(3)
        with pytest.raises(ValueError, match="separation must be > 0"):
            closed_form_rates([[2, 1]], 0.0, [0.0])
        with pytest.raises(ValueError, match="separation must be > 0"):
            n_scaling_sweep(3, 0.0, [0.0])
        with pytest.raises(ValueError, match="separation must be > 0"):
            angle_sweep(3, 0.0, [0.0])
        with pytest.raises(ValueError, match="separation must be > 0"):
            damping_general(state, 0.0, 0.0)
        with pytest.raises(ValueError, match="x_min"):
            x_sweep(state, 0.0, 1.0, 5, [0.0])


class TestSignAverage:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mean_rate_is_unity(self, n):
        rates = [
            damping_general(s, 0.7, math.radians(30)).rate_ratio
            for s in sign_states(n)
        ]
        assert sum(rates) / len(rates) == pytest.approx(1.0, abs=1e-12)


class TestContinuumLimit:
    """|P|^2/N tends to 2 pi sum_m delta(y - 2 pi m), and for x < 2 pi only
    the m = 0 term lies in the golden-rule integral's window |y| <= x, so
    the symmetric rate tends to L = 3 pi (1 + cos^2 phi) / (4 x), with an
    error that falls as 1/N."""

    @pytest.mark.parametrize("x", [1.0, 3.0])
    def test_symmetric_rate_settles_on_the_law(self, x):
        # N (Gamma_N - L) at phi = 0 moved by at most 5.5e-4 from N = 10^2
        # to 10^4 (x = 1: -5.83108, -5.83163, -5.83164; x = 3: -0.48221)
        limit = 3.0 * math.pi * 2.0 / (4.0 * x)

        def scaled_error(n):
            return n * (damping_general(symmetric_state(n), x, 0.0).rate_ratio - limit)

        settled = scaled_error(100)
        for n in (1000, 10_000):
            assert abs(scaled_error(n) - settled) <= 1e-3, n


class TestSweeps:
    def test_nscaling_linear_growth(self):
        table = n_scaling_sweep(20, 0.001, [0.0])
        gammas = column(table, "gamma_phi0")
        assert np.allclose(gammas, np.arange(1, 21), rtol=1e-3)

    @pytest.mark.parametrize("x", [0.001, 0.1, 1.0])
    def test_nscaling_rows_equal_damping_general(self, x):
        # on a 64-atom chain, x = 0.001 keeps every bond on the kernel's
        # series branch; x = 0.1 crosses to the direct one at k = 15, 1.0 at 2
        phis = [0.0, math.pi / 2]
        table = n_scaling_sweep(64, x, phis)
        for n, *rates in table.rows:
            assert rates == [
                damping_general(symmetric_state(n), x, p).rate_ratio for p in phis
            ], n

    def test_nscaling_plateau_reached_faster_at_larger_x(self):
        small_x = column(n_scaling_sweep(100, 0.001, [0.0]), "gamma_phi0")
        large_x = column(n_scaling_sweep(100, 1.0, [0.0]), "gamma_phi0")
        # saturation measured by how close N=20 is to the N=100 value
        assert large_x[19] / large_x[99] > small_x[19] / small_x[99]

    def test_nscaling_decoupled_at_large_x(self):
        table = n_scaling_sweep(30, 30.0, [0.0, math.pi / 2])
        for name in ("gamma_phi0", "gamma_phi90"):
            assert np.all(np.abs(column(table, name) - 1.0) < 0.2)

    def test_angle_sweep_polarization_gap(self):
        grid = np.radians(np.linspace(0, 90, 19))
        table = angle_sweep(100, 0.1, grid)
        gammas = column(table, "gamma")
        assert abs(gammas[0] - gammas[-1]) > 0.1 * max(gammas[0], gammas[-1])

    def test_angle_sweep_flat_for_single_atom(self):
        table = angle_sweep(1, 0.5, np.radians(np.linspace(0, 90, 7)))
        assert np.all(column(table, "gamma") == 1.0)

    def test_angle_sweep_supplementary_symmetry(self):
        grid = [0.3, math.pi - 0.3]
        table = angle_sweep(5, 0.5, grid)
        gammas = column(table, "gamma")
        assert gammas[0] == pytest.approx(gammas[1], rel=1e-13)

    def test_angle_sweep_bitwise_per_point(self):
        grid = [math.radians(d) for d in linspace(0.0, 90.0, 181)]
        state = symmetric_state(100)
        rates = [row[1] for row in angle_sweep(100, 0.1, grid).rows]
        assert rates == [per_point_rate(state, 0.1, p) for p in grid]

    def test_angle_sweep_holds_one_kernel_row(self):
        # a kernel list per angle would be about 64 MB here; one (s, g)
        # pair per bond, shared by every angle, keeps the traced peak to a
        # few hundred kB
        grid = [math.radians(d) for d in linspace(0.0, 90.0, 1000)]
        tracemalloc.start()
        try:
            angle_sweep(2000, 0.1, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_x_sweep_one_point_grid_is_x_min(self):
        state = alternating_state(3)
        (row,) = x_sweep(state, 0.5, 2.0, 1, [0.0]).rows
        assert row == (0.5, per_point_rate(state, 0.5, 0.0))
        with pytest.raises(ValueError, match="a grid takes 1..100000 points, got 0"):
            x_sweep(state, 0.5, 2.0, 0, [0.0])

    def test_x_sweep_bitwise_per_point(self):
        state = SignState(sign_coeffs("random", 9))
        phis = [0.0, math.pi / 2]
        for x, *rates in x_sweep(state, 0.01, 20.0, 200, phis).rows:
            assert rates == [per_point_rate(state, x, p) for p in phis], x

    @pytest.mark.parametrize("x", [0.001, 0.1, 1.0])
    def test_nscaling_bitwise_per_point(self, x):
        phis = [0.0, math.pi / 2]
        for n, *rates in n_scaling_sweep(64, x, phis).rows:
            assert rates == [per_point_rate(symmetric_state(n), x, p) for p in phis], n

    def test_x_sweep_oracle_over_budget_refused(self, monkeypatch):
        calls = []
        monkeypatch.setattr(damping, "quadrature_rates", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="budget"):
            x_sweep(symmetric_state(2), 0.01, 1e6, 1000, [0.0], oracle=True)
        with pytest.raises(ValueError, match="budget"):
            x_sweep(alternating_state(10_000), 0.01, 20.0, 1000, [0.0], oracle=True)
        # an inf work estimate is over budget too, not an OverflowError
        with pytest.raises(ValueError, match="budget"):
            x_sweep(symmetric_state(2), 0.01, 1e308, 3, [0.0], oracle=True)
        assert calls == []
        # without the oracle the same grids are cheap and run
        assert len(x_sweep(symmetric_state(2), 0.01, 1e6, 1000, [0.0]).rows) == 1000

    def test_closed_form_over_budget_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(damping, "closed_form_rates", None)  # never reached
        with pytest.raises(ValueError, match="100000 points at N=10000 .* 1.00e\\+09"):
            x_sweep(symmetric_state(10_000), 0.01, 20.0, 100_000, [0.0])
        # angle and n-scaling sweeps have no budget of their own: a chain
        # longer than MAX_ATOMS is refused by its length, and a length is
        # read by ChainConfig's n_atoms rule
        for n in (0, 2.5, MAX_ATOMS + 1):
            whole = f"must be a whole number in 1..{MAX_ATOMS}, got {n}"
            with pytest.raises(ValueError) as info:
                angle_sweep(n, 0.1, [0.0])
            assert str(info.value) == f"n {whole}"
            with pytest.raises(ValueError) as info:
                n_scaling_sweep(n, 0.1, [0.0])
            assert str(info.value) == f"n_max {whole}"
        # a bool is no chain length, though Python would take it as 1
        for sweep, key in ((angle_sweep, "n"), (n_scaling_sweep, "n_max")):
            with pytest.raises(ValueError) as info:
                sweep(True, 0.1, [0.0])
            assert str(info.value) == f"{key} must be a number, got True"

    def test_whole_float_chain_length_is_its_int(self):
        # 5.0 is N = 5, as ChainConfig reads n_atoms
        assert angle_sweep(5.0, 0.1, [0.0, 1.0]).rows == angle_sweep(5, 0.1, [0.0, 1.0]).rows
        table = n_scaling_sweep(3.0, 0.1, [0.0])
        assert table.rows == n_scaling_sweep(3, 0.1, [0.0]).rows
        assert [type(row[0]) for row in table.rows] == [int, int, int]

    @pytest.mark.parametrize("oracle", [False, True], ids=["closed_form", "oracle"])
    def test_x_sweep_over_budget_refused_before_its_grid(self, oracle):
        # 10^6 points are over MAX_POINTS, with or without the oracle: the
        # grid builder refuses them before a grid of 10^6 floats (about
        # 32 MB) is built, and before any budget is counted
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="a grid takes 1..100000 points, got 1000000"):
                x_sweep(symmetric_state(1000), 0.01, 20.0, 10**6, [0.0], oracle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize(
        "sweep, args, text",
        [
            (x_sweep, (symmetric_state(2), 0.01, 1e6, 1000, [0.0], True),
             "the quadrature oracle over 1000 points up to x=1e+06 at N=2 needs "
             "about 1.33e+10 Horner steps, over its budget of 1e+09; use fewer "
             "points, a smaller x range or a shorter chain"),
            (x_sweep, (alternating_state(10_001), 0.01, 20.0, 10_001, [0.0, 1.0]),
             "the closed form over 10001 points at N=10001 needs about 1.00e+08 "
             "bond terms, over its budget of 1e+08; use fewer points or a "
             "shorter chain"),
            # a chain over MAX_ATOMS is refused by its length, not a budget
            (angle_sweep, (MAX_ATOMS + 1, 0.1, [0.0] * 10),
             "n must be a whole number in 1..10000, got 10001"),
            (n_scaling_sweep, (MAX_ATOMS + 1, 0.1, [0.0, 1.0]),
             "n_max must be a whole number in 1..10000, got 10001"),
            # the O(N^2) correlation bounds every rate of a given state:
            # one point of an x sweep is no way round it
            (damping_general, (alternating_state(MAX_ATOMS + 1), 0.5, 0.0),
             "n must be in 1..10000, got 10001"),
            (x_sweep, (alternating_state(MAX_ATOMS + 1), 0.01, 20.0, 1, [0.0]),
             "n must be in 1..10000, got 10001"),
        ],
        ids=["oracle", "x", "angles", "nscaling", "damping_general", "x_long_chain"],
    )
    def test_budget_refusal_text(self, monkeypatch, sweep, args, text):
        monkeypatch.setattr(damping, "quadrature_rates", None)  # never reached
        monkeypatch.setattr(damping, "closed_form_rates", None)
        with pytest.raises(ValueError) as info:
            sweep(*args)
        assert str(info.value) == text

    def test_closed_form_at_budget_runs(self, monkeypatch):
        # the budget itself is accepted, and so is a MAX_ATOMS chain; a
        # stand-in for the sum (seconds to minutes of work) keeps the test fast
        monkeypatch.setattr(
            damping, "closed_form_rates",
            lambda autocorrs, x, phis: [[1.0] * len(phis) for _ in autocorrs],
        )
        # polarizations add no bond terms: each x sums its two moments once
        # for every phi. From x = 1.5 on, no bond is on the kernel's series
        # branch, which would weigh 10 terms: MAX_POINTS points at N = 1001
        # are exactly 10^8 terms
        phis = [0.0, 1.0]
        table = x_sweep(symmetric_state(1001), 1.5, 20.0, MAX_POINTS, phis)
        assert len(table.rows) == MAX_POINTS
        assert len(angle_sweep(MAX_ATOMS, 0.1, [0.0] * 10_000).rows) == 10_000
        assert len(n_scaling_sweep(MAX_ATOMS, 0.1, phis).rows) == MAX_ATOMS

    def test_x_sweep_oracle_columns_and_footer(self):
        table = x_sweep(alternating_state(2), 0.5, 2.0, 4, [0.0], oracle=True)
        assert "gamma_quadrature_phi0" in table.columns
        closed = column(table, "gamma_phi0")
        quads = column(table, "gamma_quadrature_phi0")
        assert np.allclose(closed, quads, rtol=1e-8)
        assert len(table.footer) == 1 and table.footer[0].startswith("max_rel_err=")


class TestNonFiniteInputs:
    """A separation or angle that is nan or inf is refused with ValueError
    before any work, not returned as nan or failed deeper down."""

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_bond_length(self, x):
        with pytest.raises(ValueError) as info:
            f_kernel(x, 0.0)
        assert str(info.value) == f"bond length must be >= 0 and finite, got x={x}"

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda phi: f_kernel(0.5, phi),
            lambda phi: damping_general(symmetric_state(3), 0.5, phi),
            lambda phi: quadrature_rates([symmetric_state(2)], 0.5, [0.0, phi]),
            lambda phi: angle_sweep(3, 0.5, [0.0, phi]),
            lambda phi: n_scaling_sweep(3, 0.5, [phi]),
            lambda phi: x_sweep(symmetric_state(3), 0.1, 1.0, 3, [phi]),
        ],
        ids=["f_kernel", "damping_general", "quadrature_rates", "angle_sweep",
             "n_scaling_sweep", "x_sweep"],
    )
    def test_angle(self, call, phi):
        with pytest.raises(ValueError) as info:
            call(phi)
        assert str(info.value) == f"polarization angle must be finite, got phi={phi}"

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: quadrature_rates([symmetric_state(2)], x, [0.0]),
            lambda x: closed_form_rates([[1]], x, [0.0]),
            lambda x: damping_general(symmetric_state(3), x, 0.0),
            lambda x: angle_sweep(3, x, [0.0]),
            lambda x: n_scaling_sweep(3, x, [0.0]),
        ],
        ids=["quadrature_rates", "closed_form_rates", "damping_general", "angle_sweep",
             "n_scaling_sweep"],
    )
    def test_separation(self, call, x):
        with pytest.raises(ValueError) as info:
            call(x)
        assert str(info.value) == f"separation must be > 0 and finite, got x={x}"

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize(
        "x_min, x_max", [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan)]
    )
    def test_x_sweep_range(self, x_min, x_max, oracle):
        with pytest.raises(ValueError) as info:
            x_sweep(symmetric_state(2), x_min, x_max, 3, [0.0], oracle)
        assert str(info.value) == f"need 0 < x_min < x_max < inf, got [{x_min}, {x_max}]"
