"""Slow reference forms of the library's rate and emission formulas.

The library evaluates each quantity one way: rates through the bond
autocorrelation, emission as one rank-one amplitude sum. The pairwise
double sums here are the textbook forms those collapse from; tests
compare the two. The mpmath references recompute the same sums at 50
digits, for states where double-precision cancellation is severe. The
two-atom closed forms are the emission references the paper prints.
The adaptive scipy quadrature of the golden-rule integral is the
reference for the library's fixed Gauss-Legendre oracle.
"""

import math
from itertools import product
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf
from scipy.integrate import quad

from chainrad.damping import _kernel_parts, _phi_weights
from chainrad.emission import emission_sweep
from chainrad.scales import SPEED_OF_LIGHT, CausalityError
from chainrad.states import SignState, alternating_state, symmetric_state


def sign_coeffs(kind: str, n: int) -> tuple:
    """Coefficients of the sym or alt state, the Thue-Morse state ("tm",
    C_k = (-1)^popcount(k) for k = 0, ..., n - 1), or a random pattern
    seeded by n."""
    if kind == "sym":
        return symmetric_state(n).coeffs
    if kind == "alt":
        return alternating_state(n).coeffs
    if kind == "tm":
        return tuple(-1 if bin(k).count("1") % 2 else 1 for k in range(n))
    rng = np.random.default_rng(1000 + n)
    return tuple(int(c) for c in rng.choice([1, -1], size=n))


def sign_states(n: int) -> list:
    """All 2^n sign states of n atoms, lexicographic with +1 before -1."""
    return [SignState(coeffs) for coeffs in product((1, -1), repeat=n)]


def column(table, name: str) -> np.ndarray:
    """One column of a SweepTable as a float array."""
    idx = table.columns.index(name)
    return np.array([row[idx] for row in table.rows], dtype=float)


def kernel_minus_one(x: float, phi: float) -> float:
    """F(x, phi) - 1 = 1.5 (a s + b g), from the library's own (s, g) and
    (a, b): the one-bond term its rate moments weight."""
    s, g = _kernel_parts(x)
    a, b = _phi_weights(phi)
    return 1.5 * (a * s + b * g)


def damping_pairwise(coeffs, x: float, phi: float) -> float:
    """(sum C)^2/N + (2/N) sum_{n<m} C_n C_m (F(x (m - n), phi) - 1).

    The N(N-1)/2 pair terms are summed exactly (math.fsum): summed in
    order, their rounding alone reaches ~1e-11 of the rate at N = 200.
    """
    n = len(coeffs)
    acc = math.fsum(
        coeffs[i] * coeffs[j] * kernel_minus_one(x * (j - i), phi)
        for i in range(n)
        for j in range(i + 1, n)
    )
    return float(sum(coeffs)) ** 2 / n + 2.0 * acc / n


def damping_bond_count(n: int, x: float, phi: float) -> float:
    """All-plus rate N + 2 sum_k ((N - k)/N)(F(k x, phi) - 1); there are
    N - k bonds of length k on a chain of N atoms."""
    return float(n) + 2.0 * sum(
        (n - k) / n * kernel_minus_one(k * x, phi) for k in range(1, n)
    )


def golden_rule_integrand_per_term(y: float, coeffs, x: float, cos2phi: float) -> float:
    """|sum_n C_n e^{i n y}|^2 times the angular weight, with one cos and
    one sin per atom: the form the library's Horner integrand replaces."""
    re = 0.0
    im = 0.0
    for k, c in enumerate(coeffs):
        re += c * math.cos((k + 1) * y)
        im += c * math.sin((k + 1) * y)
    weight = (1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0)
    return (re * re + im * im) * weight


def golden_rule_integrand_horner(y: float, coeffs, x: float, cos2phi: float) -> float:
    """The golden-rule integrand at one point, |sum_n C_n z^n|^2 with
    z = e^{iy} by Horner's rule in Python complex arithmetic."""
    z = complex(math.cos(y), math.sin(y))
    p = 0j
    for c in reversed(coeffs):
        p = p * z + c
    weight = (1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0)
    return (p.real * p.real + p.imag * p.imag) * weight


def damping_quad(coeffs, x: float, phi: float, tol: float = 1e-10) -> float:
    """The golden-rule rate by scipy's adaptive quadrature (QUADPACK qags),
    as the library computed it before its fixed Gauss-Legendre rule."""
    n = len(coeffs)
    cos2phi = math.cos(phi) ** 2
    # the integrand oscillates on scale 1/N; give quad room to subdivide
    value, _ = quad(
        golden_rule_integrand_horner, 0.0, x, args=(coeffs, x, cos2phi),
        epsabs=tol * x / 10.0, epsrel=1e-13, limit=max(100, 20 * n * (1 + int(x))),
    )
    return 2.0 * value * 3.0 / (8.0 * x * n)


def pair_correlations(coeffs) -> np.ndarray:
    """Initial-time pair correlations <B_i^dag(0) B_j(0)> = C_i C_j / N."""
    c = np.array(coeffs, dtype=float)
    return np.outer(c, c) / len(coeffs)


def emission_geometry(n: int, a: float, phi: float, obs_x: float) -> SimpleNamespace:
    """Per-atom observation geometry of n atoms at spacing a, observed at
    (obs_x, 0, 0), with the numpy calls the library's per-point sum makes inline:
    R_n (``atom_z``), the dipole angle seen from atom n (``phi_n``),
    |r - R_n| (``dist_n``), dist_n / c (``retard_n``) and the N x 3 unit
    vectors (r - R_n)/|r - R_n| (``unit_n``)."""
    atom_z = a * np.arange(n, dtype=float)
    dist = np.hypot(obs_x, atom_z)
    unit = np.column_stack(
        [np.full(n, obs_x), np.zeros(n), -atom_z]
    ) / dist[:, None]
    return SimpleNamespace(
        obs_x=obs_x,
        atom_z=atom_z,
        phi_n=math.pi - phi - np.arctan2(obs_x, atom_z),
        dist_n=dist,
        retard_n=dist / SPEED_OF_LIGHT,
        unit_n=unit,
    )


def one_point_intensity(
    state, a: float, phi: float, obs_x: float, scales, t: float,
) -> float:
    """The library's I/I_0 at one lattice constant a: ``emission_sweep`` over
    the one-point grid [a], checks included (the dipole only scales I_0)."""
    ((_, value),) = emission_sweep(state, [a], phi, obs_x, t, scales, 1.0).table.rows
    return value


def total_intensity_pairwise(coeffs, geom, scales, t: float) -> float:
    """I/I_0 as per-atom terms plus pairwise interference terms, each
    with its own retardation in the decay and the phase."""
    corr = pair_correlations(coeffs)
    gamma = scales.gamma_a
    omega = scales.omega_a
    x = geom.obs_x
    sin_phi = np.sin(geom.phi_n)
    tn = geom.retard_n
    n = len(coeffs)
    total = 0.0
    for i in range(n):
        total += (
            0.5 * x**2 * sin_phi[i] ** 2 / geom.dist_n[i] ** 2
            * corr[i, i] * math.exp(-gamma * (t - tn[i]))
        )
    for i in range(n):
        for j in range(i + 1, n):
            total += (
                0.5 * x**2 * sin_phi[i] * sin_phi[j]
                / (geom.dist_n[i] * geom.dist_n[j])
                * float(np.dot(geom.unit_n[i], geom.unit_n[j]))
                * corr[i, j]
                * math.exp(-gamma * (t - 0.5 * (tn[i] + tn[j])))
                * 2.0 * math.cos(omega * (tn[i] - tn[j]))
            )
    return total


def damping_autocorrelation_mp(coeffs, x: float, phi: float) -> float:
    """(sum C)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1) at 50 digits, with
    A_k counted in Python integers and F - 1 from its direct form (the
    cancellation near k x = 0 still leaves > 30 correct digits)."""
    n = len(coeffs)
    with mp.workdps(50):
        cos2phi = mp.cos(mpf(phi)) ** 2
        acc = mpf(0)
        for k in range(1, n):
            a_k = sum(coeffs[i] * coeffs[i + k] for i in range(n - k))
            y = k * mpf(x)
            s, c = mp.sin(y), mp.cos(y)
            acc += a_k * mpf(3) / 2 * (
                (s / y - 1) * (1 - cos2phi)
                + (c / y**2 - s / y**3 + mpf(1) / 3) * (1 - 3 * cos2phi)
            )
        return float(mpf(sum(coeffs)) ** 2 / n + 2 * acc / n)


def closed_form_rates_mp(total: int, autocorr, x: float, phis, dps: int = 40) -> list:
    """One state's (sum C)^2/N + 3 (sin^2 phi S + (1 - 3 cos^2 phi) G)/N
    at ``dps`` digits for each phi, as mpf: the moments S = sum_k A_k s(k x)
    and G = sum_k A_k g(k x) from the direct forms of s and g, given
    the state's sum C and its A_k. O(N) at any number of phi, so it
    reaches N = 10^4."""
    n = len(autocorr) + 1
    with mp.workdps(dps):
        s_sum = g_sum = mpf(0)
        for k, a_k in enumerate(autocorr, start=1):
            y = k * mpf(x)
            s, c = mp.sin(y), mp.cos(y)
            s_sum += a_k * (s / y - 1)
            g_sum += a_k * (c / y**2 - s / y**3 + mpf(1) / 3)
        rates = []
        for phi in phis:
            cos2phi = mp.cos(mpf(phi)) ** 2
            rates.append(
                mpf(total) ** 2 / n
                + 3 * ((1 - cos2phi) * s_sum + (1 - 3 * cos2phi) * g_sum) / n
            )
        return rates


def total_intensity_mp(coeffs, geom, scales, t: float) -> float:
    """(x^2/2N) |sum_n C_n (sin phi_n/d_n) e^{-gamma (t - t_n)/2}
    e^{i omega t_n} u_n|^2 at 50 digits from the same double-precision
    geometry the library uses."""
    n = len(coeffs)
    with mp.workdps(50):
        field = [mp.mpc(0)] * 3
        for k in range(n):
            amp = (
                coeffs[k] * mp.sin(mpf(geom.phi_n[k])) / mpf(geom.dist_n[k])
                * mp.exp(-mpf(scales.gamma_a) * (mpf(t) - mpf(geom.retard_n[k])) / 2)
                * mp.expj(mpf(scales.omega_a) * mpf(geom.retard_n[k]))
            )
            for d in range(3):
                field[d] += amp * mpf(geom.unit_n[k][d])
        power = sum(abs(f) ** 2 for f in field)
        return float(mpf(geom.obs_x) ** 2 / (2 * n) * power)


def two_atom_intensity(
    symmetric: bool, a: float, phi: float, obs_x: float, t: float, scales
) -> float:
    """Closed two-atom form of the scaled intensity.

    I/I_0 = (1/4) { sin^2 phi_1 e^{-gamma (t - x/c)}
                    + (x^2 sin^2 phi_2/(x^2+a^2)) e^{-gamma (t - d2/c)}
                    +/- (x^2 sin phi_1 sin phi_2/(x^2+a^2))
                        2 cos[omega (x - d2)/c]
                        e^{-gamma (t - (x + d2)/(2c))} }.
    """
    if not obs_x > 0:
        raise ValueError(f"obs_x must be > 0, got {obs_x}")
    if a < 0:
        raise ValueError(f"lattice constant must be >= 0, got {a}")
    d2 = math.hypot(obs_x, a)
    t1 = obs_x / SPEED_OF_LIGHT
    t2 = d2 / SPEED_OF_LIGHT
    if t < t2:
        raise CausalityError(f"t={t!r} s precedes retardation time {t2!r} s")
    phi1 = math.pi / 2.0 - phi
    alpha = math.atan2(obs_x, a)
    phi2 = math.pi - phi - alpha
    gamma = scales.gamma_a
    sign = 1.0 if symmetric else -1.0
    weight = obs_x**2 / (obs_x**2 + a**2)
    return 0.25 * (
        math.sin(phi1) ** 2 * math.exp(-gamma * (t - t1))
        + weight * math.sin(phi2) ** 2 * math.exp(-gamma * (t - t2))
        + sign * weight * math.sin(phi1) * math.sin(phi2)
        * 2.0 * math.cos(scales.omega_a * (t1 - t2))
        * math.exp(-gamma * (t - 0.5 * (t1 + t2)))
    )


def two_atom_asymptotic(
    symmetric: bool, a: float, phi: float, obs_x: float, t: float, scales
) -> float:
    """x >> a limit of the two-atom intensity.

    I/I_0 = (cos^2 phi / 4) e^{-gamma (t - x/c)}
            { 1 + e^{gamma a^2/(2 c x)}
              +/- 2 cos(omega a^2/(2 c x)) e^{gamma a^2/(4 c x)} }.

    The amplitude replacement sin phi_2 -> cos phi drops O(a/x * tan phi)
    corrections, so accuracy degrades away from phi = 0.
    """
    if not obs_x > 0:
        raise ValueError(f"obs_x must be > 0, got {obs_x}")
    gamma = scales.gamma_a
    u = a * a / (2.0 * SPEED_OF_LIGHT * obs_x)
    sign = 1.0 if symmetric else -1.0
    brace = (
        1.0
        + math.exp(gamma * u)
        + sign * 2.0 * math.cos(scales.omega_a * u) * math.exp(gamma * u / 2.0)
    )
    return 0.25 * math.cos(phi) ** 2 * math.exp(-gamma * (t - obs_x / SPEED_OF_LIGHT)) * brace
