"""Slow reference forms of the library's rate and emission formulas.

The library evaluates each quantity one way: rates through the bond
autocorrelation, emission as one rank-one amplitude sum. The pairwise
double sums here are the textbook forms those collapse from; tests
compare the two. The mpmath references recompute the same sums at 50
digits, for states where double-precision cancellation is severe.
"""

import math

import numpy as np
from mpmath import mp, mpf

from chainrad.damping import f_kernel_minus_one
from chainrad.states import alternating_state, symmetric_state


def sign_coeffs(kind: str, n: int) -> tuple:
    """Coefficients of the sym or alt state, or a random pattern seeded by n."""
    if kind == "sym":
        return symmetric_state(n).coeffs
    if kind == "alt":
        return alternating_state(n).coeffs
    rng = np.random.default_rng(1000 + n)
    return tuple(int(c) for c in rng.choice([1, -1], size=n))


def damping_pairwise(coeffs, x: float, phi: float) -> float:
    """(sum C)^2/N + (2/N) sum_{n<m} C_n C_m (F(x (m - n), phi) - 1).

    The N(N-1)/2 pair terms are summed exactly (math.fsum): summed in
    order, their rounding alone reaches ~1e-11 of the rate at N = 200.
    """
    n = len(coeffs)
    acc = math.fsum(
        coeffs[i] * coeffs[j] * f_kernel_minus_one(x * (j - i), phi)
        for i in range(n)
        for j in range(i + 1, n)
    )
    return float(sum(coeffs)) ** 2 / n + 2.0 * acc / n


def damping_bond_count(n: int, x: float, phi: float) -> float:
    """All-plus rate N + 2 sum_k ((N - k)/N)(F(k x, phi) - 1); there are
    N - k bonds of length k on a chain of N atoms."""
    return float(n) + 2.0 * sum(
        (n - k) / n * f_kernel_minus_one(k * x, phi) for k in range(1, n)
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


def pair_correlations(coeffs) -> np.ndarray:
    """Initial-time pair correlations <B_i^dag(0) B_j(0)> = C_i C_j / N."""
    c = np.array(coeffs, dtype=float)
    return np.outer(c, c) / len(coeffs)


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
