"""Collective damping rates of sign-pattern states on the chain.

Every bond of dimensionless length x = q_a * a * k contributes through
the kernel

    F(x, phi) = (3/2) { (sin x/x) sin^2 phi
                        + [cos x/x^2 - sin x/x^3] (1 - 3 cos^2 phi) },

with F(0) = 1. The closed-form rate for a sign state {C_n} is

    gamma/gamma_a = 1 + (2/N) sum_{n<m} C_n C_m F(q_a a (m - n), phi),

which depends on the state only through the bond autocorrelation
A_k = sum_n C_n C_{n+k}, the signed count of bonds of length k.

The same rate follows from the golden-rule integral over photon
emission directions; :func:`damping_quadrature_oracle` evaluates that
integral numerically and is kept deliberately independent of the
closed-form path so the two can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import SignState, symmetric_state
from .sweeps import SweepTable, phi_columns

#: Below this x, sin x/x - 1 and cos x/x^2 - sin x/x^3 + 1/3 are summed
#: as alternating Taylor series. The direct forms cancel catastrophically
#: as x -> 0 (the series terms start at x^2); at the crossover both
#: branches are good to ~1e-14.
F_SERIES_THRESHOLD = 1.5

#: Absolute tolerance requested from the quadrature oracle.
ORACLE_TOL = 1e-10


class QuadratureAccuracyError(ArithmeticError):
    """The oracle integral did not reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float, estimate: float):
        self.achieved = achieved
        self.requested = requested
        self.estimate = estimate
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds requested "
            f"{requested:.3e} (value estimate {estimate!r})"
        )


def _sinc_minus_one(x: float) -> float:
    """sin x/x - 1 = sum_{k>=1} (-1)^k x^(2k)/(2k+1)!."""
    if x >= F_SERIES_THRESHOLD:
        return math.sin(x) / x - 1.0
    x2 = x * x
    total = 0.0
    term = 1.0
    for k in range(1, 30):
        term *= -x2 / ((2 * k) * (2 * k + 1))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def _g_plus_third(x: float) -> float:
    """cos x/x^2 - sin x/x^3 + 1/3 = sum_{k>=2} (-1)^(k+1) x^(2k-2) 2k/(2k+1)!."""
    if x >= F_SERIES_THRESHOLD:
        return math.cos(x) / x**2 - math.sin(x) / x**3 + 1.0 / 3.0
    x2 = x * x
    total = 0.0
    term = -2.0 / 6.0  # k = 1 term of the full series, -1/3
    for k in range(2, 30):
        term *= -x2 * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
    return total


def f_kernel_minus_one(x: float, phi: float) -> float:
    """F(x, phi) - 1, cancellation-safe near x = 0 where F -> 1.

    The collective-rate formulas subtract the bond sum against the
    single-atom term; keeping F - 1 explicit avoids losing the tiny
    rates of nearly dark states to roundoff.
    """
    if x < 0:
        raise ValueError(f"bond length must be >= 0, got x={x}")
    c2 = math.cos(phi) ** 2
    return 1.5 * (
        _sinc_minus_one(x) * (1.0 - c2) + _g_plus_third(x) * (1.0 - 3.0 * c2)
    )


def f_kernel(x: float, phi: float) -> float:
    """Bond kernel F(x, phi); F(0) = 1 for every phi."""
    return 1.0 + f_kernel_minus_one(x, phi)


@dataclass(frozen=True)
class DampingResult:
    """A computed collective rate gamma/gamma_a and how it was obtained."""

    rate_ratio: float
    method: str  # "closed_form" or "quadrature"
    state: SignState
    x: float
    phi: float

    def __post_init__(self):
        if self.rate_ratio < -1e-12:
            raise ValueError(f"negative decay rate {self.rate_ratio}")
        if self.rate_ratio < 0.0:
            object.__setattr__(self, "rate_ratio", 0.0)


def _rate_from_autocorr(total: int, autocorr, f_minus_one, n: int) -> float:
    """(sum_n C_n)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1).

    ``total`` is sum_n C_n; ``autocorr`` and ``f_minus_one`` hold A_k and
    F(k x, phi) - 1 for k = 1, 2, ..., summed in that order.
    """
    acc = 0.0
    for a_k, g_k in zip(autocorr, f_minus_one):
        acc += a_k * g_k
    return float(total) ** 2 / n + 2.0 * acc / n


def damping_general(state: SignState, x: float, phi: float) -> DampingResult:
    """Rate of an arbitrary sign state via the bond-autocorrelation form.

    1 + (2/N) sum_{n<m} C_n C_m F is evaluated as
    (sum_n C_n)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1): the constant part
    collapses exactly, so nearly dark states keep their tiny rates
    instead of dissolving into cancellation noise. A_k = sum_n C_n C_{n+k}
    is correlated in exact integers, and the kernel is evaluated once per
    bond length. The all-plus state has A_k = N - k, the number of bonds
    of length k.
    """
    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    c = np.array(state.coeffs)
    n = state.n
    autocorr = np.correlate(c, c, "full")[n:].tolist()
    kernel = [f_kernel_minus_one(k * x, phi) for k in range(1, n)]
    return DampingResult(
        rate_ratio=_rate_from_autocorr(sum(state.coeffs), autocorr, kernel, n),
        method="closed_form", state=state, x=x, phi=phi,
    )


def relative_error(closed: float, quadrature: float) -> float:
    """Closed-form vs quadrature mismatch, relative to the larger rate."""
    return abs(closed - quadrature) / max(abs(closed), abs(quadrature), 1e-300)


def _golden_rule_integrand(y: float, coeffs, x: float, cos2phi: float) -> float:
    # |sum_n C_n z^n|^2 with z = e^{iy}, by Horner's rule: |z| = 1, so the
    # common factor z drops out of the modulus and two trig calls suffice
    z = complex(math.cos(y), math.sin(y))
    p = 0j
    for c in reversed(coeffs):
        p = p * z + c
    weight = (1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0)
    return (p.real * p.real + p.imag * p.imag) * weight


def damping_quadrature_oracle(
    state: SignState, x: float, phi: float, tol: float = ORACLE_TOL
) -> DampingResult:
    """Rate from direct numerical integration of the golden-rule integral.

    Integrates (3/(8 x N)) int_{-x}^{x} dy |sum_n C_n e^{-i n y}|^2
    [(1 + cos^2 phi) - (y^2/x^2)(3 cos^2 phi - 1)]; the prefactor is
    fixed by the single-atom normalization (N = 1 gives exactly 1).
    The integrand is even in y, so only [0, x] is integrated.
    """
    from scipy.integrate import quad  # only the oracle needs scipy

    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    cos2phi = math.cos(phi) ** 2
    # the integrand oscillates on scale 1/N; give quad room to subdivide
    limit = max(100, 20 * state.n * (1 + int(x)))
    value, abserr = quad(
        _golden_rule_integrand,
        0.0,
        x,
        args=(state.coeffs, x, cos2phi),
        epsabs=tol * x / 10.0,
        epsrel=1e-13,
        limit=limit,
    )
    ratio = 2.0 * value * 3.0 / (8.0 * x * state.n)
    err_ratio = 2.0 * abserr * 3.0 / (8.0 * x * state.n)
    if err_ratio > tol:
        raise QuadratureAccuracyError(
            achieved=err_ratio, requested=tol, estimate=ratio
        )
    return DampingResult(
        rate_ratio=ratio, method="quadrature", state=state, x=x, phi=phi
    )


def n_scaling_sweep(n_max: int, x: float, phi_list) -> SweepTable:
    """Symmetric-state rate vs chain length, one column per polarization.

    The kernel is evaluated once per bond length k < n_max and shared by
    every N; each row is the rate damping_general gives for
    symmetric_state(N), whose A_k = N - k.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    phi_list = list(phi_list)
    columns = ["N"] + phi_columns("gamma", phi_list)
    kernels = [
        [f_kernel_minus_one(k * x, p) for k in range(1, n_max)] for p in phi_list
    ]
    rows = [
        (n, *(_rate_from_autocorr(n, range(n - 1, 0, -1), g, n) for g in kernels))
        for n in range(1, n_max + 1)
    ]
    return SweepTable(columns=columns, rows=rows)


def angle_sweep(n: int, x: float, phi_grid) -> SweepTable:
    """Symmetric-state rate vs polarization angle."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = symmetric_state(n)
    rows = [
        (math.degrees(p), damping_general(state, x, p).rate_ratio)
        for p in np.asarray(phi_grid, dtype=float)
    ]
    return SweepTable(columns=["phi_deg", "gamma"], rows=rows)


def x_sweep(
    state: SignState, x_min: float, x_max: float, n_points: int, phi_list,
    oracle: bool = False,
) -> SweepTable:
    """Rate of a fixed state vs dimensionless separation.

    With ``oracle=True`` a quadrature column is added per polarization
    and the footer records the worst closed-form/quadrature mismatch.
    """
    if not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got [{x_min}, {x_max}]")
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    phi_list = list(phi_list)
    columns = ["x"] + phi_columns("gamma", phi_list)
    if oracle:
        columns += phi_columns("gamma_quadrature", phi_list)
    rows = []
    max_rel_err = 0.0
    for x in np.linspace(x_min, x_max, n_points):
        x = float(x)
        closed = [damping_general(state, x, p).rate_ratio for p in phi_list]
        row = [x] + closed
        if oracle:
            quads = [
                damping_quadrature_oracle(state, x, p).rate_ratio
                for p in phi_list
            ]
            row += quads
            for cf, qd in zip(closed, quads):
                max_rel_err = max(max_rel_err, relative_error(cf, qd))
        rows.append(tuple(row))
    footer = [f"max_rel_err={max_rel_err:.3e}"] if oracle else []
    return SweepTable(columns=columns, rows=rows, footer=footer)
