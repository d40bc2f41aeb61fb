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

Only :func:`damping_general` and the oracle import numpy, on first use;
the sweeps run on Python floats and integers.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .states import SignState, symmetric_state
from .sweeps import SweepTable, linspace, phi_columns

#: Below this x, sin x/x - 1 and cos x/x^2 - sin x/x^3 + 1/3 are summed
#: as alternating Taylor series. The direct forms cancel catastrophically
#: as x -> 0 (the series terms start at x^2); at the crossover both
#: branches are good to ~1e-14.
F_SERIES_THRESHOLD = 1.5

#: Absolute tolerance requested from the quadrature oracle.
ORACLE_TOL = 1e-10

#: The oracle sums Gauss-Legendre panels of this many nodes, and takes
#: its error estimate from a rule of ORACLE_CHECK_NODES on the same panels.
ORACLE_NODES = 24
ORACLE_CHECK_NODES = 16

#: N times the panel width: the integrand oscillates with frequencies up
#: to N - 1, so each panel spans about one period of the fastest term.
ORACLE_PANEL_SPAN = 6.0

#: Panels evaluated per numpy block, which bounds the oracle's memory.
ORACLE_BLOCK_PANELS = 1024


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


def bond_autocorrelation(state: SignState) -> list[int]:
    """A_k = sum_n C_n C_{n+k} for k = 1, ..., N - 1, in exact integers.

    With the minus signs as the set bits of b, C_n C_{n+k} = -1 exactly
    where bits n and n + k differ, so A_k = (N - k) - 2 popcount of
    (b ^ b >> k) over the N - k low bits.
    """
    n = state.n
    bits = sum(1 << i for i, c in enumerate(state.coeffs) if c == -1)
    return [
        (n - k) - 2 * ((bits ^ (bits >> k)) & ((1 << (n - k)) - 1)).bit_count()
        for k in range(1, n)
    ]


def closed_form_rate(
    state: SignState, autocorr, x: float, phi: float
) -> DampingResult:
    """The closed-form rate of ``state`` from its bond autocorrelation.

    ``autocorr`` holds A_k for k = 1, ..., N - 1; a sweep computes it once
    per state and passes it to every grid point.
    """
    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    n = state.n
    kernel = [f_kernel_minus_one(k * x, phi) for k in range(1, n)]
    return DampingResult(
        rate_ratio=_rate_from_autocorr(sum(state.coeffs), autocorr, kernel, n),
        method="closed_form", state=state, x=x, phi=phi,
    )


def damping_general(state: SignState, x: float, phi: float) -> DampingResult:
    """Rate of an arbitrary sign state via the bond-autocorrelation form.

    1 + (2/N) sum_{n<m} C_n C_m F is evaluated as
    (sum_n C_n)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1): the constant part
    collapses exactly, so nearly dark states keep their tiny rates
    instead of dissolving into cancellation noise. A_k = sum_n C_n C_{n+k}
    is correlated in exact integers, and the kernel is evaluated once per
    bond length. The all-plus state has A_k = N - k, the number of bonds
    of length k.

    A single rate correlates with numpy, which beats
    :func:`bond_autocorrelation` on long chains.
    """
    import numpy as np

    c = np.array(state.coeffs)
    autocorr = np.correlate(c, c, "full")[state.n:].tolist()
    return closed_form_rate(state, autocorr, x, phi)


def relative_error(closed: float, quadrature: float) -> float:
    """Closed-form vs quadrature mismatch, relative to the larger rate."""
    return abs(closed - quadrature) / max(abs(closed), abs(quadrature), 1e-300)


def _golden_rule_integrand(y, coeffs, x: float, cos2phi: float):
    """The golden-rule integrand at the points y (a float or numpy array)."""
    import numpy as np

    # |sum_n C_n z^n|^2 with z = e^{iy}, by Horner's rule: |z| = 1, so the
    # common factor z drops out of the modulus
    z = np.exp(1j * np.asarray(y, dtype=float))
    p = np.full_like(z, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        p *= z
        p += c
    weight = (1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0)
    return (p.real * p.real + p.imag * p.imag) * weight


@functools.cache
def _panel_rule():
    """The nodes on [0, 1] of both Gauss-Legendre rules (the ORACLE_NODES
    ones first), and each rule's weights."""
    import numpy as np

    t_hi, w_hi = np.polynomial.legendre.leggauss(ORACLE_NODES)
    t_lo, w_lo = np.polynomial.legendre.leggauss(ORACLE_CHECK_NODES)
    return 0.5 * (np.concatenate([t_hi, t_lo]) + 1.0), 0.5 * w_hi, 0.5 * w_lo


def damping_quadrature_oracle(
    state: SignState, x: float, phi: float, tol: float = ORACLE_TOL
) -> DampingResult:
    """Rate from direct numerical integration of the golden-rule integral.

    Integrates (3/(8 x N)) int_{-x}^{x} dy |sum_n C_n e^{-i n y}|^2
    [(1 + cos^2 phi) - (y^2/x^2)(3 cos^2 phi - 1)]; the prefactor is
    fixed by the single-atom normalization (N = 1 gives exactly 1).
    The integrand is even in y, so only [0, x] is integrated.

    The integrand is a trigonometric polynomial of degree N - 1 times a
    quadratic in y, so a composite Gauss-Legendre rule with
    max(1, ceil(N x / ORACLE_PANEL_SPAN)) panels converges exponentially.
    Its error estimate is the difference from a rule of
    ORACLE_CHECK_NODES on the same panels, but no less than the rounding
    floor QUADPACK puts under its estimates, 50 eps times the integral of
    |f| (the integrand is non-negative, so that is the value itself).
    QuadratureAccuracyError is raised when the estimate, scaled like the
    rate, exceeds ``tol``.
    """
    import numpy as np

    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    nodes, w_hi, w_lo = _panel_rule()
    cos2phi = math.cos(phi) ** 2
    panels = max(1, math.ceil(state.n * x / ORACLE_PANEL_SPAN))
    width = x / panels
    value = check = 0.0
    for first in range(0, panels, ORACLE_BLOCK_PANELS):
        edges = width * np.arange(first, min(first + ORACLE_BLOCK_PANELS, panels))
        f = _golden_rule_integrand(
            edges[:, None] + width * nodes, state.coeffs, x, cos2phi
        )
        value += float((f[:, :ORACLE_NODES] @ w_hi).sum()) * width
        check += float((f[:, ORACLE_NODES:] @ w_lo).sum()) * width
    scale = 2.0 * 3.0 / (8.0 * x * state.n)
    ratio = value * scale
    floor = 50.0 * sys.float_info.epsilon * abs(value)
    err_ratio = max(abs(value - check), floor) * scale
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
    autocorr = bond_autocorrelation(state)
    rows = [
        (math.degrees(p), closed_form_rate(state, autocorr, x, p).rate_ratio)
        for p in map(float, phi_grid)
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
    autocorr = bond_autocorrelation(state)
    rows = []
    max_rel_err = 0.0
    for x in linspace(x_min, x_max, n_points):
        closed = [closed_form_rate(state, autocorr, x, p).rate_ratio for p in phi_list]
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
