"""Collective damping rates of sign-pattern states on the chain.

Every bond of dimensionless length x = q_a * a * k contributes through
the kernel

    F(x, phi) = (3/2) { (sin x/x) sin^2 phi
                        + [cos x/x^2 - sin x/x^3] (1 - 3 cos^2 phi) },

with F(0) = 1. The closed-form rate for a sign state {C_n} is

    gamma/gamma_a = 1 + (2/N) sum_{n<m} C_n C_m F(q_a a (m - n), phi),

which depends on the state only through the bond autocorrelation
A_k = sum_n C_n C_{n+k}, the signed count of bonds of length k; even
(sum_n C_n)^2 is N + 2 sum_k A_k. Since
F - 1 = 1.5 (sin^2 phi s(x) + (1 - 3 cos^2 phi) g(x)), the bond sum is
1.5 (sin^2 phi S + (1 - 3 cos^2 phi) G) with the phi-free moments
S = sum_k A_k s(k x) and G = sum_k A_k g(k x): one pass over the bonds
per state and x serves every polarization. Every rate in the package
comes from :func:`closed_form_rates`.

The same rate follows from the golden-rule integral over photon
emission directions; :func:`quadrature_rates` evaluates that integral
numerically for a batch of states and is kept deliberately independent
of the closed-form path so the two can cross-check each other.

Only the oracle imports numpy, on first use; every closed-form rate runs
on Python floats and integers.
"""

import functools
import math
import sys
from collections import namedtuple

from .scales import MAX_ATOMS, _chain_length
from .states import SignState
from .sweeps import SweepTable, _phi_weights, _separation, check_work, phi_columns, x_grid

#: Below this x, sin x/x - 1 and cos x/x^2 - sin x/x^3 + 1/3 are summed
#: as alternating Taylor series. The direct forms cancel catastrophically
#: as x -> 0 (the series terms start at x^2); at the crossover both
#: branches are good to ~1e-14.
F_SERIES_THRESHOLD = 1.5

#: Tolerance requested from the quadrature oracle, read at each call: absolute
#: for rates up to 1, relative above, where the sum's rounding grows with N.
ORACLE_TOL = 1e-10

#: The oracle sums Gauss-Legendre panels of this many nodes, and takes
#: its error estimate from a rule of ORACLE_CHECK_NODES on the same panels.
ORACLE_NODES = 24
ORACLE_CHECK_NODES = 16

#: N times the panel width: the integrand oscillates with frequencies up
#: to N - 1, so each panel spans about one period of the fastest term.
ORACLE_PANEL_SPAN = 6.0

#: State-panels evaluated per numpy block, which bounds the oracle's memory.
ORACLE_BLOCK_PANELS = 1024

#: Most oracle work a sweep may start, in Horner steps: every node of
#: both rules costs one step per atom plus about 43 steps of numpy work
#: that does not grow with N, so a point costs about (N + 43)
#: * (N x / ORACLE_PANEL_SPAN) * (ORACLE_NODES + ORACLE_CHECK_NODES).
#: A sweep over budget is refused before any work. On a 2-vCPU host a
#: node costs about 44 ns + 1.0 ns N, so the budget is 1 to 1.5 s of
#: oracle work at any N.
ORACLE_NODE_BUDGET = 1e9

#: Most bond terms an x_sweep may sum: its state sums its N - 1 bonds
#: once per x into two phi-free moments, n_points (N - 1) terms however
#: many polarizations it has. On a 2-vCPU host a term costs 0.45 to 1.1 us,
#: with the host's load, so the budget is 1 to 2 min of work. A bond on the
#: kernel's series branch (k x < F_SERIES_THRESHOLD) costs 1.5 to 5 us
#: instead, more as k x nears the threshold, and counts as 10 terms.
CLOSED_FORM_TERM_BUDGET = 1e8


class QuadratureAccuracyError(ArithmeticError):
    """The oracle integral did not reach the requested tolerance.

    The message spells out a state of up to 16 atoms and names a longer
    one by its first 16 signs and N, so it stays one short line at any N.
    """

    def __init__(
        self, achieved: float, requested: float, estimate: float,
        state: SignState, x: float, phi: float,
    ):
        self.achieved = achieved
        self.requested = requested
        self.estimate = estimate
        self.state = state
        self.x = x
        self.phi = phi
        pattern = str(state) if state.n <= 16 else f"{str(state)[:16]}...(N={state.n})"
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds requested "
            f"{requested:.3e} at state {pattern}, x={x!r}, phi={phi!r} "
            f"(value estimate {estimate!r})"
        )


def _kernel_parts(x: float) -> tuple[float, float]:
    """(sin x/x - 1, cos x/x^2 - sin x/x^3 + 1/3), the phi-free parts of
    F - 1; below F_SERIES_THRESHOLD, sum_{k>=1} (-1)^k x^(2k)/(2k+1)! and
    sum_{k>=1} (-1)^(k+1) x^(2k) (2k+2)/(2k+3)!, summed in one loop until
    both latest terms are under half an ulp (2^-54 of the sum). The terms
    shrink every step, so no later term can change either sum, and the
    series that converges first keeps its sum to the bit."""
    if x >= F_SERIES_THRESHOLD:
        if x > 2.0**54:
            # sin x/x is below half an ulp of 1 and the x^-2 terms below
            # half an ulp of 1/3, so these are the direct form's bits; x^3
            # may overflow, and at x = inf (k x past DBL_MAX) sin raises
            return -1.0, 1.0 / 3.0
        sin = math.sin(x)
        return sin / x - 1.0, math.cos(x) / x**2 - sin / x**3 + 1.0 / 3.0
    x2 = x * x
    s = g = 0.0
    s_term, g_term = 1.0, -2.0 / 6.0  # the k = 0 terms, left out of the sums
    for k in range(1, 30):
        s_term *= -x2 / ((2 * k) * (2 * k + 1))
        g_term *= -x2 * (2 * k + 2) / ((2 * k) * (2 * k + 2) * (2 * k + 3))
        s += s_term
        g += g_term
        if (abs(s_term) < 2.0**-54 * max(abs(s), 1e-30)
                and abs(g_term) < 2.0**-54 * max(abs(g), 1e-30)):
            break
    return s, g


def f_kernel(x: float, phi: float) -> float:
    """Bond kernel F(x, phi); F(0) = 1 for every phi.

    F - 1 = 1.5 (a s + b g) with the (s, g) of :func:`_kernel_parts` and
    the (a, b) of :func:`_phi_weights`: the one-bond case of the moments
    :func:`closed_form_rates` weights, cancellation-safe near x = 0.
    """
    if not 0 <= x < math.inf:
        raise ValueError(f"bond length must be >= 0 and finite, got x={x}")
    s, g = _kernel_parts(x)
    a, b = _phi_weights(phi)
    return 1.0 + 1.5 * (a * s + b * g)


class DampingResult(namedtuple("DampingResult", "rate_ratio method state x phi")):
    """A computed collective rate gamma/gamma_a and how it was obtained.

    ``method`` names the path: "closed_form", from :func:`damping_general`.
    """

    __slots__ = ()


def bond_autocorrelation(state: SignState) -> list[int]:
    """A_k = sum_n C_n C_{n+k} for k = 1, ..., N - 1, in exact integers.

    With the minus signs as the set bits of b, C_n C_{n+k} = -1 exactly
    where bits n and n + k differ, so A_k = (N - k) - 2 popcount of
    (b ^ b >> k) over the N - k low bits. The work is O(N^2), so a state
    longer than MAX_ATOMS is refused with ValueError before any of it.
    """
    n = state.n
    if n > MAX_ATOMS:
        raise ValueError(f"n must be in 1..{MAX_ATOMS}, got {n}")
    bits = 0
    for i, c in enumerate(state.coeffs):
        if c == -1:
            bits |= 1 << i
    return [
        (n - k) - 2 * ((bits ^ (bits >> k)) & ((1 << (n - k)) - 1)).bit_count()
        for k in range(1, n)
    ]


def closed_form_rates(autocorrs, x: float, phi_list) -> list[list[float]]:
    """1 + (2/N) sum_k A_k F(k x, phi) for each state and phi, summed as
    (N + 2 sum_k A_k)/N + (2/N) sum_k A_k (F(k x, phi) - 1).

    A state is its A_k, k = 1, ..., N - 1, as a sequence; the batch
    ``autocorrs`` may be any iterable and is read once. N + 2 sum_k A_k is
    the exact integer (sum_n C_n)^2, so the constant part is one correctly
    rounded quotient. Like :func:`quadrature_rates`, one list per state
    holds one rate per phi. The kernel's series are evaluated once per bond
    length, the table growing to each state's N - 1 as the batch is read,
    and each state sums its own N - 1 bonds in k order into two phi-free
    moments, S = sum_k A_k s(k x) and G = sum_k A_k g(k x).
    Each phi then costs O(1): sum_k A_k (F - 1) = 1.5 (a S + b G) with
    (a, b) from :func:`_phi_weights`. A rate below zero by at most 1e-12
    is roundoff and is returned as 0; a lower one raises ValueError.
    """
    _separation(x)
    weights = [_phi_weights(phi) for phi in phi_list]
    parts = []
    rates = []
    for autocorr in autocorrs:
        n = len(autocorr) + 1
        for k in range(len(parts) + 1, n):
            parts.append(_kernel_parts(k * x))
        s_sum = g_sum = 0.0
        for a_k, (s, g) in zip(autocorr, parts):
            s_sum += a_k * s
            g_sum += a_k * g
        base = (n + 2 * sum(autocorr)) / n
        row = []
        for a, b in weights:
            rate = base + 2.0 * (1.5 * (a * s_sum + b * g_sum)) / n
            if rate < 0.0:
                if rate < -1e-12:
                    raise ValueError(f"negative decay rate {rate}")
                rate = 0.0
            row.append(rate)
        rates.append(row)
    return rates


def damping_general(state: SignState, x: float, phi: float) -> DampingResult:
    """Rate of an arbitrary sign state via the bond-autocorrelation form.

    A_k = sum_n C_n C_{n+k} is correlated in exact integers by
    :func:`bond_autocorrelation`, and :func:`closed_form_rates` evaluates
    the kernel once per bond length. The all-plus state has A_k = N - k,
    the number of bonds of length k.
    """
    autocorr = bond_autocorrelation(state)
    rate = closed_form_rates((autocorr,), x, (phi,))[0][0]
    return DampingResult(rate, "closed_form", state, x, phi)


def relative_error(closed_rows, quadrature_rows) -> float:
    """The worst closed-form vs quadrature mismatch over two lists of rate
    rows, each relative to the larger rate of its pair (0 when empty)."""
    pairs = (p for rows in zip(closed_rows, quadrature_rows) for p in zip(*rows))
    errors = (abs(c - q) / max(abs(c), abs(q), 1e-300) for c, q in pairs)
    return max(errors, default=0.0)


def _power_spectrum(y, coeffs):
    """|sum_n C_n e^{i n y}|^2 at the (panels x nodes) points y for each
    row of the complex (states x atoms) array ``coeffs``, by Horner's rule
    over z = e^{iy} (|z| = 1, so the common factor z drops out)."""
    import numpy as np

    z = np.exp(1j * y)
    p = np.empty((len(coeffs),) + z.shape, dtype=complex)
    p[...] = coeffs[:, -1, None, None]
    for c_n in coeffs[:, -2::-1].T:
        p *= z
        p += c_n[:, None, None]
    return p.real * p.real + p.imag * p.imag


@functools.cache
def _panel_rule():
    """The nodes on [0, 1] of both Gauss-Legendre rules (the ORACLE_NODES
    ones first), and each rule's weights."""
    import numpy as np

    t_hi, w_hi = np.polynomial.legendre.leggauss(ORACLE_NODES)
    t_lo, w_lo = np.polynomial.legendre.leggauss(ORACLE_CHECK_NODES)
    return 0.5 * (np.concatenate([t_hi, t_lo]) + 1.0), 0.5 * w_hi, 0.5 * w_lo


def _oracle_work(n: int, xs) -> float:
    """Horner steps the oracle takes for an n-atom state over the points xs,
    a node's N-free numpy work counted as 43 steps (ORACLE_NODE_BUDGET).

    An upper bound: a point's ceil(N x / ORACLE_PANEL_SPAN) panels are
    counted as N x / ORACLE_PANEL_SPAN + 1, in floats, so the sum is
    finite, or inf, for any finite x instead of overflowing.
    """
    nodes = ORACLE_NODES + ORACLE_CHECK_NODES
    return sum((n + 43) * nodes * (n * x / ORACLE_PANEL_SPAN + 1.0) for x in xs)


def quadrature_rates(states, x: float, phi_list) -> list[list[float]]:
    """Golden-rule rates of equal-length sign states at x: one list per
    state, holding one rate per phi. ``states`` and ``phi_list`` may be
    any iterables, each read once.

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
    QuadratureAccuracyError, naming the first state and phi in order,
    is raised when an estimate, scaled like the rate, exceeds ORACLE_TOL
    times max(1, |rate|); OverflowError, before any work where x^2 is
    below the normal float range (the weight's y^2/x^2 is then inf or
    inexact), and where a rate or an estimate is not finite; ValueError,
    before any node, where the batch's work exceeds ORACLE_NODE_BUDGET.

    The weight is (2 - a) + b y^2/x^2 with the (a, b) of :func:`_phi_weights`,
    so each rule sums two phi-free moments per state, M0 = int |P|^2 and
    M2 = int |P|^2 y^2/x^2, and each phi costs O(1). |P|^2 is evaluated once
    for all the states on the shared nodes, in blocks of at most ORACLE_BLOCK_PANELS
    state-panels, which bounds memory. A state's panels share one block unless
    there are more of them, and are reduced by their own matrix-vector product
    and sum, so each rate is bitwise the same whichever states and angles it is
    batched with. The oracle stays independent of A_k and the kernel.
    """
    import numpy as np

    _separation(x)
    if x * x < sys.float_info.min:
        raise OverflowError(
            f"the quadrature oracle is not finite or not accurate at x={x!r}, "
            f"where x^2 underflows"
        )
    states, phi_list = list(states), list(phi_list)
    a, b = np.reshape([_phi_weights(phi) for phi in phi_list], (-1, 2)).T
    if not states:
        return []
    n = states[0].n
    if any(state.n != n for state in states):
        raise ValueError("the states of one batch must have the same length")
    check_work(
        f"the quadrature oracle over {len(states)} states at x={x:g}, N={n}",
        len(states) * _oracle_work(n, [x]), "Horner steps", ORACLE_NODE_BUDGET,
        "use fewer states, a smaller x or a shorter chain",
    )
    nodes, w_hi, w_lo = _panel_rule()
    panels = max(1, math.ceil(n * x / ORACLE_PANEL_SPAN))
    width = x / panels
    coeffs = np.array([state.coeffs for state in states], dtype=complex)
    moments = np.zeros((2, 2, len(states)))  # M0 and M2, by each rule
    step = min(panels, ORACLE_BLOCK_PANELS)  # panels per block
    batch = ORACLE_BLOCK_PANELS // step  # states per block
    # a value that is not finite is rejected below rather than warned about
    with np.errstate(all="ignore"):
        for start in range(0, len(states), batch):
            rows = slice(start, start + batch)
            for first in range(0, panels, step):
                edges = width * np.arange(first, min(first + step, panels))
                y = edges[:, None] + width * nodes
                power = _power_spectrum(y, coeffs[rows])
                for m, f in enumerate((power, power * (y * y / (x * x)))):
                    hi = (f[..., :ORACLE_NODES] @ w_hi).sum(axis=-1)
                    lo = (f[..., ORACLE_NODES:] @ w_lo).sum(axis=-1)
                    moments[m, :, rows] += hi * width, lo * width
        m0, m2 = moments[..., None]
        value, check = m0 * (2.0 - a) + m2 * b
        scale = 2.0 * 3.0 / (8.0 * x * n)
        rates = value * scale
        floor = 50.0 * sys.float_info.epsilon * np.abs(value)
        errors = np.maximum(np.abs(value - check), floor) * scale
    if not (np.isfinite(rates).all() and np.isfinite(errors).all()):
        raise OverflowError(f"the quadrature oracle is not finite at x={x!r}")
    bounds = ORACLE_TOL * np.maximum(1.0, np.abs(rates))
    over = np.argwhere(errors > bounds)
    if len(over):
        i, j = over[0]
        raise QuadratureAccuracyError(
            achieved=float(errors[i, j]), requested=float(bounds[i, j]),
            estimate=float(rates[i, j]), state=states[i], x=x, phi=phi_list[j],
        )
    return rates.tolist()


def n_scaling_sweep(n_max: int, x: float, phi_list) -> SweepTable:
    """Symmetric-state rate vs chain length, one column per polarization.

    The kernel is evaluated once per bond length k < n_max and shared by
    every N; each row is the rate damping_general gives for
    symmetric_state(N), whose A_k = N - k. An n_max that is a bool or
    not a whole number in 1..MAX_ATOMS is refused with ValueError before
    any work; a whole float such as 3.0 counts as 3.
    """
    n_max = _chain_length("n_max", n_max, ValueError)
    phi_list = list(phi_list)
    sizes = range(1, n_max + 1)
    columns = ["N"] + phi_columns("gamma", phi_list)
    rates = closed_form_rates([range(n - 1, 0, -1) for n in sizes], x, phi_list)
    rows = [(n, *row) for n, row in zip(sizes, rates)]
    return SweepTable(columns=columns, rows=rows)


def angle_sweep(n: int, x: float, phi_grid) -> SweepTable:
    """Symmetric-state rate vs polarization angle: the chain's N - 1 bond
    terms are summed once into phi-free moments, and each angle costs
    O(1). An n that is a bool or not a whole number in 1..MAX_ATOMS is
    refused with ValueError before any work; a whole float such as 3.0
    counts as 3."""
    n = _chain_length("n", n, ValueError)
    phis = [float(p) for p in phi_grid]
    (rates,) = closed_form_rates((range(n - 1, 0, -1),), x, phis)
    rows = [(math.degrees(p), rate) for p, rate in zip(phis, rates)]
    return SweepTable(columns=["phi_deg", "gamma"], rows=rows)


def x_sweep(
    state: SignState, x_min: float, x_max: float, n_points: int, phi_list,
    oracle: bool = False,
) -> SweepTable:
    """Rate of a fixed state vs dimensionless separation.

    With ``oracle=True`` a quadrature column is added per polarization
    and the footer records the worst closed-form/quadrature mismatch. The
    grid comes from :func:`~chainrad.sweeps.x_grid`, which refuses a bad x
    range or an n_points outside 1..MAX_POINTS before any point is built.
    A grid whose oracle work exceeds ORACLE_NODE_BUDGET, or whose n_points
    (N - 1) bond terms, with a bond on the kernel's series branch counted
    as 10, exceed CLOSED_FORM_TERM_BUDGET, is then refused with ValueError
    before any rate is computed. Each x shares one pair of moments, and
    one oracle batch, among all polarizations.
    """
    n = state.n
    bonds = n - 1
    grid = x_grid(x_min, x_max, n_points)
    if oracle:
        check_work(
            f"the quadrature oracle over {n_points} points up to x={grid[-1]:g} "
            f"at N={n}",
            _oracle_work(n, grid), "Horner steps", ORACLE_NODE_BUDGET,
            "use fewer points, a smaller x range or a shorter chain",
        )
    # the bonds k < F_SERIES_THRESHOLD / x are on the kernel's series
    # branch; each weighs 10 terms
    series = sum(
        math.ceil(F_SERIES_THRESHOLD / x) - 1 if x > F_SERIES_THRESHOLD / n
        else bonds
        for x in grid
    )
    check_work(
        f"the closed form over {n_points} points at N={n}",
        n_points * bonds + 9 * series, "bond terms", CLOSED_FORM_TERM_BUDGET,
    )
    phi_list = list(phi_list)
    columns = ["x"] + phi_columns("gamma", phi_list)
    autocorrs = (bond_autocorrelation(state),)
    closed = [closed_form_rates(autocorrs, x, phi_list)[0] for x in grid]
    if not oracle:
        return SweepTable(columns, [(x, *c) for x, c in zip(grid, closed)])
    columns += phi_columns("gamma_quadrature", phi_list)
    quads = [quadrature_rates([state], x, phi_list)[0] for x in grid]
    rows = [(x, *c, *q) for x, c, q in zip(grid, closed, quads)]
    footer = [f"max_rel_err={relative_error(closed, quads):.3e}"]
    return SweepTable(columns=columns, rows=rows, footer=footer)
