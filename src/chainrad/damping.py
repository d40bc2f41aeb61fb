"""Collective damping rates of sign-pattern states on the chain.

Every bond of dimensionless length x = q_a * a * k contributes through
the kernel

    F(x, phi) = (3/2) { (sin x/x) sin^2 phi
                        + [cos x/x^2 - sin x/x^3] (1 - 3 cos^2 phi) },

with F(0) = 1. The closed-form rate for a sign state {C_n} is

    gamma/gamma_a = 1 + (2/N) sum_{n<m} C_n C_m F(q_a a (m - n), phi),

which depends on the state only through the bond autocorrelation
A_k = sum_n C_n C_{n+k}, the signed count of bonds of length k. Since
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

from .frozen import Frozen
from .states import SignState
from .sweeps import SweepTable, check_work, linspace, phi_columns

#: Below this x, sin x/x - 1 and cos x/x^2 - sin x/x^3 + 1/3 are summed
#: as alternating Taylor series. The direct forms cancel catastrophically
#: as x -> 0 (the series terms start at x^2); at the crossover both
#: branches are good to ~1e-14.
F_SERIES_THRESHOLD = 1.5

#: Absolute tolerance requested from the quadrature oracle, read at each call.
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
#: both rules costs one step per atom, so a point costs about
#: N * (N x / ORACLE_PANEL_SPAN) * (ORACLE_NODES + ORACLE_CHECK_NODES).
#: A sweep over budget is refused before any work; the budget is about
#: 2 s of oracle work on a 2-vCPU host.
ORACLE_NODE_BUDGET = 1e9

#: Most bond terms a closed-form sweep may sum. Each state sums its N - 1
#: bonds once per x into two phi-free moments, so x_sweep counts
#: n_points (N - 1), n_scaling_sweep n_max (n_max - 1)/2 and angle_sweep
#: N - 1, however many polarizations they have. A sweep over budget is
#: refused before any work. On a 2-vCPU host a term costs about 0.17 us
#: where many states share the kernel (n_scaling_sweep) and 1.1 us where
#: each x evaluates its own (x_sweep, angle_sweep), so the budget is about
#: 17 s to 2 min of work. A bond on the kernel's series branch
#: (k x < F_SERIES_THRESHOLD) costs 5 to 15 us instead, so x_sweep, where
#: each point evaluates its own, counts each such bond as 10 terms.
CLOSED_FORM_TERM_BUDGET = 1e8


class QuadratureAccuracyError(ArithmeticError):
    """The oracle integral did not reach the requested tolerance."""

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
        super().__init__(
            f"quadrature error estimate {achieved:.3e} exceeds requested "
            f"{requested:.3e} at state {state}, x={x!r}, phi={phi!r} "
            f"(value estimate {estimate!r})"
        )


def _kernel_parts(x: float) -> tuple[float, float]:
    """(sin x/x - 1, cos x/x^2 - sin x/x^3 + 1/3), the phi-free parts of
    F - 1; below F_SERIES_THRESHOLD, summed as sum_{k>=1} (-1)^k x^(2k)/(2k+1)!
    and sum_{k>=2} (-1)^(k+1) x^(2k-2) 2k/(2k+1)!."""
    if x >= F_SERIES_THRESHOLD:
        sin = math.sin(x)
        return sin / x - 1.0, math.cos(x) / x**2 - sin / x**3 + 1.0 / 3.0
    x2 = x * x
    s = 0.0
    term = 1.0
    for k in range(1, 30):
        term *= -x2 / ((2 * k) * (2 * k + 1))
        s += term
        if abs(term) < 1e-18 * max(abs(s), 1e-30):
            break
    g = 0.0
    term = -2.0 / 6.0  # k = 1 term of the full series, -1/3
    for k in range(2, 30):
        term *= -x2 * (2 * k) / ((2 * k - 2) * (2 * k) * (2 * k + 1))
        g += term
        if abs(term) < 1e-18 * max(abs(g), 1e-30):
            break
    return s, g


def _phi_weights(phi: float) -> tuple[float, float]:
    """(1 - cos^2 phi, 1 - 3 cos^2 phi): F - 1 = 1.5 (a s + b g) with these
    (a, b) and the (s, g) of :func:`_kernel_parts`."""
    c2 = math.cos(phi) ** 2
    return 1.0 - c2, 1.0 - 3.0 * c2


def f_kernel(x: float, phi: float) -> float:
    """Bond kernel F(x, phi); F(0) = 1 for every phi.

    F - 1 = 1.5 (a s + b g) with the (s, g) of :func:`_kernel_parts` and
    the (a, b) of :func:`_phi_weights`: the one-bond case of the moments
    :func:`closed_form_rates` weights, cancellation-safe near x = 0.
    """
    if x < 0:
        raise ValueError(f"bond length must be >= 0, got x={x}")
    s, g = _kernel_parts(x)
    a, b = _phi_weights(phi)
    return 1.0 + 1.5 * (a * s + b * g)


class DampingResult(Frozen):
    """A computed collective rate gamma/gamma_a and how it was obtained.

    ``method`` names the path: "closed_form", from :func:`damping_general`.
    """

    __slots__ = ("rate_ratio", "method", "state", "x", "phi")

    def __init__(
        self, rate_ratio: float, method: str, state: SignState, x: float, phi: float
    ):
        # one is built per rate, so the fields are set directly rather
        # than through Frozen.__init__'s loop
        _set = object.__setattr__
        _set(self, "rate_ratio", rate_ratio)
        _set(self, "method", method)
        _set(self, "state", state)
        _set(self, "x", x)
        _set(self, "phi", phi)


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


def closed_form_rates(totals, autocorrs, x: float, phi_list) -> list[list[float]]:
    """(sum_n C_n)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1) for each state and phi.

    A state is its sum_n C_n in the sequence ``totals`` and its A_k,
    k = 1, ..., N - 1, in the sequence ``autocorrs``; each is read once.
    Like :func:`quadrature_rates`, one list per state holds one rate per
    phi. The kernel's series are evaluated once per bond, up to the
    longest chain, and each state sums its own N - 1 bonds in k order
    into two phi-free moments, S = sum_k A_k s(k x) and
    G = sum_k A_k g(k x). Each phi then costs O(1):
    sum_k A_k (F - 1) = 1.5 (a S + b G) with (a, b) from
    :func:`_phi_weights`. A rate below zero by at most 1e-12 is roundoff
    and is returned as 0; a lower one raises ValueError.
    """
    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    parts = [_kernel_parts(k * x) for k in range(1, max(map(len, autocorrs)) + 1)]
    weights = [_phi_weights(phi) for phi in phi_list]
    rates = []
    for total, autocorr in zip(totals, autocorrs):
        n = len(autocorr) + 1
        s_sum = g_sum = 0.0
        for a_k, (s, g) in zip(autocorr, parts):
            s_sum += a_k * s
            g_sum += a_k * g
        base = float(total) ** 2 / n
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

    1 + (2/N) sum_{n<m} C_n C_m F is evaluated as
    (sum_n C_n)^2/N + (2/N) sum_k A_k (F(k x, phi) - 1): the constant part
    collapses exactly, so nearly dark states keep their tiny rates
    instead of dissolving into cancellation noise. A_k = sum_n C_n C_{n+k}
    is correlated in exact integers by :func:`bond_autocorrelation`, and
    the kernel is evaluated once per bond length. The all-plus state has
    A_k = N - k, the number of bonds of length k.
    """
    autocorr = bond_autocorrelation(state)
    rate = closed_form_rates((sum(state.coeffs),), (autocorr,), x, (phi,))[0][0]
    return DampingResult(rate, "closed_form", state, x, phi)


def relative_error(closed: float, quadrature: float) -> float:
    """Closed-form vs quadrature mismatch, relative to the larger rate."""
    return abs(closed - quadrature) / max(abs(closed), abs(quadrature), 1e-300)


def _power_spectrum(y, coeffs):
    """|sum_n C_n e^{i n y}|^2 at the points y, for each row of ``coeffs``.

    ``coeffs`` is one state's C_n, or an array of states (the last axis
    runs over the atoms); the result has shape coeffs.shape[:-1] + y.shape.
    """
    import numpy as np

    # by Horner's rule over z = e^{iy}: |z| = 1, so the common factor z
    # drops out of the modulus
    z = np.exp(1j * np.asarray(y, dtype=float))
    c = np.asarray(coeffs, dtype=complex)
    lead = c.shape[:-1]
    c = np.moveaxis(c, -1, 0).reshape(c.shape[-1:] + lead + (1,) * z.ndim)
    p = np.empty(lead + z.shape, dtype=complex)
    p[...] = c[-1]
    for c_n in c[-2::-1]:
        p *= z
        p += c_n
    return p.real * p.real + p.imag * p.imag


def _angular_weight(y, x: float, cos2phi: float):
    """The golden-rule weight (1 + cos^2 phi) - (y^2/x^2)(3 cos^2 phi - 1)."""
    return (1.0 + cos2phi) - (y * y) / (x * x) * (3.0 * cos2phi - 1.0)


@functools.cache
def _panel_rule():
    """The nodes on [0, 1] of both Gauss-Legendre rules (the ORACLE_NODES
    ones first), and each rule's weights."""
    import numpy as np

    t_hi, w_hi = np.polynomial.legendre.leggauss(ORACLE_NODES)
    t_lo, w_lo = np.polynomial.legendre.leggauss(ORACLE_CHECK_NODES)
    return 0.5 * (np.concatenate([t_hi, t_lo]) + 1.0), 0.5 * w_hi, 0.5 * w_lo


def _oracle_work(n: int, xs) -> float:
    """Horner steps the oracle takes for an n-atom state over the points xs.

    An upper bound: a point's ceil(N x / ORACLE_PANEL_SPAN) panels are
    counted as N x / ORACLE_PANEL_SPAN + 1, in floats, so the sum is
    finite, or inf, for any finite x instead of overflowing.
    """
    nodes = ORACLE_NODES + ORACLE_CHECK_NODES
    return sum(n * nodes * (n * x / ORACLE_PANEL_SPAN + 1.0) for x in xs)


def quadrature_rates(states, x: float, phi_list) -> list[list[float]]:
    """Golden-rule rates of equal-length sign states at x, for each phi.

    Integrates (3/(8 x N)) int_{-x}^{x} dy |sum_n C_n e^{-i n y}|^2
    [(1 + cos^2 phi) - (y^2/x^2)(3 cos^2 phi - 1)]; the prefactor is
    fixed by the single-atom normalization (N = 1 gives exactly 1).
    The integrand is even in y, so only [0, x] is integrated. Returns
    one list per state, holding one rate per phi.

    The integrand is a trigonometric polynomial of degree N - 1 times a
    quadratic in y, so a composite Gauss-Legendre rule with
    max(1, ceil(N x / ORACLE_PANEL_SPAN)) panels converges exponentially.
    Its error estimate is the difference from a rule of
    ORACLE_CHECK_NODES on the same panels, but no less than the rounding
    floor QUADPACK puts under its estimates, 50 eps times the integral of
    |f| (the integrand is non-negative, so that is the value itself).
    QuadratureAccuracyError, naming the first state and phi in order,
    is raised when an estimate, scaled like the rate, exceeds ORACLE_TOL;
    OverflowError, when a rate or an estimate is not finite (an x so
    small that x^2 underflows).

    The states share the nodes: |sum_n C_n z^n|^2 is evaluated once for
    all of them, by Horner's rule over a (states x nodes) array, and
    weighted for each phi. Blocks hold at most ORACLE_BLOCK_PANELS
    state-panels, which bounds memory. A state's panels share one block
    unless there are more of them, and each state's panels are reduced by
    their own matrix-vector product and sum, so each rate is bitwise the
    same whichever states it is batched with. The oracle stays
    independent of A_k and the kernel.
    """
    import numpy as np

    if not x > 0:
        raise ValueError(f"separation must be > 0, got x={x}")
    n = states[0].n
    if any(state.n != n for state in states):
        raise ValueError("the states of one batch must have the same length")
    nodes, w_hi, w_lo = _panel_rule()
    cos2 = [math.cos(phi) ** 2 for phi in phi_list]
    panels = max(1, math.ceil(n * x / ORACLE_PANEL_SPAN))
    width = x / panels
    coeffs = np.array([state.coeffs for state in states], dtype=complex)
    value = np.zeros((len(states), len(cos2)))
    check = np.zeros_like(value)
    step = min(panels, ORACLE_BLOCK_PANELS)  # panels per block
    batch = ORACLE_BLOCK_PANELS // step  # states per block
    # an x whose square underflows gives nan and inf, rejected below
    # rather than warned about
    with np.errstate(all="ignore"):
        for start in range(0, len(states), batch):
            rows = slice(start, start + batch)
            for first in range(0, panels, step):
                edges = width * np.arange(first, min(first + step, panels))
                y = edges[:, None] + width * nodes
                power = _power_spectrum(y, coeffs[rows])
                for j, cos2phi in enumerate(cos2):
                    f = power * _angular_weight(y, x, cos2phi)
                    hi = (f[..., :ORACLE_NODES] @ w_hi).sum(axis=-1)
                    lo = (f[..., ORACLE_NODES:] @ w_lo).sum(axis=-1)
                    value[rows, j] += hi * width
                    check[rows, j] += lo * width
        scale = 2.0 * 3.0 / (8.0 * x * n)
        rates = value * scale
        floor = 50.0 * sys.float_info.epsilon * np.abs(value)
        errors = np.maximum(np.abs(value - check), floor) * scale
    if not (np.isfinite(rates).all() and np.isfinite(errors).all()):
        raise OverflowError(f"the quadrature oracle is not finite at x={x!r}")
    over = np.argwhere(errors > ORACLE_TOL)
    if len(over):
        i, j = over[0]
        raise QuadratureAccuracyError(
            achieved=float(errors[i, j]), requested=ORACLE_TOL,
            estimate=float(rates[i, j]), state=states[i], x=x, phi=phi_list[j],
        )
    return rates.tolist()


def n_scaling_sweep(n_max: int, x: float, phi_list) -> SweepTable:
    """Symmetric-state rate vs chain length, one column per polarization.

    The kernel is evaluated once per bond length k < n_max and shared by
    every N; each row is the rate damping_general gives for
    symmetric_state(N), whose A_k = N - k. The moments do not depend on
    phi, so a sweep sums n_max (n_max - 1)/2 bond terms however many
    polarizations it has; one over CLOSED_FORM_TERM_BUDGET is refused
    with ValueError before any work.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    phi_list = list(phi_list)
    check_work(
        f"the closed form over N = 1..{n_max}",
        n_max * (n_max - 1) / 2, "bond terms", CLOSED_FORM_TERM_BUDGET,
        "use a shorter chain",
    )
    columns = ["N"] + phi_columns("gamma", phi_list)
    sizes = range(1, n_max + 1)
    rates = closed_form_rates(sizes, [range(n - 1, 0, -1) for n in sizes], x, phi_list)
    rows = [(n, *row) for n, row in zip(sizes, rates)]
    return SweepTable(columns=columns, rows=rows)


def angle_sweep(n: int, x: float, phi_grid) -> SweepTable:
    """Symmetric-state rate vs polarization angle: the chain's N - 1 bond
    terms are summed once into phi-free moments, and each angle costs
    O(1). A chain whose N - 1 exceeds CLOSED_FORM_TERM_BUDGET is refused
    with ValueError before any work."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phis = [float(p) for p in phi_grid]
    check_work(
        f"the closed form at N={n}", n - 1, "bond terms", CLOSED_FORM_TERM_BUDGET,
        "use a shorter chain",
    )
    (rates,) = closed_form_rates((n,), (range(n - 1, 0, -1),), x, phis)
    rows = [(math.degrees(p), rate) for p, rate in zip(phis, rates)]
    return SweepTable(columns=["phi_deg", "gamma"], rows=rows)


def x_sweep(
    state: SignState, x_min: float, x_max: float, n_points: int, phi_list,
    oracle: bool = False,
) -> SweepTable:
    """Rate of a fixed state vs dimensionless separation.

    With ``oracle=True`` a quadrature column is added per polarization
    and the footer records the worst closed-form/quadrature mismatch; a
    grid whose oracle work exceeds ORACLE_NODE_BUDGET, or whose
    n_points (N - 1) bond terms, with a bond on the kernel's series branch
    counted as 10, exceed CLOSED_FORM_TERM_BUDGET, is refused with
    ValueError before any work. Each x shares one pair of moments,
    and one oracle batch, among all polarizations.
    """
    if not 0 < x_min < x_max:
        raise ValueError(f"need 0 < x_min < x_max, got [{x_min}, {x_max}]")
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    grid = linspace(x_min, x_max, n_points)
    if oracle:
        check_work(
            f"the quadrature oracle over {n_points} points up to x={x_max:g} "
            f"at N={state.n}",
            _oracle_work(state.n, grid), "Horner steps", ORACLE_NODE_BUDGET,
            "use fewer points, a smaller x range or a shorter chain",
        )
    phi_list = list(phi_list)
    # the bonds k < F_SERIES_THRESHOLD / x are on the kernel's series
    # branch; each weighs 10 terms
    bonds = state.n - 1
    series = sum(
        math.ceil(F_SERIES_THRESHOLD / x) - 1 if x > F_SERIES_THRESHOLD / state.n
        else bonds
        for x in grid
    )
    check_work(
        f"the closed form over {n_points} points at N={state.n}",
        n_points * bonds + 9 * series, "bond terms", CLOSED_FORM_TERM_BUDGET,
    )
    columns = ["x"] + phi_columns("gamma", phi_list)
    if oracle:
        columns += phi_columns("gamma_quadrature", phi_list)
    totals, autocorrs = (sum(state.coeffs),), (bond_autocorrelation(state),)
    rows = []
    max_rel_err = 0.0
    for x in grid:
        (closed,) = closed_form_rates(totals, autocorrs, x, phi_list)
        row = [x] + closed
        if oracle:
            quads = quadrature_rates([state], x, phi_list)[0]
            row += quads
            for cf, qd in zip(closed, quads):
                max_rel_err = max(max_rel_err, relative_error(cf, qd))
        rows.append(tuple(row))
    footer = [f"max_rel_err={max_rel_err:.3e}"] if oracle else []
    return SweepTable(columns=columns, rows=rows, footer=footer)
