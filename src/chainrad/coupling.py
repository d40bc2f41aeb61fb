"""Radiative energy-transfer coupling between two emitters.

The exact retarded coupling between two identical two-level atoms a
dimensionless distance x = q_a * R apart, with transition dipoles tilted
by phi from the interatomic axis, is

    J(x, phi)/gamma_a = (3/4) { [sin x/x^2 + cos x/x^3] (1 - 3 cos^2 phi)
                                - (cos x/x) (1 - cos^2 phi) }.

Dropping the radiative terms (x << 1) leaves the electrostatic resonance
dipole-dipole interaction (3/4)(1 - 3 cos^2 phi)/x^3.
"""

import math

from .sweeps import SweepTable, _phi_weights, _separation, phi_columns, x_grid

def _finite(j: float, x: float) -> float:
    """``j``, or OverflowError when it is not finite: below about x = 1.8e-103,
    x^3 is subnormal and 1/x^3 overflows to inf without raising, and below
    about 1.4e-108 x^3 is 0, where the couplings take 1/x^3 as inf too."""
    if not math.isfinite(j):
        raise OverflowError(f"the coupling is not finite at x={x!r}")
    return j


def transfer_exact(x: float, phi: float) -> float:
    """Exact radiative coupling J/gamma_a at dimensionless separation x.

    The bracket sin x/x^2 + cos x/x^3 is evaluated as written at every x:
    near 0 its 1/x^3 part dominates, so the two terms do not cancel. Where
    x^3 overflows it is (sin x + cos x/x)/x/x, the same bracket.
    """
    _separation(x)
    a, b = _phi_weights(phi)
    try:
        bracket = math.sin(x) / x**2 + math.cos(x) / x**3
    except OverflowError:  # x^3 > DBL_MAX
        bracket = (math.sin(x) + math.cos(x) / x) / x / x
    except ZeroDivisionError:  # x^3 underflows to 0
        bracket = math.inf
    return _finite(0.75 * (b * bracket - a * (math.cos(x) / x)), x)


def transfer_electrostatic(x: float, phi: float) -> float:
    """Electrostatic resonance dipole-dipole limit of J/gamma_a."""
    _separation(x)
    _, b = _phi_weights(phi)
    try:
        j = 0.75 * b / x**3
    except OverflowError:  # x^3 > DBL_MAX
        j = 0.75 * b / x / x / x
    except ZeroDivisionError:  # x^3 underflows to 0
        j = math.inf
    return _finite(j, x)


def coupling_sweep(
    x_min: float, x_max: float, n_points: int, phi_list
) -> SweepTable:
    """Uniform x-grid sweep of the exact and electrostatic couplings.

    One exact and one electrostatic column per polarization angle; a
    one-point grid is x_min alone. The grid comes from
    :func:`~chainrad.sweeps.x_grid`, which refuses a bad x range or an
    n_points outside 1..MAX_POINTS before any point is built.
    """
    grid = x_grid(x_min, x_max, n_points)
    phi_list = list(phi_list)
    columns = (
        ["x"] + phi_columns("J_exact", phi_list) + phi_columns("J_approx", phi_list)
    )
    rows = []
    for x in grid:
        row = [x]
        row += [transfer_exact(x, p) for p in phi_list]
        row += [transfer_electrostatic(x, p) for p in phi_list]
        rows.append(tuple(row))
    return SweepTable(columns=columns, rows=rows)
