"""Retarded far-field emission intensity of the chain.

The observation point sits on the x axis at (x, 0, 0); the atoms sit on
the z axis at R_n = (n-1) a. Each atom radiates a far-zone dipole field
with its own retardation t_n = |r - R_n|/c and dipole angle
phi_n = pi - phi - alpha_n, tan(alpha_n) = x/R_n. Every correlator
decays at the single-atom rate (independent-atom regime, q_a a > 1);
intensities are reported relative to

    I_0(x) = mu^2 omega_a^4 / (16 pi^2 epsilon_0 c^3 x^2).
"""

import math
from collections import namedtuple

from .scales import (
    ANGSTROM,
    ELEMENTARY_CHARGE,
    EPSILON_0,
    SPEED_OF_LIGHT,
    AtomicScales,
    CausalityError,
)
from .states import SignState
from .sweeps import SweepTable, _phi_weights, check_work, format_value, linspace

#: Most atom-points (grid points times N) one sweep may evaluate. Each
#: point is one pass over the N atoms, about 220-290 ns per atom at
#: N >= 1000 on a 2-vCPU host, so the budget is about 2-3 s of work; a
#: grid over it is refused before any work.
EMISSION_WORK_BUDGET = 1e7


def lattice_grid(lo: float, hi: float, num: int) -> "np.ndarray":
    """``num`` lattice constants in m, log-spaced from lo to hi Angstrom (in
    either order, both finite and > 0, or ValueError): the grid of
    ``emission`` and of figures 16-20. The exponents come from :func:`linspace`,
    which bounds ``num``, and 10 to their power is bit-equal to numpy.logspace.
    A power that rounds past DBL_MAX is inf, without a warning, for
    :func:`emission_sweep` to refuse."""
    import numpy as np

    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValueError(f"need 0 < lo < inf and 0 < hi < inf Angstrom, got [{lo}, {hi}]")
    with np.errstate(over="ignore"):
        return np.power(10.0, linspace(math.log10(lo), math.log10(hi), num)) * ANGSTROM


def latest_retardation(n: int, a_grid, obs_x: float) -> "np.ndarray":
    """|r - R_N|/c in seconds at each lattice constant of ``a_grid``, as an
    array of at least one dimension: when the last (farthest) atom's light
    reaches (obs_x, 0, 0), bitwise the last atom's dist / c in the
    intensity sum. The causality check and the default time use this one
    rule."""
    import numpy as np

    return np.hypot(obs_x, (n - 1) * np.atleast_1d(a_grid)) / SPEED_OF_LIGHT


def reference_intensity(scales: AtomicScales, mu_e_angstrom: float, obs_x: float) -> float:
    """I_0(x) in W/m^2; OverflowError, naming obs_x in Angstrom, where it is
    not finite."""
    mu = mu_e_angstrom * ELEMENTARY_CHARGE * ANGSTROM
    try:
        i0 = mu**2 * scales.omega_a**4 / (
            16.0 * math.pi**2 * EPSILON_0 * SPEED_OF_LIGHT**3 * (obs_x * obs_x)
        )
    # float ** raises where * would give inf, and / where obs_x^2 underflows
    except (OverflowError, ZeroDivisionError):
        i0 = math.inf
    if i0 == math.inf:
        raise OverflowError(
            f"the reference intensity at obs_x={obs_x / ANGSTROM:.6g} A is not finite"
        )
    return i0


def _point_intensity(
    coeffs: "np.ndarray", index: "np.ndarray", a: float, phi: float, obs_x: float,
    scales: AtomicScales, t: float,
) -> float:
    """Scaled intensity I(r, t)/I_0(x) for the sign state ``coeffs`` on a
    chain of spacing a >= 0 (coincident atoms allowed), polarization phi,
    observed at (obs_x, 0, 0) at time t; ``emission_sweep`` checks them and
    builds ``coeffs`` and the atom indices ``index`` (0..N-1) once.

    The pair correlations C_i C_j / N are rank one, so the per-atom and
    pairwise interference terms collapse into one squared amplitude sum,

        I/I_0 = (x^2/2N) |sum_n C_n (sin phi_n/d_n)
                          e^{-gamma (t - t_n)/2} e^{i omega (t_n - t_0)} u_n|^2,

    with d_n = |r - R_n|, t_n = d_n/c and u_n = (r - R_n)/d_n: each atom
    carries its own retardation in both the decay envelope and the phase.
    Only phase differences enter, so they are taken relative to t_0, the
    first atom's retardation.
    """
    import numpy as np

    n = index.size
    atom_z = a * index
    dist = np.hypot(obs_x, atom_z)
    # alpha = arctan(obs_x / R); atan2 gives pi/2 at R = 0
    alpha = np.arctan2(obs_x, atom_z)
    phi_n = math.pi - phi - alpha
    # the field has no y component: atoms and observer share the xz plane
    unit = np.column_stack([np.full(n, obs_x), -atom_z]) / dist[:, None]
    tn = dist / SPEED_OF_LIGHT
    amplitude = (
        coeffs * np.sin(phi_n) / dist
        * np.exp(-0.5 * scales.gamma_a * (t - tn))
        * np.exp(1j * (scales.omega_a * (tn - tn[0])))
    )
    field = amplitude @ unit
    # the 1/2 turns the 32 pi^2 field prefactor into I_0/2
    return 0.5 * (obs_x * obs_x) / n * float(np.vdot(field, field).real)


class IntensityTrace(namedtuple("IntensityTrace", "table reference_intensity")):
    """Scaled-intensity trace over a lattice-constant grid, with
    I_0(x) in W/m^2 as ``reference_intensity``."""

    __slots__ = ()


def emission_sweep(
    state: SignState,
    a_grid,
    phi: float,
    obs_x: float,
    t: float | None,
    scales: AtomicScales,
    mu_e_angstrom: float,
) -> IntensityTrace:
    """Intensity-vs-lattice-constant trace for a fixed state at time t, or
    with t None at the grid's latest retardation (the first causal time).

    Before any sum, ValueError refuses a grid that is not one-dimensional,
    is empty or is over EMISSION_WORK_BUDGET (points times N), an obs_x not
    finite and > 0, a lattice constant not finite and >= 0, a non-finite t
    or phi or a dipole not finite and > 0, and CausalityError names the
    first point whose light arrives after t. Then, still before any sum, a
    non-finite I_0 (:func:`reference_intensity`) is OverflowError, and
    after the sums so is a non-finite intensity, obs_x^2 overflowing
    included. Lengths in messages are in Angstrom.
    """
    import numpy as np

    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1:
        raise ValueError(
            f"the lattice-constant grid must be one-dimensional, got shape {a_grid.shape}"
        )
    if a_grid.size == 0:
        raise ValueError("empty lattice-constant grid")
    check_work(
        f"emission over {a_grid.size} points at N={state.n}",
        a_grid.size * state.n, "atom-points", EMISSION_WORK_BUDGET,
    )
    if not 0 < obs_x < math.inf:
        finite = " and finite" if obs_x > 0 else ""
        raise ValueError(f"obs_x must be > 0{finite}, got {obs_x / ANGSTROM:.6g} A")
    bad = a_grid[~(np.isfinite(a_grid) & (a_grid >= 0))]
    if bad.size:
        raise ValueError(
            f"lattice constant must be finite and >= 0, got {bad[0] / ANGSTROM:.6g} A"
        )
    # (n - 1) a, and amplitudes of about 1/obs_x squared, can overflow: no
    # warning, but a causality check and one finiteness check of the column
    with np.errstate(all="ignore"):
        t_last = latest_retardation(state.n, a_grid, obs_x)
        if t is None:
            t = float(t_last.max())
        if not math.isfinite(t):
            raise ValueError(f"observation time must be finite, got {t}")
        _phi_weights(phi)  # the one angle rule refuses a non-finite phi
        if not 0 < mu_e_angstrom < math.inf:
            raise ValueError(f"dipole moment must be finite and > 0, got {mu_e_angstrom}")
        late = np.flatnonzero(t < t_last)
        if late.size:
            raise CausalityError(
                f"grid point a={a_grid[late[0]] / ANGSTROM:.6g} A violates causality: "
                f"t={t!r} s < retardation {float(t_last[late[0]])!r} s"
            )
        i0 = reference_intensity(scales, mu_e_angstrom, obs_x)
        coeffs, index = np.array(state.coeffs), np.arange(state.n, dtype=float)
        rows = [
            (a / ANGSTROM, _point_intensity(coeffs, index, float(a), phi, obs_x, scales, t))
            for a in a_grid
        ]
    if not np.isfinite([value for _, value in rows]).all():
        raise OverflowError(
            f"the intensity at obs_x={obs_x / ANGSTROM:.6g} A is not finite"
        )
    table = SweepTable(
        columns=["a_angstrom", "intensity_ratio"],
        rows=rows,
        metadata={
            "state": str(state),
            "phi_deg": format_value(math.degrees(phi)),
            "obs_x_angstrom": format_value(obs_x / ANGSTROM),
            "t_s": format_value(t),
        },
    )
    return IntensityTrace(table=table, reference_intensity=i0)
