"""Chain configuration and derived single-atom scales.

The configuration speaks the units the quantum-optics literature uses,
the same in the JSON config, on the CLI, in the CSV metadata and in
:class:`ChainConfig`: eV for transition energies, Angstrom for lengths,
e*Angstrom for transition dipoles, degrees for the polarization angle.
:func:`derive_scales` turns them into the SI scales everything else uses.
"""

import math

from .frozen import Frozen

ANGSTROM = 1e-10  # m

#: Longest chain any command, angle_sweep or n_scaling_sweep accepts. A
#: rate costs O(N^2) in the bond autocorrelation and ``nscaling``
#: O(N_max^2) in Python multiply-adds, so a mistyped length is rejected
#: before it starts hours of work.
MAX_ATOMS = 10_000

# CODATA 2022 values, written out so every derived number and CSV header
# stays the same whatever CODATA edition the installed scipy ships.
HBAR = 1.0545718176461565e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m/s, exact
EPSILON_0 = 8.8541878188e-12  # F/m
ELEMENTARY_CHARGE = 1.602176634e-19  # C, exact

#: CODATA constants frozen into every CSV metadata header.
CODATA = {
    "hbar_J_s": HBAR,
    "c_m_s": SPEED_OF_LIGHT,
    "epsilon_0_F_m": EPSILON_0,
    "elementary_charge_C": ELEMENTARY_CHARGE,
}


class ConfigError(ValueError):
    """A chain configuration failed validation or could not be parsed."""


class CausalityError(ValueError):
    """Intensity requested before the light from some atom can arrive."""


def _number(key: str, value, error=ConfigError) -> float:
    """``value`` as a finite float, or an ``error`` whose message starts
    with ``key``. A bool, which Python would take as 0 or 1, and a string
    are refused: only :func:`config_from_dict` reads text."""
    if isinstance(value, bool) or not hasattr(value, "__float__"):
        raise error(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise error(f"{key} is too large for a float") from None
    if not math.isfinite(number):
        raise error(f"{key} must be finite, got {value}")
    return number


def _chain_length(key: str, value, error=ConfigError) -> int:
    """``value`` as a chain length: a :func:`_number` that is a whole number
    in 1..MAX_ATOMS, a whole float such as 3.0 read as the int 3, or an
    ``error`` whose message starts with ``key``. The one rule of
    ChainConfig's n_atoms and the sweeps' chain lengths."""
    n = _number(key, value, error)
    if not (n.is_integer() and 1 <= n <= MAX_ATOMS):
        raise error(f"{key} must be a whole number in 1..{MAX_ATOMS}, got {value}")
    return int(n)


def _positive(key: str, value) -> float:
    """:func:`_number`, which must also be > 0."""
    number = _number(key, value)
    if not number > 0:
        raise ConfigError(f"{key} must be > 0, got {value}")
    return number


class ChainConfig(Frozen):
    """Physical description of the emitter chain. Each field is the JSON
    config key of the same name, in that key's unit.

    Parameters
    ----------
    n_atoms : int
        Number of atoms N on the chain, 1 <= N <= ``MAX_ATOMS``; a whole
        float such as 3.0 is stored as the int 3.
    lattice_const_angstrom : float
        Lattice constant a in Angstrom.
    transition_energy_ev : float
        Two-level transition energy E_A in eV.
    dipole_e_angstrom : float
        Transition dipole magnitude in e*Angstrom.
    polarization_deg : float
        Angle between the transition dipole and the chain axis, degrees.
        Only cos^2 of the angle ever enters, so values outside [0, 90]
        are folded back into that interval.
    gamma_override_hz : float or None
        Single-atom damping rate in 1/s that replaces the derived
        value when given.

    Every other number is stored as a float. A value that is not a
    number, is not finite, or is out of range raises a
    :class:`ConfigError` whose message starts with its key.
    """

    __slots__ = (
        "n_atoms", "lattice_const_angstrom", "transition_energy_ev",
        "dipole_e_angstrom", "polarization_deg", "gamma_override_hz",
    )

    def __init__(
        self,
        n_atoms: int,
        lattice_const_angstrom: float,
        transition_energy_ev: float,
        dipole_e_angstrom: float,
        polarization_deg: float = 0.0,
        gamma_override_hz: float | None = None,
    ):
        n = _chain_length("n_atoms", n_atoms)
        a = _positive("lattice_const_angstrom", lattice_const_angstrom)
        energy = _positive("transition_energy_ev", transition_energy_ev)
        dipole = _positive("dipole_e_angstrom", dipole_e_angstrom)
        if gamma_override_hz is not None:
            gamma_override_hz = _positive("gamma_override_hz", gamma_override_hz)
        # cos^2 is even, so fold |phi|: fmod, abs and 180 - phi on [90, 180]
        # (Sterbenz) are exact, and -phi folds to phi's bits, never to -0.0
        phi = math.fmod(abs(_number("polarization_deg", polarization_deg)), 180.0)
        if phi > 90.0:
            phi = 180.0 - phi
        super().__init__(n, a, energy, dipole, phi, gamma_override_hz)


class AtomicScales(Frozen):
    """Single-atom scales derived from a :class:`ChainConfig`.

    All fields are SI: omega_a in rad/s, q_a in 1/m, lambda_a in m,
    gamma_a in 1/s; ``qa_a`` is the dimensionless lattice constant
    q_a * a.
    """

    __slots__ = ("omega_a", "q_a", "lambda_a", "gamma_a", "qa_a")

    def __init__(
        self, omega_a: float, q_a: float, lambda_a: float, gamma_a: float, qa_a: float
    ):
        super().__init__(omega_a, q_a, lambda_a, gamma_a, qa_a)


def _in_range(name: str, value: float) -> float:
    """``value`` if it is finite and > 0, else a :class:`ConfigError`."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(
            f"derived scale {name} = {value} is not finite and > 0; "
            f"the configuration is outside double-precision range"
        )
    return value


def derive_scales(config: ChainConfig) -> AtomicScales:
    """Derive frequency, wavenumber, wavelength, damping rate and q_a * a.

    This is the one place where the config's external units (Angstrom,
    eV, e*Angstrom) become SI. The damping rate is the free-space
    spontaneous emission rate of a single excited two-level atom,

        gamma_a = omega_a^3 mu^2 / (3 pi epsilon_0 hbar c^3),

    unless the config carries a ``gamma_override_hz``. Raises
    :class:`ConfigError` when a derived scale, or q_a * a, overflows or
    underflows: every input is finite, but their products need not be.
    """
    energy_j = config.transition_energy_ev * ELEMENTARY_CHARGE
    omega_a = _in_range("omega_a", energy_j / HBAR)
    q_a = _in_range("q_a", energy_j / (HBAR * SPEED_OF_LIGHT))
    lambda_a = _in_range("lambda_a", 2.0 * math.pi / q_a)
    qa_a = _in_range("q_a * a", q_a * (config.lattice_const_angstrom * ANGSTROM))
    if config.gamma_override_hz is not None:
        gamma_a = config.gamma_override_hz
    else:
        mu_si = config.dipole_e_angstrom * ELEMENTARY_CHARGE * ANGSTROM
        try:
            gamma_a = omega_a**3 * mu_si**2 / (
                3.0 * math.pi * EPSILON_0 * HBAR * SPEED_OF_LIGHT**3
            )
        except OverflowError:  # float ** raises where * would give inf
            gamma_a = math.inf
        gamma_a = _in_range("gamma_a", gamma_a)
    return AtomicScales(
        omega_a=omega_a, q_a=q_a, lambda_a=lambda_a, gamma_a=gamma_a, qa_a=qa_a
    )


def config_from_dict(data: dict) -> ChainConfig:
    """Build a ChainConfig from the JSON key set; values are numbers or,
    as ``--set`` gives them, strings, which are read with ``float()``."""
    unknown = set(data) - set(ChainConfig.__slots__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # the first four fields have no default
    missing = set(ChainConfig.__slots__[:4]) - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    values = {}
    for key, value in data.items():
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"{key} must be a number, got {value!r}") from None
        values[key] = value
    return ChainConfig(**values)


def read_config_dict(path) -> dict:
    """The JSON object in ``path`` as written: what :func:`config_from_dict`
    takes, before any key is checked."""
    import json  # only --config reads JSON; the other commands skip its import

    try:
        with open(path) as fh:
            data = json.load(fh)
    # ValueError: malformed JSON, text that is not UTF-8, or an integer
    # longer than the interpreter converts
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def config_to_dict(config: ChainConfig) -> dict:
    """The config's fields as its JSON keys; an unset gamma_override_hz is
    left out. Inverse of :func:`config_from_dict`."""
    return {
        key: value
        for key, value in zip(config.__slots__, config._values())
        if value is not None
    }
