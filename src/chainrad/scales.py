"""Chain configuration and derived single-atom scales.

Internally everything is SI. The boundary formats (JSON config, CLI,
CSV metadata) speak the units the quantum-optics literature uses:
eV for transition energies, Angstrom for lengths, e*Angstrom for
transition dipoles, degrees for the polarization angle.
"""

import math

from .frozen import Frozen

ANGSTROM = 1e-10  # m

#: Longest chain any command accepts. A rate costs O(N^2) in the bond
#: autocorrelation and ``nscaling`` O(N_max^2) in Python multiply-adds,
#: so a mistyped length is rejected before it starts hours of work.
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


def _not_bool(name: str, value) -> None:
    """A ConfigError for a bool, which Python would take as the number 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, not a boolean ({value})")


class ChainConfig(Frozen):
    """Physical description of the emitter chain.

    Parameters
    ----------
    n_atoms : int
        Number of atoms N on the chain, 1 <= N <= ``MAX_ATOMS``; a whole
        float such as 3.0 is stored as the int 3.
    lattice_const : float
        Lattice constant a in meters.
    transition_energy : float
        Two-level transition energy E_A in eV.
    dipole_moment : float
        Transition dipole magnitude in e*Angstrom.
    polarization_angle : float
        Angle between the transition dipole and the chain axis, radians.
        Only cos^2 of the angle ever enters, so values outside
        [0, pi/2] are folded back into that interval.
    gamma_override : float or None
        Single-atom damping rate in 1/s that replaces the derived
        value when given.
    """

    __slots__ = (
        "n_atoms", "lattice_const", "transition_energy", "dipole_moment",
        "polarization_angle", "gamma_override",
    )

    def __init__(
        self,
        n_atoms: int,
        lattice_const: float,
        transition_energy: float,
        dipole_moment: float,
        polarization_angle: float = 0.0,
        gamma_override: float | None = None,
    ):
        values = (
            n_atoms, lattice_const, transition_energy, dipole_moment,
            polarization_angle, gamma_override,
        )
        for name, value in zip(self.__slots__, values):
            _not_bool(name, value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not 1 <= n_atoms <= MAX_ATOMS:
            raise ConfigError(f"n_atoms must be in 1..{MAX_ATOMS}, got {n_atoms}")
        if n_atoms != int(n_atoms):
            raise ConfigError(f"n_atoms must be a whole number, got {n_atoms}")
        if not lattice_const > 0:
            raise ConfigError(f"lattice_const must be > 0, got {lattice_const}")
        if not transition_energy > 0:
            raise ConfigError(
                f"transition_energy must be > 0, got {transition_energy}"
            )
        if not dipole_moment > 0:
            raise ConfigError(f"dipole_moment must be > 0, got {dipole_moment}")
        if gamma_override is not None and not gamma_override > 0:
            raise ConfigError(f"gamma_override must be > 0, got {gamma_override}")
        phi = math.fmod(polarization_angle, math.pi)
        if phi < 0:
            phi += math.pi
        if phi > math.pi / 2:
            phi = math.pi - phi
        super().__init__(
            int(n_atoms), lattice_const, transition_energy, dipole_moment, phi,
            gamma_override,
        )


class AtomicScales(Frozen):
    """Single-atom scales derived from a :class:`ChainConfig`.

    All fields are SI: omega_a in rad/s, q_a in 1/m, lambda_a in m,
    gamma_a in 1/s. ``gamma_overridden`` records whether gamma_a came
    from the config override instead of the radiative formula.
    """

    __slots__ = ("omega_a", "q_a", "lambda_a", "gamma_a", "gamma_overridden")

    def __init__(
        self,
        omega_a: float,
        q_a: float,
        lambda_a: float,
        gamma_a: float,
        gamma_overridden: bool = False,
    ):
        super().__init__(omega_a, q_a, lambda_a, gamma_a, gamma_overridden)


def _in_range(name: str, value: float) -> float:
    """``value`` if it is finite and > 0, else a :class:`ConfigError`."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(
            f"derived scale {name} = {value} is not finite and > 0; "
            f"the configuration is outside double-precision range"
        )
    return value


def derive_scales(config: ChainConfig) -> AtomicScales:
    """Derive frequency, wavenumber, wavelength and damping rate.

    The damping rate is the free-space spontaneous emission rate of a
    single excited two-level atom,

        gamma_a = omega_a^3 mu^2 / (3 pi epsilon_0 hbar c^3),

    unless the config carries a ``gamma_override``. Raises
    :class:`ConfigError` when a derived scale, or q_a * a, overflows or
    underflows: every input is finite, but their products need not be.
    """
    energy_j = config.transition_energy * ELEMENTARY_CHARGE
    omega_a = _in_range("omega_a", energy_j / HBAR)
    q_a = _in_range("q_a", energy_j / (HBAR * SPEED_OF_LIGHT))
    lambda_a = _in_range("lambda_a", 2.0 * math.pi / q_a)
    _in_range("q_a * a", q_a * config.lattice_const)
    if config.gamma_override is not None:
        gamma_a = config.gamma_override
        overridden = True
    else:
        mu_si = config.dipole_moment * ELEMENTARY_CHARGE * ANGSTROM
        try:
            gamma_a = omega_a**3 * mu_si**2 / (
                3.0 * math.pi * EPSILON_0 * HBAR * SPEED_OF_LIGHT**3
            )
        except OverflowError:  # float ** raises where * would give inf
            gamma_a = math.inf
        gamma_a = _in_range("gamma_a", gamma_a)
        overridden = False
    return AtomicScales(
        omega_a=omega_a,
        q_a=q_a,
        lambda_a=lambda_a,
        gamma_a=gamma_a,
        gamma_overridden=overridden,
    )


def dimensionless_separation(config: ChainConfig) -> float:
    """Lattice constant in units of the inverse transition wavenumber, q_a * a."""
    return derive_scales(config).q_a * config.lattice_const


# JSON config keys, all at the external-unit boundary.
_JSON_KEYS = {
    "n_atoms",
    "lattice_const_angstrom",
    "transition_energy_ev",
    "dipole_e_angstrom",
    "polarization_deg",
    "gamma_override_hz",
}


def config_from_dict(data: dict) -> ChainConfig:
    """Build a ChainConfig from the external JSON key set; values are
    numbers or, as ``--set`` gives them, strings."""
    unknown = set(data) - _JSON_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {
        "n_atoms",
        "lattice_const_angstrom",
        "transition_energy_ev",
        "dipole_e_angstrom",
    } - set(data)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    for key, value in data.items():  # float() would take a bool as 0 or 1
        _not_bool(key, value)
    n_atoms = data["n_atoms"]
    try:
        return ChainConfig(
            n_atoms=int(n_atoms) if isinstance(n_atoms, str) else n_atoms,
            lattice_const=float(data["lattice_const_angstrom"]) * ANGSTROM,
            transition_energy=float(data["transition_energy_ev"]),
            dipole_moment=float(data["dipole_e_angstrom"]),
            polarization_angle=math.radians(float(data.get("polarization_deg", 0.0))),
            gamma_override=(
                float(data["gamma_override_hz"])
                if data.get("gamma_override_hz") is not None
                else None
            ),
        )
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad config value: {exc}") from exc


def read_config_dict(path) -> dict:
    """The JSON object in ``path`` as written, in external units: what
    :func:`config_from_dict` takes, before any key is checked."""
    import json  # only --config reads JSON; the other commands skip its import

    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def config_from_json(path) -> ChainConfig:
    """Load a ChainConfig from a JSON file."""
    return config_from_dict(read_config_dict(path))


def config_to_dict(config: ChainConfig) -> dict:
    """Inverse of :func:`config_from_dict` (external units)."""
    out = {
        "n_atoms": config.n_atoms,
        "lattice_const_angstrom": config.lattice_const / ANGSTROM,
        "transition_energy_ev": config.transition_energy,
        "dipole_e_angstrom": config.dipole_moment,
        "polarization_deg": math.degrees(config.polarization_angle),
    }
    if config.gamma_override is not None:
        out["gamma_override_hz"] = config.gamma_override
    return out
