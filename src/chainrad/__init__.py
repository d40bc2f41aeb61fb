"""Collective radiative properties of a finite 1-D chain of two-level emitters."""

from .scales import (
    AtomicScales,
    CausalityError,
    ChainConfig,
    ConfigError,
    config_from_dict,
    config_from_json,
    derive_scales,
    dimensionless_separation,
)
from .coupling import (
    coupling_sweep,
    transfer_electrostatic,
    transfer_exact,
)
from .states import (
    SignState,
    alternating_state,
    enumerate_sign_states,
    symmetric_state,
)
from .damping import (
    DampingResult,
    QuadratureAccuracyError,
    angle_sweep,
    damping_general,
    damping_quadrature_oracle,
    f_kernel,
    n_scaling_sweep,
)
from .sweeps import SweepTable

#: Names served by the emission module, the one that needs numpy at
#: import; it is loaded on first access (PEP 562), so the other commands
#: never import numpy.
_EMISSION_NAMES = frozenset(
    {"EmissionGeometry", "IntensityTrace", "emission_sweep", "total_intensity"}
)


def __getattr__(name):
    if name in _EMISSION_NAMES:
        from . import emission

        return getattr(emission, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "0.1.0"

__all__ = [
    "AtomicScales",
    "CausalityError",
    "ChainConfig",
    "ConfigError",
    "DampingResult",
    "EmissionGeometry",
    "IntensityTrace",
    "QuadratureAccuracyError",
    "SignState",
    "SweepTable",
    "alternating_state",
    "angle_sweep",
    "config_from_dict",
    "config_from_json",
    "coupling_sweep",
    "damping_general",
    "damping_quadrature_oracle",
    "derive_scales",
    "dimensionless_separation",
    "emission_sweep",
    "enumerate_sign_states",
    "f_kernel",
    "n_scaling_sweep",
    "symmetric_state",
    "total_intensity",
    "transfer_electrostatic",
    "transfer_exact",
]
