"""Collective radiative properties of a finite 1-D chain of two-level emitters.

No module imports numpy at import: the functions that need it import it."""

__version__ = "0.1.0"

from .scales import (
    AtomicScales, CausalityError, ChainConfig, ConfigError, config_from_dict,
    derive_scales,
)
from .coupling import coupling_sweep, transfer_exact
from .states import SignState, alternating_state, symmetric_state
from .damping import (
    DampingResult, QuadratureAccuracyError, angle_sweep, damping_general,
    f_kernel, n_scaling_sweep, quadrature_rates,
)
from .emission import IntensityTrace, emission_sweep
from .sweeps import SweepTable

__all__ = [
    "AtomicScales", "CausalityError", "ChainConfig", "ConfigError",
    "DampingResult", "IntensityTrace", "QuadratureAccuracyError", "SignState",
    "SweepTable", "alternating_state", "angle_sweep", "config_from_dict",
    "coupling_sweep", "damping_general", "derive_scales", "emission_sweep",
    "f_kernel", "n_scaling_sweep", "quadrature_rates", "symmetric_state",
    "transfer_exact",
]
