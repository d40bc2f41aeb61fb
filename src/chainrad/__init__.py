"""Collective radiative properties of a finite 1-D chain of two-level emitters."""

__version__ = "0.1.0"

#: Module -> the public names it defines. Each name is loaded on first
#: access (PEP 562), so ``import chainrad`` loads no submodule, and only
#: the emission names (the one module that needs numpy at import) load
#: numpy.
_PUBLIC = {
    "scales": (
        "AtomicScales", "CausalityError", "ChainConfig", "ConfigError",
        "config_from_dict", "derive_scales",
    ),
    "coupling": ("coupling_sweep", "transfer_exact"),
    "states": (
        "SignState", "alternating_state", "enumerate_sign_states", "symmetric_state",
    ),
    "damping": (
        "DampingResult", "QuadratureAccuracyError", "angle_sweep",
        "damping_general", "f_kernel", "n_scaling_sweep", "quadrature_rates",
    ),
    "emission": ("IntensityTrace", "emission_sweep"),
    "sweeps": ("SweepTable",),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        from importlib import import_module

        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
