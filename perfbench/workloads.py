"""Seeded inputs of the benchmark workloads and the in-process op runners.

Every op is a dict with at least ``id`` (stable within a seed), ``n`` (the
chain length that puts it in an ``op_s.N*`` class) and the arguments the
program receives. Inputs depend only on the workload name and the seed.

This module imports nothing from chainrad at module level, so a fresh
interpreter that calls :func:`make_inputs` pays exactly the imports the
workload needs; that is what ``setup_s`` measures.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_cold", "rates_scaling", "emission_scaling")

#: ``op_s.<name>`` collects ops whose chain length is at most the bound
#: and above the previous bound.
N_CLASSES = ((2, "N2"), (10, "N10"), (100, "N100"), (1000, "N1000"))

PHIS = (0.0, math.pi / 4, math.pi / 2)
STATE_KINDS = ("sym", "alt", "rand")

#: Chain length behind each CLI op: figures 2-5 are two-emitter
#: quantities, 7-9 and ``nscaling`` sweep N up to 200, ``verify`` runs
#: every sign state up to N = 8, and the subcommand defaults use N = 2.
FIGURE_N = {
    2: 2, 3: 2, 4: 2, 5: 2, 6: 5, 7: 200, 8: 200, 9: 200, 10: 100,
    11: 2, 12: 2, 13: 3, 14: 3, 16: 2, 17: 2, 18: 2, 19: 2, 20: 2,
}
SUBCOMMAND_N = {
    "scales": 2, "coupling": 2, "damping": 2, "nscaling": 200,
    "angles": 2, "emission": 2, "verify": 8,
}
#: Subcommands on a 100-atom chain, so that op_s.N100 is a median of four
#: CLI ops (with figure 10) rather than one; a single cold op varies by ~20%.
CLI_N100_OPS = {
    "angles_N100": ["angles", "--set", "n_atoms=100"],
    "damping_N100": ["damping", "--state", "alt", "--set", "n_atoms=100", "--points", "100"],
    "emission_N100": ["emission", "--state", "alt", "--set", "n_atoms=100", "--points", "50"],
}

RATE_NS = (2, 10, 100)
RATE_XS = (0.001, 0.5, 5.0)
#: The N = 1000 ops of one pass: near-dark alt and a random state with
#: every bond in the kernel's series branch, and sym in the direct branch.
RATE_N1000 = (("alt", 0.001), ("rand", 0.001), ("sym", 5.0))

EMISSION_NS = (2, 10)
EMISSION_LARGE_NS = (100,)
EMISSION_TOP_N = 128
EMISSION_GRID_POINTS = 200
#: Ops at N >= 100 each take one of this many interleaved slices of the
#: grid: the same work per pass in ~1 s ops instead of 4-7 s ones, which
#: the pace normalization in run.py tracks far better.
EMISSION_LARGE_SLICES = 4
EMISSION_GRID_ANGSTROM = (1e3, 1e7)
EMISSION_OBS_X_ANGSTROM = 1e6
#: Reference emission parameter set of figures 16-20.
EMISSION_CONFIG = {
    "n_atoms": 2,
    "lattice_const_angstrom": 1000.0,
    "transition_energy_ev": 1.0,
    "dipole_e_angstrom": 1.0,
    "gamma_override_hz": 1e8,
}
SPEED_OF_LIGHT = 299792458.0  # m/s, exact in SI
ANGSTROM = 1e-10


def n_class(n: int) -> str:
    for bound, name in N_CLASSES:
        if n <= bound:
            return name
    raise ValueError(f"chain length {n} is above every op_s class")


def _coeffs(kind: str, n: int, rng: random.Random) -> tuple:
    if kind == "sym":
        return (1,) * n
    if kind == "alt":
        return tuple(1 if k % 2 == 0 else -1 for k in range(n))
    return tuple(rng.choice((1, -1)) for _ in range(n))


def _cli_ops(rng: random.Random) -> list:
    import chainrad.cli  # noqa: F401  (the import every CLI op pays)

    ops = [
        {"id": f"figure_{k}", "n": n, "argv": ["figure", str(k)]}
        for k, n in FIGURE_N.items()
    ]
    ops += [
        {"id": name, "n": n, "argv": [name]} for name, n in SUBCOMMAND_N.items()
    ]
    ops += [{"id": name, "n": 100, "argv": argv} for name, argv in CLI_N100_OPS.items()]
    rng.shuffle(ops)
    return ops


def _rate_ops(rng: random.Random) -> list:
    from chainrad.states import SignState

    specs = [
        (kind, n, x, phi)
        for n in RATE_NS for kind in STATE_KINDS for x in RATE_XS for phi in PHIS
    ]
    specs += [(kind, 1000, x, rng.choice(PHIS)) for kind, x in RATE_N1000]
    ops = []
    for kind, n, x, phi in specs:
        coeffs = _coeffs(kind, n, rng)
        ops.append({
            "id": f"{kind}-N{n}-x{x:g}-phi{round(math.degrees(phi))}",
            "n": n, "x": x, "phi": phi, "coeffs": coeffs,
            "state": SignState(coeffs=coeffs),
        })
    rng.shuffle(ops)
    return ops


def _emission_ops(rng: random.Random) -> list:
    import numpy as np
    from chainrad.scales import config_from_dict, derive_scales
    from chainrad.states import SignState

    scales = derive_scales(config_from_dict(EMISSION_CONFIG))
    lo, hi = EMISSION_GRID_ANGSTROM
    grid = np.logspace(math.log10(lo), math.log10(hi), EMISSION_GRID_POINTS) * ANGSTROM
    obs_x = EMISSION_OBS_X_ANGSTROM * ANGSTROM
    specs = [
        (kind, n, phi) for n in EMISSION_NS for kind in STATE_KINDS for phi in PHIS
    ]
    specs += [
        (kind, n, rng.choice(PHIS)) for n in EMISSION_LARGE_NS for kind in STATE_KINDS
    ]
    specs.append((rng.choice(STATE_KINDS), EMISSION_TOP_N, rng.choice(PHIS)))
    ops = []
    for kind, n, phi in specs:
        coeffs = _coeffs(kind, n, rng)
        slices = 1 if n in EMISSION_NS else EMISSION_LARGE_SLICES
        for part in range(slices):
            a_grid = grid[part::slices]
            # latest retardation over the grid; the 1e-12 margin keeps the
            # last point causal whatever rounding the program's own check uses
            t = math.hypot(obs_x, (n - 1) * float(a_grid[-1])) / SPEED_OF_LIGHT
            ops.append({
                "id": f"{kind}-N{n}-phi{round(math.degrees(phi))}"
                      + (f"-slice{part}" if slices > 1 else ""),
                "n": n, "phi": phi, "coeffs": coeffs,
                "state": SignState(coeffs=coeffs),
                "a_grid": a_grid, "obs_x": obs_x, "t": t * (1.0 + 1e-12),
                "scales": scales, "mu": EMISSION_CONFIG["dipole_e_angstrom"],
            })
    rng.shuffle(ops)
    return ops


def make_inputs(workload: str, seed: int) -> list:
    """The workload's op list for this seed (imports what the ops call)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_cold":
        return _cli_ops(rng)
    if workload == "rates_scaling":
        return _rate_ops(rng)
    if workload == "emission_scaling":
        return _emission_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def op_runner(workload: str):
    """Callable running one in-process op; returns (output, csv_rows).

    Program functions are looked up on their module at call time, so the
    traced run's wrappers are the ones called.
    """
    if workload == "rates_scaling":
        from chainrad import damping

        def run(op):
            return damping.damping_general(op["state"], op["x"], op["phi"]).rate_ratio, 1

        return run
    if workload == "emission_scaling":
        from chainrad import emission

        def run(op):
            trace = emission.emission_sweep(
                op["state"], op["a_grid"], op["phi"], op["obs_x"], op["t"],
                op["scales"], op["mu"],
            )
            return trace.table.to_csv(), len(trace.table.rows)

        return run
    raise ValueError(f"{workload} has no in-process runner")
