"""Command-line front end: sweeps, reference-figure CSVs, oracle verification.

Exit codes: 0 success, 2 usage (out-of-range arithmetic and unwritable
output included), 3 config, 4 numerical accuracy, 5 causality.
"""

import math
import os
import sys
from itertools import product
from types import SimpleNamespace

from . import __version__
from .scales import (
    ANGSTROM,
    CODATA,
    MAX_ATOMS,
    SPEED_OF_LIGHT,
    AtomicScales,
    CausalityError,
    ChainConfig,
    ConfigError,
    config_from_dict,
    config_to_dict,
    derive_scales,
    read_config_dict,
)
from .coupling import coupling_sweep
from .damping import (
    QuadratureAccuracyError,
    angle_sweep,
    bond_autocorrelation,
    closed_form_rates,
    f_kernel,
    n_scaling_sweep,
    quadrature_rates,
    relative_error,
    x_sweep,
)
from .states import SignState, alternating_state, symmetric_state
from .sweeps import SweepTable, format_value, linspace, phi_columns

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_ACCURACY = 4
EXIT_CAUSALITY = 5

#: ``verify`` fails (exit 4) when any closed-form rate is further than
#: this from its quadrature, relative to the larger of the two.
VERIFY_TOL = 1e-8

#: Longest chain ``verify`` accepts. Its work doubles with every atom: as
#: fresh processes on a 2-vCPU host (medians of 15), --nmax 8, 10, 11 and 12
#: take about 0.20, 0.29, 0.45 and 0.78 s, of which start-up and numpy's
#: import (--nmax 1) are about 0.17 s.
VERIFY_MAX_N = 12

#: Largest --points any command accepts, checked before a grid exists.
MAX_POINTS = 100_000

DEFAULT_CONFIG = {
    "n_atoms": 2,
    "lattice_const_angstrom": 1000.0,
    "transition_energy_ev": 1.0,
    "dipole_e_angstrom": 1.0,
    "polarization_deg": 0.0,
}

#: Figures 16-20 use the reference emission parameter set, including
#: the damping-rate override that is inconsistent with the radiative
#: formula for the quoted dipole (reproduced as printed).
EMISSION_CONFIG = dict(DEFAULT_CONFIG, gamma_override_hz=1e8)
EMISSION_OBS_X_ANGSTROM = 1e6


class UsageError(ValueError):
    pass


class OutputError(UsageError):
    """The CSV could not be written: a closed pipe, a full device, no stdout."""

    def __init__(self, exc):
        super().__init__(f"cannot write output: {exc}")


def parse_state(token: str, n: int) -> SignState:
    """Parse a CLI state token: ``sym``, ``alt`` or a +/- pattern of length n."""
    if token == "sym":
        return symmetric_state(n)
    if token == "alt":
        return alternating_state(n)
    if not token or set(token) - {"+", "-"}:
        raise UsageError(
            f"state must be 'sym', 'alt' or a +/- pattern, got {token!r}"
        )
    if len(token) != n:
        raise UsageError(
            f"state pattern {token!r} has length {len(token)}, chain has {n} atoms"
        )
    return SignState(coeffs=tuple(1 if ch == "+" else -1 for ch in token))


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"range must be 'lo:hi', got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"range bounds must be finite, got {text!r}")
    return lo, hi


def _points(args) -> int:
    """The --points value, checked before a grid exists."""
    if not 1 <= args.points <= MAX_POINTS:
        raise UsageError(f"--points must be in 1..{MAX_POINTS}, got {args.points}")
    return args.points


def _apply_sets(data: dict, sets: list[str]) -> dict:
    out = dict(data)
    for item in sets:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key] = value
    return out


def _load_config(args) -> ChainConfig:
    """The --config keys (or DEFAULT_CONFIG) with --set applied, built once."""
    data = DEFAULT_CONFIG if args.config is None else read_config_dict(args.config)
    return config_from_dict(_apply_sets(data, args.set or []))


def _base_metadata(config: ChainConfig, scales: AtomicScales) -> dict:
    meta = {}
    for key, value in config_to_dict(config).items():
        meta[f"config.{key}"] = format_value(value)
    for key, value in CODATA.items():
        meta[f"const.{key}"] = format_value(value)
    meta["derived.gamma_a_hz"] = format_value(scales.gamma_a)
    meta["derived.qa_a"] = format_value(scales.qa_a)
    meta["derived.gamma_source"] = (
        "radiative_formula" if config.gamma_override_hz is None else "override"
    )
    return meta


def _emit(table: SweepTable, args) -> int:
    """Stamp ``table`` with the tool and the command, then write it to
    --out or stdout."""
    table.metadata["tool"] = f"chainrad {__version__}"
    table.metadata["command"] = (
        f"figure {args.number}" if args.command == "figure" else args.command
    )
    if args.out is not None:
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc}") from exc
        try:
            with fh:
                table.write_csv(fh)
        except OSError as exc:
            raise OutputError(exc) from exc
    else:
        _write_stdout(table.write_csv)
    return EXIT_OK


def _write_stdout(write) -> None:
    """``write(sys.stdout)``, flushed: a write error is this command's exit 2,
    also in process, not a failure at interpreter exit."""
    if sys.stdout is None:  # started with stdout closed
        raise OutputError("stdout is closed")
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(exc) from exc


def _write_stderr(text: str) -> None:
    """Write and flush ``text`` to stderr, which has no one to tell if it fails."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def _f_kernel_sweep(x_min, x_max, n_points, phi_list) -> SweepTable:
    columns = ["x"] + phi_columns("F", phi_list)
    rows = [
        (x, *(f_kernel(x, phi) for phi in phi_list))
        for x in linspace(x_min, x_max, n_points)
    ]
    return SweepTable(columns=columns, rows=rows)


def _angle_grid(n_points: int) -> list[float]:
    """Polarization angles 0..90 degrees, in radians."""
    return [math.radians(d) for d in linspace(0.0, 90.0, n_points)]


def cmd_scales(args, config, scales) -> SweepTable:
    return SweepTable(
        columns=[
            "omega_a_rad_s", "q_a_per_m", "lambda_a_angstrom",
            "gamma_a_hz", "qa_a",
        ],
        rows=[(
            scales.omega_a, scales.q_a, scales.lambda_a / ANGSTROM,
            scales.gamma_a, scales.qa_a,
        )],
    )


def cmd_coupling(args, config, scales) -> SweepTable:
    lo, hi = _parse_range(args.range)
    return coupling_sweep(
        lo, hi, _points(args), [math.radians(config.polarization_deg)]
    )


def cmd_damping(args, config, scales) -> SweepTable:
    state = parse_state(args.state, config.n_atoms)
    lo, hi = _parse_range(args.range)
    table = x_sweep(
        state, lo, hi, _points(args),
        [math.radians(config.polarization_deg)], oracle=args.oracle,
    )
    table.metadata["state"] = str(state)
    return table


def cmd_nscaling(args, config, scales) -> SweepTable:
    lo, hi = _parse_range(args.range)
    if lo != 1 or not (hi.is_integer() and 1 <= hi <= MAX_ATOMS):
        raise UsageError(
            f"nscaling --range must be 1:N_max with whole N_max in "
            f"1..{MAX_ATOMS}, got {args.range!r}"
        )
    return n_scaling_sweep(
        int(hi), scales.qa_a, [math.radians(config.polarization_deg)]
    )


def cmd_angles(args, config, scales) -> SweepTable:
    return angle_sweep(config.n_atoms, scales.qa_a, _angle_grid(_points(args)))


def _lattice_grid(lo: float, hi: float, n_points: int):
    """``n_points`` lattice constants in m, log-spaced from lo to hi Angstrom:
    the grid of ``emission`` and of figures 16-20."""
    import numpy as np  # emission is the one command that needs arrays

    return np.logspace(math.log10(lo), math.log10(hi), n_points) * ANGSTROM


def cmd_emission(args, config, scales) -> SweepTable:
    from .emission import emission_sweep, latest_retardation

    state = parse_state(args.state, config.n_atoms)
    if not (math.isfinite(args.obs_x) and args.obs_x > 0):
        raise UsageError(f"--obs-x must be finite and > 0, got {args.obs_x}")
    obs_x = args.obs_x * ANGSTROM
    lo, hi = _parse_range(args.range)
    if not (lo > 0 and hi > 0):
        raise UsageError(
            f"emission --range is a lattice-constant range in Angstrom and "
            f"needs lo > 0 and hi > 0, got {args.range!r}"
        )
    a_grid = _lattice_grid(lo, hi, _points(args))
    if args.time is None:
        # latest retardation over the grid, by the sweep's own rule, so the
        # default is always causal
        t = float(latest_retardation(config.n_atoms, a_grid, obs_x).max())
    elif math.isfinite(args.time):
        t = args.time
    else:
        raise UsageError(f"--time must be finite, got {args.time}")
    trace = emission_sweep(
        state, a_grid, math.radians(config.polarization_deg), obs_x, t, scales,
        config.dipole_e_angstrom,
    )
    trace.table.metadata["reference_intensity_w_m2"] = format_value(
        trace.reference_intensity
    )
    return trace.table


def _emission_figure(state: SignState, phi: float) -> SweepTable:
    """Two-atom emission trace at the reference parameter set, t = 2x/c."""
    from .emission import emission_sweep

    config = config_from_dict(EMISSION_CONFIG)
    obs_x = EMISSION_OBS_X_ANGSTROM * ANGSTROM
    t = 2.0 * obs_x / SPEED_OF_LIGHT
    # the grid is capped just below the lattice constant whose light
    # reaches the observer exactly at t (sqrt(3) x)
    a_max = math.sqrt((SPEED_OF_LIGHT * t) ** 2 - obs_x**2) * (1.0 - 1e-12)
    a_grid = _lattice_grid(1e3, a_max / ANGSTROM, 2000)
    trace = emission_sweep(
        state, a_grid, phi, obs_x, t, derive_scales(config), config.dipole_e_angstrom
    )
    return trace.table


_PHI_0_90 = (0.0, math.radians(90))

#: Figure number -> builder of its CSV table. Figures 1 and 15 are
#: schematics and have none.
FIGURES = {
    2: lambda: coupling_sweep(0.01, 20.0, 1000, _PHI_0_90),
    3: lambda: coupling_sweep(0.01, 20.0, 1000, [0.0]),
    4: lambda: coupling_sweep(0.01, 20.0, 1000, [math.radians(90)]),
    5: lambda: _f_kernel_sweep(0.01, 20.0, 1000, _PHI_0_90),
    6: lambda: x_sweep(symmetric_state(5), 0.01, 20.0, 1000, _PHI_0_90),
    7: lambda: n_scaling_sweep(200, 0.001, _PHI_0_90),
    8: lambda: n_scaling_sweep(200, 0.1, _PHI_0_90),
    9: lambda: n_scaling_sweep(200, 1.0, _PHI_0_90),
    10: lambda: angle_sweep(100, 0.1, _angle_grid(181)),
    11: lambda: x_sweep(symmetric_state(2), 0.01, 20.0, 1000, _PHI_0_90),
    12: lambda: x_sweep(alternating_state(2), 0.01, 20.0, 1000, _PHI_0_90),
    13: lambda: x_sweep(symmetric_state(3), 0.01, 20.0, 1000, _PHI_0_90),
    14: lambda: x_sweep(alternating_state(3), 0.01, 20.0, 1000, _PHI_0_90),
    16: lambda: _emission_figure(symmetric_state(2), 0.0),
    17: lambda: _emission_figure(symmetric_state(2), math.radians(45)),
    18: lambda: _emission_figure(symmetric_state(2), math.radians(90)),
    19: lambda: _emission_figure(alternating_state(2), 0.0),
    20: lambda: _emission_figure(alternating_state(2), math.radians(45)),
}
SUPPORTED_FIGURES = tuple(FIGURES)


def cmd_figure(args) -> int:
    if args.number not in SUPPORTED_FIGURES:
        raise UsageError(
            f"unsupported figure {args.number}; choose from {SUPPORTED_FIGURES}"
        )
    return _emit(FIGURES[args.number](), args)


def cmd_verify(args) -> int:
    """Closed form vs quadrature over all sign states, N <= --nmax."""
    if not 1 <= args.nmax <= VERIFY_MAX_N:
        raise UsageError(f"--nmax must be in 1..{VERIFY_MAX_N}, got {args.nmax}")
    x_grid = (0.1, 0.5, 1.0, 3.0, 10.0)
    phi_grid = (0.0, math.pi / 4, math.pi / 2)
    rows = []
    worst = 0.0
    for n in range(1, args.nmax + 1):
        max_err = 0.0
        # C and -C have the same A_k and an integrand whose re and im only
        # flip sign, so both methods give them bitwise-equal rates: the
        # half with C_1 = +1 stands for all 2^n states
        states = [SignState((1, *rest)) for rest in product((1, -1), repeat=n - 1)]
        totals = [sum(state.coeffs) for state in states]
        autocorrs = [bond_autocorrelation(state) for state in states]
        for x in x_grid:
            # one batch per method and x serves every state and phi
            closed = closed_form_rates(totals, autocorrs, x, phi_grid)
            quads = quadrature_rates(states, x, phi_grid)
            for closed_row, quad_row in zip(closed, quads):
                for cf, qd in zip(closed_row, quad_row):
                    max_err = max(max_err, relative_error(cf, qd))
        rows.append((n, 2**n, max_err))
        worst = max(worst, max_err)
    table = SweepTable(
        columns=["N", "n_states", "max_rel_err"],
        rows=rows,
        metadata={
            "x_grid": " ".join(format_value(x) for x in x_grid),
            "phi_deg_grid": "0 45 90",
        },
        footer=[f"max_rel_err={worst:.3e}", f"tolerance={VERIFY_TOL:.0e}"],
    )
    _emit(table, args)
    if worst > VERIFY_TOL:
        _write_stderr(
            f"verify FAILED: max relative error {worst:.3e} > {VERIFY_TOL:.0e}\n"
        )
        return EXIT_ACCURACY
    return EXIT_OK


#: argparse settings of every flag, which :func:`_parse_plain` reads too;
#: each subcommand registers only the ones it reads, so a flag it would
#: ignore is a usage error.
_FLAGS = {
    "number": dict(type=int, help="figure number"),
    "--config": dict(help="JSON chain configuration file"),
    "--set": dict(
        action="append", metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    ),
    "--points": dict(type=int, help="grid point count (default %(default)s)"),
    "--range": dict(metavar="LO:HI", help="grid range (default %(default)s)"),
    "--state": dict(
        help="collective state: sym, alt or +/- pattern (default %(default)s)"
    ),
    "--oracle": dict(
        action="store_true", help="add quadrature cross-check columns"
    ),
    "--obs-x": dict(
        type=float, help="observation distance in Angstrom (default %(default)s)"
    ),
    "--time": dict(type=float, help="observation time in seconds (default: the "
                   "grid's latest retardation)"),
    "--nmax": dict(type=int, help="largest chain length (default %(default)s)"),
    "--out": dict(help="CSV output path (default stdout)"),
}
_CONFIG_FLAGS = {"--config": None, "--set": None}

#: Subcommand -> (handler, help, each flag it reads besides --out -> its
#: default). Both parsers fill the namespace from these defaults. A command
#: with --config builds a table from ``(args, config, scales)`` for ``main``
#: to stamp and write; figure and verify write their own.
COMMANDS = {
    "scales": (cmd_scales, "derived single-atom scales", _CONFIG_FLAGS),
    "coupling": (
        cmd_coupling, "J/gamma_a vs q_a*a sweep",
        {**_CONFIG_FLAGS, "--points": 1000, "--range": "0.01:20"},
    ),
    "damping": (
        cmd_damping, "collective rate vs q_a*a sweep",
        {
            **_CONFIG_FLAGS, "--points": 1000, "--range": "0.01:20",
            "--state": "sym", "--oracle": False,
        },
    ),
    "nscaling": (
        cmd_nscaling, "symmetric rate vs chain length",
        {**_CONFIG_FLAGS, "--range": "1:200"},
    ),
    "angles": (
        cmd_angles, "symmetric rate vs polarization angle",
        {**_CONFIG_FLAGS, "--points": 181},
    ),
    "emission": (
        cmd_emission, "far-field intensity vs lattice constant",
        {
            **_CONFIG_FLAGS, "--points": 2000, "--range": "1e3:1e7",
            "--state": "sym", "--obs-x": EMISSION_OBS_X_ANGSTROM, "--time": None,
        },
    ),
    "figure": (
        cmd_figure, "reproduce a numbered reference figure as CSV", {"number": None}
    ),
    "verify": (cmd_verify, "closed form vs quadrature oracle suite", {"--nmax": 8}),
}


def _parse_plain(argv):
    """The namespace argparse gives a plain ``argv``, or None for any other.

    A plain argv is a command from COMMANDS, figure's number next, then
    only that command's exact flag names and ``--out``, each followed by a
    value that does not start with ``-`` (``--oracle`` takes none). Values
    go through the flags' own ``type`` callables. Anything else, a value
    those refuse included, is left to argparse, the one source of help,
    version, usage and error text: a cold run that needs none of them
    then imports no argparse, gettext or locale.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, flags = COMMANDS[argv[0]]
    defaults = {**flags, "--out": None}
    # argparse's attribute names: --obs-x is obs_x
    dests = {flag: flag.lstrip("-").replace("-", "_") for flag in defaults}
    args = {dests[flag]: default for flag, default in defaults.items()}
    args.update(command=argv[0], func=func)
    words = iter(argv[1:])  # a missing value reads as "-", which is not plain
    try:
        for flag in flags:
            if not flag.startswith("--"):  # a positional: figure's number
                value = next(words, "-")
                if value.startswith("-"):
                    return None
                args[flag] = _FLAGS[flag]["type"](value)
        for flag in words:
            if not (flag.startswith("--") and flag in defaults):
                return None
            spec, dest = _FLAGS[flag], dests[flag]
            action = spec.get("action")
            if action == "store_true":
                args[dest] = True
                continue
            value = next(words, "-")
            if value.startswith("-"):
                return None
            if "type" in spec:
                value = spec["type"](value)
            args[dest] = [*(args[dest] or []), value] if action == "append" else value
    except ValueError:  # argparse words the error
        return None
    return SimpleNamespace(**args)


def build_parser() -> "argparse.ArgumentParser":
    """The CLI's argparse parser, every subcommand and its defaults included.

    ``main`` builds it only for an argv that :func:`_parse_plain` leaves
    to argparse (help, --version, an abbreviated flag, ``--flag=value``,
    a usage error), so argparse is imported here.
    """
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse, but --help and --version (argparse's only stdout text)
        that cannot be written are exit 2 like a CSV, not skipped in
        silence, and usage lines go to stderr only."""

        def print_usage(self, file=None):
            # error() passes sys.stderr, which is None when the process
            # started with stderr closed, and argparse reads a None file
            # as stdout
            _write_stderr(self.format_usage())

        def _print_message(self, message, file=None):
            if file is sys.stderr:
                _write_stderr(message)
            else:
                _write_stdout(lambda out: out.write(message))

    parser = _Parser(
        prog="chainrad",
        description="Collective radiative properties of a finite emitter chain",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, default in {**flags, "--out": None}.items():
            p.add_argument(flag, default=default, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    try:
        if args is None:
            args = build_parser().parse_args(argv)
        if not hasattr(args, "config"):  # figure and verify read no chain
            return args.func(args)
        # the chain first, then the command's flags, then the work
        config = _load_config(args)
        scales = derive_scales(config)
        table = args.func(args, config, scales)
        table.metadata.update(_base_metadata(config, scales))
        return _emit(table, args)
    except SystemExit as exc:  # argparse usage errors (2), --help/--version (0)
        return exc.code
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"config error: {exc}"
    except QuadratureAccuracyError as exc:
        code, message = EXIT_ACCURACY, f"accuracy error: {exc}"
    except CausalityError as exc:
        code, message = EXIT_CAUSALITY, f"causality error: {exc}"
    except ValueError as exc:  # UsageError and OutputError too
        code, message = EXIT_USAGE, exc
    except (OverflowError, ZeroDivisionError) as exc:
        code, message = EXIT_USAGE, f"the inputs left double-precision range: {exc}"
    _write_stderr(f"chainrad: {message}\n")
    return code


def entry() -> None:
    """Run :func:`main` as a process: the console script and ``python -m``.

    numpy's OpenBLAS starts a thread per core at import, which costs a cold
    run more than the CLI's few small matrix-vector products gain from it,
    so unless the user set ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``
    the one-thread default is set before anything can import numpy. After
    ``main`` the output is flushed, and a failed flush is exit 2 like any
    other write error; the process then leaves by ``os._exit``, skipping
    interpreter finalization, which nothing here needs.
    """
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # a CSV that failed in _emit fails here again and was reported
        # there; only a run that succeeded has a failure left to report
        if code == EXIT_OK:
            code = EXIT_USAGE
            _write_stderr(f"chainrad: {OutputError(exc)}\n")
    _write_stderr("")
    os._exit(code)


if __name__ == "__main__":
    entry()
