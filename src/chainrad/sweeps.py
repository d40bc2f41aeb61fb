"""Tabular sweep results and their CSV form.

CSV output is fully deterministic: fixed column order, fixed float
formatting, metadata emitted as sorted ``# key=value`` comment lines.
"""

import io
import math
import operator

from .scales import _number

_FLOAT_FMT = ".12g"

#: Most points a grid may have, checked by :func:`linspace` before it
#: builds one; every grid the package sweeps over comes from there.
MAX_POINTS = 100_000


def format_value(v) -> str:
    """One CSV cell: integers (bool and numpy's included) exactly, any
    other number as a float in ``_FLOAT_FMT``."""
    if isinstance(v, float):  # numpy's float64 too
        return format(v, _FLOAT_FMT)
    try:
        return str(operator.index(v))
    except TypeError:
        return format(float(v), _FLOAT_FMT)


def check_work(
    what: str, work: float, unit: str, budget: float,
    advice: str = "use fewer points or a shorter chain",
) -> None:
    """Refuse, with ValueError, a sweep ``what`` whose ``work`` exceeds ``budget``."""
    if work > budget:
        raise ValueError(
            f"{what} needs about {work:.2e} {unit}, over its budget of "
            f"{budget:.0e}; {advice}"
        )


def linspace(lo: float, hi: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from lo to hi, bit-equal to numpy.linspace.

    Point i is i*step + lo (i/(num - 1)*(hi - lo) + lo when the step
    underflows to zero) and the last point is hi itself, in the same
    operations numpy uses, so the sweeps need no numpy import. ``num`` is
    read like a chain length (3.0 is 3); one not whole or outside
    1..MAX_POINTS is refused with ValueError before any point is built.
    """
    try:
        count = _number("num", num, ValueError)
    except ValueError:
        count = math.nan
    if not (count.is_integer() and 1 <= count <= MAX_POINTS):
        raise ValueError(f"a grid takes 1..{MAX_POINTS} points, got {num}")
    num = int(count)
    if num == 1:
        # numpy's one point is 0*(hi - lo) + lo: lo, but +0.0 for lo = -0.0
        return [0.0 * (hi - lo) + lo]
    div = num - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        grid = [i / div * delta + lo for i in range(num)]
    else:
        grid = [i * step + lo for i in range(num)]
    grid[-1] = hi
    return grid


def _phi_weights(phi: float) -> tuple[float, float]:
    """(1 - cos^2 phi, 1 - 3 cos^2 phi): the dipole-dipole angle weights every
    two-body formula reads phi through. A non-finite phi is a ValueError."""
    if not math.isfinite(phi):
        raise ValueError(f"polarization angle must be finite, got phi={phi}")
    c2 = math.cos(phi) ** 2
    return 1.0 - c2, 1.0 - 3.0 * c2


def _separation(x: float) -> None:
    """The separation rule of every two-body formula: x > 0 and finite."""
    if not 0 < x < math.inf:
        raise ValueError(f"separation must be > 0 and finite, got x={x}")


def x_grid(x_min: float, x_max: float, num: int) -> list[float]:
    """The x-range rule, 0 < x_min < x_max < inf, then :func:`linspace`."""
    if not 0 < x_min < x_max < math.inf:
        raise ValueError(f"need 0 < x_min < x_max < inf, got [{x_min}, {x_max}]")
    return linspace(x_min, x_max, num)


def phi_columns(prefix: str, phi_list) -> list[str]:
    """Column names ``<prefix>_phi<deg>``, one per angle, each checked first."""
    for p in phi_list:
        _phi_weights(p)
    return [f"{prefix}_phi{round(math.degrees(p))}" for p in phi_list]


class SweepTable:
    """Ordered rows of (grid point -> computed values), read once: a list
    is kept as given. ``metadata`` becomes the ``# key=value`` header and
    ``footer`` the ``# line`` trailer; both start empty when not given.
    """

    def __init__(
        self,
        columns: list[str],
        rows,
        metadata: dict | None = None,
        footer: list[str] | None = None,
    ):
        rows = rows if isinstance(rows, list) else list(rows)
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row width {len(row)} != {len(columns)} columns")
        self.columns = columns
        self.rows = rows
        self.metadata = {} if metadata is None else metadata
        self.footer = [] if footer is None else footer

    def write_csv(self, stream) -> None:
        """Build the whole CSV text and write it in one call."""
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        lines.append(",".join(self.columns))
        # a float cell skips format_value's call: most cells are floats
        lines += [
            ",".join([
                format(v, _FLOAT_FMT) if isinstance(v, float) else format_value(v)
                for v in row
            ])
            for row in self.rows
        ]
        lines += [f"# {line}" for line in self.footer]
        lines.append("")  # so the text ends in a newline
        stream.write("\n".join(lines))

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()
