"""Every printed digit of the recorded rates against an independent reference.

A recorded output pins its bytes, right or wrong, and a re-recording can
bake in a wrong digit. Here each rate cell of figures 7, 8 and 9 (the
symmetric chain's rate against N at one x) is rebuilt from a 50-digit
mpmath evaluation of the closed form, at the figure's exact x and with
the library's double cos phi. The printed 12 significant digits must be
that value correctly rounded. A cell known to be wrong is listed with its
printed and its reference value, as a strict xfail: the exact rate path
that mends it flips the mark.
"""

import csv
import io
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal

import pytest
from mpmath import mp

from oracles import symmetric_rates_mp
from record_outputs import recorded_output

#: Figure -> the x of its n_scaling_sweep(200, x, (0, 90 degrees)).
N_SCALING_FIGURES = {7: 0.001, 8: 0.1, 9: 1.0}
N_MAX = 200
PHIS = (0.0, math.radians(90))
COLUMNS = ["N", "gamma_phi0", "gamma_phi90"]

#: (figure, N, column) -> (printed cell, the 50-digit reference's first
#: 17 digits) for every cell that is not correctly rounded today.
KNOWN_WRONG_CELLS = {
    (9, 92, "gamma_phi90"): ("2.35834148423", "2.3583414842350123"),
}

_TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)


def correctly_rounded(value) -> Decimal:
    """An mpf rounded to 12 significant digits, through 40 digits."""
    return _TWELVE_DIGITS.plus(Decimal(mp.nstr(value, 40, strip_zeros=False)))


def recorded_cells(figure: int) -> dict:
    """(N, column) -> printed cell of a recorded n-scaling figure."""
    lines = [
        line for line in recorded_output(f"figure_{figure}").decode().splitlines()
        if not line.startswith("#")
    ]
    header, *rows = list(csv.reader(io.StringIO("\n".join(lines))))
    assert header == COLUMNS
    assert [int(row[0]) for row in rows] == list(range(1, N_MAX + 1))
    return {(int(row[0]), name): cell for row in rows for name, cell in zip(header[1:], row[1:])}


def reference_cells(figure: int) -> dict:
    """(N, column) -> the 50-digit reference rate of the same cell."""
    cos_phis = [math.cos(phi) for phi in PHIS]
    rows = symmetric_rates_mp(N_MAX, N_SCALING_FIGURES[figure], cos_phis)
    return {
        (n, name): rate
        for n, row in enumerate(rows, start=1) for name, rate in zip(COLUMNS[1:], row)
    }


@pytest.mark.parametrize("figure", sorted(N_SCALING_FIGURES))
def test_every_rate_cell_is_correctly_rounded(figure):
    printed, reference = recorded_cells(figure), reference_cells(figure)
    assert printed.keys() == reference.keys()
    wrong = {
        (figure, *cell): (text, mp.nstr(reference[cell], 17))
        for cell, text in printed.items()
        if Decimal(text) != correctly_rounded(reference[cell])
    }
    assert wrong == {c: v for c, v in KNOWN_WRONG_CELLS.items() if c[0] == figure}


@pytest.mark.parametrize(
    "cell",
    [
        pytest.param(cell, marks=pytest.mark.xfail(
            strict=True, reason=f"prints {text}, the value is {value}..."
        ))
        for cell, (text, value) in KNOWN_WRONG_CELLS.items()
    ],
    ids=[f"figure{f}-N{n}-{name}" for f, n, name in KNOWN_WRONG_CELLS],
)
def test_known_wrong_cell(cell):
    figure, n, name = cell
    printed = recorded_cells(figure)[n, name]
    assert Decimal(printed) == correctly_rounded(reference_cells(figure)[n, name])
