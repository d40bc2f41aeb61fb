import io
import math
import numbers
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrad.cli import _angle_grid, _f_kernel_sweep
from chainrad.coupling import coupling_sweep, transfer_electrostatic, transfer_exact
from chainrad.damping import (
    angle_sweep,
    closed_form_rates,
    damping_general,
    n_scaling_sweep,
    quadrature_rates,
    x_sweep,
)
from chainrad.emission import lattice_grid
from chainrad.states import symmetric_state
from chainrad.sweeps import MAX_POINTS, SweepTable, format_value, linspace, phi_columns

_bounded = st.floats(min_value=-1e300, max_value=1e300)


class TestLinspace:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(lo=_bounded, hi=_bounded, num=st.integers(1, 300))
    def test_bit_equal_to_numpy(self, lo, hi, num):
        got = np.array(linspace(lo, hi, num), dtype=float)
        want = np.linspace(lo, hi, num)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_cli_grids(self):
        for lo, hi, num in [(0.01, 20.0, 1000), (0.0, 90.0, 181), (0.5, 2.0, 4)]:
            assert linspace(lo, hi, num) == np.linspace(lo, hi, num).tolist()

    def test_one_point_is_lo(self):
        assert linspace(3.0, 7.0, 1) == [3.0]
        # numpy computes it as 0*(hi - lo) + lo, which turns -0.0 into +0.0
        assert str(linspace(-0.0, 0.0, 1)[0]) == str(np.linspace(-0.0, 0.0, 1)[0])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        lo=st.floats(min_value=-300, max_value=300),
        hi=st.floats(min_value=-300, max_value=300),
        num=st.integers(1, 300),
    )
    def test_powers_of_ten_bit_equal_to_logspace(self, lo, hi, num):
        # the emission grid is 10 to the power of these exponents; within
        # +-300 no power overflows or underflows
        got = np.power(10.0, linspace(lo, hi, num))
        want = np.logspace(lo, hi, num)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_max_points_bounds_every_grid(self):
        assert len(linspace(0.0, 1.0, MAX_POINTS)) == MAX_POINTS
        for num in (0, -3, MAX_POINTS + 1, True, False, "3", 2.5, math.nan, math.inf):
            with pytest.raises(ValueError) as info:
                linspace(0.0, 1.0, num)
            assert str(info.value) == f"a grid takes 1..100000 points, got {num}"
        # read like a chain length: a whole float or numpy int is its int,
        # and the points stay Python floats
        for num in (3.0, np.int64(3), np.float64(3.0)):
            grid = linspace(0.0, 1.0, num)
            assert grid == [0.0, 0.5, 1.0]
            assert [type(x) for x in grid[:2]] == [float, float]
        assert coupling_sweep(0.1, 1.0, 3.0, [0.0]).rows == coupling_sweep(
            0.1, 1.0, 3, [0.0]
        ).rows


@pytest.mark.parametrize(
    "build",
    [
        lambda n: coupling_sweep(0.01, 20.0, n, [0.0]),
        lambda n: x_sweep(symmetric_state(2), 1.5, 20.0, n, [0.0]),
        lambda n: _angle_grid(n),
        lambda n: lattice_grid(1e3, 1e7, n),
    ],
    ids=["coupling_sweep", "x_sweep", "angle_grid", "lattice_grid"],
)
def test_grid_over_max_points_refused_before_it_is_built(build):
    # one point too many is refused before any point exists: a 10^5-point
    # grid alone, or its rows, would take megabytes
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="a grid takes 1..100000 points, got 100001"):
            build(MAX_POINTS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


class TestFormatValue:
    def test_integers_of_any_kind(self):
        assert format_value(7) == format_value(np.int64(7)) == "7"

    def test_floats(self):
        assert format_value(0.1) == format_value(np.float64(0.1)) == "0.1"


class TestPhiColumns:
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_refused_by_the_angle_rule(self, phi):
        # not "cannot convert float NaN to integer" from round()
        with pytest.raises(ValueError) as info:
            phi_columns("J", [0.0, phi])
        assert str(info.value) == f"polarization angle must be finite, got phi={phi}"


class TestSeparationRules:
    """The separation rule (x > 0 and finite) and the x-range rule
    (0 < x_min < x_max < inf), each checked through every caller, with
    the one message each rule gives."""

    @pytest.mark.parametrize("x", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: transfer_exact(x, 0.0),
            lambda x: transfer_electrostatic(x, 0.0),
            lambda x: quadrature_rates([symmetric_state(2)], x, [0.0]),
            lambda x: closed_form_rates([[1]], x, [0.0]),
            lambda x: damping_general(symmetric_state(3), x, 0.0),
            lambda x: angle_sweep(3, x, [0.0]),
            lambda x: n_scaling_sweep(3, x, [0.0]),
        ],
        ids=["transfer_exact", "transfer_electrostatic", "quadrature_rates",
             "closed_form_rates", "damping_general", "angle_sweep", "n_scaling_sweep"],
    )
    def test_separation(self, call, x):
        with pytest.raises(ValueError) as info:
            call(x)
        assert str(info.value) == f"separation must be > 0 and finite, got x={x}"

    @pytest.mark.parametrize(
        "x_min, x_max",
        [(0.1, math.inf), (math.nan, 1.0), (0.1, math.nan), (0.0, 1.0), (2.0, 1.0)],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda lo, hi: coupling_sweep(lo, hi, 3, [0.0]),
            lambda lo, hi: x_sweep(symmetric_state(2), lo, hi, 3, [0.0]),
            lambda lo, hi: x_sweep(symmetric_state(2), lo, hi, 3, [0.0], oracle=True),
            lambda lo, hi: _f_kernel_sweep(lo, hi, 3, [0.0]),
        ],
        ids=["coupling_sweep", "x_sweep", "x_sweep_oracle", "f_kernel_sweep"],
    )
    def test_x_range(self, build, x_min, x_max):
        with pytest.raises(ValueError) as info:
            build(x_min, x_max)
        assert str(info.value) == f"need 0 < x_min < x_max < inf, got [{x_min}, {x_max}]"


def reference_cell(v) -> str:
    """The CSV cell rule as first written, on ``numbers.Integral``."""
    if isinstance(v, numbers.Integral):
        return str(int(v))
    return format(float(v), ".12g")


#: one of each cell type a row holds: int, bool, numpy integers and
#: floats, and float, with the special float values
MIXED_CELLS = [
    0, -7, 12345678901234567890, True, False, np.int64(-3), np.int32(9),
    np.int64(10**15), np.uint64(2**64 - 1),
    np.uint8(200), np.bool_(True), np.float64(0.1), np.float64(-0.0),
    np.float32(0.1), 0.1, 1.0, 1e-300, 5e-324, 1.0 / 3.0, -2.5e17, math.nan,
    math.inf, -math.inf, -0.0, 0.0,
]


class TestCsvWriter:
    def test_format_value_matches_reference_rule(self):
        for v in MIXED_CELLS:
            assert format_value(v) == reference_cell(v), repr(v)

    def test_to_csv_is_the_per_cell_rule(self):
        cells = MIXED_CELLS + [0] * (-len(MIXED_CELLS) % 4)
        rows = [tuple(cells[i:i + 4]) for i in range(0, len(cells), 4)]
        rows += [(np.float64(2.0), math.nan, -0.0, np.int64(1))]
        metadata = {"tool": "chainrad", "b.key": "2", "a.key": "x=y", "Z": "upper"}
        footer = ["max_rel_err=1.000e-12", "tolerance=1e-08"]
        table = SweepTable(
            columns=["c0", "c1", "c2", "c3"], rows=rows, metadata=metadata,
            footer=footer,
        )
        want = "".join(
            [f"# {key}={metadata[key]}\n" for key in sorted(metadata)]
            + ["c0,c1,c2,c3\n"]
            + [",".join(reference_cell(v) for v in row) + "\n" for row in rows]
            + [f"# {line}\n" for line in footer]
        )
        assert table.to_csv() == want
        # the special values and big integers reach the text as cells
        cells = {c for line in want.splitlines()[5:-2] for c in line.split(",")}
        assert {"nan", "inf", "-inf", "-0", "1000000000000000"} <= cells

    def test_write_csv_writes_once(self):
        class Stream(io.StringIO):
            calls = 0

            def write(self, text):
                Stream.calls += 1
                return super().write(text)

        table = SweepTable(columns=["x", "y"], rows=[(1, 0.5), (2, 0.25)])
        stream = Stream()
        table.write_csv(stream)
        assert Stream.calls == 1
        assert stream.getvalue() == table.to_csv() == "x,y\n1,0.5\n2,0.25\n"

    def test_empty_table(self):
        assert SweepTable(columns=["x"], rows=[]).to_csv() == "x\n"
