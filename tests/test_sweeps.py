import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrad.sweeps import format_value, linspace

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


class TestFormatValue:
    def test_integers_of_any_kind(self):
        assert format_value(7) == format_value(np.int64(7)) == "7"

    def test_floats(self):
        assert format_value(0.1) == format_value(np.float64(0.1)) == "0.1"
