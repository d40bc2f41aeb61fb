import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrad.states import SignState, alternating_state, symmetric_state
from oracles import pair_correlations

sign_patterns = st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12).map(tuple)


class TestConstructors:
    def test_symmetric(self):
        assert symmetric_state(1).coeffs == (1,)
        assert symmetric_state(2).coeffs == (1, 1)
        assert symmetric_state(3).coeffs == (1, 1, 1)

    def test_alternating(self):
        assert alternating_state(1).coeffs == (1,)
        assert alternating_state(2).coeffs == (1, -1)
        assert alternating_state(3).coeffs == (1, -1, 1)

    def test_leading_coefficient_is_plus(self):
        for n in range(1, 8):
            assert symmetric_state(n).coeffs[0] == 1
            assert alternating_state(n).coeffs[0] == 1

    @pytest.mark.parametrize("ctor", [symmetric_state, alternating_state])
    def test_zero_atoms_rejected(self, ctor):
        # SignState holds the one state-size rule
        for n in (0, -1):
            with pytest.raises(ValueError) as info:
                ctor(n)
            assert str(info.value) == "state needs at least one atom"

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            SignState(coeffs=(1, 0, -1))
        with pytest.raises(ValueError):
            SignState(coeffs=(2,))
        with pytest.raises(ValueError):
            SignState(coeffs=())

    @pytest.mark.parametrize(
        "signs",
        [[1, -1, 1], (1, -1, 1), np.array([1, -1, 1]), [1.0, -1.0, 1.0],
         np.array([1.0, -1.0, 1.0])],
        ids=["list", "tuple", "ndarray", "float-list", "float-ndarray"],
    )
    def test_any_sequence_is_a_tuple_record(self, signs):
        # equal records compare, hash and repr alike, whatever sequence
        # built them
        state = SignState(signs)
        assert state.coeffs == (1, -1, 1) and type(state.coeffs) is tuple
        assert all(type(c) is int for c in state.coeffs)
        assert state == SignState((1, -1, 1)) and state != SignState((1, 1, 1))
        assert hash(state) == hash(SignState((1, -1, 1)))
        assert repr(state) == "SignState(coeffs=(1, -1, 1))"
        assert str(state) == "+-+"

    def test_str_pattern(self):
        assert str(alternating_state(4)) == "+-+-"


class TestPairCorrelations:
    def test_symmetric_pair(self):
        mat = pair_correlations(symmetric_state(2).coeffs)
        assert np.all(mat == 0.5)

    def test_antisymmetric_pair(self):
        mat = pair_correlations(alternating_state(2).coeffs)
        assert mat[0, 0] == mat[1, 1] == 0.5
        assert mat[0, 1] == mat[1, 0] == -0.5

    @given(sign_patterns)
    def test_trace_is_one(self, coeffs):
        mat = pair_correlations(SignState(coeffs=coeffs).coeffs)
        assert np.trace(mat) == pytest.approx(1.0, abs=1e-14)

    @given(sign_patterns)
    def test_global_sign_flip_invariance(self, coeffs):
        state = SignState(coeffs=coeffs)
        flipped = SignState(coeffs=tuple(-c for c in coeffs))
        assert np.array_equal(
            pair_correlations(state.coeffs), pair_correlations(flipped.coeffs)
        )

    @given(sign_patterns)
    def test_rank_one_product_identity(self, coeffs):
        # entries(i,j) * N == C_i C_j exactly
        state = SignState(coeffs=coeffs)
        mat = pair_correlations(state.coeffs) * state.n
        c = np.array(coeffs, dtype=float)
        assert np.array_equal(mat, np.outer(c, c))

    def test_symmetric_diagonal_value(self):
        mat = pair_correlations(symmetric_state(5).coeffs)
        assert np.all(np.diag(mat) == pytest.approx(0.2))
