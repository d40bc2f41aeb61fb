"""Single-excitation collective states with +/-1 coefficient patterns."""

from .frozen import Frozen


class SignState(Frozen):
    """A collective state (1/sqrt(N)) sum_i C_i |...e_i...> with C_i = +/-1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        if len(coeffs) < 1:
            raise ValueError("state needs at least one atom")
        if any(c not in (1, -1) for c in coeffs):
            raise ValueError(f"coefficients must be +1 or -1, got {coeffs}")
        # any sequence of signs (a tuple of floats, numpy ints or bools
        # too) is stored as a tuple of plain ints, so equal states compare,
        # hash and repr alike
        super().__init__(tuple(1 if c == 1 else -1 for c in coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return "".join("+" if c == 1 else "-" for c in self.coeffs)


def symmetric_state(n: int) -> SignState:
    """All-plus (superradiant) state."""
    return SignState(coeffs=(1,) * n)


def alternating_state(n: int) -> SignState:
    """Alternating-sign state, C_k = (-1)^(k+1); dark/metastable for q_a a << 1."""
    return SignState(coeffs=tuple(1 if k % 2 == 0 else -1 for k in range(n)))
