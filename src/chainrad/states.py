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
        super().__init__(coeffs)

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return "".join("+" if c == 1 else "-" for c in self.coeffs)


def symmetric_state(n: int) -> SignState:
    """All-plus (superradiant) state."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SignState(coeffs=(1,) * n)


def alternating_state(n: int) -> SignState:
    """Alternating-sign state, C_k = (-1)^(k+1); dark/metastable for q_a a << 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return SignState(coeffs=tuple(1 if k % 2 == 0 else -1 for k in range(n)))
