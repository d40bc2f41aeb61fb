"""Single-excitation collective states with +/-1 coefficient patterns."""

from itertools import product

from .frozen import Frozen

#: enumerate_sign_states refuses larger chains (2^n blowup guard).
MAX_ENUM_ATOMS = 20


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


def enumerate_sign_states(n: int) -> list[SignState]:
    """All 2^n sign patterns, lexicographic with +1 before -1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ENUM_ATOMS:
        raise ValueError(f"refusing to enumerate 2^{n} states (limit n <= {MAX_ENUM_ATOMS})")
    return [SignState(coeffs=pattern) for pattern in product((1, -1), repeat=n)]
