"""Lie-derivative chains, relative degree, and normal-form coordinates.

All computations are exact symbolic operations on :class:`Expression`
objects. Zero tests use coefficient magnitudes with an explicit tolerance,
which is the right notion for functions reconstructed from a thresholded
regression: "zero for all x" means every term coefficient is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import ControlAffineSystem
from .symexpr import Expression

__all__ = [
    "LieChain",
    "RelativeDegreeError",
    "lie_f",
    "lie_g",
    "relative_degree",
    "normal_form",
]

DEFAULT_ZERO_TOL = 1e-6


class RelativeDegreeError(ValueError):
    """Relative degree undefined or incompatible with the requested operation."""


def lie_f(e: Expression, sys: ControlAffineSystem) -> Expression:
    """Directional derivative of ``e`` along the drift field f."""
    if e.n_states != sys.n:
        raise ValueError(f"dimension mismatch: {e.n_states} vs {sys.n} states")
    out = Expression.zero(sys.n)
    for i in range(sys.n):
        out = out + e.partial(i) * sys.f[i]
    return out


def lie_g(e: Expression, sys: ControlAffineSystem) -> Expression:
    """Directional derivative of ``e`` along the input field g."""
    if e.n_states != sys.n:
        raise ValueError(f"dimension mismatch: {e.n_states} vs {sys.n} states")
    out = Expression.zero(sys.n)
    for i in range(sys.n):
        out = out + e.partial(i) * sys.g[i]
    return out


@dataclass(frozen=True)
class LieChain:
    """Iterated Lie derivatives of the output map and the resulting relative degree.

    ``lf_powers[k]`` is Lf^k c for k = 0..r (or up to the search bound when
    the relative degree is undefined); ``lg_mixed[k]`` is Lg Lf^k c.
    A relative degree of ``None`` means no mixed derivative was nonzero
    within the search bound.
    """

    c: Expression
    lf_powers: tuple[Expression, ...]
    lg_mixed: tuple[Expression, ...]
    relative_degree: int | None

    @property
    def n_states(self) -> int:
        return self.c.n_states


def relative_degree(
    sys: ControlAffineSystem,
    tol: float = DEFAULT_ZERO_TOL,
    max_r: int | None = None,
) -> LieChain:
    """Find the smallest r with Lg Lf^(r-1) c nonzero (up to ``max_r``).

    Returns the populated chain; ``relative_degree`` is None when every
    mixed derivative up to the bound vanishes.
    """
    if max_r is None:
        max_r = sys.n
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    lf_powers = [sys.c]
    lg_mixed: list[Expression] = []
    r: int | None = None
    for k in range(max_r):
        lg_k = lie_g(lf_powers[k], sys)
        lg_mixed.append(lg_k)
        if not lg_k.is_zero(tol):
            r = k + 1
            break
        lf_powers.append(lie_f(lf_powers[k], sys))
    if r is not None:
        while len(lf_powers) < r + 1:
            lf_powers.append(lie_f(lf_powers[-1], sys))
    return LieChain(
        c=sys.c,
        lf_powers=tuple(lf_powers),
        lg_mixed=tuple(lg_mixed),
        relative_degree=r,
    )


def normal_form(sys: ControlAffineSystem, chain: LieChain) -> list[Expression]:
    """Coordinates [c, Lf c, ..., Lf^(n-1) c] of the controlled integrator chain.

    Requires full-state linearization (relative degree equal to the state
    dimension); otherwise the transformation would leave internal dynamics.
    """
    if chain.relative_degree is None:
        raise RelativeDegreeError("relative degree undefined; no normal form exists")
    if chain.relative_degree != sys.n:
        raise RelativeDegreeError(
            f"internal dynamics present: relative degree {chain.relative_degree} "
            f"< state dimension {sys.n}"
        )
    coords = [chain.lf_powers[k] for k in range(sys.n)]
    return coords
