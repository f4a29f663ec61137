"""Lie-derivative chains and the relative degree.

All computations are exact symbolic operations on :class:`Expression`
objects. Zero tests use coefficient magnitudes with an explicit tolerance,
which is the right notion for functions reconstructed from a thresholded
regression: "zero for all x" means every term coefficient is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dynamics import ControlAffineSystem
from .symexpr import Expression

__all__ = [
    "LieChain",
    "RelativeDegreeError",
    "lie_derivative",
    "relative_degree",
]

DEFAULT_ZERO_TOL = 1e-6


class RelativeDegreeError(ValueError):
    """Relative degree undefined or incompatible with the requested operation."""


def lie_derivative(e: Expression, field: Sequence[Expression]) -> Expression:
    """Directional derivative of ``e`` along the vector field ``field``."""
    if e.n_states != len(field):
        raise ValueError(f"dimension mismatch: {e.n_states} vs {len(field)} states")
    products = [e.partial(i) * component for i, component in enumerate(field)]
    return Expression(tuple(t for product in products for t in product.terms), len(field))


@dataclass(frozen=True)
class LieChain:
    """Iterated Lie derivatives of the output map and the resulting relative degree.

    ``lf_powers[k]`` is Lf^k c for k = 0..r (or up to the search bound when
    the relative degree is undefined); ``lg_mixed[k]`` is Lg Lf^k c.
    A relative degree of ``None`` means no mixed derivative was nonzero
    within the search bound. When r equals the state dimension n,
    ``lf_powers[:n]`` are the normal-form coordinates.
    """

    lf_powers: tuple[Expression, ...]
    lg_mixed: tuple[Expression, ...]
    relative_degree: int | None

    @property
    def n_states(self) -> int:
        return self.lf_powers[0].n_states


def relative_degree(sys: ControlAffineSystem) -> LieChain:
    """Find the smallest r <= n with Lg Lf^(r-1) c nonzero.

    A derivative is zero when every coefficient is at most ``DEFAULT_ZERO_TOL``
    in magnitude.

    Returns the populated chain; ``relative_degree`` is None when
    Lg Lf^k c vanishes for every k < n.
    """
    lf_powers = [sys.c]
    lg_mixed: list[Expression] = []
    r: int | None = None
    for k in range(sys.n):
        lg_k = lie_derivative(lf_powers[k], sys.g)
        lg_mixed.append(lg_k)
        if not lg_k.is_zero(DEFAULT_ZERO_TOL):
            r = k + 1
            break
        lf_powers.append(lie_derivative(lf_powers[k], sys.f))
    if r is not None:
        while len(lf_powers) < r + 1:
            lf_powers.append(lie_derivative(lf_powers[-1], sys.f))
    return LieChain(
        lf_powers=tuple(lf_powers),
        lg_mixed=tuple(lg_mixed),
        relative_degree=r,
    )
