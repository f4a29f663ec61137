"""Candidate-function libraries and their evaluation on trajectory data.

Three paired libraries are built from a :class:`LibrarySpec`:

* drift library: constant, all monomials of total degree 1..poly_order
  (graded-lexicographic within each degree block), then sin/cos of integer
  multiples of each single state;
* input library: exactly the drift entries multiplied by ``u`` (the
  constant entry becomes the pure ``u`` column);
* output library: powers ``1, x_k, x_k^2, ...`` of the observed state.

The numeric matrices come from :func:`sparsefl.symexpr.evaluate_columns`
over all samples at once, which returns exactly what the symbolic entry's
``evaluate`` returns at each sample, so the symbolic and numeric views
agree bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .data import Dataset
from .symexpr import Expression, Term, evaluate_columns

__all__ = [
    "LibrarySpec",
    "DictionarySet",
    "build_dictionaries",
]


@dataclass(frozen=True)
class LibrarySpec:
    """Shape of the candidate libraries."""

    poly_order: int = 3
    trig_orders: tuple[int, ...] = ()
    include_constant: bool = True
    output_state_index: int = 0
    output_poly_order: int = 3
    cross_trig: bool = False
    normalize_columns: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "trig_orders", tuple(int(j) for j in self.trig_orders))
        if self.poly_order < 0:
            raise ValueError("poly_order must be non-negative")
        if not self.trig_orders and self.poly_order < 1:
            raise ValueError("library is degenerate: poly_order < 1 with no trig entries")
        if any(j < 1 for j in self.trig_orders):
            raise ValueError("trig orders must be positive integers")
        if self.output_state_index < 0:
            raise ValueError("output_state_index must be non-negative")
        if self.output_poly_order < 0:
            raise ValueError("output_poly_order must be non-negative")


def _monomial_exponents(n: int, degree: int):
    """Yield exponent tuples of total degree ``degree`` in descending lex order."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomial_exponents(n - 1, degree - first):
            yield (first,) + rest


def _drift_entries(spec: LibrarySpec, n: int) -> list[Expression]:
    entries: list[Expression] = []
    if spec.include_constant:
        entries.append(Expression.constant(1.0, n))
    for degree in range(1, spec.poly_order + 1):
        for exps in _monomial_exponents(n, degree):
            entries.append(Expression((Term(1.0, exps),), n))
    for j in spec.trig_orders:
        for kind in ("sin", "cos"):
            for i in range(n):
                entries.append(Expression.trig(kind, j, i, n))
    if spec.cross_trig:
        for i in range(n):
            for i2 in range(i + 1, n):
                for j, j2 in _cartesian(spec.trig_orders, spec.trig_orders):
                    for kind, kind2 in _cartesian(("sin", "cos"), ("sin", "cos")):
                        entries.append(
                            Expression.trig(kind, j, i, n)
                            * Expression.trig(kind2, j2, i2, n)
                        )
    return entries


@dataclass(frozen=True)
class DictionarySet:
    """Symbolic library entries paired with their evaluation on a Dataset."""

    spec: LibrarySpec
    n_states: int
    theta_f_entries: tuple[Expression, ...]
    theta_g_entries: tuple[Expression, ...]
    phi_entries: tuple[Expression, ...]
    theta_f: np.ndarray  # m x p_x
    theta_g: np.ndarray  # m x p_u
    phi: np.ndarray  # m x p_y

    @property
    def p_x(self) -> int:
        return len(self.theta_f_entries)

    @property
    def p_u(self) -> int:
        return len(self.theta_g_entries)

    @property
    def p_y(self) -> int:
        return len(self.phi_entries)

    def labels_f(self) -> list[str]:
        return [str(e) for e in self.theta_f_entries]

    def labels_g(self) -> list[str]:
        return [str(e) for e in self.theta_g_entries]

    def labels_phi(self) -> list[str]:
        return [str(e) for e in self.phi_entries]


def build_dictionaries(spec: LibrarySpec, d: Dataset) -> DictionarySet:
    """Construct the drift/input/output libraries and evaluate them on ``d``."""
    n = d.n
    if spec.output_state_index >= n:
        raise ValueError(
            f"output_state_index {spec.output_state_index} out of range for {n} states"
        )
    f_entries = _drift_entries(spec, n)
    u_factor = Expression.input(n)
    g_entries = [e * u_factor for e in f_entries]
    k = spec.output_state_index
    phi_entries = [
        Expression.monomial(tuple(j if i == k else 0 for i in range(n)))
        for j in range(spec.output_poly_order + 1)
    ]

    p_x, p_u = len(f_entries), len(g_entries)
    if d.m < max(p_x + p_u, len(phi_entries)):
        warnings.warn(
            f"only {d.m} samples for a library of width {p_x + p_u}; "
            "the regression is underdetermined",
            stacklevel=2,
        )

    # one call, so the three libraries share their atom columns; the drift
    # and output entries carry no u factor, so passing U changes none of them
    values = evaluate_columns(f_entries + g_entries + phi_entries, d.X, d.U)
    theta_f = values[:, :p_x].copy()
    theta_g = values[:, p_x : p_x + p_u].copy()
    phi = values[:, p_x + p_u :].copy()
    theta_f.setflags(write=False)
    theta_g.setflags(write=False)
    phi.setflags(write=False)
    return DictionarySet(
        spec=spec,
        n_states=n,
        theta_f_entries=tuple(f_entries),
        theta_g_entries=tuple(g_entries),
        phi_entries=tuple(phi_entries),
        theta_f=theta_f,
        theta_g=theta_g,
        phi=phi,
    )

