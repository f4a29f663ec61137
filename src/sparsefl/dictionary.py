"""Candidate-function libraries and their evaluation on trajectory data.

Three paired libraries are built from a :class:`LibrarySpec`:

* drift library: the constant 1 (always present), all monomials of total
  degree 1..poly_order (graded-lexicographic within each degree block),
  then sin/cos of integer multiples of each single state;
* input library: the drift library times the input on the data,
  ``theta_g = theta_f * u`` sample by sample, so the constant entry gives
  the pure ``u`` column. It has no symbolic entries of its own: column k of
  ``theta_g`` belongs to drift entry k, and a model's g combines the input
  coefficients with the drift entries. It is never stored: the regression
  forms its rows where it reads them, a block of rows at a time;
* output library: powers ``1, x_k, x_k^2, ...`` of the observed state.

The drift and output matrices are views into the one column-major array that
:func:`sparsefl.symexpr.evaluate_columns` returns over all samples at once,
which holds exactly what the symbolic entry's ``evaluate`` returns at each
sample, so the symbolic and numeric views agree bit for bit.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields
from itertools import product as _cartesian

import numpy as np

from .data import Dataset
from .symexpr import Expression, Term, evaluate_columns

__all__ = [
    "LibrarySpec",
    "DictionarySet",
    "build_dictionaries",
]


def integer(value, name: str) -> int:
    """``value`` as an int: a bool or a non-integral number is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def real(value, name: str) -> float:
    """``value`` as a float: a bool, a non-number, NaN or ±inf is a ValueError naming ``name``."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int too large for a float
        pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_fields(record) -> None:
    """Check the int, float and bool fields of a frozen dataclass, each typed by its default.

    Numpy numbers pass and are stored as Python numbers, so the record converts to JSON.
    """
    for f in fields(record):
        kind, v = type(f.default), getattr(record, f.name)
        if kind is int:
            object.__setattr__(record, f.name, integer(v, f.name))
        elif kind is float:
            object.__setattr__(record, f.name, real(v, f.name))
        elif kind is bool and not isinstance(v, bool):
            raise ValueError(f"{f.name} must be true or false, got {v!r}")


@dataclass(frozen=True)
class LibrarySpec:
    """Shape of the candidate libraries; its fields are the config's ``library`` keys."""

    poly_order: int = 3
    trig_orders: tuple[int, ...] = ()
    output_state_index: int = 0
    output_poly_order: int = 3
    cross_trig: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        orders = tuple(integer(j, "trig_orders") for j in self.trig_orders)
        object.__setattr__(self, "trig_orders", orders)
        for name in ("poly_order", "output_state_index", "output_poly_order"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not orders and self.poly_order < 1:
            raise ValueError("library is degenerate: poly_order < 1 with no trig entries")
        # a repeated order would build identical columns
        if any(j < 1 for j in orders) or len(set(orders)) < len(orders):
            raise ValueError(f"trig_orders must be distinct positive integers, got {orders}")


def _monomial_exponents(n: int, degree: int):
    """Yield exponent tuples of total degree ``degree`` in descending lex order."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomial_exponents(n - 1, degree - first):
            yield (first,) + rest


def _drift_entries(spec: LibrarySpec, n: int) -> list[Expression]:
    entries = [Expression.constant(1.0, n)]
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
    """Library entries and their values on a Dataset, as views into one read-only array."""

    spec: LibrarySpec
    n_states: int
    theta_f_entries: tuple[Expression, ...]
    phi_entries: tuple[Expression, ...]
    theta_f: np.ndarray  # m x p_x, columns :p_x of the column-major m x (p_x + p_y) array
    phi: np.ndarray  # m x p_y, the remaining columns

    @property
    def p_x(self) -> int:
        return len(self.theta_f_entries)

    @property
    def p_u(self) -> int:
        """Width of the input library: one column per drift entry."""
        return self.p_x

    @property
    def p_y(self) -> int:
        return len(self.phi_entries)

    def labels_f(self) -> list[str]:
        return [str(e) for e in self.theta_f_entries]

    def labels_g(self) -> list[str]:
        return ["u" if lab == "1" else f"{lab}*u" for lab in self.labels_f()]

    def labels_phi(self) -> list[str]:
        return [str(e) for e in self.phi_entries]


def _overflows(entry: Expression, X: np.ndarray) -> bool:
    try:
        evaluate_columns([entry], X)
    except OverflowError:
        return True
    return False


def _overflow_error(label: str, d: Dataset) -> ValueError:
    return ValueError(
        f"library entry {label} overflows a float on this data (largest |state| "
        f"{np.max(np.abs(d.X)):.3g}, largest |u| {np.max(np.abs(d.U)):.3g})"
    )


def build_dictionaries(spec: LibrarySpec, d: Dataset) -> DictionarySet:
    """Construct the drift/input/output libraries and evaluate them on ``d``.

    An entry whose power, or whose product with u, overflows a float at
    some sample raises :class:`ValueError` naming it.
    """
    n = d.n
    if spec.output_state_index >= n:
        raise ValueError(
            f"output_state_index {spec.output_state_index} out of range for {n} states"
        )
    f_entries = _drift_entries(spec, n)
    k = spec.output_state_index
    phi_entries = [
        Expression.monomial(tuple(j if i == k else 0 for i in range(n)))
        for j in range(spec.output_poly_order + 1)
    ]

    p_x = len(f_entries)
    if d.m < max(2 * p_x, len(phi_entries)):
        warnings.warn(
            f"only {d.m} samples for a library of width {2 * p_x}; "
            "the regression is underdetermined",
            stacklevel=2,
        )

    entries = f_entries + phi_entries
    try:  # one call, so the drift and output libraries share their atom columns
        values = evaluate_columns(entries, d.X)
    except OverflowError:
        raise _overflow_error(str(next(e for e in entries if _overflows(e, d.X))), d) from None
    values.setflags(write=False)
    theta_f = values[:, :p_x]
    # rounding to nearest is monotone, so each |theta_ik * u_i| rounds to at most
    # fl(max|values| * max|u|): only when that bound is not finite (inf, or NaN
    # from an inf * 0 in evaluate_columns) can a product overflow
    with np.errstate(over="ignore"):
        bound = max(values.max(), -values.min()) * np.max(np.abs(d.U))
    for k in range(0 if math.isfinite(bound) else p_x):
        try:
            with np.errstate(over="raise"):
                theta_f[:, k] * d.U
        except FloatingPointError:
            raise _overflow_error(f"{f_entries[k]}*u", d) from None
    return DictionarySet(
        spec=spec,
        n_states=n,
        theta_f_entries=tuple(f_entries),
        phi_entries=tuple(phi_entries),
        theta_f=theta_f,
        phi=values[:, p_x:],
    )
