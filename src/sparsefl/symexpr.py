"""Exact symbolic arithmetic for the dictionary function class.

An :class:`Expression` is a sum of terms of the form

    coefficient * x1^p1 * ... * xn^pn * trig(j*xi) * ...

where each trig factor is ``sin`` or ``cos`` of a positive integer multiple
of a single state variable. An expression is a function of the state x
only; the scalar input u enters a model solely through the control-affine
pair (f, g) of ``xdot = f(x) + g(x) * u``. This covers polynomial/
trigonometric candidate libraries, their products, and their exact partial
derivatives, without pulling in a general-purpose CAS.

Expressions are immutable and canonical: like terms are merged, terms with
coefficient exactly zero are dropped, and the remaining terms are sorted by
a fixed graded-lexicographic order. Printing and evaluation are therefore
deterministic. Equality is structural: two canonical expressions compare
equal iff they have identical term lists, which is not function equality.
Trig identities are not applied, so ``sin(x1)^2 + cos(x1)^2 - 1`` is not
reported as zero by :meth:`Expression.is_zero`.

Products of trig factors are kept as products of atoms; no product-to-sum
rewriting is performed.

:func:`format_expression` prints an expression as text, and
:func:`parse_expression` reads that text back; its docstring states the
grammar it accepts.

:func:`evaluate_columns` evaluates many expressions on many samples at once
and returns exactly the numbers that per-sample :meth:`Expression.evaluate`
calls return, bit for bit (see its docstring for what that rests on).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Term",
    "Expression",
    "evaluate_columns",
    "format_expression",
    "format_terms",
    "parse_expression",
]

# A trig factor: (kind, frequency, variable index), e.g. ("sin", 2, 0) is sin(2*x1).
TrigAtom = tuple[str, int, int]

_TRIG_KINDS = ("sin", "cos")


def _atom_sort_key(atom: TrigAtom) -> tuple[int, str, int]:
    kind, freq, var = atom
    return (var, kind, freq)


@dataclass(frozen=True)
class Term:
    """One product term: coefficient * monomial * trig atoms."""

    coefficient: float
    monomial: tuple[int, ...]
    trig_atoms: tuple[TrigAtom, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError(f"non-finite term coefficient {self.coefficient!r}")
        if any(not isinstance(e, int) or e < 0 for e in self.monomial):
            raise ValueError(f"monomial exponents must be non-negative integers: {self.monomial}")
        n = len(self.monomial)
        for kind, freq, var in self.trig_atoms:
            if kind not in _TRIG_KINDS:
                raise ValueError(f"unknown trig kind {kind!r}")
            if not isinstance(freq, int) or freq < 1:
                raise ValueError(f"trig frequency must be a positive integer: {freq}")
            if not 0 <= var < n:
                raise ValueError(f"trig variable index {var} out of range for {n} states")
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "monomial", tuple(int(e) for e in self.monomial))
        object.__setattr__(
            self, "trig_atoms", tuple(sorted(self.trig_atoms, key=_atom_sort_key))
        )

    @property
    def signature(self) -> tuple:
        """Everything but the coefficient; terms with equal signatures merge."""
        return (self.monomial, self.trig_atoms)

    @property
    def sort_key(self) -> tuple:
        # Graded lex: total monomial degree, descending-lex exponents
        # (x1^2 before x1*x2 before x2^2), then trig.
        return (
            sum(self.monomial),
            tuple(-e for e in self.monomial),
            tuple(_atom_sort_key(a) for a in self.trig_atoms),
        )

    def evaluate(self, x: Sequence[float]) -> float:
        value = self.coefficient
        for i, p in enumerate(self.monomial):
            if p:
                value *= x[i] ** p
        for kind, freq, var in self.trig_atoms:
            angle = freq * x[var]
            if math.isinf(angle):  # an overflow, as for a power; math.sin(inf) is a domain error
                raise OverflowError(f"angle {freq}*x{var + 1} overflows a float")
            value *= math.sin(angle) if kind == "sin" else math.cos(angle)
        return value


def _canonical_terms(terms: Iterable[Term], n_states: int) -> tuple[Term, ...]:
    merged: dict[tuple, Term] = {}
    for t in sorted(terms, key=lambda t: t.sort_key):
        if len(t.monomial) != n_states:
            raise ValueError(
                f"term has {len(t.monomial)} exponents, expected {n_states}"
            )
        sig = t.signature
        if sig in merged:
            c = merged[sig].coefficient + t.coefficient
            if c == 0.0:
                del merged[sig]
            else:
                merged[sig] = Term(c, t.monomial, t.trig_atoms)
        elif t.coefficient != 0.0:
            merged[sig] = t
    # like terms share a sort key, so the merged terms are already in order
    return tuple(merged.values())


@dataclass(frozen=True)
class Expression:
    """Canonical sum of :class:`Term` over ``n_states`` state variables."""

    terms: tuple[Term, ...]
    n_states: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _canonical_terms(self.terms, self.n_states))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n_states: int) -> "Expression":
        return Expression((), n_states)

    @staticmethod
    def constant(value: float, n_states: int) -> "Expression":
        return Expression((Term(value, (0,) * n_states),), n_states)

    @staticmethod
    def variable(index: int, n_states: int) -> "Expression":
        if not 0 <= index < n_states:
            raise ValueError(f"variable index {index} out of range for {n_states} states")
        exps = [0] * n_states
        exps[index] = 1
        return Expression((Term(1.0, tuple(exps)),), n_states)

    @staticmethod
    def monomial(exponents: Sequence[int], coefficient: float = 1.0) -> "Expression":
        return Expression((Term(coefficient, tuple(exponents)),), len(exponents))

    @staticmethod
    def trig(kind: str, frequency: int, var: int, n_states: int) -> "Expression":
        atom: TrigAtom = (kind, frequency, var)
        return Expression((Term(1.0, (0,) * n_states, (atom,)),), n_states)

    # -- queries ------------------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol < 0:
            raise ValueError("tolerance must be non-negative")
        return all(abs(t.coefficient) <= tol for t in self.terms)

    def is_constant(self) -> bool:
        return all(not any(t.monomial) and not t.trig_atoms for t in self.terms)

    def constant_value(self) -> float:
        if not self.is_constant():
            raise ValueError(f"expression is not constant: {self}")
        return sum(t.coefficient for t in self.terms)

    def state_variables(self) -> set[int]:
        """Indices of state variables the expression actually depends on."""
        used: set[int] = set()
        for t in self.terms:
            used.update(i for i, p in enumerate(t.monomial) if p)
            used.update(var for _, _, var in t.trig_atoms)
        return used

    def max_abs_coefficient(self) -> float:
        return max((abs(t.coefficient) for t in self.terms), default=0.0)

    # -- arithmetic ----------------------------------------------------------

    def _check_dim(self, other: "Expression") -> None:
        if self.n_states != other.n_states:
            raise ValueError(
                f"dimension mismatch: {self.n_states} vs {other.n_states} states"
            )

    def __add__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        self._check_dim(other)
        return Expression(self.terms + other.terms, self.n_states)

    def __neg__(self) -> "Expression":
        return Expression(
            tuple(Term(-t.coefficient, t.monomial, t.trig_atoms) for t in self.terms),
            self.n_states,
        )

    def __sub__(self, other: "Expression") -> "Expression":
        if not isinstance(other, Expression):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Expression):
            self._check_dim(other)
            out = []
            for a in self.terms:
                for b in other.terms:
                    out.append(
                        Term(
                            a.coefficient * b.coefficient,
                            tuple(p + q for p, q in zip(a.monomial, b.monomial)),
                            a.trig_atoms + b.trig_atoms,
                        )
                    )
            return Expression(tuple(out), self.n_states)
        if isinstance(other, (int, float)):
            return Expression(
                tuple(Term(t.coefficient * other, t.monomial, t.trig_atoms) for t in self.terms),
                self.n_states,
            )
        return NotImplemented

    __rmul__ = __mul__

    def partial(self, index: int) -> "Expression":
        """Exact partial derivative with respect to state variable ``index``."""
        if not 0 <= index < self.n_states:
            raise ValueError(f"state index {index} out of range for {self.n_states} states")
        out: list[Term] = []
        for t in self.terms:
            p = t.monomial[index]
            if p:
                lowered = list(t.monomial)
                lowered[index] = p - 1
                out.append(Term(t.coefficient * p, tuple(lowered), t.trig_atoms))
            for j, (kind, freq, var) in enumerate(t.trig_atoms):
                if var != index:
                    continue
                rest = t.trig_atoms[:j] + t.trig_atoms[j + 1 :]
                if kind == "sin":
                    new_atom: TrigAtom = ("cos", freq, var)
                    factor = float(freq)
                else:
                    new_atom = ("sin", freq, var)
                    factor = -float(freq)
                out.append(Term(t.coefficient * factor, t.monomial, rest + (new_atom,)))
        return Expression(tuple(out), self.n_states)

    def evaluate(self, x: Sequence[float]) -> float:
        if len(x) != self.n_states:
            raise ValueError(
                f"point has {len(x)} components, expected {self.n_states}"
            )
        for v in x:
            if not math.isfinite(v):
                raise ValueError(f"non-finite state component {v!r}")
        total = 0.0
        for t in self.terms:
            total += t.evaluate(x)
        return total

    def __str__(self) -> str:
        return format_expression(self)

    def __repr__(self) -> str:
        return f"Expression({format_expression(self)!r}, n_states={self.n_states})"


def _powers(values: list[float], p: int) -> np.ndarray:
    """``[v ** p for v in values]`` as an array, by libm ``pow`` on Python floats."""
    try:
        return np.fromiter(map(math.pow, values, repeat(float(p))), float, len(values))
    except OverflowError:
        # math.pow's message differs; raise the scalar ``v ** p`` error Term.evaluate raises
        return np.fromiter(map(pow, values, repeat(p)), float, len(values))


def evaluate_columns(exprs: Sequence[Expression], X: np.ndarray) -> np.ndarray:
    """Evaluate ``exprs`` at every row of ``X`` (m x n).

    Returns an m x len(exprs) column-major array whose column j equals
    ``[exprs[j].evaluate(X[i]) for i in range(m)]`` bit for bit; each
    column is written, and later read, as one contiguous run.

    Each distinct atom column (``x_i^p`` or a trig atom) is computed once
    per call. A power is libm ``pow`` of each sample, called through
    ``math.pow`` (the scalar ``v ** p`` calls the same ``pow``; vector
    ``np.power`` rounds differently), and an overflowing power raises the
    scalar ``OverflowError``. ``v ** 1`` is ``v`` itself, so power-1 atoms
    are the state columns. A trig atom is ``np.sin``/``np.cos`` of
    ``X[:, v] * float(freq)``, the same IEEE multiply as the scalar
    ``freq * v``, and an infinite angle raises the scalar ``OverflowError``.
    That numpy's float64 sin/cos loop returns what ``math.sin``/``math.cos``
    return was verified on numpy 2.4.6 (its X86_V4 loop, over 10^6 to 10^7
    samples), not proven; the tests pin it.
    Term columns are then formed by multiplying the coefficient by the atom
    columns in :meth:`Term.evaluate`'s factor order, and summed from +0.0
    in term order; elementwise IEEE multiply and add round exactly as the
    scalar operations do.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"states must be an m x n array, got shape {X.shape}")
    m, n = X.shape
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite state component")

    atoms: dict[tuple, np.ndarray] = {}
    floats: dict[int, list[float]] = {}  # state column i as Python floats, for pow

    def atom(key: tuple) -> np.ndarray:
        # key: ("x", i, p) for x_i^p, or a trig atom
        if key not in atoms:
            if key[0] == "x":
                _, i, p = key
                if p == 1:
                    atoms[key] = X[:, i]
                else:
                    if i not in floats:
                        floats[i] = X[:, i].tolist()
                    atoms[key] = _powers(floats[i], p)
            else:
                kind, freq, var = key
                with np.errstate(over="ignore"):  # an infinite angle raises below
                    angles = X[:, var] * float(freq)
                if np.isinf(angles).any():
                    raise OverflowError(f"angle {freq}*x{var + 1} overflows a float")
                atoms[key] = (np.sin if kind == "sin" else np.cos)(angles, out=angles)
        return atoms[key]

    out = np.empty((m, len(exprs)), order="F")
    total, value = np.empty(m), np.empty(m)
    for j, e in enumerate(exprs):
        if e.n_states != n:
            raise ValueError(f"points have {n} components, expected {e.n_states}")
        total.fill(0.0)
        for t in e.terms:
            value.fill(t.coefficient)
            for i, p in enumerate(t.monomial):
                if p:
                    np.multiply(value, atom(("x", i, p)), out=value)
            for trig in t.trig_atoms:
                np.multiply(value, atom(trig), out=value)
            np.add(total, value, out=total)
        out[:, j] = total
    return out


# -- formatting ---------------------------------------------------------------


def _format_coefficient(c: float, digits: int | None) -> str:
    if digits is not None:
        s = f"{c:.{digits}g}"
        return s
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def _format_factors(t: Term) -> list[str]:
    factors: list[str] = []
    for i, p in enumerate(t.monomial):
        if p == 0:
            continue
        name = f"x{i + 1}"
        factors.append(name if p == 1 else f"{name}^{p}")
    for kind, freq, var in t.trig_atoms:
        arg = f"x{var + 1}" if freq == 1 else f"{freq}*x{var + 1}"
        factors.append(f"{kind}({arg})")
    return factors


def format_expression(e: Expression, digits: int | None = None) -> str:
    """Deterministic text rendering; exact mode round-trips through the parser."""
    return format_terms(((t, ()) for t in e.terms), digits)


def format_terms(
    terms: Iterable[tuple[Term, tuple[str, ...]]], digits: int | None = None
) -> str:
    """Render ``(term, extra factor names)`` pairs, in order, as one signed sum.

    Each summand is the term's coefficient and factors followed by the extra
    names, so ``f + g*u`` is f's terms then g's terms with the extra ``"u"``.
    An empty sum is ``"0"``.
    """
    pieces: list[str] = []
    for idx, (t, extra) in enumerate(terms):
        factors = _format_factors(t) + list(extra)
        mag = _format_coefficient(abs(t.coefficient), digits)
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if idx == 0:
            pieces.append(body if t.coefficient >= 0 else f"-{body}")
        else:
            joiner = " + " if t.coefficient >= 0 else " - "
            pieces.append(f"{joiner}{body}")
    return "".join(pieces) or "0"


# -- parsing ------------------------------------------------------------------

# One factor and the separator after it. A factor is sin/cos(j*xN), or a
# numeric literal or a state xN, either with an optional ^k.
_FACTOR_RE = re.compile(
    r"\s*(?:(?P<trig>sin|cos)\s*\(\s*(?:(?P<freq>\d+)\s*\*\s*)?x(?P<arg>[0-9]+)\s*\)"
    r"|(?:(?P<literal>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|x(?P<state>[0-9]+))"
    r"(?:\s*\^\s*(?P<power>\d+))?)"
    r"\s*(?P<sep>[-+*]?)"
)


def _factor_error(text: str, pos: int) -> ValueError:
    rest = text[pos:].lstrip()
    if not rest:
        return ValueError("unexpected end of expression")
    symbol = re.match(r"[A-Za-z_]\w*", rest)
    if symbol and symbol[0] not in _TRIG_KINDS:
        return ValueError(f"unknown symbol {symbol[0]!r}")
    return ValueError(f"malformed factor at position {len(text) - len(rest)}: {rest!r}")


def parse_expression(text: str, n_states: int | None = None) -> Expression:
    """Parse the text grammar produced by :func:`format_expression`.

    The text is an optional leading ``+`` or ``-`` and terms joined by ``+``
    or ``-``; a term is factors joined by ``*``. A factor is a numeric
    literal (``2``, ``1.5``, ``.5``, ``1e-3``), a state ``xN`` (N >= 1, read
    as a decimal number, so ``x01`` is x1), either with an optional
    ``^k``, or ``sin(xN)``, ``cos(xN)``, ``sin(j*xN)`` or ``cos(j*xN)``
    with j >= 1. k and j are digit strings. Whitespace may surround any
    token. Anything else raises :class:`ValueError`, and so do a state
    beyond ``n_states`` and a literal or term coefficient that is not a
    finite float; a non-string raises :class:`TypeError`. If ``n_states``
    is omitted it is the largest state index present.
    """
    if not isinstance(text, str):
        raise TypeError(f"an expression must be a string, got {type(text).__name__}")
    text = text.lstrip()
    if not text:
        raise ValueError("empty expression")
    n = n_states
    if n is None:
        n = max((int(i) for i in re.findall(r"x([0-9]+)", text)), default=0)

    def state(index: str) -> int:
        i = int(index) - 1
        if i < 0:
            raise ValueError(f"unknown symbol 'x{index}'")
        if i >= n:
            raise ValueError(f"expression references x{i + 1} but n_states={n}")
        return i

    terms: list[Term] = []
    sep, pos = (text[0], 1) if text[0] in "+-" else ("+", 0)
    while sep:  # one term per pass; sep is its sign
        coefficient, exps, atoms = -1.0 if sep == "-" else 1.0, [0] * n, []
        while True:
            m = _FACTOR_RE.match(text, pos)
            if m is None:
                raise _factor_error(text, pos)
            if m["trig"]:
                atoms.append((m["trig"], int(m["freq"] or 1), state(m["arg"])))
            elif m["state"]:
                exps[state(m["state"])] += int(m["power"] or 1)
            else:
                literal = float(m["literal"])
                if not math.isfinite(literal):  # before the power: inf ** 0 is 1.0
                    raise ValueError(f"literal {m['literal']} is not a finite number")
                try:
                    coefficient *= literal ** int(m["power"] or 1)
                except OverflowError:
                    raise ValueError(f"literal {m['literal']}^{m['power']} overflows") from None
            pos, sep = m.end(), m["sep"]
            if sep != "*":
                break
        terms.append(Term(coefficient, tuple(exps), tuple(atoms)))
    if pos < len(text):
        raise ValueError(f"expected '*', '+', '-' or the end at position {pos}: {text[pos:]!r}")
    return Expression(tuple(terms), n)
