"""Exact symbolic arithmetic for the dictionary function class.

An :class:`Expression` is a sum of terms of the form

    coefficient * x1^p1 * ... * xn^pn * trig(j*xi) * ... * u^q

where each trig factor is ``sin`` or ``cos`` of a positive integer multiple
of a single state variable, and ``u`` is a scalar input. This covers
polynomial/trigonometric candidate libraries, their products, and their
exact partial derivatives, without pulling in a general-purpose CAS.

Expressions are immutable and canonical: like terms are merged, terms with
coefficient exactly zero are dropped, and the remaining terms are sorted by
a fixed graded-lexicographic order. Printing and evaluation are therefore
deterministic, and two canonical expressions compare equal iff they have
identical term lists.

Products of trig factors are kept as products of atoms; no product-to-sum
rewriting is performed.

:func:`evaluate_columns` evaluates many expressions on many samples at once
and returns exactly the numbers that per-sample :meth:`Expression.evaluate`
calls return, bit for bit (see its docstring for why that holds).
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
    """One product term: coefficient * monomial * trig atoms * u^input_power."""

    coefficient: float
    monomial: tuple[int, ...]
    trig_atoms: tuple[TrigAtom, ...] = ()
    input_power: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError(f"non-finite term coefficient {self.coefficient!r}")
        if any(not isinstance(e, int) or e < 0 for e in self.monomial):
            raise ValueError(f"monomial exponents must be non-negative integers: {self.monomial}")
        if not isinstance(self.input_power, int) or self.input_power < 0:
            raise ValueError(f"input power must be a non-negative integer: {self.input_power}")
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
        return (self.monomial, self.trig_atoms, self.input_power)

    @property
    def sort_key(self) -> tuple:
        # Input-free terms first, then graded lex: total monomial degree,
        # descending-lex exponents (x1^2 before x1*x2 before x2^2), trig.
        return (
            self.input_power,
            sum(self.monomial),
            tuple(-e for e in self.monomial),
            tuple(_atom_sort_key(a) for a in self.trig_atoms),
        )

    def evaluate(self, x: Sequence[float], u: float) -> float:
        value = self.coefficient
        for i, p in enumerate(self.monomial):
            if p:
                value *= x[i] ** p
        for kind, freq, var in self.trig_atoms:
            angle = freq * x[var]
            value *= math.sin(angle) if kind == "sin" else math.cos(angle)
        if self.input_power:
            value *= u ** self.input_power
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
                merged[sig] = Term(c, t.monomial, t.trig_atoms, t.input_power)
        elif t.coefficient != 0.0:
            merged[sig] = t
    return tuple(sorted(merged.values(), key=lambda t: t.sort_key))


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

    @staticmethod
    def input(n_states: int, power: int = 1) -> "Expression":
        return Expression((Term(1.0, (0,) * n_states, (), power),), n_states)

    # -- queries ------------------------------------------------------------

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol < 0:
            raise ValueError("tolerance must be non-negative")
        return all(abs(t.coefficient) <= tol for t in self.terms)

    def is_constant(self) -> bool:
        return all(
            not any(t.monomial) and not t.trig_atoms and t.input_power == 0
            for t in self.terms
        )

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

    def depends_on_input(self) -> bool:
        return any(t.input_power for t in self.terms)

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
            tuple(Term(-t.coefficient, t.monomial, t.trig_atoms, t.input_power) for t in self.terms),
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
                            a.input_power + b.input_power,
                        )
                    )
            return Expression(tuple(out), self.n_states)
        if isinstance(other, (int, float)):
            return Expression(
                tuple(
                    Term(t.coefficient * other, t.monomial, t.trig_atoms, t.input_power)
                    for t in self.terms
                ),
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
                out.append(Term(t.coefficient * p, tuple(lowered), t.trig_atoms, t.input_power))
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
                out.append(
                    Term(t.coefficient * factor, t.monomial, rest + (new_atom,), t.input_power)
                )
        return Expression(tuple(out), self.n_states)

    def evaluate(self, x: Sequence[float], u: float = 0.0) -> float:
        if len(x) != self.n_states:
            raise ValueError(
                f"point has {len(x)} components, expected {self.n_states}"
            )
        for v in x:
            if not math.isfinite(v):
                raise ValueError(f"non-finite state component {v!r}")
        if not math.isfinite(u):
            raise ValueError(f"non-finite input value {u!r}")
        total = 0.0
        for t in self.terms:
            total += t.evaluate(x, u)
        return total

    # -- strip/rebuild helpers used by the dictionary layer -----------------

    def strip_input(self) -> "Expression":
        """Drop the ``u`` factor from every term (control-affine extraction)."""
        return Expression(
            tuple(Term(t.coefficient, t.monomial, t.trig_atoms, 0) for t in self.terms),
            self.n_states,
        )

    def __str__(self) -> str:
        return format_expression(self)

    def __repr__(self) -> str:
        return f"Expression({format_expression(self)!r}, n_states={self.n_states})"


def evaluate_columns(
    exprs: Sequence[Expression], X: np.ndarray, U: np.ndarray | None = None
) -> np.ndarray:
    """Evaluate ``exprs`` at every row of ``X`` (m x n) with input ``U`` (length m).

    Returns an m x len(exprs) array whose column j equals
    ``[exprs[j].evaluate(X[i], U[i]) for i in range(m)]`` bit for bit;
    ``U=None`` means ``u = 0``, the default of :meth:`Expression.evaluate`.

    Each distinct atom column (``x_i^p``, a trig atom, ``u^q``) is computed
    once per call, element by element with the same scalar operations
    :meth:`Term.evaluate` uses (``v ** p``, ``math.sin(freq * v)``), iterated
    in C by ``map``. Vector ``np.power``/``np.sin`` may round differently
    from the scalar libm calls, so they are not used; an overflowing power
    raises ``OverflowError`` as the scalar one does. ``v ** 1`` is ``v``
    itself, so power-1 atoms are the state and input columns. The product
    ``freq * v`` is one IEEE multiply, elementwise or scalar. Term columns
    are then formed by multiplying the coefficient by the atom columns in
    :meth:`Term.evaluate`'s factor order, and summed from zero in term
    order; elementwise IEEE multiply and add round exactly as the scalar
    operations do.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"states must be an m x n array, got shape {X.shape}")
    m, n = X.shape
    U = np.zeros(m) if U is None else np.asarray(U, dtype=float)
    if U.shape != (m,):
        raise ValueError(f"input must have shape ({m},), got {U.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite state component")
    if not np.all(np.isfinite(U)):
        raise ValueError("non-finite input value")

    atoms: dict[tuple, np.ndarray] = {}

    def powers(column: np.ndarray, p: int) -> np.ndarray:
        if p == 1:
            return column
        # Python floats, so pow is the float power Term.evaluate calls
        return np.fromiter(map(pow, column.tolist(), repeat(p)), float, m)

    def atom(key: tuple) -> np.ndarray:
        # key: ("x", i, p) for x_i^p, ("u", q) for u^q, or a trig atom
        if key not in atoms:
            if key[0] == "x":
                atoms[key] = powers(X[:, key[1]], key[2])
            elif key[0] == "u":
                atoms[key] = powers(U, key[1])
            else:
                kind, freq, var = key
                fn = math.sin if kind == "sin" else math.cos
                angles = (X[:, var] * float(freq)).tolist()
                atoms[key] = np.fromiter(map(fn, angles), float, m)
        return atoms[key]

    out = np.empty((m, len(exprs)))
    for j, e in enumerate(exprs):
        if e.n_states != n:
            raise ValueError(f"points have {n} components, expected {e.n_states}")
        total = np.zeros(m)
        for t in e.terms:
            value = t.coefficient
            for i, p in enumerate(t.monomial):
                if p:
                    value = value * atom(("x", i, p))
            for trig in t.trig_atoms:
                value = value * atom(trig)
            if t.input_power:
                value = value * atom(("u", t.input_power))
            total += value
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
    if t.input_power == 1:
        factors.append("u")
    elif t.input_power > 1:
        factors.append(f"u^{t.input_power}")
    return factors


def format_expression(e: Expression, digits: int | None = None) -> str:
    """Deterministic text rendering; exact mode round-trips through the parser."""
    if not e.terms:
        return "0"
    pieces: list[str] = []
    for idx, t in enumerate(e.terms):
        factors = _format_factors(t)
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
    return "".join(pieces)


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        for kind in ("number", "name", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok != ("op", op):
            raise ValueError(f"expected {op!r}, got {tok[1]!r}")

    def parse_int(self) -> int:
        kind, value = self.next()
        if kind != "number" or not re.fullmatch(r"\d+", value):
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok == ("op", "^"):
            self.next()
            return self.parse_int()
        return 1

    def parse_var_index(self, name: str) -> int:
        m = re.fullmatch(r"x(\d+)", name)
        if m is None or int(m.group(1)) < 1:
            raise ValueError(f"unknown symbol {name!r}")
        return int(m.group(1)) - 1


class _RawTerm:
    __slots__ = ("coefficient", "powers", "atoms", "input_power")

    def __init__(self) -> None:
        self.coefficient = 1.0
        self.powers: dict[int, int] = {}
        self.atoms: list[TrigAtom] = []
        self.input_power = 0


def _parse_term(parser: _Parser, sign: float) -> _RawTerm:
    raw = _RawTerm()
    raw.coefficient = sign
    while True:
        kind, value = parser.next()
        if kind == "number":
            exp = parser.parse_exponent()
            raw.coefficient *= float(value) ** exp
        elif kind == "name":
            if value == "u":
                raw.input_power += parser.parse_exponent()
            elif value in _TRIG_KINDS:
                parser.expect_op("(")
                tok = parser.peek()
                freq = 1
                if tok is not None and tok[0] == "number":
                    freq = parser.parse_int()
                    parser.expect_op("*")
                name_tok = parser.next()
                if name_tok[0] != "name":
                    raise ValueError(f"expected a state variable inside {value}(...)")
                var = parser.parse_var_index(name_tok[1])
                parser.expect_op(")")
                raw.atoms.append((value, freq, var))
            else:
                var = parser.parse_var_index(value)
                raw.powers[var] = raw.powers.get(var, 0) + parser.parse_exponent()
        else:
            raise ValueError(f"unexpected token {value!r}")
        tok = parser.peek()
        if tok == ("op", "*"):
            parser.next()
            continue
        return raw


def parse_expression(text: str, n_states: int | None = None) -> Expression:
    """Parse the text grammar produced by :func:`format_expression`.

    Terms are joined by ``+``/``-``; factors are ``xN``, ``xN^k``,
    ``sin(j*xN)``, ``cos(j*xN)``, ``u``, ``u^k`` and numeric literals,
    joined by ``*``. If ``n_states`` is omitted it is inferred from the
    largest state index present.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    parser = _Parser(tokens)
    raws: list[_RawTerm] = []
    sign = 1.0
    tok = parser.peek()
    if tok == ("op", "-"):
        parser.next()
        sign = -1.0
    elif tok == ("op", "+"):
        parser.next()
    while True:
        raws.append(_parse_term(parser, sign))
        tok = parser.peek()
        if tok is None:
            break
        if tok == ("op", "+"):
            sign = 1.0
        elif tok == ("op", "-"):
            sign = -1.0
        else:
            raise ValueError(f"unexpected token {tok[1]!r} after term")
        parser.next()

    max_index = -1
    for raw in raws:
        if raw.powers:
            max_index = max(max_index, max(raw.powers))
        for _, _, var in raw.atoms:
            max_index = max(max_index, var)
    inferred = max_index + 1
    if n_states is None:
        n_states = inferred
    elif inferred > n_states:
        raise ValueError(
            f"expression references x{max_index + 1} but n_states={n_states}"
        )

    terms = []
    for raw in raws:
        exps = [0] * n_states
        for var, p in raw.powers.items():
            exps[var] = p
        terms.append(Term(raw.coefficient, tuple(exps), tuple(raw.atoms), raw.input_power))
    return Expression(tuple(terms), n_states)
