"""Feedback-linearizing tracking controller synthesis.

Given a Lie chain with full relative degree r = n and error-dynamics gains
a_0..a_{r-1}, the control law

    u = ( -Lf^r c + sum_i a_i (r^(i) - Lf^i c) + r^(r) ) / (Lg Lf^(r-1) c)

cancels the plant nonlinearity exactly and places the tracking-error poles
at the roots of s^r + a_{r-1} s^(r-1) + ... + a_0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dictionary import integer, real
from .lie import DEFAULT_ZERO_TOL, LieChain, RelativeDegreeError
from .symexpr import Expression, format_expression, parse_expression

__all__ = [
    "ControllerSpec",
    "ReferenceSignal",
    "ControlSingularityError",
    "zero_reference",
    "constant_reference",
    "sinusoid_reference",
    "gains_from_poles",
    "synthesize",
]

_BETA_RUNTIME_TOL = 1e-9


class ControlSingularityError(RuntimeError):
    """The decoupling term vanished at the evaluation point."""


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory with exact analytic derivatives of every order."""

    kind: str  # zero | constant | sinusoid
    amplitude: float = 0.0
    frequency: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("zero", "constant", "sinusoid"):
            raise ValueError(f"unknown reference kind {self.kind!r}")

    def derivative(self, t: float, order: int) -> float:
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.amplitude if order == 0 else 0.0
        # d^k/dt^k [A sin(w t + p)] = A w^k sin(w t + p + k pi/2)
        return (
            self.amplitude
            * self.frequency**order
            * math.sin(self.frequency * t + self.phase + order * math.pi / 2.0)
        )

    def value(self, t: float) -> float:
        return self.derivative(t, 0)


def zero_reference() -> ReferenceSignal:
    return ReferenceSignal("zero")


def constant_reference(value: float) -> ReferenceSignal:
    return ReferenceSignal("constant", amplitude=float(value))


def sinusoid_reference(
    amplitude: float = 1.0, frequency: float = 1.0, phase: float = 0.0
) -> ReferenceSignal:
    return ReferenceSignal(
        "sinusoid", amplitude=float(amplitude), frequency=float(frequency), phase=float(phase)
    )


def gains_from_poles(poles: Sequence[complex]) -> np.ndarray:
    """Coefficients a_0..a_{r-1} of the monic polynomial with the given roots.

    The pole set must be closed under conjugation so the gains are real;
    poles with non-negative real part are allowed but draw a warning.
    """
    ps = [complex(p) for p in poles]
    if not ps:
        raise ValueError("at least one pole is required")
    for p in ps:
        if abs(p.imag) <= 1e-12:
            continue
        has_conjugate = any(abs(q - p.conjugate()) <= 1e-9 * max(1.0, abs(p)) for q in ps)
        if not has_conjugate:
            raise ValueError(f"pole set is not closed under conjugation: missing conjugate of {p}")
    if any(p.real >= 0 for p in ps):
        warnings.warn("pole with non-negative real part: closed loop will be unstable", stacklevel=2)
    coeffs = np.poly(ps)  # descending: [1, c_{r-1}, ..., c_0]
    if np.max(np.abs(coeffs.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(coeffs)))):
        raise ValueError("poles produced complex polynomial coefficients")
    return coeffs.real[:0:-1].copy()  # ascending a_0..a_{r-1}, monic term dropped


@dataclass(frozen=True)
class ControllerSpec:
    """Synthesized feedback-linearizing tracking controller."""

    relative_degree: int
    alpha: Expression  # Lf^r c, the cancellation numerator
    beta: Expression  # Lg Lf^(r-1) c, the decoupling term
    lf_chain: tuple[Expression, ...]  # Lf^0 c .. Lf^(r-1) c
    gains: tuple[float, ...]  # a_0 .. a_{r-1}
    poles: tuple[complex, ...] | None = None

    def __post_init__(self) -> None:
        r = self.relative_degree
        if len(self.gains) != r or len(self.lf_chain) != r:
            raise ValueError("gains and Lie chain must both have length r")
        if r != self.n_states:  # as synthesize requires: no internal dynamics
            raise RelativeDegreeError(
                f"relative degree {r} differs from the state dimension {self.n_states}"
            )
        if self.beta.is_zero(DEFAULT_ZERO_TOL):  # the zero of lie.relative_degree
            raise RelativeDegreeError("decoupling term is zero; the law is singular")

    @property
    def n_states(self) -> int:
        return self.alpha.n_states

    def control_value(self, x: Sequence[float], reference: ReferenceSignal, t: float) -> float:
        """Evaluate the law at state ``x`` and time ``t``."""
        r = self.relative_degree
        v = reference.derivative(t, r)
        for i in range(r):
            v += self.gains[i] * (reference.derivative(t, i) - self.lf_chain[i].evaluate(x))
        b = self.beta.evaluate(x)
        if abs(b) < _BETA_RUNTIME_TOL:
            what = f"decoupling term {format_expression(self.beta, digits=4)} vanished"
        else:
            u = (-self.alpha.evaluate(x) + v) / b
            if math.isfinite(u):
                return u
            what = "control law produced non-finite value"
        raise ControlSingularityError(f"{what} at x={list(map(float, x))}")

    def law_string(self, digits: int | None = 4) -> str:
        """Grouped display of the law with reference-derivative slots."""

        def ref_name(order: int) -> str:
            if order == 0:
                return "r"
            if order <= 2:
                return "r" + "'" * order
            return f"r^({order})"

        r = self.relative_degree
        fmt = f".{digits or 6}g"
        if self.beta.is_constant():
            b = self.beta.constant_value()
            parts = [format_expression((-1.0 / b) * self.alpha, digits=digits)]
            for i in range(r):
                coeff = format(self.gains[i] / b, fmt)
                chain_str = format_expression(self.lf_chain[i], digits=digits)
                parts.append(f"{coeff}*({ref_name(i)} - {chain_str})")
            lead = format(1.0 / b, fmt)
            parts.append(ref_name(r) if lead == "1" else f"{lead}*{ref_name(r)}")
            return "u = " + " + ".join(parts)
        num = [format_expression(-self.alpha, digits=digits)]
        for i in range(r):
            chain_str = format_expression(self.lf_chain[i], digits=digits)
            num.append(f"{format(self.gains[i], fmt)}*({ref_name(i)} - {chain_str})")
        num.append(ref_name(r))
        beta_str = format_expression(self.beta, digits=digits)
        return "u = (" + " + ".join(num) + ") / (" + beta_str + ")"

    def to_dict(self) -> dict:
        return {
            "relative_degree": self.relative_degree,
            "n_states": self.n_states,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "lf_chain": [str(e) for e in self.lf_chain],
            "gains": list(self.gains),
            "poles": None
            if self.poles is None
            else [[p.real, p.imag] for p in self.poles],
            "law": self.law_string(),
        }

    @staticmethod
    def from_dict(payload: dict) -> "ControllerSpec":
        n_states = integer(payload["n_states"], "n_states")
        poles = payload.get("poles")
        if not isinstance(payload["lf_chain"], list):
            raise ValueError(
                f"lf_chain must be a list of expression strings, got {payload['lf_chain']!r}"
            )
        return ControllerSpec(
            relative_degree=integer(payload["relative_degree"], "relative_degree"),
            alpha=parse_expression(payload["alpha"], n_states),
            beta=parse_expression(payload["beta"], n_states),
            lf_chain=tuple(parse_expression(s, n_states) for s in payload["lf_chain"]),
            gains=tuple(real(a, "gains") for a in payload["gains"]),
            poles=None if poles is None else tuple(
                complex(real(p[0], "poles"), real(p[1], "poles")) for p in poles
            ),
        )


def synthesize(
    chain: LieChain,
    gains: Sequence[float] | None = None,
    poles: Sequence[complex] | None = None,
) -> ControllerSpec:
    """Build the tracking controller from a full-relative-degree Lie chain.

    Exactly one of ``gains`` (error-dynamics coefficients a_0..a_{r-1}) or
    ``poles`` (their desired roots) must be given.
    """
    r = chain.relative_degree
    if r is None:
        raise RelativeDegreeError("relative degree undefined; cannot synthesize a controller")
    if r != chain.n_states:
        raise RelativeDegreeError(
            f"internal dynamics present: relative degree {r} < state dimension {chain.n_states}"
        )
    if (gains is None) == (poles is None):
        raise ValueError("provide exactly one of gains or poles")
    pole_record: tuple[complex, ...] | None = None
    if poles is not None:
        gains_arr = gains_from_poles(poles)
        pole_record = tuple(complex(p) for p in poles)
    else:
        gains_arr = np.asarray(gains, dtype=float)
        roots = np.roots(np.concatenate([[1.0], gains_arr[::-1]]))
        if np.any(roots.real >= 0):
            warnings.warn(
                "gains place a closed-loop pole with non-negative real part", stacklevel=2
            )
    if len(gains_arr) != r:
        raise ValueError(f"need {r} gains for relative degree {r}, got {len(gains_arr)}")
    return ControllerSpec(
        relative_degree=r,
        alpha=chain.lf_powers[r],
        beta=chain.lg_mixed[r - 1],
        lf_chain=tuple(chain.lf_powers[:r]),
        gains=tuple(float(a) for a in gains_arr),
        poles=pole_record,
    )

