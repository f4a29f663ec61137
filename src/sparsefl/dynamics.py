"""Control-affine systems, excitation inputs, and fixed-step RK4 simulation.

Systems have the form ``xdot = f(x) + g(x) * u`` with a scalar input and a
scalar output ``y = c(x)``. Trajectories are generated with the classical
fourth-order Runge-Kutta scheme at a fixed step; the input rule is
re-evaluated at every internal stage, and the recorded ``Xdot`` is the
exact right-hand side at each sample (not a finite difference).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .dictionary import real
from .symexpr import Expression

__all__ = [
    "ControlAffineSystem",
    "DivergenceError",
    "zero_input",
    "constant_input",
    "sine_sum_input",
    "chirp_input",
    "vdp_system",
    "chain_integrator_system",
    "check_run",
    "integrate",
    "simulate_closed_loop",
]


_Input = Callable[[float, np.ndarray], float]  # an input u(t, x), pure in (t, x)


class DivergenceError(RuntimeError):
    """The integrated state left the finite range."""


@dataclass(frozen=True)
class ControlAffineSystem:
    """xdot = f(x) + g(x)*u, y = c(x), with symbolic f, g, c."""

    f: tuple[Expression, ...]
    g: tuple[Expression, ...]
    c: Expression
    n: int

    def __post_init__(self) -> None:
        f = tuple(self.f)
        g = tuple(self.g)
        if len(f) != self.n or len(g) != self.n:
            raise ValueError(f"f and g must each have {self.n} components")
        for name, fields in (("f", f), ("g", g)):
            for i, e in enumerate(fields):
                if e.n_states != self.n:
                    raise ValueError(f"{name}[{i}] has {e.n_states} states, expected {self.n}")
        if self.c.n_states != self.n:
            raise ValueError(f"c has {self.c.n_states} states, expected {self.n}")
        if len(self.c.state_variables()) > 1:
            raise ValueError("output map c must depend on a single state variable")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def rhs(self, x: Sequence[float], u: float) -> np.ndarray:
        # Overflow during a blow-up maps to inf so the integrator can report
        # a divergence instead of leaking an arithmetic error.
        try:
            values = [self.f[i].evaluate(x) + self.g[i].evaluate(x) * u for i in range(self.n)]
        except OverflowError:
            values = [math.inf] * self.n
        return np.array(values)

    def output(self, x: Sequence[float]) -> float:
        return self.c.evaluate(x)


def zero_input() -> _Input:
    return lambda t, x: 0.0


def constant_input(value: float) -> _Input:
    v = float(value)
    return lambda t, x: v


def sine_sum_input(
    amplitudes: Sequence[float],
    frequencies: Sequence[float],
    phases: Sequence[float] | None = None,
) -> _Input:
    """Sum of sinusoids; incommensurate frequencies give a persistently exciting input."""
    amps = [float(a) for a in amplitudes]
    freqs = [float(w) for w in frequencies]
    phs = [0.0] * len(amps) if phases is None else [float(p) for p in phases]
    if not len(amps) == len(freqs) == len(phs):
        raise ValueError("amplitudes, frequencies, phases must have equal length")

    def fn(t: float, x: np.ndarray) -> float:
        return sum(a * math.sin(w * t + p) for a, w, p in zip(amps, freqs, phs))

    return fn


def chirp_input(amplitude: float, f0: float, rate: float, phase: float = 0.0) -> _Input:
    a, w0, k, p = float(amplitude), float(f0), float(rate), float(phase)
    return lambda t, x: a * math.sin((w0 + k * t) * t + p)


def vdp_system(theta: float, sigma: float, mu: float) -> ControlAffineSystem:
    """Controlled Van der Pol oscillator with output y = x1.

    f = [x2, 2*theta*sigma*x2 - 2*theta*sigma*mu*x1^2*x2 - theta^2*x1],
    g = [0, 1].
    """
    for name, v in (("theta", theta), ("sigma", sigma), ("mu", mu)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    n = 2
    x1 = Expression.variable(0, n)
    x2 = Expression.variable(1, n)
    f1 = x2
    f2 = (
        (2.0 * theta * sigma) * x2
        + (-2.0 * theta * sigma * mu) * (x1 * x1 * x2)
        + (-(theta**2)) * x1
    )
    g = (Expression.zero(n), Expression.constant(1.0, n))
    return ControlAffineSystem(f=(f1, f2), g=g, c=x1, n=n)


def chain_integrator_system(n: int) -> ControlAffineSystem:
    """n-state chain of integrators: xdot_i = x_{i+1}, xdot_n = u, y = x1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    f = tuple(
        Expression.variable(i + 1, n) if i + 1 < n else Expression.zero(n)
        for i in range(n)
    )
    g = tuple(
        Expression.zero(n) if i + 1 < n else Expression.constant(1.0, n)
        for i in range(n)
    )
    return ControlAffineSystem(f=f, g=g, c=Expression.variable(0, n), n=n)


def check_run(n: int, x0: Sequence[float], dt: float, steps: int) -> np.ndarray:
    """Check a run's start, step and length for an ``n``-state system; return x0 as an array."""
    if not 0 < dt < math.inf:  # a NaN fails the comparison too
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"steps must be an integer of at least 2, got {steps!r}")
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 must have {n} components, got shape {x.shape}")
    for v in x0:
        real(v, "x0")
    return x


def integrate(
    sys: ControlAffineSystem,
    x0: Sequence[float],
    input_signal: _Input,
    dt: float,
    steps: int,
) -> Dataset:
    """Integrate with classical RK4 for ``steps`` steps (``steps + 1`` samples).

    The input is evaluated by its continuous rule at each stage time and
    state. ``Xdot`` records f(x)+g(x)u exactly at each sample; ``Y`` records
    c(x). Raises :class:`DivergenceError` naming the step where the state
    first becomes non-finite. numpy's overflow and invalid-value warnings
    are off in the loop: a blow-up of the plant or the input rule becomes
    inf or NaN, which the divergence checks report.
    """
    x = check_run(sys.n, x0, dt, steps)
    m = steps + 1
    times = np.arange(m) * dt
    X = np.empty((m, sys.n))
    Xdot = np.empty((m, sys.n))
    U = np.empty(m)
    Y = np.empty(m)

    def stage(t_stage: float, x_stage: np.ndarray, step: int) -> np.ndarray:
        if not np.all(np.isfinite(x_stage)):
            raise DivergenceError(
                f"state diverged (non-finite) at step {step}, t={t_stage:.6g}"
            )
        return sys.rhs(x_stage, input_signal(t_stage, x_stage))

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(m):
            t = times[i]
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"state diverged (non-finite) at step {i}, t={t:.6g}")
            u = input_signal(t, x)
            X[i] = x
            U[i] = u
            Xdot[i] = sys.rhs(x, u)
            Y[i] = sys.output(x)
            if i == m - 1:
                break
            k1 = Xdot[i]
            k2 = stage(t + 0.5 * dt, x + 0.5 * dt * k1, i)
            k3 = stage(t + 0.5 * dt, x + 0.5 * dt * k2, i)
            k4 = stage(t + dt, x + dt * k3, i)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return Dataset(times, X, U, Y, Xdot=Xdot)


def simulate_closed_loop(
    sys: ControlAffineSystem,
    controller,
    reference,
    x0: Sequence[float],
    dt: float,
    steps: int,
) -> Dataset:
    """Simulate the plant under ``u = controller.control_value(x, reference, t)``.

    The control law is re-evaluated at every RK4 stage, so this is exactly
    :func:`integrate` with a feedback input; the returned Dataset records
    the applied input at each sample.
    """
    n_ctrl = getattr(controller, "n_states", sys.n)
    if n_ctrl != sys.n:
        raise ValueError(
            f"controller state dimension {n_ctrl} does not match system dimension {sys.n}"
        )
    return integrate(
        sys, x0, lambda t, x: controller.control_value(x, reference, t), dt, steps
    )
