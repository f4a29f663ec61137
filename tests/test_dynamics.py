"""Built-in systems, RK4 accuracy/order, divergence handling, closed-loop parity."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparsefl.control import sinusoid_reference, synthesize, zero_reference
from sparsefl.dynamics import (
    ControlAffineSystem,
    DivergenceError,
    chain_integrator_system,
    constant_input,
    integrate,
    simulate_closed_loop,
    sine_sum_input,
    vdp_system,
    zero_input,
)
from sparsefl.lie import relative_degree
from sparsefl.symexpr import Expression, parse_expression


def decay_system() -> ControlAffineSystem:
    """Scalar test plant xdot = -x."""
    return ControlAffineSystem(
        f=(-Expression.variable(0, 1),),
        g=(Expression.zero(1),),
        c=Expression.variable(0, 1),
        n=1,
    )


# -- built-in systems ---------------------------------------------------------------


def test_vdp_unit_parameters():
    sys = vdp_system(1.0, 1.0, 1.0)
    assert sys.f[0] == Expression.variable(1, 2)
    assert sys.f[1] == parse_expression("-x1 + 2*x2 - 2*x1^2*x2", 2)
    assert str(sys.c) == "x1"


def test_vdp_mu_zero_drops_cubic_term():
    sys = vdp_system(1.0, 1.0, 0.0)
    assert sys.f[1] == parse_expression("-x1 + 2*x2", 2)


def test_vdp_input_channel():
    for theta, sigma, mu in [(1, 1, 1), (2, 0.5, 3), (0.3, 2, 0)]:
        sys = vdp_system(theta, sigma, mu)
        assert sys.g[0].is_zero()
        assert sys.g[1] == Expression.constant(1.0, 2)


def test_control_affine_validation():
    with pytest.raises(ValueError, match="single state"):
        ControlAffineSystem(
            f=(Expression.zero(2), Expression.zero(2)),
            g=(Expression.zero(2), Expression.constant(1.0, 2)),
            c=Expression.variable(0, 2) + Expression.variable(1, 2),
            n=2,
        )


def test_chain_integrator():
    sys = chain_integrator_system(3)
    assert [str(e) for e in sys.f] == ["x2", "x3", "0"]
    assert [str(e) for e in sys.g] == ["0", "0", "1"]


# -- open-loop integration --------------------------------------------------------------


def test_rk4_matches_exponential_decay():
    d = integrate(decay_system(), [1.0], zero_input(), 0.01, 100)
    assert d.m == 101
    assert d.times[-1] == pytest.approx(1.0)
    assert abs(d.X[-1, 0] - math.exp(-1.0)) <= 1e-6


def test_rk4_fourth_order_convergence():
    def err(dt, steps):
        d = integrate(decay_system(), [1.0], zero_input(), dt, steps)
        return abs(d.X[-1, 0] - math.exp(-1.0))

    ratio = err(0.01, 100) / err(0.005, 200)
    assert 8.0 <= ratio <= 32.0  # nominal 16 for a 4th-order scheme


def test_integrate_rejects_bad_steps():
    with pytest.raises(ValueError, match="steps"):
        integrate(decay_system(), [1.0], zero_input(), 0.01, 0)
    with pytest.raises(ValueError, match="steps"):
        integrate(decay_system(), [1.0], zero_input(), 0.01, 1)
    with pytest.raises(ValueError, match="dt"):
        integrate(decay_system(), [1.0], zero_input(), -0.01, 10)


@pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
def test_bad_dt_is_value_error_not_divergence(dt):
    # a NaN step passed `dt <= 0` and came back as a divergence at step 0
    with pytest.raises(ValueError, match="dt must be positive"):
        integrate(decay_system(), [1.0], zero_input(), dt, 10)
    with pytest.raises(ValueError, match="dt must be positive"):
        simulate_closed_loop(
            vdp_system(1, 1, 1), _ZeroController(), zero_reference(), [2.0, 0.0], dt, 10
        )


@pytest.mark.parametrize("x0", [["2", "0"], [True, 0.0], [math.nan, 0.0]])
def test_x0_entries_must_be_finite_numbers(x0):
    # numpy read the strings and the bool as numbers; a NaN came back as a divergence
    with pytest.raises(ValueError, match="x0 must be a finite number"):
        integrate(vdp_system(1, 1, 1), x0, zero_input(), 0.01, 10)


def test_vdp_limit_cycle_stays_bounded():
    # frozen reference values from a dt=1e-4 integration over 30 s
    d = integrate(vdp_system(1, 1, 1), [2.0, 0.0], zero_input(), 0.01, 3000)
    norms = np.linalg.norm(d.X, axis=1)
    assert np.max(norms) <= 5.0
    assert d.X[-1] == pytest.approx([1.4627327, 3.15400118], abs=1e-4)


def test_recorded_xdot_is_exact_rhs():
    sys = vdp_system(1, 1, 1)
    u = constant_input(0.5)
    d = integrate(sys, [1.0, -1.0], u, 0.01, 10)
    for i in range(d.m):
        assert np.array_equal(d.Xdot[i], sys.rhs(d.X[i], d.U[i]))
        assert d.Y[i] == sys.output(d.X[i])
        assert d.U[i] == 0.5


def test_divergence_error_names_step():
    blow_up = ControlAffineSystem(
        f=(Expression.monomial((2,)),),  # xdot = x^2 escapes in finite time
        g=(Expression.zero(1),),
        c=Expression.variable(0, 1),
        n=1,
    )
    with pytest.raises(DivergenceError, match="step"):
        integrate(blow_up, [1.0], zero_input(), 0.01, 200)


# -- closed loop -------------------------------------------------------------------------


class _ZeroController:
    n_states = 2

    def control_value(self, x, reference, t):
        return 0.0


def test_zero_law_reduces_to_open_loop():
    sys = vdp_system(1, 1, 1)
    a = simulate_closed_loop(sys, _ZeroController(), zero_reference(), [2.0, 0.0], 0.01, 50)
    b = integrate(sys, [2.0, 0.0], zero_input(), 0.01, 50)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.U, b.U)


def test_closed_loop_equals_feedback_input_bit_for_bit():
    sys = vdp_system(1, 1, 1)
    spec = synthesize(relative_degree(sys), gains=[5.0, 4.0])
    ref = sinusoid_reference(1.0, 1.0, 0.0)
    a = simulate_closed_loop(sys, spec, ref, [2.0, 0.0], 0.01, 300)
    b = integrate(sys, [2.0, 0.0], lambda t, x: spec.control_value(x, ref, t), 0.01, 300)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.Xdot, b.Xdot)


def test_closed_loop_dimension_check():
    sys = vdp_system(1, 1, 1)
    spec3 = synthesize(relative_degree(chain_integrator_system(3)), gains=[6.0, 11.0, 6.0])
    with pytest.raises(ValueError, match="dimension"):
        simulate_closed_loop(sys, spec3, zero_reference(), [2.0, 0.0], 0.01, 10)


def test_stabilization_from_displaced_start():
    sys = vdp_system(1, 1, 1)
    spec = synthesize(relative_degree(sys), gains=[5.0, 4.0])
    traj = simulate_closed_loop(sys, spec, zero_reference(), [2.0, 0.0], 0.01, 1000)
    assert np.linalg.norm(traj.X[-1]) <= 1e-2
    assert np.all(np.isfinite(traj.U))


def test_excitation_signals_are_pure():
    u = sine_sum_input([1.0, 0.5], [2.0, 3.0], [0.1, 0.2])
    x = np.zeros(2)
    assert u(0.3, x) == u(0.3, x)
    assert u(0.3, x) == pytest.approx(
        math.sin(2 * 0.3 + 0.1) + 0.5 * math.sin(3 * 0.3 + 0.2)
    )


def test_chirp_sweeps_frequency():
    from sparsefl.dynamics import chirp_input

    u = chirp_input(amplitude=2.0, f0=1.0, rate=0.5)
    x = np.zeros(2)
    t = 0.7
    assert u(t, x) == pytest.approx(2.0 * math.sin((1.0 + 0.5 * t) * t))
