"""Pole placement, controller synthesis, law evaluation, closed-loop error decay."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparsefl.control import (
    ControllerSpec,
    ControlSingularityError,
    constant_reference,
    gains_from_poles,
    sinusoid_reference,
    synthesize,
    zero_reference,
)
from sparsefl.dynamics import ControlAffineSystem, simulate_closed_loop, vdp_system
from sparsefl.lie import RelativeDegreeError, relative_degree
from sparsefl.symexpr import Expression, parse_expression


@pytest.fixture(scope="module")
def exact_chain():
    return relative_degree(vdp_system(1, 1, 1))


# -- gains from poles -------------------------------------------------------------------


def test_gains_real_poles():
    assert gains_from_poles([-2, -6]).tolist() == [12.0, 8.0]


def test_gains_complex_pair():
    gains = gains_from_poles([-2 + 1j, -2 - 1j])
    assert gains == pytest.approx([5.0, 4.0])


def test_gains_single_pole():
    assert gains_from_poles([-1]).tolist() == [1.0]


def test_gains_conjugation_violation():
    with pytest.raises(ValueError, match="conjugation"):
        gains_from_poles([-2 + 1j, -3])


def test_gains_unstable_pole_warns():
    with pytest.warns(UserWarning, match="unstable"):
        gains_from_poles([0.5, -1])


def test_gain_pole_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        re = -rng.uniform(0.5, 5.0, size=2)
        poles = sorted([complex(v) for v in re], key=lambda z: z.real)
        gains = gains_from_poles(poles)
        roots = sorted(np.roots([1.0, gains[1], gains[0]]), key=lambda z: z.real)
        assert np.allclose(roots, poles, atol=1e-9)


# -- reference signals --------------------------------------------------------------------


def test_reference_zero_and_constant():
    z = zero_reference()
    assert z.value(3.0) == 0.0 and z.derivative(3.0, 2) == 0.0
    c = constant_reference(2.5)
    assert c.value(1.0) == 2.5
    assert c.derivative(1.0, 1) == 0.0


def test_reference_sinusoid_exact_derivatives():
    ref = sinusoid_reference(amplitude=1.0, frequency=1.0, phase=0.0)
    for t in (0.0, 0.4, 2.0):
        assert ref.derivative(t, 0) == pytest.approx(math.sin(t), abs=1e-12)
        assert ref.derivative(t, 1) == pytest.approx(math.cos(t), abs=1e-12)
        assert ref.derivative(t, 2) == pytest.approx(-math.sin(t), abs=1e-12)
        assert ref.derivative(t, 3) == pytest.approx(-math.cos(t), abs=1e-12)
        assert ref.derivative(t, 4) == pytest.approx(math.sin(t), abs=1e-12)


# -- synthesis -------------------------------------------------------------------------------


def test_synthesize_golden_law(exact_chain):
    spec = synthesize(exact_chain, gains=[5.0, 4.0])
    # -alpha/beta is the cancellation part x1 - 2 x2 + 2 x1^2 x2
    cancel = (-1.0) * spec.alpha
    assert cancel == parse_expression("x1 - 2*x2 + 2*x1^2*x2", 2)
    assert spec.beta == Expression.constant(1.0, 2)
    assert spec.gains == (5.0, 4.0)
    law = spec.law_string()
    assert law == "u = x1 - 2*x2 + 2*x1^2*x2 + 5*(r - x1) + 4*(r' - x2) + r''"


def test_synthesize_from_stated_poles(exact_chain):
    spec = synthesize(exact_chain, poles=[-2, -6])
    assert spec.gains == (12.0, 8.0)
    assert "12*(r - x1)" in spec.law_string()
    assert spec.poles == (complex(-2), complex(-6))


def test_synthesize_beta_two_halves_the_law(exact_chain):
    base = vdp_system(1, 1, 1)
    doubled = ControlAffineSystem(
        f=base.f, g=(Expression.zero(2), Expression.constant(2.0, 2)), c=base.c, n=2
    )
    spec1 = synthesize(exact_chain, gains=[5.0, 4.0])
    spec2 = synthesize(relative_degree(doubled), gains=[5.0, 4.0])
    ref = sinusoid_reference()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0, 5))
        assert spec2.control_value(x, ref, t) == pytest.approx(
            spec1.control_value(x, ref, t) / 2.0, rel=1e-12
        )


def test_synthesize_requires_full_degree():
    sys = vdp_system(1, 1, 1)
    direct = ControlAffineSystem(
        f=sys.f, g=(Expression.constant(1.0, 2), Expression.zero(2)), c=sys.c, n=2
    )
    with pytest.raises(RelativeDegreeError, match="internal dynamics"):
        synthesize(relative_degree(direct), gains=[1.0, 1.0])
    blind = ControlAffineSystem(f=sys.f, g=sys.g, c=Expression.constant(1.0, 2), n=2)
    with pytest.raises(RelativeDegreeError, match="undefined"):
        synthesize(relative_degree(blind), gains=[1.0, 1.0])


def test_synthesize_argument_validation(exact_chain):
    with pytest.raises(ValueError, match="exactly one"):
        synthesize(exact_chain, gains=[5, 4], poles=[-2, -6])
    with pytest.raises(ValueError, match="exactly one"):
        synthesize(exact_chain)
    with pytest.raises(ValueError, match="need 2 gains"):
        synthesize(exact_chain, gains=[5.0])


def test_unstable_gains_warn(exact_chain):
    with pytest.warns(UserWarning, match="non-negative real part"):
        synthesize(exact_chain, gains=[-0.1, 0.9])


# -- law evaluation ---------------------------------------------------------------------------


def test_law_equilibrium_is_zero(exact_chain):
    spec = synthesize(exact_chain, gains=[5.0, 4.0])
    assert spec.control_value([0.0, 0.0], zero_reference(), 0.0) == 0.0


def test_law_hand_value_displaced_state(exact_chain):
    spec = synthesize(exact_chain, gains=[5.0, 4.0])
    # u = x1 - 2 x2 + 2 x1^2 x2 + 5(0 - x1) + 4(0 - x2) + 0 at [2, 0] = 2 - 10 = -8
    assert spec.control_value([2.0, 0.0], zero_reference(), 0.0) == pytest.approx(-8.0)


def test_law_hand_value_sine_reference(exact_chain):
    spec = synthesize(exact_chain, gains=[5.0, 4.0])
    # at the origin with r = sin t at t = 0: only 4*(rdot - x2) = 4 survives
    ref = sinusoid_reference(1.0, 1.0, 0.0)
    assert spec.control_value([0.0, 0.0], ref, 0.0) == pytest.approx(4.0)


def test_spec_requires_full_relative_degree():
    # r < n leaves internal dynamics the law does not control; synthesize
    # refuses such a chain, and so must a spec read back from a file
    x1 = Expression.variable(0, 2)
    with pytest.raises(RelativeDegreeError, match="relative degree 1"):
        ControllerSpec(
            relative_degree=1,
            alpha=Expression.variable(1, 2),
            beta=Expression.constant(1.0, 2),
            lf_chain=(x1,),
            gains=(5.0,),
        )


def test_law_singularity_guard():
    # state-dependent decoupling term beta = x1 vanishes at the origin
    n = 1
    spec = ControllerSpec(
        relative_degree=1,
        alpha=Expression.variable(0, n),
        beta=Expression.variable(0, n),
        lf_chain=(Expression.variable(0, n),),
        gains=(1.0,),
    )
    assert "/" in spec.law_string()
    with pytest.raises(ControlSingularityError, match="vanished"):
        spec.control_value([0.0], zero_reference(), 0.0)
    assert spec.control_value([2.0], zero_reference(), 0.0) == pytest.approx(-2.0)


# -- symbolic cancellation ---------------------------------------------------------------------


def test_exact_cancellation(exact_chain):
    # with the pure-state part of the law, -(alpha + sum_i a_i Lf^i c)/beta,
    # alpha + beta * law + sum_i a_i Lf^i c must vanish identically: the
    # closed loop reduces to pure error dynamics.
    for gains in ([5.0, 4.0], [12.0, 8.0], [1.0, 2.0]):
        spec = synthesize(exact_chain, gains=gains)
        chain_sum = Expression.zero(spec.n_states)
        for i, a in enumerate(spec.gains):
            chain_sum = chain_sum + a * spec.lf_chain[i]
        state_law = (spec.alpha + chain_sum) * (-1.0 / spec.beta.constant_value())
        residual = spec.alpha + spec.beta * state_law + chain_sum
        assert residual.is_zero(1e-10)


def test_serialization_round_trip(exact_chain):
    spec = synthesize(exact_chain, poles=[-2, -6])
    back = ControllerSpec.from_dict(spec.to_dict())
    assert back.alpha == spec.alpha
    assert back.beta == spec.beta
    assert back.lf_chain == spec.lf_chain
    assert back.gains == spec.gains
    assert back.poles == spec.poles
    ref = zero_reference()
    assert back.control_value([1.0, -1.0], ref, 0.0) == spec.control_value(
        [1.0, -1.0], ref, 0.0
    )


# -- closed-loop error envelope ------------------------------------------------------------------


def test_error_decay_matches_dominant_pole():
    # real poles at -2, -6 from e(0) = 2: the error must hug C exp(-2 t)
    sys = vdp_system(1, 1, 1)
    spec = synthesize(relative_degree(sys), gains=gains_from_poles([-2.0, -6.0]))
    traj = simulate_closed_loop(sys, spec, zero_reference(), [2.0, 0.0], 0.01, 800)
    window = (traj.times >= 1.0) & (traj.times <= 8.0)
    t = traj.times[window]
    e = np.abs(traj.Y[window])
    assert np.all(e > 0)
    log_c = np.mean(np.log(e) + 2.0 * t)
    envelope = np.exp(log_c) * np.exp(-2.0 * t)
    ratio = e / envelope
    assert np.max(ratio) <= 3.0
    assert np.min(ratio) >= 1.0 / 3.0
