"""Lie chains, relative degree and normal form."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import default_excitation, make_random_expression
from sparsefl.dictionary import LibrarySpec, build_dictionaries
from sparsefl.dynamics import ControlAffineSystem, chain_integrator_system, integrate, vdp_system
from sparsefl.lie import (
    RelativeDegreeError,
    lie_f,
    lie_g,
    normal_form,
    relative_degree,
)
from sparsefl.regression import RegressionConfig, solve
from sparsefl.symexpr import Expression, parse_expression


def coefficient(expr: Expression, monomial: str) -> float:
    """Coefficient of the single monomial ``monomial`` in ``expr`` (0 if absent)."""
    signature = parse_expression(monomial, expr.n_states).terms[0].signature
    return {t.signature: t.coefficient for t in expr.terms}.get(signature, 0.0)


@pytest.fixture(scope="module")
def identified_vdp():
    sys = vdp_system(1, 1, 1)
    d = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 99)
    ds = build_dictionaries(LibrarySpec(), d)
    return solve(ds, d, RegressionConfig()).system()


# -- directional derivatives -----------------------------------------------------------


def test_lie_f_output_gives_velocity(identified_vdp):
    lf = lie_f(identified_vdp.c, identified_vdp)
    assert abs(coefficient(lf, "x2") - 1.0) <= 0.05
    assert len(lf.terms) == 1


def test_lie_f_second_order_matches_drift(identified_vdp):
    lf2 = lie_f(lie_f(identified_vdp.c, identified_vdp), identified_vdp)
    assert abs(coefficient(lf2, "x1") + 1.0) <= 0.1
    assert abs(coefficient(lf2, "x2") - 2.0) <= 0.1
    assert abs(coefficient(lf2, "x1^2*x2") + 2.0) <= 0.1


def test_lie_f_exact_vdp():
    sys = vdp_system(1, 1, 1)
    assert lie_f(sys.c, sys) == Expression.variable(1, 2)
    assert lie_f(lie_f(sys.c, sys), sys) == sys.f[1]


def test_lie_f_constant_is_zero():
    sys = vdp_system(1, 1, 1)
    assert lie_f(Expression.constant(3.0, 2), sys).is_zero()


def test_lie_g_values():
    sys = vdp_system(1, 1, 1)
    assert lie_g(sys.c, sys).is_zero()  # g1 = 0 and dc/dx2 = 0
    assert lie_g(lie_f(sys.c, sys), sys) == Expression.constant(1.0, 2)
    flipped = ControlAffineSystem(
        f=sys.f,
        g=(Expression.constant(1.0, 2), Expression.zero(2)),
        c=sys.c,
        n=2,
    )
    assert lie_g(flipped.c, flipped) == Expression.constant(1.0, 2)


def test_lie_dimension_mismatch():
    sys = vdp_system(1, 1, 1)
    with pytest.raises(ValueError, match="dimension"):
        lie_f(Expression.variable(0, 3), sys)


# -- relative degree ----------------------------------------------------------------------


def test_relative_degree_vdp_is_two(identified_vdp):
    chain = relative_degree(identified_vdp)
    assert chain.relative_degree == 2
    assert len(chain.lf_powers) == 3
    assert len(chain.lg_mixed) == 2
    assert chain.lg_mixed[0].is_zero(1e-6)
    assert abs(chain.lg_mixed[1].constant_value() - 1.0) <= 0.05


def test_relative_degree_one():
    # single integrator: the input appears after one differentiation
    sys = ControlAffineSystem(
        f=(Expression.zero(1),),
        g=(Expression.constant(1.0, 1),),
        c=Expression.variable(0, 1),
        n=1,
    )
    chain = relative_degree(sys)
    assert chain.relative_degree == 1


def test_relative_degree_undefined_for_constant_output():
    sys = vdp_system(1, 1, 1)
    blind = ControlAffineSystem(f=sys.f, g=sys.g, c=Expression.constant(1.0, 2), n=2)
    chain = relative_degree(blind)
    assert chain.relative_degree is None
    assert all(e.is_zero(1e-9) for e in chain.lg_mixed)


def test_relative_degree_perturbed_model_tolerance():
    # coefficients off by < 0.05 must not change the certified degree
    rng = np.random.default_rng(0)
    sys = vdp_system(1, 1, 1)
    f2 = sys.f[1] + 0.03 * Expression.variable(1, 2)
    perturbed = ControlAffineSystem(f=(sys.f[0], f2), g=sys.g, c=sys.c, n=2)
    assert relative_degree(perturbed, tol=1e-6).relative_degree == 2


# -- normal form ---------------------------------------------------------------------------


def test_normal_form_vdp(identified_vdp):
    chain = relative_degree(identified_vdp)
    coords = normal_form(identified_vdp, chain)
    assert str(coords[0]) == "x1"
    assert abs(coefficient(coords[1], "x2") - 1.0) <= 0.05


def test_normal_form_triple_integrator():
    sys = chain_integrator_system(3)
    chain = relative_degree(sys)
    coords = normal_form(sys, chain)
    assert [str(e) for e in coords] == ["x1", "x2", "x3"]


def test_normal_form_rejects_internal_dynamics():
    # relative degree 1 < n = 2: input enters the observed state directly
    sys = vdp_system(1, 1, 1)
    direct = ControlAffineSystem(
        f=sys.f, g=(Expression.constant(1.0, 2), Expression.zero(2)), c=sys.c, n=2
    )
    chain = relative_degree(direct)
    assert chain.relative_degree == 1
    with pytest.raises(RelativeDegreeError, match="internal dynamics"):
        normal_form(direct, chain)


def test_normal_form_undefined_degree():
    sys = vdp_system(1, 1, 1)
    blind = ControlAffineSystem(f=sys.f, g=sys.g, c=Expression.constant(1.0, 2), n=2)
    with pytest.raises(RelativeDegreeError, match="undefined"):
        normal_form(blind, relative_degree(blind))


# -- numerical Leibniz check --------------------------------------------------------------------


def test_lie_f_matches_directional_finite_difference():
    sys = vdp_system(1, 1, 1)
    rng = np.random.default_rng(42)
    for _ in range(20):
        e = make_random_expression(rng, n_states=2, max_input_power=0)
        lf = lie_f(e, sys)
        x = rng.uniform(-1.5, 1.5, size=2)
        h = 1e-6
        direction = np.array([sys.f[0].evaluate(x), sys.f[1].evaluate(x)])
        fd = (e.evaluate(x + h * direction) - e.evaluate(x - h * direction)) / (2 * h)
        exact = lf.evaluate(x)
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))
