"""Lie derivatives, Lie chains and the relative degree."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import default_excitation, make_random_expression
from sparsefl.dictionary import LibrarySpec, build_dictionaries
from sparsefl.dynamics import ControlAffineSystem, chain_integrator_system, integrate, vdp_system
from sparsefl.lie import lie_derivative, relative_degree
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
    lf = lie_derivative(identified_vdp.c, identified_vdp.f)
    assert abs(coefficient(lf, "x2") - 1.0) <= 0.05
    assert len(lf.terms) == 1


def test_lie_f_second_order_matches_drift(identified_vdp):
    lf2 = lie_derivative(lie_derivative(identified_vdp.c, identified_vdp.f), identified_vdp.f)
    assert abs(coefficient(lf2, "x1") + 1.0) <= 0.1
    assert abs(coefficient(lf2, "x2") - 2.0) <= 0.1
    assert abs(coefficient(lf2, "x1^2*x2") + 2.0) <= 0.1


def test_lie_f_exact_vdp():
    sys = vdp_system(1, 1, 1)
    assert lie_derivative(sys.c, sys.f) == Expression.variable(1, 2)
    assert lie_derivative(lie_derivative(sys.c, sys.f), sys.f) == sys.f[1]


def test_lie_f_constant_is_zero():
    sys = vdp_system(1, 1, 1)
    assert lie_derivative(Expression.constant(3.0, 2), sys.f).is_zero()


def test_lie_g_values():
    sys = vdp_system(1, 1, 1)
    assert lie_derivative(sys.c, sys.g).is_zero()  # g1 = 0 and dc/dx2 = 0
    assert lie_derivative(lie_derivative(sys.c, sys.f), sys.g) == Expression.constant(1.0, 2)
    flipped = ControlAffineSystem(
        f=sys.f,
        g=(Expression.constant(1.0, 2), Expression.zero(2)),
        c=sys.c,
        n=2,
    )
    assert lie_derivative(flipped.c, flipped.g) == Expression.constant(1.0, 2)


def test_lie_dimension_mismatch():
    sys = vdp_system(1, 1, 1)
    with pytest.raises(ValueError, match="dimension"):
        lie_derivative(Expression.variable(0, 3), sys.f)


def term_by_term(e: Expression, field) -> Expression:
    """sum_i d_i(e) * field[i], canonicalized after every addition."""
    out = Expression.zero(len(field))
    for i, component in enumerate(field):
        out = out + e.partial(i) * component
    return out


@pytest.mark.parametrize("seed", range(40))
def test_lie_derivative_equals_term_by_term_sum(seed):
    # one canonicalization merges like terms in the order the running sum
    # adds them, so every coefficient is the same float
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    e = make_random_expression(rng, n, max_terms=6)
    field = [make_random_expression(rng, n, max_terms=6) for _ in range(n)]
    assert lie_derivative(e, field).terms == term_by_term(e, field).terms


def test_lie_derivative_term_cancelling_then_returning():
    # x1*x2*x3 collects +1, -1 (the term vanishes) and then +2
    x1, x2, x3 = (Expression.variable(i, 3) for i in range(3))
    e, field = x1 * x2 * x3, [x1, -1.0 * x2, 2.0 * x3]
    assert lie_derivative(e, field) == term_by_term(e, field) == 2.0 * e


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the zero test is structural: sin(x1)^2 + cos(x1)^2 - 1 is not found to be zero "
    "(ROADMAP item 3)",
)
def test_trig_identity_is_not_a_nonzero_beta():
    # Lg Lf c = sin(x1)*sin(x1) + cos(x1)*cos(x1) - 1 vanishes everywhere, so
    # r is not 2; the structural zero test returns r = 2 with that beta
    n = 4
    f = tuple(parse_expression(e, n) for e in ("sin(x1)*x2 + cos(x1)*x3 - x4", "x3", "x4", "-x1"))
    g = tuple(parse_expression(e, n) for e in ("0", "sin(x1)", "cos(x1)", "1"))
    chain = relative_degree(ControlAffineSystem(f=f, g=g, c=parse_expression("x1", n), n=n))
    assert chain.relative_degree != 2


# -- normal form ---------------------------------------------------------------------------


def test_normal_form_triple_integrator():
    # at full relative degree the first n chain entries are the normal-form coordinates
    chain = relative_degree(chain_integrator_system(3))
    assert chain.relative_degree == 3 == chain.n_states
    assert [str(e) for e in chain.lf_powers[:3]] == ["x1", "x2", "x3"]


# -- numerical Leibniz check --------------------------------------------------------------------


def test_lie_f_matches_directional_finite_difference():
    sys = vdp_system(1, 1, 1)
    rng = np.random.default_rng(42)
    for _ in range(20):
        e = make_random_expression(rng, n_states=2)
        lf = lie_derivative(e, sys.f)
        x = rng.uniform(-1.5, 1.5, size=2)
        h = 1e-6
        direction = np.array([sys.f[0].evaluate(x), sys.f[1].evaluate(x)])
        fd = (e.evaluate(x + h * direction) - e.evaluate(x - h * direction)) / (2 * h)
        exact = lf.evaluate(x)
        assert abs(exact - fd) <= 1e-5 * (1.0 + abs(exact))
