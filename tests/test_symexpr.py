"""Expression engine: arithmetic, differentiation, evaluation, text round-trip."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_expression
from sparsefl.symexpr import (
    Expression,
    evaluate_columns,
    format_expression,
    format_terms,
    parse_expression,
)


def x(i: int, n: int = 2) -> Expression:
    return Expression.variable(i, n)


# -- add ------------------------------------------------------------------------


def test_add_additive_inverse_gives_empty_term_list():
    total = x(0) + -x(0)
    assert total.terms == ()
    assert total.is_zero()


def test_add_merges_like_terms():
    assert x(1) + 2.0 * x(1) == 3.0 * x(1)


def test_add_controller_assembly_expansion():
    # (x1 - 2 x2 + 2 x1^2 x2) + 5*(-x1): expand by hand, then cross-check the
    # result against evaluating the two summands separately at random points.
    a = parse_expression("x1 - 2*x2 + 2*x1^2*x2", 2)
    b = 5.0 * (-x(0))
    total = a + b
    # signature: (monomial exponents, trig atoms)
    coefficients = {t.signature: t.coefficient for t in total.terms}
    assert coefficients == pytest.approx(
        {((1, 0), ()): -4.0, ((0, 1), ()): -2.0, ((2, 1), ()): 2.0}
    )
    assert len(total.terms) == 3
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = rng.uniform(-2, 2, size=2)
        assert total.evaluate(p) == pytest.approx(a.evaluate(p) + b.evaluate(p), rel=1e-12)


def test_add_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        x(0, 2) + x(0, 3)


# -- mul ------------------------------------------------------------------------


def test_mul_monomials():
    assert x(0) * (x(0) * x(0)) == Expression.monomial((3, 0))


def test_mul_identity():
    one = Expression.constant(1.0, 2)
    e = parse_expression("2*x1 - x2 + sin(2*x1)*x2", 2)
    assert one * e == e


def test_mul_with_coefficients():
    assert (2.0 * x(0)) * Expression.monomial((2, 1)) == 2.0 * Expression.monomial((3, 1))


def test_mul_keeps_trig_products_as_atoms():
    s = Expression.trig("sin", 1, 0, 2)
    c = Expression.trig("cos", 1, 0, 2)
    prod = s * c
    assert len(prod.terms) == 1
    assert prod.terms[0].trig_atoms == (("cos", 1, 0), ("sin", 1, 0))
    # same-atom product stays a repeated atom, not a rewritten sum
    sq = s * s
    assert sq.terms[0].trig_atoms == (("sin", 1, 0), ("sin", 1, 0))


# -- partial --------------------------------------------------------------------


def test_partial_cubic_monomial():
    assert Expression.monomial((3, 0)).partial(0) == 3.0 * Expression.monomial((2, 0))


def test_partial_trig_chain_rule():
    assert Expression.trig("sin", 2, 0, 2).partial(0) == 2.0 * Expression.trig("cos", 2, 0, 2)
    assert Expression.trig("cos", 2, 0, 2).partial(0) == -2.0 * Expression.trig("sin", 2, 0, 2)


def test_partial_mixed_monomial():
    assert Expression.monomial((2, 1)).partial(1) == Expression.monomial((2, 0))


def test_partial_of_constant_is_zero():
    assert Expression.constant(4.2, 2).partial(0).is_zero()


def test_partial_product_rule_with_trig():
    e = x(0) * Expression.trig("sin", 1, 0, 2)
    d = e.partial(0)
    # d/dx1 (x1 sin x1) = sin x1 + x1 cos x1
    expected = Expression.trig("sin", 1, 0, 2) + x(0) * Expression.trig("cos", 1, 0, 2)
    assert d == expected


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_monomial():
    assert Expression.monomial((2, 1)).evaluate([2.0, 3.0]) == 12.0


def test_evaluate_constant():
    assert Expression.constant(1.0, 2).evaluate([123.4, -5.0]) == 1.0


def test_evaluate_hand_arithmetic():
    e = parse_expression("-x1 + 2*x2 - 2*x1^2*x2", 2)
    assert e.evaluate([1.0, 1.0]) == pytest.approx(-1.0)


def test_evaluate_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        x(0).evaluate([math.inf, 0.0])


def test_evaluate_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        x(0).evaluate([1.0, 2.0, 3.0])


def test_evaluate_columns_rejects_bad_input():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError, match="expected 3"):
        evaluate_columns([Expression.variable(0, 3)], X)
    with pytest.raises(ValueError, match="non-finite"):
        evaluate_columns([x(0)], np.array([[0.0, math.inf]]))
    assert evaluate_columns([], X).shape == (3, 0)


# -- is_zero ----------------------------------------------------------------------


def test_is_zero_empty():
    assert Expression.zero(2).is_zero()


def test_is_zero_below_tolerance():
    assert (1e-12 * x(0)).is_zero(1e-9)


def test_is_zero_above_tolerance():
    assert not x(1).is_zero(1e-9)


# -- format / parse ---------------------------------------------------------------


def test_format_zero():
    assert format_expression(Expression.zero(2)) == "0"


def test_format_state_row_with_input_part():
    # f's terms, then g's terms with a trailing u factor, as discovered_equations prints
    f = parse_expression("-1.001*x1 + 2*x2 - 2*x1^2*x2", 2)
    g = parse_expression("1.001 - x1*sin(x2)", 2)
    terms = [(t, ()) for t in f.terms] + [(t, ("u",)) for t in g.terms]
    assert format_terms(terms) == "-1.001*x1 + 2*x2 - 2*x1^2*x2 + 1.001*u - x1*sin(x2)*u"
    assert format_terms([(t, ("u",)) for t in g.terms], digits=2) == "u - x1*sin(x2)*u"
    assert format_terms([]) == format_expression(Expression.zero(2)) == "0"


def test_format_unit_coefficient():
    assert format_expression(Expression.monomial((2, 1))) == "x1^2*x2"


def test_format_trig_frequencies():
    e = Expression.trig("sin", 1, 0, 2) + Expression.trig("cos", 2, 1, 2)
    assert format_expression(e) == "sin(x1) + cos(2*x2)"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_expression("", 2)
    with pytest.raises(ValueError):
        parse_expression("x1 + $", 2)
    with pytest.raises(ValueError):
        parse_expression("y1", 2)
    with pytest.raises(ValueError):
        parse_expression("x3", 2)  # exceeds declared dimension
    with pytest.raises(ValueError):
        parse_expression("sin(2.5*x1)", 2)  # non-integer frequency
    with pytest.raises(ValueError, match="unknown symbol 'u'"):
        parse_expression("x1*u", 2)  # expressions are functions of the state only


def test_parse_infers_dimension():
    e = parse_expression("x1*x3")
    assert e.n_states == 3


@pytest.mark.parametrize(
    "text, printed, n_states",
    [
        (" x1 * x2 ", "x1*x2", 2),
        ("+x1", "x1", 1),
        ("sin( 2 * x1 )", "sin(2*x1)", 1),
        ("2^3*x1", "8*x1", 1),
        ("x1^0", "1", 1),  # a zero power still counts its state
        ("x01", "x1", 1),  # the index is read as a decimal number
    ],
)
def test_parse_accepts(text, printed, n_states):
    e = parse_expression(text)
    assert (format_expression(e), e.n_states) == (printed, n_states)
    assert parse_expression(text, 3) == parse_expression(printed, 3)


@pytest.mark.parametrize(
    "text",
    [
        "x1 +",
        "x1--x2",  # a sign only leads the expression or joins terms
        "sin(x1)^2",  # powers only on literals and states
        "x1.5",
        "x0",
        "X1",
        "x1x2",
        "sin(2.5*x1)",
        "sin(0*x1)",
        "1e400*x1",
        "1e400^0*x1",  # the literal is tested before its power: inf ** 0 is 1.0
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_expression(text, 3)


def test_parse_literal_power_overflow_names_the_literal():
    with pytest.raises(ValueError, match=r"9\^999"):
        parse_expression("9^999*x1", 2)


@pytest.mark.parametrize("value", [["x1"], 1, None, b"x1"])
def test_parse_rejects_non_string(value):
    with pytest.raises(TypeError):
        parse_expression(value, 2)


_GRAMMAR_PIECES = [*"0123456789", "x", "sin(", "cos(", *"()^*+-.e", " ", "\t"]


@given(st.lists(st.sampled_from(_GRAMMAR_PIECES), max_size=24).map("".join))
@settings(max_examples=300, deadline=None)
def test_parse_returns_expression_or_value_error(text):
    try:
        e = parse_expression(text, 3)
    except ValueError:
        return
    assert parse_expression(format_expression(e), 3) == e


# -- properties -------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_canonical_form_idempotent(seed):
    rng = np.random.default_rng(seed)
    e = make_random_expression(rng)
    again = Expression(e.terms, e.n_states)
    assert again == e
    assert [t.sort_key for t in e.terms] == sorted(t.sort_key for t in e.terms)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_ring_laws_at_evaluation(seed):
    rng = np.random.default_rng(seed)
    a = make_random_expression(rng)
    b = make_random_expression(rng)
    p = rng.uniform(-2.0, 2.0, size=2)
    va, vb = a.evaluate(p), b.evaluate(p)
    sum_val = (a + b).evaluate(p)
    assert abs(sum_val - (va + vb)) <= 1e-12 * (1.0 + abs(va) + abs(vb))
    prod = a * b
    mass = sum(abs(t.evaluate(p)) for t in prod.terms)
    assert abs(prod.evaluate(p) - va * vb) <= 1e-12 * (1.0 + abs(va * vb) + mass)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_format_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    e = make_random_expression(rng)
    assert parse_expression(format_expression(e), e.n_states) == e


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_partial_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    e = make_random_expression(rng)
    i = int(rng.integers(0, e.n_states))
    d = e.partial(i)
    p = rng.uniform(-2.0, 2.0, size=e.n_states)
    h = 1e-5
    hi, lo = p.copy(), p.copy()
    hi[i] += h
    lo[i] -= h
    fd = (e.evaluate(hi) - e.evaluate(lo)) / (2 * h)
    exact = d.evaluate(p)
    assert abs(exact - fd) <= 1e-6 * (1.0 + abs(exact)) + 1e-7


@given(st.integers(0, 10_000), st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_evaluate_columns_is_bitwise_evaluate(seed, n):
    # powers up to 5, sin/cos at frequencies 1-2, multi-term sums: the
    # column evaluator must return exactly the per-sample values, compared
    # as bit patterns so that -0.0 and 0.0 differ
    rng = np.random.default_rng(seed)
    exprs = [
        make_random_expression(rng, n_states=n, max_terms=5, max_degree=5, max_trig_freq=2)
        for _ in range(4)
    ] + [x(n - 1, n), -1.0 * x(0, n)]
    # exact zeros of both signs and unit magnitudes: power-1 atoms are the
    # state columns themselves, and a sum of -0.0 terms is +0.0
    X = rng.uniform(-3.0, 3.0, size=(25, n))
    mask = rng.random(X.shape) < 0.4
    X[mask] = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=int(mask.sum()))
    oracle = np.array([[e.evaluate(X[i]) for e in exprs] for i in range(25)])
    bits = lambda a: a.view(np.uint64)  # noqa: E731
    assert np.array_equal(bits(evaluate_columns(exprs, X)), bits(oracle))


def test_evaluate_columns_is_bitwise_scalar_in_bulk():
    # the vector sin/cos loop and libm pow against the scalar calls of
    # Term.evaluate on 1.4e6 values: angles up to |freq * x| ~ 1e6 for
    # freq 1-5, bases of both signs from subnormal results up to 1e305 for
    # powers 2-5, exact zeros of both signs and unit magnitudes
    m = 100_000
    rng = np.random.default_rng(20240611)
    sign = lambda: rng.choice([-1.0, 1.0], size=m)  # noqa: E731
    X = np.column_stack([sign() * 10.0 ** rng.uniform(-3.0, 5.3, m),
                         sign() * 10.0 ** rng.uniform(-64.0, 61.0, m)])
    X[::50] = rng.choice(np.array([0.0, -0.0, 1.0, -1.0]), size=X[::50].shape)
    X[1::50, 1] = rng.uniform(-3.0, 3.0, size=X[1::50, 1].shape)
    t, v = X.T.tolist()
    exprs, oracle = [], []
    for freq in range(1, 6):
        for kind, fn in (("sin", math.sin), ("cos", math.cos)):
            exprs.append(Expression.trig(kind, freq, 0, 2))
            oracle.append([0.0 + 1.0 * fn(freq * a) for a in t])
    for p in range(2, 6):
        exprs.append(Expression.monomial((0, p)))
        oracle.append([0.0 + 1.0 * b**p for b in v])
    bits = lambda a: a.view(np.uint64)  # noqa: E731
    got = evaluate_columns(exprs, X)
    assert np.array_equal(bits(got), bits(np.array(oracle).T))


@pytest.mark.parametrize(
    "expr, X",
    [
        (Expression.monomial((3, 0)), [[1.0, 0.0], [1e200, 0.0]]),
        (Expression.monomial((1, 2)), [[1.0, 0.0], [2.0, -1e200]]),
        (Expression.trig("sin", 2, 0, 2), [[1.0, 0.0], [1e308, 0.0]]),
    ],
)
def test_evaluate_columns_overflow_raises_like_evaluate(expr, X):
    # a power that overflows raises, as the scalar ``v ** p`` does; np.power
    # would return inf instead. An infinite trig angle raises in both, where
    # np.sin would warn and return NaN and math.sin raise a domain error
    with pytest.raises(OverflowError) as scalar:
        expr.evaluate(X[1])
    with pytest.raises(OverflowError) as columns:
        evaluate_columns([expr], np.array(X))
    assert str(columns.value) == str(scalar.value)


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(3)
    e = make_random_expression(rng, max_terms=4)
    p = [0.37, -1.21]
    values = {e.evaluate(p) for _ in range(50)}
    assert len(values) == 1
