"""Bitwise oracle for the term kernel of ``sparsefl.symexpr``.

The kernel merges like terms in input order and only then sorts the
survivors, and it builds derived terms without re-running ``Term``'s
structural checks. The reference below is the construction it replaced:
every term goes through the validating ``Term``, and canonicalization sorts
first, then merges. Both must return the same term tuples, with every
coefficient equal to the last bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefl.lie import lie_derivative
from sparsefl.symexpr import Expression, Term

# -- reference construction -------------------------------------------------------


def _ref_sort_key(t: Term) -> tuple:
    return (
        sum(t.monomial),
        tuple(-e for e in t.monomial),
        tuple((var, kind, freq) for kind, freq, var in t.trig_atoms),
    )


def ref_canonical(terms, n: int) -> tuple[Term, ...]:
    """Sort, then merge; a sum of exactly 0.0 deletes the term."""
    merged: dict[tuple, Term] = {}
    for t in sorted(terms, key=_ref_sort_key):
        assert len(t.monomial) == n
        sig = (t.monomial, t.trig_atoms)
        if sig in merged:
            c = merged[sig].coefficient + t.coefficient
            if c == 0.0:
                del merged[sig]
            else:
                merged[sig] = Term(c, t.monomial, t.trig_atoms)
        elif t.coefficient != 0.0:
            merged[sig] = t
    return tuple(merged.values())


def ref_add(a, b, n):
    return ref_canonical(a + b, n)


def ref_neg(a, n):
    return ref_canonical([Term(-t.coefficient, t.monomial, t.trig_atoms) for t in a], n)


def ref_scale(a, k, n):
    return ref_canonical([Term(t.coefficient * k, t.monomial, t.trig_atoms) for t in a], n)


def ref_mul(a, b, n):
    return ref_canonical(
        [
            Term(
                s.coefficient * t.coefficient,
                tuple(p + q for p, q in zip(s.monomial, t.monomial)),
                s.trig_atoms + t.trig_atoms,
            )
            for s in a
            for t in b
        ],
        n,
    )


def ref_partial(a, index, n):
    out = []
    for t in a:
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
                new_atom, factor = ("cos", freq, var), float(freq)
            else:
                new_atom, factor = ("sin", freq, var), -float(freq)
            out.append(Term(t.coefficient * factor, t.monomial, rest + (new_atom,)))
    return ref_canonical(out, n)


def ref_lie(e, field, n):
    products = [ref_mul(ref_partial(e, i, n), component, n) for i, component in enumerate(field)]
    return ref_canonical([t for product in products for t in product], n)


def bits(terms) -> list[tuple]:
    """Each term as (coefficient in hex, monomial, atoms): equal means bit-identical."""
    return [(float.hex(t.coefficient), t.monomial, t.trig_atoms) for t in terms]


def same(expr: Expression, reference) -> None:
    assert bits(expr.terms) == bits(reference)
    for t in expr.terms:  # a derived term is a plain float, like a validated one
        assert type(t.coefficient) is float
        assert all(type(e) is int for e in t.monomial)


# -- random expressions -------------------------------------------------------------

# Few signatures and coefficients with exact negatives and inexact sums
# (0.1 + 0.2 + 0.3 depends on the order), so like terms meet, cancel to
# exactly 0.0 and come back, and a change of summation order shows in the bits.
COEFFICIENTS = [1.0, -1.0, 2.0, -2.0, 0.1, -0.1, 0.2, 0.3, -0.3, 3.0, 1e16, -1e16, 0.5]
ATOMS = [("sin", 1, 0), ("cos", 1, 0), ("sin", 2, 1), ("cos", 1, 1), ("cos", 2, 0)]


@st.composite
def raw_terms(draw, n: int, max_terms: int = 8) -> list[Term]:
    """Term lists with repeated signatures, as products and Lie sums produce them."""
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    atoms = st.lists(st.sampled_from([a for a in ATOMS if a[2] < n]), max_size=2)
    signatures = draw(st.lists(st.tuples(exponents, atoms), min_size=1, max_size=3))
    coefficient = st.one_of(st.sampled_from(COEFFICIENTS), st.floats(-4.0, 4.0))
    return [
        Term(draw(coefficient), monomial, tuple(trig))
        for monomial, trig in draw(st.lists(st.sampled_from(signatures), max_size=max_terms))
    ]


@st.composite
def expressions(draw, n: int, max_terms: int = 5) -> Expression:
    return Expression(tuple(draw(raw_terms(n, max_terms))), n)


N = st.shared(st.integers(2, 3), key="n")


@given(N.flatmap(lambda n: st.tuples(st.just(n), raw_terms(n, 10))))
@settings(max_examples=300, deadline=None)
def test_constructor_matches_sort_then_merge(case):
    n, terms = case
    same(Expression(tuple(terms), n), ref_canonical(terms, n))


@given(N.flatmap(lambda n: st.tuples(st.just(n), expressions(n), expressions(n))))
@settings(max_examples=300, deadline=None)
def test_add_mul_neg_match_reference(case):
    n, a, b = case
    same(a + b, ref_add(a.terms, b.terms, n))
    same(a - b, ref_add(a.terms, ref_neg(b.terms, n), n))
    same(a * b, ref_mul(a.terms, b.terms, n))
    same(-a, ref_neg(a.terms, n))


@given(
    N.flatmap(lambda n: st.tuples(st.just(n), expressions(n))),
    st.one_of(
        st.sampled_from([0, 1, -1, 3, 0.0, -0.5, 1e-320, 1e300, np.float64(0.1)]),
        st.floats(-10.0, 10.0),
    ),
)
@settings(max_examples=300, deadline=None)
def test_scalar_multiple_matches_reference(case, k):
    n, a = case
    try:
        reference = ref_scale(a.terms, k, n)
    except ValueError as exc:  # 1e300 times a large coefficient
        with pytest.raises(ValueError, match=str(exc)):
            a * k
        return
    same(a * k, reference)
    same(k * a, reference)


@given(N.flatmap(lambda n: st.tuples(st.just(n), expressions(n), st.integers(0, n - 1))))
@settings(max_examples=300, deadline=None)
def test_partial_matches_reference(case):
    n, a, index = case
    same(a.partial(index), ref_partial(a.terms, index, n))


@given(
    N.flatmap(
        lambda n: st.tuples(
            st.just(n), expressions(n), st.lists(expressions(n, 3), min_size=n, max_size=n)
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_lie_derivative_matches_reference(case):
    n, e, field = case
    same(lie_derivative(e, field), ref_lie(e.terms, [c.terms for c in field], n))


def test_cancelled_term_comes_back_with_later_like_terms():
    # 1 - 1 deletes x1; 0.1 then starts afresh, and 0.2 joins it
    x1 = (1, 0)
    terms = [Term(c, x1) for c in (1.0, -1.0, 0.1, 0.2)] + [Term(2.0, (0, 1))]
    e = Expression(tuple(terms), 2)
    same(e, ref_canonical(terms, 2))
    assert [t.coefficient for t in e.terms] == [0.1 + 0.2, 2.0]


@pytest.mark.parametrize("scales", [(0.1, 0.2, 0.3), (1.0, -1.0, 0.1)], ids=["inexact", "cancel"])
def test_lie_sum_merges_in_component_order(scales):
    # every component adds to the one term x1*x2*x3: 0.1 + 0.2 + 0.3 is not
    # 0.3 + 0.2 + 0.1, and 1 - 1 deletes the term before 0.1 brings it back
    e = Expression.monomial((1, 1, 1))
    units = [tuple(int(i == j) for j in range(3)) for i in range(3)]
    field = [Expression.monomial(unit, k) for unit, k in zip(units, scales)]
    reference = ref_lie(e.terms, [c.terms for c in field], 3)
    same(lie_derivative(e, field), reference)
    assert reference[0].coefficient == (scales[0] + scales[1]) + scales[2]


def test_kernel_keeps_sort_key_and_signature():
    t = Term(1.5, (2, 0), (("sin", 1, 1), ("cos", 2, 0)))
    assert t.signature == ((2, 0), (("cos", 2, 0), ("sin", 1, 1)))
    assert t.sort_key == _ref_sort_key(t)


HUGE = Expression.monomial((1, 0), 1e308)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HUGE * HUGE,
        lambda: HUGE + HUGE,
        lambda: HUGE * 10.0,
        lambda: Expression.monomial((3, 0), 1e308).partial(0),  # 3 * 1e308
        lambda: Expression(HUGE.terms * 2, 2),
        lambda: lie_derivative(Expression.monomial((2, 0)), (HUGE, Expression.zero(2))),
    ],
    ids=["product", "merge", "scalar", "partial", "constructor-merge", "lie-product"],
)
def test_overflow_still_raises_non_finite(build):
    with pytest.raises(ValueError, match=r"^non-finite term coefficient inf$"):
        build()


def test_public_term_keeps_full_validation():
    with pytest.raises(ValueError, match="non-finite"):
        Term(math.inf, (1,))
    with pytest.raises(ValueError, match="non-negative integers"):
        Term(1.0, (-1,))
    with pytest.raises(ValueError, match="unknown trig kind"):
        Term(1.0, (1,), (("tan", 1, 0),))
    with pytest.raises(ValueError, match="positive integer"):
        Term(1.0, (1,), (("sin", 0, 0),))
    with pytest.raises(ValueError, match="out of range"):
        Term(1.0, (1,), (("sin", 1, 1),))
    with pytest.raises(ValueError, match="expected 2"):
        Expression((Term(1.0, (1,)),), 2)
