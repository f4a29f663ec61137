"""Library enumeration order, numeric evaluation, and the output-gradient matrix."""

from __future__ import annotations

import numpy as np
import pytest

from sparsefl.data import Dataset
from sparsefl.dictionary import LibrarySpec, build_dictionaries
from sparsefl.symexpr import evaluate_columns

def dataset_from_states(X, U=None, seed=0):
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    U = np.zeros(m) if U is None else np.asarray(U, dtype=float)
    return Dataset(np.arange(m) * 0.01, X, U, X[:, 0])


def random_dataset(m=40, n=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        np.arange(m) * 0.01,
        rng.uniform(-2, 2, size=(m, n)),
        rng.uniform(-2, 2, size=m),
        rng.uniform(-2, 2, size=m),
    )


# -- enumeration order -----------------------------------------------------------------


def test_polynomial_entries_graded_order():
    ds = build_dictionaries(LibrarySpec(poly_order=3), random_dataset())
    assert ds.labels_f() == [
        "1", "x1", "x2", "x1^2", "x1*x2", "x2^2",
        "x1^3", "x1^2*x2", "x1*x2^2", "x2^3",
    ]
    assert ds.p_x == 10
    assert ds.p_u == 10


def test_input_entries_are_drift_entries_times_u():
    ds = build_dictionaries(LibrarySpec(poly_order=2), random_dataset())
    assert ds.labels_g() == ["u", "x1*u", "x2*u", "x1^2*u", "x1*x2*u", "x2^2*u"]


def test_trig_entries_follow_polynomials_by_frequency():
    ds = build_dictionaries(LibrarySpec(poly_order=1, trig_orders=(1, 2)), random_dataset())
    assert ds.labels_f() == [
        "1", "x1", "x2",
        "sin(x1)", "sin(x2)", "cos(x1)", "cos(x2)",
        "sin(2*x1)", "sin(2*x2)", "cos(2*x1)", "cos(2*x2)",
    ]


def test_output_library_powers_of_observed_state():
    ds = build_dictionaries(LibrarySpec(output_state_index=0, output_poly_order=3), random_dataset())
    assert ds.labels_phi() == ["1", "x1", "x1^2", "x1^3"]
    dsrev = build_dictionaries(
        LibrarySpec(output_state_index=1, output_poly_order=2), random_dataset()
    )
    assert dsrev.labels_phi() == ["1", "x2", "x2^2"]


def test_polynomial_block_prefix_property():
    d = random_dataset()
    small = build_dictionaries(LibrarySpec(poly_order=2), d)
    large = build_dictionaries(LibrarySpec(poly_order=3), d)
    assert large.labels_f()[: small.p_x] == small.labels_f()
    assert np.array_equal(large.theta[:, : small.p_x], small.theta[:, : small.p_x])


def test_cross_trig_products_available():
    ds = build_dictionaries(
        LibrarySpec(poly_order=1, trig_orders=(1,), cross_trig=True), random_dataset()
    )
    assert "sin(x1)*sin(x2)" in ds.labels_f()
    assert "sin(x1)*cos(x2)" in ds.labels_f()
    off = build_dictionaries(LibrarySpec(poly_order=1, trig_orders=(1,)), random_dataset())
    assert all("*" not in lab or "u" in lab for lab in off.labels_f())


def test_degenerate_library_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        LibrarySpec(poly_order=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("poly_order", 2.9),
        ("output_poly_order", True),
        ("cross_trig", "no"),
        ("cross_trig", 0),
        ("trig_orders", (1.5,)),
        ("trig_orders", (True,)),
        ("trig_orders", (0,)),
    ],
)
def test_library_spec_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        LibrarySpec(**{field: value})


def test_repeated_trig_order_rejected():
    # (1, 1) would build every sin/cos column twice: theta loses rank and
    # the coefficient table, keyed by label, drops one of each pair
    with pytest.raises(ValueError, match="distinct"):
        LibrarySpec(trig_orders=(1, 2, 1))


def test_library_spec_accepts_numpy_scalars():
    spec = LibrarySpec(poly_order=np.int64(3), trig_orders=np.array([1, 2]))
    assert spec == LibrarySpec(trig_orders=(1, 2))
    assert type(spec.poly_order) is int and all(type(j) is int for j in spec.trig_orders)


def test_output_index_out_of_range():
    with pytest.raises(ValueError, match="output_state_index"):
        build_dictionaries(LibrarySpec(output_state_index=2), random_dataset(n=2))


# -- numeric evaluation ------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:only .* samples")
def test_input_matrix_row_arithmetic():
    d = dataset_from_states([[2.0, 3.0], [2.0, 3.0]], U=[5.0, 5.0])
    ds = build_dictionaries(LibrarySpec(poly_order=1), d)
    theta_g = ds.theta[:, ds.p_x :]
    assert theta_g[0, ds.labels_g().index("x1*u")] == 10.0
    assert theta_g[0, ds.labels_g().index("u")] == 5.0


def input_library_oracle(ds, d):
    """Per-sample theta_g: the drift entry's value times u, summed from 0.0."""
    rows = zip(d.X, d.U)
    return np.array([[0.0 + e.evaluate(x) * u for e in ds.theta_f_entries] for x, u in rows])


def test_matrices_match_symbolic_evaluation_exactly():
    # powers up to 5: vectorized np.power rounds differently from scalar **
    d = random_dataset(m=100, seed=3)
    ds = build_dictionaries(LibrarySpec(poly_order=5, trig_orders=(1, 2)), d)
    for i in range(d.m):
        for j, e in enumerate(ds.theta_f_entries):
            assert ds.theta[i, j] == e.evaluate(d.X[i])
        for j, e in enumerate(ds.phi_entries):
            assert ds.phi[i, j] == e.evaluate(d.X[i])
    assert np.array_equal(ds.theta[:, ds.p_x :], input_library_oracle(ds, d))


@pytest.mark.filterwarnings("ignore:only .* samples")
def test_input_library_keeps_signed_zeros_positive():
    # exact zeros of both signs in the states and a negative input: a plain
    # product would leave -0.0 entries, which LAPACK can tell apart from +0.0
    X = [[0.0, -0.0], [-0.0, 1.5], [-2.0, 0.0], [0.0, 0.0]]
    d = dataset_from_states(X, U=[-1.5, -0.5, 0.0, -0.0])
    spec = LibrarySpec(poly_order=3, trig_orders=(1,), cross_trig=True)
    ds = build_dictionaries(spec, d)
    theta_g = ds.theta[:, ds.p_x :]
    bits = theta_g.view(np.uint64)
    assert np.array_equal(bits, input_library_oracle(ds, d).view(np.uint64))
    assert not np.signbit(theta_g[theta_g == 0.0]).any()
    assert ds.p_u == ds.p_x and ds.labels_g()[:3] == ["u", "x1*u", "x2*u"]


def test_underdetermined_warning():
    with pytest.warns(UserWarning, match="underdetermined"):
        build_dictionaries(LibrarySpec(poly_order=3), random_dataset(m=5))


# -- output-library gradient -----------------------------------------------------------------


def output_gradient(ds):
    """Each output-library entry differentiated along the observed state."""
    k = ds.spec.output_state_index
    return [e.partial(k) for e in ds.phi_entries]


def test_gradient_dictionary_monomial_ladder():
    ds = build_dictionaries(LibrarySpec(output_poly_order=3), random_dataset())
    grad = output_gradient(ds)
    assert [str(e) for e in grad] == ["0", "1", "2*x1", "3*x1^2"]


def test_gradient_dictionary_constant_only():
    ds = build_dictionaries(LibrarySpec(output_poly_order=0), random_dataset())
    grad = output_gradient(ds)
    assert [str(e) for e in grad] == ["0"]


@pytest.mark.filterwarnings("ignore:only .* samples")
def test_gradient_values_at_two():
    d = dataset_from_states([[2.0, 0.0], [2.0, 0.0]])
    ds = build_dictionaries(LibrarySpec(output_poly_order=3), d)
    L = evaluate_columns(output_gradient(ds), d.X)
    assert L[0].tolist() == [0.0, 1.0, 4.0, 12.0]


@pytest.mark.filterwarnings("ignore:only .* samples")
def test_gradient_values_zero_trajectory():
    d = dataset_from_states([[0.0, 0.0], [0.0, 0.0]])
    ds = build_dictionaries(LibrarySpec(output_poly_order=3), d)
    L = evaluate_columns(output_gradient(ds), d.X)
    assert L[0].tolist() == [0.0, 1.0, 0.0, 0.0]


def test_L_matrix_matches_entrywise_evaluation():
    d = random_dataset(m=100, seed=11)
    ds = build_dictionaries(LibrarySpec(output_poly_order=5), d)
    grad = output_gradient(ds)
    L = evaluate_columns(grad, d.X)
    oracle = np.array([[e.evaluate(d.X[i]) for e in grad] for i in range(d.m)])
    assert np.array_equal(L, oracle)
