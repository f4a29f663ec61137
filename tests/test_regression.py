"""Joint sparse regression: joint layout, chain constraint, thresholding, solver."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import default_excitation, state_design, weak_input_dataset
from sparsefl.data import Dataset, estimate_derivatives
from sparsefl.dictionary import LibrarySpec, build_dictionaries
from sparsefl.dynamics import ControlAffineSystem, chain_integrator_system, integrate, vdp_system
from sparsefl.lie import relative_degree
from sparsefl.regression import (
    GeneralConstraint,
    InfeasibleSparsityError,
    RegressionConfig,
    RegressionError,
    _reconstruct,
    _state_residuals,
    coefficient_table,
    discovered_equations,
    format_coefficient_table,
    model_to_dict,
    solve,
    system_from_dict,
    threshold_pass,
)
from sparsefl.symexpr import Expression, evaluate_columns


def random_dataset(m=20, n=2, seed=0, with_xdot=True):
    rng = np.random.default_rng(seed)
    return Dataset(
        np.arange(m) * 0.01,
        rng.uniform(-2, 2, size=(m, n)),
        rng.uniform(-2, 2, size=m),
        rng.uniform(-2, 2, size=m),
        Xdot=rng.uniform(-2, 2, size=(m, n)) if with_xdot else None,
    )


@pytest.fixture(scope="module")
def vdp_data():
    return integrate(vdp_system(1, 1, 1), [2.0, 0.0], default_excitation(), 0.01, 99)


@pytest.fixture(scope="module")
def vdp_dicts(vdp_data):
    return build_dictionaries(LibrarySpec(), vdp_data)


# -- joint layout ----------------------------------------------------------------------


def true_vdp_coefficients(ds):
    """Pack the known Van der Pol coefficients into the library layout."""
    labels_f = ds.labels_f()
    xi_tilde = np.zeros((ds.p_x, 2))
    xi_hat = np.zeros((ds.p_u, 2))
    xi_tilde[labels_f.index("x2"), 0] = 1.0
    xi_tilde[labels_f.index("x1"), 1] = -1.0
    xi_tilde[labels_f.index("x2"), 1] = 2.0
    xi_tilde[labels_f.index("x1^2*x2"), 1] = -2.0
    xi_hat[ds.labels_g().index("u"), 1] = 1.0
    zeta = np.zeros(ds.p_y)
    zeta[ds.labels_phi().index("x1")] = 1.0
    return xi_tilde, xi_hat, zeta


def test_stacked_dimensions(vdp_dicts):
    # the state step's constraint has one [xi_tilde_j; xi_hat_j] block of
    # p_x + p_u = 20 columns per coupled state; y = x1 at r = 2 couples
    # state 1 alone, with one row per term of dc/dx1 * theta_b: ten rows
    xi_tilde, _, zeta = true_vdp_coefficients(vdp_dicts)
    states, C = GeneralConstraint(vdp_dicts, 2).state_rows(zeta, xi_tilde)
    assert states == [0]
    assert C.shape == (10, 20)
    # at r = 3 a dense random drift carries Lf c to every state: two levels
    # of term rows over all three blocks, the drift columns zero
    d = random_dataset(m=30, n=3, seed=5)
    ds = build_dictionaries(LibrarySpec(poly_order=2), d)
    rng = np.random.default_rng(8)
    xi_tilde = rng.uniform(-1, 1, size=(ds.p_x, 3))
    zeta = rng.uniform(-1, 1, size=ds.p_y)
    states, C = GeneralConstraint(ds, 3).state_rows(zeta, xi_tilde)
    assert states == [0, 1, 2]
    block = ds.p_x + ds.p_u
    assert C.shape[1] == 3 * block
    for s in range(3):
        assert np.all(C[:, s * block : s * block + ds.p_x] == 0.0)
        assert np.any(C[:, s * block + ds.p_x : (s + 1) * block] != 0.0)


def test_stacked_off_diagonal_blocks_are_zero():
    # chain3 at r = 3 couples states 1 and 2: each block's drift columns are
    # zero, and its input column b at level k holds the coefficients of
    # d_j(Lf^k c) * theta_b
    sys, d = chain3_data()
    ds = build_dictionaries(LibrarySpec(poly_order=2, output_poly_order=3), d)
    xi_tilde, _, zeta = true_chain3_coefficients(ds)
    states, C = GeneralConstraint(ds, 3).state_rows(zeta, xi_tilde)
    assert states == [0, 1]
    p_x, p_u = ds.p_x, ds.p_u
    block = p_x + p_u
    assert C.shape == (2 * p_u, 2 * block)
    assert np.all(C[:, :p_x] == 0.0)
    assert np.all(C[:, block : block + p_x] == 0.0)
    # c = x1 and Lf c = x2: level 0 is the identity on state 1's input
    # block, level 1 on state 2's (the polynomial entries are in term order)
    eye = np.eye(p_u)
    assert np.array_equal(C[:p_u, p_x:block], eye)
    assert np.all(C[:p_u, block + p_x :] == 0.0)
    assert np.all(C[p_u:, p_x:block] == 0.0)
    assert np.array_equal(C[p_u:, block + p_x :], eye)


def test_true_coefficients_reproduce_targets(vdp_dicts, vdp_data):
    xi_tilde, xi_hat, zeta = true_vdp_coefficients(vdp_dicts)
    xdot = state_design(vdp_dicts, vdp_data) @ np.vstack([xi_tilde, xi_hat])
    assert np.max(np.abs(xdot - vdp_data.Xdot)) <= 1e-8
    assert np.max(np.abs(vdp_dicts.phi @ zeta - vdp_data.Y)) <= 1e-8


# -- chain constraint rows -----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:only .* samples")
def test_constraint_single_sample_outer_product():
    # hand-written rows, independent of the one sample x = (2, 0), u = 3:
    # over the library [1, x1, x2] with output library [1, x1], c = x1 has
    # dc/dx1 = 1, so state 1's input rows are the identity (one row per
    # term 1, x1, x2); g1 = 1 makes Lg phi = [0, 1], one constant term;
    # c = 1 couples no state.
    d = Dataset(
        np.array([0.0, 0.01]),
        np.array([[2.0, 0.0], [2.0, 0.0]]),
        np.array([3.0, 3.0]),
        np.array([2.0, 2.0]),
        Xdot=np.zeros((2, 2)),
    )
    ds = build_dictionaries(LibrarySpec(poly_order=1, output_poly_order=1), d)
    gc = GeneralConstraint(ds, 2)
    xi_tilde = np.zeros((ds.p_x, 2))
    xi_hat = np.zeros((ds.p_u, 2))
    xi_hat[ds.labels_g().index("u"), 0] = 1.0
    assert gc.zeta_rows(xi_tilde, xi_hat).tolist() == [[0.0, 1.0]]
    states, C = gc.state_rows(np.array([0.0, 1.0]), xi_tilde)
    assert states == [0]
    assert C.tolist() == [
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    states, C = gc.state_rows(np.array([1.0, 0.0]), xi_tilde)
    assert states == []
    assert C.shape == (0, 0)


@pytest.mark.parametrize(
    "u, mode, message",
    [
        (1.0, "coefficients", "f and g cannot be separated"),
        (1.0, "none", "f and g cannot be separated"),
        (0.0, "coefficients", "identically zero"),
    ],
    ids=["one-constrained", "one-unconstrained", "zero-constrained"],
)
def test_constant_input_raises_before_any_sweep(monkeypatch, u, mode, message):
    # U = 1 makes each input column equal its drift column: the solve used to
    # return f and g split at will (exit 0); U = 0 only warned
    import sparsefl.regression as regression

    def no_stls(*args, **kwargs):
        raise AssertionError("STLS ran on a constant input")

    d = integrate(vdp_system(1, 1, 1), [2.0, 0.0], lambda t, x: u, 0.01, 99)
    ds = build_dictionaries(LibrarySpec(), d)
    monkeypatch.setattr(regression, "_stls", no_stls)
    with pytest.raises(RegressionError, match=message) as err:
        solve(ds, d, RegressionConfig(constraint_mode=mode))
    assert err.value.diagnostics is None


def test_zero_input_without_the_constraint_returns_the_drift():
    # with the constraint off a zero input identifies f and leaves g = 0;
    # with it on, the same data is an error
    d = integrate(vdp_system(1, 1, 1), [2.0, 0.0], lambda t, x: 0.0, 0.01, 299)
    ds = build_dictionaries(LibrarySpec(), d)
    with pytest.raises(RegressionError, match="identically zero"):
        solve(ds, d, RegressionConfig())
    model = solve(ds, d, RegressionConfig(constraint_mode="none"))
    assert np.all(model.xi_hat == 0.0)
    xi_tilde = true_vdp_coefficients(ds)[0]
    assert np.max(np.abs(model.xi_tilde - xi_tilde)) <= 1e-6


# -- threshold pass ---------------------------------------------------------------------


def test_threshold_zeroes_small_entries():
    values = threshold_pass(np.array([0.001, 1.2, -0.04]), 0.05)
    assert values.tolist() == [0.0, 1.2, 0.0]
    assert (values != 0.0).tolist() == [False, True, False]
    assert values.any()


def test_threshold_lambda_zero_is_identity():
    coeffs = np.array([0.3, -0.001, 2.0])
    values = threshold_pass(coeffs, 0.0)
    assert np.array_equal(values, coeffs)


def test_threshold_all_below_flags_infeasible():
    values = threshold_pass(np.array([0.01, -0.02, -0.0]), 0.5)
    assert np.all(values == 0.0)
    assert not np.signbit(values).any()  # a zeroed entry is +0.0, a -0.0 included
    assert not values.any()


@pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
def test_threshold_rejects_bad_lambda(lam):
    # NaN compares false with everything: it used to keep every column
    with pytest.raises(ValueError, match="lam"):
        threshold_pass(np.array([0.3, -0.001]), lam)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lam", math.nan),
        ("lam", math.inf),
        ("constraint_mode", "per_sample"),
        ("coef_tol", math.nan),
        ("coef_tol", -math.inf),
        ("max_outer_iters", 0),
        ("max_alt_iters", 0),
        ("relative_degree", 0),
        ("relative_degree", True),
        ("max_alt_iters", 2.5),
        ("lam", "0.05"),
        ("coef_tol", False),
    ],
)
def test_regression_config_rejects_bad_setting(field, value):
    # the stopping knobs are gone: STLS ends by construction, and the
    # alternation's limits are module constants
    known = {f.name for f in dataclasses.fields(RegressionConfig)}
    with pytest.raises(ValueError if field in known else TypeError, match=field):
        RegressionConfig(**{field: value})


def test_regression_config_fields():
    assert [f.name for f in dataclasses.fields(RegressionConfig)] == [
        "lam", "constraint_mode", "relative_degree"
    ]
    assert RegressionConfig().constraint_mode == "coefficients"


def test_regression_config_accepts_numpy_scalars():
    cfg = RegressionConfig(lam=np.float64(0.05), relative_degree=np.int64(2))
    assert cfg == RegressionConfig()
    assert type(cfg.lam) is float and type(cfg.relative_degree) is int


# -- solver: oracle equivalence ------------------------------------------------------------


def normal_equations(A, z):
    return np.linalg.solve(A.T @ A, A.T @ z)


def test_unconstrained_lambda_zero_equals_least_squares():
    cfg = RegressionConfig(lam=0.0, constraint_mode="none")
    for seed in range(20):
        d = random_dataset(m=20, seed=seed)
        ds = build_dictionaries(LibrarySpec(poly_order=1), d)  # 3 + 3 columns per state
        model = solve(ds, d, cfg)
        theta = state_design(ds, d)
        for l in range(2):
            expected = normal_equations(theta, d.Xdot[:, l])
            got = np.concatenate([model.xi_tilde[:, l], model.xi_hat[:, l]])
            assert np.linalg.norm(got - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected))
        zeta_expected = normal_equations(np.asarray(ds.phi), d.Y)
        assert np.linalg.norm(model.zeta - zeta_expected) <= 1e-8 * max(
            1.0, np.linalg.norm(zeta_expected)
        )


def test_constrained_solve_matches_kkt_oracle():
    # independent route: min ||Aw - z|| s.t. Cw = 0 via the KKT system
    # [[A^T A, C^T], [C, 0]] [w; mu] = [A^T z; 0]
    from sparsefl.regression import _constrained_solve

    rng = np.random.default_rng(17)
    for _ in range(20):
        m, p, q = 30, 6, 2
        A = rng.normal(size=(m, p))
        z = rng.normal(size=m)
        C = rng.normal(size=(q, p))
        w = _constrained_solve(A, z, C)
        kkt = np.block([[A.T @ A, C.T], [C, np.zeros((q, q))]])
        rhs = np.concatenate([A.T @ z, np.zeros(q)])
        w_kkt = np.linalg.solve(kkt, rhs)[:p]
        assert np.linalg.norm(w - w_kkt) <= 1e-8 * max(1.0, np.linalg.norm(w_kkt))
        assert np.max(np.abs(C @ w)) <= 1e-10


def test_null_space_of_tall_rank_deficient_constraint():
    # a tall constraint: zero drift columns, then input-library rows scaled
    # by a per-row weight; one input column is a combination of two
    # others, so the input block is rank-deficient
    import tracemalloc

    from sparsefl.regression import _null_space

    rng = np.random.default_rng(5)
    m, p_x, p_u = 4000, 29, 29
    tg = rng.uniform(-2.0, 2.0, size=(m, p_u))
    tg[:, -1] = tg[:, 0] + tg[:, 1]
    C = np.zeros((m, p_x + p_u))
    C[:, p_x:] = rng.uniform(-1.0, 1.0, size=m)[:, None] * tg
    tracemalloc.start()
    try:
        N = _null_space(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert N.shape == (p_x + p_u, p_x + 1)
    assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)
    assert np.max(np.abs(C @ N)) <= 1e-12
    s, vt = np.linalg.svd(C, full_matrices=False)[1:]
    rank = int(np.sum(s > max(C.shape) * np.finfo(float).eps * s[0]))
    N_svd = vt[rank:].T
    assert np.allclose(N @ N.T, N_svd @ N_svd.T, atol=1e-12)
    # an m x m factor alone would be 128 MB; the null space needs O(m p)
    assert peak < 16 * 2**20


# -- solver: Van der Pol recovery ------------------------------------------------------------


def test_vdp_identification_recovers_table(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    labels_f = vdp_dicts.labels_f()
    xi2 = model.xi_tilde[:, 1]
    assert abs(xi2[labels_f.index("x1")] - (-1.0)) <= 0.05
    assert abs(xi2[labels_f.index("x2")] - 2.0) <= 0.05
    assert abs(xi2[labels_f.index("x1^2*x2")] - (-2.0)) <= 0.05
    assert abs(model.xi_hat[vdp_dicts.labels_g().index("u"), 1] - 1.0) <= 0.05
    assert abs(model.xi_tilde[labels_f.index("x2"), 0] - 1.0) <= 0.05
    # everything else thresholded to exactly zero
    expected_support = {
        (labels_f.index("x2"), 0),
        (labels_f.index("x1"), 1),
        (labels_f.index("x2"), 1),
        (labels_f.index("x1^2*x2"), 1),
    }
    nz = {tuple(idx) for idx in np.argwhere(model.xi_tilde != 0.0)}
    assert nz == expected_support
    assert np.count_nonzero(model.xi_hat) == 1
    assert np.count_nonzero(model.zeta) == 1
    assert model.zeta[vdp_dicts.labels_phi().index("x1")] == 1.0


def test_vdp_constraint_residual_and_zero_g1(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    assert model.diagnostics.constraint_residual <= 1e-6
    assert model.g[0].is_zero()
    assert np.all(model.xi_hat[:, 0] == 0.0)


def test_identification_at_non_unit_parameters():
    # theta=1.5, sigma=0.8, mu=1.2: drift -2.25 x1 + 2.4 x2 - 2.88 x1^2 x2
    sys = vdp_system(1.5, 0.8, 1.2)
    d = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 99)
    ds = build_dictionaries(LibrarySpec(), d)
    model = solve(ds, d, RegressionConfig())
    labels = ds.labels_f()
    xi2 = model.xi_tilde[:, 1]
    assert xi2[labels.index("x1")] == pytest.approx(-2.25, abs=0.05)
    assert xi2[labels.index("x2")] == pytest.approx(2.4, abs=0.05)
    assert xi2[labels.index("x1^2*x2")] == pytest.approx(-2.88, abs=0.05)
    assert np.count_nonzero(xi2) == 3


def test_identification_with_trig_library():
    # trig entries correlate strongly with low-order monomials on short
    # windows; three seconds of data keeps the joint system well posed
    sys = vdp_system(1, 1, 1)
    d = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 299)
    ds = build_dictionaries(LibrarySpec(trig_orders=(1, 2)), d)
    model = solve(ds, d, RegressionConfig())
    eqs = discovered_equations(model)
    assert eqs[0] == "dx1/dt = x2"
    assert eqs[1] == "dx2/dt = -x1 + 2*x2 - 2*x1^2*x2 + u"
    assert model.g[0].is_zero()


def test_discovered_equation_strings(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    eqs = discovered_equations(model)
    assert eqs[0] == "dx1/dt = x2"
    assert "x1^2*x2" in eqs[1] and "u" in eqs[1]
    assert eqs[2] == "y = x1"


# -- solver behaviour around the threshold ---------------------------------------------------


def test_overlarge_threshold_is_infeasible(vdp_dicts, vdp_data):
    with pytest.raises(InfeasibleSparsityError, match="lower lambda"):
        solve(vdp_dicts, vdp_data, RegressionConfig(lam=10.0))


def test_sparsity_monotone_in_lambda(vdp_dicts, vdp_data):
    def total_active(lam):
        model = solve(vdp_dicts, vdp_data, RegressionConfig(lam=lam))
        return (
            np.count_nonzero(model.xi_tilde)
            + np.count_nonzero(model.xi_hat)
            + np.count_nonzero(model.zeta)
        )

    sizes = [total_active(lam) for lam in (0.001, 0.01, 0.05, 0.2, 0.9)]
    assert sizes == sorted(sizes, reverse=True)


def test_solve_is_deterministic_and_threshold_stable(vdp_dicts, vdp_data):
    cfg = RegressionConfig()
    a = solve(vdp_dicts, vdp_data, cfg)
    b = solve(vdp_dicts, vdp_data, cfg)
    assert np.array_equal(a.xi_tilde, b.xi_tilde)
    assert np.array_equal(a.xi_hat, b.xi_hat)
    assert np.array_equal(a.zeta, b.zeta)
    # one more unconstrained sweep on the final support leaves state 2 unchanged
    theta = state_design(vdp_dicts, vdp_data)
    w = np.concatenate([a.xi_tilde[:, 1], a.xi_hat[:, 1]])
    active = w != 0.0
    refit = np.linalg.lstsq(theta[:, active], vdp_data.Xdot[:, 1], rcond=None)[0]
    assert np.allclose(refit, w[active], atol=1e-10)
    assert np.all(np.abs(refit) >= cfg.lam)


def test_surviving_coefficients_exceed_threshold(vdp_dicts, vdp_data):
    cfg = RegressionConfig()
    model = solve(vdp_dicts, vdp_data, cfg)
    for arr in (model.xi_tilde, model.xi_hat, model.zeta):
        nz = arr[arr != 0.0]
        assert np.all(np.abs(nz) > cfg.lam)


@pytest.mark.parametrize(
    "cfg",
    [RegressionConfig(), RegressionConfig(constraint_mode="none"), RegressionConfig(relative_degree=1)],
    ids=["constrained", "mode-none", "degree-1"],
)
def test_zero_output_raises_in_every_mode(vdp_data, cfg):
    # c = 0 used to come back with the constraint off, and with the advice
    # to lower lambda with it on
    d = Dataset(vdp_data.times, vdp_data.X, vdp_data.U, np.zeros(vdp_data.m), Xdot=vdp_data.Xdot)
    with pytest.raises(RegressionError, match="output Y is zero") as info:
        solve(build_dictionaries(LibrarySpec(), d), d, cfg)
    assert type(info.value) is RegressionError
    assert info.value.diagnostics.active_counts["zeta"] == 0


def test_missing_derivatives_raises(vdp_dicts):
    d = random_dataset(with_xdot=False)
    ds = build_dictionaries(LibrarySpec(poly_order=1), d)
    with pytest.raises(RegressionError, match="derivative"):
        solve(ds, d, RegressionConfig())


def test_design_beyond_the_float_range_raises():
    # three samples of x1 at 1.5e308 (|u| <= 1, so x1*u stays finite): the
    # x1 column's norm overflows, so its QR factor is not finite; the sweeps
    # used to run on and blame lambda
    d = random_dataset(m=50)
    X = d.X.copy()
    X[:3, 0] = 1.5e308
    d = Dataset(d.times, X, d.U / 2, d.Y, Xdot=d.Xdot)
    ds = build_dictionaries(LibrarySpec(poly_order=1, output_poly_order=1), d)
    with pytest.raises(RegressionError, match="QR factor of the 50 x 6 library design is not finite"):
        solve(ds, d, RegressionConfig(constraint_mode="none"))


def test_solve_never_allocates_an_m_by_p_x_array():
    # the state design [theta_f | theta_f * u] is formed 512 rows at a time,
    # inside the QR and the residuals, so solve's traced peak stays below one
    # m x p_x array even on the wide library at m = 5000
    m = 5000
    rng = np.random.default_rng(5)
    X, U = rng.uniform(-2, 2, size=(m, 2)), rng.uniform(-2, 2, size=m)
    plant = vdp_system(1, 1, 1)
    Xdot = evaluate_columns(plant.f, X) + evaluate_columns(plant.g, X) * U[:, None]
    d = Dataset(np.arange(m) * 0.01, X, U, X[:, 0], Xdot=Xdot)
    ds = build_dictionaries(LibrarySpec(poly_order=5, trig_orders=(1, 2)), d)
    solve(ds, d, RegressionConfig())  # one-time costs (lazy imports) that do not grow with m
    tracemalloc.start()
    try:
        model = solve(ds, d, RegressionConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.p_x == 29 and peak < m * ds.p_x * 8
    assert model.diagnostics.active_counts["xi_hat"] == [0, 1]


@pytest.mark.parametrize("m", [1025, 1537, 2049])
def test_state_residuals_match_one_product_of_the_whole_design(m):
    # Xdot is the whole design times W, one matrix-vector product per state,
    # so the residuals formed 512 rows at a time must be exactly zero; a lone
    # last row taken on its own is a dot product, which rounds differently
    d = random_dataset(m=m, seed=m)
    ds = build_dictionaries(LibrarySpec(poly_order=5, trig_orders=(1, 2)), d)
    W = np.random.default_rng(m).uniform(-1, 1, size=(ds.p_x + ds.p_u, 2))
    theta = state_design(ds, d)
    d = d.with_xdot(np.column_stack([theta @ W[:, l] for l in range(2)]))
    assert _state_residuals(ds.theta_f, d.U, W, d.Xdot) == (0.0, 0.0)


def test_output_residual_is_measured_on_row_major_rows():
    # ds.phi is a column-major view, on which gemv sums each row in another
    # order: the residual stays that of the row-major product
    d = integrate(vdp_system(1, 1, 1), [2.0, 0.0], default_excitation(), 0.01, 699)
    x1 = d.X[:, 0]  # an output with three terms, so the products round
    d = Dataset(d.times, d.X, d.U, 0.3 + 1.7 * x1 - 0.45 * x1**2, Xdot=d.Xdot)
    ds = build_dictionaries(LibrarySpec(), d)
    model = solve(ds, d, RegressionConfig())
    assert np.count_nonzero(model.zeta) == 3
    rows = np.array(ds.phi, order="C")
    assert model.diagnostics.output_residual == float(np.linalg.norm(rows @ model.zeta - d.Y))


def test_emptied_input_channel_raises():
    # true input gain 0.3 sits below the threshold 0.4: an all-zero input
    # channel admits no linearizing law, so the solve fails and says why
    n = 2
    x1, x2 = Expression.variable(0, n), Expression.variable(1, n)
    sys = vdp_system(1, 1, 1)
    weak = type(sys)(
        f=(x2, -1.0 * x1),
        g=(Expression.zero(n), Expression.constant(0.3, n)),
        c=x1,
        n=n,
    )
    d = integrate(weak, [1.0, 0.0], default_excitation(), 0.01, 99)
    ds = build_dictionaries(LibrarySpec(poly_order=2), d)
    with pytest.raises(InfeasibleSparsityError, match="every input-channel candidate") as err:
        solve(ds, d, RegressionConfig(lam=0.4, constraint_mode="none"))
    assert err.value.diagnostics.active_counts["xi_hat"] == [0, 0]


@pytest.mark.parametrize("poly_order", [3, 5])
def test_emptied_input_channel_raises_on_trig_library(poly_order):
    # input gain 0.03 below lambda = 0.05: the solve once wrote the largest
    # unthresholded lstsq coefficient back (g2 = -0.0596*cos(2*x2) at
    # poly_order 5), and that wrong model certified r = 2
    d = weak_input_dataset(0.03)
    ds = build_dictionaries(LibrarySpec(poly_order=poly_order, trig_orders=(1, 2)), d)
    with pytest.raises(InfeasibleSparsityError, match="lower lambda") as err:
        solve(ds, d, RegressionConfig(lam=0.05))
    diagnostics = err.value.diagnostics
    assert diagnostics.active_counts["xi_hat"] == [0, 0]
    assert diagnostics.constraint_residual == 0.0


# -- support recovery on randomized systems ---------------------------------------------------


def random_library_system(seed, entries):
    """Sparse random 2-state control-affine system over the given entries."""
    rng = np.random.default_rng(seed)
    n = 2
    xi_tilde = np.zeros((len(entries), n))
    xi_hat = np.zeros((len(entries), n))
    f, g = [], []
    for l in range(n):
        fl, gl = Expression.zero(n), Expression.zero(n)
        for j in rng.choice(len(entries), size=2, replace=False):
            c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
            xi_tilde[j, l] = c
            fl = fl + c * entries[j]
        j = int(rng.integers(0, len(entries)))
        c = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        xi_hat[j, l] = c
        gl = gl + c * entries[j]
        f.append(fl)
        g.append(gl)
    sys = vdp_system(1, 1, 1)
    return type(sys)(f=tuple(f), g=tuple(g), c=Expression.variable(0, n), n=n), xi_tilde, xi_hat


# seeds screened once for bounded trajectories under the standard excitation
RECOVERY_SEEDS = [0, 1, 2, 3, 4, 5, 6, 7, 9, 10]


@pytest.mark.parametrize("seed", RECOVERY_SEEDS)
def test_support_recovery_on_random_systems(seed):
    spec = LibrarySpec(poly_order=2, output_poly_order=2)
    probe = random_dataset(m=20, n=2, seed=0)
    entries = build_dictionaries(spec, probe).theta_f_entries
    sys, xi_tilde_true, xi_hat_true = random_library_system(seed, entries)
    d = integrate(sys, [0.3, -0.2], default_excitation(), 0.01, 149)
    ds = build_dictionaries(spec, d)
    model = solve(ds, d, RegressionConfig(lam=0.1, constraint_mode="none"))
    assert np.array_equal(model.xi_tilde != 0.0, xi_tilde_true != 0.0)
    assert np.array_equal(model.xi_hat != 0.0, xi_hat_true != 0.0)
    assert np.allclose(model.xi_tilde, xi_tilde_true, atol=1e-6)
    assert np.allclose(model.xi_hat, xi_hat_true, atol=1e-6)


# -- generalized chain constraint -------------------------------------------------------------


def coefficient_matrix(exprs):
    """Term coefficients by hand: a row per signature in canonical term order, a column per expression."""
    terms = {t.signature: t for e in exprs for t in e.terms}
    rows = sorted(terms, key=lambda sig: terms[sig].sort_key)
    return np.array(
        [[{t.signature: t.coefficient for t in e.terms}.get(sig, 0.0) for e in exprs] for sig in rows]
    )


def reconstructed_chain(ds, xi_tilde, xi_hat, zeta):
    """The Lie chain of the model that the coefficients reconstruct."""
    f, g, c = _reconstruct(ds, xi_tilde, xi_hat, zeta)
    return relative_degree(ControlAffineSystem(f=f, g=g, c=c, n=ds.n_states))


def test_general_constraint_matches_bilinear_factors(vdp_dicts):
    # r = 2 with dense random coefficients: the state-1 input rows are the
    # coefficients of (dc/dx1) * theta_b, the output rows those of Lg phi_a =
    # d(phi_a)/dx1 * g1, and either block of rows times its coefficients is
    # Lg c = (dc/dx1) * g1, the level the certifier tests
    rng = np.random.default_rng(4)
    ds = vdp_dicts
    xi_tilde = rng.uniform(-1, 1, size=(ds.p_x, 2))
    xi_hat = rng.uniform(-1, 1, size=(ds.p_u, 2))
    zeta = rng.uniform(-1, 1, size=ds.p_y)
    c = sum((float(z) * e for z, e in zip(zeta, ds.phi_entries)), Expression.zero(2))
    g1 = sum((float(w) * e for w, e in zip(xi_hat[:, 0], ds.theta_f_entries)), Expression.zero(2))
    dc = c.partial(0)
    gc = GeneralConstraint(ds, 2)
    states, C = gc.state_rows(zeta, xi_tilde)
    assert states == [0]
    assert np.all(C[:, : ds.p_x] == 0.0)
    assert np.array_equal(C[:, ds.p_x :], coefficient_matrix([dc * e for e in ds.theta_f_entries]))
    D = gc.zeta_rows(xi_tilde, xi_hat)
    assert np.array_equal(D, coefficient_matrix([e.partial(0) * g1 for e in ds.phi_entries]))
    lg_c = coefficient_matrix([reconstructed_chain(ds, xi_tilde, xi_hat, zeta).lg_mixed[0]])[:, 0]
    assert np.allclose(C[:, ds.p_x :] @ xi_hat[:, 0], lg_c, rtol=1e-12)
    assert np.allclose(D @ zeta, lg_c, rtol=1e-12)


def test_general_constraint_true_vdp_residuals(vdp_dicts):
    # the true coefficients satisfy every row, and the certifier's chain
    # has Lg c = 0 exactly and certifies r = 2
    xi_tilde, xi_hat, zeta = true_vdp_coefficients(vdp_dicts)
    gc = GeneralConstraint(vdp_dicts, 2)
    assert not np.any(gc.zeta_rows(xi_tilde, xi_hat) @ zeta)
    chain = reconstructed_chain(vdp_dicts, xi_tilde, xi_hat, zeta)
    assert chain.relative_degree == 2
    assert chain.lg_mixed[0].max_abs_coefficient() == 0.0


def test_general_constraint_rejects_excess_degree(vdp_dicts):
    with pytest.raises(ValueError, match="exceeds"):
        GeneralConstraint(vdp_dicts, 3)


def chain3_data():
    sys = chain_integrator_system(3)
    return sys, integrate(sys, [0.5, 0.0, 0.0], default_excitation(), 0.01, 199)


def true_chain3_coefficients(ds):
    """The chain integrator x1' = x2, x2' = x3, x3' = u, y = x1 in the library layout."""
    labels = ds.labels_f()
    xi_tilde = np.zeros((ds.p_x, 3))
    xi_tilde[labels.index("x2"), 0] = 1.0
    xi_tilde[labels.index("x3"), 1] = 1.0
    xi_hat = np.zeros((ds.p_u, 3))
    xi_hat[ds.labels_g().index("u"), 2] = 1.0
    zeta = np.zeros(ds.p_y)
    zeta[ds.labels_phi().index("x1")] = 1.0
    return xi_tilde, xi_hat, zeta


def test_chain_integrator_r3_identification():
    sys, d = chain3_data()
    spec = LibrarySpec(poly_order=2, output_poly_order=3)
    ds = build_dictionaries(spec, d)
    model = solve(ds, d, RegressionConfig(relative_degree=3))
    eqs = discovered_equations(model)
    assert eqs[0] == "dx1/dt = x2"
    assert eqs[1] == "dx2/dt = x3"
    assert eqs[2] == "dx3/dt = u"
    assert model.diagnostics.constraint_residual <= 1e-6
    chain = relative_degree(model.system())
    assert chain.relative_degree == 3
    assert chain.lg_mixed[0].is_zero(1e-6)
    assert chain.lg_mixed[1].is_zero(1e-6)
    assert abs(chain.lg_mixed[2].constant_value() - 1.0) <= 0.05


@pytest.mark.parametrize(
    "plant, m",
    [
        pytest.param("chain3", 200, id="per_sample-200"),
        pytest.param("vdp", 100, id="vdp-per_sample-100"),
    ],
)
def test_chain_integrator_r3_constraint_rows_follow_mode(monkeypatch, plant, m):
    # the constraint has one row per chain level and term, not per sample:
    # every solve of the state step and the output step sees the same row
    # counts at m and at 4m samples
    import sparsefl.regression as regression

    if plant == "chain3":
        r, sys, x0, spec = 3, chain_integrator_system(3), [0.5, 0.0, 0.0], LibrarySpec(
            poly_order=2, output_poly_order=3
        )
    else:
        r, sys, x0, spec = 2, vdp_system(1, 1, 1), [2.0, 0.0], LibrarySpec()
    rows = []
    inner = regression._constrained_solve

    def spy(A, z, C, rows_m=0):
        if C is not None:
            rows.append(C.shape[0])
        return inner(A, z, C, rows_m)

    monkeypatch.setattr(regression, "_constrained_solve", spy)
    counts = []
    for samples in (m, 4 * m):
        rows.clear()
        d = integrate(sys, x0, default_excitation(), 0.01, samples - 1)
        solve(build_dictionaries(spec, d), d, RegressionConfig(relative_degree=r))
        counts.append(set(rows))
    assert counts[0] and counts[0] == counts[1]
    assert max(counts[0]) < m


def test_chain_integrator_r3_hand_residuals():
    # plug the exact chain-integrator coefficients into the r=3 constraint:
    # both chain levels vanish term by term, and the chain certifies r = 3
    sys, d = chain3_data()
    ds = build_dictionaries(LibrarySpec(poly_order=2, output_poly_order=3), d)
    xi_tilde, xi_hat, zeta = true_chain3_coefficients(ds)
    assert not np.any(GeneralConstraint(ds, 3).zeta_rows(xi_tilde, xi_hat) @ zeta)
    chain = reconstructed_chain(ds, xi_tilde, xi_hat, zeta)
    assert chain.relative_degree == 3
    assert max(e.max_abs_coefficient() for e in chain.lg_mixed[:2]) == 0.0


def test_constraint_and_certification_share_one_zero():
    # c = x1, f1 = sin(x2) + x3, g = (0, sin(x2), -0.5*sin(2*x2)): Lg c = 0,
    # and Lg Lf c = cos(x2)*sin(x2) - 0.5*sin(2*x2) vanishes as a function
    # (below 1e-15 at every sample) but not term by term. The constraint
    # rows see its coefficients, which is what relative_degree compares
    # with its tolerance: it certifies r = 2, not 3.
    sys, d = chain3_data()
    ds = build_dictionaries(LibrarySpec(poly_order=1, trig_orders=(1, 2)), d)
    labels = ds.labels_f()
    xi_tilde = np.zeros((ds.p_x, 3))
    xi_tilde[labels.index("sin(x2)"), 0] = 1.0
    xi_tilde[labels.index("x3"), 0] = 1.0
    xi_tilde[labels.index("x3"), 1] = 1.0
    xi_hat = np.zeros((ds.p_u, 3))
    xi_hat[labels.index("sin(x2)"), 1] = 1.0
    xi_hat[labels.index("sin(2*x2)"), 2] = -0.5
    zeta = np.zeros(ds.p_y)
    zeta[ds.labels_phi().index("x1")] = 1.0
    rows = GeneralConstraint(ds, 3).zeta_rows(xi_tilde, xi_hat)
    assert np.max(np.abs(rows @ zeta)) == 1.0
    chain = reconstructed_chain(ds, xi_tilde, xi_hat, zeta)
    assert chain.relative_degree == 2
    assert chain.lg_mixed[1].max_abs_coefficient() == 1.0
    assert np.max(np.abs(evaluate_columns([chain.lg_mixed[1]], d.X))) <= 1e-15


# -- coupled states ------------------------------------------------------------------------


@pytest.mark.parametrize("plant, state", [("vdp", 1), ("chain3", 2)])
def test_uncoupled_state_keeps_unconstrained_solution(vdp_dicts, vdp_data, plant, state):
    # the output chain never reaches this state's input channel, so the state
    # step leaves it at its unconstrained STLS solution, bit for bit
    if plant == "chain3":
        r, (sys, d) = 3, chain3_data()
        ds = build_dictionaries(LibrarySpec(poly_order=2, output_poly_order=3), d)
    else:
        r, d, ds = 2, vdp_data, vdp_dicts
    constrained = solve(ds, d, RegressionConfig(relative_degree=r))
    free = solve(ds, d, RegressionConfig(relative_degree=r, constraint_mode="none"))
    assert constrained.diagnostics.alt_iterations >= 1
    assert np.array_equal(constrained.xi_tilde[:, state], free.xi_tilde[:, state])
    assert np.array_equal(constrained.xi_hat[:, state], free.xi_hat[:, state])


def test_constant_output_raises(vdp_data):
    # Y = 1 fits zeta = e_0, c = 1, whose chain has no gradient: no input
    # channel enters the constraint, every state keeps its initialization,
    # and the model, whose every Lie derivative vanishes, has no relative
    # degree to certify
    d = Dataset(vdp_data.times, vdp_data.X, vdp_data.U, np.ones(vdp_data.m), Xdot=vdp_data.Xdot)
    ds = build_dictionaries(LibrarySpec(), d)
    free = solve(ds, d, RegressionConfig(constraint_mode="none"))
    with pytest.raises(RegressionError, match=r"relative degree None, not 2 \(y = 1\)") as err:
        solve(ds, d, RegressionConfig())
    diagnostics = err.value.diagnostics
    assert diagnostics.constraint_residual == 0.0
    assert diagnostics.active_counts == free.diagnostics.active_counts


GRID_PLANTS = {
    "vdp": (vdp_system(1, 1, 1), [2.0, 0.0], 2, LibrarySpec()),
    "chain3": (chain_integrator_system(3), [0.5, 0.0, 0.0], 3, LibrarySpec(poly_order=2)),
}


@pytest.mark.filterwarnings("ignore:only 100 samples for a library:UserWarning")
@pytest.mark.parametrize(
    "plant, wide, m, noise, exact",
    list(itertools.product(GRID_PLANTS, [False, True], [100, 300], [0.0, 1e-3], [True, False])),
)
def test_every_returned_model_certifies_the_requested_degree(plant, wide, m, noise, exact):
    # small cells of the trust grid: both plants, the narrow and the wide
    # (poly_order 5, trig orders 1 and 2) library, clean and noisy, exact
    # and estimated derivatives. solve may raise, but a model it returns
    # certifies at r. Ten chain3 cells fit a constant output, which
    # certifies no relative degree, so solve must raise there.
    sys, x0, r, spec = GRID_PLANTS[plant]
    if wide:
        spec = LibrarySpec(poly_order=5, trig_orders=(1, 2))
    d = integrate(sys, x0, default_excitation(), 0.01, m - 1)
    rng = np.random.default_rng(1)
    X = d.X + noise * rng.standard_normal(d.X.shape)
    Y = d.Y + noise * rng.standard_normal(d.m)
    Xdot = d.Xdot + noise * rng.standard_normal(d.X.shape) if exact else None
    d = estimate_derivatives(Dataset(d.times, X, d.U, Y, Xdot=Xdot))
    try:
        model = solve(build_dictionaries(spec, d), d, RegressionConfig(relative_degree=r))
    except RegressionError:
        return
    assert relative_degree(model.system()).relative_degree == r


@pytest.mark.parametrize("n, r", [(1, 2), (2, 3)])
def test_relative_degree_above_state_dimension_fails_fast(monkeypatch, n, r):
    import sparsefl.regression as regression

    def no_stls(*args, **kwargs):
        raise AssertionError("STLS ran before the relative degree was checked")

    d = random_dataset(m=30, n=n, seed=3)
    ds = build_dictionaries(LibrarySpec(poly_order=1), d)
    monkeypatch.setattr(regression, "_stls", no_stls)
    with pytest.raises(RegressionError, match=f"relative_degree {r} exceeds the state dimension {n}"):
        solve(ds, d, RegressionConfig(relative_degree=r))


def test_non_converged_error_carries_full_diagnostics(monkeypatch):
    # noisy data needs a second alternation step: with one allowed, the
    # error's record holds the residuals and active counts of the last step
    import sparsefl.regression as regression

    d = integrate(vdp_system(1, 1, 1), [2.0, 0.0], default_excitation(), 0.01, 299)
    rng = np.random.default_rng(0)
    d = Dataset(
        d.times, d.X, d.U, d.Y + 1e-2 * rng.standard_normal(d.m),
        Xdot=d.Xdot + 1e-2 * rng.standard_normal((d.m, 2)),
    )
    ds = build_dictionaries(LibrarySpec(), d)
    monkeypatch.setattr(regression, "ALT_STEPS", 1)
    with pytest.raises(RegressionError, match="did not converge in 1 iterations") as err:
        solve(ds, d, RegressionConfig())
    diagnostics = err.value.diagnostics
    assert diagnostics.alt_iterations == 1
    assert len(diagnostics.state_residuals) == 2
    assert set(diagnostics.active_counts) == {"xi_tilde", "xi_hat", "zeta"}
    assert len(diagnostics.active_counts["xi_tilde"]) == 2


# -- reporting / serialization ------------------------------------------------------------------


def test_coefficient_table_layout(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    labels, rows, columns = coefficient_table(model)
    assert columns == ["xi_tilde_1", "xi_hat_1", "xi_tilde_2", "xi_hat_2", "zeta"]
    assert labels[: vdp_dicts.p_x] == vdp_dicts.labels_f()
    r_x2 = labels.index("x2")
    assert rows[r_x2][0] == pytest.approx(1.0, abs=0.05)  # xi_tilde_1 on x2
    r_1 = labels.index("1")
    assert rows[r_1][3] == pytest.approx(1.0, abs=0.05)  # xi_hat_2 on the pure-u column
    r_x1 = labels.index("x1")
    assert rows[r_x1][4] == 1.0  # zeta indicator
    assert rows[r_x1][2] == pytest.approx(-1.0, abs=0.05)


def test_text_coefficient_table(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    text = format_coefficient_table(model)
    lines = text.splitlines()
    assert lines[0].split() == ["entry", "xi_tilde_1", "xi_hat_1", "xi_tilde_2", "xi_hat_2", "zeta"]
    assert len(lines) == 1 + len(coefficient_table(model)[0])
    x2_line = next(l for l in lines if l.startswith("x2 "))
    assert x2_line.split()[1] == "1"


def test_model_json_round_trip(vdp_dicts, vdp_data):
    model = solve(vdp_dicts, vdp_data, RegressionConfig())
    payload = model_to_dict(model)
    # through the JSON text: the file reads back as the identified plant
    back = system_from_dict(json.loads(json.dumps(payload)))
    assert (back.f, back.g, back.c, back.n) == (model.f, model.g, model.c, 2)
    # to_dict is already the JSON form (tuples as lists, as the report prints them)
    assert payload["diagnostics"] == json.loads(json.dumps(payload["diagnostics"]))
    assert LibrarySpec(**payload["library"]) == vdp_dicts.spec
    spec = LibrarySpec(poly_order=2, trig_orders=(2, 1), cross_trig=True)
    other = dataclasses.replace(model, dictionaries=dataclasses.replace(vdp_dicts, spec=spec))
    assert LibrarySpec(**model_to_dict(other)["library"]) == spec


# -- output scale --------------------------------------------------------------------


@pytest.mark.parametrize("gain", [2.0, 0.5])
def test_output_gain_is_kept_as_fitted(gain):
    # Y fixes the scale of zeta and the constraint is homogeneous in it, so
    # c = gain * x1 is identified as such, not pinned to x1
    base = vdp_system(1, 1, 1)
    sys = ControlAffineSystem(f=base.f, g=base.g, c=gain * Expression.variable(0, 2), n=2)
    d = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 299)
    model = solve(build_dictionaries(LibrarySpec(), d), d, RegressionConfig())
    [term] = model.c.terms
    assert term.monomial == (1, 0) and abs(term.coefficient - gain) <= 1e-6
    assert model.diagnostics.output_residual <= 1e-6


# -- sweeps on the factor -----------------------------------------------------------


def exact_stls(A, z, lam, constraint=None, what="coefficients", trace=None):
    """Reference STLS that solves every sweep on the whole m-row active design.

    The blocks of ``z``'s columns are the Kronecker product eye(k) x A. Each
    sweep appends its unthresholded coefficients and its reduced design (the
    active columns, times the null space of the active constraint) to
    ``trace`` when one is given.
    """
    from sparsefl.regression import _constrained_solve, _null_space

    Z = z.reshape(len(z), -1)
    k = Z.shape[1]
    if k > 1:
        A = np.kron(np.eye(k), A)
    z = np.concatenate(Z.T)
    p = A.shape[1]
    active = np.ones(p, dtype=bool)
    for sweep in itertools.count(1):
        C_act = constraint[:, active] if constraint is not None else None
        x = _constrained_solve(A[:, active], z, C_act)
        if trace is not None:
            reduced = A[:, active] if C_act is None else A[:, active] @ _null_space(C_act)
            trace.append((x, reduced))
        w = np.zeros(p)
        w[active] = x
        w = threshold_pass(w, lam)
        kept = w != 0.0
        if not kept.any():
            if np.max(np.abs(z), initial=0.0) <= 1e-12:
                return np.zeros(p), sweep
            raise InfeasibleSparsityError(
                f"threshold {lam} removed every candidate for {what}; lower lambda"
            )
        if np.array_equal(kept, active):
            return w, sweep
        active = kept


def forward_error_bound(reduced, x, z):
    """Bound on |x - x'| for two backward-stable least-squares solves of ``reduced`` against z.

    Higham 2002, Thm 20.1, at the backward error rows * columns * eps of
    Thm 20.3, with kappa over the singular values above numpy's rank cutoff;
    infinite when kappa times that error reaches 1/2.
    """
    s = np.linalg.svd(reduced, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    rows, cols = reduced.shape
    s = s[s > np.finfo(float).eps * max(rows, cols) * s[0]]
    kappa, err = s[0] / s[-1], rows * cols * np.finfo(float).eps
    if kappa * err >= 0.5:
        return math.inf
    residual = float(np.linalg.norm(z - reduced @ np.linalg.lstsq(reduced, z, rcond=None)[0]))
    scale = 2 * float(np.linalg.norm(x)) + (kappa + 1) * residual / s[0]
    return 2 * kappa * err / (1 - kappa * err) * scale


def outcome(fn, *args):
    """Coefficients and sweeps of an STLS call, or its exception type and message."""
    try:
        return fn(*args)
    except InfeasibleSparsityError as exc:
        return type(exc), str(exc)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 12),
    st.booleans(),
    st.booleans(),
    st.integers(1, 2),
    st.sampled_from([0.0, 1e-6, 1e-2]),
    st.sampled_from([None, 1e-6, -1e-6, 1e-3, -1e-3]),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_stls_on_the_factor_matches_exact_stls(seed, log_cond, duplicate, constrained, k, noise, nudge):
    # a tall design with singular values 1 .. 10^-log_cond, optionally a
    # duplicated column, noise and constraint rows; lam is random or within
    # a relative nudge of a least-squares coefficient. Where every
    # coefficient of every reference sweep clears lam by the forward-error
    # bound of its solve, the sweeps on the factor threshold alike
    from sparsefl.regression import _factor, _stls

    rng = np.random.default_rng(seed)
    p = int(rng.integers(2, 9))
    m = int(rng.integers(p + k + 2, 80))
    U = np.linalg.qr(rng.normal(size=(m, p)))[0]
    V = np.linalg.qr(rng.normal(size=(p, p)))[0]
    A = (U * np.logspace(0, -log_cond, p)) @ V.T * rng.uniform(0.5, 3.0)
    if duplicate:
        A[:, -1] = A[:, 0]
    Z = A @ (rng.normal(size=(p, k)) * (rng.random((p, k)) < 0.6)) + noise * rng.normal(size=(m, k))
    C = rng.normal(size=(int(rng.integers(1, p)), k * p)) if constrained else None
    if nudge is None:
        lam = float(rng.uniform(0.0, 1.0))
    else:
        ls = np.linalg.lstsq(A, Z[:, 0], rcond=None)[0]
        lam = abs(float(ls[rng.integers(p)])) * (1.0 + nudge)
    z = Z[:, 0] if k == 1 else Z
    trace = []
    expected = outcome(exact_stls, A, z, lam, C, "w", trace)
    rhs = np.concatenate(Z.T)
    bounds = [forward_error_bound(reduced, x, rhs) for x, reduced in trace]
    assume(all(np.all(np.abs(np.abs(x) - lam) > b) for (x, _), b in zip(trace, bounds)))
    got = outcome(_stls, _factor(A, Z), z, lam, C, "w")
    if isinstance(expected[0], type):
        assert got == expected
        return
    (w, sweeps), (w_ref, sweeps_ref) = got, expected
    assert sweeps == sweeps_ref
    assert np.array_equal(w != 0.0, w_ref != 0.0)
    assert np.max(np.abs(w - w_ref)) <= bounds[-1]


def test_stls_runs_until_the_active_set_settles():
    # A = Q (I - J), J the superdiagonal of ones, at the width of the
    # vdp_wide_m5000 library: the sweeps drop a few columns each, and the
    # solve once failed at a 25-sweep cap that it needs more than
    from sparsefl.regression import _factor, _stls

    p, lam = 58, 0.1
    Q = np.linalg.qr(np.random.default_rng(1).normal(size=(300, p)))[0]
    A = Q @ (np.eye(p) - np.eye(p, k=1))
    beta = np.full(p, lam / 2)
    beta[0] = 5.0
    z = Q @ beta
    w, sweeps = _stls(_factor(A, z[:, None]), z, lam)
    assert np.flatnonzero(w).tolist() == [0] and w[0] == pytest.approx(5.0)
    assert sweeps > 25
    assert w == pytest.approx(exact_stls(A, z, lam)[0], rel=1e-12, abs=0.0)


def test_rank_cutoff_is_the_m_row_designs():
    # the smallest singular value, 3e-14 of the largest, lies between
    # eps * p and eps * m: numpy drops that direction on the m rows and
    # would keep it on R's p rows, where it carries a coefficient near 3e13
    from sparsefl.regression import _factor, _stls

    m, p = 4000, 4
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.normal(size=(m, p)))[0]
    V = np.linalg.qr(rng.normal(size=(p, p)))[0]
    A = (U * [1.0, 0.5, 0.25, 3e-14]) @ V.T
    z = U @ np.ones(p)
    factor = _factor(A, z[:, None])
    w, sweeps = _stls(factor, z, 0.0)
    expected = np.linalg.lstsq(A, z, rcond=None)[0]
    assert sweeps == 1 and np.max(np.abs(expected)) < 10.0
    assert w == pytest.approx(expected, rel=1e-9, abs=1e-12)
    p_row_default = np.linalg.lstsq(factor.r, factor.qtz[:, 0], rcond=None)[0]
    assert np.max(np.abs(p_row_default)) > 1e12


@pytest.mark.parametrize("workload", ["chain3_r3_m2000", "vdp_wide_m5000"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_m_row_solves_only_for_returned_supports(monkeypatch, workload, seed):
    # on the benchmark workloads no least-squares call has m rows, not even
    # for the support a sweep returns: every sweep solves on a QR factor
    import sys
    from pathlib import Path

    import sparsefl.regression as regression

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    wl = workloads.setup(workload, seed)
    d = integrate(wl.plant, list(wl.spec.x0), wl.excitation, workloads.DT, wl.m - 1)
    ds = build_dictionaries(wl.library, d)
    rows = []
    lstsq = np.linalg.lstsq

    def lstsq_spy(A, z, *args, **kwargs):
        rows.append(A.shape[0])
        return lstsq(A, z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq_spy)
    solve(ds, d, wl.regression)
    assert rows and max(rows) < d.m
