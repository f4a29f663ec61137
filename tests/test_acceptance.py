"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import default_excitation, make_random_expression, state_design
from sparsefl.control import gains_from_poles, sinusoid_reference, synthesize, zero_reference
from sparsefl.data import Dataset
from sparsefl.dictionary import LibrarySpec, _values, build_dictionaries
from sparsefl.dynamics import (
    ControlAffineSystem,
    chain_integrator_system,
    integrate,
    simulate_closed_loop,
    vdp_system,
)
from sparsefl.lie import lie_derivative, relative_degree
from sparsefl.regression import GeneralConstraint, RegressionConfig, _Fields, solve
from sparsefl.symexpr import Expression, parse_expression


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def demo():
    """Identification pipeline on the default Van der Pol configuration."""
    sys = vdp_system(1.0, 1.0, 1.0)
    data = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 99)
    ds = build_dictionaries(LibrarySpec(), data)
    model = solve(ds, data, RegressionConfig())
    return sys, data, ds, model


def test_criterion_1_identification(demo):
    t0 = time.perf_counter()
    sys = vdp_system(1.0, 1.0, 1.0)
    data = integrate(sys, [2.0, 0.0], default_excitation(), 0.01, 99)
    ds = build_dictionaries(LibrarySpec(), data)
    model = solve(ds, data, RegressionConfig(lam=0.05))
    elapsed = time.perf_counter() - t0

    labels_f = ds.labels_f()
    xi1, xi2 = model.xi_tilde[:, 0], model.xi_tilde[:, 1]
    checks = {
        "x1 in state 2": abs(xi2[labels_f.index("x1")] + 1.0) <= 0.05,
        "x2 in state 2": abs(xi2[labels_f.index("x2")] - 2.0) <= 0.05,
        "x1^2*x2 in state 2": abs(xi2[labels_f.index("x1^2*x2")] + 2.0) <= 0.05,
        "u in state 2": abs(model.xi_hat[ds.labels_g().index("u"), 1] - 1.0) <= 0.05,
        "x2 in state 1": abs(xi1[labels_f.index("x2")] - 1.0) <= 0.05,
        "zeta indicator": model.zeta[ds.labels_phi().index("x1")] == 1.0
        and np.count_nonzero(model.zeta) == 1,
    }
    support2 = {labels_f.index(lab) for lab in ("x1", "x2", "x1^2*x2")}
    checks["no spurious terms"] = (
        set(np.flatnonzero(xi2)) == support2
        and set(np.flatnonzero(xi1)) == {labels_f.index("x2")}
        and np.count_nonzero(model.xi_hat) == 1
    )
    checks["runtime <= 10 s"] = elapsed <= 10.0
    report(
        1,
        "identification reproduces the demo coefficient table",
        all(checks.values()),
        "; ".join(k for k, v in checks.items() if not v) or f"{elapsed:.2f}s",
    )


def test_criterion_2_constraint_residual(demo):
    sys, data, ds, model = demo
    ok = (
        model.diagnostics.constraint_residual is not None
        and model.diagnostics.constraint_residual <= 1e-6
        and model.g[0].is_zero()
    )
    report(
        2,
        "largest coefficient of Lg c <= 1e-6 and reconstructed g1 is zero",
        ok,
        f"residual={model.diagnostics.constraint_residual:.2e}",
    )


def test_criterion_3_lie_chain(demo):
    sys, data, ds, model = demo
    chain = relative_degree(model.system())
    x1 = Expression.variable(0, 2)
    x2 = Expression.variable(1, 2)
    lf2 = chain.lf_powers[2] if len(chain.lf_powers) > 2 else Expression.zero(2)
    expected_lf2 = parse_expression("-x1 + 2*x2 - 2*x1^2*x2", 2)
    checks = {
        "Lf^0 c = x1": (chain.lf_powers[0] - x1).is_zero(0.05),
        "Lf^1 c = x2": (chain.lf_powers[1] - x2).is_zero(0.05),
        "Lf^2 c": (lf2 - expected_lf2).is_zero(0.1),
        "Lg Lf c = 1": chain.lg_mixed[1].is_constant()
        and abs(chain.lg_mixed[1].constant_value() - 1.0) <= 0.05,
        "r = 2": chain.relative_degree == 2,
    }
    report(
        3,
        "Lie chain of the identified model matches the demo chain",
        all(checks.values()),
        "; ".join(k for k, v in checks.items() if not v),
    )


def test_criterion_4_controller(demo):
    sys, data, ds, model = demo
    chain = relative_degree(model.system())
    spec = synthesize(chain, gains=[5.0, 4.0])
    beta = spec.beta.constant_value()
    cancel = (-1.0 / beta) * spec.alpha
    expected = parse_expression("x1 - 2*x2 + 2*x1^2*x2", 2)
    checks = {
        "cancellation terms": (cancel - expected).is_zero(0.1),
        "gain on (r - x1)": abs(spec.gains[0] / beta - 5.0) <= 0.1,
        "gain on (r' - x2)": abs(spec.gains[1] / beta - 4.0) <= 0.1,
        "gain on r''": abs(1.0 / beta - 1.0) <= 0.1,
    }
    pole_gains = gains_from_poles([-2.0, -6.0])
    checks["poles (-2,-6) -> gains [12, 8]"] = (
        abs(pole_gains[0] - 12.0) <= 1e-12 and abs(pole_gains[1] - 8.0) <= 1e-12
    )
    report(
        4,
        "synthesized law matches the demo controller term by term",
        all(checks.values()),
        "; ".join(k for k, v in checks.items() if not v),
    )


def test_criterion_5_stabilization(demo):
    sys, data, ds, model = demo
    spec = synthesize(relative_degree(model.system()), gains=[5.0, 4.0])
    t0 = time.perf_counter()
    traj = simulate_closed_loop(sys, spec, zero_reference(), [2.0, 0.0], 0.01, 1000)
    elapsed = time.perf_counter() - t0
    final_norm = float(np.linalg.norm(traj.X[-1]))
    max_u = float(np.max(np.abs(traj.U)))
    ok = final_norm <= 1e-2 and max_u <= 100.0 and elapsed <= 5.0
    report(
        5,
        "true plant stabilized by the identified controller from x0=[2,0]",
        ok,
        f"|x(10)|={final_norm:.2e}, max|u|={max_u:.2f}, {elapsed:.2f}s",
    )


def test_criterion_6_tracking(demo):
    sys, data, ds, model = demo
    spec = synthesize(relative_degree(model.system()), gains=[5.0, 4.0])
    ref = sinusoid_reference(1.0, 1.0, 0.0)
    traj = simulate_closed_loop(sys, spec, ref, [2.0, 0.0], 0.01, 2000)
    late = traj.times >= 5.0
    t = traj.times[late]
    out_err = float(np.max(np.abs(traj.Y[late] - np.sin(t))))
    state_err = float(
        np.max(np.abs(traj.X[late] - np.column_stack([np.sin(t), np.cos(t)])))
    )
    ok = out_err <= 0.05 and state_err <= 0.05
    report(
        6,
        "output tracks sin(t) and states converge to [sin t, cos t]",
        ok,
        f"max|y-r|={out_err:.2e}, max state err={state_err:.2e}",
    )


def test_criterion_7_least_squares_oracle():
    cfg = RegressionConfig(lam=0.0, constraint_mode="none")
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = Dataset(
            np.arange(20) * 0.01,
            rng.uniform(-2, 2, size=(20, 2)),
            rng.uniform(-2, 2, size=20),
            rng.uniform(-2, 2, size=20),
            Xdot=rng.uniform(-2, 2, size=(20, 2)),
        )
        ds = build_dictionaries(LibrarySpec(poly_order=1), d)
        model = solve(ds, d, cfg)
        theta = state_design(ds, d)
        for l in range(2):
            oracle = np.linalg.solve(theta.T @ theta, theta.T @ d.Xdot[:, l])
            got = np.concatenate([model.xi_tilde[:, l], model.xi_hat[:, l]])
            worst = max(
                worst,
                float(np.linalg.norm(got - oracle) / max(1.0, np.linalg.norm(oracle))),
            )
        phi = _values(ds, d)[1]
        zeta_oracle = np.linalg.solve(phi.T @ phi, phi.T @ d.Y)
        worst = max(
            worst,
            float(
                np.linalg.norm(model.zeta - zeta_oracle)
                / max(1.0, np.linalg.norm(zeta_oracle))
            ),
        )
    report(
        7,
        "lambda=0 unconstrained solve equals the normal-equations oracle",
        worst <= 1e-8,
        f"worst rel diff {worst:.2e} over 20 seeds",
    )


def test_criterion_8_symbolic_calculus():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        e = make_random_expression(rng, n_states=2, max_degree=4, max_trig_freq=2)
        i = int(rng.integers(0, 2))
        d = e.partial(i)
        for _ in range(10):
            p = rng.uniform(-2.0, 2.0, size=2)
            h = 1e-5
            hi, lo = p.copy(), p.copy()
            hi[i] += h
            lo[i] -= h
            fd = (e.evaluate(hi) - e.evaluate(lo)) / (2 * h)
            exact = d.evaluate(p)
            worst = max(worst, abs(exact - fd) / (1.0 + abs(exact)))
    fd_ok = worst <= 1e-6

    # the constraint's rows equal the direct Lie route: at dense random
    # coefficients, the state rows applied to [xi_tilde_j; xi_hat_j] and the
    # output rows applied to zeta each give, level by level, the term
    # coefficients of Lg Lf^k c on the reconstructed model; the rows are in
    # canonical term order, so they match term by term. Checked for r = 2
    # (Van der Pol) and r = 3 (chain)
    routes_ok = True
    cases = (
        (vdp_system(1, 1, 1), [2.0, 0.0], LibrarySpec(), 2),
        (chain_integrator_system(3), [0.5, 0.0, 0.0], LibrarySpec(poly_order=2, output_poly_order=3), 3),
    )

    def combine(coeffs, entries):
        return sum((float(w) * e for w, e in zip(coeffs, entries)), Expression.zero(entries[0].n_states))

    for sys, x0, spec, r in cases:
        d = integrate(sys, x0, default_excitation(), 0.01, 99)
        ds = build_dictionaries(spec, d)
        xi_tilde = rng.uniform(-1.0, 1.0, size=(ds.p_x, sys.n))
        xi_hat = rng.uniform(-1.0, 1.0, size=(ds.p_u, sys.n))
        zeta = rng.uniform(-1.0, 1.0, size=ds.p_y)
        model = ControlAffineSystem(
            f=[combine(xi_tilde[:, j], ds.theta_f_entries) for j in range(sys.n)],
            g=[combine(xi_hat[:, j], ds.theta_f_entries) for j in range(sys.n)],
            c=combine(zeta, ds.phi_entries),
            n=sys.n,
        )
        gc = GeneralConstraint(ds, r)
        states, C = gc.state_rows(zeta, _Fields(ds, xi_tilde, xi_hat))
        W = np.vstack([xi_tilde, xi_hat])
        by_state = C @ np.concatenate([W[:, j] for j in states])
        by_output = gc.zeta_rows(_Fields(ds, xi_tilde, xi_hat)) @ zeta
        expected, lf_c = [], model.c
        for k in range(r - 1):
            expected += [t.coefficient for t in lie_derivative(lf_c, model.g).terms]
            lf_c = lie_derivative(lf_c, model.f)
        for got in (by_state, by_output):
            routes_ok = routes_ok and got.shape == (len(expected),)
            routes_ok = routes_ok and bool(np.allclose(got, expected, rtol=1e-9, atol=1e-12))
        routes_ok = routes_ok and min(map(abs, expected)) > 1e-6

    report(
        8,
        "randomized partials match finite differences; constraint chain equals direct Lie route",
        fd_ok and routes_ok,
        f"worst FD rel err {worst:.2e}",
    )


def test_criterion_9_generalized_constraint_r3():
    sys = chain_integrator_system(3)
    d = integrate(sys, [0.5, 0.0, 0.0], default_excitation(), 0.01, 199)
    ds = build_dictionaries(LibrarySpec(poly_order=2, output_poly_order=3), d)
    model = solve(ds, d, RegressionConfig(relative_degree=3))
    labels = ds.labels_f()
    support_ok = (
        set(np.flatnonzero(model.xi_tilde[:, 0])) == {labels.index("x2")}
        and set(np.flatnonzero(model.xi_tilde[:, 1])) == {labels.index("x3")}
        and np.count_nonzero(model.xi_tilde[:, 2]) == 0
        and set(np.flatnonzero(model.xi_hat[:, 2])) == {ds.labels_g().index("u")}
        and np.count_nonzero(model.xi_hat[:, :2]) == 0
    )
    chain = relative_degree(model.system())
    lie_ok = (
        chain.lg_mixed[0].is_zero(1e-6)
        and chain.lg_mixed[1].is_zero(1e-6)
        and chain.lg_mixed[2].is_constant()
        and abs(chain.lg_mixed[2].constant_value() - 1.0) <= 0.05
        and chain.relative_degree == 3
    )
    report(
        9,
        "r=3 chain-integrator identification certifies the full Lie chain",
        support_ok and lie_ok,
        f"constraint residual {model.diagnostics.constraint_residual:.2e}",
    )


def test_criterion_10_integrator_order():
    decay = ControlAffineSystem(
        f=(-Expression.variable(0, 1),),
        g=(Expression.zero(1),),
        c=Expression.variable(0, 1),
        n=1,
    )

    def err(dt, steps):
        traj = integrate(decay, [1.0], lambda t, x: 0.0, dt, steps)
        return abs(traj.X[-1, 0] - math.exp(-1.0))

    e1, e2 = err(0.01, 100), err(0.005, 200)
    ok = e1 <= 1e-6 and e1 / e2 >= 12.0
    report(
        10,
        "RK4 hits exp(-1) to 1e-6 at dt=0.01 and shows 4th-order convergence",
        ok,
        f"err={e1:.2e}, ratio={e1 / e2:.1f}",
    )


def beta_plant(n: int) -> ControlAffineSystem:
    """A strict-feedback plant with y = x1, r = n and a state-dependent beta = Lg Lf^(n-1) c."""
    if n == 2:
        f = ("x2", "-x1 - x2 - 0.3*x1^3 + 0.2*sin(x1)")
        g = ("0", "2 + cos(x1)")
    else:
        f = ("x2 + 0.3*sin(x1)", "x3 + 0.2*x1*x2", "-x1 - x2 - x3 + 0.1*x1^3")
        g = ("0", "0", "1.5 + 0.5*cos(x1)")
    return ControlAffineSystem(
        f=tuple(parse_expression(e, n) for e in f),
        g=tuple(parse_expression(e, n) for e in g),
        c=Expression.variable(0, n),
        n=n,
    )


@pytest.mark.parametrize(
    "n, spec, controller",
    [
        (2, LibrarySpec(trig_orders=(1,)), {"gains": [5.0, 4.0]}),
        (3, LibrarySpec(trig_orders=(1,), output_poly_order=2), {"poles": [-1.0, -2.0, -3.0]}),
    ],
    ids=["n2", "n3"],
)
def test_state_dependent_beta_end_to_end(n, spec, controller):
    # identification at m = 1000 recovers the exact support, certifies r = n,
    # and the controller built from the identified chain stabilizes the true
    # plant, whose input gain beta(x) is not constant
    sys = beta_plant(n)
    x0 = [0.5] + [0.0] * (n - 1)
    d = integrate(sys, x0, default_excitation(), 0.01, 999)
    ds = build_dictionaries(spec, d)
    model = solve(ds, d, RegressionConfig(relative_degree=n))

    def support(e):
        return {t.signature for t in e.terms}

    fields = [(model.f[l], sys.f[l]) for l in range(n)] + [(model.g[l], sys.g[l]) for l in range(n)]
    error = max((got - true).max_abs_coefficient() for got, true in fields)
    assert all(support(got) == support(true) for got, true in fields) and model.c == sys.c
    assert error <= 1e-6
    chain = relative_degree(model.system())
    assert chain.relative_degree == n
    assert not chain.lg_mixed[n - 1].is_constant()
    law = synthesize(chain, **controller)
    traj = simulate_closed_loop(sys, law, zero_reference(), x0, 0.01, 1000)
    print(f"n={n}: coefficient error {error:.1e}, |x(10)| = {np.linalg.norm(traj.X[-1]):.1e}")
    assert np.linalg.norm(traj.X[-1]) <= 1e-2
