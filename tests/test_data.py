"""Dataset container, CSV schema, and finite-difference derivative estimation."""

from __future__ import annotations

import numpy as np
import pytest

from sparsefl.data import Dataset, DatasetError, estimate_derivatives, load_csv, save_csv


def make_dataset(m=100, n=2, dt=0.01, with_xdot=False, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(m) * dt
    X = rng.normal(size=(m, n))
    U = rng.normal(size=m)
    Y = X[:, 0]
    Xdot = rng.normal(size=(m, n)) if with_xdot else None
    return Dataset(times, X, U, Y, Xdot=Xdot)


# -- container invariants ----------------------------------------------------------


def test_requires_two_samples():
    with pytest.raises(DatasetError, match="m < 2"):
        Dataset(np.array([0.0]), np.zeros((1, 2)), np.zeros(1), np.zeros(1))


def test_rejects_non_increasing_times():
    times = np.array([0.0, 0.01, 0.01, 0.02])
    with pytest.raises(DatasetError, match="non-increasing"):
        Dataset(times, np.zeros((4, 2)), np.zeros(4), np.zeros(4))


def test_rejects_non_uniform_grid():
    times = np.array([0.0, 0.01, 0.03, 0.04])
    with pytest.raises(DatasetError, match="non-uniform"):
        Dataset(times, np.zeros((4, 2)), np.zeros(4), np.zeros(4))


def test_rejects_non_finite():
    X = np.zeros((3, 2))
    X[1, 1] = np.nan
    with pytest.raises(DatasetError, match="non-finite"):
        Dataset(np.arange(3) * 0.1, X, np.zeros(3), np.zeros(3))


def test_arrays_are_read_only():
    d = make_dataset()
    with pytest.raises(ValueError):
        d.X[0, 0] = 1.0


# -- CSV round trip -----------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    d = make_dataset(m=100, n=2)
    path = tmp_path / "data.csv"
    save_csv(d, path)
    loaded = load_csv(path)
    assert np.array_equal(loaded.times, d.times)
    assert np.array_equal(loaded.X, d.X)
    assert np.array_equal(loaded.U, d.U)
    assert np.array_equal(loaded.Y, d.Y)
    assert loaded.Xdot is None


def test_csv_round_trip_with_xdot(tmp_path):
    d = make_dataset(m=20, n=3, with_xdot=True)
    path = tmp_path / "data.csv"
    save_csv(d, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,u,y,xdot1,xdot2,xdot3"
    loaded = load_csv(path)
    assert np.array_equal(loaded.Xdot, d.Xdot)


def test_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,y\n0.0,1,2,3\n0.01,1,2,3\n")
    with pytest.raises(DatasetError, match="missing column u"):
        load_csv(path)


def test_csv_duplicate_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,u,y\n0.0,1,2,0,1\n0.0,1,2,0,1\n")
    with pytest.raises(DatasetError, match="non-increasing"):
        load_csv(path)


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,u,y\n0.0,1,2,0,1\n0.01,1,2,0\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(path)


def test_csv_non_finite(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,u,y\n0.0,1,2,0,1\n0.01,inf,2,0,1\n")
    with pytest.raises(DatasetError, match="non-finite"):
        load_csv(path)


def test_csv_unexpected_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1,x2,u,y,extra\n0.0,1,2,0,1,9\n0.01,1,2,0,1,9\n")
    with pytest.raises(DatasetError, match="unexpected column"):
        load_csv(path)


@pytest.mark.parametrize(
    "header, repeated", [("t,x1,u,u,y", "u"), ("t,x1,u,y,y", "y"), ("t,t,x1,u,y", "t")]
)
def test_csv_repeated_column(tmp_path, header, repeated):
    # the first copy used to be taken and the other ignored
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n0.0,0.0,1,2,3\n0.01,0.01,1,2,3\n")
    with pytest.raises(DatasetError, match=f"repeated column '{repeated}'"):
        load_csv(path)


def test_csv_columns_mapped_by_name(tmp_path):
    path = tmp_path / "shuffled.csv"
    path.write_text("u,y,t,x2,x1\n5.0,1.0,0.0,2.0,1.0\n6.0,1.5,0.01,2.5,1.5\n")
    d = load_csv(path)
    assert d.X[0].tolist() == [1.0, 2.0]
    assert d.U.tolist() == [5.0, 6.0]


# -- derivative estimation ------------------------------------------------------------


def test_estimate_quadratic_is_machine_exact():
    # the three-point stencils are exact on polynomials of degree <= 2
    t = np.arange(200) * 0.01
    X = (t**2).reshape(-1, 1)
    d = Dataset(t, X, np.zeros_like(t), X[:, 0])
    est = estimate_derivatives(d)
    assert np.max(np.abs(est.Xdot[:, 0] - 2 * t)) <= 1e-6


def test_estimate_constant_trajectory_is_zero():
    t = np.arange(10) * 0.5
    X = np.full((10, 2), 3.7)
    d = Dataset(t, X, np.zeros(10), X[:, 0])
    est = estimate_derivatives(d)
    assert np.max(np.abs(est.Xdot)) == 0.0


def test_estimate_sine_accuracy():
    t = np.arange(300) * 0.01
    X = np.sin(t).reshape(-1, 1)
    d = Dataset(t, X, np.zeros_like(t), X[:, 0])
    est = estimate_derivatives(d)
    assert np.max(np.abs(est.Xdot[:, 0] - np.cos(t))) <= 1e-4


def test_estimate_second_order_convergence():
    def max_err(dt):
        t = np.arange(int(3.0 / dt) + 1) * dt
        X = np.sin(t).reshape(-1, 1)
        d = Dataset(t, X, np.zeros_like(t), X[:, 0])
        est = estimate_derivatives(d)
        return np.max(np.abs(est.Xdot[:, 0] - np.cos(t)))

    assert max_err(0.02) / max_err(0.01) >= 3.5


def test_estimate_requires_three_samples():
    d = make_dataset(m=2)
    with pytest.raises(DatasetError, match="at least 3"):
        estimate_derivatives(d)


def test_estimate_preserves_measured_derivatives():
    d = make_dataset(m=10, with_xdot=True)
    est = estimate_derivatives(d)
    assert est is d  # untouched
