"""Sampled trajectory data: container, CSV round-trip, derivative estimation.

A :class:`Dataset` holds uniformly sampled states ``X``, optional state
derivatives ``Xdot``, the scalar input ``U`` and the scalar output ``Y``.
The CSV schema is a header row ``t,x1,...,xn,u,y[,xdot1,...,xdotn]`` with
one sample per row, comma separators, and '.' decimal points.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Dataset", "DatasetError", "load_csv", "save_csv", "write_csv", "estimate_derivatives"]

_UNIFORM_REL_TOL = 1e-9


class DatasetError(ValueError):
    """Malformed trajectory data (schema, finiteness, or time-grid violations)."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Uniformly sampled trajectory of a single-input single-output system."""

    times: np.ndarray
    X: np.ndarray
    U: np.ndarray
    Y: np.ndarray
    Xdot: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = _as_readonly(self.times)
        X = _as_readonly(self.X)
        U = _as_readonly(self.U)
        Y = _as_readonly(self.Y)
        Xdot = None if self.Xdot is None else _as_readonly(self.Xdot)

        if times.ndim != 1 or X.ndim != 2 or U.ndim != 1 or Y.ndim != 1:
            raise DatasetError("times, U, Y must be 1-D and X must be 2-D")
        m = times.shape[0]
        if m < 2:
            raise DatasetError(f"m < 2: need at least two samples, got {m}")
        if X.shape[0] != m or U.shape[0] != m or Y.shape[0] != m:
            raise DatasetError("row-count mismatch between times, X, U, Y")
        if Xdot is not None and Xdot.shape != X.shape:
            raise DatasetError(f"Xdot shape {Xdot.shape} does not match X shape {X.shape}")

        for name, arr in (("times", times), ("X", X), ("U", U), ("Y", Y)):
            if not np.all(np.isfinite(arr)):
                raise DatasetError(f"non-finite values in {name}")
        if Xdot is not None and not np.all(np.isfinite(Xdot)):
            raise DatasetError("non-finite values in Xdot")

        diffs = np.diff(times)
        if np.any(diffs <= 0):
            raise DatasetError("non-increasing times")
        dt = float(np.median(diffs))
        if np.any(np.abs(diffs - dt) > _UNIFORM_REL_TOL * dt):
            raise DatasetError("non-uniform time grid")

        object.__setattr__(self, "times", times)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Xdot", Xdot)

    @property
    def m(self) -> int:
        return self.times.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    @property
    def dt(self) -> float:
        return float(np.median(np.diff(self.times)))

    def with_xdot(self, xdot: np.ndarray) -> "Dataset":
        return Dataset(self.times, self.X, self.U, self.Y, Xdot=xdot)


def _expected_header(n: int, with_xdot: bool) -> list[str]:
    cols = ["t"] + [f"x{i + 1}" for i in range(n)] + ["u", "y"]
    if with_xdot:
        cols += [f"xdot{i + 1}" for i in range(n)]
    return cols


def load_csv(path: str | Path) -> Dataset:
    """Load a Dataset from CSV, mapping columns by header name."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    for i, h in enumerate(header):
        if h in header[:i]:
            raise DatasetError(f"{path}: repeated column {h!r}")

    state_cols = sorted(
        int(m.group(1)) for h in header if (m := re.fullmatch(r"x(\d+)", h))
    )
    n = len(state_cols)
    if n == 0 or state_cols != list(range(1, n + 1)):
        raise DatasetError(f"{path}: state columns must be x1..xn, found {state_cols}")
    xdot_cols = sorted(
        int(m.group(1)) for h in header if (m := re.fullmatch(r"xdot(\d+)", h))
    )
    has_xdot = bool(xdot_cols)
    if has_xdot and xdot_cols != list(range(1, n + 1)):
        raise DatasetError(
            f"{path}: derivative columns must be xdot1..xdot{n}, found {xdot_cols}"
        )

    expected = _expected_header(n, has_xdot)
    for col in expected:
        if col not in header:
            raise DatasetError(f"{path}: missing column {col}")
    for col in header:
        if col not in expected:
            raise DatasetError(f"{path}: unexpected column {col!r}")

    index = {name: header.index(name) for name in expected}
    m = len(rows)
    values = np.empty((m, len(header)))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetError(
                f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}"
            )
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise DatasetError(f"{path}: row {i + 2}: bad number {cell!r}") from None
    if not np.all(np.isfinite(values)):
        raise DatasetError(f"{path}: non-finite values")

    times = values[:, index["t"]]
    X = np.column_stack([values[:, index[f"x{i + 1}"]] for i in range(n)])
    U = values[:, index["u"]]
    Y = values[:, index["y"]]
    Xdot = None
    if has_xdot:
        Xdot = np.column_stack([values[:, index[f"xdot{i + 1}"]] for i in range(n)])
    return Dataset(times, X, U, Y, Xdot=Xdot)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows; a number is written with repr, which reads back exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])


def save_csv(d: Dataset, path: str | Path) -> None:
    """Write a Dataset; loading the file back reproduces it exactly."""
    columns = [d.times, *d.X.T, d.U, d.Y] + ([] if d.Xdot is None else [*d.Xdot.T])
    write_csv(path, _expected_header(d.n, d.Xdot is not None), np.column_stack(columns).tolist())


def estimate_derivatives(d: Dataset) -> Dataset:
    """Fill ``Xdot`` with second-order finite differences.

    Interior points use central differences; both ends use one-sided
    three-point stencils of the same order. A Dataset that already carries
    measured derivatives is returned unchanged.
    """
    if d.Xdot is not None:
        return d
    if d.m < 3:
        raise DatasetError(f"need at least 3 samples to estimate derivatives, got {d.m}")
    dt = d.dt
    X = d.X
    xdot = np.empty_like(X)
    xdot[1:-1] = (X[2:] - X[:-2]) / (2.0 * dt)
    # one-sided stencils written as differences so constants map to exact zero
    xdot[0] = (4.0 * (X[1] - X[0]) - (X[2] - X[0])) / (2.0 * dt)
    xdot[-1] = (4.0 * (X[-1] - X[-2]) - (X[-1] - X[-3])) / (2.0 * dt)
    return d.with_xdot(xdot)
