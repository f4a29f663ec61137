"""Stacked sparse regression with the relative-degree constraint.

The joint problem couples the state regressions ``Xdot = [ThetaF ThetaG] W``
with the output regression ``Y = Phi zeta`` and enforces that the
reconstructed model has the requested relative degree r: the mixed Lie
derivatives Lg Lf^k c (k = 0..r-2) of the reconstructed (c, f, g) must
vanish at every sample. One chain constraint, :class:`GeneralConstraint`,
builds these rows for every r >= 2, one per sample and level. At r = 2 it
is the bilinear condition (dc/dx_k)(x_i) * g_k(x_i) u_i = 0.

Sparsity is produced by sequential thresholded least squares: alternate an
exact least-squares solve with hard-thresholding of coefficients below the
threshold, shrinking the active set until it stabilizes. Constrained steps
replace the plain solve with an exact equality-constrained solve by
null-space elimination. The constraint is multilinear in the coefficient
blocks, so fixing all blocks but one keeps each step a convex problem; the
solver alternates between the input-channel (state) step and the output
step.

The state step jointly solves only the coupled states: those whose
input-channel columns in the current constraint rows are not all zero.
Every other state keeps its unconstrained initialization, which is what
the block-diagonal joint solve would give it. At r = 2 with c = c(x_k)
only state k is coupled; when no state is (a constant output, c = 1) the
state step is skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from functools import reduce

import numpy as np

from .data import Dataset
from .dictionary import DictionarySet, check_fields, integer
from .dynamics import ControlAffineSystem
from .lie import lie_derivative
from .symexpr import Expression, evaluate_columns, format_expression, format_terms, parse_expression

__all__ = [
    "RegressionConfig",
    "RegressionError",
    "InfeasibleSparsityError",
    "Diagnostics",
    "SparseModel",
    "threshold_pass",
    "GeneralConstraint",
    "solve",
    "coefficient_table",
    "format_coefficient_table",
    "discovered_equations",
    "model_to_dict",
    "system_from_dict",
]


class RegressionError(RuntimeError):
    """Identification failed; carries the diagnostics collected so far."""

    def __init__(self, message: str, diagnostics: "Diagnostics | None" = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InfeasibleSparsityError(RegressionError):
    """Thresholding removed every candidate; the threshold is too large."""


@dataclass(frozen=True)
class RegressionConfig:
    """Sparse-regression knobs: the config's ``regression`` keys, ``lam`` spelled ``lambda``."""

    lam: float = 0.05
    max_outer_iters: int = 25
    max_alt_iters: int = 30
    constraint_tol: float = 1e-6
    coef_tol: float = 1e-10
    constraint_mode: str = "per_sample"  # per_sample | none
    relative_degree: int = 2

    def __post_init__(self) -> None:
        check_fields(self)  # NaN passes every ordered comparison below
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.constraint_tol <= 0 or self.coef_tol <= 0:
            raise ValueError("tolerances must be positive")
        for name in ("max_outer_iters", "max_alt_iters", "relative_degree"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.constraint_mode not in ("per_sample", "none"):
            raise ValueError(f"unknown constraint_mode {self.constraint_mode!r}")

    @property
    def constraint_enabled(self) -> bool:
        return self.constraint_mode != "none" and self.relative_degree >= 2


@dataclass
class Diagnostics:
    """Solution-quality record attached to every SparseModel."""

    state_residuals: tuple[float, ...] = ()
    output_residual: float = 0.0
    constraint_residual: float | None = None
    active_counts: dict = field(default_factory=dict)
    alt_iterations: int = 0
    stls_iterations: int = 0
    converged: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class SparseModel:
    """Identified coefficients plus the reconstructed symbolic model."""

    xi_tilde: np.ndarray  # p_x x n
    xi_hat: np.ndarray  # p_u x n
    zeta: np.ndarray  # p_y
    f: tuple[Expression, ...]
    g: tuple[Expression, ...]
    c: Expression
    diagnostics: Diagnostics
    dictionaries: DictionarySet

    @property
    def n(self) -> int:
        return len(self.f)

    def system(self) -> ControlAffineSystem:
        return ControlAffineSystem(f=self.f, g=self.g, c=self.c, n=self.n)


def threshold_pass(coeffs: np.ndarray, lam: float) -> np.ndarray:
    """``coeffs`` with every entry of magnitude below ``lam``, and every -0.0, set to +0.0.

    The nonzero entries of the result are the active set.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and non-negative")
    values = np.array(coeffs, dtype=float)
    if lam > 0:
        values[~(np.abs(values) >= lam)] = 0.0
    values[values == 0.0] = 0.0  # a -0.0 becomes +0.0
    return values


# -- linear-algebra kernels ----------------------------------------------------


def _null_space(C: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of C (columns)."""
    if C.size == 0:
        return np.eye(C.shape[1])
    # C = QR with R at most p x p: C and R share the null space and the
    # singular values, so the SVD never sees the m sample rows. The rank
    # tolerance keeps the shape of C.
    r = np.linalg.qr(C, mode="r")
    s, vt = np.linalg.svd(r, full_matrices=True)[1:]
    tol = max(C.shape) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def _lstsq(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(A, z, rcond=None)[0]


def _constrained_solve(A: np.ndarray, z: np.ndarray, C: np.ndarray | None) -> np.ndarray:
    """min ||A w - z|| subject to C w = 0, by elimination on the null space of C."""
    if C is None or C.shape[0] == 0:
        return _lstsq(A, z)
    N = _null_space(C)
    if N.shape[1] == 0:
        return np.zeros(A.shape[1])
    return N @ _lstsq(A @ N, z)


def _stls(
    A: np.ndarray,
    z: np.ndarray,
    lam: float,
    max_iter: int,
    constraint: np.ndarray | None = None,
    column_scale: np.ndarray | None = None,
    what: str = "coefficients",
) -> tuple[np.ndarray, int]:
    """Sequential thresholded least squares with optional equality constraint.

    Solves on the current active columns, thresholds in raw units, and
    repeats until the active set stabilizes. ``column_scale`` (if given)
    conditions each solve by unit-normalizing columns; coefficients are
    always returned and thresholded in raw units. Returns the coefficients
    and the number of sweeps.
    """
    p = A.shape[1]
    active = np.ones(p, dtype=bool)
    for sweep in range(1, max_iter + 1):
        # basic slicing on an all-active sweep: views, no boolean-mask gather
        cols = slice(None) if active.all() else active
        A_act = A[:, cols]
        scale = None
        if column_scale is not None:
            scale = column_scale[cols]
            A_act = A_act / scale
        C_act = constraint[:, cols] if constraint is not None else None
        if C_act is not None and scale is not None:
            C_act = C_act / scale
        w_act = _constrained_solve(A_act, z, C_act)
        if scale is not None:
            w_act = w_act / scale
        w = np.zeros(p)
        w[cols] = w_act
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
    raise RegressionError(
        f"thresholding did not stabilize for {what} after {max_iter} sweeps"
    )


# -- relative-degree chain constraint ---------------------------------------------


def _sum_terms(terms: list[np.ndarray], shape) -> np.ndarray:
    """Left-to-right sum of ``terms``; a lone term is not added to zero."""
    return reduce(np.add, terms) if terms else np.zeros(shape)


def _combine(coeffs: np.ndarray, entries, n_states: int) -> Expression:
    """sum_b coeffs[b] * entries[b] over the nonzero coefficients, in entry order."""
    total = Expression.zero(n_states)
    for w, entry in zip(coeffs, entries):
        if w != 0.0:
            total = total + float(w) * entry
    return total


class GeneralConstraint:
    """Relative-degree chain constraints Lg Lf^k c = 0, k = 0..r-2, on data.

    Level k at sample i reads sum_j d_j(Lf^k c)(x_i) * (Tg @ xi_hat)[i, j],
    where column j of ``Tg @ xi_hat`` is g_j(x_i) u_i. Lf is linear, so
    d_j(Lf^k c) = sum_a zeta_a d_j(Lf^k phi_a): the gradients of the
    output-library entries' chains depend on xi_tilde alone, and the rows
    are linear in the block each alternation step solves for: the
    input-channel coefficients with (zeta, xi_tilde) frozen, the output
    coefficients with (xi_tilde, xi_hat) frozen.

    There is one row per sample and level. The level-0 gradients do not
    depend on the coefficients and are evaluated here; the drift fields
    enter only for r > 2, and the higher levels are re-evaluated only when
    xi_tilde changes.
    """

    def __init__(self, ds: DictionarySet, d: Dataset, r: int):
        n = d.n
        if r < 2:
            raise ValueError("the chain constraint needs relative_degree >= 2")
        if r > n:
            raise ValueError(f"relative_degree {r} exceeds the state dimension {n}")
        self.ds = ds
        self.d = d
        self.r = r
        self.n = n
        self.tg = np.asarray(ds.theta_g)
        self._has_input = self.tg.any(axis=1)
        # per chain level k: {state j: d_j(Lf^k phi_a) at every sample, m x p_y}
        self._levels = self._partials([list(ds.phi_entries)])
        self._levels_key = None

    def _partials(self, rows: list[list[Expression]]) -> list[dict[int, np.ndarray]]:
        """Per list of expressions, {state j: m x len(list) values of d_j e}.

        Only the states some expression of the list depends on appear. One
        evaluation pass serves every list, so they share atom columns.
        """
        keys, parts = [], []
        for k, row in enumerate(rows):
            for j in range(self.n):
                dj = [e.partial(j) for e in row]
                if not all(p.is_zero() for p in dj):
                    keys.append((k, j, len(parts), len(dj)))
                    parts.extend(dj)
        values = evaluate_columns(parts, self.d.X)
        out: list[dict[int, np.ndarray]] = [{} for _ in rows]
        for k, j, start, width in keys:
            out[k][j] = values[:, start : start + width]
        return out

    def _entry_levels(self, xi_tilde: np.ndarray) -> list[dict[int, np.ndarray]]:
        """The per-level gradient blocks of the output library along f(xi_tilde)."""
        if self.r > 2 and xi_tilde.tobytes() != self._levels_key:
            f = [_combine(xi_tilde[:, j], self.ds.theta_f_entries, self.n) for j in range(self.n)]
            chain = [list(self.ds.phi_entries)]
            for _ in range(self.r - 2):
                chain.append([lie_derivative(e, f) for e in chain[-1]])
            self._levels = self._levels[:1] + self._partials(chain[1:])
            self._levels_key = xi_tilde.tobytes()
        return self._levels

    def state_rows(self, zeta: np.ndarray, xi_tilde: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Constraint rows over the coupled states' [xi_tilde_j; xi_hat_j] blocks.

        A state is coupled when its input-channel columns are not all zero.
        Returns the coupled states in order and the rows, one block of
        p_x + p_u columns per coupled state, drift columns zero, and
        (r-1)*m rows.
        """
        levels = self._entry_levels(xi_tilde)
        m, p_x, p_u = self.d.m, self.ds.p_x, self.ds.p_u
        # per level and state: the sample weights d_j(Lf^k c)(x_i)
        parts = [{j: G @ zeta for j, G in level.items()} for level in levels]
        coupled = [
            j for j in range(self.n)
            if any(j in part and part[j][self._has_input].any() for part in parts)
        ]
        block = p_x + p_u
        C = np.zeros((len(parts) * m, len(coupled) * block))
        for s, j in enumerate(coupled):
            for k, part in enumerate(parts):
                if j in part:
                    rows = C[k * m : (k + 1) * m, s * block + p_x : (s + 1) * block]
                    np.multiply(part[j][:, None], self.tg, out=rows)
        return coupled, C

    def zeta_rows(self, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
        """Constraint rows over the output coefficients: (r-1)*m x p_y."""
        levels = self._entry_levels(xi_tilde)
        g = {j: self.tg @ xi_hat[:, j] for j in range(self.n)}
        return np.vstack([
            _sum_terms([g[j][:, None] * G for j, G in level.items()], (self.d.m, self.ds.p_y))
            for level in levels
        ])

    def residuals(self, zeta: np.ndarray, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
        """Residual of every chain level at every sample: (r-1) x m."""
        levels = self._entry_levels(xi_tilde)
        g = {j: self.tg @ xi_hat[:, j] for j in range(self.n)}
        return np.array([
            _sum_terms([(G @ zeta) * g[j] for j, G in level.items()], self.d.m)
            for level in levels
        ])


# -- main solver ----------------------------------------------------------------


def _reconstruct(
    ds: DictionarySet, xi_tilde: np.ndarray, xi_hat: np.ndarray, zeta: np.ndarray
) -> tuple[tuple[Expression, ...], tuple[Expression, ...], Expression]:
    # input column k is drift entry k times u, so g combines the drift entries
    n = ds.n_states
    f, g = (
        tuple(_combine(xi[:, l], ds.theta_f_entries, n) for l in range(xi.shape[1]))
        for xi in (xi_tilde, xi_hat)
    )
    return f, g, _combine(zeta, ds.phi_entries, n)


def solve(ds: DictionarySet, d: Dataset, cfg: RegressionConfig) -> SparseModel:
    """Run the joint sparse regression and reconstruct the symbolic model.

    The coefficients live in one (p_x + p_u) x n array W whose column l is
    [xi_tilde_l; xi_hat_l]. Output and state coefficients are initialized by
    unconstrained sequential thresholded least squares; when the
    relative-degree constraint is enabled the solver then alternates
    constrained steps (each linear in its block) until the coefficients stop
    moving, and the output coefficients are rescaled so their largest entry
    is exactly 1 (the constraint only pins the zeta/xi_hat product up to a
    common factor). The :class:`Diagnostics` record is built once, after
    the solve. A run that did not converge, an all-zero output, or a
    constraint residual above ``constraint_tol`` at some sample raises
    :class:`RegressionError` carrying that full record.
    """
    if d.Xdot is None:
        raise RegressionError("dataset has no derivatives; estimate or measure Xdot first")
    gc = None
    if cfg.constraint_enabled:
        try:  # before any STLS: a relative degree above n fails fast
            gc = GeneralConstraint(ds, d, cfg.relative_degree)
        except ValueError as exc:
            raise RegressionError(str(exc)) from None
    n, p_x = d.n, ds.p_x
    theta = ds.theta
    notes: list[str] = []
    sweeps = 0

    def unit_scale(a):
        """Column norms that condition each solve (1 for a zero column)."""
        if not ds.spec.normalize_columns:
            return None
        scale = np.linalg.norm(a, axis=0)
        scale[scale == 0.0] = 1.0
        return scale

    col_scale, phi_scale = unit_scale(theta), unit_scale(ds.phi)

    def stls(a, z, scale, constraint, what):
        nonlocal sweeps
        w, k = _stls(a, z, cfg.lam, cfg.max_outer_iters, constraint, scale, what)
        sweeps += k
        return w

    joint: dict[tuple[int, ...], tuple] = {}

    def states_stls(W, states, constraint):
        """STLS of the given states' equations as one block-diagonal system into W[:, states]."""
        key = tuple(states)
        if key not in joint:
            joint[key] = (
                np.kron(np.eye(len(states)), theta) if len(states) > 1 else theta,
                np.concatenate([d.Xdot[:, j] for j in states]),
                None if col_scale is None else np.tile(col_scale, len(states)),
            )
        a, z, scale = joint[key]
        what = "state equation " + ", ".join(f"dx{j + 1}/dt" for j in states)
        W[:, states] = stls(a, z, scale, constraint, what).reshape(len(states), -1).T

    # unconstrained initialization
    zeta = stls(ds.phi, d.Y, phi_scale, None, "the output equation")
    W_init = np.empty((theta.shape[1], n))
    for l in range(n):
        states_stls(W_init, [l], None)
    W = W_init
    alt_iters = 0
    converged = True

    if gc is not None:
        if np.max(np.abs(d.U)) == 0.0:
            warnings.warn(
                "input is identically zero; the relative-degree constraint is vacuous",
                stacklevel=2,
            )
        for alt_iters in range(1, cfg.max_alt_iters + 1):
            W_prev, zeta_prev = W, zeta
            # state step: the coupled states jointly, chain frozen at the
            # current (zeta, xi_tilde); the others keep their initialization
            states, C = gc.state_rows(zeta, W_prev[:p_x])
            W = W_init.copy()
            if states:
                states_stls(W, states, C)
            C = gc.zeta_rows(W[:p_x], W[p_x:])
            zeta = stls(ds.phi, d.Y, phi_scale, C, "the output equation")
            if max(np.max(np.abs(W - W_prev)), np.max(np.abs(zeta - zeta_prev))) < cfg.coef_tol:
                break
        else:
            converged = False
            notes.append("coefficients still moving at max_alt_iters")
    xi_tilde, xi_hat = W[:p_x], W[p_x:]

    # guard: an all-zero input channel makes every mixed Lie derivative vanish
    # and no feedback-linearizing law exists; keep the strongest candidate.
    if np.max(np.abs(xi_hat), initial=0.0) == 0.0 and np.max(np.abs(d.U)) > 0.0:
        raw = np.column_stack(
            [_lstsq(theta, d.Xdot[:, l])[p_x:] for l in range(n)]
        )
        idx = np.unravel_index(np.argmax(np.abs(raw)), raw.shape)
        if raw[idx] != 0.0:
            xi_hat[idx] = raw[idx]
            notes.append(
                "thresholding emptied the input-channel block; kept the "
                f"largest candidate ({raw[idx]:.3g}) to preserve invertibility"
            )

    # fix the output scale: the constraint couples zeta and xi_hat only up
    # to a common factor, so pin the largest output coefficient to 1.
    pivot = zeta[np.argmax(np.abs(zeta))] if gc is not None else 1.0
    if pivot != 0.0 and pivot != 1.0:
        zeta = zeta / pivot
        if abs(pivot - 1.0) > 1e-9:
            notes.append(f"output coefficients rescaled by 1/{pivot:.6g}")

    diagnostics = Diagnostics(
        state_residuals=tuple(
            float(np.linalg.norm(theta @ W[:, l] - d.Xdot[:, l])) for l in range(n)
        ),
        output_residual=float(np.linalg.norm(ds.phi @ zeta - d.Y)),
        constraint_residual=None if gc is None else float(
            np.max(np.abs(gc.residuals(zeta, xi_tilde, xi_hat)), initial=0.0)
        ),
        active_counts={
            "xi_tilde": np.count_nonzero(xi_tilde, axis=0).tolist(),
            "xi_hat": np.count_nonzero(xi_hat, axis=0).tolist(),
            "zeta": int(np.count_nonzero(zeta)),
        },
        alt_iterations=alt_iters,
        stls_iterations=sweeps,
        converged=converged,
        notes=tuple(notes),
    )
    if not converged:
        raise RegressionError(
            f"alternating solver did not converge in {cfg.max_alt_iters} iterations",
            diagnostics,
        )
    if pivot == 0.0:
        raise InfeasibleSparsityError("output coefficients are all zero; lower lambda", diagnostics)
    if gc is not None and diagnostics.constraint_residual > cfg.constraint_tol:
        raise RegressionError(
            f"constraint residual {diagnostics.constraint_residual:.3g} exceeds tolerance "
            f"{cfg.constraint_tol:.3g}",
            diagnostics,
        )

    f, g, c = _reconstruct(ds, xi_tilde, xi_hat, zeta)
    return SparseModel(
        xi_tilde=xi_tilde,
        xi_hat=xi_hat,
        zeta=zeta,
        f=f,
        g=g,
        c=c,
        diagnostics=diagnostics,
        dictionaries=ds,
    )


# -- reporting & serialization ---------------------------------------------------


def coefficient_table(model: SparseModel) -> tuple[list[str], list[list[float]], list[str]]:
    """Coefficient table: one row per library entry, one column per block.

    Returns (row_labels, rows, column_labels) where the columns are
    xi_tilde_l and xi_hat_l for each state l, then zeta. Input-channel
    coefficients appear on the row of their u-free base entry; output
    coefficients on the matching output-library row.
    """
    ds = model.dictionaries
    n = model.n
    base_labels = ds.labels_f()
    label_index = {lab: i for i, lab in enumerate(base_labels)}
    row_labels = list(base_labels)
    phi_labels = ds.labels_phi()
    for lab in phi_labels:
        if lab not in label_index:
            label_index[lab] = len(row_labels)
            row_labels.append(lab)

    columns = []
    for l in range(n):
        columns.append(f"xi_tilde_{l + 1}")
        columns.append(f"xi_hat_{l + 1}")
    columns.append("zeta")

    rows = [[0.0] * len(columns) for _ in row_labels]
    for l in range(n):
        for j, lab in enumerate(base_labels):
            rows[label_index[lab]][2 * l] = float(model.xi_tilde[j, l])
            rows[label_index[lab]][2 * l + 1] = float(model.xi_hat[j, l])
    for a, lab in enumerate(phi_labels):
        rows[label_index[lab]][-1] = float(model.zeta[a])
    return row_labels, rows, columns


def format_coefficient_table(model: SparseModel, digits: int = 4) -> str:
    """Aligned text rendering of :func:`coefficient_table`."""
    labels, rows, columns = coefficient_table(model)
    width = max(len(lab) for lab in labels + ["entry"]) + 2
    col_w = max(max(len(c) for c in columns), digits + 7) + 2
    lines = ["entry".ljust(width) + "".join(c.rjust(col_w) for c in columns)]
    for lab, row in zip(labels, rows):
        cells = "".join(format(v, f".{digits}g").rjust(col_w) for v in row)
        lines.append(lab.ljust(width) + cells)
    return "\n".join(lines)


def discovered_equations(model: SparseModel, digits: int | None = 4) -> list[str]:
    """Human-readable model equations after thresholding."""
    lines = []
    for l in range(model.n):
        terms = [(t, ()) for t in model.f[l].terms] + [(t, ("u",)) for t in model.g[l].terms]
        lines.append(f"dx{l + 1}/dt = {format_terms(terms, digits)}")
    lines.append(f"y = {format_expression(model.c, digits=digits)}")
    return lines


def model_to_dict(model: SparseModel) -> dict:
    """JSON-ready form: entries as expression strings, coefficient arrays.

    :func:`system_from_dict` reads back ``n_states``, ``f``, ``g`` and ``c``; the
    other keys are for reports.
    """
    ds = model.dictionaries
    return {
        "n_states": model.c.n_states,
        "xi_tilde": model.xi_tilde.tolist(),
        "xi_hat": model.xi_hat.tolist(),
        "zeta": model.zeta.tolist(),
        "f": [str(e) for e in model.f],
        "g": [str(e) for e in model.g],
        "c": str(model.c),
        "diagnostics": model.diagnostics.to_dict(),
        "theta_f_entries": ds.labels_f(),
        "theta_g_entries": ds.labels_g(),
        "phi_entries": ds.labels_phi(),
        "library": asdict(ds.spec),
    }


def system_from_dict(payload: dict) -> ControlAffineSystem:
    """The identified plant of a :func:`model_to_dict` payload."""
    n = integer(payload["n_states"], "n_states")
    return ControlAffineSystem(
        f=tuple(parse_expression(s, n) for s in payload["f"]),
        g=tuple(parse_expression(s, n) for s in payload["g"]),
        c=parse_expression(payload["c"], n),
        n=n,
    )
