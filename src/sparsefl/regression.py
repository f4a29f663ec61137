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
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .data import Dataset
from .dictionary import DictionarySet
from .dynamics import ControlAffineSystem
from .lie import lie_f
from .symexpr import Expression, evaluate_columns, format_expression, format_terms, parse_expression

__all__ = [
    "RegressionConfig",
    "RegressionError",
    "InfeasibleSparsityError",
    "Diagnostics",
    "SparseModel",
    "ThresholdResult",
    "threshold_pass",
    "GeneralConstraint",
    "solve",
    "coefficient_table",
    "format_coefficient_table",
    "discovered_equations",
    "model_to_dict",
    "model_from_dict",
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
    """Knobs for the joint sparse regression."""

    lam: float = 0.05
    max_outer_iters: int = 25
    max_alt_iters: int = 30
    constraint_tol: float = 1e-6
    coef_tol: float = 1e-10
    constraint_mode: str = "per_sample"  # per_sample | none
    relative_degree: int = 2

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, so finiteness comes first
        for name in ("lam", "constraint_tol", "coef_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        return {
            "state_residuals": list(self.state_residuals),
            "output_residual": self.output_residual,
            "constraint_residual": self.constraint_residual,
            "active_counts": self.active_counts,
            "alt_iterations": self.alt_iterations,
            "stls_iterations": self.stls_iterations,
            "converged": self.converged,
            "notes": list(self.notes),
        }


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
    dictionaries: DictionarySet | None = None

    @property
    def n(self) -> int:
        return len(self.f)

    def system(self) -> ControlAffineSystem:
        return ControlAffineSystem(f=self.f, g=self.g, c=self.c, n=self.n)


@dataclass(frozen=True)
class ThresholdResult:
    values: np.ndarray
    active: np.ndarray  # boolean mask
    infeasible: bool


def threshold_pass(coeffs: np.ndarray, lam: float) -> ThresholdResult:
    """Zero every entry with magnitude below ``lam``; report the active set."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError("lam must be finite and non-negative")
    values = np.array(coeffs, dtype=float)
    active = np.abs(values) >= lam if lam > 0 else np.ones_like(values, dtype=bool)
    active &= values != 0.0
    values[~active] = 0.0
    return ThresholdResult(values=values, active=active, infeasible=not active.any())


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


@dataclass
class _StlsInfo:
    iterations: int = 0


def _stls(
    A: np.ndarray,
    z: np.ndarray,
    lam: float,
    max_iter: int,
    constraint: np.ndarray | None = None,
    column_scale: np.ndarray | None = None,
    info: _StlsInfo | None = None,
    what: str = "coefficients",
) -> np.ndarray:
    """Sequential thresholded least squares with optional equality constraint.

    Solves on the current active columns, thresholds in raw units, and
    repeats until the active set stabilizes. ``column_scale`` (if given)
    conditions each solve by unit-normalizing columns; coefficients are
    always returned and thresholded in raw units.
    """
    p = A.shape[1]
    active = np.ones(p, dtype=bool)
    if info is None:
        info = _StlsInfo()
    for _ in range(max_iter):
        info.iterations += 1
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
        result = threshold_pass(w, lam)
        if result.infeasible:
            if np.max(np.abs(z), initial=0.0) <= 1e-12:
                return np.zeros(p)
            raise InfeasibleSparsityError(
                f"threshold {lam} removed every candidate for {what}; lower lambda"
            )
        if np.array_equal(result.active, active):
            return result.values
        active = result.active
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
            raise ValueError(f"relative_degree {r} exceeds state dimension {n}")
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
            n, zero = self.n, Expression.zero(self.n)
            f = [_combine(xi_tilde[:, j], self.ds.theta_f_entries, n) for j in range(n)]
            drift = ControlAffineSystem(f=f, g=[zero] * n, c=zero, n=n)
            chain = [list(self.ds.phi_entries)]
            for _ in range(self.r - 2):
                chain.append([lie_f(e, drift) for e in chain[-1]])
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

    Output and state coefficients are initialized by unconstrained
    sequential thresholded least squares; when the relative-degree
    constraint is enabled the solver then alternates constrained steps
    (each linear in its block) until the coefficients stop moving, the
    returned model satisfies the constraint to ``constraint_tol`` at every
    sample, and the output coefficients are rescaled so their
    largest entry is exactly 1 (the constraint only pins the zeta/xi_hat
    product up to a common factor).
    """
    if d.Xdot is None:
        raise RegressionError("dataset has no derivatives; estimate or measure Xdot first")
    n = d.n
    if cfg.constraint_enabled and cfg.relative_degree > n:
        raise RegressionError(
            f"relative_degree {cfg.relative_degree} exceeds the state dimension {n}"
        )
    p_x, p_u = ds.p_x, ds.p_u
    block = p_x + p_u
    theta = ds.theta
    notes: list[str] = []
    info = _StlsInfo()

    def unit_scale(a):
        """Column norms that condition each solve (1 for a zero column)."""
        if not ds.spec.normalize_columns:
            return None
        scale = np.linalg.norm(a, axis=0)
        scale[scale == 0.0] = 1.0
        return scale

    col_scale, phi_scale = unit_scale(theta), unit_scale(ds.phi)

    def zeta_stls(constraint=None):
        return _stls(
            ds.phi, d.Y, cfg.lam, cfg.max_outer_iters,
            constraint=constraint, column_scale=phi_scale, info=info, what="the output equation",
        )

    joint: dict[tuple[int, ...], tuple] = {}

    def states_stls(states, constraint):
        """STLS of the given states' equations as one block-diagonal system."""
        key = tuple(states)
        if key not in joint:
            joint[key] = (
                np.kron(np.eye(len(states)), theta) if len(states) > 1 else theta,
                np.concatenate([d.Xdot[:, j] for j in states]),
                None if col_scale is None else np.tile(col_scale, len(states)),
            )
        a, z, scale = joint[key]
        w = _stls(
            a, z, cfg.lam, cfg.max_outer_iters,
            constraint=constraint, column_scale=scale, info=info,
            what="state equation " + ", ".join(f"dx{j + 1}/dt" for j in states),
        )
        return [w[s * block : (s + 1) * block] for s in range(len(states))]

    # unconstrained initialization
    zeta = zeta_stls()
    W_init = [states_stls([l], None)[0] for l in range(n)]
    W = list(W_init)
    alt_iters = 0
    converged = True
    constraint_residual: float | None = None

    if cfg.constraint_enabled:
        converged = False
        if np.max(np.abs(d.U)) == 0.0:
            warnings.warn(
                "input is identically zero; the relative-degree constraint is vacuous",
                stacklevel=2,
            )
        gc = GeneralConstraint(ds, d, cfg.relative_degree)
        for alt_iters in range(1, cfg.max_alt_iters + 1):
            prev = np.concatenate([np.concatenate(W), zeta])
            # state step: the coupled states jointly, chain frozen at the
            # current (zeta, xi_tilde); the others keep their initialization
            states, C = gc.state_rows(zeta, np.column_stack([w[:p_x] for w in W]))
            W = list(W_init)
            if states:
                for j, w in zip(states, states_stls(states, C)):
                    W[j] = w
            xi_tilde = np.column_stack([w[:p_x] for w in W])
            xi_hat = np.column_stack([w[p_x:] for w in W])
            zeta = zeta_stls(constraint=gc.zeta_rows(xi_tilde, xi_hat))
            delta = np.max(np.abs(np.concatenate([np.concatenate(W), zeta]) - prev))
            if delta < cfg.coef_tol:
                converged = True
                break

    xi_tilde = np.column_stack([w[:p_x] for w in W])
    xi_hat = np.column_stack([w[p_x:] for w in W])

    # guard: an all-zero input channel makes every mixed Lie derivative vanish
    # and no feedback-linearizing law exists; keep the strongest candidate.
    if np.max(np.abs(xi_hat), initial=0.0) == 0.0 and np.max(np.abs(d.U)) > 0.0:
        raw = np.column_stack(
            [_lstsq(theta, d.Xdot[:, l])[p_x:] for l in range(n)]
        )
        idx = np.unravel_index(np.argmax(np.abs(raw)), raw.shape)
        if raw[idx] != 0.0:
            xi_hat[idx] = raw[idx]
            W[idx[1]][p_x + idx[0]] = raw[idx]
            notes.append(
                "thresholding emptied the input-channel block; kept the "
                f"largest candidate ({raw[idx]:.3g}) to preserve invertibility"
            )

    diagnostics = Diagnostics(
        alt_iterations=alt_iters,
        stls_iterations=info.iterations,
        converged=converged,
        notes=tuple(notes),
    )
    if cfg.constraint_enabled and not converged:
        diagnostics.notes += ("coefficients still moving at max_alt_iters",)
        raise RegressionError(
            f"alternating solver did not converge in {cfg.max_alt_iters} iterations",
            diagnostics,
        )

    # fix the output scale: the constraint couples zeta and xi_hat only up
    # to a common factor, so pin the largest output coefficient to 1.
    if cfg.constraint_enabled:
        idx = int(np.argmax(np.abs(zeta)))
        pivot = zeta[idx]
        if pivot == 0.0:
            raise InfeasibleSparsityError(
                "output coefficients are all zero; lower lambda", diagnostics
            )
        if pivot != 1.0:
            zeta = zeta / pivot
            if abs(pivot - 1.0) > 1e-9:
                notes.append(f"output coefficients rescaled by 1/{pivot:.6g}")

    # final diagnostics
    state_residuals = tuple(
        float(np.linalg.norm(theta @ W[l] - d.Xdot[:, l])) for l in range(n)
    )
    output_residual = float(np.linalg.norm(ds.phi @ zeta - d.Y))
    if cfg.constraint_enabled:
        res = gc.residuals(zeta, xi_tilde, xi_hat)
        constraint_residual = float(np.max(np.abs(res), initial=0.0))

    diagnostics = Diagnostics(
        state_residuals=state_residuals,
        output_residual=output_residual,
        constraint_residual=constraint_residual,
        active_counts={
            "xi_tilde": [int(np.count_nonzero(xi_tilde[:, l])) for l in range(n)],
            "xi_hat": [int(np.count_nonzero(xi_hat[:, l])) for l in range(n)],
            "zeta": int(np.count_nonzero(zeta)),
        },
        alt_iterations=alt_iters,
        stls_iterations=info.iterations,
        converged=converged,
        notes=tuple(notes),
    )

    if (
        cfg.constraint_enabled
        and constraint_residual is not None
        and constraint_residual > cfg.constraint_tol
    ):
        raise RegressionError(
            f"constraint residual {constraint_residual:.3g} exceeds tolerance "
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
    if ds is None:
        raise ValueError("model carries no dictionary entries")
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
    """JSON-ready form: entries as expression strings, coefficient arrays."""
    ds = model.dictionaries
    out = {
        "n_states": model.c.n_states,
        "xi_tilde": model.xi_tilde.tolist(),
        "xi_hat": model.xi_hat.tolist(),
        "zeta": model.zeta.tolist(),
        "f": [str(e) for e in model.f],
        "g": [str(e) for e in model.g],
        "c": str(model.c),
        "diagnostics": model.diagnostics.to_dict(),
    }
    if ds is not None:
        out["theta_f_entries"] = ds.labels_f()
        out["theta_g_entries"] = ds.labels_g()
        out["phi_entries"] = ds.labels_phi()
        out["library"] = {
            "poly_order": ds.spec.poly_order,
            "trig_orders": list(ds.spec.trig_orders),
            "include_constant": ds.spec.include_constant,
            "output_state_index": ds.spec.output_state_index,
            "output_poly_order": ds.spec.output_poly_order,
            "cross_trig": ds.spec.cross_trig,
            "normalize_columns": ds.spec.normalize_columns,
        }
    return out


def model_from_dict(payload: dict) -> SparseModel:
    """Rebuild a SparseModel (without evaluated dictionaries) from JSON data."""
    n_states = int(payload["n_states"])
    f = tuple(parse_expression(s, n_states) for s in payload["f"])
    g = tuple(parse_expression(s, n_states) for s in payload["g"])
    c = parse_expression(payload["c"], n_states)
    diag_raw = payload.get("diagnostics", {})
    diagnostics = Diagnostics(
        state_residuals=tuple(diag_raw.get("state_residuals", ())),
        output_residual=float(diag_raw.get("output_residual", 0.0)),
        constraint_residual=diag_raw.get("constraint_residual"),
        active_counts=diag_raw.get("active_counts", {}),
        alt_iterations=int(diag_raw.get("alt_iterations", 0)),
        stls_iterations=int(diag_raw.get("stls_iterations", 0)),
        converged=bool(diag_raw.get("converged", False)),
        notes=tuple(diag_raw.get("notes", ())),
    )
    return SparseModel(
        xi_tilde=np.array(payload["xi_tilde"], dtype=float),
        xi_hat=np.array(payload["xi_hat"], dtype=float),
        zeta=np.array(payload["zeta"], dtype=float),
        f=f,
        g=g,
        c=c,
        diagnostics=diagnostics,
        dictionaries=None,
    )
