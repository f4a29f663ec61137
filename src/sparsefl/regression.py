"""Stacked sparse regression with a bilinear relative-degree constraint.

The joint problem couples the state regressions ``Xdot = [ThetaF ThetaG] W``
with the output regression ``Y = Phi zeta`` and enforces that the
reconstructed model has the requested relative degree: for every sample,
the mixed Lie derivatives Lg Lf^k c (k = 0..r-2) of the reconstructed
(c, f, g) must vanish on the data. For r = 2 this is the bilinear condition
(zeta . L_row) * (ThetaG_row . xi_hat_k) = 0 on the output state's input
channel.

Sparsity is produced by sequential thresholded least squares: alternate an
exact least-squares solve with hard-thresholding of coefficients below the
threshold, shrinking the active set until it stabilizes. Constrained steps
replace the plain solve with an equality-constrained solve via null-space
elimination (or a quadratic penalty when ``solver_mode='penalty'``). The
constraint is bilinear/multilinear in the coefficient blocks, so fixing all
blocks but one keeps each step a convex problem; the solver alternates
between the input-channel block(s) and the output coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .dictionary import DictionarySet, evaluate_L_matrix
from .dynamics import ControlAffineSystem
from .symexpr import Expression, evaluate_columns

__all__ = [
    "RegressionConfig",
    "RegressionError",
    "InfeasibleSparsityError",
    "Diagnostics",
    "SparseModel",
    "StackedSystem",
    "ConstraintFactors",
    "ThresholdResult",
    "build_stacked",
    "build_constraint_M",
    "threshold_pass",
    "build_general_constraint",
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
    constraint_mode: str = "per_sample"  # per_sample | aggregated | none
    solver_mode: str = "alternating_constrained"  # alternating_constrained | penalty
    penalty_weight: float = 1e8
    relative_degree: int = 2

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.constraint_tol <= 0 or self.coef_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.relative_degree < 1:
            raise ValueError("relative_degree must be at least 1")
        if self.constraint_mode not in ("per_sample", "aggregated", "none"):
            raise ValueError(f"unknown constraint_mode {self.constraint_mode!r}")
        if self.solver_mode not in ("alternating_constrained", "penalty"):
            raise ValueError(f"unknown solver_mode {self.solver_mode!r}")
        if self.penalty_weight <= 0:
            raise ValueError("penalty_weight must be positive")

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
class StackedSystem:
    """Block-diagonal joint system: state blocks [ThetaF ThetaG] then Phi.

    The coefficient layout is [xi_tilde_1, xi_hat_1, ..., xi_tilde_n,
    xi_hat_n, zeta] and the target stacks the derivative columns followed
    by the output.
    """

    a_joint: np.ndarray  # (n+1)m-ish: n*m + m rows, P columns
    z_joint: np.ndarray
    n: int
    m: int
    p_x: int
    p_u: int
    p_y: int

    @property
    def width(self) -> int:
        return self.n * (self.p_x + self.p_u) + self.p_y

    def pack(self, xi_tilde: np.ndarray, xi_hat: np.ndarray, zeta: np.ndarray) -> np.ndarray:
        parts = []
        for l in range(self.n):
            parts.append(xi_tilde[:, l])
            parts.append(xi_hat[:, l])
        parts.append(zeta)
        return np.concatenate(parts)

    def unpack(self, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        block = self.p_x + self.p_u
        xi_tilde = np.empty((self.p_x, self.n))
        xi_hat = np.empty((self.p_u, self.n))
        for l in range(self.n):
            start = l * block
            xi_tilde[:, l] = eta[start : start + self.p_x]
            xi_hat[:, l] = eta[start + self.p_x : start + block]
        zeta = eta[self.n * block :]
        return xi_tilde, xi_hat, zeta


def build_stacked(ds: DictionarySet, d: Dataset) -> StackedSystem:
    """Assemble the joint block-diagonal system from evaluated dictionaries."""
    if d.Xdot is None:
        raise RegressionError("dataset has no derivatives; estimate or measure Xdot first")
    m, n = d.X.shape
    p_x, p_u, p_y = ds.p_x, ds.p_u, ds.p_y
    theta = np.hstack([ds.theta_f, ds.theta_g])
    width = n * (p_x + p_u) + p_y
    a = np.zeros((n * m + m, width))
    z = np.empty(n * m + m)
    block = p_x + p_u
    for l in range(n):
        a[l * m : (l + 1) * m, l * block : (l + 1) * block] = theta
        z[l * m : (l + 1) * m] = d.Xdot[:, l]
    a[n * m :, n * block :] = ds.phi
    z[n * m :] = d.Y
    return StackedSystem(a_joint=a, z_joint=z, n=n, m=m, p_x=p_x, p_u=p_u, p_y=p_y)


@dataclass(frozen=True)
class ConstraintFactors:
    """Per-sample factors of the bilinear relative-degree condition.

    For sample i the residual is (zeta . L[i]) * (Tg[i] . xi_hat_k); the
    aggregated matrix M = L^T Tg collapses the sample index so the condition
    reads zeta^T M xi_hat_k = 0.
    """

    M: np.ndarray  # p_y x p_u
    L: np.ndarray  # m x p_y
    Tg: np.ndarray  # m x p_u

    def per_sample_residuals(self, zeta: np.ndarray, xi_hat_k: np.ndarray) -> np.ndarray:
        return (self.L @ zeta) * (self.Tg @ xi_hat_k)

    def aggregated_residual(self, zeta: np.ndarray, xi_hat_k: np.ndarray) -> float:
        return float(zeta @ self.M @ xi_hat_k)


def build_constraint_M(ds: DictionarySet, d: Dataset) -> ConstraintFactors:
    """Evaluate the output-gradient / input-library product on the data."""
    L = evaluate_L_matrix(ds, d)
    Tg = np.asarray(ds.theta_g)
    if np.max(np.abs(d.U)) == 0.0:
        warnings.warn(
            "input is identically zero; the relative-degree constraint is vacuous",
            stacklevel=2,
        )
    return ConstraintFactors(M=L.T @ Tg, L=L, Tg=Tg)


@dataclass(frozen=True)
class ThresholdResult:
    values: np.ndarray
    active: np.ndarray  # boolean mask
    infeasible: bool


def threshold_pass(coeffs: np.ndarray, lam: float) -> ThresholdResult:
    """Zero every entry with magnitude below ``lam``; report the active set."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
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


def _constrained_solve(
    A: np.ndarray,
    z: np.ndarray,
    C: np.ndarray | None,
    hard: bool,
    rho: float,
) -> np.ndarray:
    """min ||A w - z|| subject to C w = 0 (hard) or + rho ||C w||^2 (penalty)."""
    if C is None or C.shape[0] == 0:
        return _lstsq(A, z)
    if hard:
        N = _null_space(C)
        if N.shape[1] == 0:
            return np.zeros(A.shape[1])
        v = _lstsq(A @ N, z)
        return N @ v
    A_aug = np.vstack([A, np.sqrt(rho) * C])
    z_aug = np.concatenate([z, np.zeros(C.shape[0])])
    return _lstsq(A_aug, z_aug)


@dataclass
class _StlsInfo:
    iterations: int = 0
    emptied: bool = False


def _stls(
    A: np.ndarray,
    z: np.ndarray,
    lam: float,
    max_iter: int,
    constraint: np.ndarray | None = None,
    hard: bool = True,
    rho: float = 0.0,
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
        A_act = A[:, active]
        scale = None
        if column_scale is not None:
            scale = column_scale[active]
            A_act = A_act / scale
        C_act = constraint[:, active] if constraint is not None else None
        if C_act is not None and scale is not None:
            C_act = C_act / scale
        w_act = _constrained_solve(A_act, z, C_act, hard, rho)
        if scale is not None:
            w_act = w_act / scale
        w = np.zeros(p)
        w[active] = w_act
        result = threshold_pass(w, lam)
        if result.infeasible:
            if np.max(np.abs(z), initial=0.0) <= 1e-12:
                return np.zeros(p)
            info.emptied = True
            raise InfeasibleSparsityError(
                f"threshold {lam} removed every candidate for {what}; lower lambda"
            )
        if np.array_equal(result.active, active):
            return result.values
        active = result.active
    raise RegressionError(
        f"thresholding did not stabilize for {what} after {max_iter} sweeps"
    )


# -- generalized chain constraint ------------------------------------------------


class GeneralConstraint:
    """Relative-degree chain constraints Lg Lf^k c = 0, k = 0..r-2, on data.

    The chain is rebuilt symbolically from whatever coefficients are passed
    in, so each block-coordinate step of the solver sees a constraint that
    is linear in its active block: freezing (zeta, xi_tilde) makes the rows
    linear in the input-channel coefficients, and freezing (xi_tilde,
    xi_hat) makes them linear in the output coefficients.
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

    # symbolic chain of Lf^k applied to an expression along f built from xi_tilde
    def _drift_fields(self, xi_tilde: np.ndarray) -> list[Expression]:
        n = self.n
        fields = []
        for j in range(n):
            fj = Expression.zero(n)
            for b, entry in enumerate(self.ds.theta_f_entries):
                w = float(xi_tilde[b, j])
                if w != 0.0:
                    fj = fj + w * entry
            fields.append(fj)
        return fields

    def _output_map(self, zeta: np.ndarray) -> Expression:
        c = Expression.zero(self.n)
        for a, entry in enumerate(self.ds.phi_entries):
            za = float(zeta[a])
            if za != 0.0:
                c = c + za * entry
        return c

    def _lie_chain(self, start: Expression, fields: list[Expression], depth: int) -> list[Expression]:
        chain = [start]
        for _ in range(depth):
            nxt = Expression.zero(self.n)
            for j in range(self.n):
                nxt = nxt + chain[-1].partial(j) * fields[j]
            chain.append(nxt)
        return chain

    def _gradient_samples(self, e: Expression) -> np.ndarray:
        """(m x n) values of the state gradient of ``e`` at every sample."""
        return evaluate_columns([e.partial(j) for j in range(self.n)], self.d.X)

    def xi_hat_rows(self, zeta: np.ndarray, xi_tilde: np.ndarray) -> np.ndarray:
        """Constraint rows over the stacked input-channel coefficients.

        Returns ((r-1)*m) x (n*p_u); row (k, i) dotted with the stacked
        [xi_hat_1; ...; xi_hat_n] gives the sample-i residual of chain
        level k.
        """
        fields = self._drift_fields(xi_tilde)
        chain = self._lie_chain(self._output_map(zeta), fields, self.r - 2)
        m, p_u = self.d.m, self.ds.p_u
        rows = np.zeros(((self.r - 1) * m, self.n * p_u))
        Tg = np.asarray(self.ds.theta_g)
        for k in range(self.r - 1):
            W = self._gradient_samples(chain[k])  # m x n
            for j in range(self.n):
                rows[k * m : (k + 1) * m, j * p_u : (j + 1) * p_u] = W[:, [j]] * Tg
        return rows

    def zeta_rows(self, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
        """Constraint rows over the output coefficients: ((r-1)*m) x p_y."""
        fields = self._drift_fields(xi_tilde)
        Tg = np.asarray(self.ds.theta_g)
        gsamples = Tg @ xi_hat  # m x n, u-scaled input channel per state
        m, p_y = self.d.m, self.ds.p_y
        rows = np.zeros(((self.r - 1) * m, p_y))
        for a, entry in enumerate(self.ds.phi_entries):
            chain = self._lie_chain(entry, fields, self.r - 2)
            for k in range(self.r - 1):
                W = self._gradient_samples(chain[k])  # m x n
                rows[k * m : (k + 1) * m, a] = np.sum(W * gsamples, axis=1)
        return rows

    def residuals(self, zeta: np.ndarray, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
        """((r-1) x m) per-sample residuals of every chain level."""
        rows = self.xi_hat_rows(zeta, xi_tilde)
        stacked = np.concatenate([xi_hat[:, j] for j in range(self.n)])
        flat = rows @ stacked
        return flat.reshape(self.r - 1, self.d.m)


class _BoundGeneralConstraint:
    """A GeneralConstraint with coefficients plugged in."""

    def __init__(self, gc: GeneralConstraint, zeta, xi_tilde, xi_hat):
        self._gc = gc
        self.zeta = np.asarray(zeta, dtype=float)
        self.xi_tilde = np.asarray(xi_tilde, dtype=float)
        self.xi_hat = np.asarray(xi_hat, dtype=float)

    def residuals(self) -> np.ndarray:
        return self._gc.residuals(self.zeta, self.xi_tilde, self.xi_hat)

    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals()), initial=0.0))


def build_general_constraint(model, ds: DictionarySet, d: Dataset, r: int) -> _BoundGeneralConstraint:
    """Bind the chain-constraint evaluator to a model in progress.

    ``model`` must expose ``zeta``, ``xi_tilde``, ``xi_hat`` (a SparseModel
    or any workalike). For r = 2 the residuals coincide with the
    per-sample factors of :func:`build_constraint_M`.
    """
    gc = GeneralConstraint(ds, d, r)
    return _BoundGeneralConstraint(gc, model.zeta, model.xi_tilde, model.xi_hat)


# -- main solver ----------------------------------------------------------------


def _embed_constraint(C_block: np.ndarray, p_x: int, p_u: int) -> np.ndarray:
    """Place input-channel constraint columns into a [xi_tilde; xi_hat] layout."""
    rows = C_block.shape[0]
    full = np.zeros((rows, p_x + p_u))
    full[:, p_x:] = C_block
    return full


def _reconstruct(
    ds: DictionarySet, xi_tilde: np.ndarray, xi_hat: np.ndarray, zeta: np.ndarray
) -> tuple[tuple[Expression, ...], tuple[Expression, ...], Expression]:
    n = xi_tilde.shape[1]
    n_states = ds.n_states
    f_list = []
    g_list = []
    for l in range(n):
        fl = Expression.zero(n_states)
        for b, entry in enumerate(ds.theta_f_entries):
            w = float(xi_tilde[b, l])
            if w != 0.0:
                fl = fl + w * entry
        gl = Expression.zero(n_states)
        for b, entry in enumerate(ds.theta_g_entries):
            w = float(xi_hat[b, l])
            if w != 0.0:
                gl = gl + w * entry.strip_input()
        f_list.append(fl)
        g_list.append(gl)
    c = Expression.zero(n_states)
    for a, entry in enumerate(ds.phi_entries):
        za = float(zeta[a])
        if za != 0.0:
            c = c + za * entry
    return tuple(f_list), tuple(g_list), c


def solve(ds: DictionarySet, d: Dataset, cfg: RegressionConfig) -> SparseModel:
    """Run the joint sparse regression and reconstruct the symbolic model.

    Output and state coefficients are initialized by unconstrained
    sequential thresholded least squares; when the relative-degree
    constraint is enabled the solver then alternates constrained steps
    (each linear in its block) until the coefficients stop moving, the
    returned model satisfies the constraint to ``constraint_tol`` in the
    selected mode, and the output coefficients are rescaled so their
    largest entry is exactly 1 (the constraint only pins the zeta/xi_hat
    product up to a common factor).
    """
    if d.Xdot is None:
        raise RegressionError("dataset has no derivatives; estimate or measure Xdot first")
    m, n = d.X.shape
    p_x, p_u, p_y = ds.p_x, ds.p_u, ds.p_y
    k = ds.spec.output_state_index
    theta = np.hstack([ds.theta_f, ds.theta_g])
    hard = cfg.solver_mode == "alternating_constrained"
    rho = cfg.penalty_weight
    notes: list[str] = []
    info = _StlsInfo()

    col_scale = None
    if ds.spec.normalize_columns:
        col_scale = np.linalg.norm(theta, axis=0)
        col_scale[col_scale == 0.0] = 1.0
    phi_scale = None
    if ds.spec.normalize_columns:
        phi_scale = np.linalg.norm(ds.phi, axis=0)
        phi_scale[phi_scale == 0.0] = 1.0

    def state_stls(z, constraint=None):
        return _stls(
            theta, z, cfg.lam, cfg.max_outer_iters,
            constraint=constraint, hard=hard, rho=rho,
            column_scale=col_scale, info=info, what="a state equation",
        )

    def zeta_stls(constraint=None):
        return _stls(
            ds.phi, d.Y, cfg.lam, cfg.max_outer_iters,
            constraint=constraint, hard=hard, rho=rho,
            column_scale=phi_scale, info=info, what="the output equation",
        )

    # unconstrained initialization
    zeta = zeta_stls()
    W = [state_stls(d.Xdot[:, l]) for l in range(n)]
    alt_iters = 0
    converged = True
    constraint_residual: float | None = None

    if cfg.constraint_enabled:
        converged = False
        if cfg.relative_degree > 2 and np.max(np.abs(d.U)) == 0.0:
            warnings.warn(
                "input is identically zero; the relative-degree constraint is vacuous",
                stacklevel=2,
            )
        if cfg.relative_degree == 2:
            factors = build_constraint_M(ds, d)
            for alt_iters in range(1, cfg.max_alt_iters + 1):
                prev = np.concatenate([np.concatenate(W), zeta])
                a_weights = factors.L @ zeta
                if cfg.constraint_mode == "per_sample":
                    C = a_weights[:, None] * factors.Tg
                else:
                    C = (zeta @ factors.M)[None, :]
                W[k] = state_stls(d.Xdot[:, k], constraint=_embed_constraint(C, p_x, p_u))
                b_weights = factors.Tg @ W[k][p_x:]
                if cfg.constraint_mode == "per_sample":
                    D = b_weights[:, None] * factors.L
                else:
                    D = (factors.M @ W[k][p_x:])[None, :]
                zeta = zeta_stls(constraint=D)
                delta = np.max(np.abs(np.concatenate([np.concatenate(W), zeta]) - prev))
                if delta < cfg.coef_tol:
                    converged = True
                    break
        else:
            gc = GeneralConstraint(ds, d, cfg.relative_degree)

            def mode_rows(rows):
                # aggregated: one row per chain level, the sum of its m sample rows
                if cfg.constraint_mode == "aggregated":
                    return rows.reshape(cfg.relative_degree - 1, m, -1).sum(axis=1)
                return rows

            big_a = np.kron(np.eye(n), theta)
            big_z = np.concatenate([d.Xdot[:, l] for l in range(n)])
            big_scale = np.tile(col_scale, n) if col_scale is not None else None
            for alt_iters in range(1, cfg.max_alt_iters + 1):
                prev = np.concatenate([np.concatenate(W), zeta])
                xi_tilde = np.column_stack([w[:p_x] for w in W])
                # input-channel step: all states jointly, chain frozen at
                # the current (zeta, xi_tilde)
                rows = mode_rows(gc.xi_hat_rows(zeta, xi_tilde))
                big_c = np.zeros((rows.shape[0], n * (p_x + p_u)))
                for j in range(n):
                    big_c[:, j * (p_x + p_u) + p_x : (j + 1) * (p_x + p_u)] = rows[
                        :, j * p_u : (j + 1) * p_u
                    ]
                w_all = _stls(
                    big_a, big_z, cfg.lam, cfg.max_outer_iters,
                    constraint=big_c, hard=hard, rho=rho,
                    column_scale=big_scale, info=info, what="the state equations",
                )
                W = [w_all[j * (p_x + p_u) : (j + 1) * (p_x + p_u)] for j in range(n)]
                xi_tilde = np.column_stack([w[:p_x] for w in W])
                xi_hat = np.column_stack([w[p_x:] for w in W])
                D = mode_rows(gc.zeta_rows(xi_tilde, xi_hat))
                zeta = zeta_stls(constraint=D)
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
        if cfg.relative_degree == 2:
            if cfg.constraint_mode == "per_sample":
                constraint_residual = float(
                    np.max(np.abs(factors.per_sample_residuals(zeta, xi_hat[:, k])))
                )
            else:
                constraint_residual = abs(factors.aggregated_residual(zeta, xi_hat[:, k]))
        else:
            res = gc.residuals(zeta, xi_tilde, xi_hat)
            if cfg.constraint_mode == "per_sample":
                constraint_residual = float(np.max(np.abs(res), initial=0.0))
            else:
                constraint_residual = float(np.max(np.abs(res.sum(axis=1)), initial=0.0))

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
    from .symexpr import Expression as _E, format_expression

    lines = []
    n_states = model.c.n_states
    u = _E.input(n_states)
    for l in range(model.n):
        rhs = model.f[l] + model.g[l] * u
        lines.append(f"dx{l + 1}/dt = {format_expression(rhs, digits=digits)}")
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
    from .symexpr import parse_expression

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
