"""Stacked sparse regression with the relative-degree constraint.

The joint problem couples the state regressions ``Xdot = [ThetaF ThetaG] W``
with the output regression ``Y = Phi zeta`` and asks the reconstructed
model to have the requested relative degree r: the mixed Lie derivatives
Lg Lf^k c (k = 0..r-2) of the reconstructed (c, f, g) must vanish term by
term. One chain constraint, :class:`GeneralConstraint`, builds these rows
for every r >= 2, one per level and term, independent of the samples. A
model is returned only when :func:`lie.relative_degree` certifies r on it,
which also refuses an output whose every Lie derivative vanishes.

Sparsity is produced by sequential thresholded least squares: alternate an
exact least-squares solve with hard-thresholding of coefficients below the
threshold, shrinking the active set until it stabilizes. Constrained steps
replace the plain solve with an exact equality-constrained solve by
null-space elimination. The constraint is multilinear in the coefficient
blocks, so fixing all blocks but one keeps each step a convex problem; the
solver alternates between the input-channel (state) step and the output
step.

The state step jointly solves only the coupled states: the states j with
some d_j(Lf^k c) not zero. Every other state keeps its unconstrained
initialization, which is what the block-diagonal joint solve would give it.
At r = 2 with c = c(x_k) only state k is coupled; when no state is (a
constant output, which the certification refuses) the state step is skipped.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from itertools import count

import numpy as np

from .data import Dataset
from .dictionary import DictionarySet, check_fields, integer
from .dynamics import ControlAffineSystem
from .lie import lie_derivative, relative_degree
from .symexpr import Expression, format_expression, format_terms, parse_expression

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
    """Thresholding removed every candidate of a block; the threshold is too large."""


# The alternation has no termination proof: it stops once no coefficient moves
# by ALT_TOL in one step, and a run still moving after ALT_STEPS steps fails.
ALT_STEPS = 30
ALT_TOL = 1e-10


@dataclass(frozen=True)
class RegressionConfig:
    """Sparse-regression knobs: the config's ``regression`` keys, ``lam`` spelled ``lambda``."""

    lam: float = 0.05
    constraint_mode: str = "coefficients"  # coefficients | none
    relative_degree: int = 2

    def __post_init__(self) -> None:
        check_fields(self)  # NaN passes every ordered comparison below
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.relative_degree < 1:
            raise ValueError("relative_degree must be at least 1")
        if self.constraint_mode not in ("coefficients", "none"):
            raise ValueError(f"unknown constraint_mode {self.constraint_mode!r}")

    @property
    def constraint_enabled(self) -> bool:
        return self.constraint_mode != "none" and self.relative_degree >= 2


@dataclass
class Diagnostics:
    """Solution-quality record attached to every SparseModel."""

    state_residuals: tuple[float, ...] = ()
    output_residual: float = 0.0
    constraint_residual: float | None = None  # max |coefficient| of any Lg Lf^k c, k < r-1
    active_counts: dict = field(default_factory=dict)
    alt_iterations: int = 0
    stls_iterations: int = 0

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
    # singular values, so the SVD never sees more than p rows. The rank
    # tolerance keeps the shape of C.
    r = np.linalg.qr(C, mode="r")
    s, vt = np.linalg.svd(r, full_matrices=True)[1:]
    tol = max(C.shape) * np.finfo(float).eps * s[0]
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def _constrained_solve(
    A: np.ndarray, z: np.ndarray, C: np.ndarray | None, rows: int = 0
) -> np.ndarray:
    """min ||A w - z|| subject to C w = 0, by elimination on the null space of C.

    The least squares drops singular values below eps * max(rows, its
    design's shape) times the largest: numpy's cutoff when ``rows`` is 0.
    """
    N = None if C is None or C.shape[0] == 0 else _null_space(C)
    if N is not None and N.shape[1] == 0:
        return np.zeros(A.shape[1])
    B = A if N is None else A @ N
    w = np.linalg.lstsq(B, z, rcond=np.finfo(float).eps * max(rows, *B.shape))[0]
    return w if N is None else N @ w


def _block_columns(A: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Columns ``active`` of blockdiag(A, ..., A), one block of A per A.shape[1] flags."""
    m, p = A.shape
    act = active.reshape(-1, p)
    out = np.zeros((len(act) * m, np.count_nonzero(active)))
    start = 0
    for i, a in enumerate(act):
        stop = start + np.count_nonzero(a)
        out[i * m : (i + 1) * m, start:stop] = A[:, a]
        start = stop
    return out


@dataclass(frozen=True)
class _Factor:
    """QR of a design with right-hand sides: [A | Z] = Q [[r, qtz], [0, T]].

    Least squares on A's columns against Z's is least squares on r's columns
    against qtz's: the rows of T only add a constant to the residual.
    """

    r: np.ndarray
    qtz: np.ndarray


def _design_rows(theta_f: np.ndarray, u: np.ndarray, out: np.ndarray) -> None:
    """Rows of the state design [Θ_f | Θ_f·u] into ``out``: the one place Θ_f·u is formed.

    Each product gets 0.0 added, as evaluate_columns sums from +0.0: -0.0 becomes +0.0.
    """
    p = theta_f.shape[1]
    out[:, :p] = theta_f
    np.multiply(out[:, :p], u[:, None], out=out[:, p:])
    out[:, p:] += 0.0


def _factor(A: np.ndarray, Z: np.ndarray, u: np.ndarray | None = None) -> _Factor:
    """The :class:`_Factor` of the design A, or with ``u`` of [A | A·u], against Z's columns.

    R is built 512 rows at a time, as the R of [R; next rows] written into
    one buffer, where :func:`_design_rows` forms the input columns A·u: no
    m-row copy of the design exists. One QR of all m x (p + n) entries read
    6.6 MB more ``peak_rss_mb`` in the benchmark at m = 5000, p + n = 60.
    The buffer is column-major, like the library, so a block's copy, product
    and ``+= 0.0`` run down contiguous columns; LAPACK reads the same values.
    With fewer than p + n rows, R has m rows. A non-finite R raises
    :class:`RegressionError`.
    """
    m, n = len(A), Z.shape[1]
    p = A.shape[1] * (1 if u is None else 2)
    stack, k = np.empty((p + n + 512, p + n), order="F"), 0  # [R; next rows], R in the top k rows
    for i in range(0, m, 512):
        rows = stack[k : k + min(512, m - i)]
        if u is None:
            rows[:, :p] = A[i : i + 512]
        else:
            _design_rows(A[i : i + 512], u[i : i + 512], rows[:, :p])
        rows[:, p:] = Z[i : i + 512]
        R = np.linalg.qr(stack[: k + len(rows)], mode="r")
        k = len(R)
        stack[:k] = R
    if not np.all(np.isfinite(R)):
        raise RegressionError(
            f"the QR factor of the {m} x {p} library design is not finite; rescale the data"
        )
    return _Factor(R[:p, :p], R[:p, p:])


def _state_residuals(
    theta_f: np.ndarray, u: np.ndarray, W: np.ndarray, Xdot: np.ndarray
) -> tuple[float, ...]:
    """||[Θ_f | Θ_f·u] W[:, l] - Ẋ[:, l]|| per state l, the design formed 512 rows at a time.

    The block is formed column-major, as in :func:`_factor`, then copied to
    row-major rows: gemv sums a row-major row as the whole-design product
    did, and a column-major one in another order. For the same reason a lone
    last row joins the block before: numpy takes a one-row matrix times a
    vector as a dot product.
    """
    m, n = Xdot.shape
    res, rows = np.empty((n, m)), np.empty((min(513, m), len(W)))
    edges = [*range(0, max(m - 1, 1), 512), m]
    for i, j in zip(edges, edges[1:]):
        block, cols = rows[: j - i], np.empty((j - i, len(W)), order="F")
        _design_rows(theta_f[i:j], u[i:j], cols)
        block[...] = cols
        for l in range(n):
            np.subtract(block @ W[:, l], Xdot[i:j, l], out=res[l, i:j])
    return tuple(float(np.linalg.norm(r)) for r in res)


def _stls(
    factor: _Factor,
    z: np.ndarray,
    lam: float,
    constraint: np.ndarray | None = None,
    what: str = "coefficients",
) -> tuple[np.ndarray, int]:
    """Sequential thresholded least squares with optional equality constraint.

    Solves blockdiag(A, ..., A) w = [z_1; ...; z_k], one block per column of
    ``z``, on the current active columns, thresholds the coefficients at
    ``lam``, and repeats until the active set stops changing. Returns the
    coefficients and the number of sweeps. A sweep keeps a subset of the
    active columns and an unchanged set returns, so each sweep that goes on
    drops at least one of the k * p columns and the loop ends within k * p
    sweeps.

    Every sweep solves on ``factor``, the :class:`_Factor` of A against
    ``z``'s columns, which Householder QR makes a backward-stable least
    squares (Higham 2002, Thm 20.3). Its rank cutoff is numpy's for the
    m-row design, eps * max(k * m, columns): R has only p rows, and numpy's
    cutoff for them would keep directions the m-row solve drops. ``z``
    itself decides only whether the right-hand side is zero.
    """
    Z = z.reshape(len(z), -1)
    k, p = Z.shape[1], factor.r.shape[1]
    qtz = factor.qtz.T.reshape(-1)
    active = np.ones(k * p, dtype=bool)
    for sweep in count(1):
        C = None if constraint is None else constraint[:, active]
        w = np.zeros(k * p)
        w[active] = _constrained_solve(_block_columns(factor.r, active), qtz, C, Z.size)
        w = threshold_pass(w, lam)
        kept = w != 0.0
        if not kept.any():
            if np.max(np.abs(Z), initial=0.0) <= 1e-12:
                return np.zeros(k * p), sweep
            raise InfeasibleSparsityError(
                f"threshold {lam} removed every candidate for {what}; lower lambda"
            )
        if np.array_equal(kept, active):
            return w, sweep
        active = kept


# -- relative-degree chain constraint ---------------------------------------------


def _combine(coeffs: np.ndarray, entries, n_states: int) -> Expression:
    """sum_b coeffs[b] * entries[b] over the nonzero coefficients, in entry order."""
    products = [float(w) * entry for w, entry in zip(coeffs, entries) if w != 0.0]
    return Expression(tuple(t for product in products for t in product.terms), n_states)


def _field(ds: DictionarySet, xi: np.ndarray) -> tuple[Expression, ...]:
    """The vector field whose component l combines the drift entries with ``xi[:, l]``."""
    return tuple(_combine(xi[:, l], ds.theta_f_entries, ds.n_states) for l in range(xi.shape[1]))


def _reconstruct(
    ds: DictionarySet, xi_tilde: np.ndarray, xi_hat: np.ndarray, zeta: np.ndarray
) -> tuple[tuple[Expression, ...], tuple[Expression, ...], Expression]:
    # input column k is drift entry k times u, so g combines the drift entries
    return _field(ds, xi_tilde), _field(ds, xi_hat), _combine(zeta, ds.phi_entries, ds.n_states)


def _coefficient_rows(exprs: list[Expression]) -> np.ndarray:
    """The term coefficients of ``exprs``: one column per expression.

    There is one row per distinct term signature, in the canonical term
    order, so ``rows @ w`` holds the coefficients of sum_b w_b * exprs[b].
    """
    terms = {t.signature: t for e in exprs for t in e.terms}
    row = {sig: i for i, sig in enumerate(sorted(terms, key=lambda sig: terms[sig].sort_key))}
    C = np.zeros((len(row), len(exprs)))
    for col, e in enumerate(exprs):
        for t in e.terms:
            C[row[t.signature], col] = t.coefficient
    return C


class GeneralConstraint:
    """Relative-degree chain constraints Lg Lf^k c = 0, k = 0..r-2, on coefficients.

    Lg Lf^k c = sum_j d_j(Lf^k c) * g_j is linear in each block an
    alternation step solves for: with g_j = sum_b xi_hat[b, j] theta_b, in
    the input-channel coefficients for frozen (zeta, xi_tilde); with
    c = sum_a zeta_a phi_a and Lf linear, in the output coefficients for
    frozen (xi_tilde, xi_hat). Each row asks one term coefficient of one
    level to vanish, which is the zero that :func:`lie.relative_degree`
    tests, so the rows do not depend on the samples.
    """

    def __init__(self, ds: DictionarySet, r: int):
        n = ds.n_states
        if r < 2:
            raise ValueError("the chain constraint needs relative_degree >= 2")
        if r > n:
            raise ValueError(f"relative_degree {r} exceeds the state dimension {n}")
        self.ds, self.r = ds, r

    def _levels(self, exprs, xi_tilde: np.ndarray) -> list[list[Expression]]:
        """Lf^k of each expression, k = 0..r-2, along the drift of ``xi_tilde``."""
        f = _field(self.ds, xi_tilde)
        levels = [list(exprs)]
        for _ in range(self.r - 2):
            levels.append([lie_derivative(e, f) for e in levels[-1]])
        return levels

    def state_rows(self, zeta: np.ndarray, xi_tilde: np.ndarray) -> tuple[list[int], np.ndarray]:
        """Constraint rows over the coupled states' [xi_tilde_j; xi_hat_j] blocks.

        A state j is coupled when some d_j(Lf^k c) is not zero. Returns the
        coupled states in order and the rows, one block of p_x + p_u columns
        per coupled state with the drift columns zero; column (j, b) of level
        k holds the coefficients of d_j(Lf^k c) * theta_b.
        """
        ds, n = self.ds, self.ds.n_states
        c = _combine(zeta, ds.phi_entries, n)
        grads = [[e.partial(j) for j in range(n)] for [e] in self._levels([c], xi_tilde)]
        coupled = [j for j in range(n) if any(not grad[j].is_zero() for grad in grads)]
        drift, theta = [Expression.zero(n)] * ds.p_x, ds.theta_f_entries
        return coupled, np.vstack([
            _coefficient_rows([e for j in coupled for e in drift + [grad[j] * t for t in theta]])
            for grad in grads
        ])

    def zeta_rows(self, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> np.ndarray:
        """Constraint rows over the output coefficients: column a of level k is Lg Lf^k phi_a."""
        g, levels = _field(self.ds, xi_hat), self._levels(self.ds.phi_entries, xi_tilde)
        return np.vstack([_coefficient_rows([lie_derivative(e, g) for e in lv]) for lv in levels])


# -- main solver ----------------------------------------------------------------


def solve(ds: DictionarySet, d: Dataset, cfg: RegressionConfig) -> SparseModel:
    """Run the joint sparse regression and reconstruct the symbolic model.

    The coefficients live in one (p_x + p_u) x n array W whose column l is
    [xi_tilde_l; xi_hat_l]. Output and state coefficients are initialized by
    unconstrained sequential thresholded least squares; when the
    relative-degree constraint is enabled the solver then alternates
    constrained steps (each linear in its block) until no coefficient moves
    by ``ALT_TOL``, and a largest output coefficient within rounding of 1 is
    divided out.

    Before any sweep, a constant input raises :class:`RegressionError`: a
    nonzero one makes each input column that constant times its drift
    column, so f and g cannot be separated, and a zero one leaves g, which
    the constraint acts on, unidentifiable. Only a zero input with the
    constraint off passes; it returns the drift and g = 0.

    The :class:`Diagnostics` record is built once, after the solve, from
    the certifier's chain, which stops at the first nonzero Lg Lf^k c. An
    alternation still moving after ``ALT_STEPS`` steps, an output Y that is
    zero, an all-zero input channel under a nonzero input (no linearizing
    law exists), or a constrained model that :func:`lie.relative_degree`
    does not certify at r (a constant output included) raises
    :class:`RegressionError` carrying that full record.
    """
    if d.Xdot is None:
        raise RegressionError("dataset has no derivatives; estimate or measure Xdot first")
    gc = None
    if cfg.constraint_enabled:
        try:  # before any STLS: a relative degree above n fails fast
            gc = GeneralConstraint(ds, cfg.relative_degree)
        except ValueError as exc:
            raise RegressionError(str(exc)) from None
    u = float(d.U[0])
    if (u != 0.0 or gc is not None) and d.U.min() == d.U.max():
        why = (
            f"input u is constant ({u!r}), so each input column is that constant times "
            "its drift column and f and g cannot be separated"
            if u
            else "input u is identically zero, so the input channel g that the "
            "relative-degree constraint acts on cannot be identified"
        )
        raise RegressionError(f"{why}; excite the plant with a varying input")
    n, p_x = d.n, ds.p_x
    sweeps = 0

    # one QR per design serves every sweep of every state and step
    theta_qr, phi_qr = _factor(ds.theta_f, d.Xdot, d.U), _factor(ds.phi, d.Y[:, None])

    def stls(factor, z, constraint, what):
        nonlocal sweeps
        w, k = _stls(factor, z, cfg.lam, constraint, what)
        sweeps += k
        return w

    def states_stls(W, states, constraint):
        """STLS of the given states' equations as one block-diagonal system into W[:, states]."""
        factor = replace(theta_qr, qtz=theta_qr.qtz[:, states])
        what = "state equation " + ", ".join(f"dx{j + 1}/dt" for j in states)
        w = stls(factor, d.Xdot[:, states], constraint, what)
        W[:, states] = w.reshape(len(states), -1).T

    # unconstrained initialization
    zeta = stls(phi_qr, d.Y, None, "the output equation")
    W_init = np.empty((p_x + ds.p_u, n))
    for l in range(n):
        states_stls(W_init, [l], None)
    W = W_init
    alt_iters = 0
    moving = False

    if gc is not None:
        for alt_iters in range(1, ALT_STEPS + 1):
            W_prev, zeta_prev = W, zeta
            # state step: the coupled states jointly, chain frozen at the
            # current (zeta, xi_tilde); the others keep their initialization
            states, C = gc.state_rows(zeta, W_prev[:p_x])
            W = W_init.copy()
            if states:
                states_stls(W, states, C)
            C = gc.zeta_rows(W[:p_x], W[p_x:])
            zeta = stls(phi_qr, d.Y, C, "the output equation")
            if max(np.max(np.abs(W - W_prev)), np.max(np.abs(zeta - zeta_prev))) < ALT_TOL:
                break
        else:
            moving = True
    xi_tilde, xi_hat = W[:p_x], W[p_x:]

    # Y fixes the output scale and the constraint is homogeneous in zeta, so
    # a largest output coefficient within 1e-9 of 1 is 1 up to rounding.
    pivot = zeta[np.argmax(np.abs(zeta))] if gc is not None else 1.0
    if abs(pivot - 1.0) <= 1e-9:
        zeta = zeta / pivot

    f, g, c = _reconstruct(ds, xi_tilde, xi_hat, zeta)
    chain = None if gc is None else relative_degree(ControlAffineSystem(f=f, g=g, c=c, n=n))
    diagnostics = Diagnostics(
        state_residuals=_state_residuals(ds.theta_f, d.U, W, d.Xdot),
        # phi is column-major: gemv on its row-major copy sums as it always has
        output_residual=float(np.linalg.norm(np.ascontiguousarray(ds.phi) @ zeta - d.Y)),
        constraint_residual=None if chain is None else max(
            e.max_abs_coefficient() for e in chain.lg_mixed[: cfg.relative_degree - 1]
        ),
        active_counts={
            "xi_tilde": np.count_nonzero(xi_tilde, axis=0).tolist(),
            "xi_hat": np.count_nonzero(xi_hat, axis=0).tolist(),
            "zeta": int(np.count_nonzero(zeta)),
        },
        alt_iterations=alt_iters,
        stls_iterations=sweeps,
    )
    if moving:
        raise RegressionError(
            f"alternating solver did not converge in {ALT_STEPS} iterations",
            diagnostics,
        )
    # STLS returns all-zero coefficients only for a right-hand side within 1e-12 of zero
    if not zeta.any():
        raise RegressionError(
            f"output Y is zero (max |Y| = {np.max(np.abs(d.Y)):.3g}); c cannot be identified",
            diagnostics,
        )
    # an all-zero input channel makes every mixed Lie derivative vanish, so
    # no feedback-linearizing law exists for the model
    if np.max(np.abs(xi_hat), initial=0.0) == 0.0 and np.max(np.abs(d.U)) > 0.0:
        raise InfeasibleSparsityError(
            "threshold removed every input-channel candidate; lower lambda", diagnostics
        )
    if chain is not None and chain.relative_degree != cfg.relative_degree:
        raise RegressionError(
            f"the identified model certifies relative degree {chain.relative_degree}, "
            f"not {cfg.relative_degree} (y = {format_expression(c, digits=4)})",
            diagnostics,
        )
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
    for key in ("f", "g"):
        if not isinstance(payload[key], list):
            raise ValueError(f"{key} must be a list of expression strings, got {payload[key]!r}")
    return ControlAffineSystem(
        f=tuple(parse_expression(s, n) for s in payload["f"]),
        g=tuple(parse_expression(s, n) for s in payload["g"]),
        c=parse_expression(payload["c"], n),
        n=n,
    )
