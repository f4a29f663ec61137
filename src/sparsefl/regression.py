"""Stacked sparse regression with the relative-degree constraint.

The joint problem couples the state regressions ``Xdot = [ThetaF ThetaG] W``
with the output regression ``Y = Phi zeta`` and enforces that the
reconstructed model has the requested relative degree r: the mixed Lie
derivatives Lg Lf^k c (k = 0..r-2) of the reconstructed (c, f, g) must
vanish term by term, which is the zero test of :func:`lie.relative_degree`.
One chain constraint, :class:`GeneralConstraint`, builds these rows for
every r >= 2, one per level and term, independent of the samples. At r = 2
it asks every term coefficient of sum_k (dc/dx_k) * g_k to vanish.

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
constant output, c = 1) the state step is skipped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset
from .dictionary import DictionarySet, check_fields, integer
from .dynamics import ControlAffineSystem
from .lie import DEFAULT_ZERO_TOL, lie_derivative
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


@dataclass(frozen=True)
class RegressionConfig:
    """Sparse-regression knobs: the config's ``regression`` keys, ``lam`` spelled ``lambda``."""

    lam: float = 0.05
    max_outer_iters: int = 25
    max_alt_iters: int = 30
    coef_tol: float = 1e-10
    constraint_mode: str = "per_sample"  # per_sample | none
    relative_degree: int = 2

    def __post_init__(self) -> None:
        check_fields(self)  # NaN passes every ordered comparison below
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.coef_tol <= 0:
            raise ValueError("coef_tol must be positive")
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
    constraint_residual: float | None = None  # max |coefficient| of any Lg Lf^k c, k < r-1
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
    # singular values, so the SVD never sees more than p rows. The rank
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


def _block_columns(A: np.ndarray, scale: np.ndarray | None, active: np.ndarray) -> np.ndarray:
    """Columns ``active`` of blockdiag(A, ..., A) / scale, one block's ``scale``.

    Bits and memory order are those of the Kronecker product eye(k) x A, so
    BLAS and LAPACK see the same input: 0.0 * A (signed zeros) off the
    diagonal; C order if all columns are active, else a gather's Fortran order.
    """
    m, p = A.shape
    k = active.size // p
    cols = slice(None) if active.all() else active
    if k == 1:
        return A[:, cols] if scale is None else A[:, cols] / scale[cols]
    out = np.empty((k * m, np.count_nonzero(active)), order="C" if active.all() else "F")
    start = 0
    for j, act in enumerate(active.reshape(k, p)):
        a, span = A[:, act], slice(start, start + np.count_nonzero(act))
        for i in range(k):
            block = out[i * m : (i + 1) * m, span]
            np.multiply(float(i == j), a, out=block)
            if scale is not None:
                np.divide(block, scale[act], out=block)
        start = span.stop
    return out


@dataclass(frozen=True)
class _Factor:
    """QR of a column-scaled design with right-hand sides: [A/s | Z] = Q [[r, qtz], [0, T]].

    ``out[j]`` = |T[:, j]|^2, the part of Z[:, j] outside range(A); ``norms[j]`` = |r[:, j]|^2.
    No column subset, projection A_S N (N orthonormal) or block diagonal of
    A has a singular value below smin, the least of r's.
    """

    r: np.ndarray
    qtz: np.ndarray
    out: np.ndarray
    norms: np.ndarray
    smin: float


def _factor(A: np.ndarray, Z: np.ndarray, scale: np.ndarray | None) -> _Factor | None:
    """The :class:`_Factor` of ``A`` against ``Z``'s columns; None when it cannot screen.

    It cannot when the bound of _stls fails for A's largest column alone,
    and so for every sweep that keeps it. R is built 512 rows at a time, as
    the R of [R; next rows] written into one buffer: one QR of all
    m x (p + n) entries read 6.6 MB more ``peak_rss_mb`` in the benchmark at
    m = 5000, p + n = 60.
    """
    (m, p), n = A.shape, Z.shape[1]
    if m < p + n:
        return None
    stack, k = np.empty((p + n + 512, p + n)), 0  # [R; next rows], R in the top k rows
    for i in range(0, m, 512):
        rows = stack[k : k + min(512, m - i)]
        if scale is None:
            rows[:, :p] = A[i : i + 512]
        else:
            np.divide(A[i : i + 512], scale, out=rows[:, :p])
        rows[:, p:] = Z[i : i + 512]
        R = np.linalg.qr(stack[: k + len(rows)], mode="r")
        k = len(R)
        stack[:k] = R
    if not np.all(np.isfinite(R)):
        return None
    smin, norms = np.linalg.svd(R[:p, :p], compute_uv=False)[-1], np.sum(R[:p, :p] ** 2, axis=0)
    if m * np.finfo(float).eps / 2 * math.sqrt(norms.max()) >= 0.5 * smin:
        return None
    return _Factor(R[:p, :p], R[:p, p:], np.sum(R[p:, p:] ** 2, axis=0), norms, float(smin))


def _stls(
    A: np.ndarray,
    z: np.ndarray,
    lam: float,
    max_iter: int,
    constraint: np.ndarray | None = None,
    column_scale: np.ndarray | None = None,
    what: str = "coefficients",
    factor: _Factor | None = None,
) -> tuple[np.ndarray, int]:
    """Sequential thresholded least squares with optional equality constraint.

    Solves blockdiag(A, ..., A) w = [z_1; ...; z_k], one block per column of
    ``z``, on the current active columns, thresholds in raw units, and
    repeats until the active set stabilizes. ``column_scale`` (one block's,
    if given) conditions each solve by unit-normalizing columns. Returns the
    coefficients and the number of sweeps.

    ``factor``, the :class:`_Factor` of A against ``z``'s columns, lets a
    sweep that drops columns be decided on p rows when the bound below
    vouches for it; every other sweep solves on the m-row design.
    """
    m, p = A.shape
    Z = z.reshape(m, -1)
    k = Z.shape[1]
    rhs = Z.T.reshape(-1)
    scale = None if column_scale is None else np.tile(column_scale, k)
    if factor is not None:
        qtz, out, norms = factor.qtz.T.reshape(-1), float(np.sum(factor.out)), np.tile(factor.norms, k)
    active = np.ones(k * p, dtype=bool)

    def thresholded(x, s):
        w = np.zeros(k * p)
        w[active] = x if s is None else x / s
        return threshold_pass(w, lam)

    for sweep in range(1, max_iter + 1):
        s = None if scale is None else scale[active]
        C = None if constraint is None else constraint[:, active]
        if C is not None and s is not None:
            C = C / s
        w = None
        # Householder least squares is exact for a design whose column j moved
        # by gamma = c * rows * cols * u of its norm (Higham 2002, Thms 19.4,
        # 20.3; c = 1 is an assumption the differential tests bear out, not a
        # certificate), so |dA|_2 <= gamma |A_S|_F for both solves. With
        # t = gamma |A_S|_F / smin < 1/2, Thm 20.1 puts both within delta of the
        # exact solution: |w_j| clearing lam by 2 delta / s_j thresholds alike.
        if factor is not None:
            gamma = k * m * np.count_nonzero(active) * np.finfo(float).eps / 2
            t = gamma / (1 - gamma) * math.sqrt(float(np.sum(norms[active]))) / factor.smin
            if t < 0.5:
                Rs = _block_columns(factor.r, None, active)
                x = _constrained_solve(Rs, qtz, C)
                rho = math.sqrt(out + float(np.sum((Rs @ x - qtz) ** 2)))
                delta = 2 * t / (1 - t) * (float(np.linalg.norm(x)) + rho / factor.smin)
                w = thresholded(x, s)
                clear = np.abs(np.abs(x) - lam * (1.0 if s is None else s)) > 2 * delta
                if not clear.all():  # screen no later sweep: one failing p-row solve per call
                    w, factor = None, None
                elif not w.any() or np.array_equal(w != 0.0, active):
                    w = None
        if w is None:
            w = thresholded(_constrained_solve(_block_columns(A, column_scale, active), rhs, C), s)
        kept = w != 0.0
        if not kept.any():
            if np.max(np.abs(rhs), initial=0.0) <= 1e-12:
                return np.zeros(k * p), sweep
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

    def residual(self, zeta: np.ndarray, xi_tilde: np.ndarray, xi_hat: np.ndarray) -> float:
        """The largest coefficient magnitude of any Lg Lf^k c, k = 0..r-2."""
        c, g = _combine(zeta, self.ds.phi_entries, self.ds.n_states), _field(self.ds, xi_hat)
        levels = self._levels([c], xi_tilde)
        return max(lie_derivative(e, g).max_abs_coefficient() for [e] in levels)


# -- main solver ----------------------------------------------------------------


def solve(ds: DictionarySet, d: Dataset, cfg: RegressionConfig) -> SparseModel:
    """Run the joint sparse regression and reconstruct the symbolic model.

    The coefficients live in one (p_x + p_u) x n array W whose column l is
    [xi_tilde_l; xi_hat_l]. Output and state coefficients are initialized by
    unconstrained sequential thresholded least squares; when the
    relative-degree constraint is enabled the solver then alternates
    constrained steps (each linear in its block) until the coefficients stop
    moving, and a largest output coefficient within rounding of 1 is divided
    out. The :class:`Diagnostics` record is built once, after
    the solve. A run that did not converge, an all-zero output, an all-zero
    input channel under a nonzero input (no linearizing law exists), or a
    constraint residual above ``lie.DEFAULT_ZERO_TOL`` (a model that
    :func:`lie.relative_degree` certifies at a lower r) raises
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
    # one QR per design serves every sweep of every state and step
    theta_qr, phi_qr = _factor(theta, d.Xdot, col_scale), _factor(ds.phi, d.Y[:, None], phi_scale)

    def stls(a, z, scale, constraint, what, factor):
        nonlocal sweeps
        w, k = _stls(a, z, cfg.lam, cfg.max_outer_iters, constraint, scale, what, factor)
        sweeps += k
        return w

    def states_stls(W, states, constraint):
        """STLS of the given states' equations as one block-diagonal system into W[:, states]."""
        factor = theta_qr and replace(theta_qr, qtz=theta_qr.qtz[:, states], out=theta_qr.out[states])
        what = "state equation " + ", ".join(f"dx{j + 1}/dt" for j in states)
        w = stls(theta, d.Xdot[:, states], col_scale, constraint, what, factor)
        W[:, states] = w.reshape(len(states), -1).T

    # unconstrained initialization
    zeta = stls(ds.phi, d.Y, phi_scale, None, "the output equation", phi_qr)
    W_init = np.empty((theta.shape[1], n))
    for l in range(n):
        states_stls(W_init, [l], None)
    W = W_init
    alt_iters = 0
    converged = True

    if gc is not None:
        if np.max(np.abs(d.U)) == 0.0:
            warnings.warn(
                "input is identically zero; the input channel g cannot be identified",
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
            zeta = stls(ds.phi, d.Y, phi_scale, C, "the output equation", phi_qr)
            if max(np.max(np.abs(W - W_prev)), np.max(np.abs(zeta - zeta_prev))) < cfg.coef_tol:
                break
        else:
            converged = False
            notes.append("coefficients still moving at max_alt_iters")
    xi_tilde, xi_hat = W[:p_x], W[p_x:]

    # Y fixes the output scale and the constraint is homogeneous in zeta, so
    # a largest output coefficient within 1e-9 of 1 is 1 up to rounding.
    pivot = zeta[np.argmax(np.abs(zeta))] if gc is not None else 1.0
    if abs(pivot - 1.0) <= 1e-9:
        zeta = zeta / pivot

    diagnostics = Diagnostics(
        state_residuals=tuple(
            float(np.linalg.norm(theta @ W[:, l] - d.Xdot[:, l])) for l in range(n)
        ),
        output_residual=float(np.linalg.norm(ds.phi @ zeta - d.Y)),
        constraint_residual=None if gc is None else gc.residual(zeta, xi_tilde, xi_hat),
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
    # an all-zero input channel makes every mixed Lie derivative vanish, so
    # no feedback-linearizing law exists for the model
    if np.max(np.abs(xi_hat), initial=0.0) == 0.0 and np.max(np.abs(d.U)) > 0.0:
        raise InfeasibleSparsityError(
            "threshold removed every input-channel candidate; lower lambda", diagnostics
        )
    if gc is not None and diagnostics.constraint_residual > DEFAULT_ZERO_TOL:
        raise RegressionError(
            f"constraint residual {diagnostics.constraint_residual:.3g} exceeds tolerance "
            f"{DEFAULT_ZERO_TOL:.3g}",
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
