"""Dense linear-algebra kernel backing the estimators.

Matrices are plain 2-D float64 ``numpy.ndarray``s.  Every least-squares
problem is one Householder QR (LAPACK, via numpy) of the augmented matrix
[X | Y] in ``mode="r"``: no Q is formed, nothing goes through the normal
equations or an SVD, and every answer is read from R =
[[R_xx, R_xy], [0, R_yy]] (Golub & Van Loan, *Matrix Computations*, 5.3):

* coefficients solve R_xx B = R_xy;
* the residual cross-product of Y on the first j columns of X is
  R[j:, m:]' R[j:, m:], so a nested order search (every column prefix)
  needs one factorization, not one per candidate;
* ``(X'X)^-1`` is R_xx^-1 R_xx^-T.

Stacks of small problems (the bootstrap refits) are factored in one LAPACK
call per stack.  Triangular solves use numpy's ``solve``, so only numpy's
BLAS (and its one thread pool) is involved.  Everything here is pure and
safe for concurrent use.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, NotPositiveDefiniteError, SingularDesignError

# Relative tolerance below which an R diagonal marks the design rank deficient.
RANK_RTOL = 1e-10
# Relative tolerance for the symmetry pre-check of Cholesky inputs.
SYMMETRY_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _rank_message(column: int) -> str:
    return f"design is rank deficient: column {column} is collinear with earlier columns"


class LeastSquares(NamedTuple):
    coefficients: np.ndarray          # (m, q)
    residuals: np.ndarray             # (n, q)
    normal_matrix_inverse: np.ndarray  # (m, m)


class StackedLeastSquares(NamedTuple):
    coefficients: np.ndarray    # (C, m, q), zero where rank deficient
    residual_cross: np.ndarray  # (C, q, q), residuals' cross-product
    failures: dict[int, str]    # stack index -> rank-deficiency message


def deficient_columns(r: np.ndarray, m: int) -> np.ndarray:
    """Mask of the columns of R[..., :m, :m] that mark the design rank deficient.

    A column is deficient when its R diagonal is at most ``RANK_RTOL`` times
    the largest diagonal of the same R_xx (so an all-zero design fails at
    column 0).  Leading axes of ``r`` are independent factorizations.
    """
    diag = np.abs(np.diagonal(r[..., :m, :m], axis1=-2, axis2=-1))
    return diag <= RANK_RTOL * diag.max(axis=-1, keepdims=True, initial=0.0)


def check_rank(r: np.ndarray, m: int) -> None:
    """Raise :class:`SingularDesignError` naming the first deficient column of R[:m, :m]."""
    bad = np.flatnonzero(deficient_columns(r, m))
    if bad.size:
        col = int(bad[0])
        raise SingularDesignError(_rank_message(col), column=col)


def augmented_r(augmented, m: int) -> np.ndarray:
    """R factor (no Q) of one augmented matrix [X | Y], X in the first ``m`` columns."""
    a = as_matrix(augmented, "augmented matrix")
    n, width = a.shape
    if not 0 < m < width:
        raise ValueError(f"design width {m} must lie in 1..{width - 1}")
    if n < m:
        raise ValueError(f"underdetermined system: {n} rows < {m} columns")
    return np.linalg.qr(a, mode="r")


def solve_least_squares(design, targets) -> LeastSquares:
    """Minimize ``||targets - design @ B||_F`` over B for a full-rank design.

    One QR of [design | targets].  Raises :class:`SingularDesignError` (with
    the offending column index) when an R diagonal falls to ``RANK_RTOL``
    times the largest or below.
    """
    x = as_matrix(design, "design")
    y = as_matrix(targets, "targets")
    n, m = x.shape
    if y.shape[0] != n:
        raise ValueError(f"design has {n} rows but targets has {y.shape[0]}")
    augmented = np.empty((m + y.shape[1], n)).T  # column-major, the layout LAPACK factors
    augmented[:, :m] = x
    augmented[:, m:] = y
    r = augmented_r(augmented, m)
    check_rank(r, m)
    # R_xx is upper triangular, so partial pivoting keeps its diagonal and
    # numpy's solve is back substitution, on the one BLAS the package loads.
    # A second library's BLAS would bring its own thread pool, contending
    # with numpy's when the two alternate on small calls.
    r_xx = r[:m, :m]
    coef = np.linalg.solve(r_xx, r[:m, m:])
    r_inv = np.linalg.solve(r_xx, np.eye(m))
    return LeastSquares(coef, y - x @ coef, r_inv @ r_inv.T)


def solve_stacked_least_squares(augmented, m: int) -> StackedLeastSquares:
    """Least squares for a stack of augmented matrices [X | Y], one QR each.

    ``augmented`` has shape (C, n, m+q): design X in the first ``m``
    columns, targets Y in the rest.  The coefficients solve R_xx B = R_xy
    and the residual cross-product is R_yy' R_yy.  A replication whose R_xx
    fails the rank rule of :func:`deficient_columns` is masked: it is named
    in ``failures`` and does not abort the stack.  Each replication's
    results do not depend on the others in the stack.
    """
    a = np.asarray(augmented, dtype=float)
    if a.ndim != 3:
        raise ValueError(f"augmented stack must be 3-D, got shape {a.shape}")
    _, n, width = a.shape
    if not 0 < m < width:
        raise ValueError(f"design width {m} must lie in 1..{width - 1}")
    if n < width:
        raise ValueError(f"underdetermined system: {n} rows < {width} augmented columns")
    if not np.isfinite(a).all():
        raise ValueError("augmented stack contains non-finite entries")

    r = np.linalg.qr(a, mode="r")
    deficient = deficient_columns(r, m)
    bad = np.flatnonzero(deficient.any(axis=1))
    failures = {int(i): _rank_message(int(np.argmax(deficient[i]))) for i in bad}

    r_xx = r[:, :m, :m].copy()
    r_xx[bad] = np.eye(m)  # keeps the solve defined; masked results are zeroed
    coef = np.linalg.solve(r_xx, r[:, :m, m:])
    coef[bad] = 0.0
    r_yy = r[:, m:, m:]
    cross = np.swapaxes(r_yy, 1, 2) @ r_yy
    return StackedLeastSquares(coef, cross, failures)


def cholesky_lower(m) -> np.ndarray:
    """Lower-triangular P with ``P @ P.T == m`` for symmetric positive definite m."""
    a = as_matrix(m)
    k = a.shape[0]
    if a.shape[1] != k:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.abs(a).max(initial=0.0)
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within tolerance")

    low = np.zeros((k, k))
    for j in range(k):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if d <= 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: pivot {j} is {d:.3e}", pivot=j
            )
        low[j, j] = np.sqrt(d)
        if j + 1 < k:
            low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def log_det_pd(m) -> float:
    """log determinant of a symmetric positive definite matrix."""
    return float(2.0 * np.sum(np.log(np.diag(cholesky_lower(m)))))


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a square matrix (0.0 for an empty one)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        return 0.0
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed to converge: {exc}") from exc
    return float(np.abs(eig).max())


def companion_matrix(coef: np.ndarray) -> np.ndarray:
    """Companion form of a stack of lag matrices, shape (K*p, K*p).

    ``coef`` has shape (p, K, K); the top block row is [A1 ... Ap] and the
    subdiagonal carries identities.  For p == 0 the result is empty.
    """
    coef = np.asarray(coef, dtype=float)
    if coef.ndim != 3 or coef.shape[1] != coef.shape[2]:
        raise ValueError(f"lag stack must have shape (p, K, K), got {coef.shape}")
    p, k = coef.shape[0], coef.shape[1]
    comp = np.zeros((k * p, k * p))
    if p == 0:
        return comp
    comp[:k] = coef.transpose(1, 0, 2).reshape(k, k * p)
    if p > 1:
        idx = np.arange(k * (p - 1))
        comp[k + idx, idx] = 1.0
    return comp
