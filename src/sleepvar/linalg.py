"""Dense linear-algebra kernel backing the estimators.

Every least-squares problem, one matrix or a stack of them, goes through
:func:`solve_augmented`: one Householder QR of the augmented matrix [X | Y],
LAPACK ``dgeqrf`` on each matrix.  No Q is formed, nothing goes through the
normal equations or an SVD, and every answer is read from R =
[[R_xx, R_xy], [0, R_yy]] (Golub & Van Loan, *Matrix Computations*, 5.3):

* coefficients solve R_xx B = R_xy;
* the residual cross-product of Y on the first j columns of X is
  R[j:, m:]' R[j:, m:], so a nested order search (every column prefix)
  needs one factorization, not one per candidate;
* ``(X'X)^-1`` is R_xx^-1 R_xx^-T;
* an R diagonal small against its own column marks the column rank
  deficient in any units (:func:`deficient_columns`); callers raise or mask it.

``dgeqrf`` is called through numpy's own ``lapack_lite``, so only numpy's
LAPACK and BLAS (and its one thread pool) are involved.  It factors a
column-major matrix, the layout the lagged-design builder returns, in place:
a caller that owns a freshly built matrix passes ``overwrite_a=True`` and
no copy of it is made; any other input gets one private column-major copy.
One workspace query serves a whole stack, with the optimal block size
numpy's own QR uses, so R is bit-identical to that QR's ``mode="r"``.
Every covariance the package factors is one LAPACK ``dpotrf`` in
:func:`cholesky_lower`; the bootstrap refits read their factors from R.

:data:`one_blas_thread` holds numpy's OpenBLAS at one thread around each
call of :func:`augmented_r`, once per QR, and gives the caller's count back
on exit.  The QR's Householder updates on long designs are the only BLAS
work here that OpenBLAS threads; threading gains nothing on matrices this
small and loses to contention, and LAPACK's blocked QR of a design wider
than 128 columns sums in another order when its BLAS calls thread, so one
thread also makes every R factor the same bits at any thread count.  The
thread count is process-wide: the first entry saves the caller's count and
the last exit restores it, so other threads of a host process run
single-threaded BLAS while a QR is active.  Where
numpy ships no OpenBLAS with a thread setter (MKL, Accelerate, other
wheel layouts), :data:`HOLDS_BLAS_THREADS` is False and the guard does
nothing.

Malformed input raises :class:`DataError`.  Everything here is safe for
concurrent use, and nothing but ``overwrite_a=True`` writes to an argument.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import NamedTuple

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (
    ConvergenceError, DataError, NotPositiveDefiniteError, SingularDesignError, SleepVarError,
)

# Prefixes of the OpenBLAS thread setter and getter in numpy's wheels:
# scipy_openblas_{set,get}_num_threads64_ from numpy 2.0, and
# openblas_{set,get}_num_threads64_ before.
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")


def _openblas_threads():
    """The (set, get) thread-count functions of the OpenBLAS numpy has
    loaded from its ``numpy.libs`` directory, or None if there is none."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(name for name in os.listdir(libs) if "openblas" in name)
    except OSError:
        return None
    for name in names:
        try:  # a library numpy has not loaded is not loaded here either
            lib = ctypes.CDLL(os.path.join(libs, name), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            set_threads = getattr(lib, f"{prefix}_set_num_threads64_", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


class OneBlasThread(contextlib.ContextDecorator):
    """Context and decorator that holds BLAS at one thread while any entry is open.

    ``threads`` is a (set, get) pair of thread-count functions, or None for
    a guard that does nothing.  Entries are counted under a lock, so nested
    and concurrent entries share one hold: the first entry saves the
    caller's thread count and sets one thread, and the last exit restores
    the saved count, also when the block raises.
    """

    def __init__(self, threads):
        self.threads = threads
        self._lock = threading.Lock()
        self._entries = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._entries == 0 and self.threads is not None:
                set_threads, get_threads = self.threads
                self._saved = get_threads()
                if self._saved != 1:
                    set_threads(1)
            self._entries += 1
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._entries -= 1
            if self._entries == 0 and self.threads is not None and self._saved != 1:
                self.threads[0](self._saved)
        return False


# The guard over numpy's own OpenBLAS, and whether it holds the thread count.
one_blas_thread = OneBlasThread(_openblas_threads())
HOLDS_BLAS_THREADS = one_blas_thread.threads is not None

# Relative tolerance below which an R diagonal marks its column rank deficient.
RANK_RTOL = 1e-10
# Relative tolerance for the symmetry pre-check of Cholesky inputs.
SYMMETRY_RTOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def rank_message(column: int) -> str:
    return f"design is rank deficient: column {column} is collinear with earlier columns"


class LeastSquares(NamedTuple):
    coefficients: np.ndarray          # (m, q)
    residuals: np.ndarray             # (n, q)
    normal_matrix_inverse: np.ndarray  # (m, m)


class AugmentedSolve(NamedTuple):
    """Everything :func:`solve_augmented` reads from R, for one matrix or a stack."""

    r: np.ndarray             # (..., min(n, m+q), m+q)
    coefficients: np.ndarray  # (..., m, q), zero where rank deficient
    deficient: np.ndarray     # (..., m), columns failing the rank rule

    def normal_matrix_inverse(self) -> np.ndarray:
        """(X'X)^-1 = R_xx^-1 R_xx^-T of a full-rank design, shape (..., m, m)."""
        m = self.deficient.shape[-1]
        r_inv = np.linalg.solve(self.r[..., :m, :m], np.eye(m))
        return r_inv @ np.swapaxes(r_inv, -1, -2)


def deficient_columns(r: np.ndarray) -> np.ndarray:
    """Mask over R's columns with a diagonal: |R[j, j]| <= ``RANK_RTOL`` max_i |R[i, j]|.

    A zero column fails, and no verdict depends on a column's units or on
    the columns after it.  Leading axes of ``r`` are independent factorizations.
    """
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    return diag <= RANK_RTOL * np.abs(r[..., : diag.shape[-1]]).max(axis=-2, initial=0.0)


@one_blas_thread
def augmented_r(augmented, m: int, overwrite_a: bool = False) -> np.ndarray:
    """R factors (no Q) of augmented matrices [X | Y], shape (..., n, m+q),
    X in the first ``m`` columns and leading axes stacking problems; n >= m.

    Returns a fresh (..., min(n, m+q), m+q) upper triangle.  With
    ``overwrite_a``, a writeable float64 array whose last two axes are
    column-major is factored in place (its contents are destroyed); any
    other input is copied once.
    """
    a = np.asarray(augmented, dtype=float)
    if a.ndim < 2:
        raise DataError(f"augmented matrix must be at least 2-D, got shape {a.shape}")
    n, width = a.shape[-2:]
    if not 0 < m < width:
        raise DataError(f"design width {m} outside 1..{width - 1}")
    if n < m:
        raise DataError(f"underdetermined system: {n} rows < {m} columns")
    if not np.isfinite(a).all():
        raise DataError("augmented matrix contains non-finite entries")
    columns = np.swapaxes(a, -1, -2)  # each matrix's columns, C-contiguous when column-major
    if not (overwrite_a and a.flags.writeable and columns.flags.c_contiguous):
        columns = columns.copy()
        a = np.swapaxes(columns, -1, -2)
    matrices = [columns[index] for index in np.ndindex(a.shape[:-2])]
    tau, work = np.empty(min(n, width)), np.empty(1)
    if matrices:
        _dgeqrf(matrices[0], tau, work, -1)  # workspace query: the optimal size in work[0]
        work = np.empty(max(1, width, int(work[0])))
    for matrix in matrices:
        _dgeqrf(matrix, tau, work, work.size)
    return np.triu(a[..., : min(n, width), :])


def _dgeqrf(columns: np.ndarray, tau: np.ndarray, work: np.ndarray, lwork: int) -> None:
    """LAPACK dgeqrf on one column-major matrix, given as its C-contiguous
    (width, n) transpose; ``lwork`` -1 queries the workspace into work[0]."""
    width, n = columns.shape
    info = lapack_lite.dgeqrf(n, width, columns, max(1, n), tau, work, lwork, 0)["info"]
    if info != 0:
        raise SleepVarError(f"LAPACK dgeqrf failed with info={info}")


def solve_augmented(augmented, m: int, overwrite_a: bool = False) -> AugmentedSolve:
    """Least squares of Y on X for an augmented [X | Y] or a stack, one QR each.

    ``overwrite_a`` lets :func:`augmented_r` factor ``augmented`` in place.
    A matrix whose R_xx fails the rank rule of :func:`deficient_columns` is
    masked, not raised: ``deficient`` marks its columns and its coefficients
    are zero.  Each matrix's results do not depend on the rest of the stack.
    """
    r = augmented_r(augmented, m, overwrite_a)
    deficient = deficient_columns(r)[..., :m]
    bad = deficient.any(axis=-1)
    # R_xx is upper triangular, so partial pivoting keeps its diagonal and
    # numpy's solve is back substitution, on the one BLAS the package loads.
    # A second library's BLAS would bring its own thread pool, contending
    # with numpy's when the two alternate on small calls.
    r_xx = r[..., :m, :m].copy()
    r_xx[bad] = np.eye(m)  # keeps the solve defined; masked results are zeroed
    coef = np.linalg.solve(r_xx, r[..., :m, m:])
    coef[bad] = 0.0
    return AugmentedSolve(r, coef, deficient)


def solve_least_squares(design, targets) -> LeastSquares:
    """Minimize ``||targets - design @ B||_F`` over B for a full-rank design.

    One QR of [design | targets] through :func:`solve_augmented`.  Raises
    :class:`SingularDesignError` (with the offending column index) when an R
    diagonal falls to ``RANK_RTOL`` times its column's largest entry or below.
    """
    x, y = as_matrix(design, "design"), as_matrix(targets, "targets")
    (n, m), q = x.shape, y.shape[1]
    if y.shape[0] != n:
        raise DataError(f"design has {n} rows but targets has {y.shape[0]}")
    augmented = np.empty((m + q, n)).T  # column-major, the layout LAPACK factors
    augmented[:, :m], augmented[:, m:] = x, y
    solved = solve_augmented(augmented, m, overwrite_a=True)
    if solved.deficient.any():
        col = int(np.argmax(solved.deficient))
        raise SingularDesignError(rank_message(col), column=col)
    coef = solved.coefficients
    return LeastSquares(coef, y - x @ coef, solved.normal_matrix_inverse())


def is_symmetric(a: np.ndarray) -> bool:
    """Whether square ``a`` equals its transpose to ``SYMMETRY_RTOL`` times its largest entry."""
    scale = np.abs(a).max(initial=0.0)
    return bool(np.abs(a - a.T).max(initial=0.0) <= SYMMETRY_RTOL * max(scale, 1e-300))


def cholesky_lower(m) -> np.ndarray:
    """Lower-triangular P with ``P @ P.T == m`` for a symmetric positive
    definite (K, K) matrix.

    A matrix without a factor raises :class:`NotPositiveDefiniteError` with
    its ``pivot``, the first j whose leading block a[:j+1, :j+1] has none,
    worded with that block's Schur complement.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("matrix contains non-finite entries")
    if not is_symmetric(a):
        raise DataError("matrix is not symmetric within tolerance")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        low = np.zeros((0, 0))
        for j in range(len(a)):
            try:
                low = np.linalg.cholesky(a[: j + 1, : j + 1])
            except np.linalg.LinAlgError:
                w = np.linalg.solve(low, a[:j, j])
                raise NotPositiveDefiniteError(
                    f"matrix is not positive definite: pivot {j} is {a[j, j] - w @ w:.3e}",
                    pivot=j,
                ) from None
        raise  # unreachable: the whole matrix fails only where a leading block does


def stability_radius(coef: np.ndarray) -> float:
    """Spectral radius of the companion of a checked (p, K, K) lag stack, 0.0 at p = 0:
    [A1 ... Ap] over the identities K rows below the diagonal (Lütkepohl 2005, 2.1)."""
    p, k = coef.shape[0], coef.shape[1]
    comp = np.eye(k * p, k=-k)
    if p:
        comp[:k] = coef.transpose(1, 0, 2).reshape(k, k * p)
    try:
        eig = np.linalg.eigvals(comp)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue computation failed to converge: {exc}") from exc
    return float(np.abs(eig).max(initial=0.0))
