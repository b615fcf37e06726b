"""VAR(p) estimation by equationwise OLS, lag-order selection, persistence.

The model for a K-variable daily frame is

    Y_t = nu + A_1 Y_{t-1} + ... + A_p Y_{t-p} + u_t

estimated by least squares on the shared lagged design.  Two residual
covariance estimates are derived: the ML divisor (t_eff) feeds the information
criteria, the degrees-of-freedom-adjusted divisor (t_eff - K*p - 1) feeds
coefficient inference and impulse responses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from reprlib import repr as brief

import numpy as np

from ._util import (
    SCHEMA_VERSION, TextSource, checked_count, checked_names, freeze, frozen_array, load_document,
    norm_cdf, overflow_checked, packed, write_text,
)
from .errors import DataError, NotPositiveDefiniteError, NumericError, SingularDesignError
from .frame import SeriesFrame
from .linalg import (
    augmented_r, cholesky_lower, deficient_columns, is_symmetric, solve_augmented, stability_radius,
)

CRITERIA = ("aic", "bic", "fpe", "hqic")


def lag_labels(names, p: int) -> list[str]:
    """Names of the stacked design columns: const, L1.<v1>, ..., Lp.<vK>."""
    labels = ["const"]
    for lag in range(1, p + 1):
        labels.extend(f"L{lag}.{name}" for name in names)
    return labels


def stack_params(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Per-equation values stacked in design-column order, shape (K*p+1, K).

    ``head`` (K,) is the constant's row; ``tail[l][i][j]`` (p, K, K) belongs
    to variable j at lag l+1 in equation i, the layout of ``VarFit.coef``.
    """
    k = head.shape[0]
    return np.concatenate([head[None, :], tail.transpose(0, 2, 1).reshape(-1, k)])


def unstack_params(stacked: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`stack_params`: the (..., K) head and the (..., p, K, K)
    tail of a (..., K*p+1, K) stack, leading axes stacking models."""
    k = stacked.shape[-1]
    tail = stacked[..., 1:, :].reshape(*stacked.shape[:-2], p, k, k)
    return stacked[..., 0, :], np.swapaxes(tail, -1, -2)


def residual_covariances(residuals: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The df-adjusted and the ML residual covariance of a VAR(p) from its
    (t_eff, K) residuals u: u'u / (t_eff - K*p - 1) and u'u / t_eff."""
    t_eff, k = residuals.shape
    dof = t_eff - (k * p + 1)
    if dof < 1:
        raise DataError(
            f"not enough observations for inference: t_eff={t_eff} with {k * p + 1} regressors"
        )
    cross = residuals.T @ residuals
    return cross / dof, cross / t_eff


def unconditional_mean(intercept: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Mean (I - A_1 - ... - A_p)^-1 nu of a stable VAR; nu itself when p = 0."""
    return np.linalg.solve(np.eye(len(intercept)) - coef.sum(axis=0), intercept)


@dataclass(frozen=True)
class VarFit:
    """A fitted VAR(p): the estimate, and the inference derived from it.

    ``coef[l][i][j]`` is the effect of variable j at lag l+1 on the equation
    of variable i.  ``normal_matrix_inverse`` is (X'X)^-1 of the shared
    design (constant first, then the lag-1 block, lag-2 block, ...).

    The constructor takes the estimate alone.  The residual covariances come
    from ``residuals`` (:func:`residual_covariances`); the standard errors
    are sqrt(diag((X'X)^-1) diag(sigma_u)'), and the p-values use the
    asymptotic normal approximation, two sided (Lutkepohl 2005, sec. 3.2).
    A fresh fit and its saved and loaded copy run this code on the same
    bytes, so every derived array agrees bit for bit.
    """

    var_names: tuple[str, ...]
    p: int
    t_eff: int
    intercept: np.ndarray          # (K,)
    coef: np.ndarray               # (p, K, K)
    residuals: np.ndarray          # (t_eff, K)
    normal_matrix_inverse: np.ndarray  # (K*p+1, K*p+1)
    sigma_u: np.ndarray = field(init=False, repr=False)     # (K, K), df-adjusted divisor
    sigma_u_ml: np.ndarray = field(init=False, repr=False)  # (K, K), ML divisor
    intercept_se: np.ndarray = field(init=False, repr=False)
    intercept_t: np.ndarray = field(init=False, repr=False)
    intercept_p: np.ndarray = field(init=False, repr=False)
    coef_se: np.ndarray = field(init=False, repr=False)
    coef_t: np.ndarray = field(init=False, repr=False)
    coef_p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        names = checked_names(self.var_names, "var_names")
        p, t_eff = checked_count(self.p, "p"), checked_count(self.t_eff, "t_eff")
        k = len(names)
        fields = {"var_names": names, "p": p, "t_eff": t_eff}
        shapes = {
            "intercept": (k,), "coef": (p, k, k), "residuals": (t_eff, k),
            "normal_matrix_inverse": (k * p + 1, k * p + 1),
        }
        for name, want in shapes.items():
            fields[name] = frozen_array(getattr(self, name), name, want)
        nmi = fields["normal_matrix_inverse"]
        if not is_symmetric(nmi):
            raise DataError("normal_matrix_inverse is not symmetric")

        sigma, sigma_ml = residual_covariances(fields["residuals"], p)
        se = np.sqrt(np.outer(np.diag(nmi), np.diag(sigma)))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(se > 0, stack_params(fields["intercept"], fields["coef"]) / se, 0.0)
        pv = 2.0 * np.vectorize(norm_cdf, otypes=[float])(-np.abs(t))
        derived = {"sigma_u": sigma, "sigma_u_ml": sigma_ml}
        for stat, stacked in (("se", se), ("t", t), ("p", pv)):
            derived[f"intercept_{stat}"], derived[f"coef_{stat}"] = unstack_params(stacked, p)
        fields.update((name, freeze(value)) for name, value in derived.items())
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_params(self) -> int:
        """Regressors per equation: constant plus K coefficients per lag."""
        return self.n_vars * self.p + 1

    def lag_labels(self) -> list[str]:
        """Row labels of the stacked design: const, L1.<v1>, ..., Lp.<vK>."""
        return lag_labels(self.var_names, self.p)

    def params_matrix(self) -> np.ndarray:
        """Stacked per-equation parameters, shape (n_params, K)."""
        return stack_params(self.intercept, self.coef)

    def stability_radius(self) -> float:
        return stability_radius(self.coef)


@dataclass(frozen=True)
class OrderSelection:
    """Criteria table over lags 0..max_lags with per-criterion argmins.

    ``table[l]`` holds (aic, bic, fpe, hqic) at lag l, all computed on the
    common sample trimmed for max_lags so the rows are comparable.
    """

    max_lags: int
    table: np.ndarray              # (max_lags+1, 4), columns in CRITERIA order
    minima: dict[str, int]
    selected: int
    selection_rule: str

    def __post_init__(self):
        object.__setattr__(self, "table", freeze(self.table))


def _values_or_raise(frame: SeriesFrame) -> np.ndarray:
    if frame.has_missing():
        n_bad = int(np.isnan(frame.values).sum())
        raise DataError(
            f"frame has {n_bad} missing cell(s); impute before estimation"
        )
    return np.asarray(frame.values)


def _lagged_design(values: np.ndarray, p: int, lead=(), out=None) -> np.ndarray:
    """The augmented least-squares matrix [1, lead..., Y_{t-1}, ..., Y_{t-p} | Y_t].

    ``values`` is (..., T, K); leading axes stack independent series (the
    bootstrap paths), each getting its own (..., T-p, 1+len(lead)+K*p+K)
    matrix over the targets t = p..T-1.  ``lead`` holds extra regressors of
    length T-p, placed after the constant; then comes one block of K
    columns per lag.  The matrix is stored column by column (Fortran
    order), the layout LAPACK factors, so the lag copies run along whole
    columns however small K is.  ``out``, a matrix or stack of that shape
    and layout, is filled instead of a fresh one.
    """
    *batch, t_total, k = values.shape
    m = 1 + len(lead) + k * p
    augmented = np.empty((*batch, m + k, t_total - p)).swapaxes(-1, -2) if out is None else out
    for j, column in enumerate((1.0, *lead)):
        augmented[..., j] = column
    for lag, start in enumerate(range(1 + len(lead), m, k), 1):
        augmented[..., start : start + k] = values[..., p - lag : t_total - lag, :]
    augmented[..., m:] = values[..., p:, :]
    return augmented


def _checked_design(frame: SeriesFrame, p: int) -> np.ndarray:
    """:func:`_lagged_design` of a complete frame that leaves rows at lag ``p``."""
    p = checked_count(p, "lag order")
    values = _values_or_raise(frame)
    if values.shape[0] - p < 1:
        raise DataError(
            f"not enough observations: T={values.shape[0]} leaves no rows at lag {p}"
        )
    return _lagged_design(values, p)


def build_lagged_design(frame: SeriesFrame, p: int):
    """Shared design ((T-p) x (K*p+1)) and targets ((T-p) x K) for a VAR(p).

    Row t carries [1, Y_{t-1}, ..., Y_{t-p}]: constant first, then one block
    of K columns per lag in variable order.
    """
    augmented = _checked_design(frame, p)
    k = frame.n_vars
    return augmented[:, :-k], augmented[:, -k:]


def _require_full_rank(deficient: np.ndarray, names) -> None:
    """Raise :class:`SingularDesignError` at the design label of the first
    column marked in ``deficient`` (a mask over const, L1.<v1>, ...)."""
    if deficient.any():
        c = int(np.argmax(deficient))
        label = lag_labels(names, c // len(names) + 1)[c]  # enough lags to reach column c
        raise SingularDesignError(
            f"design is rank deficient at column {brief(label)} "
            f"(e.g. a constant or duplicated variable); drop or fix that variable",
            column=label,
        )


@overflow_checked("frame values are too large or too small: the fit overflows")
def fit_var(frame: SeriesFrame, p: int) -> VarFit:
    """Estimate a VAR(p) on a fully-imputed frame (no missing cells).

    One QR of the builder's augmented [X | Y] gives the coefficients and
    the shared inverse normal matrix; :class:`VarFit` derives the
    covariances and coefficient inference from the residuals, which are
    computed from the same matrix, so the QR factors a copy of it.
    """
    augmented = _checked_design(frame, p)
    t_eff, m = augmented.shape[0], frame.n_vars * p + 1
    if t_eff - m < 1:
        raise DataError(
            f"not enough observations for inference: t_eff={t_eff} with {m} regressors"
        )
    solved = solve_augmented(augmented, m)
    _require_full_rank(solved.deficient, frame.names)
    resid = augmented[:, m:] - augmented[:, :m] @ solved.coefficients
    intercept, coef = unstack_params(solved.coefficients, p)
    return VarFit(var_names=frame.names, p=p, t_eff=t_eff, intercept=intercept, coef=coef,
                  residuals=resid, normal_matrix_inverse=solved.normal_matrix_inverse())


@overflow_checked("frame values are too large: the order search overflows")
def select_order(frame: SeriesFrame, max_lags: int, override: int | None = None) -> OrderSelection:
    """Tabulate the four criteria for lags 0..max_lags on a common sample.

    Every candidate is fit to the targets left after trimming ``max_lags``
    rows, so criteria are comparable across lags; one factorization of the
    max_lags design serves every candidate.  ``selected`` is the AIC
    argmin unless ``override`` pins a lag explicitly.
    """
    max_lags = checked_count(max_lags, "max_lags")
    if override is not None and (override := checked_count(override, "override lag")) > max_lags:
        raise DataError(f"override lag {override} outside 0..{max_lags}")
    values = _values_or_raise(frame)
    t_total, k = values.shape
    t_star = t_total - max_lags
    m = 1 + k * max_lags
    # the top lag's ML covariance needs K residual degrees of freedom to be full rank
    if t_star - m < k:
        raise DataError(
            f"not enough observations to compare lags up to {max_lags}: "
            f"{max_lags + m + k} are needed, the frame has {t_total}"
        )

    # One QR of [X | Y] at max_lags: the lag-p design is the first 1 + K*p
    # columns of X, so its residual cross-product is R[1+K*p:, m:]' R[1+K*p:, m:].
    r = augmented_r(_lagged_design(values, max_lags), m, overwrite_a=True)
    deficient = deficient_columns(r)
    table = np.empty((max_lags + 1, len(CRITERIA)))
    log_fpe = np.empty(max_lags + 1)  # FPE's argmin: exp(ld) underflows far below unit scale
    for p in range(max_lags + 1):
        width = 1 + k * p
        _require_full_rank(deficient[:width], frame.names)
        tail = r[width:, m:]
        try:
            ld = float(2.0 * np.sum(np.log(np.diag(cholesky_lower(tail.T @ tail / t_star)))))
        except NotPositiveDefiniteError as exc:
            cause = ("has no variance, or its square underflowed" if exc.pivot == 0 else
                     "is collinear with earlier ones, or the log-determinant underflowed to -inf")
            raise NumericError(f"residual covariance at lag {p} is not positive definite: the "
                               f"residual of {brief(frame.names[exc.pivot])} {cause}") from None
        ratio, n_coef = (t_star + width) / (t_star - width), k * width
        try:
            fpe = ratio**k * math.exp(ld)
        except OverflowError:
            raise DataError(f"frame values are too large: the final prediction error overflows "
                            f"at lag {p}") from None
        table[p] = (ld + 2.0 * n_coef / t_star, ld + n_coef * math.log(t_star) / t_star, fpe,
                    ld + 2.0 * n_coef * math.log(math.log(t_star)) / t_star)
        log_fpe[p] = k * math.log(ratio) + ld

    minima = {c: int(np.argmin(log_fpe if c == "fpe" else table[:, i]))
              for i, c in enumerate(CRITERIA)}
    if override is not None:
        selected, rule = override, f"override({override})"
    else:
        selected, rule = minima["aic"], "aic argmin"
    return OrderSelection(
        max_lags=max_lags, table=table, minima=minima, selected=selected, selection_rule=rule
    )


# ---------------------------------------------------------------------------
# Persistence: JSON, schema version 2.  The document holds the estimate, the
# constructor's fields; VarFit derives the rest.  Floats are written with
# Python's shortest round-trip repr, and ``residuals``, nearly all of the
# numbers, as its exact bytes in base64, so save -> load reproduces every
# field bit for bit.  A version-1 document, which also held the derived
# arrays, still loads; those arrays are not read.

_MODEL_FIELDS = ("var_names", "p", "t_eff", "intercept", "coef", "residuals",
                 "normal_matrix_inverse")


def save_model(fit: VarFit, sink: TextSource) -> None:
    """Write the fit as a version-2 JSON document (lossless round-trip)."""
    doc = {
        "version": SCHEMA_VERSION,
        "var_names": list(fit.var_names),
        "p": fit.p,
        "t_eff": fit.t_eff,
        "intercept": fit.intercept.tolist(),
        "coef": fit.coef.tolist(),
        "residuals": packed(fit.residuals),
        "normal_matrix_inverse": fit.normal_matrix_inverse.tolist(),
    }
    write_text(sink, json.dumps(doc) + "\n")


def load_model(source: TextSource) -> VarFit:
    """Read a model document written by :func:`save_model`, or a version-1 one."""
    return load_document(source, "model", ("version", *_MODEL_FIELDS),
                         lambda doc: VarFit(**{name: doc[name] for name in _MODEL_FIELDS}))
