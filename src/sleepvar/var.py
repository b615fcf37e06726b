"""VAR(p) estimation by equationwise OLS, lag-order selection, persistence.

The model for a K-variable daily frame is

    Y_t = nu + A_1 Y_{t-1} + ... + A_p Y_{t-p} + u_t

estimated by least squares on the shared lagged design.  Two residual
covariance estimates are kept: the ML divisor (t_eff) feeds the information
criteria, the degrees-of-freedom-adjusted divisor (t_eff - K*p - 1) feeds
coefficient inference and impulse responses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._util import TextSource, freeze, norm_cdf, read_text, write_text
from .errors import DataError, ModelFormatError, NumericError, SingularDesignError
from .frame import SeriesFrame
from .linalg import (
    augmented_r,
    check_rank,
    companion_matrix,
    log_det_pd,
    solve_least_squares,
    spectral_radius,
)
from .errors import NotPositiveDefiniteError

MODEL_SCHEMA_VERSION = 1
CRITERIA = ("aic", "bic", "fpe", "hqic")


@dataclass(frozen=True)
class VarFit:
    """A fitted VAR(p).

    ``coef[l][i][j]`` is the effect of variable j at lag l+1 on the equation
    of variable i.  ``normal_matrix_inverse`` is (X'X)^-1 of the shared
    design (constant first, then the lag-1 block, lag-2 block, ...), which
    inference reuses for coefficient covariances.
    """

    var_names: tuple[str, ...]
    p: int
    intercept: np.ndarray          # (K,)
    coef: np.ndarray               # (p, K, K)
    sigma_u: np.ndarray            # (K, K), df-adjusted divisor
    sigma_u_ml: np.ndarray         # (K, K), ML divisor
    intercept_se: np.ndarray
    intercept_t: np.ndarray
    intercept_p: np.ndarray
    coef_se: np.ndarray
    coef_t: np.ndarray
    coef_p: np.ndarray
    t_eff: int
    residuals: np.ndarray          # (t_eff, K)
    normal_matrix_inverse: np.ndarray  # (K*p+1, K*p+1)

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        k = len(self.var_names)
        shapes = {
            "intercept": (k,), "intercept_se": (k,), "intercept_t": (k,), "intercept_p": (k,),
            "coef": (self.p, k, k), "coef_se": (self.p, k, k),
            "coef_t": (self.p, k, k), "coef_p": (self.p, k, k),
            "sigma_u": (k, k), "sigma_u_ml": (k, k),
            "residuals": (self.t_eff, k),
            "normal_matrix_inverse": (k * self.p + 1, k * self.p + 1),
        }
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0 and 0 in want:
                arr = arr.reshape(want)  # empty lag stacks (p == 0) arrive flat
            if arr.shape != want:
                raise DataError(f"{name} must have shape {want}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise DataError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, freeze(arr))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_params(self) -> int:
        """Regressors per equation: constant plus K coefficients per lag."""
        return self.n_vars * self.p + 1

    def lag_labels(self) -> list[str]:
        """Row labels of the stacked design: const, L1.<v1>, ..., Lp.<vK>."""
        labels = ["const"]
        for lag in range(1, self.p + 1):
            labels.extend(f"L{lag}.{name}" for name in self.var_names)
        return labels

    def params_matrix(self) -> np.ndarray:
        """Stacked per-equation parameters, shape (n_params, K)."""
        out = np.empty((self.n_params, self.n_vars))
        out[0] = self.intercept
        if self.p:
            out[1:] = self.coef.transpose(0, 2, 1).reshape(self.n_vars * self.p, self.n_vars)
        return out

    def stability_radius(self) -> float:
        return spectral_radius(companion_matrix(self.coef)) if self.p else 0.0

    def is_stable(self) -> bool:
        return self.stability_radius() < 1.0


class InformationCriteria(NamedTuple):
    aic: float
    bic: float
    fpe: float
    hqic: float


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


def _lagged_design(values: np.ndarray, p: int, trim: int, with_targets: bool = False):
    """Design/targets using rows trim..T-1 as regression targets (trim >= p).

    ``values`` is (..., T, K); leading axes stack independent series (the
    bootstrap paths), each getting its own (..., T-trim, K*p+1) design.
    Each design is stored column by column (Fortran order), the layout
    LAPACK factors, so the lag copies run along whole columns however small
    K is.  ``with_targets`` returns the augmented [design | targets] as one
    array instead of the pair.
    """
    *batch, t_total, k = values.shape
    n = t_total - trim
    m = k * p + 1
    design = np.empty((*batch, m + k if with_targets else m, n)).swapaxes(-1, -2)
    design[..., 0] = 1.0
    for lag in range(1, p + 1):
        design[..., 1 + (lag - 1) * k : 1 + lag * k] = values[..., trim - lag : t_total - lag, :]
    if with_targets:
        design[..., m:] = values[..., trim:, :]
        return design
    return design, values[..., trim:, :]


def build_lagged_design(frame: SeriesFrame, p: int):
    """Shared design ((T-p) x (K*p+1)) and targets ((T-p) x K) for a VAR(p).

    Row t carries [1, Y_{t-1}, ..., Y_{t-p}]: constant first, then one block
    of K columns per lag in variable order.
    """
    if p < 0:
        raise DataError(f"lag order must be non-negative, got {p}")
    values = _values_or_raise(frame)
    if values.shape[0] - p < 1:
        raise DataError(
            f"not enough observations: T={values.shape[0]} leaves no rows at lag {p}"
        )
    return _lagged_design(values, p, p)


def _map_singular_column(exc: SingularDesignError, names, p: int) -> SingularDesignError:
    k = len(names)
    c = exc.column
    if c == 0:
        label = "const"
    else:
        label = f"L{(c - 1) // k + 1}.{names[(c - 1) % k]}"
    return SingularDesignError(
        f"design is rank deficient at column {label!r} "
        f"(e.g. a constant or duplicated variable); drop or fix that variable",
        column=label,
    )


def fit_var(frame: SeriesFrame, p: int) -> VarFit:
    """Estimate a VAR(p) on a fully-imputed frame (no missing cells).

    Coefficient standard errors come from the df-adjusted residual
    covariance and the shared inverse normal matrix; p-values use the
    asymptotic normal approximation, two sided.
    """
    design, targets = build_lagged_design(frame, p)
    k = frame.n_vars
    t_eff = design.shape[0]
    m = k * p + 1
    dof = t_eff - m
    if dof < 1:
        raise DataError(
            f"not enough observations for inference: t_eff={t_eff} with {m} regressors"
        )
    try:
        coef_stacked, resid, nmi = solve_least_squares(design, targets)
    except SingularDesignError as exc:
        raise _map_singular_column(exc, frame.names, p) from None

    sigma_ml = resid.T @ resid / t_eff
    sigma = resid.T @ resid / dof
    se_stacked = np.sqrt(np.outer(np.diag(nmi), np.diag(sigma)))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stacked = np.where(se_stacked > 0, coef_stacked / se_stacked, 0.0)
    p_stacked = 2.0 * np.vectorize(norm_cdf, otypes=[float])(-np.abs(t_stacked))

    def split(stacked):
        head = stacked[0]
        tail = stacked[1:].reshape(p, k, k).transpose(0, 2, 1) if p else np.zeros((0, k, k))
        return head, tail

    intercept, coef = split(coef_stacked)
    intercept_se, coef_se = split(se_stacked)
    intercept_t, coef_t = split(t_stacked)
    intercept_p, coef_p = split(p_stacked)

    return VarFit(
        var_names=frame.names,
        p=p,
        intercept=intercept,
        coef=coef,
        sigma_u=sigma,
        sigma_u_ml=sigma_ml,
        intercept_se=intercept_se,
        intercept_t=intercept_t,
        intercept_p=intercept_p,
        coef_se=coef_se,
        coef_t=coef_t,
        coef_p=coef_p,
        t_eff=t_eff,
        residuals=resid,
        normal_matrix_inverse=nmi,
    )


def _criteria(sigma_ml: np.ndarray, t_star: int, k: int, p: int) -> InformationCriteria:
    try:
        ld = log_det_pd(sigma_ml)
    except NotPositiveDefiniteError as exc:
        raise NumericError(
            f"log-determinant of the residual covariance underflowed to -inf at lag {p}: {exc}"
        ) from None
    m = p * k * k + k
    regressors = k * p + 1
    if t_star - regressors <= 0:
        raise DataError(f"not enough observations for criteria at lag {p}")
    fpe = ((t_star + regressors) / (t_star - regressors)) ** k * math.exp(ld)
    return InformationCriteria(
        aic=ld + 2.0 * m / t_star,
        bic=ld + m * math.log(t_star) / t_star,
        fpe=fpe,
        hqic=ld + 2.0 * m * math.log(math.log(t_star)) / t_star,
    )


def information_criteria(frame: SeriesFrame, p: int) -> InformationCriteria:
    """AIC, BIC, FPE, and HQIC of a VAR(p) fit on this frame."""
    design, targets = build_lagged_design(frame, p)
    t_star = design.shape[0]
    if t_star <= design.shape[1]:
        raise DataError(
            f"not enough observations for criteria: {t_star} rows, "
            f"{design.shape[1]} regressors at lag {p}"
        )
    try:
        _, resid, _ = solve_least_squares(design, targets)
    except SingularDesignError as exc:
        raise _map_singular_column(exc, frame.names, p) from None
    return _criteria(resid.T @ resid / t_star, t_star, frame.n_vars, p)


def select_order(frame: SeriesFrame, max_lags: int, override: int | None = None) -> OrderSelection:
    """Tabulate the four criteria for lags 0..max_lags on a common sample.

    Every candidate is fit to the targets left after trimming ``max_lags``
    rows, so criteria are comparable across lags; one factorization of the
    max_lags design serves every candidate.  ``selected`` is the AIC
    argmin unless ``override`` pins a lag explicitly.
    """
    if max_lags < 0:
        raise DataError(f"max_lags must be non-negative, got {max_lags}")
    if override is not None and not 0 <= override <= max_lags:
        raise DataError(f"override lag {override} outside 0..{max_lags}")
    values = _values_or_raise(frame)
    t_total, k = values.shape
    t_star = t_total - max_lags
    if t_star < k * max_lags + 2:
        raise DataError(
            f"not enough observations to compare lags up to {max_lags}: "
            f"common sample has {t_star} rows"
        )

    # One QR of [X | Y] at max_lags: the lag-p design is the first 1 + K*p
    # columns of X, so its residual cross-product is R[1+K*p:, m:]' R[1+K*p:, m:].
    m = 1 + k * max_lags
    r = augmented_r(_lagged_design(values, max_lags, max_lags, with_targets=True), m)
    table = np.empty((max_lags + 1, len(CRITERIA)))
    for p in range(max_lags + 1):
        width = 1 + k * p
        try:
            check_rank(r, width)
        except SingularDesignError as exc:
            raise _map_singular_column(exc, frame.names, p) from None
        tail = r[width:, m:]
        table[p] = _criteria(tail.T @ tail / t_star, t_star, k, p)

    minima = {c: int(np.argmin(table[:, i])) for i, c in enumerate(CRITERIA)}
    if override is not None:
        selected, rule = override, f"override({override})"
    else:
        selected, rule = minima["aic"], "aic argmin"
    return OrderSelection(
        max_lags=max_lags, table=table, minima=minima, selected=selected, selection_rule=rule
    )


# ---------------------------------------------------------------------------
# Persistence: JSON, schema version 1.  Floats are written with Python's
# shortest round-trip repr, so save -> load reproduces every field exactly.

_ARRAY_FIELDS = (
    "intercept", "coef", "sigma_u", "sigma_u_ml",
    "intercept_se", "intercept_t", "intercept_p",
    "coef_se", "coef_t", "coef_p",
    "residuals", "normal_matrix_inverse",
)


def save_model(fit: VarFit, sink: TextSource) -> None:
    """Write the fit as a version-1 JSON document (lossless round-trip)."""
    doc: dict = {
        "version": MODEL_SCHEMA_VERSION,
        "var_names": list(fit.var_names),
        "p": fit.p,
        "t_eff": fit.t_eff,
    }
    for name in _ARRAY_FIELDS:
        doc[name] = getattr(fit, name).tolist()
    write_text(sink, json.dumps(doc) + "\n")


def load_model(source: TextSource) -> VarFit:
    """Read a model document written by :func:`save_model`."""
    try:
        doc = json.loads(read_text(source))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupted model document: {exc}")
    if not isinstance(doc, dict):
        raise ModelFormatError("corrupted model document: top level must be an object")
    version = doc.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise ModelFormatError(
            f"unsupported model schema version {version!r} (expected {MODEL_SCHEMA_VERSION})"
        )
    for name in ("var_names", "p", "t_eff", *_ARRAY_FIELDS):
        if name not in doc:
            raise ModelFormatError(f"corrupted model document: missing field {name!r}")
    try:
        arrays = {name: np.asarray(doc[name], dtype=float) for name in _ARRAY_FIELDS}
        return VarFit(
            var_names=tuple(doc["var_names"]),
            p=int(doc["p"]),
            t_eff=int(doc["t_eff"]),
            **arrays,
        )
    except (TypeError, ValueError, DataError) as exc:
        raise ModelFormatError(f"corrupted model document: {exc}")
