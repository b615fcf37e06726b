"""Seeded generation of VAR processes, random walks, and white noise.

Reproducibility contract: every draw comes from a counter-based Philox-4x64
bit generator keyed by ``(seed, stream)``.  Stream 0 backs the single-path
generators below; batch consumers (the IRF bootstrap) key one stream per
replication, so results never depend on execution order or batch size.
The keying is part of the public behavior and stays fixed across versions.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass

import numpy as np

from ._util import TextSource, freeze, read_text
from .errors import DataError, ModelFormatError, NotPositiveDefiniteError
from .frame import SeriesFrame
from .linalg import cholesky_lower, companion_matrix, spectral_radius

SIM_EPOCH = dt.date(2000, 1, 1)
DEFAULT_BURN_IN = 200
_U64 = (1 << 64) - 1


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic generator for ``(seed, stream)``."""
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class VarProcessSpec:
    """A stable VAR data-generating process with Gaussian innovations.

    ``coef`` stacks the lag matrices, shape (p, K, K); ``innovation_cov``
    must be symmetric positive definite; stability (companion spectral
    radius < 1) is required so stationary sampling is well defined.
    """

    var_names: tuple[str, ...]
    p: int
    intercept: np.ndarray
    coef: np.ndarray
    innovation_cov: np.ndarray
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        k = len(self.var_names)
        if k == 0 or len(set(self.var_names)) != k:
            raise DataError("var_names must be non-empty and unique")
        nu = np.asarray(self.intercept, dtype=float)
        try:
            coef = np.asarray(self.coef, dtype=float).reshape(self.p, k, k)
        except (TypeError, ValueError):
            raise DataError(
                f"coef must reshape to ({self.p}, {k}, {k}), got "
                f"{np.asarray(self.coef, dtype=object).shape}"
            )
        cov = np.asarray(self.innovation_cov, dtype=float)
        if nu.shape != (k,):
            raise DataError(f"intercept must have shape ({k},), got {nu.shape}")
        if cov.shape != (k, k):
            raise DataError(f"innovation_cov must have shape ({k}, {k}), got {cov.shape}")
        if self.p < 0 or self.burn_in < 0:
            raise DataError("p and burn_in must be non-negative")
        if not (np.isfinite(nu).all() and np.isfinite(coef).all() and np.isfinite(cov).all()):
            raise DataError("process parameters must be finite")
        radius = spectral_radius(companion_matrix(coef)) if self.p else 0.0
        if radius >= 1.0:
            raise DataError(f"unstable process: companion spectral radius {radius:.6f} >= 1")
        try:
            cholesky_lower(cov)
        except (NotPositiveDefiniteError, ValueError) as exc:
            raise DataError(f"innovation covariance is not symmetric positive definite: {exc}")
        object.__setattr__(self, "intercept", freeze(nu))
        object.__setattr__(self, "coef", freeze(coef))
        object.__setattr__(self, "innovation_cov", freeze(cov))

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def unconditional_mean(self) -> np.ndarray:
        a_sum = self.coef.sum(axis=0) if self.p else np.zeros((self.n_vars, self.n_vars))
        return np.linalg.solve(np.eye(self.n_vars) - a_sum, self.intercept)


def iterate_paths(
    intercept: np.ndarray,
    coef: np.ndarray,
    innovations: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Run the VAR recursion for a batch of innovation paths.

    ``innovations`` has shape (B, n, K); ``start`` (broadcastable to (B, K))
    seeds the p pre-sample values.  Returns paths of shape (B, n, K).
    """
    b, n, k = innovations.shape
    p = coef.shape[0]
    buf = np.empty((p + n, b, k))
    buf[:p] = start
    for i in range(n):
        acc = innovations[:, i, :] + intercept
        for j in range(p):
            acc = acc + buf[p + i - 1 - j] @ coef[j].T
        buf[p + i] = acc
    return buf[p:].transpose(1, 0, 2)


def simulate_var(spec: VarProcessSpec, t: int, seed: int) -> SeriesFrame:
    """Sample ``t`` observations from the process, discarding the burn-in.

    The recursion starts at the unconditional mean; identical
    ``(spec, t, seed)`` produce bit-identical frames.
    """
    if t < 1:
        raise DataError(f"t must be >= 1, got {t}")
    gen = substream(seed, 0)
    chol = cholesky_lower(spec.innovation_cov)
    n = spec.burn_in + t
    shocks = gen.standard_normal((n, spec.n_vars)) @ chol.T
    path = iterate_paths(
        spec.intercept, spec.coef, shocks[None, :, :], spec.unconditional_mean()
    )[0]
    return SeriesFrame(SIM_EPOCH, spec.var_names, path[spec.burn_in :])


def random_walk(t: int, seed: int) -> np.ndarray:
    """Cumulative sum of t unit Gaussian draws."""
    if t < 1:
        raise DataError(f"t must be >= 1, got {t}")
    return np.cumsum(substream(seed, 0).standard_normal(t))


def white_noise(t: int, seed: int, sd: float = 1.0) -> np.ndarray:
    """t independent Gaussian draws with standard deviation ``sd``."""
    if t < 1:
        raise DataError(f"t must be >= 1, got {t}")
    if not sd > 0.0:
        raise DataError(f"sd must be positive, got {sd}")
    return sd * substream(seed, 0).standard_normal(t)


def load_process_spec(source: TextSource) -> VarProcessSpec:
    """Read a process document: the model JSON schema minus inference fields.

    Required: var_names, p, intercept, coef, and the innovation covariance
    under either ``sigma_u`` or ``innovation_cov``.  Optional: burn_in.
    """
    try:
        doc = json.loads(read_text(source))
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"corrupted process document: {exc}")
    if not isinstance(doc, dict):
        raise ModelFormatError("corrupted process document: top level must be an object")
    version = doc.get("version", 1)
    if version != 1:
        raise ModelFormatError(f"unsupported schema version {version!r} (expected 1)")
    cov = doc.get("sigma_u", doc.get("innovation_cov"))
    missing = [k for k, v in
               [("var_names", doc.get("var_names")), ("p", doc.get("p")),
                ("intercept", doc.get("intercept")), ("coef", doc.get("coef")),
                ("sigma_u", cov)]
               if v is None]
    if missing:
        raise ModelFormatError(f"corrupted process document: missing field(s) {missing}")
    try:
        return VarProcessSpec(
            var_names=tuple(doc["var_names"]),
            p=int(doc["p"]),
            intercept=np.asarray(doc["intercept"], dtype=float),
            coef=np.asarray(doc["coef"], dtype=float),
            innovation_cov=np.asarray(cov, dtype=float),
            burn_in=int(doc.get("burn_in", DEFAULT_BURN_IN)),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"corrupted process document: {exc}")
