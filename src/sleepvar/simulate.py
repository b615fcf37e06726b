"""Seeded generation of VAR processes, random walks, and white noise.

Reproducibility contract: every draw comes from a counter-based Philox-4x64
bit generator keyed by ``(seed, stream)``.  Stream 0 backs the single-path
generators below; batch consumers (the IRF bootstrap) key one stream per
replication, so results never depend on execution order or batch size.
The keying is part of the public behavior and stays fixed across versions.

Batches of paths run through one recursion, :func:`iterate_paths`, over a
time-major buffer with one column per path.  Each step is one product of
the lag window with the previous p rows, and a path's values do not depend
on the batch it runs in, so the bootstrap can run in blocks of any size.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from ._util import (TextSource, allocating, checked_count, checked_names, checked_real, frozen_array,
                    load_document, overflow_checked)
from .errors import DataError, NotPositiveDefiniteError
from .frame import SeriesFrame
from .linalg import cholesky_lower, stability_radius
from .var import residual_covariances, unconditional_mean

SIM_EPOCH = dt.date(2000, 1, 1)
DEFAULT_BURN_IN = 200
_U64 = (1 << 64) - 1


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent deterministic generator for ``(seed, stream)``: two
    integers of any sign and size, each keyed by its value modulo 2**64."""
    key = np.array([checked_count(seed, "seed", None) & _U64,
                    checked_count(stream, "stream", None) & _U64], dtype=np.uint64)
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
        names = checked_names(self.var_names, "var_names")
        p, k = checked_count(self.p, "p"), len(names)
        fields = {
            "var_names": names, "p": p, "burn_in": checked_count(self.burn_in, "burn_in"),
            "intercept": frozen_array(self.intercept, "intercept", (k,)),
            "coef": frozen_array(self.coef, "coef", (p, k, k)),
            "innovation_cov": frozen_array(self.innovation_cov, "innovation_cov", (k, k)),
        }
        radius = stability_radius(fields["coef"])
        if radius >= 1.0:
            raise DataError(f"unstable process: companion spectral radius {radius:.6f} >= 1")
        try:
            cholesky_lower(fields["innovation_cov"])
        except (NotPositiveDefiniteError, DataError) as exc:
            raise DataError(f"innovation covariance is not symmetric positive definite: {exc}")
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def unconditional_mean(self) -> np.ndarray:
        return unconditional_mean(self.intercept, self.coef)


def iterate_paths(
    intercept: np.ndarray,
    coef: np.ndarray,
    innovations: np.ndarray,
    start: np.ndarray,
    out=None,
) -> np.ndarray:
    """Run the VAR recursion for a batch of innovation paths.

    ``innovations`` has shape (B, n, K); ``start`` (broadcastable to (B, K))
    seeds the p pre-sample values.  Returns paths of shape (B, n, K).

    The paths are advanced in one time-major (p+n, K, max(B, 2)) buffer, one
    column per path: each step is one product of the lag window
    [A_p ... A_1] with the p rows before it, added in place to the
    innovation and intercept.  ``out``, a C-contiguous buffer of that shape,
    is used instead of a fresh one, and the returned paths are its view;
    ``innovations`` may be that buffer's own view ``out[p:, :, :B]``
    transposed to (B, n, K).  A path's values do not depend on the batch
    size nor on its place in it.
    """
    b, n, k = innovations.shape
    p = coef.shape[0]
    # numpy hands a one-column product to gemv, whose sums are ordered
    # differently from gemm's; a duplicate column keeps it on gemm.
    width = max(b, 2)
    paths = np.empty((p + n, k, width)) if out is None else out
    paths[:p] = np.broadcast_to(start, (b, k)).T
    paths[p:] = innovations.transpose(1, 2, 0)
    paths[p:] += intercept[:, None]
    if p:
        # A one-row product also goes to gemv, whose result depends on the
        # column's position; a zero row pads K = 1 to two.
        lags = np.zeros((max(k, 2), p * k))
        lags[:k] = coef[::-1].transpose(1, 0, 2).reshape(k, p * k)
        rows = paths.reshape((p + n) * k, width)
        step = np.empty((lags.shape[0], width))
        head = step[:k]
        for i in range(n):
            lags.dot(rows[i * k : (i + p) * k], out=step)
            paths[i + p] += head
    return paths[p:, :, :b].transpose(2, 0, 1)


def _draws(seed: int, shape: tuple[int, ...], steps: str) -> np.ndarray:
    """Standard normal draws of ``shape`` from stream 0 of ``seed``, or a DataError."""
    with allocating(f"{steps} = {shape[0]} steps are too many to simulate"):
        return substream(seed, 0).standard_normal(shape)


def simulate_var(spec: VarProcessSpec, t: int, seed: int) -> SeriesFrame:
    """Sample ``t`` observations from the process, discarding the burn-in.

    The recursion starts at the unconditional mean; identical
    ``(spec, t, seed)`` produce bit-identical frames.
    """
    t = checked_count(t, "t", 1)
    draws = _draws(seed, (spec.burn_in + t, spec.n_vars), "burn_in + t")
    shocks = draws @ cholesky_lower(spec.innovation_cov).T
    path = iterate_paths(
        spec.intercept, spec.coef, shocks[None, :, :], spec.unconditional_mean()
    )[0]
    return SeriesFrame(SIM_EPOCH, spec.var_names, path[spec.burn_in :])


def random_walk(t: int, seed: int) -> np.ndarray:
    """Cumulative sum of t unit Gaussian draws."""
    return np.cumsum(_draws(seed, (checked_count(t, "t", 1),), "t"))


def white_noise(t: int, seed: int, sd: float = 1.0) -> np.ndarray:
    """t independent Gaussian draws with standard deviation ``sd``, a finite
    positive real small enough that no draw overflows."""
    t, sd = checked_count(t, "t", 1), checked_real(sd, "sd", 0.0, np.inf)
    with overflow_checked(f"sd {sd!r} is too large: a draw overflows"):
        return sd * _draws(seed, (t,), "t")


def load_process_spec(source: TextSource) -> VarProcessSpec:
    """Read a process document: the model JSON schema minus inference fields.

    Required: var_names, p, intercept, coef, and the innovation covariance
    under either ``sigma_u`` or ``innovation_cov``, or else the ``residuals``
    and ``t_eff`` of a model document, from which it is derived as
    :class:`~sleepvar.var.VarFit` derives ``sigma_u``.  Optional: version, burn_in.
    """

    def build(doc: dict) -> VarProcessSpec:
        cov = doc.get("sigma_u", doc.get("innovation_cov"))
        if cov is None and "residuals" in doc:  # a version-2 model document
            if "t_eff" not in doc:
                raise DataError("missing field 't_eff'")
            names, p = checked_names(doc["var_names"], "var_names"), checked_count(doc["p"], "p")
            shape = (checked_count(doc["t_eff"], "t_eff"), len(names))
            cov = residual_covariances(frozen_array(doc["residuals"], "residuals", shape), p)[0]
        if cov is None:
            raise DataError("missing field 'sigma_u'")
        return VarProcessSpec(
            var_names=doc["var_names"], p=doc["p"], intercept=doc["intercept"], coef=doc["coef"],
            innovation_cov=cov, burn_in=doc.get("burn_in", DEFAULT_BURN_IN),
        )

    return load_document(source, "process", ("var_names", "p", "intercept", "coef"), build)
