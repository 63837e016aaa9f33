"""Training-sample estimation of the monitoring nuisance parameters.

From a covariance-stationary training block this module estimates the mean,
the dependence order M (observations more than M apart are treated as
independent), the table of cross-covariance traces tr{C(h1) C(h2)}, and the
null standard deviation of the windowed statistic.  It also runs a one-sided
normal test that the training block itself is covariance-stationary.

The trace estimator averages products of centered inner products over index
pairs whose groups {s, s+h1} and {t, t+h2} are separated by more than the
dependence order, which keeps the two factors independent and the estimator
unbiased.

Centering by the training sample mean leaves a finite-sample offset in the
Gram matrix: each centered row sums to zero exactly, so the off-band entries
(pairs far enough apart to be independent) absorb minus the in-band mass
spread over the row, of order tr{C(0)}/n0.  With p comparable to or larger
than n0 that offset squares into the trace products and inflates them.  The
perturbation is exactly additive in the two indices, so re-centering the
off-band part of the Gram (subtract off-band row means, add back the grand
mean) removes it without touching the pair signal; the order scan and the
fitted trace table use the re-centered form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import (
    ConfigurationError,
    DataError,
    DegenerateVarianceError,
    DependenceTooStrongError,
    InsufficientTrainingError,
)
from .stats import _as_matrix, _check_mean, _summed_statistic
from .weights import build_weight_plan, lag_weight_sums

__all__ = [
    "TraceTable",
    "StationarityResult",
    "TrainingSummary",
    "FitConfig",
    "estimate_trace_cross",
    "estimate_dep_order",
    "estimate_null_sd",
    "stationarity_test",
    "fit_training",
]


@dataclass(frozen=True)
class TraceTable:
    """Symmetrized estimates of tr{C(h1) C(h2)} for |h1|, |h2| <= dep_order."""

    dep_order: int
    entries: dict[tuple[int, int], float]

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.entries[key]

    def to_dict(self) -> dict:
        return {
            "dep_order": self.dep_order,
            "entries": {f"{h1},{h2}": v for (h1, h2), v in sorted(self.entries.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TraceTable":
        entries = {}
        for key, v in d["entries"].items():
            h1, h2 = (int(s) for s in key.split(","))
            entries[(h1, h2)] = float(v)
        return cls(dep_order=int(d["dep_order"]), entries=entries)


@dataclass(frozen=True)
class StationarityResult:
    statistic: float
    z_alpha: float
    rejected: bool


@dataclass(frozen=True)
class TrainingSummary:
    """Everything monitoring needs, frozen at fit time.

    train_tail holds the last window-1 raw training rows for detector priming;
    it is process-local and never serialized (summaries loaded from JSON have
    train_tail=None and the detector cold-starts unless primed explicitly).
    """

    n0: int
    p: int
    mean: np.ndarray = field(repr=False)
    dep_order: int
    trace_table: TraceTable
    null_sd: float
    window: int
    stationarity: StationarityResult
    train_tail: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "n0": self.n0,
            "p": self.p,
            "mean": [float(v) for v in self.mean],
            "m_hat": self.dep_order,
            "trace_table": self.trace_table.to_dict(),
            "null_sd": self.null_sd,
            "window": self.window,
            "stationarity": {
                "statistic": self.stationarity.statistic,
                "z_alpha": self.stationarity.z_alpha,
                "rejected": self.stationarity.rejected,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingSummary":
        """Rebuild a summary from to_dict output, rejecting a mean or null_sd
        that monitoring could not use."""
        st = d["stationarity"]
        p = int(d["p"])
        null_sd = float(d["null_sd"])
        if not 0.0 < null_sd < np.inf:
            raise DataError(f"null_sd must be finite and > 0, got {null_sd}")
        return cls(
            n0=int(d["n0"]),
            p=p,
            mean=_check_mean(d["mean"], p),
            dep_order=int(d["m_hat"]),
            trace_table=TraceTable.from_dict(d["trace_table"]),
            null_sd=null_sd,
            window=int(d["window"]),
            stationarity=StationarityResult(
                statistic=float(st["statistic"]),
                z_alpha=float(st["z_alpha"]),
                rejected=bool(st["rejected"]),
            ),
        )


def _centered_gram(train: np.ndarray, mean) -> np.ndarray:
    xc = train - _check_mean(mean, train.shape[1])
    return xc @ xc.T


def _offband_recentered(gram: np.ndarray, band: int) -> np.ndarray:
    """Remove the additive sample-mean offset from the off-band Gram entries.

    Writing the centered product as g(i,j) = Y_i'Y_j + u_i + u_j with Y the
    truly-centered observations and u_i the perturbation from estimating the
    mean, the u-part is exactly additive in (i, j).  Off the band |i-j| > band
    the Y-part has mean zero, so subtracting off-band row means and adding
    back the off-band grand mean cancels the u-part while leaving the pair
    signal intact.  Only off-band entries of the result are meaningful; the
    trace products under a separation of at least `band` never read the rest.
    """
    n = gram.shape[0]
    idx = np.arange(n)
    counts = np.maximum(idx - band, 0) + np.maximum(n - 1 - band - idx, 0)
    total = int(counts.sum())
    if total == 0:
        return gram
    # gram is symmetric: upper-triangle column sums are lower-triangle row sums
    upper = np.triu(gram, band + 1)
    sums = upper.sum(axis=1) + upper.sum(axis=0)
    grand = float(sums.sum() / total)
    row = np.where(counts > 0, sums / np.maximum(counts, 1), grand)
    return gram - np.add.outer(row, row) + grand


def _trace_raw(gram: np.ndarray, h1: int, h2: int, sep: int) -> float:
    """Average of G[s, t+h2] * G[s+h1, t] over group-separated (s, t) pairs.

    Separation depends on t - s alone, so on the (s, t) grid the admissible
    pairs are the triangles above offset sep+|h1|+1 and below -(sep+|h2|+1),
    each of q(q+1)/2 pairs.
    """
    n = gram.shape[0]
    q = n - abs(h1) - abs(h2) - sep - 1
    if q <= 0:
        raise InsufficientTrainingError(
            f"no admissible index pairs for lags ({h1}, {h2}) with separation {sep}; "
            f"need n0 >= {abs(h1) + abs(h2) + sep + 2}"
        )
    s_lo, s_end = max(0, -h1), n - max(0, h1)
    t_lo, t_end = max(0, -h2), n - max(0, h2)
    terms = gram[s_lo:s_end, t_lo + h2:t_end + h2] * gram[s_lo + h1:s_end + h1, t_lo:t_end]
    pairs = np.triu(terms, sep + abs(h1) + 1).sum() + np.tril(terms, -sep - abs(h2) - 1).sum()
    return float(pairs / (q * (q + 1)))


def estimate_trace_cross(
    train, mean, h1: int, h2: int, dep_order: int, recenter: bool = False
) -> float:
    """Estimate tr{C(h1) C(h2)} from the training sample.

    dep_order sets the separation rule: the index groups {s, s+h1} and
    {t, t+h2} must be more than dep_order apart.  With recenter=True the
    off-band sample-mean offset is removed first (see _offband_recentered);
    the default keeps the plain average of centered products.  fit_training,
    the order scan and the null sd all use the re-centered form.
    """
    if dep_order < 0:
        raise ConfigurationError(f"dep_order must be >= 0, got {dep_order}")
    x = _as_matrix(train)
    gram = _centered_gram(x, mean)
    if recenter:
        gram = _offband_recentered(gram, dep_order)
    return _trace_raw(gram, h1, h2, dep_order)


def _trace_table(gram: np.ndarray, dep_order: int) -> TraceTable:
    m = dep_order
    g = _offband_recentered(gram, m)
    raw = {}
    for h1 in range(-m, m + 1):
        for h2 in range(-m, m + 1):
            raw[(h1, h2)] = _trace_raw(g, h1, h2, m)
    entries = {k: 0.5 * (raw[k] + raw[(k[1], k[0])]) for k in raw}
    return TraceTable(dep_order=m, entries=entries)


def estimate_dep_order(
    train, mean, epsilon: float = 0.05, max_order: int = 10, _gram: np.ndarray | None = None
) -> int:
    """Smallest h-1 such that the lag-h dependence ratio drops below epsilon.

    The ratio r(h) = tr{C(h) C(-h)} / tr{C(0) C(0)} is 1 at h=0 by
    construction and vanishes beyond the true order.  All estimates use
    separation max_order so they stay unbiased whatever the true order is
    (up to max_order), and the Gram matrix is re-centered off the band to
    strip the sample-mean offset that would otherwise prop up the ratios
    at large p (see _offband_recentered).
    """
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_order < 0:
        raise ConfigurationError(f"max_order must be >= 0, got {max_order}")
    x = _as_matrix(train)
    gram = _centered_gram(x, mean) if _gram is None else _gram
    gram = _offband_recentered(gram, max_order)
    denom = _trace_raw(gram, 0, 0, max_order)
    if denom <= 0.0:
        raise DegenerateVarianceError(
            "squared-covariance trace estimate is not positive; training data degenerate"
        )
    for h in range(1, max_order + 1):
        ratio = _trace_raw(gram, h, -h, max_order) / denom
        if ratio <= epsilon:
            return h - 1
    raise DependenceTooStrongError(
        f"dependence ratio stayed above {epsilon} through lag {max_order}; "
        "raise max_order or revisit the data"
    )


def estimate_null_sd(
    train, mean, dep_order: int, window: int, table: TraceTable | None = None
) -> float:
    """Null standard deviation of the windowed statistic for the given window.

    Combines the lagged weight sums S(h1,h2) with squared trace estimates:
    sd = sqrt( (4/H^4) * sum_{h1,h2} S(h1,h2) * tr{C(h1)C(h2)}^2 ).  If the
    noisy off-(0,0) cross terms drag the sum non-positive, falls back to the
    (0,0) term with a warning.
    """
    x = _as_matrix(train)
    if table is None:
        table = _trace_table(_centered_gram(x, mean), dep_order)
    elif table.dep_order != dep_order:
        raise ConfigurationError(
            f"trace table has dep_order {table.dep_order}, expected {dep_order}"
        )
    plan = build_weight_plan(window, dep_order)
    sums = lag_weight_sums(plan)
    h4 = float(window) ** 4
    var = 4.0 / h4 * sum(sums[k] * table[k] ** 2 for k in sums)
    if var <= 0.0:
        warnings.warn(
            "null-variance estimate non-positive; falling back to the (0,0) term",
            RuntimeWarning,
            stacklevel=2,
        )
        var = 4.0 / h4 * sums[(0, 0)] * table[(0, 0)] ** 2
        if var <= 0.0:
            raise DegenerateVarianceError(
                "null-variance estimate is zero; training data degenerate"
            )
    return float(np.sqrt(var))


def stationarity_test(
    train,
    mean,
    dep_order: int,
    alpha: float = 0.05,
    table: TraceTable | None = None,
    _gram: np.ndarray | None = None,
) -> StationarityResult:
    """One-sided test that the training block is covariance-stationary.

    The full-length batch statistic standardized by its estimated null sd is
    asymptotically standard normal; reject when it exceeds the upper-alpha
    normal quantile.  The statistic is read through (u, v) from the off-band
    row and column sums of the Gram (fit_training passes the one it holds).
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    x = _as_matrix(train)
    n0 = x.shape[0]
    if n0 < 2 * dep_order + 5:
        raise InsufficientTrainingError(
            f"need at least {2 * dep_order + 5} training rows for dep_order {dep_order}, got {n0}"
        )
    gram = _centered_gram(x, mean) if _gram is None else _gram
    plan = build_weight_plan(n0, dep_order)
    stat_raw = _summed_statistic(lambda i0, i1, j1: gram[i0:i1, :j1], plan)
    if table is None:
        table = _trace_table(gram, dep_order)
    sd = estimate_null_sd(x, mean, dep_order, window=n0, table=table)
    statistic = stat_raw / sd
    z_alpha = float(ndtri(1.0 - alpha))
    return StationarityResult(statistic=statistic, z_alpha=z_alpha, rejected=bool(statistic > z_alpha))


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fit_training; window is the monitoring window size H."""

    window: int
    alpha: float = 0.05
    epsilon: float = 0.05
    dep_order_override: int | None = None
    max_order: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.dep_order_override is not None and self.dep_order_override < 0:
            raise ConfigurationError("dep_order_override must be >= 0")


def fit_training(train, config: FitConfig) -> TrainingSummary:
    """Fit mean, dependence order, trace table, null sd, and stationarity.

    Stationarity rejection is reported in the summary, not raised; the caller
    decides whether to proceed.
    """
    x = _as_matrix(train)
    n0, p = x.shape
    if n0 < 5:
        raise InsufficientTrainingError(f"need at least 5 training rows, got {n0}")
    mean = x.mean(axis=0)
    gram = _centered_gram(x, mean)
    if config.dep_order_override is not None:
        m = config.dep_order_override
    else:
        m = estimate_dep_order(
            x, mean, epsilon=config.epsilon, max_order=config.max_order, _gram=gram
        )
    if n0 < 2 * m + 5:
        raise InsufficientTrainingError(
            f"need at least {2 * m + 5} training rows for dep_order {m}, got {n0}"
        )
    table = _trace_table(gram, m)
    null_sd = estimate_null_sd(x, mean, m, window=config.window, table=table)
    stationarity = stationarity_test(x, mean, m, alpha=config.alpha, table=table, _gram=gram)
    tail = x[-(config.window - 1):].copy() if config.window > 1 else x[:0].copy()
    return TrainingSummary(
        n0=n0,
        p=p,
        mean=mean,
        dep_order=m,
        trace_table=table,
        null_sd=null_sd,
        window=config.window,
        stationarity=stationarity,
        train_tail=tail,
    )
