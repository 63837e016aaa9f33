"""Training-sample estimation of the monitoring nuisance parameters.

From a covariance-stationary training block this module estimates the mean,
the dependence order M (observations more than M apart are treated as
independent), the table of cross-covariance traces tr{C(h1) C(h2)}, and the
null standard deviation of the windowed statistic.  It also runs a one-sided
normal test that the training block itself is covariance-stationary.

The trace estimator averages products of centered inner products over index
pairs whose groups {s, s+h1} and {t, t+h2} are separated by more than the
dependence order, which keeps the two factors independent and the estimator
unbiased.  With G the n0 x n0 Gram matrix and D_e its e-th diagonal,
D_e[i] = G[i, i+e], the pairs above the diagonal with t - s = e contribute
sum_s D_{e+h2}[s] * D_{e-h1}[s+h1]: a product of two diagonals that both lie
beyond the band |i - j| <= M, because the separation keeps e - h1 and
e + h2 above M.  So the estimator reads only the off-band diagonals.  Laid
out one per row in a zero-padded slab, the two factors over all admissible
e are two equal-length contiguous slices, and each lag pair's sum is one
dot product (see _trace_sums); the pairs below the diagonal are those above
it with the lags swapped.  The band entries, about p times larger than the
off-band ones, are never read, so nothing is subtracted from them and no
cancellation can occur.

Centering by the training sample mean leaves a finite-sample offset in the
Gram matrix: each centered row sums to zero exactly, so the off-band entries
(pairs far enough apart to be independent) absorb minus the in-band mass
spread over the row, of order tr{C(0)}/n0.  With p comparable to or larger
than n0 that offset squares into the trace products and inflates them.
Writing the centered product as g(i,j) = Y_i'Y_j + u_i + u_j, with Y the
truly-centered observations and u_i the perturbation from estimating the
mean, the u-part is exactly additive in (i, j).  Off the band the Y-part has
mean zero, so re-centering the off-band entries (subtract the off-band row
means r_i and r_j, add back their grand mean) removes the offset without
touching the pair signal.  The order scan and the fitted trace table use the
re-centered form, applied to the slab as it is built.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

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


# slab rows copied and re-centered per block in _diagonal_slab
_SLAB_BLOCK = 64


def _centered_gram(train: np.ndarray, mean) -> np.ndarray:
    xc = train - _check_mean(mean, train.shape[1])
    return xc @ xc.T


def _diagonal_slab(gram: np.ndarray, band: int, recenter: bool) -> np.ndarray:
    """Off-band diagonals of the symmetric Gram, flattened into one array.

    Row r of the (n - band - 1) x (n + 1) slab holds diagonal d = band + 1 + r,
    D_d[i] = G[i, i + d] for i < n - d, and zeros after it; the returned
    array is its flat view.  In the flat Gram, G[i, i + d] sits at
    i (n + 1) + d, so one view with row stride n + 1 starting at band + 1
    holds every diagonal as a column; the slab is its transpose, copied in
    blocks of rows, with the entries past each diagonal's end cleared.
    With recenter=True the off-band sample-mean offset is removed entry by
    entry, G - (r_i + r_j) + c with r the off-band row means and c their
    grand mean (see the module docstring), r_j read from a Hankel view of
    r.  The row sums read the slab twice: down its columns for the entries
    right of the band, and down the columns of the slab seen with row
    stride n, whose entry (r, j) is G[j - r, j + band + 1] (zero for j < r),
    for the entries left of it.
    """
    n = gram.shape[0]
    rows = max(n - band - 1, 0)
    slab = np.zeros((rows, n + 1))
    if not rows:
        return slab.reshape(-1)
    diagonals = gram.reshape(-1)[band + 1:n * n - band * n].reshape(rows, n + 1)[:, :rows].T
    # slab row r holds rows - r entries, so a block of rows from r0 spans
    # the first rows - r0 columns, and the anti-triangle at the block's
    # right end lies past its diagonals' ends
    blocks = [(r0, min(r0 + _SLAB_BLOCK, rows)) for r0 in range(0, rows, _SLAB_BLOCK)]
    past_end = np.tri(_SLAB_BLOCK, k=-1, dtype=bool)

    def clear(r0: int, r1: int) -> None:
        b, w = r1 - r0, rows - r0
        slab[r0:r1, w - b:w][:, ::-1][past_end[:b, :b]] = 0.0

    for r0, r1 in blocks:
        slab[r0:r1, :rows - r0] = diagonals[r0:r1, :rows - r0]
        clear(r0, r1)
    if recenter:
        sums = slab[:, :n].sum(axis=0)
        sums[band + 1:] += slab.reshape(-1)[:rows * n].reshape(rows, n)[:, :rows].sum(axis=0)
        idx = np.arange(n)
        counts = np.maximum(idx - band, 0) + np.maximum(n - 1 - band - idx, 0)
        grand = float(sums.sum() / counts.sum())
        row = np.where(counts > 0, sums / np.maximum(counts, 1), grand)
        padded = np.zeros(n + rows)
        padded[:n] = row
        # hankel[r, i] = row[i + d] for slab row r, diagonal d; zero past n
        hankel = np.lib.stride_tricks.sliding_window_view(padded[band + 1:], rows)
        offset = np.empty((_SLAB_BLOCK, rows))
        for r0, r1 in blocks:
            w = rows - r0
            block, both = slab[r0:r1, :w], offset[:r1 - r0, :w]
            np.add(row[:w], hankel[r0:r1, :w], out=both)
            block -= both
            block += grand
            clear(r0, r1)
    return slab.reshape(-1)


def _trace_sums(gram: np.ndarray, band: int, pairs, recenter: bool = True):
    """Yield, for each (h1, h2) in pairs, the average of G[s, t+h2] * G[s+h1, t]
    over the (s, t) whose groups {s, s+h1} and {t, t+h2} are more than band
    apart: the raw estimate of tr{C(h1) C(h2)}.

    Separation depends on e = t - s alone.  Above the diagonal the pairs are
    e >= k = band + max(h1, 0) + max(-h2, 0) + 1, and with D_e the e-th
    diagonal of G their sum is sum_{e >= k} sum_s D_{e+h2}[s] * D_{e-h1}[s+h1].
    Both factors sit on diagonals beyond the band, and in the flat slab of
    _diagonal_slab (row stride n + 1) each is one contiguous slice, the
    second a fixed offset from the first.  Wherever the two slices pair up
    entries outside the admissible (e, s), one of the two falls in a row's
    zero padding, so the sum is one dot.  By symmetry of G the pairs below the diagonal are the pairs above
    it with h1 and h2 swapped, so the estimate is symmetric in (h1, h2).
    Each side holds q(q+1)/2 pairs, q = n - |h1| - |h2| - band - 1.  Values
    are computed as they are drawn, so a caller that stops early pays for
    no more pairs.
    """
    n = gram.shape[0]
    width = n + 1
    slab = _diagonal_slab(gram, band, recenter)

    def upper(h1, h2, q):
        k = band + max(h1, 0) + max(-h2, 0) + 1
        a = (k + h2 - band - 1) * width + max(-h1, 0)
        b = (k - h1 - band - 1) * width + max(h1, 0)
        length = (q - 1) * width + 1
        # einsum rather than np.dot: a multithreaded BLAS dot called from
        # many threads at once (monte_carlo_edd's workers) stalls on the
        # BLAS thread pool, ~3x slower per replicate at 8 workers
        return np.einsum("i,i", slab[a:a + length], slab[b:b + length])

    for h1, h2 in pairs:
        q = n - abs(h1) - abs(h2) - band - 1
        if q <= 0:
            raise InsufficientTrainingError(
                f"no admissible index pairs for lags ({h1}, {h2}) with separation {band}; "
                f"need n0 >= {abs(h1) + abs(h2) + band + 2}"
            )
        yield float((upper(h1, h2, q) + upper(h2, h1, q)) / (q * (q + 1)))


def estimate_trace_cross(
    train, mean, h1: int, h2: int, dep_order: int, recenter: bool = False
) -> float:
    """Estimate tr{C(h1) C(h2)} from the training sample.

    dep_order sets the separation rule: the index groups {s, s+h1} and
    {t, t+h2} must be more than dep_order apart.  With recenter=True the
    off-band sample-mean offset is removed first (see the module
    docstring); the default keeps the plain average of centered products.
    fit_training, the order scan and the null sd all use the re-centered
    form.
    """
    if dep_order < 0:
        raise ConfigurationError(f"dep_order must be >= 0, got {dep_order}")
    gram = _centered_gram(_as_matrix(train), mean)
    return next(_trace_sums(gram, dep_order, [(h1, h2)], recenter))


def _trace_table(gram: np.ndarray, dep_order: int) -> TraceTable:
    """Re-centered trace estimates for |h1|, |h2| <= dep_order, each unordered
    pair computed once (the estimate is symmetric in the two lags)."""
    m = dep_order
    lags = range(-m, m + 1)
    pairs = [(h1, h2) for h1 in lags for h2 in lags if h1 <= h2]
    sums = dict(zip(pairs, _trace_sums(gram, m, pairs)))
    entries = {(h1, h2): sums[min(h1, h2), max(h1, h2)] for h1 in lags for h2 in lags}
    return TraceTable(dep_order=m, entries=entries)


def _check_order_scan(epsilon: float, max_order: int) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_order < 0:
        raise ConfigurationError(f"max_order must be >= 0, got {max_order}")


def _dep_order(gram: np.ndarray, epsilon: float, max_order: int) -> int:
    sums = _trace_sums(gram, max_order, [(h, -h) for h in range(max_order + 1)])
    denom = next(sums)
    if denom <= 0.0:
        raise DegenerateVarianceError(
            "squared-covariance trace estimate is not positive; training data degenerate"
        )
    for h, cross in enumerate(sums, start=1):
        if cross / denom <= epsilon:
            return h - 1
    raise DependenceTooStrongError(
        f"dependence ratio stayed above {epsilon} through lag {max_order}; "
        "raise max_order or revisit the data"
    )


def estimate_dep_order(train, mean, epsilon: float = 0.05, max_order: int = 10) -> int:
    """Smallest h-1 such that the lag-h dependence ratio drops below epsilon.

    The ratio r(h) = tr{C(h) C(-h)} / tr{C(0) C(0)} is 1 at h=0 by
    construction and vanishes beyond the true order.  All estimates use
    separation max_order so they stay unbiased whatever the true order is
    (up to max_order), and the Gram matrix is re-centered off the band to
    strip the sample-mean offset that would otherwise prop up the ratios
    at large p (see the module docstring).
    """
    _check_order_scan(epsilon, max_order)
    return _dep_order(_centered_gram(_as_matrix(train), mean), epsilon, max_order)


def _check_table(table: TraceTable, dep_order: int) -> None:
    if table.dep_order != dep_order:
        raise ConfigurationError(
            f"trace table has dep_order {table.dep_order}, expected {dep_order}"
        )


def _null_sd(table: TraceTable, window: int) -> float:
    plan = build_weight_plan(window, table.dep_order)
    sums = lag_weight_sums(plan)
    h4 = float(window) ** 4
    var = 4.0 / h4 * sum(sums[k] * table[k] ** 2 for k in sums)
    if var <= 0.0:
        warnings.warn(
            "null-variance estimate non-positive; falling back to the (0,0) term",
            RuntimeWarning,
            stacklevel=3,
        )
        var = 4.0 / h4 * sums[(0, 0)] * table[(0, 0)] ** 2
        if var <= 0.0:
            raise DegenerateVarianceError(
                "null-variance estimate is zero; training data degenerate"
            )
    return float(np.sqrt(var))


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
    else:
        _check_table(table, dep_order)
    return _null_sd(table, window)


def _check_rows(n0: int, dep_order: int) -> None:
    if n0 < 2 * dep_order + 5:
        raise InsufficientTrainingError(
            f"need at least {2 * dep_order + 5} training rows for dep_order {dep_order}, got {n0}"
        )


def _stationarity(gram: np.ndarray, table: TraceTable, alpha: float) -> StationarityResult:
    n0 = gram.shape[0]
    plan = build_weight_plan(n0, table.dep_order)
    stat_raw = _summed_statistic(lambda i0, i1, j1: gram[i0:i1, :j1], plan)
    statistic = stat_raw / _null_sd(table, n0)
    z_alpha = NormalDist().inv_cdf(1.0 - alpha)
    return StationarityResult(statistic=statistic, z_alpha=z_alpha, rejected=bool(statistic > z_alpha))


def stationarity_test(
    train,
    mean,
    dep_order: int,
    alpha: float = 0.05,
    table: TraceTable | None = None,
) -> StationarityResult:
    """One-sided test that the training block is covariance-stationary.

    The full-length batch statistic standardized by its estimated null sd is
    asymptotically standard normal; reject when it exceeds the upper-alpha
    normal quantile.  The statistic is read through (u, v) from the off-band
    row and column sums of the Gram.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    x = _as_matrix(train)
    _check_rows(x.shape[0], dep_order)
    gram = _centered_gram(x, mean)
    if table is None:
        table = _trace_table(gram, dep_order)
    else:
        _check_table(table, dep_order)
    return _stationarity(gram, table, alpha)


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
        _check_order_scan(config.epsilon, config.max_order)
        m = _dep_order(gram, config.epsilon, config.max_order)
    _check_rows(n0, m)
    table = _trace_table(gram, m)
    null_sd = _null_sd(table, config.window)
    stationarity = _stationarity(gram, table, config.alpha)
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
