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
it with the lags swapped.  A fit builds one slab, of every diagonal above
the main one, and an estimate at band b starts b rows into it; the order
scan, the trace table and the stationarity test all read it, and the Gram
is dropped once it is built.  The band entries, about p times larger than
the off-band ones, never enter an estimate, so nothing is subtracted from
them and no cancellation can occur.

Centering by the training sample mean leaves a finite-sample offset in the
Gram matrix: each centered row sums to zero exactly, so the off-band entries
(pairs far enough apart to be independent) absorb minus the in-band mass
spread over the row, of order tr{C(0)}/n0.  With p comparable to or larger
than n0 that offset squares into the trace products and inflates them.
Writing the centered product as g(i,j) = Y_i'Y_j + u_i + u_j, with Y the
truly-centered observations and u_i the perturbation from estimating the
mean, the u-part is exactly additive in (i, j).  Off the band the Y-part has
mean zero, so re-centering the off-band entries, G - r_i - r_j + c with r
the off-band row means and c their grand mean, removes the offset without
touching the pair signal.  The order scan and the fitted trace table use the
re-centered form, and it is applied in closed form, never entry by entry.
With rho = r - c/2 the re-centered entry is G[i, j] - rho_i - rho_j, so over
the admissible set A = {(s, t): t - s >= k, s >= s0, t <= t1} of a lag pair

  sum_A (G1 - a)(G2 - b) = sum_A G1 G2 - sum_A b (G1 - a) - sum_A a G2,

G1 = G[s, t+h2], G2 = G[s+h1, t], a = rho_s + rho_{t+h2} and
b = rho_{s+h1} + rho_t.  This is the expansion of a product, so it is exact
in exact arithmetic.  The first term is the raw slab dot.  Each of the four
parts of the others is a rho, shifted, times a sum over one row or one
column of the pairs A admits, of G or of G - rho_i - rho_j: because A is cut
by t - s >= k, those are the sums of a row right of, or of a column above,
the pair's first admissible diagonal, k + h2 or k - h1, less the at most
|h1| or |h2| entries that A drops at the edge of the matrix.  The slab's
column sums give them (see _OffBand), so they read the same off-band
diagonals as the dot, and r and c come from the same sums.  They cost
O(n0) per lag pair, in one batch for all the pairs of a band, against the
O(n0^2) of its dot, and no band entry enters them.
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
from .stats import _as_matrix, _centered_offband_sums, _check_mean, _summed_statistic
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


# slab rows copied per block in _diagonal_slab
_SLAB_BLOCK = 64


def _centered_gram(train: np.ndarray, mean) -> np.ndarray:
    xc = train - _check_mean(mean, train.shape[1])
    return xc @ xc.T


def _diagonal_slab(gram: np.ndarray) -> np.ndarray:
    """The Gram's diagonals above its main one, flattened into one array.

    Row r of the (n - 1) x (n + 1) slab holds diagonal d = r + 1,
    D_d[i] = G[i, i + d] for i < n - d, and zeros after it; the returned
    array is its flat view, so the diagonals beyond a band b start b rows
    (b (n + 1) entries) in.  In the flat Gram, G[i, i + d] sits at
    i (n + 1) + d, so one view with row stride n + 1 starting at 1 holds
    every diagonal as a column; the slab is its transpose, copied in blocks
    of rows, with the entries past each diagonal's end cleared.
    """
    n = gram.shape[0]
    rows = max(n - 1, 0)
    slab = np.zeros((rows, n + 1))
    if not rows:
        return slab.reshape(-1)
    diagonals = gram.reshape(-1)[1:n * n].reshape(rows, n + 1)[:, :rows].T
    # slab row r holds rows - r entries, so a block of rows from r0 spans
    # the first rows - r0 columns, and the anti-triangle at the block's
    # right end lies past its diagonals' ends
    past_end = np.tri(_SLAB_BLOCK, k=-1, dtype=bool)
    for r0 in range(0, rows, _SLAB_BLOCK):
        r1 = min(r0 + _SLAB_BLOCK, rows)
        b, w = r1 - r0, rows - r0
        slab[r0:r1, :w] = diagonals[r0:r1, :w]
        slab[r0:r1, w - b:w][:, ::-1][past_end[:b, :b]] = 0.0
    return slab.reshape(-1)


def _suffix_sums(rows: np.ndarray, depth: int) -> np.ndarray:
    """out[e - 1] = the column sums of rows[e - 1:], for e = 1 .. depth."""
    out = np.empty((depth, rows.shape[1]))
    out[-1] = rows[depth - 1:].sum(axis=0)
    np.cumsum(rows[:depth - 1][::-1], axis=0, out=out[:depth - 1][::-1])
    out[:-1] += out[-1]
    return out


class _OffBand:
    """A fit's one slab of the Gram's off-diagonal entries, and the sums
    that re-center the trace estimates of any band in closed form.

    The slab is that of _diagonal_slab.  Seen with row stride n instead of
    n + 1, its entry (r, j) is G[j - r, j + 1] (zero for j < r or j = n - 1),
    so the column sums of the slab, from row e - 1 down, are the row sums
    right of diagonal e, P_e(s) = sum_{j >= s + e} G[s, j], and those of the
    stride-n view are the column sums above it, Q_e(j) = sum_{s <= j - e}
    G[s, j], shifted one place.  Re-centered estimates at lags up to `lags`
    read P_e and Q_e, computed when first asked for, and the sums of the
    Gram's first and last `lags` columns, copied at construction; after
    that nothing reads the Gram, so the caller can drop it.
    """

    def __init__(self, gram: np.ndarray, lags: int):
        n = gram.shape[0]
        lags = min(max(lags, 0), n)
        self.n = n
        self.slab = _diagonal_slab(gram)
        # edges[0, c, s] = sum_{j >= n - c} G[s, j] and
        # edges[1, c, j] = sum_{s < c} G[s, j], c = 0 .. lags
        self.edges = np.zeros((2, lags + 1, n))
        np.cumsum(gram[:, n - lags:][:, ::-1].T, axis=0, out=self.edges[0, 1:])
        np.cumsum(gram[:lags], axis=0, out=self.edges[1, 1:])
        self._partials = np.zeros((2, 0, n))

    def _views(self) -> tuple[np.ndarray, np.ndarray]:
        """The slab as (n - 1) x n rows of stride n + 1, then of stride n."""
        n = self.n
        flat = self.slab
        return flat.reshape(n - 1, n + 1)[:, :n], flat[:(n - 1) * n].reshape(n - 1, n)

    def partials(self, depth: int) -> np.ndarray:
        """partials[0, e - 1] = P_e and partials[1, e - 1] = Q_e for e = 1 ..
        depth (depth < n) at least; each pass over the slab serves every
        shallower request after it."""
        if self._partials.shape[1] < depth:
            right, left = self._views()
            pq = np.zeros((2, depth, self.n))
            pq[0] = _suffix_sums(right, depth)
            pq[1, :, 1:] = _suffix_sums(left, depth)[:, :-1]
            self._partials = pq
        return self._partials

    def offband_squares(self, band: int) -> tuple[np.ndarray, np.ndarray]:
        """row[i] = sum_{j < i - band} G[i, j]^2 and col[j] = sum_{i > j + band}
        G[i, j]^2, as _offband_sums gives them, from the squared slab."""
        n = self.n
        row, col = np.zeros(n), np.zeros(n)
        if band < n - 1:
            right, left = (v[band:] for v in self._views())
            col[:] = np.einsum("ij,ij->j", right, right)
            row[1:] = np.einsum("ij,ij->j", left, left)[:-1]
        return row, col


def _recentering(off: _OffBand, band: int, h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """corr[i] = the raw upper sum of lag pair (h1[i], h2[i]) at separation
    band less its re-centered one (see the module docstring), for every
    pair at once.

    With a = rho_s + rho_{t+h2} and b = rho_{s+h1} + rho_t the re-centered
    product is (G1 - a)(G2 - b), G1 = G[s, t+h2] and G2 = G[s+h1, t], so over
    the admissible set A it sums to sum G1 G2 - sum b (G1 - a) - sum a G2.
    Each of the four parts of the last two sums is a rho, shifted, times a
    one-sided sum of G or of G - rho_i - rho_j over a row or a column: the
    partial sum P_e or Q_e from the pair's first admissible diagonal, less
    the entries that A drops at the matrix edge.
    """
    n = off.n
    idx = np.arange(n)
    pos = np.maximum(np.stack([h1, h2, -h1, -h2]), 0)  # h1+, h2+, h1-, h2-
    k = band + 1 + pos[0] + pos[3]  # A is t - s >= k, s >= s0, t <= t1
    s0, t1 = pos[2], n - 1 - pos[1]
    e, f = k + h2, k - h1  # first admissible diagonal of G1, of G2
    top = int(max(e.max(), f.max()))
    pq = off.partials(top)
    count = np.maximum(idx - band, 0) + np.maximum(n - 1 - band - idx, 0)
    sums = pq[0, band] + pq[1, band]  # the off-band row sums
    grand = float(sums.sum() / count.sum())
    rho = np.where(count > 0, sums / np.maximum(count, 1), grand) - grand / 2
    cum = np.zeros(n + 1)  # cum[c] = sum of the first c rho
    np.cumsum(rho, out=cum[1:])
    ends = np.stack([cum[n] - cum[::-1], cum])  # sums of the last, first c rho
    kind = np.arange(2)[:, None, None]
    # P_e, Q_e for e = band + 1 .. top, then the same sums of G - rho_i - rho_j:
    # P_e(s) spans the (n - s - e)+ entries right of s + e, and loses that
    # many rho_s and the rho_j there; Q_e(j) spans the (j - e + 1)+ entries
    # above j - e; an edge sum spans c entries
    es = np.arange(band + 1, top + 1)[:, None]
    raw = pq[:, band:top]
    span = np.stack([np.maximum(n - idx - es, 0), np.maximum(idx - es + 1, 0)])
    parts = np.concatenate([raw, raw - span * rho - ends[kind, span]])
    cs = np.arange(off.edges.shape[1])[:, None]
    edges = np.concatenate([off.edges, off.edges - cs * rho - ends[kind, cs]])
    # four families, each the sum over x in [lo, hi] of rho[x + shift] times
    # the one-sided sum, from diagonal e or f less the edge, in row or column
    # x: b (G1 - a) as rho_{s+h1} and rho_t, then a G2 as rho_s and rho_{t+h2}
    fam = np.repeat([2, 3, 0, 1], h1.shape[0])
    diag = np.concatenate([e, e, f, f]) - band - 1
    edge = pos[[3, 2, 1, 0]].reshape(-1)
    lo = np.concatenate([s0, s0 + e, pos[0], s0 + k])
    hi = np.concatenate([t1 - k, t1 + h2, t1 - k + h1, t1])
    shift = np.concatenate([h1, -h2, -h1, h2])
    lags = int(pos.max())
    padded = np.zeros(n + 2 * lags)
    padded[lags:lags + n] = rho
    terms = parts[fam, diag]
    terms -= edges[fam, edge]
    # row r of the windows is rho shifted by r - lags, zero past either end
    windows = np.lib.stride_tricks.as_strided(
        padded, (2 * lags + 1, n), padded.strides * 2, writeable=False)
    weights = windows[lags + shift]
    # every [lo, hi] leaves out at most the first and last few x
    head, tail = min(int(lo.max()), n), min(n - 1 - int(hi.min()), n)
    weights[:, :head] *= idx[:head] >= lo[:, None]
    weights[:, n - tail:] *= idx[n - tail:] <= hi[:, None]
    terms *= weights
    return terms.sum(axis=1).reshape(4, -1).sum(axis=0)


def _trace_sums(off: _OffBand, band: int, pairs, recenter: bool = True):
    """Yield, for each (h1, h2) in pairs, the average of G[s, t+h2] * G[s+h1, t]
    over the (s, t) whose groups {s, s+h1} and {t, t+h2} are more than band
    apart: the raw estimate of tr{C(h1) C(h2)}, or with recenter=True the
    estimate from the re-centered Gram.

    Separation depends on e = t - s alone.  Above the diagonal the pairs are
    e >= k = band + max(h1, 0) + max(-h2, 0) + 1, and with D_e the e-th
    diagonal of G their sum is sum_{e >= k} sum_s D_{e+h2}[s] * D_{e-h1}[s+h1].
    Both factors sit on diagonals beyond the band, and in the flat slab
    (row stride n + 1) each is one contiguous slice, the second a fixed
    offset from the first.  Wherever the two slices pair up entries outside
    the admissible (e, s), one of the two falls in a row's zero padding, so
    the sum is one dot.  By symmetry of G the pairs below the diagonal are
    the pairs above it with h1 and h2 swapped, so the estimate is symmetric
    in (h1, h2).  The upper sum of (-h1, -h2) is the dot of the same two
    slices with their roles swapped, the same products in the same order,
    so each dot is taken once for the pair and its negation: a pair with
    h1 = h2 or h1 = -h2 costs one dot, and (h1, h2) shares both of its dots
    with (-h2, -h1).  Each side holds q(q+1)/2 pairs,
    q = n - |h1| - |h2| - band - 1.  The re-centering terms of every dot
    come from one batch (_recentering); the dots are taken as the values
    are drawn, so a caller that stops early pays for no more of them.
    """
    n = off.n
    width = n + 1
    slab = off.slab
    sizes = [n - abs(h1) - abs(h2) - band - 1 for h1, h2 in pairs]

    def key(h1, h2):
        """One key per dot: the ordered pair or its negation, the larger."""
        return max((h1, h2), (-h1, -h2))

    needed = sorted({key(*lags) for (h1, h2), q in zip(pairs, sizes) if q > 0
                     for lags in ((h1, h2), (h2, h1))})
    corr = dict.fromkeys(needed, 0.0)
    if recenter and needed:
        h1, h2 = np.array(needed).T
        corr.update(zip(needed, _recentering(off, band, h1, h2)))
    halves = {}

    def half(h1, h2, q):
        """The (re-centered) sum above the diagonal for (h1, h2)."""
        h1, h2 = key(h1, h2)
        if (h1, h2) not in halves:
            k = band + max(h1, 0) + max(-h2, 0) + 1
            a = (k + h2 - 1) * width + max(-h1, 0)
            b = (k - h1 - 1) * width + max(h1, 0)
            length = (q - 1) * width + 1
            # einsum rather than np.dot: a multithreaded BLAS dot called from
            # many threads at once (monte_carlo_edd's workers) stalls on the
            # BLAS thread pool, ~3x slower per replicate at 8 workers
            dot = np.einsum("i,i", slab[a:a + length], slab[b:b + length])
            halves[h1, h2] = dot - corr[h1, h2]
        return halves[h1, h2]

    for (h1, h2), q in zip(pairs, sizes):
        if q <= 0:
            raise InsufficientTrainingError(
                f"no admissible index pairs for lags ({h1}, {h2}) with separation {band}; "
                f"need n0 >= {abs(h1) + abs(h2) + band + 2}"
            )
        yield float((half(h1, h2, q) + half(h2, h1, q)) / (q * (q + 1)))


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
    off = _OffBand(_centered_gram(_as_matrix(train), mean), max(abs(h1), abs(h2)))
    return next(_trace_sums(off, dep_order, [(h1, h2)], recenter))


def _trace_table(off: _OffBand, dep_order: int) -> TraceTable:
    """Re-centered trace estimates for |h1|, |h2| <= dep_order, each unordered
    pair computed once (the estimate is symmetric in the two lags)."""
    m = dep_order
    lags = range(-m, m + 1)
    pairs = [(h1, h2) for h1 in lags for h2 in lags if h1 <= h2]
    sums = dict(zip(pairs, _trace_sums(off, m, pairs)))
    entries = {(h1, h2): sums[min(h1, h2), max(h1, h2)] for h1 in lags for h2 in lags}
    return TraceTable(dep_order=m, entries=entries)


def _check_order_scan(epsilon: float, max_order: int) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
    if max_order < 0:
        raise ConfigurationError(f"max_order must be >= 0, got {max_order}")


def _dep_order(off: _OffBand, epsilon: float, max_order: int) -> int:
    sums = _trace_sums(off, max_order, [(h, -h) for h in range(max_order + 1)])
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
    off = _OffBand(_centered_gram(_as_matrix(train), mean), max_order)
    return _dep_order(off, epsilon, max_order)


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
        off = _OffBand(_centered_gram(x, mean), dep_order)
        table = _trace_table(off, dep_order)
    else:
        _check_table(table, dep_order)
    return _null_sd(table, window)


def _check_rows(n0: int, dep_order: int) -> None:
    if n0 < 2 * dep_order + 5:
        raise InsufficientTrainingError(
            f"need at least {2 * dep_order + 5} training rows for dep_order {dep_order}, got {n0}"
        )


def _stationarity(sums: tuple[np.ndarray, np.ndarray], table: TraceTable,
                  alpha: float) -> StationarityResult:
    """The test from the off-band row and column sums of the squared Gram."""
    n0 = sums[0].shape[0]
    plan = build_weight_plan(n0, table.dep_order)
    stat_raw = _summed_statistic(*sums, plan)
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
    row and column sums of the squared Gram: down the diagonal slab that
    the trace table is estimated from, or, when a table is passed, one Gram
    tile at a time from the rows, each tile centered from its own slices, so
    neither an n0 x n0 array nor a centered copy of train is built.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
    x = _as_matrix(train)
    _check_rows(x.shape[0], dep_order)
    if table is None:
        off = _OffBand(_centered_gram(x, mean), dep_order)
        table = _trace_table(off, dep_order)
        sums = off.offband_squares(dep_order)
    else:
        _check_table(table, dep_order)
        sums = _centered_offband_sums(x, _check_mean(mean, x.shape[1]), dep_order)
    return _stationarity(sums, table, alpha)


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
    m = config.dep_order_override
    if m is None:
        _check_order_scan(config.epsilon, config.max_order)
    # every stage reads this one slab; the Gram goes once it is built
    off = _OffBand(_centered_gram(x, mean), config.max_order if m is None else m)
    if m is None:
        m = _dep_order(off, config.epsilon, config.max_order)
    _check_rows(n0, m)
    table = _trace_table(off, m)
    null_sd = _null_sd(table, config.window)
    stationarity = _stationarity(off.offband_squares(m), table, config.alpha)
    # the slab goes before the tail is copied, so the copy can take its memory
    del off
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
