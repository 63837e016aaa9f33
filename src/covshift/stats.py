"""Batch, windowed, and per-split statistics built on the weight algebra.

The core quantity is a weighted double sum of squared centered inner products
(x_i - mean)'(x_j - mean): with the summed weight matrix it measures overall
covariance instability (mean zero under a stable stream), and with a single
split's weights it profiles where a change happened.  The sliding-window form
keeps the pairwise products cached in time order, so each new observation
costs O(H * p) for its new products plus O(H^2) to shift the cache and
contract it with the weights.  The split profile reduces the squared Gram to
row and column sums a block of rows at a time: O(n) memory for all splits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DataError
from .weights import WeightPlan, _check_split, _split_coefficients

__all__ = [
    "statistic_batch",
    "profile_statistic",
    "WindowState",
    "statistic_windowed",
]

# rows of the squared Gram matrix that _split_profile holds at once
_PROFILE_BLOCK = 256


def _as_matrix(obs, name: str = "observations") -> np.ndarray:
    x = np.asarray(obs, dtype=float)
    if x.ndim != 2:
        raise DataError(f"{name} must be a 2-D array (time x dim), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contain non-finite values")
    return x


def _check_mean(mean, p: int) -> np.ndarray:
    mu = np.asarray(mean, dtype=float)
    if mu.shape != (p,):
        raise DataError(f"mean has shape {mu.shape}, expected ({p},)")
    if not np.all(np.isfinite(mu)):
        raise DataError("mean contains non-finite values")
    return mu


def _statistic_from_gram(gram: np.ndarray, plan: WeightPlan) -> float:
    n = plan.length
    return float((plan.weights * gram**2).sum() / n**2)


def statistic_batch(obs, mean, plan: WeightPlan) -> float:
    """Weighted double sum over all pairs, normalized by length^2.

    Pass a zero mean for the uncentered form.  Zero exactly for constant
    input (the weights sum to zero) and scales as c^4 under obs -> c*obs.
    """
    x = _as_matrix(obs)
    n, p = x.shape
    if plan.length != n:
        raise ConfigurationError(f"plan built for length {plan.length}, got {n} observations")
    xc = x - _check_mean(mean, p)
    return _statistic_from_gram(xc @ xc.T, plan)


def _split_profile(xc: np.ndarray, dep_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Splits t = M+2 .. n-M-2 of centered rows and the statistic at each.

    Each off-band pair sits on one side of t or straddles it, so its squared
    product is weighted alpha_t, beta_t or -gamma_t; the three sums are prefix
    and suffix sums of row and col.  The right sum is a suffix sum because
    total - prefix would lose ~n^2 ulps where it is small and beta_t ~ n.
    """
    m = dep_order
    n = xc.shape[0]
    row = np.zeros(n)  # row[i] = sum_{j < i-M} G(i,j)^2
    col = np.zeros(n)  # col[j] = sum_{i > j+M} G(i,j)^2
    for i0 in range(m + 1, n, _PROFILE_BLOCK):
        i1 = min(i0 + _PROFILE_BLOCK, n)
        sq = np.tril((xc[i0:i1] @ xc[:i1 - m - 1].T) ** 2, i0 - m - 1)
        row[i0:i1] = sq.sum(axis=1)
        col[:i1 - m - 1] += sq.sum(axis=0)

    ts = np.arange(m + 2, n - m - 1)
    left = np.cumsum(row)[ts - 1]            # both indices <= t
    cross = np.cumsum(col)[ts - 1] - left    # lower index <= t < upper
    right = np.cumsum(col[::-1])[::-1][ts]   # both indices > t
    alpha, beta, gamma = _split_coefficients(ts, n, m)
    return ts, 2.0 * (alpha * left + beta * right - gamma * cross) / float(n) ** 2


def profile_statistic(obs, mean, dep_order: int, t: int) -> float:
    """Single-split statistic: the batch form with the split-t weights.

    t is the (1-based) length of the first segment; valid splits are
    dep_order+2 <= t <= n-dep_order-2.  Under a change the expected profile
    peaks at the true split.  O(n^2 * p) work and O(n) memory beyond obs.
    """
    x = _as_matrix(obs)
    n, p = x.shape
    _check_split(t, n, dep_order)
    ts, profile = _split_profile(x - _check_mean(mean, p), dep_order)
    return float(profile[t - ts[0]])


class WindowState:
    """Window of the last `capacity` centered observations with cached
    squared inner products.

    gram_sq is kept in time order: row and column 0 belong to the oldest
    observation, so one weight plan applies to it directly.  The centered
    rows themselves sit in ring slot count % capacity.  Single-writer: one
    stream owner pushes.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self._buf: np.ndarray | None = None        # capacity x p, centered
        self.gram_sq: np.ndarray | None = None     # capacity x capacity

    def push(self, x, mean) -> "WindowState":
        """Center x, store it (evicting the oldest when full), cache products."""
        xv = np.asarray(x, dtype=float)
        if xv.ndim != 1:
            raise DataError(f"observation must be 1-D, got shape {xv.shape}")
        if not np.all(np.isfinite(xv)):
            raise DataError("observation contains non-finite values")
        if self._buf is not None and xv.shape[0] != self._buf.shape[1]:
            raise DataError(
                f"observation has dimension {xv.shape[0]}, expected {self._buf.shape[1]}"
            )
        return self._store(xv - _check_mean(mean, xv.shape[0]))

    def _store(self, xc: np.ndarray) -> "WindowState":
        """Store an already validated, centered observation."""
        h = self.capacity
        if self._buf is None:
            self._buf = np.zeros((h, xc.shape[0]))
            self.gram_sq = np.zeros((h, h))
        self._buf[self.count % h] = xc
        self.count += 1
        filled = min(self.count, h)
        # the oldest row is in slot count % h once full; rolling puts it first
        sq = np.roll(self._buf[:filled] @ xc, -self.count) ** 2
        g = self.gram_sq
        if self.count > h:
            # g[:-1, :-1] = g[1:, 1:] as one flat memmove; the 2-D form copies
            # through an H x H temporary.  What wraps into the last column is
            # overwritten below.
            flat = g.reshape(-1)
            flat[:-h - 1] = flat[h + 1:]
        g[filled - 1, :filled] = sq
        g[:filled, filled - 1] = sq
        return self

    @property
    def full(self) -> bool:
        return self.count >= self.capacity


def statistic_windowed(state: WindowState, plan: WeightPlan) -> float | None:
    """Windowed statistic over the current contents; None until full.

    Window positions are numbered 1..H oldest -> newest, the order gram_sq
    is kept in, so one plan built for length H serves every evaluation.
    """
    if plan.length != state.capacity:
        raise ConfigurationError(
            f"plan built for length {plan.length}, window capacity {state.capacity}"
        )
    if not state.full:
        return None
    return float(np.vdot(plan.weights, state.gram_sq) / state.capacity**2)
