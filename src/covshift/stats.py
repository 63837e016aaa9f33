"""Batch, windowed, and per-split statistics built on the weight algebra.

The core quantity is a weighted double sum of squared centered inner products
(x_i - mean)'(x_j - mean): with the summed weight matrix it measures overall
covariance instability (mean zero under a stable stream), and with a single
split's weights it profiles where a change happened.  The sliding-window form
(WindowState) keeps the window's centered rows newest first, each with its
sums of squared products over its older rows by age, written once as it
arrives, and over its newer rows: a new observation costs one matrix-vector
product, O(H * p), and the statistic, read through the separable weights
W(i, j) = u(i) + v(j), M + 2 strided dot products, O(H * (M + 1)), with no
gather or scatter.  An empty window can also be loaded with k rows at once
(a detector primed from the training tail) from one block product of the
last min(k, H) rows.  The batch statistic, the split profile and a
stationarity test handed its trace table share one reduction of the
squared Gram to off-band row and column sums, one 256 x 1024 tile at a
time, each tile centered from its own row slices: O(n^2 * p) work, and
beyond the rows two length-n sums, one 2 MB tile and its centered slices
(at n=20000, p=5, M=0 localize peaks at 4.6 MB under tracemalloc, and at
n=5000, p=50 at 4.9 MB; BENCH_localize.json).

One input rule holds for every array the package takes from a caller
(observations, a mean, priming rows, a history) and is written once, in
_as_array: the expected number of dimensions, a real dtype (bool, complex,
string and object arrays are rejected, never cast), the expected length of
the last axis, and finite values.  The DataError names the input.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DataError
from .weights import WeightPlan, _check_split, _split_coefficients

__all__ = [
    "statistic_batch",
    "profile_statistic",
    "WindowState",
    "statistic_windowed",
]

# _offband_sums reduces the squared Gram a block of _PROFILE_BLOCK rows at a
# time, each one tile of at most _GRAM_TILE columns (2 MB) at a time
_PROFILE_BLOCK = 256
_GRAM_TILE = 1024


def _as_array(obs, name: str, ndim: int, width: int | None = None) -> np.ndarray:
    """obs as a float64 array after the one input rule: ndim dimensions, a
    real dtype, a last axis of length width (any when None), finite values.
    DataError names the input."""
    try:
        x = np.asarray(obs)
    except ValueError:  # ragged nesting
        raise DataError(f"{name} must be a {ndim}-D array, got ragged nesting") from None
    if x.ndim != ndim:
        raise DataError(f"{name} must be a {ndim}-D array, got shape {x.shape}")
    if x.dtype.kind not in "iuf":
        raise DataError(f"{name} must hold real numbers, got dtype {x.dtype}")
    if width is not None and x.shape[-1] != width:
        raise DataError(f"{name} must have last dimension {width}, got shape {x.shape}")
    x = x.astype(np.float64, copy=False)
    # x.x is finite only if every entry is; blocks skip this dot, which BLAS
    # would spread over threads that Monte Carlo worker threads contend with
    if not (ndim == 1 and math.isfinite(np.vdot(x, x))) and not np.isfinite(x).all():
        raise DataError(f"{name} must be finite, got non-finite values")
    return x


def _as_matrix(obs, name: str = "observations", width: int | None = None) -> np.ndarray:
    return _as_array(obs, name, 2, width)


def _check_mean(mean, p: int) -> np.ndarray:
    return _as_array(mean, "mean", 1, p)


def _offband_sums(block, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """row[i] = sum_{j < i-M} G(i,j)^2 and col[j] = sum_{i > j+M} G(i,j)^2 of
    an n x n Gram G, _PROFILE_BLOCK rows by _GRAM_TILE columns at a time.

    block(i0, i1, j0, j1) returns G[i0:i1, j0:j1], from centered rows or
    from a Gram already held, as a new array that nothing else reads: it is
    squared and band-masked in place.  Rows i0 .. i1 - 1 keep the columns
    before i1 - M - 1, less the square of columns i0 - M .. i1 - M - 2 that
    the band cuts on and above its diagonal.  A row block that fits one tile
    is summed as one array, so its sums do not depend on the tile width.
    """
    row, col = np.zeros(n), np.zeros(n)
    for i0 in range(m + 1, n, _PROFILE_BLOCK):
        i1 = min(i0 + _PROFILE_BLOCK, n)
        cut = i0 - m  # first column of the square the band cuts
        for j0 in range(0, i1 - m - 1, _GRAM_TILE):
            j1 = min(j0 + _GRAM_TILE, i1 - m - 1)
            tile = block(i0, i1, j0, j1)
            np.square(tile, out=tile)
            if j1 > cut:
                c0 = max(cut, j0)
                on_or_above = np.arange(c0 - cut, j1 - cut) >= np.arange(i1 - i0)[:, None]
                np.copyto(tile[:, c0 - j0:], 0.0, where=on_or_above)
            row[i0:i1] += tile.sum(axis=1)
            col[j0:j1] += tile.sum(axis=0)
    return row, col


def _centered_offband_sums(x: np.ndarray, mean: np.ndarray, m: int):
    """_offband_sums of the Gram of the rows x - mean, each tile from its own
    centered row slices, so no centered copy of x is held."""
    def block(i0, i1, j0, j1):
        return (x[i0:i1] - mean) @ (x[j0:j1] - mean).T
    return _offband_sums(block, x.shape[0], m)


def _summed_statistic(row: np.ndarray, col: np.ndarray, plan: WeightPlan) -> float:
    """sum W G^2 / n^2 = 2 (u . row + v . col) / n^2 from the off-band sums
    of _offband_sums."""
    return float(2.0 * (plan.u.dot(row) + plan.v.dot(col)) / float(plan.length) ** 2)


def statistic_batch(obs, mean, plan: WeightPlan) -> float:
    """Weighted double sum over all pairs, normalized by length^2.

    Pass a zero mean for the uncentered form.  Zero exactly for constant
    input (the weights sum to zero) and scales as c^4 under obs -> c*obs.
    Read through the separable weights: O(n^2 * p) work, and beyond obs
    O(n) memory plus one Gram tile (4.5 MB at n=3000, p=20).
    """
    x = _as_matrix(obs)
    n, p = x.shape
    if plan.length != n:
        raise ConfigurationError(f"plan built for length {plan.length}, got {n} observations")
    row, col = _centered_offband_sums(x, _check_mean(mean, p), plan.dep_order)
    return _summed_statistic(row, col, plan)


def _split_profile(x: np.ndarray, mean: np.ndarray, dep_order: int):
    """Splits t = M+2 .. n-M-2 of the rows x centered at mean, and the
    statistic at each.

    Each off-band pair sits on one side of t or straddles it, so its squared
    product is weighted alpha_t, beta_t or -gamma_t; the three sums are prefix
    and suffix sums of row and col.  The right sum is a suffix sum because
    total - prefix would lose ~n^2 ulps where it is small and beta_t ~ n.
    """
    m = dep_order
    n = x.shape[0]
    row, col = _centered_offband_sums(x, mean, m)
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
    peaks at the true split.  O(n^2 * p) work, and beyond obs O(n) memory
    plus one Gram tile, as statistic_batch.
    """
    x = _as_matrix(obs)
    n, p = x.shape
    _check_split(t, n, dep_order)
    ts, profile = _split_profile(x, _check_mean(mean, p), dep_order)
    return float(profile[t - ts[0]])


class WindowState:
    """Window of the last `capacity` (H) centered observations and the sums
    of their squared inner products that the windowed statistic reads.

    The rows sit newest first in a 2H-row buffer: `_buf[_top + a]` is the
    row pushed a pushes ago (age a).  A push lowers `_top` by one and writes
    there, so the new row's products with its H - 1 older rows are one
    matrix-vector product over the contiguous rows below it.  When `_top`
    reaches 0, the H - 1 rows that stay (and their sums) are block-copied
    to the far end of the buffers, once every H pushes.  Row b of the
    2H x H array `_sq` is indexed by age: `_sq[b, a]` is the sum of G^2
    between the row at b and its a nearest older rows, written once, by one
    accumulate, when the row arrives and never updated, so no running sum
    outlives the row.  `_newer[b]` is that row's sum over the newer rows,
    added to as they arrive.  Nothing depends on a dependence order, so one
    state serves plans of any order.  Single-writer: one stream owner pushes.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self._buf: np.ndarray | None = None  # 2H x p, centered rows
        self._sq: np.ndarray | None = None   # 2H x H, sums over older rows by age
        self._newer = np.zeros(2 * capacity)
        self._top = capacity                 # buffer row of the newest row

    def push(self, x, mean) -> "WindowState":
        """Center x, store it (evicting the oldest when full), cache products."""
        width = None if self._buf is None else self._buf.shape[1]
        xv = _as_array(x, "observation", 1, width)
        return self._store(xv - _check_mean(mean, xv.shape[0]))

    def _allocate(self, p: int) -> None:
        h = self.capacity
        self._buf, self._sq = np.zeros((2 * h, p)), np.zeros((2 * h, h))
        self._newer[:] = 0.0

    def _store(self, xc: np.ndarray) -> "WindowState":
        """Store an already validated, centered observation: O(H * p)."""
        h = self.capacity
        if self._buf is None:
            self._allocate(xc.shape[0])
        if self._top == 0:  # the H - 1 rows that stay go to the far end
            for a in (self._buf, self._sq, self._newer):
                a[h + 1:] = a[:h - 1]
            self._top = h + 1
        self._top -= 1
        b = self._top
        self._buf[b] = xc
        # the H rows from b are the window, zero rows while it fills
        sq = self._buf[b:b + h] @ xc
        sq *= sq
        sq[0] = 0.0
        np.add.accumulate(sq, out=self._sq[b])
        self._newer[b] = 0.0
        self._newer[b:b + h] += sq
        self.count += 1
        return self

    def _load(self, block: np.ndarray) -> "WindowState":
        """Fill an empty state with k validated, centered rows at once.

        Leaves the live state that k calls of _store would leave, up to the
        rounding of one block product against k matrix-vector products: in
        the squared Gram of the last m = min(k, H) rows, newest first and
        kept above its diagonal, a row's cumulative sums from the diagonal
        on are its sums over the older rows by age, and the column sums
        those over the newer rows.  The rows start at `_top` = H, so the
        first block copy comes H pushes later.
        """
        k, p = block.shape
        if k == 0:
            return self
        h = self.capacity
        m = min(k, h)
        self._allocate(p)
        rows = self._buf[h:h + m]
        rows[:] = block[k - m:][::-1]
        skew = np.zeros(m * (m + 1))
        gram = skew[:m * m].reshape(m, m)
        np.matmul(rows, rows.T, out=gram)
        gram *= gram
        gram *= ~np.tri(m, dtype=bool)  # keep (newer, older) pairs
        # row i of the stride-(m + 1) view starts at gram[i, i]: its entry a
        # is the product with the row a older, and zero past the oldest
        np.cumsum(skew.reshape(m, m + 1)[:, :m], axis=1, out=self._sq[h:h + m, :m])
        self._newer[h:h + m] = gram.sum(axis=0)
        self._top = h
        self.count = k
        return self

    @property
    def full(self) -> bool:
        return self.count >= self.capacity


@lru_cache(maxsize=64)
def _window_weights(plan: WeightPlan) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """u and v by age (newest first), and one weight vector per band
    diagonal d = 1 .. M over the age-d column of WindowState._sq.

    Row a of the window (age a) and its d-th older row carry weight
    w_d = u(a) + v(a + d) on their product g_d, which the band takes out.
    With c_d = g_1 + .. + g_d the age-d column, summation by parts gives
    sum_{d <= D} w_d g_d = (u(a) + v(a + D)) c_D + sum_{d < D} (v(a + d) -
    v(a + d + 1)) c_d, where D = min(M, H - 1 - a) diagonals reach row a.
    """
    h, m = plan.length, plan.dep_order
    ur, vr = plan.u[::-1].copy(), plan.v[::-1].copy()
    bands = [vr[d:] - np.append(vr[d + 1:], -ur[h - 1 - d]) for d in range(1, m)]
    if m:
        bands.append(vr[m:] + ur[:h - m])
    return ur, vr, bands


def statistic_windowed(state: WindowState, plan: WeightPlan) -> float | None:
    """Windowed statistic over the current contents; None until full.

    Window positions are numbered 1..H oldest -> newest, so one plan built
    for length H serves every evaluation.  With W(i, j) = u(i) + v(j) off the
    band (i newer), the statistic is (2/H^2) * [sum_i u(i) * L(i) +
    sum_j v(j) * R(j)], L and R being a row's sums of G^2 over the older and
    the newer rows, less the M band diagonals.  The row of age a reads L at
    its age H - 1 - a, so the L terms lie on one anti-diagonal of
    WindowState._sq, and each band diagonal is one age column: M + 2 strided
    dot products, O(H * (M + 1)).
    """
    if plan.length != state.capacity:
        raise ConfigurationError(
            f"plan built for length {plan.length}, window capacity {state.capacity}"
        )
    if not state.full:
        return None
    h, top = state.capacity, state._top
    ur, vr, bands = _window_weights(plan)
    flat = state._sq.reshape(-1)
    first = top * h + h - 1  # _sq[top, h - 1]
    total = ur.dot(flat[first:first + h * (h - 1):h - 1]) + vr.dot(state._newer[top:top + h])
    for d, w in enumerate(bands, 1):
        total -= w.dot(flat[top * h + d:(top + h - d) * h:h])
    return float(2.0 * total / h**2)
