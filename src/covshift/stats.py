"""Batch, windowed, and per-split statistics built on the weight algebra.

The core quantity is a weighted double sum of squared centered inner products
(x_i - mean)'(x_j - mean): with the summed weight matrix it measures overall
covariance instability (mean zero under a stable stream), and with a single
split's weights it profiles where a change happened.  The sliding-window form
keeps the pairwise products in a ring written one row and one column per
observation, so each new observation costs O(H * p) for its new products,
and the statistic, read through the separable weights W(i, j) = u(i) + v(j),
costs O(H * (M + 1)).  An empty window can also be loaded with k rows at
once (a detector primed from the training tail): one block product gives
the squared Gram of the last min(k, H) rows, and its row cumulative sums
fill the ring as k single pushes would.  The batch statistic and the split
profile share one reduction of the squared Gram to off-band row and column
sums, a block of rows at a time: O(n^2 * p) work and O(n) memory.

One input rule holds for every array the package takes from a caller
(observations, a mean, priming rows, a history) and is written once, in
_as_array: the expected number of dimensions, a real dtype (bool, complex,
string and object arrays are rejected, never cast), the expected length of
the last axis, and finite values.  The DataError names the input.
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

# rows of the squared Gram matrix that _offband_sums holds at once
_PROFILE_BLOCK = 256


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
    if not np.isfinite(x).all():
        raise DataError(f"{name} must be finite, got non-finite values")
    return x


def _as_matrix(obs, name: str = "observations", width: int | None = None) -> np.ndarray:
    return _as_array(obs, name, 2, width)


def _check_mean(mean, p: int) -> np.ndarray:
    return _as_array(mean, "mean", 1, p)


def _offband_sums(block, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """row[i] = sum_{j < i-M} G(i,j)^2 and col[j] = sum_{i > j+M} G(i,j)^2 of
    an n x n Gram G, _PROFILE_BLOCK rows at a time; block(i0, i1, j1) returns
    G[i0:i1, :j1], from centered rows or from a Gram already held."""
    row, col = np.zeros(n), np.zeros(n)
    for i0 in range(m + 1, n, _PROFILE_BLOCK):
        i1 = min(i0 + _PROFILE_BLOCK, n)
        sq = np.tril(block(i0, i1, i1 - m - 1) ** 2, i0 - m - 1)
        row[i0:i1] = sq.sum(axis=1)
        col[:i1 - m - 1] += sq.sum(axis=0)
    return row, col


def _summed_statistic(row: np.ndarray, col: np.ndarray, plan: WeightPlan) -> float:
    """sum W G^2 / n^2 = 2 (u . row + v . col) / n^2 from the off-band sums
    of _offband_sums."""
    return float(2.0 * (plan.u.dot(row) + plan.v.dot(col)) / float(plan.length) ** 2)


def statistic_batch(obs, mean, plan: WeightPlan) -> float:
    """Weighted double sum over all pairs, normalized by length^2.

    Pass a zero mean for the uncentered form.  Zero exactly for constant
    input (the weights sum to zero) and scales as c^4 under obs -> c*obs.
    Read through the separable weights: O(n^2 * p) work, O(n) memory.
    """
    x = _as_matrix(obs)
    n, p = x.shape
    if plan.length != n:
        raise ConfigurationError(f"plan built for length {plan.length}, got {n} observations")
    xc = x - _check_mean(mean, p)
    row, col = _offband_sums(lambda i0, i1, j1: xc[i0:i1] @ xc[:j1].T, n, plan.dep_order)
    return _summed_statistic(row, col, plan)


def _split_profile(xc: np.ndarray, dep_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Splits t = M+2 .. n-M-2 of centered rows and the statistic at each.

    Each off-band pair sits on one side of t or straddles it, so its squared
    product is weighted alpha_t, beta_t or -gamma_t; the three sums are prefix
    and suffix sums of row and col.  The right sum is a suffix sum because
    total - prefix would lose ~n^2 ulps where it is small and beta_t ~ n.
    """
    m = dep_order
    n = xc.shape[0]
    row, col = _offband_sums(lambda i0, i1, j1: xc[i0:i1] @ xc[:j1].T, n, m)
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

    The centered rows sit in ring slot count % capacity, and the capacity x
    capacity ring `_sq` holds two numbers for each pair of rows: entry
    (newer, older) is their squared product G^2, and entry (older, newer) is
    the newer row's sum of G^2 over the rows from the older one up to itself
    (exclusive).  Pushing row r writes ring row r (its products) and ring
    column r (those sums); nothing is shifted.  Entry (oldest, r) is then
    r's sum over every older row in the window, a sum written once and never
    updated by subtraction.  `_newer` holds each row's sum over the newer
    rows, added to as they arrive and reset when its slot is reused, so no
    running sum outlives `capacity` pushes.  Single-writer: one stream
    owner pushes.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self._buf: np.ndarray | None = None        # capacity x p, centered
        self._sq: np.ndarray | None = None         # capacity x capacity ring
        self._newer = np.zeros(capacity)
        # _slots[o:o + capacity] lists the slots in time order when the
        # oldest row is in slot o
        self._slots = np.arange(2 * capacity) % capacity
        # _bands[d - 1][o:o + capacity - d] is the flat ring index of the
        # entries (position k + d, position k) when the oldest row is in slot o
        self._bands: list[np.ndarray] = []

    def push(self, x, mean) -> "WindowState":
        """Center x, store it (evicting the oldest when full), cache products."""
        width = None if self._buf is None else self._buf.shape[1]
        xv = _as_array(x, "observation", 1, width)
        return self._store(xv - _check_mean(mean, xv.shape[0]))

    def _store(self, xc: np.ndarray) -> "WindowState":
        """Store an already validated, centered observation: O(H * p)."""
        h = self.capacity
        if self._buf is None:
            self._buf = np.zeros((h, xc.shape[0]))
            self._sq = np.zeros((h, h))
        slot = self.count % h
        self._buf[slot] = xc
        self.count += 1
        filled = min(self.count, h)
        sq = self._buf[:filled] @ xc
        sq *= sq
        # the older rows from newest to oldest are slots slot-1 .. 0 and then
        # filled-1 .. slot+1; each one's entry in column slot is the sum of
        # the new products from it up to the newest, and row slot holds the
        # products themselves
        recent = np.concatenate((sq[:slot][::-1], sq[:slot:-1]))
        np.add.accumulate(recent, out=recent)
        col = self._sq[:, slot]
        col[:slot] = recent[:slot][::-1]
        col[slot + 1:filled] = recent[slot:][::-1]
        self._sq[slot, :filled] = sq
        self._newer[:filled] += sq
        self._newer[slot] = 0.0
        return self

    def _load(self, block: np.ndarray) -> "WindowState":
        """Fill an empty state with k validated, centered rows at once.

        Leaves the state that k calls of _store would leave, up to the
        rounding of one block product against k matrix-vector products:
        the squared Gram of the last min(k, H) rows goes below the ring's
        diagonal, each newer row's reversed cumulative sums (accumulated
        newest to oldest, as _store does) above it, and the column sums
        below the diagonal to _newer.
        """
        k, p = block.shape
        if k == 0:
            return self
        h = self.capacity
        rows = block[-h:]
        m = rows.shape[0]
        shift = (k - m) % h  # slot of the oldest row kept
        self._buf = np.zeros((h, p))
        self._sq = np.zeros((h, h))
        ring = self._sq[:m, :m] if shift == 0 else np.empty((m, m))
        sq = rows @ rows.T
        sq *= sq
        own = sq.diagonal().copy()
        sq *= np.tri(m, k=-1, dtype=bool)  # keep the (newer, older) pairs
        # ring[i, j] for i older than j is row j's sum from i up to j - 1;
        # the cumsum leaves zeros on and below the diagonal
        np.cumsum(sq[:, ::-1], axis=1, out=ring[::-1].T)
        ring += sq
        np.fill_diagonal(ring, own)
        newer = sq.sum(axis=0)
        if shift:
            self._sq = np.roll(ring, shift, axis=(0, 1))
            rows, newer = np.roll(rows, shift, axis=0), np.roll(newer, shift)
        self._buf[:m] = rows
        self._newer[:m] = newer
        self.count = k
        return self

    @property
    def full(self) -> bool:
        return self.count >= self.capacity

    def _band_index(self, d: int) -> np.ndarray:
        """Flat ring index of band diagonal d over the doubled slot array."""
        while len(self._bands) < d:
            e = len(self._bands) + 1
            self._bands.append(self._slots[e:] * self.capacity + self._slots[:-e])
        return self._bands[d - 1]


def statistic_windowed(state: WindowState, plan: WeightPlan) -> float | None:
    """Windowed statistic over the current contents; None until full.

    Window positions are numbered 1..H oldest -> newest, so one plan built
    for length H serves every evaluation.  With W(i, j) = u(i) + v(j) off the
    band (i newer), the statistic is (2/H^2) * [sum_i u(i) * L(i) +
    sum_j v(j) * R(j)], L and R being a row's sums of G^2 over the older and
    the newer rows, less the M band diagonals: O(H * (M + 1)).
    """
    if plan.length != state.capacity:
        raise ConfigurationError(
            f"plan built for length {plan.length}, window capacity {state.capacity}"
        )
    if not state.full:
        return None
    h = state.capacity
    o = state.count % h  # slot of the oldest row
    order = state._slots[o:o + h]
    ring, u, v = state._sq, plan.u, plan.v
    # the oldest row's entry at a newer row is that row's sum over all its
    # older rows; at itself it is its own product, which is skipped
    total = u[1:].dot(ring[o].take(order[1:])) + v.dot(state._newer.take(order))
    flat = ring.reshape(-1)
    for d in range(1, plan.dep_order + 1):
        band = flat.take(state._band_index(d)[o:o + h - d])  # G^2 of positions k+d, k
        total -= u[d:].dot(band) + v[:-d].dot(band)
    return float(2.0 * total / h**2)
