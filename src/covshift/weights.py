"""Weight algebra for the covariance-change statistics.

A sequence of length n is compared around every admissible split point t by a
three-branch weight A_t(i, j): pairs on the same side of the split get a
positive weight, pairs straddling it a negative one, with denominators chosen
so each banded t-slice sums to zero exactly.  Summing the slices over
t = M+2 ... n-M-2 and zeroing the band |i-j| <= M gives the weight matrix W
used by the batch and windowed statistics.  Off the band W separates as
u(max(i,j)) + v(min(i,j)); a WeightPlan stores those two vectors, the only
form of W, and every sum over W is read from them in O(n) memory.  A single
split's slice, constant on three blocks, weights the localization profile
(stats._split_profile).

M is the dependence order of the stream: observations more than M steps apart
are assumed independent, and the band removes the pairs whose products carry
that dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError


def _check_order(length: int, dep_order: int) -> None:
    if dep_order < 0:
        raise ConfigurationError(f"dep_order must be >= 0, got {dep_order}")
    min_len = 2 * dep_order + 5
    if length < min_len:
        raise ConfigurationError(
            f"length {length} too small for dep_order {dep_order}; "
            f"need at least {min_len}"
        )


def _check_split(t: int, length: int, dep_order: int) -> None:
    n, m = length, dep_order
    _check_order(n, m)
    if not (m + 2 <= t <= n - m - 2):
        raise ConfigurationError(
            f"split t={t} outside valid range [{m + 2}, {n - m - 2}] "
            f"for length {n}, dep_order {m}"
        )


def _split_coefficients(t, length: int, dep_order: int):
    """(alpha_t, beta_t, gamma_t) for split(s) t, scalar or array.

    alpha_t weights pairs left of the split, beta_t pairs right of it, and
    -gamma_t pairs straddling it.
    """
    n, m = length, dep_order
    alpha = (n - t - m) / (t - m - 1)
    beta = (t - m) / (n - t - m - 1)
    gamma = (t - m) * (n - t - m) / (t * (n - t) - m * (m + 1) / 2.0)
    return alpha, beta, gamma


@dataclass(frozen=True, eq=False)
class WeightPlan:
    """Immutable weights for a fixed (length, dep_order), stored as (u, v).

    Off the band |i-j| <= dep_order, W(i, j) = u(max(i,j)) + v(min(i,j)),
    and W is zero on the band; u and v are read-only length-n vectors,
    shareable across threads, and the only form of W: the batch, windowed
    and lag-sum computations all read them directly.  A plan pickles as its
    (length, dep_order) and unpickles to build_weight_plan's cached plan.
    """

    length: int
    dep_order: int
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.u.setflags(write=False)
        self.v.setflags(write=False)

    def __reduce__(self):
        # unpickle to the cached plan, whose vectors are read-only
        return build_weight_plan, (self.length, self.dep_order)


@lru_cache(maxsize=64)
def build_weight_plan(length: int, dep_order: int) -> WeightPlan:
    """Sum the banded split weights over all valid splits, in O(n).

    Off the band the sum separates as W(i, j) = u(max(i,j)) + v(min(i,j)):
    with C(x) the sum of gamma_t over valid t <= x, the pair (i < j) collects
    alpha_t for t >= j, beta_t for t < i and -gamma_t for i <= t < j, so
    u(k) = sum_{t>=k} alpha_t - C(k-1) and v(k) = sum_{t<k} beta_t + C(k-1).
    """
    n, m = length, dep_order
    _check_order(n, m)
    t0, t1 = m + 2, n - m - 2
    coef = _split_coefficients(np.arange(t0, t1 + 1, dtype=float), n, m)
    # index k-1 holds the coefficient of split t = k, zero outside [t0, t1]
    alpha, beta, gamma = (np.pad(c, (t0 - 1, n - t1)) for c in coef)
    below_g = np.cumsum(gamma) - gamma  # C(k-1)
    u = np.cumsum(alpha[::-1])[::-1] - below_g
    v = np.cumsum(beta) - beta + below_g
    return WeightPlan(length=n, dep_order=m, u=u, v=v)


@lru_cache(maxsize=64)
def lag_weight_sums(plan: WeightPlan) -> dict[tuple[int, int], float]:
    """S(h1, h2) = sum_{i,j} W(i,j) * W(i-h1, j+h2) for |h1|,|h2| <= dep_order.

    Out-of-range shifted indices contribute zero.  These sums pair with the
    squared trace estimates in the null-variance formula.  |h1+h2| <= 2M keeps
    a pair and its shift on one side of the diagonal, both below the band
    when i - j >= c = M+1+max(0, h1+h2); there row i adds (u_i + v_j) *
    (u_{i-h1} + v_{j+h2}) over its columns j <= i-c, four prefix sums over j.
    W is symmetric, so the side above the band is the side below at
    (-h2, -h1): O(n) time and memory per (h1, h2).
    """
    n, m, u, v = plan.length, plan.dep_order, plan.u, plan.v

    def below(h1: int, h2: int) -> float:
        c = m + 1 + max(0, h1 + h2)
        j0, j1 = max(0, -h2), min(n, n - h2)  # j and j + h2 in range
        i0, i1 = max(0, h1, j0 + c), min(n, n + h1)  # i and i - h1 in range
        ui, us, vj, vs = u[i0:i1], u[i0 - h1:i1 - h1], v[j0:j1], v[j0 + h2:j1 + h2]
        last = np.minimum(np.arange(i0 - c, i1 - c), j1 - 1) - j0  # row i's last j
        return (ui.dot(us * (last + 1)) + ui.dot(np.cumsum(vs)[last])
                + us.dot(np.cumsum(vj)[last]) + np.cumsum(vj * vs)[last].sum())

    return {
        (h1, h2): float(below(h1, h2) + below(-h2, -h1))
        for h1 in range(-m, m + 1)
        for h2 in range(-m, m + 1)
    }
