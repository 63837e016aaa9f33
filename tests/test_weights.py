import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covshift import build_weight_plan, lag_weight_sums
from covshift.errors import ConfigurationError


def brute_profile_weight(t, i, j, n, m):
    """Independent scalar evaluation of the three-branch weight formula."""
    if i <= t and j <= t:
        return (n - t - m) / (t - m - 1)
    if i >= t + 1 and j >= t + 1:
        return (t - m) / (n - t - m - 1)
    return -(t - m) * (n - t - m) / (t * (n - t) - m * (m + 1) / 2)


def dense_weights(plan):
    """Test oracle: the dense n x n W of a plan, u(max) + v(min) off the band
    and zero on it."""
    lower = np.tril(plan.u[:, None] + plan.v[None, :], -(plan.dep_order + 1))
    return lower + lower.T


def profile_weight_matrix(t, n, m):
    """Dense oracle: the banded split-t slice A_t(i, j) * 1{|i-j| > m} as an
    n x n matrix, from the scalar formula's three branch values."""
    a = np.full((n, n), brute_profile_weight(t, 1, n, n, m))
    a[:t, :t] = brute_profile_weight(t, 1, 1, n, m)
    a[t:, t:] = brute_profile_weight(t, n, n, n, m)
    return np.triu(a, m + 1) + np.tril(a, -m - 1)


def dense_profile(x, mean, m):
    """Dense oracle for the split profile: (splits, statistic at each split).

    The split-t weights are constant on three blocks of the n x n squared
    centered Gram, so each split sums those blocks of the off-band upper
    triangle directly and weights them with the scalar formula.
    """
    xc = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    n = xc.shape[0]
    g2 = np.triu((xc @ xc.T) ** 2, m + 1)
    ts = np.arange(m + 2, n - m - 1)
    profile = []
    for t in ts:
        blocks = g2[:t, :t].sum(), g2[t:, t:].sum(), g2[:t, t:].sum()
        weights = [brute_profile_weight(t, i, j, n, m) for i, j in ((1, 1), (n, n), (1, n))]
        profile.append(2.0 * np.dot(weights, blocks))
    return ts, np.array(profile) / n**2


def brute_weight_matrix(n, m):
    """Triple-loop oracle for the summed banded weight matrix."""
    w = np.zeros((n, n))
    for t in range(m + 2, n - m - 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) >= m + 1:
                    w[i - 1, j - 1] += brute_profile_weight(t, i, j, n, m)
    return w


def test_plan_matches_brute_force_oracle():
    cases = [(n, m) for m in (0, 1, 2, 3) for n in range(2 * m + 5, 2 * m + 11)]
    for n, m in cases + [(40, 2)]:
        plan = build_weight_plan(n, m)
        expected = brute_weight_matrix(n, m)
        assert np.allclose(dense_weights(plan), expected, rtol=1e-12, atol=1e-12)


def test_profile_weight_matrix_matches_scalar_formula():
    n, m = 12, 1
    for t in range(m + 2, n - m - 1):
        a = profile_weight_matrix(t, n, m)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) <= m:
                    assert a[i - 1, j - 1] == 0.0
                else:
                    assert a[i - 1, j - 1] == pytest.approx(
                        brute_profile_weight(t, i, j, n, m), rel=1e-12
                    )


def test_per_slice_banded_weights_sum_to_zero():
    for n, m in [(9, 0), (12, 1), (15, 2)]:
        for t in range(m + 2, n - m - 1):
            a = profile_weight_matrix(t, n, m)
            assert abs(a.sum()) < 1e-10 * np.abs(a).sum()


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=0, max_value=40),
)
def test_plan_invariants_hold(m, extra):
    n = 2 * m + 5 + extra
    plan = build_weight_plan(n, m)
    w = dense_weights(plan)
    assert w.shape == (n, n)
    assert np.array_equal(w, w.T)
    idx = np.arange(n)
    band = np.abs(idx[:, None] - idx[None, :]) <= m
    assert np.all(w[band] == 0.0)
    assert abs(w.sum()) <= 1e-8 * np.abs(w).sum()


def test_plan_rejects_short_length():
    with pytest.raises(ConfigurationError) as err:
        build_weight_plan(6, 1)
    assert "7" in str(err.value)  # names the minimum length 2M+5


def test_plan_vectors_rebuild_dense_weights():
    for n, m in [(5, 0), (14, 1), (40, 2), (37, 3)]:
        plan = build_weight_plan(n, m)
        u, v, w = plan.u, plan.v, dense_weights(plan)
        assert u.shape == v.shape == (n,)
        for i in range(n):
            for j in range(i - m):  # j < i - m: off the band
                assert w[i, j] == w[j, i] == u[i] + v[j]
        for arr in (u, v):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def shifted_sum(w, h1, h2):
    """sum_{i,j} W(i,j) W(i-h1, j+h2) with W zero outside 0..n-1, by padding."""
    n, pad = w.shape[0], max(abs(h1), abs(h2))
    wp = np.zeros((n + 2 * pad, n + 2 * pad))
    wp[pad:pad + n, pad:pad + n] = w
    return float((w * wp[pad - h1:pad - h1 + n, pad + h2:pad + h2 + n]).sum())


def test_lag_weight_sums_match_direct_shifts():
    cases = [(n, m) for m in (0, 1, 2, 3) for n in range(2 * m + 5, 2 * m + 12)]
    for n, m in cases + [(300, 2)]:
        plan = build_weight_plan(n, m)
        w = dense_weights(plan)
        sums = lag_weight_sums(plan)
        assert set(sums) == {(h1, h2) for h1 in range(-m, m + 1) for h2 in range(-m, m + 1)}
        for (h1, h2), got in sums.items():
            assert got == pytest.approx(shifted_sum(w, h1, h2), rel=1e-12), (n, m, h1, h2)


def test_lag_weight_sums_memory_is_linear_in_length():
    # a dense n x n W at n=3000 is 72 MB; the sums need O(n) vectors
    plan = build_weight_plan(3000, 2)
    lag_weight_sums.cache_clear()
    tracemalloc.start()
    try:
        lag_weight_sums(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_square_sum_approaches_continuum_limit():
    # The scaled square sum converges to pi^2/3 - 3 (the double integral of
    # the squared continuum kernel); the gap should shrink as length grows.
    limit = math.pi**2 / 3.0 - 3.0
    vals = {}
    for n in (100, 200, 400):
        w = dense_weights(build_weight_plan(n, 0))
        vals[n] = float((w**2).sum()) / n**4
    assert abs(vals[200] - limit) < 0.003
    assert abs(vals[400] - limit) < abs(vals[200] - limit) < abs(vals[100] - limit)
