import tracemalloc

import numpy as np
import pytest

from covshift import (
    Detector,
    DetectorConfig,
    FitConfig,
    WindowState,
    build_weight_plan,
    fit_training,
    profile_statistic,
    statistic_batch,
    statistic_windowed,
)
from covshift import stats
from covshift.errors import ConfigurationError, DataError
from tests.test_weights import brute_profile_weight, dense_weights, profile_weight_matrix


def brute_statistic(x, mean, m):
    """Independent double-loop oracle for the batch statistic."""
    x = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    n = x.shape[0]
    total = 0.0
    for t in range(m + 2, n - m - 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if abs(i - j) >= m + 1:
                    prod = float(x[i - 1] @ x[j - 1])
                    total += brute_profile_weight(t, i, j, n, m) * prod**2
    return total / n**2


def test_constant_rows_give_zero():
    x = np.tile([1.5, -2.0, 0.5], (12, 1))
    plan = build_weight_plan(12, 0)
    assert statistic_batch(x, np.zeros(3), plan) == pytest.approx(0.0, abs=1e-9)
    assert statistic_batch(x, [1.5, -2.0, 0.5], plan) == pytest.approx(0.0, abs=1e-12)


def test_scalar_sequence_matches_oracle_and_frozen_value():
    x = np.array([1.0, -1.0, 2.0, 0.0, 1.0, -2.0, 1.0, 0.0]).reshape(-1, 1)
    plan = build_weight_plan(8, 0)
    got = statistic_batch(x, np.zeros(1), plan)
    assert got == pytest.approx(brute_statistic(x, np.zeros(1), 0), rel=1e-12)
    assert got == pytest.approx(-0.846875, rel=1e-12)


def test_batch_matches_oracle_on_random_data():
    rng = np.random.default_rng(3)
    for m in (0, 1):
        n = 11 + 2 * m
        x = rng.standard_normal((n, 3))
        mean = rng.standard_normal(3) * 0.1
        plan = build_weight_plan(n, m)
        assert statistic_batch(x, mean, plan) == pytest.approx(
            brute_statistic(x, mean, m), rel=1e-10
        )


def test_batch_matches_dense_weights_with_outliers():
    # rows 1e3 times the typical one make a few squared products dominate
    rng = np.random.default_rng(17)
    for n, m, p in [(9, 0, 3), (40, 2, 5), (300, 1, 4), (600, 3, 2)]:
        plan = build_weight_plan(n, m)
        x = rng.standard_normal((n, p))
        x[rng.random(n) < 0.02] *= 1e3
        mean = rng.standard_normal(p) * 0.1
        expected = float((dense_weights(plan) * ((x - mean) @ (x - mean).T) ** 2).sum()) / n**2
        err = statistic_batch(x, mean, plan) - expected
        assert abs(err) <= 1e-12 * term_scale(x, mean, plan), (n, m)


def test_statistic_scales_as_fourth_power():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((15, 4))
    plan = build_weight_plan(15, 0)
    base = statistic_batch(x, np.zeros(4), plan)
    scaled = statistic_batch(3.0 * x, np.zeros(4), plan)
    assert scaled == pytest.approx(3.0**4 * base, rel=1e-12)


def test_null_mean_near_zero():
    rng = np.random.default_rng(7)
    plan = build_weight_plan(30, 0)
    vals = np.empty(2000)
    for r in range(vals.shape[0]):
        x = rng.standard_normal((30, 3))
        vals[r] = statistic_batch(x, np.zeros(3), plan)
    se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
    assert abs(vals.mean()) < 4 * se


def test_two_block_change_gives_positive_statistic_and_boundary_peak():
    rng = np.random.default_rng(19)
    n, p, tau = 40, 5, 20
    plan = build_weight_plan(n, 0)
    reps = 400
    stats = np.empty(reps)
    profile_sum = np.zeros(n - 3)
    ts = list(range(2, n - 1))
    for r in range(reps):
        x = rng.standard_normal((n, p))
        x[tau:] *= 2.0
        stats[r] = statistic_batch(x, np.zeros(p), plan)
        for k, t in enumerate(ts):
            profile_sum[k] += profile_statistic(x, np.zeros(p), 0, t)
    se = stats.std(ddof=1) / np.sqrt(reps)
    assert stats.mean() > 4 * se
    peak = ts[int(np.argmax(profile_sum))]
    assert abs(peak - tau) <= 1


def test_profile_statistic_rejects_bad_t():
    x = np.random.default_rng(0).standard_normal((12, 2))
    with pytest.raises(ConfigurationError):
        profile_statistic(x, np.zeros(2), 0, 1)
    with pytest.raises(ConfigurationError):
        profile_statistic(x, np.zeros(2), 0, 11)


def test_profile_statistic_constant_data_matches_oracle_and_zero():
    x = np.tile([0.7, -0.3], (12, 1))
    for t in range(2, 11):
        got = profile_statistic(x, np.zeros(2), 0, t)
        # The banded per-slice weights sum to zero, so constant products vanish.
        assert got == pytest.approx(brute_statistic_single_t(x, np.zeros(2), 0, t), abs=1e-12)
        assert got == pytest.approx(0.0, abs=1e-9)


def test_profile_statistic_matches_dense_oracle_at_every_split():
    # The profile crosses zero, where any float sum carries rounding relative
    # to the terms it adds, not to its value; the tolerance is therefore
    # relative to sum |A_t(i, j)| G(i, j)^2 / n^2.  n=300 spans two blocks.
    rng = np.random.default_rng(23)
    cases = [(n, m) for m in range(4) for n in (2 * m + 5, 2 * m + 9, 41)] + [(300, 2)]
    for n, m in cases:
        p = int(rng.integers(1, 6))
        x = rng.standard_normal((n, p))
        x[n // 3:] *= 1.5
        mean = rng.standard_normal(p) * 0.1
        g2 = ((x - mean) @ (x - mean).T) ** 2
        for t in range(m + 2, n - m - 1):
            a = profile_weight_matrix(t, n, m)
            expected = (a * g2).sum() / n**2
            scale = (np.abs(a) * g2).sum() / n**2
            got = profile_statistic(x, mean, m, t)
            assert abs(got - expected) <= 1e-12 * scale, (n, m, t)


def test_profile_statistic_memory_is_linear_in_length():
    # a dense n x n array at n=3000 is 72 MB; the profile and the batch
    # statistic hold one tile of at most 256 x 1024 Gram entries
    x = np.random.default_rng(4).standard_normal((3000, 20))
    plan = build_weight_plan(3000, 1)
    for run in (
        lambda: profile_statistic(x, np.zeros(20), 1, 1500),
        lambda: statistic_batch(x, np.zeros(20), plan),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


def test_offband_sums_across_column_tiles_match_dense_masks(monkeypatch):
    # narrow tiles put tile edges inside the square the band cuts and make a
    # row's sum span many tiles; the width-1024 tile does not split these
    # row blocks, so its sums are bit for bit those of one wide tile
    rng = np.random.default_rng(33)
    for n, m in ((40, 0), (300, 1), (531, 3), (700, 0)):
        x = rng.standard_normal((n, 3))
        mean = rng.standard_normal(3) * 0.1
        g2 = ((x - mean) @ (x - mean).T) ** 2
        off = np.tril(g2, -m - 1)
        ref = stats._centered_offband_sums(x, mean, m)
        for tile in (7, 100, 256, 4096):
            monkeypatch.setattr(stats, "_GRAM_TILE", tile)
            got = stats._centered_offband_sums(x, mean, m)
            for s, want, dense in zip(got, ref, (off.sum(axis=1), off.sum(axis=0))):
                assert np.all(np.abs(s - dense) <= 1e-12 * g2.sum()), (n, m, tile)
                if tile > n:
                    assert np.array_equal(s, want), (n, m, tile)


def test_batch_and_profile_past_one_column_tile_match_dense_oracles():
    # n > 1024 + M + 1: the late rows' off-band sums span two column tiles
    rng = np.random.default_rng(34)
    for n, m in ((stats._GRAM_TILE + 3, 1), (stats._GRAM_TILE + 300, 2)):
        x = rng.standard_normal((n, 2))
        x[n // 2:] *= 1.5
        mean = rng.standard_normal(2) * 0.1
        g2 = ((x - mean) @ (x - mean).T) ** 2
        w = dense_weights(build_weight_plan(n, m))
        got = statistic_batch(x, mean, build_weight_plan(n, m))
        assert abs(got - (w * g2).sum() / n**2) <= 1e-12 * (np.abs(w) * g2).sum() / n**2
        for t in (m + 2, n // 2, stats._GRAM_TILE, n - m - 2):
            a = profile_weight_matrix(t, n, m)
            expected = (a * g2).sum() / n**2
            scale = (np.abs(a) * g2).sum() / n**2
            assert abs(profile_statistic(x, mean, m, t) - expected) <= 1e-12 * scale, (n, m, t)


def brute_statistic_single_t(x, mean, m, t):
    x = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    n = x.shape[0]
    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if abs(i - j) >= m + 1:
                prod = float(x[i - 1] @ x[j - 1])
                total += brute_profile_weight(t, i, j, n, m) * prod**2
    return total / n**2


def test_dimension_mismatch_raises():
    plan = build_weight_plan(10, 0)
    x = np.zeros((10, 3))
    with pytest.raises(DataError):
        statistic_batch(x, np.zeros(4), plan)
    with pytest.raises(DataError):
        statistic_batch(np.zeros(10), np.zeros(1), plan)


def test_non_finite_mean_is_rejected():
    with pytest.raises(DataError, match="non-finite"):
        WindowState(3).push(np.ones(2), [np.nan, 0.0])
    with pytest.raises(DataError, match="non-finite"):
        statistic_batch(np.ones((5, 2)), [np.nan, 0.0], build_weight_plan(5, 0))


def test_window_state_basic_push():
    state = WindowState(4)
    state.push(np.array([1.0, 2.0]), np.zeros(2))
    assert state.count == 1
    assert not state.full
    assert np.array_equal(state._buf[state._top], [1.0, 2.0])


def test_rejected_first_push_leaves_window_state_usable():
    state = WindowState(4)
    with pytest.raises(DataError):
        state.push(np.ones(3), np.zeros(2))  # mean of the wrong dimension
    state.push(np.ones(2), np.zeros(2))
    assert state.count == 1
    assert np.array_equal(state._buf[state._top], [1.0, 1.0])


def live_state(state):
    """A WindowState's rows newest first, each row's sums over its older
    rows in the window by age (zero past the oldest), and its sums over
    the newer rows: what k pushes determine, wherever the rows sit."""
    n, top = min(state.count, state.capacity), state._top
    ages = np.arange(n)
    in_window = ages[:, None] + ages[None, :] < n
    older = np.where(in_window, state._sq[top:top + n, :n], 0.0)
    return {"rows": state._buf[top:top + n], "older": older, "newer": state._newer[top:top + n]}


def test_rejected_push_before_a_block_copy_leaves_the_state_unchanged():
    h, p = 7, 3
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2 * h + 1, p))
    state = WindowState(h)
    for row in x[:h]:
        state.push(row, np.zeros(p))
    assert state._top == 0  # the next push copies the window to the far end
    saved = [a.copy() for a in (state._buf, state._sq, state._newer)]
    bad = x[h].copy()
    bad[1] = np.inf
    with pytest.raises(DataError, match="must be finite"):
        state.push(bad, np.zeros(p))
    assert state.count == h and state._top == 0
    for got, want in zip((state._buf, state._sq, state._newer), saved):
        assert np.array_equal(got, want)
    plan = build_weight_plan(h, 1)
    for t in range(h, 2 * h + 1):
        state.push(x[t], np.zeros(p))
        win = x[t - h + 1:t + 1]
        err = statistic_windowed(state, plan) - statistic_batch(win, np.zeros(p), plan)
        assert abs(err) <= 1e-12 * term_scale(win, np.zeros(p), plan), t


def test_window_state_holds_last_capacity_rows():
    h = 6
    state = WindowState(h)
    rows = np.arange((h + 1) * 2, dtype=float).reshape(h + 1, 2)
    for row in rows:
        state.push(row, np.zeros(2))
    assert state.full
    plan = build_weight_plan(h, 0)  # h=6 admits only M=0
    want = statistic_batch(rows[1:], np.zeros(2), plan)
    assert statistic_windowed(state, plan) == pytest.approx(want, rel=1e-12)


def test_windowed_statistic_not_ready_until_full():
    plan = build_weight_plan(8, 0)
    state = WindowState(8)
    rng = np.random.default_rng(2)
    for _ in range(7):
        state.push(rng.standard_normal(3), np.zeros(3))
        assert statistic_windowed(state, plan) is None
    state.push(rng.standard_normal(3), np.zeros(3))
    assert statistic_windowed(state, plan) is not None


def test_windowed_matches_batch_over_long_run():
    h, p, m = 50, 4, 1
    plan = build_weight_plan(h, m)
    state = WindowState(h)
    rng = np.random.default_rng(5)
    mean = rng.standard_normal(p) * 0.2
    history = []
    for step in range(500):
        x = rng.standard_normal(p)
        if step > 300:
            x = x * 1.7
        history.append(x)
        state.push(x, mean)
        inc = statistic_windowed(state, plan)
        if inc is None:
            continue
        batch = statistic_batch(np.asarray(history[-h:]), mean, plan)
        assert inc == pytest.approx(batch, rel=1e-10, abs=1e-12)


def test_windowed_statistic_zero_for_identical_vectors():
    h = 10
    plan = build_weight_plan(h, 0)
    state = WindowState(h)
    for _ in range(h):
        state.push(np.array([2.0, -1.0]), np.zeros(2))
    assert statistic_windowed(state, plan) == pytest.approx(0.0, abs=1e-9)


def test_window_straddling_change_exceeds_null_window():
    rng = np.random.default_rng(23)
    h, p = 16, 4
    plan = build_weight_plan(h, 0)
    null_vals = np.empty(1000)
    mixed_vals = np.empty(1000)
    for r in range(1000):
        pure = rng.standard_normal((h, p))
        null_vals[r] = statistic_batch(pure, np.zeros(p), plan)
        mixed = rng.standard_normal((h, p))
        mixed[h // 2 :] *= 2.0
        mixed_vals[r] = statistic_batch(mixed, np.zeros(p), plan)
    se = np.sqrt(null_vals.var(ddof=1) / 1000 + mixed_vals.var(ddof=1) / 1000)
    assert mixed_vals.mean() > null_vals.mean() + 4 * se


def ma_stream(rng, steps, p, m):
    """MA(m) rows whose scale swings slowly over one decade."""
    z = rng.standard_normal((steps + m, p))
    x = sum(z[k:k + steps] for k in range(m + 1)) / np.sqrt(m + 1)
    return x * 10 ** (0.5 * np.sin(np.arange(steps) / 500.0))[:, None]


def term_scale(win, mean, plan):
    """sum |W| G^2 / H^2: the size of the terms the statistic adds up."""
    xc = win - mean
    return float((np.abs(dense_weights(plan)) * (xc @ xc.T) ** 2).sum()) / plan.length**2


def test_windowed_matches_batch_over_long_soak():
    # 1.1e5 pushes over four shapes; the last runs through a primed Detector
    rng = np.random.default_rng(31)
    for h, m, p, steps in [(5, 0, 3, 27000), (9, 2, 2, 27000), (24, 1, 4, 27000)]:
        plan = build_weight_plan(h, m)
        mean = rng.standard_normal(p) * 0.1
        x = ma_stream(rng, steps, p, m)
        state = WindowState(h)
        for t, row in enumerate(x):
            state.push(row, mean)
            if t >= h - 1 and (t % 499 == 0 or t == steps - 1):
                win = x[t - h + 1:t + 1]
                err = statistic_windowed(state, plan) - statistic_batch(win, mean, plan)
                assert abs(err) <= 1e-12 * term_scale(win, mean, plan), (h, m, t)

    h, m, p, steps = 17, 2, 3, 27000
    train = ma_stream(rng, 200, p, m)
    summary = fit_training(train, FitConfig(window=h, dep_order_override=m))
    plan = build_weight_plan(h, m)
    x = np.vstack([train[-(h - 1):], ma_stream(rng, steps, p, m)])
    det = Detector(summary, DetectorConfig(window=h, threshold=1e12), prime=x[:h - 1])
    for t in range(h - 1, h - 1 + steps):
        res = det.step(x[t])
        if t % 499 == 0 or t == h - 2 + steps:
            win = x[t - h + 1:t + 1]
            err = res.std_stat * summary.null_sd - statistic_batch(win, summary.mean, plan)
            assert abs(err) <= 1e-12 * term_scale(win, summary.mean, plan), t


def test_windowed_rounding_stays_within_separable_term_scale():
    # Outliers 1e3 times the typical row make band products (W = 0) and
    # pairs with W(i, j) = u(i) + v(j) near 0 the largest terms, so the
    # separable sum's rounding is bounded by sum (|u(i)| + |v(j)|) G^2 over
    # every pair i > j, band included, and not by sum |W| G^2.
    rng = np.random.default_rng(8)
    for h, m in [(5, 0), (40, 2)]:
        plan = build_weight_plan(h, m)
        steps, p = 6000, 3
        x = rng.standard_normal((steps, p))
        x[rng.random(steps) < 0.01] *= 1e3
        state = WindowState(h)
        sep = np.tril(np.abs(plan.u)[:, None] + np.abs(plan.v)[None, :], -1)
        for t, row in enumerate(x):
            state.push(row, np.zeros(p))
            if t >= h - 1 and t % 7 == 0:
                win = x[t - h + 1:t + 1]
                bound = 2.0 * float((sep * (win @ win.T) ** 2).sum()) / h**2
                err = statistic_windowed(state, plan) - statistic_batch(win, np.zeros(p), plan)
                assert abs(err) <= 1e-12 * bound, (h, m, t)


def test_primed_window_matches_row_by_row_pushes():
    # a primed Detector loads its window from one block product; the state
    # must be the one row-by-row pushes leave, and stay exact as rows follow
    rng = np.random.default_rng(19)
    m = 1
    for h, p in [(7, 3), (40, 30)]:
        summary = fit_training(ma_stream(rng, 4 * h, p, m),
                               FitConfig(window=h, dep_order_override=m))
        plan = build_weight_plan(h, m)
        for k in (0, 1, h - 1, h, 2 * h + 3):
            x = ma_stream(rng, k + 3 * h, p, m)
            det = Detector(summary, DetectorConfig(window=h, threshold=1e12), prime=x[:k])
            ref = WindowState(h)
            for row in x[:k]:
                ref.push(row, summary.mean)
            assert det._state.count == ref.count == k
            if k == 0:
                assert det._state._sq is None and ref._sq is None
            else:
                # the centered rows, each row's sums over the older rows by
                # age and its sum over the newer rows, age for age
                got, want = live_state(det._state), live_state(ref)
                for name in ("rows", "older", "newer"):
                    err = np.abs(got[name] - want[name]).max()
                    assert err <= 1e-13 * np.abs(want[name]).max(), (h, k, name)
            for t in range(k, k + 3 * h):
                res = det.step(x[t])
                if t < h - 1:
                    assert res.std_stat is None
                    continue
                assert res.std_stat is not None, (h, k, t)  # from the first step when k >= H - 1
                win = x[t - h + 1:t + 1]
                err = res.std_stat * summary.null_sd - statistic_batch(win, summary.mean, plan)
                assert abs(err) <= 1e-12 * term_scale(win, summary.mean, plan), (h, k, t)


def test_one_window_state_serves_plans_of_any_dep_order():
    h, p = 23, 3
    rng = np.random.default_rng(12)
    mean = rng.standard_normal(p) * 0.1
    x = rng.standard_normal((3 * h + 5, p))
    state = WindowState(h)
    for t, row in enumerate(x):
        state.push(row, mean)
        if t >= h - 1:
            win = x[t - h + 1:t + 1]
            for m in (0, 1, 2):
                plan = build_weight_plan(h, m)
                err = statistic_windowed(state, plan) - statistic_batch(win, mean, plan)
                assert abs(err) <= 1e-12 * term_scale(win, mean, plan), (t, m)


def test_step_and_scan_stay_exact_across_block_copies():
    # the window's rows move to the far end of its buffers every H pushes;
    # scan blocks of 7 rows straddle those copies, a step and a scan give
    # the same numbers bit for bit, and both equal the batch statistic
    rng = np.random.default_rng(43)
    p, blocks, block = 3, 100, 7
    for h in (5, 24):
        for m in range(3):
            if h < 2 * m + 5:  # a length-5 window admits only M = 0
                continue
            train = ma_stream(rng, 4 * h, p, m)
            summary = fit_training(train, FitConfig(window=h, dep_order_override=m))
            plan = build_weight_plan(h, m)
            x = np.vstack([train[-(h - 1):], ma_stream(rng, blocks * block, p, m)])
            config = DetectorConfig(window=h, threshold=1e12)
            stepper = Detector(summary, config, prime=x[:h - 1])
            scanner = Detector(summary, config, prime=x[:h - 1])
            stepped = [stepper.step(row).std_stat for row in x[h - 1:]]
            scanned = []
            for b in range(blocks):
                scanned += scanner.scan(x[h - 1 + b * block:h - 1 + (b + 1) * block])[1]
            assert scanned == stepped, (h, m)
            assert blocks * block >= 20 * h  # at least 20 block copies
            for t, std_stat in enumerate(stepped, h - 1):
                win = x[t - h + 1:t + 1]
                err = std_stat * summary.null_sd - statistic_batch(win, summary.mean, plan)
                assert abs(err) <= 1e-12 * term_scale(win, summary.mean, plan), (h, m, t)
