import numpy as np
import pytest

from covshift import (
    FitConfig,
    TrainingSummary,
    build_weight_plan,
    estimate_dep_order,
    estimate_null_sd,
    estimate_trace_cross,
    fit_training,
    gen_stream,
    lag_weight_sums,
    population_null_sd,
    stationarity_test,
)
from covshift import training
from covshift.simulate import GeneratorSpec
from covshift.stats import _offband_sums
from covshift.errors import (
    ConfigurationError,
    DegenerateVarianceError,
    DependenceTooStrongError,
    InsufficientTrainingError,
)
from tests.test_weights import dense_weights


def test_trace_constant_rows_gives_norm_fourth():
    x = np.tile([1.0, 2.0, -1.0], (30, 1))
    norm_sq = 6.0
    got = estimate_trace_cross(x, np.zeros(3), 0, 0, 0)
    assert got == pytest.approx(norm_sq**2, rel=1e-12)


def test_trace_iid_recovers_trace_of_sigma_squared():
    rng = np.random.default_rng(31)
    p, n0, reps = 50, 200, 500
    vals00 = np.empty(reps)
    vals1m1 = np.empty(reps)
    for r in range(reps):
        x = rng.standard_normal((n0, p))
        vals00[r] = estimate_trace_cross(x, np.zeros(p), 0, 0, 0)
        vals1m1[r] = estimate_trace_cross(x, np.zeros(p), 1, -1, 0)
    se00 = vals00.std(ddof=1) / np.sqrt(reps)
    assert abs(vals00.mean() - p) < 3 * se00
    se11 = vals1m1.std(ddof=1) / np.sqrt(reps)
    assert abs(vals1m1.mean()) < 3 * se11


def test_trace_requires_enough_rows():
    x = np.random.default_rng(0).standard_normal((6, 3))
    with pytest.raises(InsufficientTrainingError) as err:
        estimate_trace_cross(x, np.zeros(3), 2, 2, 3)
    assert "n0" in str(err.value)


def brute_trace_cross(x, mean, h1, h2, sep, recenter):
    """Double-loop oracle: average of G[s, t+h2] * G[s+h1, t] over (s, t) whose
    groups {s, s+h1} and {t, t+h2} lie more than sep apart, one wholly before
    the other."""
    xc = np.asarray(x, dtype=float) - mean
    n = xc.shape[0]
    g = [[float(xc[i] @ xc[j]) for j in range(n)] for i in range(n)]
    if recenter:
        far = [[j for j in range(n) if abs(i - j) > sep] for i in range(n)]
        grand = sum(g[i][j] for i in range(n) for j in far[i]) / sum(map(len, far))
        row = [sum(g[i][j] for j in far[i]) / len(far[i]) if far[i] else grand for i in range(n)]
        g = [[g[i][j] - row[i] - row[j] + grand for j in range(n)] for i in range(n)]
    total, count = 0.0, 0
    for s in range(n):
        for t in range(n):
            gs, gt = (s, s + h1), (t, t + h2)
            if min(gs + gt) < 0 or max(gs + gt) >= n:
                continue
            if max(gs) + sep < min(gt) or max(gt) + sep < min(gs):
                total += g[s][t + h2] * g[s + h1][t]
                count += 1
    return total / count


def test_trace_cross_matches_brute_force_oracle():
    # the second input pads the diagonal slab over many diagonals and has
    # separations below the lags
    rng = np.random.default_rng(17)
    for n0, p, max_sep, max_lag in [(14, 3, 2, 2), (37, 4, 4, 3)]:
        x = rng.standard_normal((n0, p))
        mean = x.mean(axis=0) + 0.1
        scale = float(np.max(np.abs((x - mean) @ (x - mean).T))) ** 2
        lags = range(-max_lag, max_lag + 1)
        for sep in range(max_sep + 1):
            for h1 in lags:
                for h2 in lags:
                    for recenter in (False, True):
                        want = brute_trace_cross(x, mean, h1, h2, sep, recenter)
                        got = estimate_trace_cross(x, mean, h1, h2, sep, recenter=recenter)
                        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale), (
                            n0, sep, h1, h2, recenter)


def per_diagonal_slab(gram, band):
    """Oracle for training._diagonal_slab past a band: the diagonals beyond
    it, one copied at a time into rows of width n + 1."""
    n = gram.shape[0]
    rows = max(n - band - 1, 0)
    slab = np.zeros((rows, n + 1))
    for r, d in enumerate(range(band + 1, n)):
        slab[r, :n - d] = gram.diagonal(d)
    return slab.reshape(-1)


def test_diagonal_slab_matches_per_diagonal_oracle():
    # the estimates at band b read the one slab from its row b on
    rng = np.random.default_rng(23)
    for n0 in (7, 200, 1000):
        x = rng.standard_normal((n0, 6))
        gram = training._centered_gram(x, x.mean(axis=0))
        slab = training._diagonal_slab(gram)
        for band in (0, 1, 2, 10):
            got = slab[band * (n0 + 1):]
            assert np.array_equal(got, per_diagonal_slab(gram, band)), (n0, band)


def test_fit_bands_match_brute_force_oracle(monkeypatch):
    # an estimated-order fit builds one slab; its order scan (band max_order)
    # and its table (band M) match the oracle on every lag pair, lags of both
    # signs trimming every matrix edge
    built, slabs = [], []
    real_off_band, real_slab = training._OffBand, training._diagonal_slab

    def recording(*args):
        built.append(real_off_band(*args))
        return built[-1]

    def counting(gram):
        slabs.append(1)
        return real_slab(gram)

    monkeypatch.setattr(training, "_OffBand", recording)
    monkeypatch.setattr(training, "_diagonal_slab", counting)
    # MA(1) rows whose fitted orders, 1 and 2, put the table at a band of
    # its own
    for n0, max_order, seed, order in [(14, 2, 2, 1), (37, 4, 4, 2)]:
        e = np.random.default_rng(seed).standard_normal((n0 + 1, 20))
        x = e[1:] + e[:-1]
        built.clear()
        slabs.clear()
        summary = fit_training(x, FitConfig(window=10, max_order=max_order))
        assert summary.dep_order == order
        assert len(slabs) == 1 and len(built) == 1, n0
        mean = summary.mean
        scale = float(np.max(np.abs((x - mean) @ (x - mean).T))) ** 2

        def check(got, h1, h2, band):
            want = brute_trace_cross(x, mean, h1, h2, band, recenter=True)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * scale), (n0, band, h1, h2)

        scan = [(h, -h) for h in range(max_order + 1)]
        for (h1, h2), got in zip(scan, training._trace_sums(built[0], max_order, scan)):
            check(got, h1, h2, max_order)
        for (h1, h2), got in summary.trace_table.entries.items():
            check(got, h1, h2, summary.dep_order)
        table = training._trace_table(built[0], max_order)
        for (h1, h2), got in table.entries.items():
            check(got, h1, h2, max_order)


def test_offband_squares_match_gram_reduction():
    rng = np.random.default_rng(29)
    for n0 in (7, 200, 1000):
        x = rng.standard_normal((n0, 5))
        gram = training._centered_gram(x, x.mean(axis=0))
        off = training._OffBand(gram, 0)
        for band in (0, 1, 2, 10):
            want = _offband_sums(lambda i0, i1, j1: gram[i0:i1, :j1], n0, band)
            for got, ref in zip(off.offband_squares(band), want):
                assert np.all(np.abs(got - ref) <= 1e-12 * ref), (n0, band)


def test_trace_row_count_boundary():
    rng = np.random.default_rng(18)
    for sep in (0, 1, 2):
        for h1 in range(-2, 3):
            for h2 in range(-2, 3):
                short = abs(h1) + abs(h2) + sep + 1
                x = rng.standard_normal((short + 1, 2))
                for recenter in (False, True):
                    with pytest.raises(InsufficientTrainingError, match=f"n0 >= {short + 1}"):
                        estimate_trace_cross(x[:short], np.zeros(2), h1, h2, sep, recenter)
                    got = estimate_trace_cross(x, np.zeros(2), h1, h2, sep, recenter)
                    want = brute_trace_cross(x, np.zeros(2), h1, h2, sep, recenter)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_trace_rejects_negative_dep_order():
    with pytest.raises(ConfigurationError):
        estimate_trace_cross(np.ones((10, 2)), np.zeros(2), 0, 0, -1)


def test_trace_symmetrized_in_table():
    rng = np.random.default_rng(8)
    x = gen_stream(GeneratorSpec(p=30, dep_order=1), 120, 4)
    config = FitConfig(window=20, dep_order_override=1)
    summary = fit_training(x, config)
    table = summary.trace_table
    for h1 in (-1, 0, 1):
        for h2 in (-1, 0, 1):
            assert table[(h1, h2)] == pytest.approx(table[(h2, h1)], rel=1e-12)


def test_estimate_dep_order_is_scale_invariant():
    x = gen_stream(GeneratorSpec(p=60, dep_order=1), 250, 17)
    mean = x.mean(axis=0)
    m1 = estimate_dep_order(x, mean, epsilon=0.05, max_order=6)
    m2 = estimate_dep_order(3.7 * x, 3.7 * mean, epsilon=0.05, max_order=6)
    assert m1 == m2


def test_estimate_dep_order_raises_when_dependence_persists():
    # A slowly mixing AR-like stream keeps every lag ratio above the cutoff.
    rng = np.random.default_rng(5)
    n, p = 220, 40
    x = np.empty((n, p))
    x[0] = rng.standard_normal(p)
    for i in range(1, n):
        x[i] = 0.97 * x[i - 1] + 0.1 * rng.standard_normal(p)
    with pytest.raises(DependenceTooStrongError):
        estimate_dep_order(x, x.mean(axis=0), epsilon=0.05, max_order=2)


def test_null_sd_concentrates_near_population_iid():
    rng = np.random.default_rng(41)
    p, n0, h = 50, 300, 40
    x = rng.standard_normal((n0, p))
    sd = estimate_null_sd(x, np.zeros(p), 0, h)
    pop = population_null_sd(p, 0, h)
    assert sd == pytest.approx(pop, rel=0.10)


def test_null_sd_scales_with_fourth_power_of_data_scale():
    x = np.random.default_rng(2).standard_normal((150, 20))
    sd = estimate_null_sd(x, np.zeros(20), 0, 30)
    sd2 = estimate_null_sd(2.0 * x, np.zeros(20), 0, 30)
    assert sd2 == pytest.approx(16.0 * sd, rel=1e-10)


def test_null_sd_tracks_population_for_dependent_stream():
    x = gen_stream(GeneratorSpec(p=200, dep_order=1), 400, 9)
    sd = estimate_null_sd(x, x.mean(axis=0), 1, 100)
    pop = population_null_sd(200, 1, 100)
    assert sd == pytest.approx(pop, rel=0.10)


def test_null_sd_closed_form_for_iid_identity():
    # For M=0 the variance reduces to (4/H^4) * S(0,0) * trace^2, so the sd is
    # 2 * tr{C(0)^2} * sqrt(S(0,0)) / H^2.
    h = 30
    plan = build_weight_plan(h, 0)
    s00 = lag_weight_sums(plan)[(0, 0)]
    x = np.random.default_rng(3).standard_normal((200, 25))
    trace = estimate_trace_cross(x, np.zeros(25), 0, 0, 0, recenter=True)
    sd = estimate_null_sd(x, np.zeros(25), 0, h)
    assert sd == pytest.approx(2.0 * trace * np.sqrt(s00) / h**2, rel=1e-12)


def test_stationarity_critical_value_and_size_smoke():
    x = np.random.default_rng(4).standard_normal((200, 50))
    res = stationarity_test(x, x.mean(axis=0), 0, alpha=0.05)
    assert res.z_alpha == pytest.approx(1.6448536, rel=1e-6)
    assert res.rejected == (res.statistic > res.z_alpha)


def test_z_alpha_matches_recorded_ndtri():
    # scipy.special.ndtri(1 - alpha), recorded with scipy 1.17.1
    ndtri = {0.01: 2.3263478740408408, 0.05: 1.6448536269514722, 0.1: 1.2815515655446004}
    x = np.random.default_rng(4).standard_normal((60, 5))
    for alpha, z in ndtri.items():
        got = stationarity_test(x, x.mean(axis=0), 0, alpha=alpha).z_alpha
        assert abs(got - z) <= 1e-15 * z, (alpha, got, z)


def test_stationarity_statistic_matches_dense_weights():
    # against sum W G^2 / n0^2 / sd from the dense weights
    rng = np.random.default_rng(23)
    for n0, p, m in [(60, 8, 0), (300, 5, 2)]:
        x = rng.standard_normal((n0, p))
        x[rng.random(n0) < 0.02] *= 1e3
        mean = x.mean(axis=0)
        gram = (x - mean) @ (x - mean).T
        w = dense_weights(build_weight_plan(n0, m))
        sd = estimate_null_sd(x, mean, m, n0)
        expected = float((w * gram**2).sum()) / n0**2 / sd
        scale = float((np.abs(w) * gram**2).sum()) / n0**2 / sd
        got = stationarity_test(x, mean, m).statistic
        assert abs(got - expected) <= 1e-12 * scale, (n0, m)


def test_stationarity_flags_change_inside_training():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((200, 50))
    x[100:] *= 2.0
    res = stationarity_test(x, x.mean(axis=0), 0, alpha=0.05)
    assert res.rejected


def test_fit_training_validates_the_block_once(monkeypatch):
    calls = []
    real = training._as_matrix

    def counting(obs, *args, **kwargs):
        calls.append(1)
        return real(obs, *args, **kwargs)

    monkeypatch.setattr(training, "_as_matrix", counting)
    x = gen_stream(GeneratorSpec(p=20, dep_order=1), 150, 3)
    for override in (1, None):  # given and estimated dependence order
        calls.clear()
        fit_training(x, FitConfig(window=30, dep_order_override=override))
        assert len(calls) == 1, override


def test_fit_training_constant_data_degenerate():
    x = np.tile([1.0, -1.0], (60, 1))
    with pytest.raises(DegenerateVarianceError):
        fit_training(x, FitConfig(window=20, dep_order_override=0))


def test_fit_training_override_and_tail():
    x = gen_stream(GeneratorSpec(p=30, dep_order=0), 150, 12)
    summary = fit_training(x, FitConfig(window=40, dep_order_override=2))
    assert summary.dep_order == 2
    assert summary.train_tail.shape == (39, 30)
    assert np.array_equal(summary.train_tail, x[-39:])
    assert summary.n0 == 150 and summary.p == 30


def test_fit_training_needs_enough_rows_for_order():
    x = np.random.default_rng(1).standard_normal((8, 5))
    with pytest.raises((InsufficientTrainingError, ConfigurationError)):
        fit_training(x, FitConfig(window=8, dep_order_override=2))


def test_fit_config_validation():
    with pytest.raises(ConfigurationError):
        FitConfig(window=0)
    with pytest.raises(ConfigurationError):
        FitConfig(window=10, alpha=1.5)
    with pytest.raises(ConfigurationError):
        FitConfig(window=10, epsilon=-0.1)
    with pytest.raises(ConfigurationError):
        FitConfig(window=10, dep_order_override=-1)


def test_summary_json_round_trip():
    x = gen_stream(GeneratorSpec(p=20, dep_order=1), 140, 21)
    summary = fit_training(x, FitConfig(window=30, dep_order_override=1))
    payload = summary.to_dict()
    assert payload["m_hat"] == 1
    assert payload["window"] == 30
    back = TrainingSummary.from_dict(payload)
    assert back.dep_order == summary.dep_order
    assert back.n0 == summary.n0
    assert back.p == summary.p
    assert back.window == summary.window
    assert back.null_sd == pytest.approx(summary.null_sd, rel=1e-15)
    assert np.allclose(back.mean, summary.mean)
    for key, value in summary.trace_table.entries.items():
        assert back.trace_table[key] == pytest.approx(value, rel=1e-15)
    assert back.stationarity.rejected == summary.stationarity.rejected
    assert back.train_tail is None  # the tail is session-only, not serialized
