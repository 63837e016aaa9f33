import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from covshift import (
    Detector,
    DetectorConfig,
    FitConfig,
    GeneratorSpec,
    PostChange,
    StreamGenerator,
    TrainingSummary,
    WindowState,
    build_weight_plan,
    fit_training,
    gen_stream,
    localize,
    statistic_batch,
)
from covshift.errors import ConfigurationError, DataError, DetectorFinishedError
from covshift.stats import _PROFILE_BLOCK
from tests.test_weights import dense_profile


def make_summary(p=30, n0=150, window=40, m=0, seed=14):
    train = gen_stream(GeneratorSpec(p=p, dep_order=m), n0, seed)
    return train, fit_training(train, FitConfig(window=window, dep_order_override=m))


def test_primed_detector_evaluates_immediately():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=3.0))
    rng = np.random.default_rng(1)
    res = det.step(rng.standard_normal(30))
    assert res.index == 1
    assert res.state in ("monitoring", "alarm")
    assert res.std_stat is not None


def test_cold_start_fills_window_first():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=3.0), prime=None)
    rng = np.random.default_rng(2)
    for k in range(1, 40):
        res = det.step(rng.standard_normal(30))
        assert res.state == "filling"
        assert res.std_stat is None
    res = det.step(rng.standard_normal(30))
    assert res.index == 40
    assert res.state in ("monitoring", "alarm")


def test_window_mismatch_rejected():
    train, summary = make_summary(window=40)
    with pytest.raises(ConfigurationError):
        Detector(summary, DetectorConfig(window=50, threshold=3.0))


def test_config_rejects_nan_and_non_positive_threshold():
    for threshold in (float("nan"), 0.0, -1.0):
        with pytest.raises(ConfigurationError):
            DetectorConfig(window=10, threshold=threshold)


def test_constant_stream_never_alarms_from_cold_start():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=1e-6), prime=None)
    row = np.full(30, 0.3)
    for _ in range(120):
        res = det.step(row)
        assert res.state != "alarm"
    assert not det.finished


def test_statistic_is_zero_on_pure_constant_window():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=1e9), prime=None)
    row = np.full(30, 0.3)
    last = None
    for _ in range(80):
        last = det.step(row)
    centered_const = statistic_batch(
        np.tile(row, (40, 1)), summary.mean, build_weight_plan(40, 0)
    )
    assert last.std_stat == pytest.approx(centered_const / summary.null_sd, abs=1e-12)
    assert abs(last.std_stat) < 1e-6


def test_step_after_alarm_raises():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=0.01))
    rng = np.random.default_rng(4)
    res = det.step(rng.standard_normal(30))
    assert res.state == "alarm"
    with pytest.raises(DetectorFinishedError):
        det.step(rng.standard_normal(30))


def scan_stream(p=13, window=20, m=1):
    """A cold-start detector and a stream that alarms well after the window
    fills, with the step-by-step statistics as reference."""
    spec = GeneratorSpec(p=p, dep_order=m, post_change=PostChange("a", 0.8, change_at=240))
    gen = StreamGenerator(spec, 27)
    summary = fit_training(gen.take(200), FitConfig(window=window, dep_order_override=m))
    rows = gen.take(300)
    config = DetectorConfig(window=window, threshold=3.0)
    ref = Detector(summary, config, prime=None)
    stats = []
    for row in rows:
        stats.append(ref.step(row).std_stat)
        if ref.finished:
            break
    return summary, config, rows, ref, stats


@pytest.mark.parametrize("k", [1, 7, 20, 60])
def test_scan_matches_step_bit_for_bit(k):
    summary, config, rows, ref, stats = scan_stream()
    assert stats[0] is None and stats[19] is not None  # the window fills at row 20
    assert ref.stopping_time == 58  # mid-block for every k above 1
    det = Detector(summary, config, prime=None)
    got, start = [], 0
    while True:
        alarm, block_stats = det.scan(rows[start:start + k])
        got += block_stats
        if alarm is not None:
            break
        assert len(block_stats) == k
        start += k
    assert got == stats  # exact, not approximate
    assert alarm == len(block_stats) - 1 == (ref.stopping_time - 1) % k
    assert det.steps == det.stopping_time == ref.stopping_time  # later rows not consumed
    assert det.trajectory == ref.trajectory
    assert det.build_report() == ref.build_report()
    with pytest.raises(DetectorFinishedError):
        det.scan(rows[-k:])


def test_scan_rejects_a_bad_block_before_consuming_it():
    summary, config, rows, ref, stats = scan_stream()
    det = Detector(summary, config, prime=None)
    det.scan(rows[:30])
    trajectory = list(det.trajectory)
    bad = rows[30:37].copy()
    bad[2, 4] = np.nan
    for block in (bad, rows[30:37, :-1], rows[30]):
        with pytest.raises(DataError):
            det.scan(block)
        assert det.steps == 30 and det.trajectory == trajectory
    assert det.scan(rows[30:37])[1] == stats[30:37]


def test_dimension_and_finiteness_validated():
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=3.0))
    with pytest.raises(DataError):
        det.step(np.zeros(31))
    with pytest.raises(DataError):
        det.step(np.full(30, np.nan))
    with pytest.raises(DataError, match="^observation must be a 1-D array, got ragged"):
        det.step([0.0] * 29 + [[1.0, 2.0]])


def test_non_real_input_is_rejected_and_named():
    # bool, complex, string and object arrays are refused, never cast to
    # float: a malformed row must stop the monitor, not be scored
    train, summary = make_summary()
    config = DetectorConfig(window=40, threshold=3.0)
    det = Detector(summary, config)
    strings = [str(v) for v in range(30)]
    payload = {**summary.to_dict(), "mean": [str(v) for v in summary.mean]}
    cases = [
        ("observation", lambda: det.step(np.ones(30, dtype=bool))),
        ("observation", lambda: det.step(strings)),
        ("observations", lambda: det.scan(train[:3] + 1j)),
        ("observation", lambda: WindowState(4).push(np.ones(3) + 1j, np.zeros(3))),
        ("prime", lambda: Detector(summary, config, prime=[strings] * 5)),
        ("history", lambda: localize(train.astype(str), summary)),
        ("observations", lambda: fit_training(train > 0, FitConfig(window=40))),
        ("observations",
         lambda: statistic_batch(train[:40] + 1j, summary.mean, build_weight_plan(40, 0))),
        ("mean", lambda: TrainingSummary.from_dict(payload)),
    ]
    for name, call in cases:
        with pytest.raises(DataError, match=f"^{name} must hold real numbers"):
            call()
    assert det.steps == 0 and det.trajectory == []


def test_trajectory_bounded_by_threshold_until_alarm():
    spec = GeneratorSpec(p=60, dep_order=0, post_change=PostChange("a", 0.8, change_at=150))
    gen = StreamGenerator(spec, 77)
    train = gen.take(150)
    summary = fit_training(train, FitConfig(window=40, dep_order_override=0))
    det = Detector(summary, DetectorConfig(window=40, threshold=3.0))
    alarmed = False
    for _ in range(400):
        res = det.step(gen.take(1)[0])
        if res.state == "alarm":
            alarmed = True
            break
    assert alarmed
    assert all(abs(v) <= 3.0 for v in det.trajectory[:-1])
    assert abs(det.trajectory[-1]) > 3.0
    report = det.build_report()
    assert report.stopping_time == det.stopping_time
    assert report.alarm_statistic == det.trajectory[-1]


def test_incremental_equals_batch_recompute():
    spec = GeneratorSpec(p=20, dep_order=1)
    gen = StreamGenerator(spec, 9)
    train = gen.take(120)
    summary = fit_training(train, FitConfig(window=30, dep_order_override=1))
    det = Detector(summary, DetectorConfig(window=30, threshold=1e9))
    plan = build_weight_plan(30, 1)
    rows = list(train[-29:])
    for x in gen.take(90):
        rows.append(x)
        res = det.step(x)
        batch = statistic_batch(np.asarray(rows[-30:]), summary.mean, plan)
        assert res.std_stat == pytest.approx(batch / summary.null_sd, rel=1e-10, abs=1e-12)


def test_detector_survives_a_pickle_round_trip():
    train, summary = make_summary(p=5, window=30, m=1)
    det = Detector(summary, DetectorConfig(window=30, threshold=1e9))
    rows = np.random.default_rng(2).standard_normal((6, 5))
    for x in rows[:3]:
        det.step(x)
    restored = pickle.loads(pickle.dumps(det))
    for x in rows[3:]:
        assert restored.step(x).std_stat == det.step(x).std_stat
    assert np.array_equal(restored.plan.u, det.plan.u)
    assert np.array_equal(restored.plan.v, det.plan.v)
    assert not restored.plan.u.flags.writeable
    assert not restored.plan.v.flags.writeable


def test_detection_is_deterministic():
    def one_run():
        spec = GeneratorSpec(p=40, dep_order=0, post_change=PostChange("c", 0.6, change_at=120))
        gen = StreamGenerator(spec, 55)
        train = gen.take(120)
        summary = fit_training(train, FitConfig(window=30, dep_order_override=0))
        det = Detector(summary, DetectorConfig(window=30, threshold=3.0))
        for _ in range(300):
            res = det.step(gen.take(1)[0])
            if res.state == "alarm":
                return res.stopping_time, res.std_stat
        return None, None

    assert one_run() == one_run()


def test_localize_finds_planted_change():
    rng = np.random.default_rng(91)
    n, tau, p = 300, 150, 60
    x = rng.standard_normal((n, p))
    x[tau:] *= 1.8
    summary_mean = np.zeros(p)

    class Stub:
        mean = summary_mean
        p = x.shape[1]
        dep_order = 0

    tau_hat = localize(x, Stub())
    assert abs(tau_hat - tau) <= 10


def test_localize_via_report_on_detected_change():
    spec = GeneratorSpec(p=80, dep_order=0, post_change=PostChange("a", 0.8, change_at=160))
    gen = StreamGenerator(spec, 33)
    train = gen.take(160)
    summary = fit_training(train, FitConfig(window=40, dep_order_override=0))
    det = Detector(summary, DetectorConfig(window=40, threshold=3.2))
    consumed = []
    for _ in range(400):
        x = gen.take(1)[0]
        consumed.append(x)
        if det.step(x).state == "alarm":
            break
    history = np.vstack([train, np.vstack(consumed)])
    report = det.build_report(history=history)
    assert report.tau_hat is not None
    assert abs(report.tau_hat - 160) <= 10
    assert report.delay_vs_tau_hat == summary.n0 + report.stopping_time - report.tau_hat


def test_build_report_rejects_history_of_wrong_length():
    # tau_hat counts rows from the start of training, so a history that is
    # not n0 training rows plus every monitored row would shift it silently
    train, summary = make_summary()
    det = Detector(summary, DetectorConfig(window=40, threshold=1e9))
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((12, 30))
    for x in rows:
        det.step(x)
    for history in (np.vstack([train[50:], rows]), np.vstack([train, rows[:-1]])):
        with pytest.raises(DataError, match=f"expected n0 \\+ steps = {summary.n0 + 12}"):
            det.build_report(history=history)
    assert det.build_report(history=np.vstack([train, rows])).tau_hat is not None


def test_localize_is_earliest_argmax_of_dense_profile():
    # localize's row/column-sum profile against the dense oracle's block
    # sums, over every admissible split
    rng = np.random.default_rng(41)
    # the last case spans more than two of the profile's row blocks
    cases = [(30, 4, 0, None), (33, 3, 1, None), (36, 5, 2, None), (40, 6, 1, 22),
             (2 * _PROFILE_BLOCK + 37, 3, 2, 300)]
    for n, p, m, tau in cases:
        x = rng.standard_normal((n, p))
        if tau is not None:
            x[tau:] *= 2.0
        summary = SimpleNamespace(mean=rng.standard_normal(p) * 0.1, p=p, dep_order=m)
        ts, profile = dense_profile(x, summary.mean, m)
        assert localize(x, summary) == ts[int(np.argmax(profile))]


def test_localize_rejects_bad_summary_mean():
    x = np.random.default_rng(2).standard_normal((30, 3))
    with pytest.raises(DataError, match="non-finite"):
        localize(x, SimpleNamespace(mean=np.array([np.nan, 0.0, 0.0]), p=3, dep_order=0))
    with pytest.raises(DataError, match="shape"):
        localize(x, SimpleNamespace(mean=np.zeros(2), p=3, dep_order=0))


def test_localize_tie_breaks_to_earliest_candidate():
    x = np.tile([1.0, -2.0], (40, 1))  # constant stream: every profile value is 0

    class Stub:
        mean = np.zeros(2)
        p = 2
        dep_order = 0

    assert localize(x, Stub()) == 2  # smallest admissible split M+2


def test_localize_too_short_returns_none():
    # splits run over [M+2, n-M-2]: none at n = 2M+3, only t = M+2 at 2M+4
    rng = np.random.default_rng(0)
    for m in (0, 1, 2):
        class Stub:
            mean = np.zeros(3)
            p = 3
            dep_order = m

        assert localize(rng.standard_normal((2 * m + 3, 3)), Stub()) is None, m
        assert localize(rng.standard_normal((2 * m + 4, 3)), Stub()) == m + 2, m
