"""End-to-end acceptance checks, one test per advertised capability.

Each test pins a published reference number or a hard behavioral guarantee at
its stated tolerance.  The Monte Carlo tests run at desk scale (reduced
replicates, widened bands); seeds are fixed so reruns are deterministic.
"""

import math
import statistics
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from covshift import (
    Detector,
    DetectorConfig,
    FitConfig,
    GeneratorSpec,
    PostChange,
    StreamGenerator,
    TrainingRecipe,
    WindowState,
    build_weight_plan,
    change_norm_frobenius,
    dep_order_study,
    edd_upper_bound,
    fit_training,
    gen_stream,
    localize,
    min_detectable_change,
    monte_carlo_arl,
    monte_carlo_edd,
    population_null_sd,
    solve_threshold,
    statistic_batch,
    statistic_windowed,
    stationarity_test,
    theoretical_arl,
)
from tests.test_weights import dense_weights

WORKERS = 8

ARL_TABLE = [
    (3.04, 100, 1002.0),
    (3.42, 100, 3008.0),
    (3.58, 100, 5038.0),
    (2.88, 150, 1005.0),
    (3.29, 150, 3033.0),
    (3.46, 150, 5118.0),
]


def test_criterion_1_threshold_calibration():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, h, arl in ARL_TABLE:
            got = theoretical_arl(a, h)
            assert got == pytest.approx(arl, rel=0.01), (a, h, got)
        for a, h, arl in ARL_TABLE:
            assert solve_threshold(arl, h).threshold == pytest.approx(a, abs=0.01)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_monte_carlo_arl():
    spec = GeneratorSpec(p=200, dep_order=0)
    recipe = TrainingRecipe(n0=200, dep_order_policy="true")
    mc = monte_carlo_arl(
        spec, recipe, threshold=3.04, window=100, replicates=200,
        max_steps=12000, seed=20260818, workers=WORKERS,
    )
    assert not mc.unreliable
    assert 1178 * 0.75 <= mc.mean <= 1178 * 1.25, mc.mean


EDD_CELLS = [  # (rho, dep_order, mc_reference, bound_reference)
    (0.6, 0, 16.18, 20.59),
    (0.8, 0, 8.11, 12.46),
    (0.6, 2, 24.04, 25.99),
    (0.8, 2, 12.44, 16.38),
]


def test_criterion_3_edd_reproduction():
    means = {}
    for rho, m, mc_ref, bound_ref in EDD_CELLS:
        spec = GeneratorSpec(
            p=1000, dep_order=m, post_change=PostChange("a", rho, change_at=200)
        )
        recipe = TrainingRecipe(n0=200, dep_order_policy="true")
        mc = monte_carlo_edd(
            spec, recipe, threshold=3.58, window=100, replicates=200,
            seed=7, workers=WORKERS,
        )
        assert mc.censored == 0
        assert mc.mean == pytest.approx(mc_ref, rel=0.30), (rho, m, mc.mean)
        assert mc.mean <= bound_ref, (rho, m, mc.mean)
        means[(rho, m)] = mc.mean
    # delay decreases in the change size and increases in the dependence order
    assert means[(0.8, 0)] < means[(0.6, 0)]
    assert means[(0.8, 2)] < means[(0.6, 2)]
    assert means[(0.6, 2)] > means[(0.6, 0)]
    assert means[(0.8, 2)] > means[(0.8, 0)]


BOUND_CELLS = [  # (model, window, threshold, rho, dep_order, reference)
    ("a", 100, 3.58, 0.6, 0, 20.59),
    ("a", 100, 3.58, 0.6, 1, 23.63),
    ("a", 100, 3.58, 0.6, 2, 25.99),
    ("a", 100, 3.58, 0.7, 0, 16.23),
    ("a", 100, 3.58, 0.8, 0, 12.46),
    ("a", 100, 3.58, 0.8, 2, 16.38),
    ("a", 150, 3.46, 0.6, 0, 24.36),
    ("a", 150, 3.46, 0.8, 2, 19.22),
    ("c", 100, 3.58, 0.8, 1, 3.87),
    ("c", 150, 3.46, 0.8, 2, 5.13),
]


def test_criterion_4_edd_bound_formula():
    p = 1000
    for model, window, a, rho, m, ref in BOUND_CELLS:
        sd = population_null_sd(p, m, window)
        norm = change_norm_frobenius(model, p, rho, m)
        bound = edd_upper_bound(a, window, m, sd, norm).bound
        assert bound == pytest.approx(ref, rel=0.02), (model, window, rho, m, bound)


def test_criterion_5_minimum_detectable_change():
    p = 1000
    target = min_detectable_change(3.58, 100, math.sqrt(p))
    rho_min = brentq(lambda r: change_norm_frobenius("a", p, r, 0) - target, 1e-4, 0.9)
    assert rho_min == pytest.approx(0.133, abs=0.002)


def test_criterion_6_order_selection():
    counts0 = dep_order_study(0, p=1000, n0=200, replicates=100, seed=60)
    assert counts0.get(0, 0) >= 95, counts0
    counts1 = dep_order_study(1, p=1000, n0=200, replicates=100, seed=61)
    assert counts1.get(1, 0) >= 90, counts1


def test_criterion_7a_incremental_matches_batch_and_weight_identities():
    rng = np.random.default_rng(7070)
    for _ in range(50):
        m = int(rng.integers(0, 3))
        h = int(rng.integers(2 * m + 5, 36))
        p = int(rng.integers(2, 12))
        length = h + int(rng.integers(30, 90))
        plan = build_weight_plan(h, m)
        mean = rng.standard_normal(p) * 0.3
        state = WindowState(h)
        history = []
        scale_from = int(rng.integers(h, length))
        for step in range(length):
            x = rng.standard_normal(p)
            if step >= scale_from:
                x = 1.8 * x
            history.append(x)
            state.push(x, mean)
            inc = statistic_windowed(state, plan)
            if inc is None:
                assert step < h - 1
                continue
            batch = statistic_batch(np.asarray(history[-h:]), mean, plan)
            assert inc == pytest.approx(batch, rel=1e-10, abs=1e-12)
    for h, m in [(30, 0), (41, 1), (64, 2)]:
        w = dense_weights(build_weight_plan(h, m))
        assert np.array_equal(w, w.T)
        idx = np.arange(h)
        assert np.all(w[np.abs(idx[:, None] - idx[None, :]) <= m] == 0.0)
        assert abs(w.sum()) <= 1e-8 * np.abs(w).sum()


def test_criterion_7b_weight_square_sum_asymptote():
    # Erratum: the originally quoted limit (6 pi^2 - 51)/18 = 0.45655 carries
    # an algebra slip (-51 where -54 belongs); the limit is
    # (6 pi^2 - 54)/18 = pi^2/3 - 3 = 0.28987.
    # - At M=0 the split coefficients tend to alpha -> (1-s)/s,
    #   beta -> s/(1-s), gamma -> 1, so W(i,j)/H tends to the kernel
    #   K(x,y) = -1 - log(max(x,y)) - log(1 - min(x,y)), and the double
    #   integral of K^2 over [0,1]^2 is 0.289868133696453 (mpmath), equal to
    #   pi^2/3 - 3 to 15 digits.
    # - Direct summation falls toward it: 0.29572, 0.29393, 0.29222, 0.29114,
    #   0.29053, 0.29020 at H = 50, 100, 200, 400, 800, 1600.
    # - The null sd at M=0 is 2p*sqrt(sum W^2 / H^4). Built from these
    #   weights, criterion 4's (a, H=100, rho=0.6, M=0) bound is 20.58999
    #   against the published 20.59; the quoted constant would give 22.83.
    # rel=0.05 still rejects the quoted constant and any square-sum error of
    # 5% or more.
    h = 200
    w = dense_weights(build_weight_plan(h, 0))
    scaled = float((w**2).sum()) / h**4
    assert scaled == pytest.approx(math.pi**2 / 3 - 3, rel=0.05), (
        f"scaled square sum {scaled:.5f}; continuum limit "
        f"{math.pi**2 / 3 - 3:.5f}"
    )


def test_criterion_8_stationarity_size():
    reps = 1000
    rejections = 0
    for rep in range(reps):
        train = gen_stream(GeneratorSpec(p=200, dep_order=0), 200, (81, rep))
        res = stationarity_test(train, train.mean(axis=0), 0, alpha=0.05)
        rejections += int(res.rejected)
    rate = rejections / reps
    assert 0.02 <= rate <= 0.09, rate


def test_criterion_9_localization():
    spec = GeneratorSpec(p=200, dep_order=0, post_change=PostChange("a", 0.8, change_at=200))
    errors = []
    for rep in range(200):
        gen = StreamGenerator(spec, (90, rep))
        train = gen.take(200)
        summary = fit_training(train, FitConfig(window=100, dep_order_override=0))
        det = Detector(summary, DetectorConfig(window=100, threshold=3.58))
        consumed = []
        for _ in range(1000):
            x = gen.take(1)[0]
            consumed.append(x)
            if det.step(x).state == "alarm":
                break
        history = np.vstack([train, np.vstack(consumed)])
        tau_hat = localize(history, summary)
        errors.append(abs(tau_hat - 200))
    assert statistics.median(errors) <= 5, statistics.median(errors)
