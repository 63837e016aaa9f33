import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import brentq

from covshift import (
    change_norm_frobenius,
    edd_upper_bound,
    g_value,
    min_detectable_change,
    population_null_sd,
    solve_threshold,
    theoretical_arl,
)
from covshift.errors import CalibrationInfeasibleError, ConfigurationError

ARL_PAIRS = [
    (3.04, 100, 1002.0),
    (3.42, 100, 3008.0),
    (3.58, 100, 5038.0),
    (2.88, 150, 1005.0),
    (3.29, 150, 3033.0),
    (3.46, 150, 5118.0),
]


def run_length_cdf(t: float, window: int, threshold: float) -> float:
    """Oracle: P(run length <= t) under a stable stream.

    Inside the first window the total boundary mass H e^(-a^2/2) / (2 sqrt(pi))
    is spread linearly; beyond it the Gumbel tail 1 - exp(-2 e^g) applies,
    floored at the boundary mass and held at its running maximum so the
    function stays a monotone distribution function: the asymptotic tail form
    starts below the boundary value right after t = window and, for
    threshold > 2*sqrt(2), its exponent g peaks early and dips before rising
    for good.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    mass = min(window * math.exp(-0.5 * threshold**2) / (2.0 * math.sqrt(math.pi)), 1.0)
    if t <= window:
        return mass * t / window
    g = g_value(t / window, threshold)
    disc = threshold**2 - 8.0
    if disc > 0.0:
        # dg/du = x^2 - a x + 2 with x = 1/sqrt(2u): the local maximum of g
        # is at sqrt(2u) = 2 / (a + sqrt(a^2 - 8))
        peak = math.exp(2.0 / (threshold + math.sqrt(disc)) ** 2)
        if t / window > peak:
            g = max(g, g_value(peak, threshold))
    if g > 40.0:
        tail = 1.0
    else:
        tail = -math.expm1(-2.0 * math.exp(g))
    return max(mass, tail)


def quad_arl(threshold: float, window: int) -> float:
    """Oracle: the ARL integral in u = log(t/H) by adaptive quadrature,
    H * (1 + int_0^inf e^u exp(-2 e^g) du), or math.inf once the integrand
    is past float range."""
    a = threshold
    shift = math.log(4.0 / math.sqrt(math.pi))

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 1.0
        g = 2.0 * u + 0.5 * math.log(u) + shift - a * math.sqrt(2.0 * u)
        arg = u - 2.0 * math.exp(min(g, 700.0))
        return math.exp(arg) if arg > -745.0 else 0.0

    total, _ = integrate.quad(integrand, 0.0, 1.0, limit=200, epsabs=0.0, epsrel=1e-10)
    lo = 1.0
    while True:
        try:
            seg, _ = integrate.quad(
                integrand, lo, 2.0 * lo, limit=200, epsabs=1e-300, epsrel=1e-10
            )
        except OverflowError:
            return math.inf
        total += seg
        if seg < 1e-12 * total or lo > 1e6:
            break
        lo *= 2.0
    return window * (1.0 + total)


def test_g_value_collapses_at_ratio_e():
    expected = 2.0 + math.log(4.0 / math.sqrt(math.pi))
    assert g_value(math.e, 0.0) == pytest.approx(expected, abs=1e-12)
    # the quoted 4-decimal figure 2.8128 rounds the true 2.81393 a hair low
    assert g_value(math.e, 0.0) == pytest.approx(2.8128, abs=2e-3)
    for a in (1.0, 2.5, 3.58):
        assert g_value(math.e, a) == pytest.approx(expected - a * math.sqrt(2.0), rel=1e-12)


def test_g_value_rejects_ratio_at_or_below_one():
    with pytest.raises(ConfigurationError):
        g_value(1.0, 3.0)
    with pytest.raises(ConfigurationError):
        g_value(0.5, 3.0)


def test_boundary_mass_example():
    got = run_length_cdf(100.0, 100, 3.58)
    expected = 100.0 * math.exp(-0.5 * 3.58**2) / (2.0 * math.sqrt(math.pi))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.0465, abs=1e-3)


def test_cdf_tends_to_one():
    assert run_length_cdf(1e9, 100, 3.58) == pytest.approx(1.0, abs=1e-12)


def test_cdf_linear_inside_window():
    a, h = 3.58, 100
    mass = run_length_cdf(h, h, a)
    assert run_length_cdf(0.0, h, a) == 0.0
    assert run_length_cdf(h / 2, h, a) == pytest.approx(mass / 2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=2.5, max_value=5.0),
    h=st.integers(min_value=20, max_value=300),
    grid=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=12),
)
@example(a=4.0, h=20, grid=[21.0, 22.0])  # past the early peak of the tail exponent
def test_cdf_monotone_on_random_grids(a, h, grid):
    ts = sorted(grid)
    vals = [run_length_cdf(t, h, a) for t in ts]
    for lo, hi in zip(vals, vals[1:]):
        assert hi >= lo - 1e-12
    for v in vals:
        assert 0.0 <= v <= 1.0


def test_theoretical_arl_reproduces_reference_pairs():
    for a, h, arl in ARL_PAIRS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = theoretical_arl(a, h)
        assert got == pytest.approx(arl, rel=0.01), (a, h, got)


def test_solver_inverts_reference_pairs():
    for a, h, arl in ARL_PAIRS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = solve_threshold(arl, h)
        assert res.threshold == pytest.approx(a, abs=0.01)
        assert res.achieved_arl == pytest.approx(arl, rel=1e-9)
        assert res.solver_iterations > 0
        assert res.bracket[0] < res.threshold < res.bracket[1]


def test_arl_quadrature_matches_adaptive_oracle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in (50, 100, 150, 200, 400):
            for a in np.linspace(2.5, 12.0, 39):
                want = quad_arl(a, h)
                assert theoretical_arl(a, h) == pytest.approx(want, rel=1e-10), (a, h)
    for a in (36.0, 37.0, 39.0, 40.0, 60.0, 1e6):
        assert math.isinf(theoretical_arl(a, 100)) == math.isinf(quad_arl(a, 100)), a
    assert math.isinf(theoretical_arl(1e6, 100))


def test_solver_reproduces_recorded_thresholds():
    # thresholds and evaluation counts recorded with scipy.optimize.brentq
    recorded = [(1e8, 100, 5.7906191554306705, 10), (1e7, 400, 5.089457013862905, 11),
                (5038.0, 100, 3.579946555087145, 13)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for target, h, threshold, evaluations in recorded:
            res = solve_threshold(target, h)
            assert abs(res.threshold - threshold) <= 1e-11, (target, h)
            assert res.solver_iterations <= evaluations


def test_solver_round_trip_random_thresholds():
    rng = np.random.default_rng(13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(4):
            a = float(rng.uniform(2.8, 4.0))
            target = theoretical_arl(a, 100)
            back = solve_threshold(target, 100).threshold
            assert back == pytest.approx(a, abs=1e-4)


def test_solver_rejects_target_at_or_below_window():
    with pytest.raises(CalibrationInfeasibleError):
        solve_threshold(100.0, 100)
    with pytest.raises(CalibrationInfeasibleError):
        solve_threshold(50.0, 100)


def test_solver_rejects_non_finite_target():
    for target in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            solve_threshold(target, 100)


def test_arl_past_float_range_is_infinite_and_huge_targets_solve():
    assert theoretical_arl(40.0, 100) == math.inf
    res = solve_threshold(1e300, 100)
    assert res.achieved_arl == pytest.approx(1e300, rel=1e-6)
    assert theoretical_arl(res.threshold, 100) == pytest.approx(1e300, rel=1e-6)


def test_nan_threshold_is_rejected():
    nan = math.nan
    for call in (
        lambda: theoretical_arl(nan, 100),
        lambda: run_length_cdf(150.0, 100, nan),
        lambda: edd_upper_bound(nan, 80, 0, 50.0, 1.0),
        lambda: min_detectable_change(nan, 80, 7.0),
    ):
        with pytest.raises(ConfigurationError, match="threshold"):
            call()


def test_asymptotic_regime_warning_fires_for_large_window():
    with pytest.warns(RuntimeWarning):
        theoretical_arl(2.0, 500)


def test_edd_bound_reference_cells():
    sd0 = population_null_sd(1000, 0, 100)
    norm = change_norm_frobenius("a", 1000, 0.6, 0)
    assert edd_upper_bound(3.58, 100, 0, sd0, norm).bound == pytest.approx(20.59, abs=0.02)
    sd2 = population_null_sd(1000, 2, 150)
    norm_c = change_norm_frobenius("c", 1000, 0.8, 2)
    assert edd_upper_bound(3.46, 150, 2, sd2, norm_c).bound == pytest.approx(5.13, abs=0.02)


def test_edd_bound_halves_when_change_doubles():
    bound1 = edd_upper_bound(3.0, 80, 1, 50.0, 4.0)
    bound2 = edd_upper_bound(3.0, 80, 1, 50.0, 8.0)
    assert bound2.bound - 3 == pytest.approx((bound1.bound - 3) / 2.0, rel=1e-12)


def test_edd_bound_zero_change_is_infinite():
    assert math.isinf(edd_upper_bound(3.0, 80, 0, 50.0, 0.0).bound)


def test_edd_bound_validates_inputs():
    with pytest.raises(ConfigurationError):
        edd_upper_bound(0.0, 80, 0, 50.0, 1.0)
    with pytest.raises(ConfigurationError):
        edd_upper_bound(3.0, 80, 0, 50.0, -1.0)


def test_min_detectable_change_trivial_point():
    assert min_detectable_change(80.0, 80, 7.0) == pytest.approx(7.0, rel=1e-12)


def test_min_detectable_rho_worked_example():
    p = 1000
    target = min_detectable_change(3.58, 100, math.sqrt(p))
    rho = brentq(
        lambda r: change_norm_frobenius("a", p, r, 0) - target, 1e-4, 0.9
    )
    assert rho == pytest.approx(0.133, abs=0.002)


def test_calibration_runs_fast():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, h, _ in ARL_PAIRS:
            theoretical_arl(a, h)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
