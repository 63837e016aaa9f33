"""Closed-form run-length analytics for the standardized windowed statistic.

Under a stable stream the running maximum of the standardized statistic has a
Gumbel-type limit, which yields a closed-form run-length distribution and a
one-dimensional integral for the average run length (ARL).  The integral is
one vectorized Gauss-Legendre sum, and calibrating the alarm threshold to a
false-alarm budget is then a bracketed Newton solve on the log ARL instead of
a Monte Carlo campaign; numpy and the standard library are all it needs.  The
same machinery gives a worst-case bound on the expected detection delay and
the smallest covariance change the rule can see at all.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationInfeasibleError, ConfigurationError

__all__ = [
    "CalibrationResult",
    "EddBound",
    "g_value",
    "theoretical_arl",
    "solve_threshold",
    "edd_upper_bound",
    "min_detectable_change",
]

_LOG_4_OVER_SQRT_PI = math.log(4.0 / math.sqrt(math.pi))
_BRACKET = (0.5, 12.0)
_XTOL = 1e-12
_MAX_STEPS = 100

# The ARL quadrature: Gauss-Legendre nodes mapped to (0, 1), weights scaled to
# one panel, and the constant part of g in s = sqrt(2u).
_PANEL = 0.02
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _PANEL * _GL_WEIGHTS
_G_SHIFT = _LOG_4_OVER_SQRT_PI - 0.5 * math.log(2.0)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_A_PAST_FLOAT = 40.0


def g_value(ratio: float, threshold: float) -> float:
    """Tail exponent g(t/H, a) of the run-length distribution.

    ratio is t/H and must exceed 1 (the boundary expression covers t <= H).
    """
    if ratio <= 1.0:
        raise ConfigurationError(f"ratio must exceed 1, got {ratio}")
    u = math.log(ratio)
    return 2.0 * u + 0.5 * math.log(u) + _LOG_4_OVER_SQRT_PI - threshold * math.sqrt(2.0 * u)


def _log_arl(threshold: float, window: int) -> tuple[float, float]:
    """log ARL and its derivative in the threshold, from one quadrature.

    ARL = H * (1 + I) with I = int_0^inf e^u exp(-2 e^g) du and u = log(t/H).
    In s = sqrt(2u) the integral is I = int_0^inf s exp(s^2/2 - 2 e^g) ds with
    g = s^2 - a s + log s + log(4/sqrt(pi)) - log(2)/2, smooth at s = 0 where
    the u form goes like sqrt(u).  It is summed as a composite Gauss-Legendre
    rule, ten nodes on each panel 0.02 wide, over [0, S] with S (S - a) = 8:
    past S, 2 e^g exceeds s^2/2 + 800, so the integrand f is below e^-800.
    The sum runs in log space, so it stays finite past float range.  Since
    dg/da = -s, dI/da = int 2 s e^g f ds comes from the same nodes.
    """
    a = threshold
    end = 0.5 * a + math.sqrt(0.25 * a * a + 8.0)
    s = _PANEL * (np.arange(math.ceil(end / _PANEL))[:, None] + _GL_NODES)
    log_s = np.log(s)
    eg = np.exp(s * (s - a) + log_s + _G_SHIFT)
    log_f = log_s + 0.5 * s * s - 2.0 * eg
    peak = float(log_f.max())
    wf = _GL_WEIGHTS * np.exp(log_f - peak)
    total = float(wf.sum())
    log_i = peak + math.log(total)
    log_arl = math.log(window) + float(np.logaddexp(0.0, log_i))
    slope = float(np.vdot(wf, 2.0 * s * eg)) / (math.exp(-peak) + total)
    return log_arl, slope


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < _LOG_FLOAT_MAX else math.inf


def _check_regime(threshold: float, window: int) -> None:
    if window * math.exp(-0.5 * threshold**2) > 0.1:
        warnings.warn(
            "window is not small relative to exp(threshold^2/2); the closed-form "
            "run-length analytics are asymptotic and the in-window false-alarm "
            "mass is not negligible",
            RuntimeWarning,
            stacklevel=3,
        )


def theoretical_arl(threshold: float, window: int) -> float:
    """Expected run length under a stable stream for the given threshold, or
    math.inf once it is past float range."""
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    _check_regime(threshold, window)
    # For a >= 2 and 1 <= s <= a - 1, e^g <= s e^-s e^0.467 < 0.6, so
    # I > e^-1.2 int_1^(a-1) s e^(s^2/2) ds, past float range once a > 38.8;
    # the cut keeps the node count bounded for any threshold.
    if threshold > _A_PAST_FLOAT:
        return math.inf
    return _exp_or_inf(_log_arl(threshold, window)[0])


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold solving outcome: the a whose theoretical ARL hits the target."""

    target_arl: float
    window: int
    threshold: float
    achieved_arl: float
    solver_iterations: int
    bracket: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "target_arl": self.target_arl,
            "window": self.window,
            "threshold": self.threshold,
            "achieved_arl": self.achieved_arl,
            "solver_iterations": self.solver_iterations,
            "bracket": list(self.bracket),
        }


def solve_threshold(target_arl: float, window: int) -> CalibrationResult:
    """Find the threshold whose theoretical ARL equals the target.

    The ARL is strictly increasing in the threshold, so log ARL(a) =
    log(target) has one root.  A bracket whose upper end grows by 1.5x up to
    50 until it holds the target comes first; then Newton steps on log ARL,
    with the slope from the same quadrature, run down from the upper end
    until a step is at most 1e-12.  A step that would leave the bracket, which
    every evaluation narrows, is a bisection instead.  The log stays finite
    for an ARL past float range.  An achieved ARL more than 1e-6 relative off
    the target is an error.  solver_iterations counts ARL evaluations.
    """
    if not math.isfinite(target_arl):
        raise ConfigurationError(f"target ARL must be finite, got {target_arl}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if target_arl <= window:
        raise CalibrationInfeasibleError(
            f"target ARL {target_arl} must exceed the window size {window}"
        )
    log_target = math.log(target_arl)
    evals: dict[float, tuple[float, float]] = {}  # (log ARL, slope) by threshold

    def residual(a: float) -> float:
        if a not in evals:
            evals[a] = _log_arl(a, window)
        return evals[a][0] - log_target

    lo, hi = _BRACKET
    if residual(lo) > 0.0:
        raise CalibrationInfeasibleError(
            f"target ARL {target_arl} is below the ARL at the lowest sensible "
            f"threshold {lo} (window {window})"
        )
    while residual(hi) < 0.0 and hi < 50.0:
        hi *= 1.5
    if residual(hi) < 0.0:
        raise CalibrationInfeasibleError(
            f"target ARL {target_arl} not attainable for thresholds up to {hi}"
        )
    left, right, threshold = lo, hi, hi
    for _ in range(_MAX_STEPS):
        r = residual(threshold)
        if r == 0.0:
            break
        if r < 0.0:
            left = threshold
        else:
            right = threshold
        step = r / evals[threshold][1]
        if abs(step) <= _XTOL:
            break
        threshold -= step
        if not left < threshold < right:
            threshold = 0.5 * (left + right)
    achieved = _exp_or_inf(evals[threshold][0])
    if abs(achieved - target_arl) > 1e-6 * target_arl:
        raise CalibrationInfeasibleError(
            f"threshold solver did not reach the 1e-6 relative residual for "
            f"target ARL {target_arl}, window {window}"
        )
    _check_regime(threshold, window)
    return CalibrationResult(
        target_arl=float(target_arl),
        window=window,
        threshold=float(threshold),
        achieved_arl=float(achieved),
        solver_iterations=len(evals),
        bracket=(lo, hi),
    )


@dataclass(frozen=True)
class EddBound:
    """Worst-case expected detection delay bound for an immediate change."""

    dep_order: int
    window: int
    threshold: float
    null_sd: float
    change_norm: float
    bound: float


def edd_upper_bound(
    threshold: float, window: int, dep_order: int, null_sd: float, change_norm: float
) -> EddBound:
    """Delay bound (M+2) + sqrt(a * H * null_sd) / change_norm.

    null_sd is the null standard deviation of the windowed statistic;
    change_norm is the Frobenius norm of the covariance change.  A zero
    change_norm yields an infinite bound (nothing to detect).
    """
    if not (threshold > 0 and null_sd > 0) or window < 1 or dep_order < 0:
        raise ConfigurationError("threshold, window, null_sd must be positive; dep_order >= 0")
    if change_norm < 0:
        raise ConfigurationError(f"change_norm must be >= 0, got {change_norm}")
    if change_norm == 0.0:
        bound = math.inf
    else:
        bound = (dep_order + 2) + math.sqrt(threshold * window * null_sd) / change_norm
    return EddBound(
        dep_order=dep_order,
        window=window,
        threshold=threshold,
        null_sd=null_sd,
        change_norm=change_norm,
        bound=bound,
    )


def min_detectable_change(threshold: float, window: int, base_norm: float) -> float:
    """Smallest detectable covariance change: sqrt(a/H) * base_norm.

    base_norm is the Frobenius norm of the pre-change covariance matrix.
    """
    if not (threshold > 0 and base_norm > 0) or window < 1:
        raise ConfigurationError("threshold, window, base_norm must be positive")
    return math.sqrt(threshold / window) * base_norm
