"""Closed-form run-length analytics for the standardized windowed statistic.

Under a stable stream the running maximum of the standardized statistic has a
Gumbel-type limit, which yields a closed-form run-length distribution and a
one-dimensional integral for the average run length (ARL).  Calibrating the
alarm threshold to a false-alarm budget is then one Brent root solve on the
log ARL instead of a Monte Carlo campaign.  The same machinery gives a
worst-case bound on the expected detection delay and the smallest covariance
change the rule can see at all.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import brentq

from .errors import CalibrationInfeasibleError, ConfigurationError

__all__ = [
    "CalibrationResult",
    "EddBound",
    "g_value",
    "run_length_cdf",
    "theoretical_arl",
    "solve_threshold",
    "edd_upper_bound",
    "min_detectable_change",
]

_LOG_4_OVER_SQRT_PI = math.log(4.0 / math.sqrt(math.pi))
_BRACKET = (0.5, 12.0)


def g_value(ratio: float, threshold: float) -> float:
    """Tail exponent g(t/H, a) of the run-length distribution.

    ratio is t/H and must exceed 1 (the boundary expression covers t <= H).
    """
    if ratio <= 1.0:
        raise ConfigurationError(f"ratio must exceed 1, got {ratio}")
    u = math.log(ratio)
    return 2.0 * u + 0.5 * math.log(u) + _LOG_4_OVER_SQRT_PI - threshold * math.sqrt(2.0 * u)


def _boundary_mass(window: int, threshold: float) -> float:
    """Asymptotic probability of a false alarm within the first window."""
    return window * math.exp(-0.5 * threshold**2) / (2.0 * math.sqrt(math.pi))


def run_length_cdf(t: float, window: int, threshold: float) -> float:
    """P(run length <= t) under a stable stream.

    Inside the first window the total boundary mass is spread linearly; beyond
    it the Gumbel tail applies, floored at the boundary mass and held at its
    running maximum so the function stays a monotone distribution function:
    the asymptotic tail form starts below the boundary value right after
    t = window and, for threshold > 2*sqrt(2), its exponent g peaks early and
    dips before rising for good.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    mass = min(_boundary_mass(window, threshold), 1.0)
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


def _arl_quiet(threshold: float, window: int) -> float:
    """ARL integral via u = log(t/H): H * (1 + int_0^inf e^u exp(-2 e^g) du);
    math.inf once the integrand, and so the ARL, is past float range."""
    a = threshold

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 1.0
        g = 2.0 * u + 0.5 * math.log(u) + _LOG_4_OVER_SQRT_PI - a * math.sqrt(2.0 * u)
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
    """Expected run length under a stable stream for the given threshold."""
    if not threshold > 0:  # NaN fails too
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    _check_regime(threshold, window)
    return _arl_quiet(threshold, window)


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

    The ARL is strictly increasing in the threshold, so one Brent solve
    (scipy.optimize.brentq) of log ARL(a) = log(target) finds it, on a
    bracket whose upper end grows by 1.5x up to 50 until it holds the
    target.  The log keeps a sign for an ARL past float range (inf).  An
    achieved ARL more than 1e-6 relative off the target is an error.
    solver_iterations counts ARL evaluations.
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
    arls: dict[float, float] = {}  # every ARL evaluated, by threshold

    def residual(a: float) -> float:
        if a not in arls:
            arls[a] = _arl_quiet(a, window)
        return math.log(arls[a]) - log_target

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
    threshold = brentq(residual, lo, hi, xtol=1e-12)
    achieved = arls[threshold]
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
        solver_iterations=len(arls),
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
