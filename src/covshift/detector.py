"""Online monitoring: feed observations one at a time or a block at a time,
alarm on a threshold.

A Detector is built from a TrainingSummary (mean, dependence order, null
standard deviation) and a DetectorConfig (window size, alarm threshold).  Each
incoming observation updates a rolling window; once the window is full the
standardized windowed statistic is compared against the threshold.  `step`
takes one observation; `scan` takes a block of rows, validates and centers it
once and stops after the first alarm, with every statistic equal to step's.
After an alarm, `localize` scans the recorded stream for the most likely
change point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, DataError, DetectorFinishedError
from .stats import (WindowState, statistic_windowed, _as_array, _as_matrix, _check_mean,
                    _split_profile)
from .training import TrainingSummary
from .weights import build_weight_plan

__all__ = [
    "DetectorConfig",
    "StepResult",
    "DetectionReport",
    "Detector",
    "localize",
]

@dataclass(frozen=True)
class DetectorConfig:
    """Monitoring parameters.

    window: rolling window length H.
    threshold: alarm level for the standardized statistic.
    """

    window: int
    threshold: float

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        if not self.threshold > 0:  # NaN fails too
            raise ConfigurationError(f"threshold must be > 0, got {self.threshold}")


@dataclass(frozen=True)
class StepResult:
    """Outcome of one Detector.step call."""

    index: int
    state: str  # "filling" | "monitoring" | "alarm"
    std_stat: Optional[float]
    stopping_time: Optional[int]


@dataclass(frozen=True)
class DetectionReport:
    """Summary of a finished (or interrupted) monitoring run."""

    stopping_time: Optional[int]
    alarm_statistic: Optional[float]
    trajectory: list
    tau_hat: Optional[int] = None
    delay_vs_tau_hat: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "stopping_time": self.stopping_time,
            "alarm_statistic": self.alarm_statistic,
            "trajectory": list(self.trajectory),
            "tau_hat": self.tau_hat,
            "delay_vs_tau_hat": self.delay_vs_tau_hat,
        }


class Detector:
    """Streaming change detector for the covariance structure.

    prime: "auto" loads the training tail kept in the summary so the first
    post-training observation already completes the window; an array primes
    with those rows instead; None starts with an empty window (the first
    window-1 observations are then spent filling it).  Priming rows are
    loaded into the window as one block.
    """

    def __init__(
        self,
        summary: TrainingSummary,
        config: DetectorConfig,
        prime: object = "auto",
    ) -> None:
        if config.window != summary.window:
            raise ConfigurationError(
                f"config window {config.window} does not match the summary "
                f"window {summary.window}"
            )
        self.summary = summary
        self.config = config
        self.plan = build_weight_plan(config.window, summary.dep_order)
        self._mean = _check_mean(summary.mean, summary.p)
        self._state = WindowState(config.window)
        self._steps = 0
        self._finished = False
        self._alarm_stat: Optional[float] = None
        self._stopping_time: Optional[int] = None
        self.trajectory: list = []
        if isinstance(prime, str):
            if prime != "auto":
                raise ConfigurationError(f"unknown prime mode {prime!r}")
            rows = summary.train_tail
        else:
            rows = prime
        if rows is not None:
            self._state._load(_as_matrix(rows, "prime", summary.p) - self._mean)

    @property
    def steps(self) -> int:
        """Number of post-training observations consumed so far."""
        return self._steps

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def stopping_time(self) -> Optional[int]:
        return self._stopping_time

    def _check_running(self) -> None:
        if self._finished:
            raise DetectorFinishedError(
                "detector already alarmed; build a new one to keep monitoring"
            )

    def _advance(self, xc: np.ndarray) -> Optional[float]:
        """Consume one validated, centered observation: store it, score the
        window once it is full and alarm past the threshold.  Returns the
        standardized statistic, None while the window fills."""
        self._steps += 1
        self._state._store(xc)
        if not self._state.full:
            return None
        raw = statistic_windowed(self._state, self.plan)
        std_stat = float(raw / self.summary.null_sd)
        self.trajectory.append(std_stat)
        if abs(std_stat) > self.config.threshold:
            self._finished = True
            self._alarm_stat = std_stat
            self._stopping_time = self._steps
        return std_stat

    def step(self, x: Sequence[float]) -> StepResult:
        """Consume one observation; returns the monitoring state after it."""
        self._check_running()
        x = _as_array(x, "observation", 1, self.summary.p)
        std_stat = self._advance(x - self._mean)
        if std_stat is None:
            return StepResult(self._steps, "filling", None, None)
        if self._finished:
            return StepResult(self._steps, "alarm", std_stat, self._steps)
        return StepResult(self._steps, "monitoring", std_stat, None)

    def scan(self, block) -> tuple[Optional[int], list]:
        """Consume the rows of a (k, p) block in order, up to the first alarm.

        Returns (first_alarm_index, std_stats): the 0-based position in the
        block of the row that alarmed, or None, and the standardized
        statistic of every consumed row (None while the window fills).  The
        rows after an alarm are not consumed, so len(std_stats) rows were.
        The whole block is validated before any row is consumed, so a bad
        block leaves the detector as it was.  Every statistic equals the
        one step would give for the same row.
        """
        self._check_running()
        std_stats: list = []
        for k, xc in enumerate(_as_matrix(block, width=self.summary.p) - self._mean):
            std_stats.append(self._advance(xc))
            if self._finished:
                return k, std_stats
        return None, std_stats

    def build_report(self, history=None) -> DetectionReport:
        """Assemble a DetectionReport; pass the full observed stream (training
        plus monitoring rows, n0 + steps in all) as history to include a
        change-point estimate."""
        tau_hat = None
        delay = None
        if history is not None:
            expected = self.summary.n0 + self._steps
            if len(history) != expected:
                raise DataError(f"history has {len(history)} rows, expected "
                                f"n0 + steps = {expected}")
            tau_hat = localize(history, self.summary)
            if tau_hat is not None and self._stopping_time is not None:
                delay = self.summary.n0 + self._stopping_time - tau_hat
        return DetectionReport(
            stopping_time=self._stopping_time,
            alarm_statistic=self._alarm_stat,
            trajectory=list(self.trajectory),
            tau_hat=tau_hat,
            delay_vs_tau_hat=delay,
        )


def localize(history, summary: TrainingSummary) -> Optional[int]:
    """Estimate the change point from an observed stream.

    history holds the full stream (rows = observations, training included);
    the returned value is the estimated number of pre-change observations,
    i.e. rows 1..tau_hat come before the change.  Returns None when the
    stream is too short to admit any candidate.  Ties pick the earliest
    candidate.

    O(n^2 * p) work and O(n) memory beyond the history (see
    stats._split_profile).
    """
    x = _as_matrix(history, "history", summary.p)
    ts, profile = _split_profile(x - _check_mean(summary.mean, summary.p), summary.dep_order)
    if ts.size == 0:  # no split in [M+2, n-M-2]
        return None
    return int(ts[int(np.argmax(profile))])
