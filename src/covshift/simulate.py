"""Synthetic streams with a known covariance change, plus Monte Carlo drivers.

The generator produces a moving-average vector process X_i = B s_i with
s_i = sum_{l=0}^{M} eps_{i-l} / (M - l + 1); after the change point the
loading matrix B is swapped for Q while the innovation stream continues
uninterrupted.  Closed-form population quantities (lag traces, null standard
deviation, change norms) are available for the identity base, so Monte Carlo
results can be compared against theory without estimation noise.

The loading factors that need no random draws (the AR(1) Toeplitz factor
behind model "a" and the "toeplitz06" base, and the model "c"
equicorrelation factor) are computed once per (p, rho), kept in a small
bounded cache and returned read-only, so every generator with the same
(p, rho) shares one array.  Model "b" draws a fresh Q on every call.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .detector import Detector, DetectorConfig
from .errors import ConfigurationError, DependenceTooStrongError
from .training import FitConfig, estimate_dep_order, fit_training
from .weights import build_weight_plan, lag_weight_sums

__all__ = [
    "PostChange",
    "GeneratorSpec",
    "TrainingRecipe",
    "McResult",
    "build_q",
    "StreamGenerator",
    "gen_stream",
    "ma_coefficients",
    "lag_trace_coefficients",
    "ma_variance_factor",
    "population_null_sd",
    "change_norm_frobenius",
    "monte_carlo_arl",
    "monte_carlo_edd",
    "dep_order_study",
]

_MODELS = ("a", "b", "c")
_INNOVATIONS = ("gaussian", "student_t8")
_BASES = ("identity", "toeplitz06")

# Distinct (p, rho) factors kept per cache; a p=1000 factor is 8 MB.
_FACTOR_CACHE_SIZE = 4

# Monte Carlo runs take post-training rows in blocks that double from
# _TAKE_FIRST up to _TAKE_CAP, so a run that stops early generates few rows
# it never reads and a long run still takes few, large blocks.
_TAKE_FIRST = 16
_TAKE_CAP = 256


@dataclass(frozen=True)
class PostChange:
    """Covariance change description.

    model "a": post covariance is a Toeplitz matrix rho^|i-j|.
    model "b": sparse row perturbation of the identity loading (3 entries of
               size rho, random positions and signs, per row).
    model "c": post covariance has unit diagonal and constant off-diagonal rho.
    change_at: number of pre-change observations (rows 1..change_at are
               generated with the original loading).
    """

    model: str
    rho: float
    change_at: int

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ConfigurationError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.change_at < 0:
            raise ConfigurationError(f"change_at must be >= 0, got {self.change_at}")
        if not math.isfinite(self.rho):
            raise ConfigurationError("rho must be finite")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of the synthetic stream."""

    p: int
    dep_order: int
    innovation: str = "gaussian"
    pre_base: str = "identity"
    post_change: Optional[PostChange] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigurationError(f"p must be >= 1, got {self.p}")
        if self.dep_order < 0:
            raise ConfigurationError(f"dep_order must be >= 0, got {self.dep_order}")
        if self.innovation not in _INNOVATIONS:
            raise ConfigurationError(
                f"innovation must be one of {_INNOVATIONS}, got {self.innovation!r}"
            )
        if self.pre_base not in _BASES:
            raise ConfigurationError(
                f"pre_base must be one of {_BASES}, got {self.pre_base!r}"
            )


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _toeplitz_factor(p: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor of the AR(1) Toeplitz matrix rho^|i-j|."""
    k = np.arange(p)
    factor = np.linalg.cholesky((rho**k)[abs(k[:, None] - k)])
    factor.setflags(write=False)
    return factor


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _equicorrelation_factor(p: int, rho: float) -> np.ndarray:
    """Lower Cholesky factor of the unit-diagonal, constant-rho matrix."""
    sigma = np.full((p, p), rho)
    np.fill_diagonal(sigma, 1.0)
    factor = np.linalg.cholesky(sigma)
    factor.setflags(write=False)
    return factor


def _base_matrix(name: str, p: int) -> Optional[np.ndarray]:
    """Loading matrix for a named pre-change base; None means identity."""
    if name == "identity":
        return None
    return _toeplitz_factor(p, 0.6)


def _check_change(model: str, p: int, rho: float) -> None:
    """Reject a change model, or a rho outside that model's domain at p."""
    if model == "a":
        if not abs(rho) < 1:
            raise ConfigurationError(f"model 'a' needs |rho| < 1, got {rho}")
    elif model == "b":
        if not rho >= 0:
            raise ConfigurationError(f"model 'b' needs rho >= 0, got {rho}")
    elif model == "c":
        if not (-1.0 / max(p - 1, 1) < rho < 1.0):
            raise ConfigurationError(
                f"model 'c' needs -1/(p-1) < rho < 1, got {rho}"
            )
    else:
        raise ConfigurationError(f"model must be one of {_MODELS}, got {model!r}")


def build_q(model: str, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """Post-change loading matrix Q for the given change model.

    Models "a" and "c" return a cached read-only factor, shared by every call
    with the same (p, rho); model "b" draws a fresh Q from rng.
    """
    _check_change(model, p, rho)
    if model == "a":
        return _toeplitz_factor(p, float(rho))
    if model == "c":
        return _equicorrelation_factor(p, float(rho))
    q = np.eye(p)
    for i in range(p):
        cols = rng.choice(p, size=min(3, p), replace=False)
        signs = rng.choice([-1.0, 1.0], size=cols.shape[0])
        q[i, cols] += rho * signs
    return q


def ma_coefficients(dep_order: int) -> np.ndarray:
    """Moving-average weights on lags 0..M: coefficient 1/(M-l+1) at lag l."""
    if dep_order < 0:
        raise ConfigurationError(f"dep_order must be >= 0, got {dep_order}")
    return 1.0 / (dep_order - np.arange(dep_order + 1) + 1.0)


def lag_trace_coefficients(dep_order: int) -> np.ndarray:
    """Scalar factors c(h), h = 0..M, with tr{C(h1)C(h2)} = p c(|h1|) c(|h2|)
    for the identity base."""
    c = ma_coefficients(dep_order)
    return np.array(
        [float(c[: c.shape[0] - h] @ c[h:]) for h in range(dep_order + 1)]
    )


def ma_variance_factor(dep_order: int) -> float:
    """Marginal variance inflation of the moving average: sum_{k=1}^{M+1} k^-2."""
    return float(lag_trace_coefficients(dep_order)[0])


def population_null_sd(p: int, dep_order: int, window: int) -> float:
    """Exact null standard deviation of the windowed statistic for an
    identity-base stream of dimension p."""
    plan = build_weight_plan(window, dep_order)
    sums = lag_weight_sums(plan)
    coeffs = lag_trace_coefficients(dep_order)
    var = 0.0
    for (h1, h2), s in sums.items():
        trace = p * coeffs[abs(h1)] * coeffs[abs(h2)]
        var += s * trace**2
    var *= 4.0 / float(window) ** 4
    return math.sqrt(var)


def change_norm_frobenius(
    model: str,
    p: int,
    rho: float,
    dep_order: int,
    q: Optional[np.ndarray] = None,
) -> float:
    """Frobenius norm of the covariance change for an identity pre-base.

    Models "a" and "c" have closed forms; model "b" needs the realized Q.
    The (model, p, rho) domain is the one build_q accepts.
    """
    _check_change(model, p, rho)
    factor = ma_variance_factor(dep_order)
    if model == "a":
        d = np.arange(1, p)
        return factor * math.sqrt(2.0 * float((p - d) @ rho ** (2.0 * d)))
    if model == "c":
        return factor * rho * math.sqrt(p * (p - 1))
    if q is None:
        raise ConfigurationError("model 'b' change norm needs the realized Q")
    delta = q @ q.T - np.eye(q.shape[0])
    return factor * float(np.linalg.norm(delta, "fro"))


class StreamGenerator:
    """Stateful stream source; successive take() calls continue the stream.

    Chunk boundaries do not affect the output: take(n) and repeated smaller
    takes produce bit-identical observations for the same seed.
    """

    def __init__(self, spec: GeneratorSpec, seed) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._base = _base_matrix(spec.pre_base, spec.p)
        self.q: Optional[np.ndarray] = None
        if spec.post_change is not None:
            self.q = build_q(
                spec.post_change.model, spec.p, spec.post_change.rho, self._rng
            )
        self._tail = np.zeros((spec.dep_order, spec.p))
        self._count = 0

    def _innovations(self, k: int) -> np.ndarray:
        if self.spec.innovation == "gaussian":
            return self._rng.standard_normal((k, self.spec.p))
        draws = self._rng.standard_t(8, size=(k, self.spec.p))
        return draws * math.sqrt(0.75)

    def take(self, k: int) -> np.ndarray:
        """Next k observations as a (k, p) array."""
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        if k == 0:
            return np.empty((0, self.spec.p))
        m = self.spec.dep_order
        eps = np.concatenate([self._tail, self._innovations(k)], axis=0)
        coeffs = ma_coefficients(m)
        s = coeffs[0] * eps[m : m + k]
        for l in range(1, m + 1):
            s = s + coeffs[l] * eps[m - l : m - l + k]
        if m > 0:
            self._tail = eps[-m:].copy()
        # rows 1..change_at of the stream come before the change: the
        # first pre rows of this take
        pre = k
        if self.spec.post_change is not None:
            pre = min(max(self.spec.post_change.change_at - self._count, 0), k)
        self._count += k
        if self._base is not None:
            s[:pre] = s[:pre] @ self._base.T
        if pre < k:
            s[pre:] = s[pre:] @ self.q.T
        return s


def gen_stream(spec: GeneratorSpec, n: int, seed) -> np.ndarray:
    """Generate n observations in one call."""
    return StreamGenerator(spec, seed).take(n)


@dataclass(frozen=True)
class TrainingRecipe:
    """How each Monte Carlo replicate turns its training block into a summary.

    dep_order_policy: "true" uses the generator's order, "estimate" selects it
    from the data, an integer forces that order.
    """

    n0: int = 200
    dep_order_policy: Union[str, int] = "true"
    alpha: float = 0.05
    epsilon: float = 0.05
    max_order: int = 10

    def __post_init__(self) -> None:
        if self.n0 < 2:
            raise ConfigurationError(f"n0 must be >= 2, got {self.n0}")
        if isinstance(self.dep_order_policy, str):
            if self.dep_order_policy not in ("true", "estimate"):
                raise ConfigurationError(
                    "dep_order_policy must be 'true', 'estimate', or an integer, "
                    f"got {self.dep_order_policy!r}"
                )
        elif self.dep_order_policy < 0:
            raise ConfigurationError(
                f"integer dep_order_policy must be >= 0, got {self.dep_order_policy}"
            )

    def resolve_override(self, true_order: int) -> Optional[int]:
        if self.dep_order_policy == "true":
            return true_order
        if self.dep_order_policy == "estimate":
            return None
        return int(self.dep_order_policy)


@dataclass(frozen=True)
class McResult:
    """Monte Carlo summary: mean of the per-replicate values and its
    standard error; censored counts replicates that hit the step cap."""

    replicates: int
    mean: float
    std_error: float
    values: np.ndarray
    censored: int = 0
    unreliable: bool = False

    def to_dict(self) -> dict:
        return {
            "replicates": self.replicates,
            "mean": self.mean,
            "std_error": self.std_error,
            "censored": self.censored,
            "unreliable": self.unreliable,
        }


def _one_run(
    spec: GeneratorSpec,
    recipe: TrainingRecipe,
    threshold: float,
    window: int,
    max_steps: int,
    seed,
    rep: int,
) -> tuple[int, bool]:
    """Train on the first n0 observations, then monitor the same stream until
    alarm or the step cap; returns the stopping time (post-training steps)
    and whether the detector alarmed."""
    gen = StreamGenerator(spec, (seed, rep))
    train = gen.take(recipe.n0)
    config = FitConfig(
        window=window,
        alpha=recipe.alpha,
        epsilon=recipe.epsilon,
        dep_order_override=recipe.resolve_override(spec.dep_order),
        max_order=recipe.max_order,
    )
    summary = fit_training(train, config)
    det = Detector(summary, DetectorConfig(window=window, threshold=threshold))
    chunk = _TAKE_FIRST
    while det.steps < max_steps:
        block = gen.take(min(chunk, max_steps - det.steps))
        chunk = min(2 * chunk, _TAKE_CAP)
        if det.scan(block)[0] is not None:
            return det.stopping_time, True
    return max_steps, False


def _summarize(runs: list) -> McResult:
    """Summarize (stopping time, alarmed) pairs; runs that never alarmed are
    censored at the step cap."""
    arr = np.asarray([steps for steps, _ in runs], dtype=np.float64)
    censored = sum(not alarmed for _, alarmed in runs)
    mean = float(arr.mean())
    std_error = float(arr.std(ddof=1) / math.sqrt(arr.shape[0])) if arr.shape[0] > 1 else 0.0
    return McResult(
        replicates=arr.shape[0],
        mean=mean,
        std_error=std_error,
        values=arr,
        censored=censored,
        unreliable=censored > 0.05 * arr.shape[0],
    )


def _monte_carlo(
    spec: GeneratorSpec,
    recipe: TrainingRecipe,
    threshold: float,
    window: int,
    replicates: int,
    cap: int,
    seed,
    workers: int,
) -> McResult:
    """Run `replicates` independent train-then-monitor runs, each stopped at
    alarm or after `cap` post-training steps, on `workers` threads, and
    summarize them."""
    if replicates < 1:
        raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
    if cap < 1:
        raise ConfigurationError(f"max_steps must be >= 1, got {cap}")

    def run(rep: int) -> tuple[int, bool]:
        return _one_run(spec, recipe, threshold, window, cap, seed, rep)

    if workers <= 1:
        return _summarize([run(r) for r in range(replicates)])
    # replicate 0 fills the loading-factor caches before the pool starts, so
    # the workers do not all miss at once and factor the same matrix
    first = run(0)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _summarize([first, *pool.map(run, range(1, replicates))])


def monte_carlo_arl(
    spec: GeneratorSpec,
    recipe: TrainingRecipe,
    threshold: float,
    window: int,
    replicates: int,
    max_steps: Optional[int] = None,
    seed=0,
    workers: int = 1,
) -> McResult:
    """Average run length on stable streams (the spec must have no change)."""
    if spec.post_change is not None:
        raise ConfigurationError("ARL runs need a spec without a post_change")
    cap = 50 * window if max_steps is None else max_steps
    return _monte_carlo(spec, recipe, threshold, window, replicates, cap, seed, workers)


def monte_carlo_edd(
    spec: GeneratorSpec,
    recipe: TrainingRecipe,
    threshold: float,
    window: int,
    replicates: int,
    seed=0,
    max_steps: Optional[int] = None,
    workers: int = 1,
) -> McResult:
    """Expected detection delay for a change right after the training block."""
    if spec.post_change is None:
        raise ConfigurationError("EDD runs need a spec with a post_change")
    if spec.post_change.change_at != recipe.n0:
        raise ConfigurationError(
            "EDD requires change_at == n0 so the delay equals the stopping time "
            f"(change_at={spec.post_change.change_at}, n0={recipe.n0})"
        )
    cap = 10 * window if max_steps is None else max_steps
    return _monte_carlo(spec, recipe, threshold, window, replicates, cap, seed, workers)


def dep_order_study(
    true_order: int,
    p: int,
    n0: int,
    replicates: int,
    seed=0,
    epsilon: float = 0.05,
    max_order: int = 10,
) -> dict:
    """Histogram of selected dependence orders over fresh training blocks.

    Uses a Toeplitz(0.6) base so the stream has nontrivial cross-sectional
    structure.  Replicates where every candidate ratio stays above epsilon
    are counted under the key -1.
    """
    spec = GeneratorSpec(p=p, dep_order=true_order, pre_base="toeplitz06")
    counts: dict = {}
    for rep in range(replicates):
        train = gen_stream(spec, n0, (seed, rep))
        mean = train.mean(axis=0)
        try:
            m_hat = estimate_dep_order(
                train, mean, epsilon=epsilon, max_order=max_order
            )
        except DependenceTooStrongError:
            m_hat = -1
        counts[m_hat] = counts.get(m_hat, 0) + 1
    return counts
