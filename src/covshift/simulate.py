"""Synthetic streams with a known covariance change, plus Monte Carlo drivers.

The generator produces a moving-average vector process X_i = B s_i with
s_i = sum_{l=0}^{M} eps_{i-l} / (M - l + 1); after the change point the
loading matrix B is swapped for Q while the innovation stream continues
uninterrupted.  Closed-form population quantities (lag traces, null standard
deviation, change norms) are available for the identity base, so Monte Carlo
results can be compared against theory without estimation noise.

The loadings that need no random draws act on each row in place, in O(p)
time and memory, with no p x p matrix: the AR(1) Toeplitz factor behind
model "a" and the "toeplitz06" base is the recursion
x_j = rho x_{j-1} + sqrt(1 - rho^2) e_j along the coordinates, and the
model "c" equicorrelation factor is a diagonal scaling plus a shifted
cumulative sum.  No row is mixed with another, so a take of one row gives
the same bits as the same row inside a long take.  Model "b" draws a fresh
Q from the generator's stream, the identity plus three entries per row, and
loads each coordinate from that row's nonzeros alone, which keeps the same
promise.  build_q returns the dense Q of every model, the oracle the
row-wise forms are checked against.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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

# An AR(1) loading works in blocks of coordinates short enough that
# |rho|^-t stays below 2**_AR1_EXPONENT within one block.
_AR1_EXPONENT = 600

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


# an in-place loading of a (k, p) block of rows; None is the identity
_Loading = Optional[Callable[[np.ndarray], None]]


def _ar1_loading(p: int, rho: float) -> _Loading:
    """Rows times the transposed lower Cholesky factor of rho^|i-j|.

    That factor maps e to the AR(1) recursion x_0 = e_0,
    x_j = rho x_{j-1} + sqrt(1 - rho^2) e_j.  Over a block of coordinates
    starting at a it is x_{a+t} = rho^t (rho x_{a-1} + sum_{u<=t} rho^-u w_u),
    w_u the scaled draw of coordinate a + u: one cumulative sum between two
    elementwise products, with the block's last value carried into the next.
    """
    if rho == 0.0:
        return None
    block = min(p, max(1, int(_AR1_EXPONENT / -math.log2(abs(rho)))))
    down = rho ** np.arange(block)
    up = math.sqrt((1.0 - rho) * (1.0 + rho)) / down
    first = up.copy()
    first[0] = 1.0

    def load(rows: np.ndarray) -> None:
        for a in range(0, p, block):
            seg = rows[:, a:a + block]
            w = seg.shape[1]
            seg *= (up if a else first)[:w]
            if a:
                seg[:, 0] += rho * rows[:, a - 1]
            np.cumsum(seg, axis=1, out=seg)
            seg *= down[:w]

    return load


def _equicorrelation_loading(p: int, rho: float) -> _Loading:
    """Rows times the transposed lower Cholesky factor of the unit-diagonal,
    constant-rho matrix.

    The factor holds d_j on its diagonal and c_j everywhere below it in
    column j, so a row e maps to d * e plus the cumulative sum of c * e
    shifted one coordinate right.  From the leading minors
    (1 - rho)^(j-1) (1 + (j-1) rho): d_j^2 = (1 - rho)(1 + j rho) / (1 + (j-1) rho)
    and c_j = rho (1 - rho) / ((1 + (j-1) rho) d_j), with d_0 = 1 and c_0 = rho.
    """
    j = np.arange(p)
    prev = 1.0 + (j - 1) * rho
    d = np.sqrt((1.0 - rho) * (1.0 + j * rho) / prev)
    c = rho * (1.0 - rho) / (prev[:-1] * d[:-1])
    if p > 1:
        c[0] = rho

    def load(rows: np.ndarray) -> None:
        below = rows[:, :-1] * c
        np.cumsum(below, axis=1, out=below)
        rows *= d
        rows[:, 1:] += below

    return load


def _sparse_loading(q: np.ndarray) -> _Loading:
    """Rows times q.T for a q with at most four nonzeros per row (model "b").

    Coordinate i of a loaded row is the sum over row i's nonzeros, taken in
    column order, of the gathered coordinate times its entry: the same
    elementwise products and sums whatever the number of rows loaded.
    """
    width = min(4, q.shape[1])
    cols = np.argsort(q == 0.0, axis=1, kind="stable")[:, :width]
    vals = np.take_along_axis(q, cols, axis=1)

    def load(rows: np.ndarray) -> None:
        out = rows[:, cols[:, 0]] * vals[:, 0]
        for j in range(1, width):
            out += rows[:, cols[:, j]] * vals[:, j]
        rows[...] = out

    return load


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
    """Post-change loading matrix Q for the given change model, as a dense
    p x p array.

    Models "a" and "c" return the lower Cholesky factor of their target
    covariance and draw nothing from rng; model "b" draws a fresh Q from rng.
    StreamGenerator applies the "a" and "c" factors row by row without
    forming them, so this is the reference it is checked against.
    """
    _check_change(model, p, rho)
    if model == "a":
        k = np.arange(p)
        return np.linalg.cholesky((float(rho) ** k)[abs(k[:, None] - k)])
    if model == "c":
        sigma = np.full((p, p), float(rho))
        np.fill_diagonal(sigma, 1.0)
        return np.linalg.cholesky(sigma)
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
    takes produce bit-identical observations for the same seed.  q holds
    model "b"'s realized Q, which change_norm_frobenius needs; it is None
    for the other models, whose loadings are never formed.
    """

    def __init__(self, spec: GeneratorSpec, seed) -> None:
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._base = None if spec.pre_base == "identity" else _ar1_loading(spec.p, 0.6)
        self.q: Optional[np.ndarray] = None
        self._post: _Loading = None
        change = spec.post_change
        if change is not None:
            _check_change(change.model, spec.p, change.rho)
            if change.model == "a":
                self._post = _ar1_loading(spec.p, change.rho)
            elif change.model == "c":
                self._post = _equicorrelation_loading(spec.p, change.rho)
            else:
                self.q = build_q("b", spec.p, change.rho, self._rng)
                self._post = _sparse_loading(self.q)
        self._tail = np.zeros((spec.dep_order, spec.p))
        self._count = 0

    def _innovations(self, out: np.ndarray) -> None:
        if self.spec.innovation == "gaussian":
            self._rng.standard_normal(out=out)
        else:
            draws = self._rng.standard_t(8, size=out.shape)
            np.multiply(draws, math.sqrt(0.75), out=out)

    def take(self, k: int) -> np.ndarray:
        """Next k observations as a (k, p) array."""
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        if k == 0:
            return np.empty((0, self.spec.p))
        m = self.spec.dep_order
        eps = np.empty((m + k, self.spec.p))
        eps[:m] = self._tail
        self._innovations(eps[m:])
        s = eps
        if m > 0:
            self._tail = eps[-m:].copy()
            coeffs = ma_coefficients(m)
            s = np.multiply(eps[m:], coeffs[0])
            scratch = np.empty_like(s) if m > 1 else None
            for l in range(1, m):
                s += np.multiply(eps[m - l : m - l + k], coeffs[l], out=scratch)
            s += eps[:k]  # lag m has coefficient 1
        # rows 1..change_at of the stream come before the change: the
        # first pre rows of this take
        pre = k
        if self.spec.post_change is not None:
            pre = min(max(self.spec.post_change.change_at - self._count, 0), k)
        self._count += k
        if self._base is not None and pre:
            self._base(s[:pre])
        if self._post is not None and pre < k:
            self._post(s[pre:])
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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return _summarize(list(pool.map(run, range(replicates))))


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
