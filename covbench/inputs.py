"""Seeded input generation, done outside every timed region.

The streams are built here with numpy alone, so the workloads that bypass
`covshift.simulate` really do, and a change to the simulator cannot change
their inputs.  Every generator takes the workload seed and a tag, so two
workloads never share a random stream.
"""

from __future__ import annotations

import numpy as np


def rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


class MaStream:
    """Moving average X_i = sum_l c_l eps_{i-l} with c_l = 1/(M-l+1), the
    process the package models; take() continues the stream across calls."""

    def __init__(self, gen: np.random.Generator, p: int, order: int) -> None:
        self.gen, self.p, self.order = gen, p, order
        self.coeffs = 1.0 / (order - np.arange(order + 1) + 1.0)
        self.tail = gen.standard_normal((order, p))

    def take(self, k: int) -> np.ndarray:
        eps = np.concatenate([self.tail, self.gen.standard_normal((k, self.p))])
        m = self.order
        out = sum(self.coeffs[l] * eps[m - l : m - l + k] for l in range(m + 1))
        self.tail = eps[len(eps) - m :]
        return out


def toeplitz_loading(p: int, rho: float) -> np.ndarray:
    """Cholesky factor of the Toeplitz covariance rho^|i-j| (change model "a")."""
    idx = np.arange(p)
    return np.linalg.cholesky(rho ** np.abs(np.subtract.outer(idx, idx)))


def changed_stream(gen: np.random.Generator, n: int, p: int, change_at: int, loading) -> np.ndarray:
    """n independent N(0, I) rows whose rows after change_at are mixed by the
    loading matrix, so their covariance becomes loading @ loading.T."""
    x = gen.standard_normal((n, p))
    x[change_at:] = x[change_at:] @ loading.T
    return x


def csv_bytes(x: np.ndarray) -> bytes:
    return "".join(",".join("%.9g" % v for v in row) + "\n" for row in x).encode()


def jsonl_lines(x: np.ndarray, first_index: int = 1) -> list:
    """One `{"t": ..., "x": [...]}` line per row, as `covshift monitor` reads."""
    return [
        ('{"t": %d, "x": [%s]}\n' % (first_index + i, ", ".join("%.9g" % v for v in row))).encode()
        for i, row in enumerate(x)
    ]
