#!/usr/bin/env python3
"""Solve alarm thresholds for target average run lengths.

For each window size and each target average run length (ARL), find the
threshold `a` whose closed-form ARL matches the target, then evaluate the
closed form back at the solved threshold to show the round trip.  Finishes
with a worked example of the smallest detectable change: the weakest
autoregressive-style coherence rho that the rule can still see at a given
dimension and window.
"""

from __future__ import annotations

import argparse

from covshift import (
    change_norm_frobenius,
    min_detectable_change,
    solve_threshold,
    theoretical_arl,
)


def run_length_table(windows, targets):
    print(f"{'window':>7} {'target ARL':>11} {'threshold':>10} {'achieved':>10} {'iters':>6}")
    for window in windows:
        for target in targets:
            res = solve_threshold(target, window)
            print(
                f"{window:7d} {target:11.0f} {res.threshold:10.4f} "
                f"{res.achieved_arl:10.1f} {res.solver_iterations:6d}"
            )


def weakest_visible_rho(p, window, threshold):
    """Smallest rho (model a: banded geometric cross-correlation) still detectable."""
    base_norm = p**0.5  # Frobenius norm of the identity pre-change covariance
    floor = min_detectable_change(threshold, window, base_norm)

    def gap(rho):
        return change_norm_frobenius("a", p, rho, 0) - floor

    lo, hi = 1e-4, 0.9  # gap is increasing in rho: bisect its sign change
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) < 0.0 else (lo, mid)
    rho_min = 0.5 * (lo + hi)
    print(f"\nminimum detectable change at p={p}, H={window}, a={threshold:.4f}:")
    print(f"  required |Sigma1 - Sigma0|_F >= {floor:.2f}")
    print(f"  weakest visible rho = {rho_min:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--windows", type=int, nargs="+", default=[100, 150])
    ap.add_argument("--targets", type=float, nargs="+", default=[1000, 3000, 5000])
    args = ap.parse_args()

    run_length_table(args.windows, args.targets)
    a_5000 = solve_threshold(5000, 100).threshold
    print(f"\nclosed-form check: arl({a_5000:.4f}, 100) = {theoretical_arl(a_5000, 100):.1f}")
    weakest_visible_rho(p=1000, window=100, threshold=a_5000)


if __name__ == "__main__":
    main()
