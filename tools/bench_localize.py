"""Time and memory of the off-band reductions, one fresh process per side and cell.

    python tools/bench_localize.py --cell localize,20000,5,0 --cell batch,400,50,1 \
        [--before DIR] [--after DIR] [--rounds 5] [--pairs 1] [--out FILE]

A side is a checkout: its covshift is imported from DIR/src (--after defaults
to the checkout holding this script; --before is optional, and without it only
the after side runs).  A cell call,n,p,M draws
x = numpy.random.default_rng(7 * n + p).standard_normal((n, p)), scales its
rows from n // 2 on by 2 (a change for localize to find), and times one call:

  localize       localize(x, summary), the summary carrying the mean
                 x[:n // 2].mean(axis=0), p and dependence order M
  batch          statistic_batch(x, x.mean(axis=0), build_weight_plan(n, M))
  stationarity   stationarity_test(x, mean, M, table=...), the table that of
                 fit_training(x, FitConfig(window=100, dep_order_override=M))

Without --cell the seven cells of BENCH_localize.json run.  Each pair runs one
process per side, the sides alternating which goes first from cell to cell
and from pair to pair; BLAS, OpenMP and MKL are pinned to one thread.  A
process warms up on a 300 x 5 call and then times --rounds calls
(time.perf_counter), through public calls only so that any two commits can
be compared.  It also records the tracemalloc peak of one call (x and its
inputs allocated before tracing starts) and the call's value (tau_hat or
the statistic).  The output is JSON: per cell and side the median time over
all rounds, the largest peak and the value, and the difference between the
sides' values; nproc, the Python and numpy versions are recorded with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

CALLS = ("localize", "batch", "stationarity")
CELLS = ("localize,400,50,1", "localize,2550,200,0", "localize,5000,50,1",
         "localize,20000,5,0", "batch,400,50,1", "batch,3000,20,1",
         "stationarity,3000,20,1")
WINDOW = 100
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_cell(text: str) -> dict:
    call, n, p, m = text.split(",")
    if call not in CALLS:
        raise ValueError(f"unknown call {call!r}, expected one of {CALLS}")
    return {"call": call, "n": int(n), "p": int(p), "M": int(m)}


def cell_name(cell: dict) -> str:
    return f"{cell['call']},n={cell['n']},p={cell['p']},M={cell['M']}"


def make_call(cell: dict):
    """The cell's call as a function of no arguments, its inputs built."""
    from types import SimpleNamespace

    import numpy as np
    from covshift import (FitConfig, build_weight_plan, fit_training, localize,
                          stationarity_test, statistic_batch)

    n, p, m = cell["n"], cell["p"], cell["M"]
    x = np.random.default_rng(7 * n + p).standard_normal((n, p))
    x[n // 2:] *= 2.0
    if cell["call"] == "localize":
        summary = SimpleNamespace(mean=x[:n // 2].mean(axis=0), p=p, dep_order=m)
        return lambda: localize(x, summary)
    mean = x.mean(axis=0)
    if cell["call"] == "batch":
        plan = build_weight_plan(n, m)
        return lambda: statistic_batch(x, mean, plan)
    table = fit_training(x, FitConfig(window=WINDOW, dep_order_override=m)).trace_table
    return lambda: stationarity_test(x, mean, m, table=table).statistic


def measure(cell: dict, rounds: int) -> dict:
    """Run in the child: time one cell's call."""
    import numpy as np

    make_call({**cell, "n": 300, "p": 5})()
    call = make_call(cell)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        value = call()
        times.append((time.perf_counter() - t0) * 1e3)
    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"times_ms": times, "tracemalloc_peak_mb": peak / 1e6, "value": value,
            "numpy": np.__version__}


def run_side(src: Path, cell: dict, rounds: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    env.update({k: "1" for k in THREADS})
    env["PYTHONPATH"] = str(src / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(cell),
           "--rounds", str(rounds)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cell", action="append", help="call,n,p,M with call one of " + ", ".join(CALLS))
    ap.add_argument("--before", type=Path, help="checkout of the before side")
    ap.add_argument("--after", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(json.loads(args.child), args.rounds)))
        return 0
    sides = {"after": args.after.resolve()}
    if args.before:
        sides = {"before": args.before.resolve(), **sides}
    cells = {}
    turn = 0
    numpy_version = None
    for text in args.cell or CELLS:
        cell = parse_cell(text)
        runs = {side: [] for side in sides}
        firsts = []
        for _ in range(args.pairs):
            order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
            turn += 1
            firsts.append(order[0])
            for side in order:
                runs[side].append(run_side(sides[side], cell, args.rounds))
        numpy_version = runs["after"][0]["numpy"]
        row = {**cell, "rounds": args.rounds, "pairs": args.pairs, "first_in_pair": firsts}
        row["time_ms"] = {
            side: round(statistics.median(t for r in rs for t in r["times_ms"]), 3)
            for side, rs in runs.items()
        }
        row["tracemalloc_peak_mb"] = {
            side: round(max(r["tracemalloc_peak_mb"] for r in rs), 2) for side, rs in runs.items()
        }
        row["value"] = {side: rs[0]["value"] for side, rs in runs.items()}
        if len(sides) == 2:
            before, after = row["value"]["before"], row["value"]["after"]
            row["value_abs_diff"] = None if None in (before, after) else abs(after - before)
        cells[cell_name(cell)] = row
    result = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "blas_threads": 1,
        },
        "cells": cells,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
