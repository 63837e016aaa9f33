"""Stage timings and memory of fit_training, one fresh process per side and cell.

    python tools/bench_fit.py --cell 200,1000,2 --cell 1000,50,est \
        [--before DIR] [--after DIR] [--rounds 5] [--pairs 1] [--out FILE]

A side is a checkout: its covshift is imported from DIR/src (--after defaults
to the checkout holding this script; --before is optional, and without it only
the after side runs).  A cell n0,p,M fits x =
numpy.random.default_rng(7 * n0 + p).standard_normal((n0, p)) with window
H = 100 and dependence order M, or with the order estimated
(max_order 10, epsilon 0.05) when M is "est".

Each pair runs one process per side, the sides alternating which goes first
from cell to cell and from pair to pair; BLAS, OpenMP and MKL are pinned to
one thread.  A process warms up on a 50 x 5 fit and then times --rounds
rounds (time.perf_counter) of these stages, through public calls only so
that any two commits can be compared:

  gram            x.mean, x - mean and the n0 x n0 product, in numpy
  order_scan      estimate_dep_order(x, mean), its own Gram included
  trace_table     estimate_null_sd(x, mean, M, H): Gram, table and null sd
  null_sd         estimate_null_sd with the fitted table passed in
  stationarity    stationarity_test(x, mean, M, table=...): Gram and test
  fit_training    the whole public call

where M is the fitted order.  It also records the tracemalloc peak of one
fit_training call (x allocated before tracing starts), and the fitted
order, null sd, table and stationarity statistic.  The output is JSON: per
cell the median of every stage over all of a side's rounds, the peak, and
the differences between the sides' estimates; nproc, the Python and numpy
versions and the shapes are recorded with it.
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

WINDOW = 100
STAGES = ("gram", "order_scan", "trace_table", "null_sd", "stationarity", "fit_training")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_cell(text: str) -> dict:
    n0, p, m = text.split(",")
    return {"n0": int(n0), "p": int(p), "M": None if m == "est" else int(m)}


def cell_name(cell: dict) -> str:
    m = "est" if cell["M"] is None else cell["M"]
    return f"n0={cell['n0']},p={cell['p']},M={m}"


def measure(cell: dict, rounds: int) -> dict:
    """Run in the child: time the stages of one cell."""
    import numpy as np
    from covshift import (
        FitConfig,
        estimate_dep_order,
        estimate_null_sd,
        fit_training,
        stationarity_test,
    )

    config = FitConfig(window=WINDOW, dep_order_override=cell["M"])
    warm = np.random.default_rng(0).standard_normal((50, 5))
    fit_training(warm, FitConfig(window=20, dep_order_override=cell["M"]))
    x = np.random.default_rng(7 * cell["n0"] + cell["p"]).standard_normal((cell["n0"], cell["p"]))
    mean = x.mean(axis=0)
    summary = fit_training(x, config)
    m, table = summary.dep_order, summary.trace_table

    def gram():
        xc = x - x.mean(axis=0)
        return xc @ xc.T

    calls = {
        "gram": gram,
        "order_scan": lambda: estimate_dep_order(x, mean),
        "trace_table": lambda: estimate_null_sd(x, mean, m, WINDOW),
        "null_sd": lambda: estimate_null_sd(x, mean, m, WINDOW, table=table),
        "stationarity": lambda: stationarity_test(x, mean, m, table=table),
        "fit_training": lambda: fit_training(x, config),
    }
    times = {stage: [] for stage in STAGES}
    for _ in range(rounds):
        for stage in STAGES:
            t0 = time.perf_counter()
            calls[stage]()
            times[stage].append((time.perf_counter() - t0) * 1e3)
    tracemalloc.start()
    fit_training(x, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "times_ms": times,
        "tracemalloc_peak_mb": peak / 1e6,
        "dep_order": m,
        "null_sd": summary.null_sd,
        "stationarity": summary.stationarity.statistic,
        "table": {f"{h1},{h2}": v for (h1, h2), v in sorted(table.entries.items())},
        "numpy": np.__version__,
    }


def run_side(src: Path, cell: dict, rounds: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    env.update({k: "1" for k in THREADS})
    env["PYTHONPATH"] = str(src / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(cell),
           "--rounds", str(rounds)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def rel(a: float, b: float) -> float:
    return abs(b / a - 1.0) if a else abs(b - a)


def compare(before: dict, after: dict) -> dict:
    keys = before["table"].keys() & after["table"].keys()
    return {
        "dep_order_equal": before["dep_order"] == after["dep_order"],
        "null_sd_rel_diff": rel(before["null_sd"], after["null_sd"]),
        "table_max_rel_diff": max((rel(before["table"][k], after["table"][k]) for k in keys),
                                  default=None),
        "stationarity_abs_diff": abs(after["stationarity"] - before["stationarity"]),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cell", action="append", help="n0,p,M with M an integer or est")
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
    if not args.cell:
        ap.error("give at least one --cell")
    sides = {"after": args.after.resolve()}
    if args.before:
        sides = {"before": args.before.resolve(), **sides}
    cells = {}
    turn = 0
    for text in args.cell:
        cell = parse_cell(text)
        runs = {side: [] for side in sides}
        firsts = []
        for _ in range(args.pairs):
            order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
            turn += 1
            firsts.append(order[0])
            for side in order:
                runs[side].append(run_side(sides[side], cell, args.rounds))
        row = {**cell, "H": WINDOW, "rounds": args.rounds, "first_in_pair": firsts}
        for stage in STAGES:
            row[f"{stage}_ms"] = {
                side: round(statistics.median(t for r in rs for t in r["times_ms"][stage]), 3)
                for side, rs in runs.items()
            }
        row["fit_training_tracemalloc_peak_mb"] = {
            side: round(max(r["tracemalloc_peak_mb"] for r in rs), 2) for side, rs in runs.items()
        }
        row["dep_order"] = {side: rs[0]["dep_order"] for side, rs in runs.items()}
        row["null_sd"] = {side: rs[0]["null_sd"] for side, rs in runs.items()}
        if len(sides) == 2:
            row.update(compare(runs["before"][0], runs["after"][0]))
        cells[cell_name(cell)] = row
    result = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": next(iter(runs.values()))[0]["numpy"],
            "blas_threads": 1,
        },
        "fit_cells": cells,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
