"""Per-call cost of the monitoring step, one fresh process per side and shape.

    python tools/bench_step.py --shape 400,50,1 --shape 100,200,0 \
        [--before DIR] [--after DIR] [--rounds 5] [--pairs 1] [--steps 3000] [--out FILE]

A side is a checkout: its covshift is imported from DIR/src (--after defaults
to the checkout holding this script; --before is optional, and without it only
the after side runs).  A shape H,p,M fits n0 = 2H training rows and streams
--steps rows, all drawn at once from
numpy.random.default_rng(1).standard_normal((n0 + steps, p)), with
fit_training(train, FitConfig(window=H, dep_order_override=M)).  Without
--shape the three shapes of BENCH_step.json run.

Each pair runs one process per side, the sides alternating which goes first
from shape to shape and from pair to pair; BLAS, OpenMP and MKL are pinned
to one thread.  A process warms up on one pass over the first 2H stream
rows and then, for --rounds rounds, times one call at a time with
time.perf_counter_ns, through public calls only so that any two commits can
be compared:

  WindowState.push      a WindowState primed by H pushes of the last H
                        training rows, then one push per stream row
                        (validation and centering included)
  statistic_windowed    on that state after each of those pushes
  Detector.step         a detector primed from the summary (threshold 1e12,
                        so it never alarms), one step per stream row
  Detector.scan         a second such detector fed the stream in blocks of
                        256 rows; a call's time divided by its rows
  Detector(...)         building a primed detector, 20 times (in ms)

A round's figure for a call is its median per call; the output holds, per
shape and side, the median of the round figures and the round figures
themselves.  It also records the tracemalloc peak of building a primed
detector and stepping it 2H + 1 times, and the largest difference between
the step and scan statistics (zero when they agree bit for bit); nproc, the
Python and numpy versions and the shapes are recorded with it.
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

CALLS = ("WindowState.push", "statistic_windowed", "Detector.step", "Detector.scan",
         "Detector_init_ms")
SHAPES = ("400,50,1", "100,200,0", "100,1000,2")
SCAN_BLOCK = 256
INITS = 20
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_shape(text: str) -> dict:
    h, p, m = (int(v) for v in text.split(","))
    return {"H": h, "p": p, "M": m}


def shape_name(shape: dict) -> str:
    return f"H={shape['H']},p={shape['p']},M={shape['M']}"


def measure(shape: dict, steps: int, rounds: int) -> dict:
    """Run in the child: time the calls of one shape."""
    import numpy as np
    from covshift import (
        Detector,
        DetectorConfig,
        FitConfig,
        WindowState,
        build_weight_plan,
        fit_training,
        statistic_windowed,
    )

    h, p, m = shape["H"], shape["p"], shape["M"]
    x = np.random.default_rng(1).standard_normal((2 * h + steps, p))
    train, stream = x[:2 * h], x[2 * h:]
    summary = fit_training(train, FitConfig(window=h, dep_order_override=m))
    plan = build_weight_plan(h, m)
    config = DetectorConfig(window=h, threshold=1e12)
    clock = time.perf_counter_ns

    def one_round(rows) -> tuple[dict, list, list]:
        state = WindowState(h)
        for row in train[-h:]:
            state.push(row, summary.mean)
        push, windowed = [], []
        for row in rows:
            t0 = clock()
            state.push(row, summary.mean)
            t1 = clock()
            statistic_windowed(state, plan)
            push.append(t1 - t0)
            windowed.append(clock() - t1)
        det = Detector(summary, config)
        step, stepped = [], []
        for row in rows:
            t0 = clock()
            res = det.step(row)
            step.append(clock() - t0)
            stepped.append(res.std_stat)
        det = Detector(summary, config)
        scan, scanned = [], []
        for k in range(0, len(rows), SCAN_BLOCK):
            block = rows[k:k + SCAN_BLOCK]
            t0 = clock()
            scanned += det.scan(block)[1]
            scan.append((clock() - t0) / len(block))
        init = []
        for _ in range(INITS):
            t0 = clock()
            Detector(summary, config)
            init.append(clock() - t0)
        figures = {
            "WindowState.push": statistics.median(push) / 1e3,
            "statistic_windowed": statistics.median(windowed) / 1e3,
            "Detector.step": statistics.median(step) / 1e3,
            "Detector.scan": statistics.median(scan) / 1e3,
            "Detector_init_ms": statistics.median(init) / 1e6,
        }
        return figures, stepped, scanned

    one_round(stream[:2 * h])  # warm-up
    times = {call: [] for call in CALLS}
    for _ in range(rounds):
        figures, stepped, scanned = one_round(stream)
        for call in CALLS:
            times[call].append(figures[call])
    tracemalloc.start()
    det = Detector(summary, config)
    det.scan(stream[:2 * h + 1])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "times": times,
        "tracemalloc_peak_mb": peak / 1e6,
        "step_scan_max_abs_diff": max(abs(a - b) for a, b in zip(stepped, scanned)),
        "numpy": np.__version__,
    }


def run_side(src: Path, shape: dict, steps: int, rounds: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    env.update({k: "1" for k in THREADS})
    env["PYTHONPATH"] = str(src / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(shape),
           "--steps", str(steps), "--rounds", str(rounds)]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--shape", action="append", help="H,p,M")
    ap.add_argument("--before", type=Path, help="checkout of the before side")
    ap.add_argument("--after", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--steps", type=int, default=3000)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(json.loads(args.child), args.steps, args.rounds)))
        return 0
    sides = {"after": args.after.resolve()}
    if args.before:
        sides = {"before": args.before.resolve(), **sides}
    shapes = {}
    turn = 0
    for text in args.shape or SHAPES:
        shape = parse_shape(text)
        runs = {side: [] for side in sides}
        firsts = []
        for _ in range(args.pairs):
            order = list(sides) if turn % 2 == 0 else list(sides)[::-1]
            turn += 1
            firsts.append(order[0])
            for side in order:
                runs[side].append(run_side(sides[side], shape, args.steps, args.rounds))
        row = {**shape, "n0": 2 * shape["H"], "steps": args.steps, "rounds": args.rounds,
               "first_in_pair": firsts}
        for call in CALLS:
            unit = "ms" if call.endswith("_ms") else "us"
            rounds = {side: [t for r in rs for t in r["times"][call]] for side, rs in runs.items()}
            row[call.removesuffix("_ms")] = {
                **{f"{side}_{unit}": round(statistics.median(ts), 3) for side, ts in rounds.items()},
                **{f"{side}_rounds_{unit}": [round(t, 3) for t in ts] for side, ts in rounds.items()},
            }
        row["primed_detector_tracemalloc_peak_mb"] = {
            side: round(max(r["tracemalloc_peak_mb"] for r in rs), 3) for side, rs in runs.items()
        }
        row["step_scan_max_abs_diff"] = {
            side: max(r["step_scan_max_abs_diff"] for r in rs) for side, rs in runs.items()
        }
        shapes[shape_name(shape)] = row
    result = {
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": next(iter(runs.values()))[0]["numpy"],
            "blas_threads": 1,
        },
        "shapes": shapes,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
