#!/usr/bin/env python3
"""covshift benchmark: three workloads, end-to-end metrics and a traced run.

    python3 covbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Workloads (each generates its inputs from --seed before timing):
  monitor_long_window  closed loop of Detector.step, H=400 p=50 M=1 n0=1000
  mc_edd               monte_carlo_edd replicates, p=1000 M=2 model "a" rho=0.6
  cli_stream           `covshift train` then `covshift monitor` fed JSONL by an
                       open-loop generator at 1000 rows/s, ending in an alarm

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a separate traced run carries the per-layer metrics and writes its
spans under .covbench_out/.  Earlier stdout lines give the same figures under
the workload's own names, the environment and every correctness check.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads; children get the same pins via common.CHILD_ENV.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import fcntl
import importlib.metadata
import json
import platform
import shutil
import struct
import subprocess
import sys
import termios
import threading
import time

import numpy

from common import (
    OUT,
    SRC,
    Child,
    Tracer,
    beyond,
    block_percentile,
    block_rate,
    child_env,
    due_times,
    lateness,
    latencies_from_due,
    median,
    percentile,
    run_worker,
    stop_children,
    tail_percentile,
)
from inputs import changed_stream, csv_bytes, jsonl_lines, rng, toeplitz_loading

WORKLOADS = ("monitor_long_window", "mc_edd", "cli_stream")

# name -> unit; kept equal to BENCHMARK.json by the self-tests.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "weights.plan_build_ms": "ms",
    "weights.lag_sums_ms": "ms",
    "calibrate.solve_ms": "ms",
    "calibrate.solver_iterations": "count",
    "training.fit_ms": "ms",
    "training.order_scan_ms": "ms",
    "training.trace_table_ms": "ms",
    "training.null_sd_ms": "ms",
    "training.stationarity_ms": "ms",
    "stats.push_us": "us",
    "stats.windowed_us": "us",
    "stats.pushes": "count",
    "stats.evaluations": "count",
    "stats.windowed_bytes": "B_computed",
    "stats.push_flops": "flop_computed",
    "detector.step_us": "us",
    "detector.step_self_us": "us",
    "detector.init_ms": "ms",
    "detector.steps": "count",
    "detector.alarms": "count",
    "detector.localize_ms": "ms",
    "detector.localize_rows": "count",
    "detector.localize_peak_mb": "MB",
    "detector.localize_dense_mb": "MB_computed",
    "simulate.generator_init_ms": "ms",
    "simulate.take_ms": "ms",
    "simulate.rows_generated": "count",
    "simulate.rows_used": "count",
    "simulate.rows_used_ratio": "ratio",
    "simulate.censored": "count",
    "simulate.mean_delay_steps": "steps",
    "io.jsonl_parse_us": "us",
    "io.csv_read_ms": "ms",
    "io.summary_load_ms": "ms",
    "cli.import_s": "s",
    "cli.train_s": "s",
    "cli.rows_in": "count",
    "cli.rows_out": "count",
    "cli.output_bursts": "count",
    "cli.exit_code": "code",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

MON_SETUP_SAMPLES = 5
# Throughput and tail are taken per block of steps and the median over blocks
# reported, so a burst of noise from other tenants moves a few blocks rather
# than the figure.  Blocks are short: steps slowed 2-4x by other tenants
# arrive in bursts at about 1% of steps, so p99 of 1000-step blocks flipped
# between two levels from run to run while p90 of 100-step blocks held still.
MON_BLOCK = 100  # p90 per block has ten steps beyond it
MON_MIN_STEPS = 1000
MC_SETUP_SAMPLES = 5
MC_DELAY_REPLICATES = 100  # at least this many run; p90 has ten beyond it
MC_RATE_BLOCK = 10
MC_DELAY_BAND = (24.04 * 0.7, 24.04 * 1.3)

# cli_stream: paper defaults H=100, p=200, M=0, n0=500; change model "a",
# rho=0.8 after CLI["change"] monitored rows.  The target ARL keeps a false
# alarm before the change out of reach (threshold ~5.8).
CLI = dict(H=100, p=200, M=0, n0=500, rho=0.8, change=2000, extra=300, arl=1e8, rate=1000.0)

# Tail percentile per workload: the highest with at least ten samples beyond
# it in the smallest sample the workload guarantees (a block of steps, the
# minimum replicate count, one episode's rows).
TAIL = {
    "monitor_long_window": tail_percentile(MON_BLOCK),
    "mc_edd": tail_percentile(MC_DELAY_REPLICATES),
    "cli_stream": tail_percentile(CLI["change"]),
}


class Run:
    """What one workload run hands back to the driver."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.lines: list = []

    def check(self, label: str, ok: bool, detail="") -> None:
        self.checks(label, 1, int(not ok), detail)

    def checks(self, label: str, total: int, failed: int, detail="") -> None:
        """Count `total` correctness checks, `failed` of them failing."""
        self.attempted += total
        self.failed += failed
        self.note(f"check {label}: {'ok' if not failed else 'FAILED'} {detail}".rstrip())

    def note(self, text: str) -> None:
        self.lines.append(f"# {self.name}: {text}")

    def show(self, label: str, value, unit: str, detail: str = "") -> None:
        self.note(f"{label} = {value:.6g} {unit} {detail}".rstrip())


def deadline_left() -> float:
    return max(5.0, DEADLINE - time.perf_counter())


def worker(job: str, params: dict) -> tuple:
    result, ready, rss, code, err = run_worker(job, params, timeout=deadline_left())
    if result is None:
        raise RuntimeError(f"worker {job} exited {code}:\n{err[-2000:]}")
    return result, ready, rss


# --------------------------------------------------------- monitor_long_window


def monitor_long_window(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("monitor_long_window")
    run.note("H=400 p=50 M=1 (estimated) n0=1000 target_arl=1e7")
    if trace:
        d = run_dir(run.name, seed)
        res, _, _ = worker("monitor_trace", {
            "seed": seed, "seconds": seconds, "dir": d, "trace_path": trace_path(run.name, seed),
        })
        layers = res["layers"]
        run.attempted += layers["detector.steps"]
        layers.update(cli_side_layers(d, window=400))
        finish_layers(run, layers)
        shutil.rmtree(d, ignore_errors=True)
        return run
    setups = [worker("monitor", {"seed": seed, "setup_only": True})[0]["setup_s"]
              for _ in range(MON_SETUP_SAMPLES - 1)]
    res, _, rss = worker("monitor", {
        "seed": seed, "seconds": seconds, "min_steps": MON_MIN_STEPS,
    })
    setups.append(res["setup_s"])
    lat_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    n = len(lat_ms)
    steps_per_s = 1e3 * block_rate(lat_ms, MON_BLOCK)
    p50 = percentile(lat_ms, 50)
    tail = block_percentile(lat_ms, TAIL[run.name], MON_BLOCK)
    run.metrics = {
        "setup_s": median(setups), "throughput_per_s": steps_per_s,
        "latency_p50_ms": p50, "latency_tail_ms": tail, "peak_rss_mb": rss,
    }
    run.attempted += n
    run.note(f"threshold={res['threshold']:.6g} M_hat={res['dep_order']} "
             f"null_sd={res['null_sd']:.6g}")
    run.show("setup_s", median(setups), "s", f"(median of {len(setups)} fresh processes)")
    run.show("steps_per_s", steps_per_s, "1/s",
             f"(median over blocks of {MON_BLOCK} steps, n={n})")
    run.show("step_p50_us", p50 * 1e3, "us", f"(n={n})")
    q = TAIL[run.name]
    run.show(f"step_p{q:g}_us", tail * 1e3, "us",
             f"(median over {n // MON_BLOCK} blocks of {MON_BLOCK} steps, "
             f"{beyond(MON_BLOCK, q)} beyond in each)")
    run.show("step_p99_us", percentile(lat_ms, 99) * 1e3, "us",
             f"(whole run, n={n}, {beyond(n, 99)} beyond; not a bounded metric)")
    run.show("peak_rss_mb", rss, "MB")
    run.note(f"alarms (re-armed) = {res['alarms']}")
    run.check("enough steps", n >= MON_MIN_STEPS, f"(n={n})")
    run.checks(
        f"incremental == statistic_batch at {res['checks']} sampled steps",
        res["checks"], res["failed_checks"],
        f"(worst rel err {res['worst_rel_err']:.3g}, {res['failed_checks']} over tolerance)",
    )
    return run


# ---------------------------------------------------------------------- mc_edd


def mc_edd(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("mc_edd")
    run.note("p=1000 M=2 model=a rho=0.6 change_at=n0=200 H=100 a=3.58 "
             "dep_order_policy=true workers=1")
    if trace:
        d = run_dir(run.name, seed)
        res, _, _ = worker("mc_trace", {
            "seed": seed, "seconds": seconds, "dir": d, "trace_path": trace_path(run.name, seed),
        })
        run.check(
            f"traced stopping times == monte_carlo_edd on {res['replicates']} replicates",
            res["mismatches"] == 0, f"({res['mismatches']} differ)",
        )
        run.attempted += 2 * res["replicates"]
        layers = res["layers"]
        layers.update(cli_side_layers(d, window=100, m_override=2))
        finish_layers(run, layers)
        shutil.rmtree(d, ignore_errors=True)
        return run
    readies = [worker("mc_ready", {})[1] for _ in range(MC_SETUP_SAMPLES - 1)]
    res, ready, rss = worker("mc", {
        "seed": seed, "seconds": seconds, "min_replicates": MC_DELAY_REPLICATES,
    })
    readies.append(ready)
    rep_ms = [ns / 1e6 for ns in res["replicate_ns"]]
    n = len(rep_ms)
    per_s = 1e3 * block_rate(rep_ms, MC_RATE_BLOCK)
    p50, tail = percentile(rep_ms, 50), percentile(rep_ms, TAIL[run.name])
    delay = sum(res["stops"][:MC_DELAY_REPLICATES]) / MC_DELAY_REPLICATES
    run.metrics = {
        "setup_s": median(readies), "throughput_per_s": per_s,
        "latency_p50_ms": p50, "latency_tail_ms": tail, "peak_rss_mb": rss,
    }
    run.attempted += n
    run.show("setup_s", median(readies), "s",
             f"(spawn to first replicate, median of {len(readies)} fresh processes)")
    run.show("replicates_per_s", per_s, "1/s",
             f"(median over blocks of {MC_RATE_BLOCK} replicates, n={n})")
    run.show("replicate_p50_ms", p50, "ms", f"(n={n})")
    q = TAIL[run.name]
    run.show(f"replicate_p{q:g}_ms", tail, "ms", f"(n={n}, {beyond(n, q)} beyond)")
    run.show("mean_delay_steps", delay, "steps", f"(first {MC_DELAY_REPLICATES} replicates)")
    run.show("peak_rss_mb", rss, "MB")
    run.check(f"enough replicates for p{q:g}", beyond(n, q) >= 10, f"(n={n})")
    run.check("censored == 0", res["censored"] == 0, f"({res['censored']})")
    run.check(
        "mean delay within 24.04 +-30%",
        MC_DELAY_BAND[0] <= delay <= MC_DELAY_BAND[1], f"({delay:.4g})",
    )
    return run


# ------------------------------------------------------------------ cli_stream


def pending(fd: int) -> int:
    """Bytes written to a pipe that the reader has not consumed yet."""
    return struct.unpack("i", fcntl.ioctl(fd, termios.FIONREAD, b"\0\0\0\0"))[0]


def cli_inputs(seed: int, episode: int):
    gen = rng(seed, 3, episode)
    train = gen.standard_normal((CLI["n0"], CLI["p"]))
    stream = changed_stream(
        gen, CLI["change"] + CLI["extra"], CLI["p"], CLI["change"],
        toeplitz_loading(CLI["p"], CLI["rho"]),
    )
    return csv_bytes(train), jsonl_lines(stream)


def cli(*args) -> list:
    return [sys.executable, "-m", "covshift.cli", *args]


def cli_episode(run: Run, d: str, train_csv: bytes, lines: list, tracer=None) -> dict:
    """train, then monitor fed at CLI['rate'] rows/s from its readiness on.

    Readiness is when the child has drained the first row from its stdin
    pipe; every later row is due at ready + (k-1)/rate and its latency runs
    from then until the benchmark reads that row's JSON line.
    """
    os.makedirs(d, exist_ok=True)
    paths = {k: os.path.join(d, k) for k in ("train.csv", "summary.json", "report.json")}
    with open(paths["train.csv"], "wb") as handle:
        handle.write(train_csv)
    ns = lambda t: int(t * 1e9)  # noqa: E731

    trainer = Child(cli("train", "--csv", paths["train.csv"], "--window", str(CLI["H"]),
                        "--out", paths["summary.json"]), deadline_left())
    trainer.proc.stdout.read()
    train_code, _, train_end = trainer.finish()
    train_s = train_end - trainer.started

    mon = Child(cli("monitor", "--summary", paths["summary.json"], "--arl", repr(CLI["arl"]),
                    "--train-csv", paths["train.csv"], "--report", paths["report.json"]),
                deadline_left(), stdin=subprocess.PIPE)
    fd_in, fd_out = mon.proc.stdin.fileno(), mon.proc.stdout.fileno()
    os.write(fd_in, lines[0])
    while pending(fd_in) > 0 and mon.proc.poll() is None:
        time.sleep(0.0002)
    t_ready = time.perf_counter()
    due = due_times(t_ready, CLI["rate"], len(lines))
    sent = [t_ready] + [None] * (len(lines) - 1)

    def write_rows() -> None:
        try:
            for k in range(1, len(lines)):
                wait = due[k] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent[k] = time.perf_counter()
                os.write(fd_in, lines[k])
        except OSError:  # the child stopped reading: it alarmed and exited
            pass
        finally:
            try:
                mon.proc.stdin.close()
            except OSError:
                pass

    writer = threading.Thread(target=write_rows)
    writer.start()
    seen, buf, bursts = [], b"", 0
    while True:
        chunk = os.read(fd_out, 1 << 16)
        now = time.perf_counter()
        if not chunk:
            break
        buf += chunk
        *complete, buf = buf.split(b"\n")
        if complete:
            bursts += 1
            seen.extend((now, line) for line in complete)
    code, rss, t_exit = mon.finish()
    writer.join(timeout=deadline_left())  # it closes the child's stdin

    rows = [(t, json.loads(line)) for t, line in seen if line.startswith(b'{"index"')]
    summary = [json.loads(line) for _, line in seen if line.startswith(b'{"alarm_statistic"')]
    k = len(rows)
    in_order = [r["index"] for _, r in rows] == list(range(1, k + 1))
    alarmed = k > 0 and rows[-1][1]["state"] == "alarm"
    try:
        with open(paths["report.json"]) as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = None
    tau = report.get("tau_hat") if report else None
    change = CLI["n0"] + CLI["change"]

    run.attempted += k
    run.check("train exits 0 (or 3, stationarity rejected)", train_code in (0, 3),
              f"({train_code})")
    run.check("monitor exits 2 (alarm)", code == 2, f"({code})")
    run.check("one JSON line per row, in order", in_order and alarmed and len(summary) == 1,
              f"({k} rows)")
    run.check("alarm after the planted change",
              alarmed and bool(summary) and summary[0].get("stopping_time") == k > CLI["change"],
              f"(stopping_time {k}, change after row {CLI['change']})")
    run.check("report parses and |tau_hat - change| <= H",
              tau is not None and abs(tau - change) <= CLI["H"],
              f"(tau_hat {tau}, change {change})")

    lat_ms = [1e3 * x for x in latencies_from_due(due[:k], [t for t, _ in rows])]
    late_ms = [1e3 * x for x in lateness(due[1:k], sent[1:k])]
    if tracer is not None:
        with open(os.path.join(d, "stream.jsonl"), "wb") as handle:
            handle.writelines(lines[:k])
        top = tracer.add("cli.episode", ns(trainer.started), ns(t_exit))
        tracer.add("cli.train", ns(trainer.started), ns(train_end), parent=top)
        tracer.add("cli.spawn", ns(mon.started), ns(t_ready), parent=top)
        if rows:
            tracer.add("cli.first_line", ns(t_ready), ns(rows[0][0]), parent=top)
            tracer.add("cli.alarm_line", ns(t_ready), ns(rows[-1][0]), parent=top)
            tracer.add("cli.exit", ns(due[k - 1]), ns(t_exit), parent=top)
        for j, (t, _) in enumerate(rows):
            tracer.add("cli.row", ns(due[j]), ns(t), trace=f"row{j + 1}", parent=top)
    return {
        "setup_s": train_s + (t_ready - mon.started),
        "train_s": train_s,
        "ready_s": t_ready - mon.started,
        "lat_ms": lat_ms,
        "late_ms": late_ms,
        "span_s": rows[-1][0] - t_ready if rows else float("nan"),
        "rows_out": k,
        "rows_in": sum(s is not None for s in sent),
        "bursts": bursts,
        "alarm_to_report_s": t_exit - due[k - 1] if k else float("nan"),
        "rss_mb": rss,
        "exit_code": code,
        "stopping_time": summary[0].get("stopping_time") if summary else None,
        "tau_hat": tau,
    }


def cli_stream(seed: int, seconds: float, trace: bool) -> Run:
    run = Run("cli_stream")
    run.note(f"H=100 p=200 M=0 (estimated) n0=500, open loop {CLI['rate']:g} rows/s, "
             f"change model a rho=0.8 after row {CLI['change']}, --arl {CLI['arl']:g}")
    base = run_dir(run.name, seed)
    if trace:
        plain = cli_episode(run, os.path.join(base, "plain"), *cli_inputs(seed, 0))
        tracer = Tracer()
        d = os.path.join(base, "traced")
        ep = cli_episode(run, d, *cli_inputs(seed, 0), tracer=tracer)
        res, _, _ = worker("replay", {
            "dir": d, "H": CLI["H"], "arl": CLI["arl"], "p": CLI["p"], "M": CLI["M"],
            "seed": seed, "rows": ep["rows_out"],
            "trace_path": trace_path(run.name, seed, "replay"),
        })
        layers = res["layers"]
        replayed = layers.pop("_replay")
        run.check("in-process replay alarms at the CLI's stopping time",
                  replayed["stopping_time"] == ep["stopping_time"],
                  f"({replayed['stopping_time']} vs {ep['stopping_time']})")
        run.check("in-process replay localizes to the CLI's tau_hat",
                  replayed["tau_hat"] == ep["tau_hat"],
                  f"({replayed['tau_hat']} vs {ep['tau_hat']})")
        tracer.dump(trace_path(run.name, seed, "driver"))
        layers.update({
            "cli.import_s": import_seconds(),
            "cli.train_s": ep["train_s"],
            "cli.rows_in": ep["rows_in"],
            "cli.rows_out": ep["rows_out"],
            "cli.output_bursts": ep["bursts"],
            "cli.exit_code": ep["exit_code"],
            "loadgen.lag_p99_ms": percentile(ep["late_ms"], 99),
            "trace.overhead_pct": 100.0 * (median(ep["lat_ms"]) - median(plain["lat_ms"]))
            / median(plain["lat_ms"]),
            "trace.spans": layers["trace.spans"] + len(tracer.spans),
        })
        finish_layers(run, layers)
        shutil.rmtree(base, ignore_errors=True)
        return run
    # One episode per second asked for: the pooled p99 sits among the rows
    # that wait behind localize in each episode's last output buffer, and how
    # many those are varies with where the alarm falls, so it takes about ten
    # episodes to steady it.
    episodes = max(2, round(seconds))
    eps = [cli_episode(run, os.path.join(base, str(e)), *cli_inputs(seed, e))
           for e in range(episodes)]
    shutil.rmtree(base, ignore_errors=True)
    lat = [x for ep in eps for x in ep["lat_ms"]]
    late = [x for ep in eps for x in ep["late_ms"]]
    n = len(lat)
    answered = [ep for ep in eps if ep["rows_out"]]
    rows_per_s = (sum(ep["rows_out"] for ep in answered)
                  / max(1e-9, sum(ep["span_s"] for ep in answered)))
    p50, tail = percentile(lat, 50), percentile(lat, TAIL[run.name])
    setup = median([ep["setup_s"] for ep in eps])
    rss = median([ep["rss_mb"] for ep in eps])
    run.metrics = {
        "setup_s": setup, "throughput_per_s": rows_per_s,
        "latency_p50_ms": p50, "latency_tail_ms": tail, "peak_rss_mb": rss,
    }
    run.show("setup_s", setup, "s", f"(train wall + monitor spawn-to-ready, median of {episodes})")
    run.show("rows_per_s", rows_per_s, "1/s", f"(n={n} rows)")
    run.show("row_latency_p50_ms", p50, "ms", f"(n={n})")
    q = TAIL[run.name]
    run.show(f"row_latency_p{q:g}_ms", tail, "ms", f"(n={n}, {beyond(n, q)} beyond)")
    run.show("alarm_to_report_s", median([ep["alarm_to_report_s"] for ep in eps]), "s",
             f"(median of {episodes})")
    run.show("peak_rss_mb", rss, "MB", f"(monitor child, median of {episodes})")
    run.show("loadgen_lag_p99_ms", percentile(late, 99), "ms", f"(n={len(late)})")
    run.note(f"output bursts = {sum(ep['bursts'] for ep in eps)} for {n} rows")
    run.check(f"enough rows for p{q:g}", beyond(n, q) >= 10, f"(n={n})")
    return run


# ----------------------------------------------------------------- shared bits


def run_dir(name: str, seed: int) -> str:
    return os.path.join(OUT, f"{name}-s{seed}-{os.getpid()}")


def trace_path(name: str, seed: int, role: str = "worker") -> str:
    return os.path.join(OUT, f"trace-{name}-s{seed}-{role}.jsonl")


def import_seconds() -> float:
    child = Child([sys.executable, "-c", "import covshift.cli"], deadline_left())
    child.proc.stdout.read()
    _, _, end = child.finish()
    return end - child.started


def cli_side_layers(d: str, window: int, m_override=None) -> dict:
    """cli.* figures for a workload that does not stream through the CLI:
    import time, and `covshift train` on this workload's training block."""
    extra = ["--m-override", str(m_override)] if m_override is not None else []
    child = Child(cli("train", "--csv", os.path.join(d, "train.csv"), "--window", str(window),
                      "--out", os.path.join(d, "cli-summary.json"), *extra), deadline_left())
    child.proc.stdout.read()
    _, _, end = child.finish()
    return {
        "cli.import_s": import_seconds(), "cli.train_s": end - child.started,
        "cli.rows_in": 0, "cli.rows_out": 0, "cli.output_bursts": 0, "cli.exit_code": -1,
    }


def finish_layers(run: Run, layers: dict) -> None:
    layers.pop("_replay", None)
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise RuntimeError(f"per-layer metrics missing: {missing}")
    run.metrics = {k: layers[k] for k in PER_LAYER}
    for k, unit in PER_LAYER.items():
        run.show(k, layers[k], unit)


def record_environment(run: Run) -> None:
    run.note("env " + json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": numpy.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "child_env": {k: v for k, v in child_env().items() if k != "PATH"},
        "PYTHONUNBUFFERED": "unset",
    }, sort_keys=True))


RUNNERS = {
    "monitor_long_window": monitor_long_window,
    "mc_edd": mc_edd,
    "cli_stream": cli_stream,
}


def result_line(run: Run, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run.failed == 0,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": run.metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    global DEADLINE
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "covshift", "__init__.py")):
        print(f"covbench: {SRC}/covshift not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            DEADLINE = time.perf_counter() + 175.0
            started = time.perf_counter()
            run = RUNNERS[name](args.seed, args.seconds, bool(args.trace))
            record_environment(run)
            run.note(f"wall_s = {time.perf_counter() - started:.3f}")
            run.note(f"error_rate = {run.failed / max(1, run.attempted):.6g} "
                     f"({run.failed} failed of {run.attempted} attempted)")
            print("\n".join(run.lines), flush=True)
            results[name] = result_line(run, bool(args.trace))
    finally:
        stop_children()
    if args.workload == "all":
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }
    else:
        line = results[args.workload]
    print(json.dumps(line))
    return 0


DEADLINE = 0.0

if __name__ == "__main__":
    sys.exit(main())
