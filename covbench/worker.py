"""In-process side of the benchmark: one job per child process.

Usage: python3 covbench/worker.py <job> '<json params>'

Jobs print `READY` once their set-up is done (the driver times spawn to
READY where a workload's set-up includes process start) and a JSON result as
the last line of stdout.  Inputs are generated before any timed region.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

import numpy as np

from covshift import (
    Detector,
    DetectorConfig,
    FitConfig,
    GeneratorSpec,
    PostChange,
    StreamGenerator,
    TrainingRecipe,
    WindowState,
    build_weight_plan,
    estimate_dep_order,
    estimate_null_sd,
    fit_training,
    lag_weight_sums,
    load_summary,
    localize,
    monte_carlo_edd,
    read_csv_matrix,
    read_jsonl_stream,
    save_summary,
    solve_threshold,
    statistic_batch,
    statistic_windowed,
    stationarity_test,
)

from common import Tracer, percentile
from inputs import MaStream, csv_bytes, jsonl_lines, rng

# monitor_long_window: H=400, p=50, true M=1, M estimated from n0=1000 rows.
MON = dict(H=400, p=50, M=1, n0=1000, arl=1e7)
MON_CHECK_EVERY = 256
# mc_edd: the acceptance-suite cell p=1000, M=2, model "a", rho=0.6.
# arl is the target whose solved threshold is a (ARL table: 3.58 <-> 5038).
MC = dict(H=100, p=1000, M=2, n0=200, rho=0.6, a=3.58, arl=5038.0, cap=1000)


def ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def clear_weight_caches() -> None:
    build_weight_plan.cache_clear()
    lag_weight_sums.cache_clear()


# ---------------------------------------------------------- monitor_long_window


def monitor_inputs(seed: int):
    stream = MaStream(rng(seed, 1), MON["p"], MON["M"])
    return stream, stream.take(MON["n0"])


def monitor_setup(train, tracer=None):
    """fit_training, solve_threshold and Detector(...): the monitor set-up."""
    H = MON["H"]
    if tracer is None:
        summary = fit_training(train, FitConfig(window=H))
        cal = solve_threshold(MON["arl"], H)
        det = Detector(summary, DetectorConfig(window=H, threshold=cal.threshold))
        return summary, cal, det
    with tracer.span("training.fit"):
        summary = fit_training(train, FitConfig(window=H))
    with tracer.span("calibrate.solve"):
        cal = solve_threshold(MON["arl"], H)
    with tracer.span("detector.init"):
        det = Detector(summary, DetectorConfig(window=H, threshold=cal.threshold))
    return summary, cal, det


def job_monitor(params: dict) -> dict:
    """Closed loop: Detector.step once per row until the time is up.

    Every MON_CHECK_EVERY steps the incremental statistic is compared with
    statistic_batch over the same H rows; an alarm re-arms a primed detector
    so the run never ends early.
    """
    H = MON["H"]
    stream, train = monitor_inputs(params["seed"])
    clear_weight_caches()
    t0 = time.perf_counter()
    summary, cal, det = monitor_setup(train)
    setup_s = time.perf_counter() - t0
    if params.get("setup_only"):
        return {"setup_s": setup_s}
    config = det.config
    plan = build_weight_plan(H, summary.dep_order)
    lat = []
    checks = failed_checks = alarms = 0
    worst = 0.0
    prev = train[-(H - 1):]
    deadline = time.perf_counter_ns() + int(params["seconds"] * 1e9)
    done = False
    while not done:
        block = stream.take(2048)
        src = np.vstack([prev, block])
        for i, row in enumerate(block):
            t = time.perf_counter_ns()
            r = det.step(row)
            t2 = time.perf_counter_ns()
            lat.append(t2 - t)
            if r.state == "alarm":
                alarms += 1
                det = Detector(summary, config, prime=src[i + 1 : i + H])
            if len(lat) % MON_CHECK_EVERY == 1:
                checks += 1
                batch = statistic_batch(src[i : i + H], summary.mean, plan)
                err = abs(r.std_stat * summary.null_sd - batch)
                worst = max(worst, err / max(abs(batch), 1e-300))
                # 1e-10 relative, with an absolute floor far below null_sd
                # for statistics that happen to sit near zero
                if err > 1e-10 * abs(batch) + 1e-12 * summary.null_sd:
                    failed_checks += 1
            if t2 > deadline and len(lat) >= params["min_steps"]:
                done = True
                break
        prev = src[-(H - 1):]
    return {
        "setup_s": setup_s,
        "latencies_ns": lat,
        "alarms": alarms,
        "checks": checks,
        "failed_checks": failed_checks,
        "worst_rel_err": worst,
        "dep_order": summary.dep_order,
        "threshold": cal.threshold,
        "null_sd": summary.null_sd,
    }


def job_monitor_trace(params: dict) -> dict:
    """Traced run: set-up spans, then steps in alternating untraced and traced
    blocks on one detector (the difference is the tracing overhead), then the
    layer replay on this workload's shapes."""
    H = MON["H"]
    tr = Tracer()
    stream, train = monitor_inputs(params["seed"])
    clear_weight_caches()
    with tr.span("setup"):
        summary, cal, det = monitor_setup(train, tr)
    block_len, blocks = 250, 2 * max(4, int(params["seconds"] * 2))
    rows = stream.take(block_len * blocks)
    src = np.vstack([train[-(H - 1):], rows])
    plain_ns = traced_ns = 0
    gaps = []
    last_end = None
    for b in range(blocks):
        traced = b % 2 == 1
        t = time.perf_counter_ns()
        for k in range(b * block_len, (b + 1) * block_len):
            if traced:
                with tr.span("detector.step", trace=f"row{k + 1}") as sid:
                    r = det.step(rows[k])
                if last_end is not None:
                    gaps.append(tr.spans[sid][3] - last_end)
                last_end = tr.spans[sid][4]
            else:
                r = det.step(rows[k])
            if r.state == "alarm":
                det = Detector(summary, det.config, prime=src[k + 1 : k + H])
        elapsed = time.perf_counter_ns() - t
        if traced:
            traced_ns += elapsed
        else:
            plain_ns += elapsed
        last_end = None
    d = params["dir"]
    write_replay_files(d, train, rows[:1500], summary)
    layers = replay(tr, d, H, MON["arl"], None)
    layers.update(simulate_probe(tr, MON["p"], MON["M"], params["seed"], 1500))
    layers["loadgen.lag_p99_ms"] = percentile(gaps, 99) / 1e6
    layers["trace.overhead_pct"] = 100.0 * (traced_ns - plain_ns) / plain_ns
    return finish_trace(tr, params, layers)


# --------------------------------------------------------------------- mc_edd


def mc_spec():
    spec = GeneratorSpec(
        p=MC["p"], dep_order=MC["M"],
        post_change=PostChange("a", MC["rho"], change_at=MC["n0"]),
    )
    return spec, TrainingRecipe(n0=MC["n0"], dep_order_policy="true")


def mc_seed(seed: int, rep: int) -> int:
    """Seed of replicate `rep`; monte_carlo_edd runs it as its replicate 0."""
    return seed * 100_000 + rep


def job_mc(params: dict) -> dict:
    """monte_carlo_edd one replicate per call, workers=1, until the time is up
    and at least params["min_replicates"] are done."""
    spec, recipe = mc_spec()
    ready()
    times, stops, censored = [], [], 0
    deadline = time.perf_counter() + params["seconds"]
    rep = 0
    while rep < params["min_replicates"] or time.perf_counter() < deadline:
        t = time.perf_counter_ns()
        res = monte_carlo_edd(
            spec, recipe, threshold=MC["a"], window=MC["H"], replicates=1,
            seed=mc_seed(params["seed"], rep), workers=1,
        )
        times.append(time.perf_counter_ns() - t)
        stops.append(float(res.values[0]))
        censored += res.censored
        rep += 1
    return {"replicate_ns": times, "stops": stops, "censored": censored}


def traced_replicate(tr: Tracer, spec, recipe, seed: int) -> tuple:
    """monte_carlo_edd's replicate rebuilt from public calls, with spans.

    Returns (stopping time, rows generated).
    """
    H, cap = MC["H"], MC["cap"]
    with tr.span("replicate", trace=f"rep{seed}"):
        with tr.span("simulate.generator_init"):
            gen = StreamGenerator(spec, (seed, 0))
        with tr.span("simulate.take"):
            train = gen.take(recipe.n0)
        generated = recipe.n0
        config = FitConfig(
            window=H, alpha=recipe.alpha, epsilon=recipe.epsilon,
            dep_order_override=recipe.resolve_override(spec.dep_order),
            max_order=recipe.max_order,
        )
        with tr.span("training.fit"):
            summary = fit_training(train, config)
        with tr.span("detector.init"):
            det = Detector(summary, DetectorConfig(window=H, threshold=MC["a"]))
        while det.steps < cap:
            k = min(128, cap - det.steps)
            with tr.span("simulate.take"):
                block = gen.take(k)
            generated += k
            for row in block:
                with tr.span("detector.step"):
                    r = det.step(row)
                if r.state == "alarm":
                    return r.stopping_time, generated
        return cap, generated


def job_mc_trace(params: dict) -> dict:
    """Alternate monte_carlo_edd and the traced rebuild on the same replicate
    seeds: the stopping times must match exactly, and the time difference is
    the tracing overhead."""
    spec, recipe = mc_spec()
    tr = Tracer()
    reps = max(10, int(params["seconds"] * 3))
    plain_ns = traced_ns = 0
    mismatches = 0
    stops, gaps = [], []
    generated = used = censored = 0
    for rep in range(reps):
        seed = mc_seed(params["seed"], rep)
        t = time.perf_counter_ns()
        want = monte_carlo_edd(
            spec, recipe, threshold=MC["a"], window=MC["H"], replicates=1,
            seed=seed, workers=1,
        ).values[0]
        plain_end = time.perf_counter_ns()
        plain_ns += plain_end - t
        t = time.perf_counter_ns()
        gaps.append(t - plain_end)
        got, gen_rows = traced_replicate(tr, spec, recipe, seed)
        traced_ns += time.perf_counter_ns() - t
        mismatches += int(got != want)
        stops.append(got)
        generated += gen_rows
        used += recipe.n0 + got
        censored += int(got >= MC["cap"])
    d = params["dir"]
    gen = StreamGenerator(spec, (mc_seed(params["seed"], 0), 0))
    train = gen.take(recipe.n0)
    summary = fit_training(train, FitConfig(window=MC["H"], dep_order_override=MC["M"]))
    write_replay_files(d, train, gen.take(300), summary)
    layers = replay(tr, d, MC["H"], MC["arl"], MC["M"])
    layers.update({
        "simulate.rows_generated": generated,
        "simulate.rows_used": used,
        "simulate.rows_used_ratio": used / generated,
        "simulate.censored": censored,
        "simulate.mean_delay_steps": sum(stops) / len(stops),
        "loadgen.lag_p99_ms": percentile(gaps, 99) / 1e6,
        "trace.overhead_pct": 100.0 * (traced_ns - plain_ns) / plain_ns,
    })
    layers.update(span_means(tr, {"simulate.generator_init": "ms", "simulate.take": "ms"}))
    out = finish_trace(tr, params, layers)
    out["mismatches"] = mismatches
    out["replicates"] = reps
    return out


# --------------------------------------------------------------- layer replay


def write_replay_files(d: str, train, rows, summary) -> None:
    """The files a CLI user would hand the program, for the io replay."""
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "train.csv"), "wb") as handle:
        handle.write(csv_bytes(train))
    with open(os.path.join(d, "stream.jsonl"), "wb") as handle:
        handle.writelines(jsonl_lines(rows))
    save_summary(summary, os.path.join(d, "summary.json"))


def replay(tr: Tracer, d: str, H: int, arl: float, m_override) -> dict:
    """Time each layer once through its public calls, on the files in d.

    train.csv, stream.jsonl and summary.json are exactly what the program saw
    (for cli_stream) or this workload's own inputs written out.  The detector
    is primed and stepped as `covshift monitor` does it, and WindowState is
    driven with the same rows so a step splits into push, windowed statistic
    and the detector's own bookkeeping.
    """
    with tr.span("io.csv_read"):
        train = read_csv_matrix(os.path.join(d, "train.csv"))
    rows = []
    with open(os.path.join(d, "stream.jsonl")) as handle:
        it = read_jsonl_stream(handle)
        while True:
            t = time.perf_counter_ns()
            row = next(it, None)
            if row is None:
                break
            tr.add("io.jsonl_parse", t, time.perf_counter_ns())
            rows.append(row)
    with tr.span("io.summary_load"):
        summary = load_summary(os.path.join(d, "summary.json"))
    n0 = train.shape[0]
    mean = train.mean(axis=0)

    clear_weight_caches()
    with tr.span("training.fit"):
        fitted = fit_training(train, FitConfig(window=H, dep_order_override=m_override))
    m = fitted.dep_order
    with tr.span("training.order_scan"):
        estimate_dep_order(train, mean)
    clear_weight_caches()
    with tr.span("weights.plan_build"):
        plan_h = build_weight_plan(H, m)
        plan_n = build_weight_plan(n0, m)
    with tr.span("weights.lag_sums"):
        lag_weight_sums(plan_h)
        lag_weight_sums(plan_n)
    with tr.span("training.null_sd_untabled"):
        estimate_null_sd(train, mean, m, H)
    with tr.span("training.null_sd"):
        estimate_null_sd(train, mean, m, H, table=fitted.trace_table)
    with tr.span("training.stationarity"):
        stationarity_test(train, mean, m, table=fitted.trace_table)
    with tr.span("calibrate.solve"):
        cal = solve_threshold(arl, H)

    config = DetectorConfig(window=H, threshold=cal.threshold)
    prime = train[-(H - 1):]
    with tr.span("detector.init"):
        det = Detector(summary, config, prime=prime)
    alarms, first_stop = 0, None
    step_ns = []
    for i, row in enumerate(rows):
        with tr.span("detector.step", trace=f"row{i + 1}") as sid:
            r = det.step(row)
        step_ns.append(tr.spans[sid][4] - tr.spans[sid][3])
        if r.state == "alarm":
            alarms += 1
            first_stop = first_stop or r.stopping_time
            det = Detector(summary, config, prime=np.vstack([prime, rows[: i + 1]])[-(H - 1):])
    state = WindowState(H)
    for row in prime:
        with tr.span("stats.push"):
            state.push(row, summary.mean)
    push_ns, windowed_ns = [], []
    for row in rows:
        with tr.span("stats.push") as sid:
            state.push(row, summary.mean)
        push_ns.append(tr.spans[sid][4] - tr.spans[sid][3])
        with tr.span("stats.windowed") as sid:
            statistic_windowed(state, plan_h)
        windowed_ns.append(tr.spans[sid][4] - tr.spans[sid][3])

    history = np.vstack([train, np.asarray(rows)])
    with tr.span("detector.localize"):
        tau = localize(history, summary)
    tracemalloc.start()
    localize(history, summary)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    out = span_means(tr, {
        "io.csv_read": "ms", "io.summary_load": "ms", "io.jsonl_parse": "us",
        "training.fit": "ms", "training.order_scan": "ms", "training.null_sd": "ms",
        "training.stationarity": "ms", "weights.plan_build": "ms",
        "weights.lag_sums": "ms", "calibrate.solve": "ms", "detector.init": "ms",
        "detector.localize": "ms",
    })
    # step, push and windowed statistic on the same rows, so the step's own
    # validation and bookkeeping is what is left over
    step_us = sum(step_ns) / len(step_ns) / 1e3
    push_us = sum(push_ns) / len(push_ns) / 1e3
    windowed_us = sum(windowed_ns) / len(windowed_ns) / 1e3
    out.update({
        "training.trace_table_ms": mean_of(tr, "training.null_sd_untabled") / 1e6
        - out["training.null_sd_ms"],
        "calibrate.solver_iterations": cal.solver_iterations,
        "stats.push_us": push_us,
        "stats.windowed_us": windowed_us,
        "stats.pushes": len(tr.durations("stats.push")),
        "stats.evaluations": len(windowed_ns),
        "stats.windowed_bytes": 8 * H * H,
        "stats.push_flops": 2 * H * train.shape[1],
        "detector.step_us": step_us,
        "detector.step_self_us": step_us - push_us - windowed_us,
        "detector.steps": len(tr.durations("detector.step")),
        "detector.alarms": alarms,
        "detector.localize_rows": history.shape[0],
        "detector.localize_peak_mb": peak / 1e6,
        "detector.localize_dense_mb": 8 * history.shape[0] ** 2 / 1e6,
    })
    out["_replay"] = {"stopping_time": first_stop, "tau_hat": tau}
    return out


def simulate_probe(tr: Tracer, p: int, order: int, seed: int, rows: int) -> dict:
    """StreamGenerator at this workload's (p, M), for a workload that does
    not otherwise use the simulator."""
    spec = GeneratorSpec(p=p, dep_order=order)
    with tr.span("simulate.generator_init"):
        gen = StreamGenerator(spec, seed)
    with tr.span("simulate.take"):
        gen.take(rows)
    out = span_means(tr, {"simulate.generator_init": "ms", "simulate.take": "ms"})
    out.update({
        "simulate.rows_generated": rows,
        "simulate.rows_used": rows,
        "simulate.rows_used_ratio": 1.0,
        "simulate.censored": 0,
        "simulate.mean_delay_steps": 0.0,
    })
    return out


_SCALE = {"ms": 1e6, "us": 1e3, "s": 1e9}


def mean_of(tr: Tracer, name: str) -> float:
    d = tr.durations(name)
    return sum(d) / len(d)


def span_means(tr: Tracer, names: dict) -> dict:
    """Mean duration per call of each named span, as `<name>_<unit>`."""
    return {f"{n}_{u}": mean_of(tr, n) / _SCALE[u] for n, u in names.items()}


def finish_trace(tr: Tracer, params: dict, layers: dict) -> dict:
    tr.dump(params["trace_path"])
    layers["trace.spans"] = len(tr.spans)
    return {"layers": layers}


def job_replay(params: dict) -> dict:
    """Layer replay of one cli_stream episode on the bytes the CLI saw."""
    tr = Tracer()
    layers = replay(tr, params["dir"], params["H"], params["arl"], None)
    layers.update(simulate_probe(tr, params["p"], params["M"], params["seed"], params["rows"]))
    return finish_trace(tr, params, layers)


def job_mc_ready(params: dict) -> dict:
    """Only the set-up of an mc_edd process: imports and the scenario."""
    mc_spec()
    ready()
    return {}


JOBS = {
    "monitor": job_monitor,
    "monitor_trace": job_monitor_trace,
    "mc": job_mc,
    "mc_ready": job_mc_ready,
    "mc_trace": job_mc_trace,
    "replay": job_replay,
}


def main() -> int:
    job, params = sys.argv[1], json.loads(sys.argv[2])
    result = JOBS[job](params)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
