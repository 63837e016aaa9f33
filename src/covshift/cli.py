"""Command-line front end.

Subcommands:
  calibrate  solve the alarm threshold for a target average run length
  train      fit a training summary from a CSV of observations
  monitor    stream observations against a saved summary, alarm on threshold;
             the rows of each read are scored together and their JSON lines
             written and flushed before the next read blocks
  simulate   run a scenario file (ARL / detection delay / order selection)

Exit codes: 0 success (monitor: stream ended with no alarm), 1 usage or input
error, 2 alarm raised, 3 training rejected by the stationarity check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .calibrate import edd_upper_bound, solve_threshold, theoretical_arl
from .detector import Detector, DetectorConfig
from .errors import DataError
from .io import load_summary, read_csv_matrix, read_jsonl_batches, save_summary
from .simulate import (
    GeneratorSpec,
    PostChange,
    TrainingRecipe,
    change_norm_frobenius,
    dep_order_study,
    monte_carlo_arl,
    monte_carlo_edd,
    population_null_sd,
)
from .training import FitConfig, fit_training

__all__ = ["main", "build_parser"]

# rows of a --csv stream that monitor scores, and writes out, at a time
_CSV_BLOCK = 256


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for alarms."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="covshift",
        description="Streaming detection of covariance changes in vector time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cal = sub.add_parser("calibrate", help="solve the threshold for a target ARL")
    cal.add_argument("--arl", type=float, required=True, help="target average run length")
    cal.add_argument("--window", type=int, required=True, help="rolling window length")

    tr = sub.add_parser("train", help="fit a training summary from a CSV")
    tr.add_argument("--csv", required=True, help="training observations, one row each")
    tr.add_argument("--window", type=int, required=True, help="rolling window length")
    tr.add_argument("--alpha", type=float, default=0.05, help="stationarity test level")
    tr.add_argument("--epsilon", type=float, default=0.05, help="order selection cutoff")
    tr.add_argument(
        "--m-override", type=int, default=None, help="force this dependence order"
    )
    tr.add_argument("--out", required=True, help="where to write the summary JSON")

    mon = sub.add_parser("monitor", help="monitor a stream against a saved summary")
    mon.add_argument("--summary", required=True, help="summary JSON from `train`")
    level = mon.add_mutually_exclusive_group(required=True)
    level.add_argument("--a", type=float, help="alarm threshold")
    level.add_argument("--arl", type=float, help="target ARL (threshold is solved)")
    mon.add_argument("--csv", help="observations CSV (default: JSONL on stdin)")
    mon.add_argument("--jsonl", help="observations JSONL file")
    mon.add_argument(
        "--train-csv",
        help="original training CSV; primes the window and enables localization",
    )
    mon.add_argument("--report", help="write the full detection report JSON here")

    sim = sub.add_parser("simulate", help="run a simulation scenario")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--replicates", type=int, default=None, help="override replicates")
    sim.add_argument("--seed", type=int, default=None, help="override the seed")
    sim.add_argument("--workers", type=int, default=1, help="worker threads")

    return parser


def _cmd_calibrate(args: argparse.Namespace) -> int:
    result = solve_threshold(args.arl, args.window)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    x = read_csv_matrix(args.csv)
    config = FitConfig(
        window=args.window,
        alpha=args.alpha,
        epsilon=args.epsilon,
        dep_order_override=args.m_override,
    )
    summary = fit_training(x, config)
    save_summary(summary, args.out)
    st = summary.stationarity
    print(f"observations: {summary.n0}  dimension: {summary.p}")
    print(f"dependence order: {summary.dep_order}")
    print(f"null sd: {summary.null_sd:.6g}")
    print(f"summary written to {args.out}")
    if st.rejected:
        print(
            f"stationarity: REJECTED (statistic {st.statistic:.4g} > "
            f"critical value {st.z_alpha:.4g}); the training block may already "
            "contain a change"
        )
        return 3
    print(
        f"stationarity: ok (statistic {st.statistic:.4g} <= "
        f"critical value {st.z_alpha:.4g})"
    )
    return 0


def _monitor_source(args: argparse.Namespace):
    """Blocks of observations: what each read of a JSONL stream returned, or
    the CSV matrix _CSV_BLOCK rows at a time."""
    if args.csv is not None and args.jsonl is not None:
        raise DataError("pass at most one of --csv and --jsonl")
    if args.csv is not None:
        x = read_csv_matrix(args.csv)
        for start in range(0, x.shape[0], _CSV_BLOCK):
            yield x[start:start + _CSV_BLOCK]
        return
    if args.jsonl is not None:
        with open(args.jsonl, "rb") as handle:
            yield from read_jsonl_batches(handle)
        return
    yield from read_jsonl_batches(sys.stdin.buffer)


def _cmd_monitor(args: argparse.Namespace) -> int:
    summary = load_summary(args.summary)
    threshold = (
        args.a if args.a is not None else solve_threshold(args.arl, summary.window).threshold
    )
    config = DetectorConfig(window=summary.window, threshold=threshold)
    train_rows: Optional[np.ndarray] = None
    prime = None
    if args.train_csv is not None:
        train_rows = read_csv_matrix(args.train_csv)
        if train_rows.shape[1] != summary.p:
            raise DataError(
                f"--train-csv has {train_rows.shape[1]} columns, expected {summary.p}"
            )
        if train_rows.shape[0] != summary.n0:
            raise DataError(f"--train-csv has {train_rows.shape[0]} rows, but the "
                            f"summary was trained on {summary.n0}")
        prime = train_rows[-(summary.window - 1) :] if summary.window > 1 else None
    detector = Detector(summary, config, prime=prime)
    consumed: list = []
    alarm = None
    # every block is answered, one write and one flush, before the next read
    for block in _monitor_source(args):
        start = detector.steps
        alarm, std_stats = detector.scan(block)
        if train_rows is not None:
            consumed.append(block[:len(std_stats)])
        sys.stdout.write("".join(
            json.dumps({
                "index": start + k + 1,
                "std_stat": stat,
                "state": "filling" if stat is None else "alarm" if k == alarm else "monitoring",
            }) + "\n"
            for k, stat in enumerate(std_stats)
        ))
        sys.stdout.flush()
        if alarm is not None:
            break
    history = None
    if train_rows is not None and consumed:
        history = np.vstack([train_rows, *consumed])
    del consumed  # the blocks live on in history; localize runs without them
    report = detector.build_report(history=history)
    payload = report.to_dict()
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    brief = dict(payload)
    brief["n_evaluated"] = len(payload["trajectory"])
    del brief["trajectory"]
    print(json.dumps(brief, sort_keys=True))
    return 2 if alarm is not None else 0


_REQUIRED = object()
_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", dict: "an object",
               type(None): "null"}


def _field(scenario: dict, key: str, kind, default=_REQUIRED, prefix: str = ""):
    """scenario[key], or default when absent, if its JSON type is kind: int,
    float, str, dict or a tuple of them; float takes an integer too and
    returns a float, and a bool is neither.  DataError names the field."""
    name = prefix + key
    if key not in scenario:
        if default is _REQUIRED:
            raise DataError(f"scenario is missing the {name!r} field")
        return default
    value = scenario[key]
    kinds = kind if isinstance(kind, tuple) else (kind,)
    accepted = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = " or ".join(_JSON_TYPES[k] for k in kinds)
        raise DataError(f"scenario field {name!r} must be {expected}, got {value!r}")
    return float(value) if kind is float else value


# TrainingRecipe's fields and their JSON types
_RECIPE_FIELDS = {"n0": int, "dep_order_policy": (str, int), "alpha": float,
                  "epsilon": float, "max_order": int}


def _print_table(rows: list) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def _scenario_threshold(scenario: dict, window: int) -> float:
    if "threshold" in scenario:
        return _field(scenario, "threshold", float)
    return solve_threshold(_field(scenario, "target_arl", float), window).threshold


def _recipe_from(scenario: dict) -> TrainingRecipe:
    recipe = _field(scenario, "recipe", dict, {})
    unknown = sorted(set(recipe) - set(_RECIPE_FIELDS))
    if unknown:
        raise DataError(f"scenario field 'recipe' has unknown keys {unknown}")
    return TrainingRecipe(**{
        key: _field(recipe, key, _RECIPE_FIELDS[key], prefix="recipe.") for key in recipe
    })


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.scenario) as handle:
        try:
            scenario = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"{args.scenario}: invalid JSON ({exc.msg})") from None
    if not isinstance(scenario, dict):
        raise DataError(f"{args.scenario}: expected a JSON object")
    kind = _field(scenario, "kind", str)
    if kind not in ("arl", "edd", "m_selection"):
        raise DataError(f"unknown scenario kind {kind!r}")
    seed = args.seed if args.seed is not None else _field(scenario, "seed", int, 0)
    replicates = (
        args.replicates if args.replicates is not None
        else _field(scenario, "replicates", int, 0)
    )
    if replicates < 0:
        raise DataError(f"replicates must be >= 0 (0: theory only), got {replicates}")
    if args.workers < 1:
        raise DataError(f"--workers must be >= 1, got {args.workers}")

    if kind == "m_selection":
        if replicates < 1:
            raise DataError("m_selection needs replicates >= 1")
        true_order = _field(scenario, "true_order", int)
        counts = dep_order_study(
            true_order=true_order,
            p=_field(scenario, "p", int),
            n0=_field(scenario, "n0", int),
            replicates=replicates,
            seed=seed,
            epsilon=_field(scenario, "epsilon", float, 0.05),
            max_order=_field(scenario, "max_order", int, 10),
        )
        rows = [("replicates", replicates), ("true order", true_order)]
        for m in sorted(counts):
            label = f"selected {m}" if m >= 0 else "no order found"
            rows.append((label, counts[m]))
        _print_table(rows)
        payload = {
            "kind": "m_selection",
            "true_order": true_order,
            "replicates": replicates,
            "counts": {str(k): v for k, v in sorted(counts.items())},
            "correct_fraction": counts.get(true_order, 0) / replicates,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0

    window = _field(scenario, "window", int)
    threshold = _scenario_threshold(scenario, window)
    p = _field(scenario, "p", int)
    dep_order = _field(scenario, "dep_order", int, 0)
    innovation = _field(scenario, "innovation", str, "gaussian")
    pre_base = _field(scenario, "pre_base", str, "identity")
    recipe = _recipe_from(scenario)
    max_steps = _field(scenario, "max_steps", (int, type(None)), None)
    post_change = None
    if kind == "edd":
        model = _field(scenario, "model", str)
        rho = _field(scenario, "rho", float)
        change_at = _field(scenario, "change_at", int, recipe.n0)
        post_change = PostChange(model=model, rho=rho, change_at=change_at)
    spec = GeneratorSpec(p=p, dep_order=dep_order, innovation=innovation,
                         pre_base=pre_base, post_change=post_change)

    rows = [("window", window), ("threshold", f"{threshold:.6g}")]
    payload = {"kind": kind, "window": window, "threshold": threshold, "mc": None}
    if kind == "arl":
        theo = theoretical_arl(threshold, window)
        rows.append(("theoretical ARL", f"{theo:.6g}"))
        payload["theoretical_arl"] = theo
        run, label = monte_carlo_arl, "MC ARL"
    else:
        rows += [("model", model), ("rho", rho)]
        payload.update(model=model, rho=rho, bound=None)
        if pre_base == "identity" and model in ("a", "c"):
            norm = change_norm_frobenius(model, p, rho, dep_order)
            sd = population_null_sd(p, dep_order, window)
            bound = edd_upper_bound(threshold, window, dep_order, sd, norm).bound
            rows.append(("delay bound", f"{bound:.6g}"))
            payload["bound"] = bound
        run, label = monte_carlo_edd, "MC delay"
    if replicates > 0:
        mc = run(spec, recipe, threshold, window, replicates,
                 max_steps=max_steps, seed=seed, workers=args.workers)
        rows += [
            (label, f"{mc.mean:.6g} +/- {mc.std_error:.3g}"),
            ("replicates", mc.replicates),
            ("censored", mc.censored),
        ]
        payload["mc"] = mc.to_dict()
    _print_table(rows)
    print(json.dumps(payload, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "calibrate": _cmd_calibrate,
        "train": _cmd_train,
        "monitor": _cmd_monitor,
        "simulate": _cmd_simulate,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"covshift: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
