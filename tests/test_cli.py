import io
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from covshift import (
    FitConfig,
    GeneratorSpec,
    PostChange,
    fit_training,
    gen_stream,
    load_summary,
    read_csv_matrix,
    read_jsonl_batches,
    read_jsonl_stream,
    save_summary,
)
from covshift.cli import main
from covshift.errors import DataError


def write_csv(path, rows, header=None):
    with open(path, "w") as f:
        if header:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(f"{v:.10g}" for v in row) + "\n")


# ---------------------------------------------------------------- io helpers


def test_read_csv_matrix_with_and_without_header(tmp_path):
    rows = np.arange(12, dtype=float).reshape(4, 3)
    plain = tmp_path / "plain.csv"
    headed = tmp_path / "headed.csv"
    write_csv(plain, rows)
    write_csv(headed, rows, header=["s1", "s2", "s3"])
    assert np.array_equal(read_csv_matrix(str(plain)), rows)
    assert np.array_equal(read_csv_matrix(str(headed)), rows)


def test_read_csv_matrix_names_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError) as err:
        read_csv_matrix(str(path))
    assert "row 2" in str(err.value) and "column 2" in str(err.value)


def test_read_csv_matrix_names_non_finite_cell(tmp_path):
    for cell in ("nan", "inf", "-Infinity"):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"a,b\n1.0,2.0\n\n3.0,4.0\n5.0,{cell}\n")
        with pytest.raises(DataError) as err:
            read_csv_matrix(str(path))
        assert "row 5, column 2" in str(err.value)


def test_read_csv_matrix_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError) as err:
        read_csv_matrix(str(path))
    assert "row 2" in str(err.value)


def test_read_jsonl_stream_parses_and_validates():
    lines = '{"t": 0, "x": [1.0, 2.0]}\n\n{"t": 1, "x": [3.0, 4.0]}\n'
    got = list(read_jsonl_stream(io.StringIO(lines)))
    assert len(got) == 2
    assert np.array_equal(got[1], [3.0, 4.0])
    with pytest.raises(DataError) as err:
        list(read_jsonl_stream(io.StringIO('{"t": 0}\n')))
    assert "line 1" in str(err.value)
    with pytest.raises(DataError):
        list(read_jsonl_stream(io.StringIO("not json\n")))


def test_read_jsonl_stream_rejects_non_numeric_elements():
    good = '{"t": 0, "x": [1, 2.5]}\n'
    assert np.array_equal(next(read_jsonl_stream(io.StringIO(good))), [1.0, 2.5])
    for x in ('["1", "2e3"]', "[true, null]", "[true, false]", "[1, null]",
              "[[1], [2, 3]]", "[[1, 2], [3, 4]]", "[1, true]", "[0.5, false]",
              "[NaN, 1]", "[1, Infinity]", "[-Infinity]", "[1e400, 2]"):
        lines = good + '{"t": 1, "x": ' + x + "}\n"
        with pytest.raises(DataError) as err:
            list(read_jsonl_stream(io.StringIO(lines)))
        assert "line 2" in str(err.value)


def test_read_jsonl_stream_accepts_true_outside_x():
    line = '{"t": 0, "note": "true", "flag": false, "x": [1, 2.5]}\n'
    assert np.array_equal(next(read_jsonl_stream(io.StringIO(line))), [1.0, 2.5])


class Trickle:
    """A binary stream whose every read1 returns at most 7 bytes."""

    def __init__(self, data: bytes):
        self.data = data

    def read1(self, size: int) -> bytes:
        piece, self.data = self.data[:min(7, size)], self.data[7:]
        return piece


def batches_until_error(stream) -> tuple[list, Exception]:
    got = []
    with pytest.raises(DataError) as err:
        for block in read_jsonl_batches(stream):
            got.append(block)
    return got, err.value


def test_read_jsonl_batches_carries_lines_across_reads():
    text = ('{"t": 0, "x": [1.0, 2.0]}\r\n\n  \n{"t": 1, "x": [3, 4.5]}\n'
            '{"t": 2, "x": [5.0, 6.0]}')  # CRLF, blank lines, no final newline
    expected = list(read_jsonl_stream(io.StringIO(text)))
    assert len(expected) == 3
    for stream in (Trickle(text.encode()), io.BytesIO(text.encode())):
        blocks = list(read_jsonl_batches(stream))
        assert all(b.ndim == 2 and b.dtype == np.float64 for b in blocks)
        assert np.array_equal(np.vstack(blocks), expected)
    assert len(list(read_jsonl_batches(Trickle(text.encode())))) == 3  # one per read
    # the last line is only complete at the end of the stream
    assert len(list(read_jsonl_batches(io.BytesIO(text.encode())))) == 2
    assert list(read_jsonl_batches(io.BytesIO(b"\n\n"))) == []


def test_read_jsonl_batches_yields_good_rows_before_naming_a_bad_line():
    good = '{"t": 0, "x": [1.0, 2.0]}\r\n\n'  # two lines each
    for bad, line in [('{"t": 9, "x": [1.0, NaN]}', 7), ('{"t": 9}', 7),
                      ('{"t": 9, "x": [1.0, 2.0, 3.0]}', 7), ("not json", 7),
                      ('{"t": 9, "x": [1.0, "2"]}', 7)]:
        data = (3 * good + bad + "\n" + good).encode()
        for stream in (Trickle(data), io.BytesIO(data)):
            got, err = batches_until_error(stream)
            assert np.vstack(got).shape == (3, 2)  # lines 1, 3 and 5
            assert f"line {line}:" in str(err)
    got, err = batches_until_error(io.BytesIO(good.encode() + b'{"x": [1, 2]}\xff\n'))
    assert len(got) == 1 and "line 3" in str(err)


def test_summary_save_load_round_trip(tmp_path):
    train = gen_stream(GeneratorSpec(p=15, dep_order=0), 100, 6)
    summary = fit_training(train, FitConfig(window=30, dep_order_override=0))
    path = tmp_path / "summary.json"
    save_summary(summary, str(path))
    back = load_summary(str(path))
    assert back.null_sd == pytest.approx(summary.null_sd, rel=1e-15)
    assert back.window == 30 and back.dep_order == 0


# ------------------------------------------------------------------ calibrate


def test_cli_calibrate_outputs_threshold(capsys):
    rc = main(["calibrate", "--arl", "5038", "--window", "100"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threshold"] == pytest.approx(3.58, abs=0.01)
    assert payload["achieved_arl"] == pytest.approx(5038, rel=1e-5)


def test_cli_calibrate_infeasible_target(capsys):
    rc = main(["calibrate", "--arl", "50", "--window", "100"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_calibrate_non_finite_target_exits_one(capsys):
    for arl in ("inf", "nan"):
        rc = main(["calibrate", "--arl", arl, "--window", "100"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("covshift: error:")
        assert len(captured.err.splitlines()) == 1


def test_cli_calibrate_huge_target_solves(capsys):
    rc = main(["calibrate", "--arl", "1e300", "--window", "100"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["achieved_arl"] == pytest.approx(1e300, rel=1e-6)


def test_cli_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--arl", "1000"])
    assert exc.value.code == 1


# ---------------------------------------------------------------------- train


def make_training_csv(tmp_path, seed=3, n0=150, p=20, change=False):
    x = gen_stream(GeneratorSpec(p=p, dep_order=0), n0, seed)
    if change:
        x = x.copy()
        x[n0 // 2 :] *= 2.0
    path = tmp_path / "train.csv"
    write_csv(path, x)
    return path, x


def test_cli_train_writes_summary(tmp_path, capsys):
    csv_path, x = make_training_csv(tmp_path)
    out = tmp_path / "summary.json"
    rc = main(["train", "--csv", str(csv_path), "--window", "40",
               "--m-override", "0", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "stationarity: ok" in text
    summary = load_summary(str(out))
    assert summary.p == 20 and summary.window == 40


def test_cli_train_rejects_unstable_block_with_exit_3(tmp_path, capsys):
    csv_path, _ = make_training_csv(tmp_path, change=True)
    out = tmp_path / "summary.json"
    rc = main(["train", "--csv", str(csv_path), "--window", "40",
               "--m-override", "0", "--out", str(out)])
    assert rc == 3
    assert "REJECTED" in capsys.readouterr().out
    assert out.exists()  # summary still written for inspection


def test_cli_train_bad_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,nan?\n")
    rc = main(["train", "--csv", str(path), "--window", "40", "--out",
               str(tmp_path / "s.json")])
    assert rc == 1
    assert "row 2" in capsys.readouterr().err


# -------------------------------------------------------------------- monitor


def setup_monitoring(tmp_path, rho=0.8, n0=150, p=20, post_rows=200):
    spec = GeneratorSpec(p=p, dep_order=0, post_change=PostChange("a", rho, change_at=n0))
    from covshift import StreamGenerator

    gen = StreamGenerator(spec, 12)
    train = gen.take(n0)
    post = gen.take(post_rows)
    train_csv = tmp_path / "train.csv"
    stream_csv = tmp_path / "stream.csv"
    write_csv(train_csv, train)
    write_csv(stream_csv, post)
    summary_path = tmp_path / "summary.json"
    rc = main(["train", "--csv", str(train_csv), "--window", "40",
               "--m-override", "0", "--out", str(summary_path)])
    assert rc == 0
    return train_csv, stream_csv, summary_path


def test_cli_monitor_alarms_on_change(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    capsys.readouterr()  # drop the train subcommand's output
    report_path = tmp_path / "report.json"
    rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0",
               "--csv", str(stream_csv), "--train-csv", str(train_csv),
               "--report", str(report_path)])
    assert rc == 2
    lines = capsys.readouterr().out.strip().splitlines()
    steps = [json.loads(line) for line in lines[:-1]]
    assert all(set(s) == {"index", "std_stat", "state"} for s in steps)
    assert steps[-1]["state"] == "alarm"
    final = json.loads(lines[-1])
    assert final["stopping_time"] == steps[-1]["index"]
    assert final["tau_hat"] is not None
    report = json.loads(report_path.read_text())
    assert len(report["trajectory"]) == final["n_evaluated"]
    assert abs(report["tau_hat"] - 150) <= 10


def test_cli_monitor_clean_stream_exits_zero(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path, rho=0.0)
    rc = main(["monitor", "--summary", str(summary_path), "--a", "50",
               "--csv", str(stream_csv)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["stopping_time"] is None


def test_cli_monitor_rejects_nan_threshold(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    capsys.readouterr()
    rc = main(["monitor", "--summary", str(summary_path), "--a", "nan",
               "--csv", str(stream_csv)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "threshold" in captured.err


def test_cli_monitor_reads_jsonl_stdin(tmp_path, capsys, monkeypatch):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    rows = read_csv_matrix(str(stream_csv))
    payload = "".join(
        json.dumps({"t": k, "x": list(row)}) + "\n" for k, row in enumerate(rows)
    )
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
    rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0",
               "--train-csv", str(train_csv)])
    assert rc == 2


def test_cli_monitor_sources_write_identical_lines(tmp_path, capsys, monkeypatch):
    # an alarming stream that crosses a CSV block, and a clean longer one
    for rho, level, post_rows in ((0.8, "3.0", 200), (0.0, "50", 600)):
        train_csv, stream_csv, summary_path = setup_monitoring(
            tmp_path, rho=rho, post_rows=post_rows)
        rows = read_csv_matrix(str(stream_csv))
        payload = "".join(
            json.dumps({"t": k, "x": list(row)}) + ("\r\n" if k % 2 else "\n")
            for k, row in enumerate(rows)
        )
        jsonl = tmp_path / "stream.jsonl"
        jsonl.write_text(payload, newline="")
        args = ["monitor", "--summary", str(summary_path), "--a", level,
                "--train-csv", str(train_csv)]
        outs = []
        for source in (["--csv", str(stream_csv)], ["--jsonl", str(jsonl)], []):
            monkeypatch.setattr(
                sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
            capsys.readouterr()
            rc = main(args + source)
            outs.append((rc, capsys.readouterr().out))
        assert outs[0][0] == (2 if rho else 0)
        assert outs[1] == outs[0] and outs[2] == outs[0]
        lines = outs[0][1].splitlines()
        assert len(lines) == (json.loads(lines[-1])["stopping_time"] or len(rows)) + 1


def test_cli_monitor_answers_rows_before_a_bad_line(tmp_path, capsys, monkeypatch):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    row = read_csv_matrix(str(stream_csv))[0]
    payload = json.dumps({"t": 0, "x": list(row)}) + '\n{"t": 1, "x": [1, 2]}\n'
    path = tmp_path / "bad.jsonl"
    path.write_text(payload)
    for source in (["--jsonl", str(path)], []):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(payload.encode())))
        capsys.readouterr()
        rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0", *source])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == '{"index": 1, "std_stat": null, "state": "filling"}\n'
        assert captured.err.startswith("covshift: error: line 2:")
        assert captured.err.count("\n") == 1


def test_cli_monitor_answers_a_row_while_stdin_stays_open(tmp_path):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    row = read_csv_matrix(str(stream_csv))[0]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "covshift.cli", "monitor", "--summary", str(summary_path),
         "--a", "3.0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        proc.stdin.write((json.dumps({"t": 0, "x": list(row)}) + "\n").encode())
        proc.stdin.flush()
        answer = []
        reader = threading.Thread(target=lambda: answer.append(proc.stdout.readline()))
        reader.start()
        reader.join(timeout=20)
        assert not reader.is_alive(), "no answer while stdin is open"
        assert json.loads(answer[0]) == {"index": 1, "std_stat": None, "state": "filling"}
        out, err = proc.communicate(timeout=60)  # closes stdin
    finally:
        proc.kill()
        proc.wait(timeout=20)
    assert proc.returncode == 0, err
    assert json.loads(out)["stopping_time"] is None


def test_cli_monitor_jsonl_names_the_bad_line(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    rows = read_csv_matrix(str(stream_csv))[:3]
    lines = [json.dumps({"t": k, "x": list(row)}) for k, row in enumerate(rows)]
    p = rows.shape[1]
    for bad in ("[NaN" + ", 0.5" * (p - 1) + "]", "[true" + ", 0.5" * (p - 1) + "]"):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([lines[0], '{"t": 1, "x": ' + bad + "}", lines[2]]) + "\n")
        capsys.readouterr()
        rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0",
                   "--jsonl", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("covshift: error:") and "line 2" in err


def test_cli_monitor_dimension_mismatch_exits_one(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    bad = tmp_path / "bad_stream.csv"
    bad.write_text("1.0,2.0\n")
    rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0",
               "--csv", str(bad)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cli_monitor_rejects_train_csv_of_other_length(tmp_path, capsys):
    # a shorter training CSV would shift tau_hat by the missing rows; the
    # check runs before the stream is opened, so a missing stream is not seen
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    short = tmp_path / "short.csv"
    write_csv(short, read_csv_matrix(str(train_csv))[50:])
    capsys.readouterr()
    rc = main(["monitor", "--summary", str(summary_path), "--a", "3.0",
               "--csv", str(tmp_path / "missing.csv"), "--train-csv", str(short)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "100 rows" in captured.err and "150" in captured.err


def test_cli_monitor_rejects_unusable_summary(tmp_path, capsys):
    train_csv, stream_csv, summary_path = setup_monitoring(tmp_path)
    payload = json.loads(summary_path.read_text())
    missing_sd = {k: v for k, v in payload.items() if k != "null_sd"}
    for field, bad_payload in [("null_sd", {**payload, "null_sd": float("nan")}),
                               ("null_sd", {**payload, "null_sd": 0.0}),
                               ("null_sd", missing_sd),
                               ("mean", {**payload, "mean": payload["mean"][:-1]})]:
        bad = tmp_path / "bad_summary.json"
        bad.write_text(json.dumps(bad_payload))
        capsys.readouterr()
        rc = main(["monitor", "--summary", str(bad), "--a", "3.0", "--csv", str(stream_csv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("covshift: error:") and field in err


def test_cli_monitor_requires_exactly_one_level():
    with pytest.raises(SystemExit) as exc:
        main(["monitor", "--summary", "s.json"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["monitor", "--summary", "s.json", "--a", "3.0", "--arl", "1000"])
    assert exc.value.code == 1


# ------------------------------------------------------------------- simulate


def test_cli_simulate_arl_theory_only(tmp_path, capsys):
    scenario = tmp_path / "arl.json"
    scenario.write_text(json.dumps({
        "kind": "arl", "p": 50, "dep_order": 0, "window": 100,
        "threshold": 3.04, "replicates": 0,
    }))
    rc = main(["simulate", "--scenario", str(scenario)])
    assert rc == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["theoretical_arl"] == pytest.approx(1002, rel=0.01)
    assert last["mc"] is None


def test_cli_simulate_edd_with_replicates(tmp_path, capsys):
    scenario = tmp_path / "edd.json"
    scenario.write_text(json.dumps({
        "kind": "edd", "p": 60, "dep_order": 0, "window": 30,
        "threshold": 3.0, "model": "a", "rho": 0.8,
        "recipe": {"n0": 80}, "replicates": 4, "seed": 9,
    }))
    rc = main(["simulate", "--scenario", str(scenario)])
    assert rc == 0
    out1 = capsys.readouterr().out
    last = json.loads(out1.strip().splitlines()[-1])
    assert last["mc"]["replicates"] == 4
    assert last["mc"]["mean"] > 0
    assert last["bound"] is not None
    rc = main(["simulate", "--scenario", str(scenario)])
    assert rc == 0
    assert capsys.readouterr().out == out1  # byte-identical rerun


def test_cli_simulate_edd_rejects_rho_outside_model_domain(tmp_path, capsys):
    # the delay bound (replicates 0) and the Monte Carlo run reject it alike
    for replicates in (0, 2):
        scenario = tmp_path / "edd.json"
        scenario.write_text(json.dumps({
            "kind": "edd", "p": 30, "dep_order": 0, "window": 20,
            "threshold": 3.0, "model": "a", "rho": 1.5,
            "recipe": {"n0": 40}, "replicates": replicates,
        }))
        rc = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "rho" in captured.err


def test_cli_simulate_rejects_negative_replicates_and_workers(tmp_path, capsys):
    scenario = tmp_path / "arl.json"
    base = {"kind": "arl", "p": 5, "window": 20, "threshold": 3.0}
    for field, flags, word in [
        (-4, [], "replicates"),
        (0, ["--replicates", "-4"], "replicates"),
        (2, ["--workers", "-3"], "workers"),
        (2, ["--workers", "0"], "workers"),
    ]:
        scenario.write_text(json.dumps({**base, "replicates": field}))
        rc = main(["simulate", "--scenario", str(scenario), *flags])
        captured = capsys.readouterr()
        assert rc == 1, flags
        assert captured.out == ""
        assert word in captured.err


def test_cli_simulate_rejects_fields_of_the_wrong_type(tmp_path, capsys):
    scenario = tmp_path / "arl.json"
    base = {"kind": "arl", "p": 5, "window": 20, "threshold": 3.0}
    for field, value in [("replicates", "2"), ("window", None), ("recipe", [1]),
                         ("p", True), ("threshold", "3"), ("max_steps", 2.5),
                         ("recipe", {"n0": "80"}), ("recipe", {"size": 80})]:
        scenario.write_text(json.dumps({**base, field: value}))
        rc = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert rc == 1, field
        assert captured.out == ""
        assert captured.err.startswith("covshift: error:") and field in captured.err
        assert captured.err.count("\n") == 1


def test_cli_simulate_m_selection(tmp_path, capsys):
    scenario = tmp_path / "msel.json"
    scenario.write_text(json.dumps({
        "kind": "m_selection", "true_order": 0, "p": 60, "n0": 100,
        "replicates": 5, "seed": 2,
    }))
    rc = main(["simulate", "--scenario", str(scenario)])
    assert rc == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sum(last["counts"].values()) == 5
    assert last["correct_fraction"] >= 0.8


def test_cli_simulate_unknown_kind_exits_one(tmp_path, capsys):
    scenario = tmp_path / "odd.json"
    scenario.write_text(json.dumps({"kind": "power"}))
    rc = main(["simulate", "--scenario", str(scenario)])
    assert rc == 1
    assert "unknown scenario kind 'power'" in capsys.readouterr().err


def test_cli_simulate_output_format(tmp_path, capsys):
    # the table's labels in order and the JSON line's keys, per kind and
    # with or without Monte Carlo and a delay bound
    scenario = tmp_path / "scenario.json"
    arl = {"kind": "arl", "p": 5, "window": 20, "threshold": 3.0, "recipe": {"n0": 40}}
    edd = {**arl, "kind": "edd", "rho": 0.5}
    mc_rows = ["replicates", "censored"]
    cases = [
        ({**arl, "replicates": 0},
         ["window", "threshold", "theoretical ARL"], {"theoretical_arl"}),
        ({**arl, "replicates": 2, "max_steps": 50},
         ["window", "threshold", "theoretical ARL", "MC ARL", *mc_rows], {"theoretical_arl"}),
        ({**edd, "model": "a", "replicates": 2},
         ["window", "threshold", "model", "rho", "delay bound", "MC delay", *mc_rows],
         {"model", "rho", "bound"}),
        ({**edd, "model": "b", "replicates": 2},
         ["window", "threshold", "model", "rho", "MC delay", *mc_rows],
         {"model", "rho", "bound"}),
    ]
    for fields, labels, keys in cases:
        scenario.write_text(json.dumps(fields))
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        *table, last = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in table] == labels
        payload = json.loads(last)
        assert set(payload) == {"kind", "window", "threshold", "mc"} | keys
        assert payload["kind"] == fields["kind"]
        if fields["replicates"]:
            assert set(payload["mc"]) == {"replicates", "mean", "std_error",
                                          "censored", "unreliable"}
        else:
            assert payload["mc"] is None
        if "bound" in keys:
            assert (payload["bound"] is None) == (fields["model"] == "b")


@pytest.mark.skipif(
    shutil.which("covshift") is None,
    reason="the covshift console script is not installed (pip install .)",
)
def test_console_script_entry_point():
    proc = subprocess.run(
        ["covshift", "calibrate", "--arl", "1002", "--window", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["threshold"] == pytest.approx(3.04, abs=0.01)


def test_declared_entry_point_runs_without_install():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts.get("covshift") == "covshift.cli:main"
    # Run the target the way an installer's console-script wrapper does.
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from covshift.cli import main; sys.exit(main())",
         "calibrate", "--arl", "1002", "--window", "100"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["threshold"] == pytest.approx(3.04, abs=0.01)


NO_SCIPY_RUN = """
import json, sys
import numpy as np
import covshift
import covshift.cli
from covshift import (Detector, DetectorConfig, FitConfig, GeneratorSpec, PostChange,
                      StreamGenerator, TrainingRecipe, fit_training, localize,
                      monte_carlo_edd, solve_threshold)
rng = np.random.default_rng(0)
train = rng.standard_normal((60, 4))
summary = fit_training(train, FitConfig(window=20))
a = solve_threshold(1000.0, 20).threshold
block = rng.standard_normal((30, 4))
Detector(summary, DetectorConfig(window=20, threshold=a)).scan(block)
localize(np.vstack([train, block]), summary)
for model in ("a", "c"):
    change = PostChange(model, 0.5, change_at=5)
    StreamGenerator(GeneratorSpec(p=4, dep_order=0, pre_base="toeplitz06",
                                  post_change=change), 1).take(10)
spec = GeneratorSpec(p=4, dep_order=0, post_change=PostChange("a", 0.8, change_at=60))
monte_carlo_edd(spec, TrainingRecipe(n0=60), a, 20, replicates=1)
print(json.dumps(sorted(name for name in sys.modules if name.startswith("scipy"))))
"""


def test_runtime_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN], capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
