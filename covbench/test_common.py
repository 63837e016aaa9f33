"""Self-tests for the benchmark's own helpers.

    python3 -m pytest covbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402
    ROOT,
    Tracer,
    beyond,
    block_percentile,
    block_rate,
    covered,
    due_times,
    latencies_from_due,
    lateness,
    median,
    percentile,
    self_times,
    tail_percentile,
)


# ----------------------------------------------------------------- self time


def test_self_time_subtracts_children():
    spans = [
        ["step", "row1", None, 0, 100],
        ["push", "row1", 0, 10, 30],
        ["windowed", "row1", 0, 40, 90],
    ]
    assert self_times(spans) == [30, 20, 50]


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["parent", "run", None, 0, 100],
        ["a", "run", 0, 10, 60],
        ["b", "run", 0, 50, 70],
    ]
    assert self_times(spans)[0] == 100 - 60


def test_self_time_clips_children_to_the_parent():
    # a child recorded from outside (a row's due-to-seen time) may start
    # before its parent; only the covered part of the parent counts
    spans = [["parent", "run", None, 100, 200], ["row", "row1", 0, 50, 150]]
    assert self_times(spans)[0] == 50


def test_self_time_ignores_grandchildren():
    spans = [
        ["replicate", "rep0", None, 0, 100],
        ["fit", "rep0", 0, 0, 60],
        ["inner", "rep0", 1, 10, 20],
    ]
    assert self_times(spans) == [40, 50, 10]


def test_covered_merges_and_clips():
    assert covered([(0, 10), (5, 15), (20, 30)], 0, 25) == 20
    assert covered([], 0, 10) == 0


def test_tracer_nests_and_inherits_trace_ids():
    tr = Tracer()
    with tr.span("replicate", trace="rep3") as outer:
        with tr.span("training.fit") as inner:
            pass
    with tr.span("other"):
        pass
    name, trace, parent, start, end = tr.spans[inner]
    assert (name, trace, parent) == ("training.fit", "rep3", outer)
    assert tr.spans[outer][3] <= start <= end <= tr.spans[outer][4]
    assert tr.spans[2][1:3] == ["run", None]
    assert len(tr.durations("training.fit")) == 1


def test_tracer_dump_writes_one_json_line_per_span(tmp_path):
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
    tr.add("row", 0, 5, trace="row1")
    path = tmp_path / "t.jsonl"
    tr.dump(str(path))
    lines = [json.loads(x) for x in path.read_text().splitlines()]
    assert [x["name"] for x in lines] == ["a", "b", "row"]
    assert lines[1]["parent"] == 0 and lines[2]["self_ns"] == 5


# ---------------------------------------------------------------- percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [(15, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert beyond(n, expected) >= 10


def test_block_percentile_is_the_median_over_whole_blocks():
    quiet = list(range(1, 101))
    noisy = [1000 + v for v in quiet]
    # one noisy block out of three leaves the figure at the quiet blocks' p99
    assert block_percentile(quiet + noisy + quiet + [5, 5], 99, 100) == 99
    assert block_percentile(quiet, 50, 100) == 50


def test_block_rate_is_the_median_over_whole_blocks():
    # blocks of two operations: 2/2, 2/10 (a stall), 2/2; the trailing 5 is dropped
    assert block_rate([1, 1, 5, 5, 1, 1, 5], 2) == 1.0


def test_median_of_even_and_odd_samples():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


# ----------------------------------------------------------- open-loop load


def test_due_times_keep_the_rate_whatever_happens():
    due = due_times(10.0, 1000.0, 4)
    assert due == pytest.approx([10.0, 10.001, 10.002, 10.003])


def test_stall_charges_every_row_queued_behind_it():
    due = due_times(0.0, 1000.0, 5)
    # the system stalls for 10 ms after the first row, then drains the queue
    seen = [0.0005, 0.0105, 0.0106, 0.0107, 0.0108]
    lat = latencies_from_due(due, seen)
    assert lat == pytest.approx([0.0005, 0.0095, 0.0086, 0.0077, 0.0068])


def test_lateness_is_never_negative():
    due = due_times(0.0, 100.0, 3)
    assert lateness(due, [0.0, 0.012, 0.0199]) == pytest.approx([0.0, 0.002, 0.0])


# ------------------------------------------------------------ the contract


def test_benchmark_json_matches_the_driver():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.TAIL) == set(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
