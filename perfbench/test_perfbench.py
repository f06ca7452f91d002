"""Self-tests for the benchmark's helpers, and smoke runs of its workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The smoke runs execute ``run.py`` on every workload with a one-second
window; deselect them with ``-k "not smoke"``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import metrics
from common import (
    BEYOND, CAL_REF_S, Spans, beyond, calibrate, count_mismatches,
    completing_lines, due_time, lines_due, min_samples, named_percentile,
    percentile, speed_scale, visible_times,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# -- percentiles and the sample-count rule ------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(19), 0.5) is None
    assert percentile(range(20), 0.5) == 9
    assert beyond(range(20), 0.5) == BEYOND
    assert percentile(range(199), 0.95) is None
    assert percentile(range(200), 0.95) == 189
    assert min_samples(0.5) == 20
    assert min_samples(0.95) == 200
    assert min_samples(0.99) == 1000


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.95) == 5.0
    assert beyond(values, 0.95) == 10


def test_named_percentile_refuses_thin_samples():
    with pytest.raises(RuntimeError, match="need 200"):
        named_percentile(range(150), 0.95, "delay")
    assert named_percentile(range(300), 0.95, "delay") == 284


def test_percentile_rejects_bad_quantiles():
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            percentile(range(100), q)


# -- machine speed ------------------------------------------------------

def test_speed_scale_takes_the_fastest_calibration_to_the_reference():
    assert speed_scale([CAL_REF_S]) == 1.0
    assert speed_scale([3 * CAL_REF_S, 2 * CAL_REF_S]) == 0.5
    cal = calibrate(reps=1)
    assert 0.0 < cal < 1.0


# -- the open-loop pacing schedule --------------------------------------

def test_schedule_is_fixed_rate_from_t0():
    assert due_time(10.0, 0, 100.0) == 10.0
    assert due_time(10.0, 250, 100.0) == pytest.approx(12.5)
    assert lines_due(10.0, 9.99, 100.0, 1000) == 0
    assert lines_due(10.0, 10.0, 100.0, 1000) == 1
    assert lines_due(10.0, 10.0099, 100.0, 1000) == 1
    assert lines_due(10.0, 10.0101, 100.0, 1000) == 2
    assert lines_due(10.0, 99.0, 100.0, 1000) == 1000


def test_schedule_never_sends_a_line_before_it_is_due():
    t0, rate, total = 3.0, 20_000.0, 5_000
    for k in range(0, 4_000):
        now = t0 + k * 7.3e-5
        n = lines_due(t0, now, rate, total)
        assert n == 0 or due_time(t0, n - 1, rate) <= now + 1e-12
        assert n == total or due_time(t0, n, rate) > now - 1e-12


def test_window_cuts_split_the_measured_part_evenly():
    import serve

    cuts = serve.window_cuts(serve.phase_lines(20.0))
    assert len(cuts) == serve.WINDOWS + 1
    assert cuts[0] == serve.RATE * serve.WARMUP_S
    assert cuts[-1] == serve.phase_lines(20.0)
    widths = {b - a for a, b in zip(cuts, cuts[1:])}
    assert widths == {40_000}


# -- matching predictions to their chain-completing lines ----------------

def test_completing_lines_claims_duplicates_in_stream_order():
    nodes = ["a", "b", "a", "a", "b"]
    times = [1.0, 1.0, 2.0, 2.0, 3.0]
    preds = [("a", 2.0), ("b", 1.0), ("a", 2.0), ("b", 3.0)]
    assert completing_lines(nodes, times, preds) == [2, 1, 3, 4]


def test_completing_lines_rejects_an_unmatched_prediction():
    with pytest.raises(KeyError):
        completing_lines(["a"], [1.0], [("a", 1.0), ("a", 1.0)])
    with pytest.raises(KeyError):
        completing_lines(["a"], [1.0], [("b", 1.0)])


def test_visible_times_follow_cumulative_ack_counts():
    stamps = [(0.5, 0, 1), (0.7, 1, 2), (0.9, 0, 3)]
    assert visible_times(stamps, [4, 2]) == [
        [0.5, 0.9, 0.9, None], [0.7, 0.7]]


def test_count_mismatches_counts_a_changed_prediction_once():
    ref = Counter({("n1", "c", 1.0): 1, ("n2", "c", 2.0): 2})
    assert count_mismatches(ref, ref) == 0
    moved = Counter({("n1", "c", 1.5): 1, ("n2", "c", 2.0): 2})
    assert count_mismatches(ref, moved) == 1
    assert count_mismatches(ref, Counter({("n2", "c", 2.0): 1})) == 2


# -- spans --------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = Spans()
    root = spans.add("pass", 0.0, 10.0)
    scan = spans.add("scan", 1.0, 4.0, root)
    spans.add("kernel", 1.5, 3.5, scan)
    spans.add("match", 5.0, 6.0, root)
    other = spans.add("pass", 20.0, 21.0)
    own = spans.self_times(root)
    assert own == {"pass": 6.0, "scan": 1.0, "kernel": 2.0, "match": 1.0}
    assert spans.self_times()["pass"] == 7.0
    assert spans.records[scan][1] == root  # one trace id per pass
    assert spans.records[other][1] == other


# -- BENCHMARK.json -----------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        rows = {m["name"]: m for m in spec[key]}
        assert list(rows) == list(table)
        for name, metric in table.items():
            assert rows[name]["unit"] == metric.unit
            assert rows[name]["better"] == metric.better
            if key == "end_to_end":
                assert rows[name]["bound"] == metric.bound <= 0.25
            else:
                assert metric.moves
    assert max(m.bound for m in metrics.END_TO_END.values()) == (
        metrics.END_TO_END["setup_s"].bound)


# -- smoke runs ---------------------------------------------------------

def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _smoke(workload: str, seconds: str, trace: str) -> dict:
    proc = _run(["--workload", workload, "--seed", "3", "--seconds",
                 seconds, "--trace", trace])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_smoke_run(workload):
    # serve_paced needs 5 s of schedule for the 200 samples a p95 takes.
    seconds = "5" if workload == "serve_paced" else "1"
    got = _smoke(workload, seconds, "0")
    assert set(got) == set(metrics.END_TO_END)
    for name, metric in got.items():
        assert metric["unit"] == metrics.END_TO_END[name].unit
        assert metric["value"] > 0


def test_smoke_traced_run():
    got = _smoke("replay_storm", "1", "1")
    assert set(got) == set(metrics.PER_LAYER)
    assert got["emit.predictions"]["value"] > 1000
    assert got["ingest.quarantined"]["value"] > 0
    assert 0 < got["scan.share"]["value"] < 1


def test_smoke_refuses_a_directory_without_the_program():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _run(["--workload", "replay_quiet", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
