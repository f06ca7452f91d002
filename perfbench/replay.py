"""The replay workloads: ``aarohi predict --json`` over a seeded log.

An untraced run first has one fresh interpreter run ``predict`` on the
workload's log, for ``peak_rss_mb``.  Then, for ``--seconds``, it
interleaves two measurements, so both sample the whole window:

* a pass: one in-process ``repro.cli.main`` ``predict`` over the log;
* before every :data:`SETUP_EVERY` passes, a set-up: a fresh
  interpreter runs ``predict --json`` on an empty log (imports,
  predictor bundle, scanner load from the warmed artifact cache).

Other tenants of the machine slow it down in spells, and only ever slow
it down, so every timed metric comes from the fastest set-up and the
fastest pass of the run, scaled to the reference speed by the run's
fastest calibration (``common.calibrate``, timed after every set-up and
pass).  A batch ``predict`` has every line of its log due when it
starts and makes every prediction visible when it returns, so each
prediction's decision delay is its pass's time to result, and p50
equals p95.  Every output is checked against the reference batch run.
"""

from __future__ import annotations

import gc
import io
import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import workloads
from common import (
    Result, calibrate, count_mismatches, named_percentile, speed_scale,
    wait_child,
)

MIN_PASSES = 3  # however short the window
SETUP_EVERY = 2  # passes per fresh-interpreter set-up


def check(text: str, reference: Counter, lines_read: int):
    """``(failed operations, predictions)`` of one ``predict --json``
    output.  Each missing or differing prediction, and each line the
    ingest funnel does not account for, is one failure."""
    out = json.loads(text)
    got = Counter(
        (p["node"], p["chain"], p["flagged_at"]) for p in out["predictions"])
    ingest = out["ingest"]
    failed = count_mismatches(reference, got)
    failed += abs(ingest["lines_read"] - lines_read)
    failed += abs(
        ingest["lines_read"] - ingest["decoded"] - ingest["quarantined"])
    return failed, len(out["predictions"])


def fresh_predict(ctx, log, flags):
    """``(wall seconds, stdout, peak RSS in MiB)`` of ``aarohi predict``
    in a fresh interpreter."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli",
         *workloads.predict_argv(log, flags)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=ctx.env, cwd=ctx.root)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        code, rss = wait_child(proc, 170.0)
    wall = time.monotonic() - start
    if code != 0:
        raise RuntimeError(f"aarohi predict exited with {code}")
    return wall, out, rss


def cli_pass(argv):
    """``(stdout, wall seconds, CPU seconds)`` of one in-process pass."""
    from repro import cli

    out = io.StringIO()
    gc.collect()
    cpu = time.process_time()
    start = time.monotonic()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    wall = time.monotonic() - start
    cpu = time.process_time() - cpu
    if code != 0:
        raise RuntimeError(f"repro.cli.main exited with {code}")
    return out.getvalue(), wall, cpu


def run(ctx, workload: str, seed: int, seconds: float) -> Result:
    """An untraced replay run."""
    flags = workloads.FLAGS[workload]
    log = ctx.work / f"{workload}.log"
    empty = ctx.work / "empty.log"
    workloads.write(
        workloads.generate(workload, seed, workloads.LINES[workload]), log)
    empty.write_text("")
    reference, lines_read, fc_fraction = workloads.replay_reference(
        log, flags)
    workloads.warm_scanner_cache()

    result = Result()

    def checked(text, expected=reference, n_lines=lines_read) -> int:
        failed, n_predictions = check(text, expected, n_lines)
        result.failed += failed
        result.attempted += max(1, n_lines)
        return n_predictions

    _, out, rss = fresh_predict(ctx, log, flags)
    checked(out)
    argv = workloads.predict_argv(log, flags)
    checked(cli_pass(argv)[0])  # warm-up: in-process caches fill

    setups, walls, cpus, shown = [], [], [], []
    cals = [calibrate()]
    gc.freeze()  # the benchmark's own objects stay out of the passes' GC
    try:
        deadline = time.monotonic() + seconds
        while len(walls) < MIN_PASSES or time.monotonic() < deadline:
            if len(walls) % SETUP_EVERY == 0:
                wall, out, _ = fresh_predict(ctx, empty, flags)
                checked(out, Counter(), 0)
                setups.append(wall)
                cals.append(calibrate())
            text, wall, cpu = cli_pass(argv)
            shown.append(checked(text))
            walls.append(wall)
            cpus.append(cpu)
            cals.append(calibrate())
    finally:
        gc.unfreeze()
    scale = speed_scale(cals)
    best = walls.index(min(walls))
    delays = [walls[best] * scale * 1e3] * shown[best]
    result.metrics = {
        "setup_s": min(setups) * scale,
        "events_per_s": lines_read / (min(walls) * scale),
        "peak_rss_mb": rss,
        "cpu_us_per_event": min(cpus) * scale / lines_read * 1e6,
        "decision_delay_p50_ms": named_percentile(
            delays, 0.5, "decision delay"),
        "decision_delay_p95_ms": named_percentile(
            delays, 0.95, "decision delay"),
    }
    walls_ms = sorted(w * 1e3 for w in walls)
    result.notes = [
        f"{workload}: {lines_read} lines, {fc_fraction:.2%} FC-related, "
        f"{sum(reference.values())} reference predictions",
        f"speed: calibration {min(cals) * 1e3:.2f}-{max(cals) * 1e3:.2f} "
        f"ms in {len(cals)} tries; times below are raw, the metrics scale "
        f"them by {scale:.4f} to the reference speed",
        f"set-up: {len(setups)} fresh interpreters, "
        f"{min(setups):.3f}-{max(setups):.3f} s; fastest counts",
        f"{len(walls)} passes: {walls_ms[0]:.1f}-{walls_ms[-1]:.1f} ms, "
        f"{lines_read / walls_ms[0] * 1e3:.0f} ev/s; fastest counts",
        f"decision delay: {len(delays)} samples, the fastest pass's "
        "predictions, all shown at once when predict returns",
    ]
    return result
