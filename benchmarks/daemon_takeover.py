"""Time a ``serve`` daemon's set-up and its kill -9 takeover, in process.

The daemon is a default 2-shard :class:`~repro.core.daemon.FleetDaemon`
over ``aarohi serve``'s own bundle (``cli._trained_bundle``), built in
this process so each step is timed where it runs.

* **set-up**: construct, ``start()`` (the shards are spawned) and
  ``wait_ready`` (every shard has reported up), per trial;
* **takeover**: a sender subprocess streams simulator lines (HPC3, the
  serve_paced shape) over TCP at 20k lines/s; 2 s in, shard 0's worker
  gets SIGKILL.  Reported per trial: kill -> replacement spawned (its
  ``Process.start()`` has returned), kill -> replacement up, the
  longest ``submit`` of the run and whether the predictions equal one
  single-process fleet over the same lines.

Each trial prints one JSON line::

    PYTHONPATH=src python benchmarks/daemon_takeover.py --trials 6

The timings are printed, not gated; the exit status is 1 when any
takeover trial's predictions are not exact.  Needs numpy (the streamed
lines come from the simulator).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

#: The serve_paced traffic shape: a chain completion every ~370 lines.
SHAPE = dict(n_nodes=64, n_failures=32, duration=3600.0,
             benign_rate_hz=0.0434)
RATE = 20_000.0
KILL_AFTER_S = 2.0

#: Open-loop paced sender: line i goes out at t0 + i / rate.
SENDER = """
import socket, sys, time
path, port, rate = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
with open(path, "rb") as fh:
    lines = [line + b"\\n" for line in fh.read().split(b"\\n") if line]
with socket.create_connection(("127.0.0.1", port)) as sock:
    t0 = time.monotonic()
    sent = 0
    while sent < len(lines):
        due = min(len(lines), int((time.monotonic() - t0) * rate) + 1)
        if due > sent:
            sock.sendall(b"".join(lines[sent:due]))
            sent = due
        time.sleep(0.001)
"""


def serve_bundle():
    """``aarohi serve``'s default bundle."""
    from repro.cli import _trained_bundle, build_parser

    return _trained_bundle(build_parser().parse_args(["serve"]))


def make_daemon(bundle):
    """The daemon as ``aarohi serve`` builds it by default."""
    from repro.core.daemon import FleetDaemon
    from repro.obs import HistoryRing, Observability, RuleEngine, daemon_ruleset

    obs = Observability(history=HistoryRing(),
                        rules=RuleEngine(daemon_ruleset()))
    return FleetDaemon(bundle, n_shards=2, obs=obs)


def paced_lines(seed: int, n: int):
    from repro.logsim import HPC3, ClusterLogGenerator

    gen = ClusterLogGenerator(HPC3, seed=seed)
    events = []
    start = 1_600_000_000.0
    while len(events) < n:
        events.extend(gen.generate_window(start_time=start, **SHAPE).events)
        start += SHAPE["duration"]
    return [event.to_line() for event in events[:n]]


def setup_trial(bundle) -> dict:
    built = time.monotonic()
    daemon = make_daemon(bundle)
    started = time.monotonic()
    daemon.start()
    spawned = time.monotonic()
    ready = daemon.wait_ready(60.0)
    up = time.monotonic()
    daemon.stop(drain=False)
    return {"setup_ms": round((up - built) * 1e3, 1),
            "start_ms": round((spawned - started) * 1e3, 1),
            "wait_ready_ms": round((up - spawned) * 1e3, 1), "ready": ready}


def takeover_trial(bundle, log: str, expected) -> dict:
    daemon = make_daemon(bundle)
    daemon.start()
    daemon.wait_ready(60.0)
    port = daemon.listen_tcp()[1]
    submits = []
    spawned = []

    def timed_submit(line, inner=daemon.submit):
        start = time.monotonic()
        inner(line)
        submits.append(time.monotonic() - start)

    def timed_spawn(shard, init_state, inner=daemon._spawn_worker):
        inner(shard, init_state)
        spawned.append(time.monotonic())

    daemon.submit = timed_submit
    daemon._spawn_worker = timed_spawn
    sender = subprocess.Popen(
        [sys.executable, "-c", SENDER, log, str(port), str(RATE)])
    time.sleep(KILL_AFTER_S)
    killed = time.monotonic()
    os.kill(daemon.worker_pid(0), signal.SIGKILL)
    sender.wait()
    time.sleep(0.3)
    report = daemon.stop(drain=True)
    shard = daemon._shards[0]
    keys = sorted((p.node, p.chain_id, p.flagged_at, p.matched_tokens)
                  for p in report.predictions)
    return {
        "spawned_ms": round((spawned[0] - killed) * 1e3, 2),
        "up_ms": round((shard.spawned_at + shard.start_s - killed) * 1e3, 1),
        "longest_submit_ms": round(max(submits) * 1e3, 2),
        "lines": report.ingest.lines_read,
        "exact": keys == expected,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=6)
    parser.add_argument("--seed", type=int, default=1,
                        help="simulator seed of the streamed lines")
    args = parser.parse_args(argv)
    bundle = serve_bundle()
    for _ in range(args.trials):
        print(json.dumps({"setup": setup_trial(bundle)}), flush=True)
    lines = paced_lines(args.seed, int(RATE * (KILL_AFTER_S + 2.0)))
    expected = sorted(
        (p.node, p.chain_id, p.flagged_at, p.matched_tokens)
        for p in bundle.make_fleet().run_lines(
            lines, on_error="quarantine", timing="off").predictions)
    # This script's own data is not the daemon's: keep it out of the
    # collector's full passes, so a pause is the daemon's.
    gc.collect()
    gc.freeze()
    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "paced.log")
        with open(log, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
        exact = True
        for _ in range(args.trials):
            trial = takeover_trial(bundle, log, expected)
            exact = exact and trial["exact"]
            print(json.dumps({"takeover": trial}), flush=True)
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
