"""The ``serve_paced`` workload, and the paced daemon phase every traced
run shares.

Three processes take part, so each one's cost is measured apart:

* the driver (this module, imported by ``run.py``) generates the lines,
  computes the reference predictions and holds the benchmark's data;
* the *host* (``serve.py host CONFIG``) builds a ``FleetDaemon`` the
  way ``aarohi serve`` builds it from its parser's defaults (2 shards,
  history ring and daemon rules armed); it and its shards are the
  program under test;
* the *sender* (``serve.py send LOG LINES``) is the open-loop load
  generator: one TCP connection, and a fixed-rate schedule that never
  waits for the daemon.

A prediction is visible once the acked chunk carrying it has folded
into the daemon's Observability registry; the host stamps that moment
per shard.  The driver maps each reference prediction to its
chain-completing line and that line's shard.  The decision delay runs
from the line's *due* time on the schedule to the stamp, so a sender
held up by the daemon still counts against the delay.

The measured window is cut into :data:`WINDOWS` equal windows; the host
samples every process's CPU time at each cut.  Other tenants of the
machine slow it down in spells, so ``cpu_us_per_event`` is the median
over the windows.  Unlike the replay runs, this one reports raw times:
a calibration cannot run beside the daemon without disturbing it, and
ones taken before and after the daemon's life tracked its speed worse
than no scaling at all.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import time
from pathlib import Path

import workloads
from common import (
    Result, beyond, due_time, end_group, lines_due, median,
    named_percentile, pid_alive, proc_cpu_seconds, proc_peak_rss_mb,
    visible_times,
)

HERE = Path(__file__).resolve().parent

#: Offered load, lines/s: a 100k-node cluster at 0.2 lines/s per node.
RATE = 20_000.0
#: The first second warms the shards' memos; no metric uses it.
WARMUP_S = 1.0
#: Extra daemon set-ups before and again after the paced phase; setup_s
#: is the fastest of them and the measured daemon's.
SETUP_TRIALS = 3
#: The sender wakes at least this often and sends every due line.
TICK_S = 0.001
#: The schedule starts this long after both roles are ready.
LEAD_S = 0.3
#: CPU-sampling windows in the measured part of the schedule.
WINDOWS = 10


def phase_lines(seconds: float) -> int:
    """Lines sent by a phase that measures ``seconds``."""
    return int(RATE * (WARMUP_S + seconds))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# -- driver side --------------------------------------------------------

class _Role:
    """A role subprocess in its own process group, spoken to in JSON
    lines on its stdin and stdout."""

    def __init__(self, ctx, args, stderr):
        self.name = args[0]
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
            text=True, env=ctx.env, cwd=ctx.root, start_new_session=True)

    def read(self, timeout: float):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"the {self.name} role gave no answer")
        return json.loads(line)

    def say(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()

    def finish(self, ok: bool) -> None:
        """Wait for the role (killing it after a failure), then for
        every process it started."""
        proc = self.proc
        if not ok:
            proc.kill()
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        end_group(proc.pid)


def run(ctx, seed: int, seconds: float) -> Result:
    """An untraced ``serve_paced`` run."""
    lines = workloads.generate(
        "serve_paced", seed, n_lines=phase_lines(seconds))
    raw = [line.encode("utf-8") for line in lines]
    del lines
    workloads.warm_scanner_cache()
    phase = paced_phase(ctx, raw, seconds)
    result = Result()
    result.attempted = phase["attempted"]
    result.failed = phase["failed"]
    result.metrics = {
        key: phase[key] for key in (
            "setup_s", "events_per_s", "peak_rss_mb", "cpu_us_per_event",
            "decision_delay_p50_ms", "decision_delay_p95_ms")}
    result.notes = phase["notes"]
    return result


def window_cuts(n_send: int, windows: int = WINDOWS):
    """Line indices cutting the measured part of an ``n_send``-line
    schedule (after the warm-up) into ``windows`` equal windows."""
    warm = int(RATE * WARMUP_S)
    if n_send - warm < windows:
        raise RuntimeError(f"{n_send} lines leave nothing to measure")
    return [warm + (n_send - warm) * k // windows
            for k in range(windows + 1)]


def paced_phase(ctx, raw_lines, seconds: float, traced: bool = False,
                spans=None) -> dict:
    """Feed ``raw_lines`` (bytes without newline) to a default serve
    daemon at :data:`RATE`, hold it to the reference, and measure it.

    The first :data:`WARMUP_S` of the schedule is not measured.  Traced,
    the measured part's first half of the windows stays untraced and
    the host times the daemon's public calls in the second half; the
    per-layer values come back under ``"layers"``."""
    n_send = min(len(raw_lines), phase_lines(seconds))
    cuts = window_cuts(n_send)
    mid = cuts[WINDOWS // 2]
    lines = raw_lines[:n_send]
    preds, offered, quarantined = workloads.stream_reference(lines)
    completing = {}
    if traced:
        for idx, _ in preds:
            if idx >= mid:
                text = lines[idx].rstrip(b"\r").decode("utf-8", "replace")
                completing[text] = idx
    send_log = ctx.work / "send.log"
    send_log.write_bytes(b"".join(line + b"\n" for line in lines))
    config = ctx.work / "host.json"
    config.write_text(json.dumps({
        "traced": traced, "completing": completing,
        "trace_from": WINDOWS // 2 if traced else None,
        "nodes": sorted({node for _, node in preds}),
    }))
    host_err = ctx.work / "host.err"
    roles = []
    ok = False
    try:
        with open(host_err, "wb") as err:
            sender = _Role(ctx, ["send", str(send_log), str(n_send)],
                           subprocess.DEVNULL)
            roles.append(sender)
            if sender.read(60.0) != "ready":
                raise RuntimeError("the sender did not get ready")
            host = _Role(ctx, ["host", str(config)], err)
            roles.append(host)
        hello = host.read(150.0)
        t0 = time.monotonic() + LEAD_S
        host.say({"marks": [due_time(t0, i, RATE) for i in cuts]})
        sender.say({"port": hello["port"], "t0": t0})
        sent = sender.read(seconds + WARMUP_S + 60.0)
        host.say({"sender": "done"})
        out = host.read(120.0)
        ok = True
    except Exception as exc:
        tail = (host_err.read_text(errors="replace")[-3000:]
                if host_err.exists() else "")
        raise RuntimeError(f"paced phase failed: {exc}\n{tail}") from exc
    finally:
        for role in roles:
            role.finish(ok)
    return _measure(out, sent, hello["shard_of"], preds, offered,
                    quarantined, t0, cuts, traced, spans)


def _measure(out, sent, shard_of, preds, offered, quarantined, t0, cuts,
             traced, spans) -> dict:
    """Hold the daemon to the reference and turn the host's stamps into
    metrics."""
    warm, mid, n_send = cuts[0], cuts[WINDOWS // 2], cuts[-1]
    per_shard = out["per_shard"]
    by_shard = [[] for _ in per_shard]
    for idx, node in preds:
        by_shard[shard_of[node]].append(idx)
    visible = visible_times(out["stamps"], [len(ix) for ix in by_shard])
    # Stream == batch per shard, nothing visible before its line was
    # due, and every offered line accounted for by the ingest funnel.
    failed = sum(abs(int(count) - len(ix))
                 for (count, _), ix in zip(per_shard, by_shard))
    seen = {}
    for ix, row in zip(by_shard, visible):
        for idx, t in zip(ix, row):
            if t is None:
                continue  # missing: counted by the shard total above
            if t < due_time(t0, idx, RATE):
                failed += 1
            else:
                seen[idx] = t
    ingest = out["ingest"]
    failed += abs(ingest["lines_read"] - offered)
    failed += abs(ingest["quarantined"] - quarantined)
    failed += abs(
        ingest["lines_read"] - ingest["decoded"] - ingest["quarantined"])
    failed += n_send - sent["sent"]
    if not (out["drained"] and out["reaped"]):
        raise RuntimeError(
            "the daemon did not drain, or left shard processes behind")

    def cpu_us_per_line(a: int, b: int) -> float:
        """Daemon CPU (parent and shards) per line due between cuts."""
        x, y = snaps[a], snaps[b]
        cpu = (y[1] - x[1]) + sum(y[2]) - sum(x[2])
        return cpu / (cuts[b] - cuts[a]) * 1e6

    snaps = out["snaps"]
    setups = out["setups"]
    setup_s = [ready - start for start, _, ready in setups]
    phase = {
        "attempted": offered,
        "failed": failed,
        "notes": [
            f"sender: {sent['sent']} lines at {RATE:g} lines/s open loop "
            f"in {sent['batches']} sends, at most "
            f"{sent['lag_max_ms']:.2f} ms behind schedule (median "
            f"{sent['lag_p50_ms']:.3f} ms)",
            f"daemon: {len(setups)} set-ups, {min(setup_s):.3f}-"
            f"{max(setup_s):.3f} s; {len(preds)} reference predictions "
            f"over {offered} lines",
        ],
    }
    if not traced:
        delays = [(t - due_time(t0, i, RATE)) * 1e3
                  for i, t in seen.items() if i >= warm]
        windows = [cpu_us_per_line(k, k + 1) for k in range(WINDOWS)]
        phase.update({
            "setup_s": min(setup_s),
            "events_per_s": ((snaps[-1][3] - snaps[0][3])
                             / (snaps[-1][0] - snaps[0][0])),
            "peak_rss_mb": out["rss_mb"],
            "cpu_us_per_event": median(windows),
            "decision_delay_p50_ms": named_percentile(
                delays, 0.5, "decision delay"),
            "decision_delay_p95_ms": named_percentile(
                delays, 0.95, "decision delay"),
        })
        phase["notes"] += [
            f"cpu: {WINDOWS} windows of {(cuts[1] - warm) / RATE:.2f} s, "
            f"{min(windows):.2f}-{max(windows):.2f} us per line, median "
            "counts; set-up: fastest counts",
            f"decision delay: {len(delays)} samples from lines due in the "
            f"measured window; {beyond(delays, 0.5)} beyond p50, "
            f"{beyond(delays, 0.95)} beyond p95",
        ]
        return phase
    a, m, b = snaps[0], snaps[WINDOWS // 2], snaps[WINDOWS]
    n_traced = n_send - mid
    marks = {int(i): v for i, v in out["submit_marks"].items()}
    read = [(t_in - due_time(t0, i, RATE)) * 1e3
            for i, (t_in, _) in marks.items()]
    ship = [(seen[i] - t_out) * 1e3
            for i, (_, t_out) in marks.items() if i in seen]
    lines_seen = [count for _, count in per_shard]
    merges, ticks = out["merge_spans"], out["tick_spans"]
    submit_s, submit_calls = out["submit"]
    phase["layers"] = {
        "setup.workers_ready_ms": min(
            ready - built for _, built, ready in setups) * 1e3,
        "daemon.submit_us_per_line": submit_s / submit_calls * 1e6,
        "daemon.parent_cpu_us_per_line": (b[1] - m[1]) / n_traced * 1e6,
        "daemon.shard_cpu_us_per_line": (
            (sum(b[2]) - sum(m[2])) / n_traced * 1e6),
        "daemon.lines_per_chunk": (b[3] - a[3]) / (b[4] - a[4]),
        "daemon.read_ms_p50": named_percentile(read, 0.5, "read delay"),
        "daemon.ship_ms_p50": named_percentile(ship, 0.5, "ship delay"),
        "daemon.backpressure_stalls": out["status"]["backpressure_stalls"],
        "daemon.shard_skew": (
            max(lines_seen) * len(lines_seen) / sum(lines_seen)),
        "obs.merge_us_per_chunk": (
            sum(e - s for s, e in merges) / len(merges) * 1e6),
        "obs.tick_ms": sum(e - s for s, e in ticks) / len(ticks) * 1e3,
        "loadgen.lag_max_ms": sent["lag_max_ms"],
        "trace.daemon_overhead_pct": (
            median(cpu_us_per_line(k, k + 1)
                   for k in range(WINDOWS // 2, WINDOWS))
            / median(cpu_us_per_line(k, k + 1)
                     for k in range(WINDOWS // 2)) - 1.0) * 100.0,
    }
    for start, built, ready in setups:
        root = spans.add("daemon.setup", start, ready)
        spans.add("daemon.construct", start, built, root)
        spans.add("daemon.workers_ready", built, ready, root)
    for i, (t_in, t_out) in sorted(marks.items()):
        if i in seen:
            due = due_time(t0, i, RATE)
            root = spans.add("line", due, seen[i])
            spans.add("daemon.read", due, t_in, root)
            spans.add("daemon.submit", t_in, t_out, root)
            spans.add("daemon.ship", t_out, seen[i], root)
    for start, stop in merges:
        spans.add("obs.merge", start, stop)
    for start, stop in ticks:
        spans.add("obs.tick", start, stop)
    return phase


# -- roles --------------------------------------------------------------

def host_main(config_path: str) -> int:
    """The program under test: a default ``serve`` daemon in its own
    process, answering the driver with one JSON line per step."""
    with open(config_path, encoding="utf-8") as fh:
        config = json.load(fh)
    from repro.core.daemon import FleetDaemon
    from repro.obs import (
        LINES_SEEN, PREDICTIONS, HistoryRing, Observability, Registry,
        RuleEngine, daemon_ruleset,
    )
    from repro.persistence import PredictorBundle

    args, gen = workloads.cli_bundle(["serve"])
    bundle = PredictorBundle(
        store=gen.store, chains=gen.chains,
        timeout=gen.recommended_timeout, system=args.system)
    labels = [str(k) for k in range(args.shards)]
    clock = time.monotonic

    class StampedRegistry(Registry):
        """Stamps the moment each ack's predictions become visible, and
        times every merge once ``timed`` is set."""

        def __init__(self):
            super().__init__()
            self.stamps = []
            self.merges = 0
            self.timed = False
            self.merge_spans = []
            self._seen = [0.0] * len(labels)

        def merge(self, snapshot) -> None:
            start = clock()
            super().merge(snapshot)
            now = clock()
            self.merges += 1
            if self.timed:
                self.merge_spans.append((start, now))
            for k, label in enumerate(labels):
                total = self.counter(PREDICTIONS, shard=label).value
                if total != self._seen[k]:
                    self._seen[k] = total
                    self.stamps.append((now, k, total))

    class TimedObservability(Observability):
        """Times each supervisor tick's history capture and rules pass
        once ``timed`` is set."""

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.timed = False
            self.tick_spans = []

        def record_history(self, now=None, *, force=False):
            if not self.timed:
                return super().record_history(now, force=force)
            start = clock()
            captured = super().record_history(now, force=force)
            self.tick_spans.append((start, clock()))
            return captured

    def build():
        obs = TimedObservability(
            registry=StampedRegistry(), history=HistoryRing(),
            rules=RuleEngine(daemon_ruleset()))
        start = clock()
        daemon = FleetDaemon(
            bundle, n_shards=args.shards, on_error=args.on_error,
            scan_backend=args.scan_backend, chunk_lines=args.chunk_lines,
            high_water_chunks=args.high_water,
            reorder_horizon=args.reorder_horizon, obs=obs)
        built = clock()
        daemon.start()
        if not daemon.wait_ready(60.0):
            daemon.stop(drain=False)
            raise RuntimeError("the daemon's workers did not come up")
        return daemon, (start, built, clock())

    def stop(daemon):
        """Drain and stop; ``(drained, every shard process gone)``."""
        pids = [daemon.worker_pid(k) for k in range(args.shards)]
        drained = daemon.stop(drain=True).drained
        return drained, not any(pid_alive(pid) for pid in pids)

    setups = []
    reaped = True

    def trials():
        nonlocal reaped
        for _ in range(SETUP_TRIALS):
            daemon, stamps = build()
            setups.append(stamps)
            reaped &= stop(daemon)[1]

    trials()
    daemon, stamps = build()
    setups.append(stamps)
    obs = daemon.obs
    registry = obs.registry
    port = daemon.listen_tcp("127.0.0.1", 0)[1]
    pids = [daemon.worker_pid(k) for k in range(args.shards)]
    _emit({"port": port, "shard_of": {
        node: daemon.shard_for(node) for node in config["nodes"]}})

    completing = config["completing"]
    submit = [0.0, 0]
    submit_marks = {}

    def timed_submit(line, inner=daemon.submit):
        start = clock()
        inner(line)
        end = clock()
        submit[0] += end - start
        submit[1] += 1
        idx = completing.get(line)
        if idx is not None:
            submit_marks[idx] = (start, end)

    snaps = []
    for i, mark in enumerate(json.loads(sys.stdin.readline())["marks"]):
        time.sleep(max(0.0, mark - clock()))
        snaps.append([clock(), time.process_time(),
                      [proc_cpu_seconds(pid) for pid in pids],
                      obs.ingest.lines_read, registry.merges])
        if i == config["trace_from"]:
            registry.timed = obs.timed = True
            daemon.submit = timed_submit
    sys.stdin.readline()  # the sender has sent every line
    rss = proc_peak_rss_mb(os.getpid()) + sum(
        proc_peak_rss_mb(pid) for pid in pids)
    drained, gone = stop(daemon)
    trials()  # set-ups on both sides of the phase see more of the run
    _emit({
        "setups": setups, "snaps": snaps, "stamps": registry.stamps,
        "per_shard": [
            [registry.counter(PREDICTIONS, shard=label).value,
             registry.counter(LINES_SEEN, shard=label).value]
            for label in labels],
        "ingest": obs.ingest.as_dict(), "status": daemon.status(),
        "rss_mb": rss, "drained": drained, "reaped": reaped and gone,
        "submit": submit, "submit_marks": submit_marks,
        "merge_spans": registry.merge_spans, "tick_spans": obs.tick_spans,
    })
    return 0


def sender_main(log: str, n_lines: str) -> int:
    """Open-loop load generator: line i goes out at t0 + i/RATE whatever
    the daemon does; every send records how far behind schedule it ran."""
    n = int(n_lines)
    with open(log, "rb") as fh:
        lines = [line + b"\n" for line in fh.read().split(b"\n")[:n]]
    _emit("ready")
    go = json.loads(sys.stdin.readline())
    t0 = go["t0"]
    clock = time.monotonic
    lags = []
    sent = 0
    with socket.create_connection(("127.0.0.1", go["port"])) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while sent < n:
            now = clock()
            due = lines_due(t0, now, RATE, n)
            if due > sent:
                lags.append(now - due_time(t0, sent, RATE))
                sock.sendall(b"".join(lines[sent:due]))
                sent = due
            wake = max(due_time(t0, sent, RATE), now + TICK_S)
            time.sleep(max(0.0, wake - clock()))
    lags.sort()
    _emit({"sent": sent, "batches": len(lags),
           "lag_max_ms": lags[-1] * 1e3,
           "lag_p50_ms": lags[len(lags) // 2] * 1e3})
    return 0


def main(argv) -> int:
    role, *rest = argv
    if role == "host":
        return host_main(*rest)
    if role == "send":
        return sender_main(*rest)
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
