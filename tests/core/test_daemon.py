"""Live-ingest daemon drills (``repro.core.daemon``).

The acceptance drill for the sharded daemon: stream a corrupted log
over TCP, ``kill -9`` a worker mid-stream, and prove the service is
*transparent* — predictions identical to a single-process
:class:`~repro.core.fleet.PredictorFleet` on the same lines (an oracle
that shares no code with the sharded path), the ingest funnel identity
intact across the takeover, the outage visible (and then resolved) on
``/healthz`` and the ``aarohi_daemon_*`` series.

Everything here is numpy-free: the bundle is the handmade two-chain
fixture from the state-handoff tests, so the drills also run on the
no-numpy CI leg.  Run just these with ``pytest -m daemon``.
"""

import gc
import io
import json
import os
import pickle
import random
import signal
import socket
import threading
import time
import urllib.request
from multiprocessing import context as mp_context
from multiprocessing import popen_spawn_posix, reduction, spawn
from multiprocessing.connection import Connection
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ChainSet, FailureChain, LogEvent
from repro.core.daemon import (
    FleetDaemon,
    _read_frames,
    _run_chunk,
    _ShardObservability,
)
from repro.core.events import Severity
from repro.core.predictor import AarohiPredictor, _LalrEngine, _MatcherEngine
from repro.obs import (
    INGEST_LINES_READ,
    LINES_SEEN,
    PREDICTIONS,
    Observability,
    ObsServer,
    Registry,
)
from repro.persistence import PredictorBundle
from repro.templates import TemplateStore

pytestmark = pytest.mark.daemon

CHAIN_TOKENS = {
    "FC1": (176, 177, 178, 179, 180, 137),
    "FC5": (172, 177, 178, 193, 137),
}
WORDS = {
    176: "alpha x", 177: "bravo x", 178: "charlie x", 179: "delta x",
    180: "echo x", 137: "foxtrot x", 172: "golf x", 193: "hotel x",
}


def make_bundle() -> PredictorBundle:
    chains = ChainSet([
        FailureChain(cid, toks) for cid, toks in CHAIN_TOKENS.items()
    ])
    store = TemplateStore()
    for pattern, severity, token in [
        ("alpha *", Severity.ERRONEOUS, 176),
        ("bravo *", Severity.UNKNOWN, 177),
        ("charlie *", Severity.UNKNOWN, 178),
        ("delta *", Severity.UNKNOWN, 179),
        ("echo *", Severity.ERRONEOUS, 180),
        ("foxtrot *", Severity.ERRONEOUS, 137),
        ("golf *", Severity.ERRONEOUS, 172),
        ("hotel *", Severity.UNKNOWN, 193),
    ]:
        store.add(pattern, severity, token=token)
    return PredictorBundle(store=store, chains=chains, timeout=120.0)


#: A pipe's buffer on Linux.  A spawn pickle larger than this blocks
#: ``Process.start()`` until the child has booted far enough to read it.
PIPE_BYTES = 64 * 1024


def make_wide_bundle() -> PredictorBundle:
    """The two-chain fixture plus a 40-phrase chain no drill line walks:
    its scanner tables outgrow a pipe's buffer, as those of ``serve``'s
    default bundle (~99 KB) do."""
    bundle = make_bundle()
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = ["".join(rng.choice(letters) for _ in range(rng.randint(4, 9)))
             for _ in range(120)]
    tokens = tuple(range(1000, 1040))
    for token in tokens:
        bundle.store.add(" ".join(rng.sample(words, 3)) + " *",
                         Severity.UNKNOWN, token=token)
    chains = ChainSet(list(bundle.chains) + [FailureChain("FC9", tokens)])
    return PredictorBundle(store=bundle.store, chains=chains, timeout=120.0)


def spawn_pickle_size(proc) -> int:
    """Bytes ``proc.start()`` writes into its child's spawn pipe: the
    preparation data, then the process object with its arguments, each
    pickled as ``multiprocessing.popen_spawn_posix`` pickles them."""
    popen = popen_spawn_posix.Popen.__new__(popen_spawn_posix.Popen)
    popen._fds = []
    buf = io.BytesIO()
    mp_context.set_spawning_popen(popen)
    try:
        reduction.dump(spawn.get_preparation_data(proc.name), buf)
        reduction.dump(proc, buf)
    finally:
        mp_context.set_spawning_popen(None)
    return buf.tell()


def make_lines(nodes, reps=2, t0=1000.0, dt=0.25):
    """Interleaved FC5 walks for every node — ``reps`` completions per
    node, so expected predictions = ``len(nodes) * reps``."""
    lines = []
    t = t0
    for _ in range(reps):
        for tok in CHAIN_TOKENS["FC5"]:
            for node in nodes:
                lines.append(
                    LogEvent(time=t, node=node, message=WORDS[tok]).to_line())
                t += dt
    return lines


def batch_predictions(bundle, lines):
    """The single-process ground truth the daemon must reproduce
    exactly: one fleet over every line, in order."""
    report = bundle.make_fleet().run_lines(
        list(lines), on_error="quarantine", timing="off")
    return pred_keys(report.predictions)


def pred_keys(predictions):
    return sorted(
        (p.node, p.chain_id, p.flagged_at, p.matched_tokens)
        for p in predictions
    )


def send_all(addr, payload: bytes, chunk=997):
    """Stream a payload in deliberately unaligned chunks, so record
    boundaries land mid-``recv`` like real socket traffic."""
    with socket.create_connection(addr) as sock:
        for i in range(0, len(payload), chunk):
            sock.sendall(payload[i:i + chunk])


def wait_lines(daemon, n, timeout=30.0):
    """Poll until the daemon has accepted ``n`` lines (socket delivery
    is asynchronous; stop() must not race the reader threads)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if daemon.status()["lines_received"] >= n:
            return True
        time.sleep(0.005)
    return False


def http_get(url, timeout=5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8", "replace")


class TestKillMinus9Drill:
    """The headline drill: TCP stream + corruption + worker murder."""

    def test_stream_equals_batch_across_takeover(self):
        bundle = make_bundle()
        nodes = [f"node{i:02d}" for i in range(8)]
        lines = make_lines(nodes, reps=2)
        # Corruption mid-stream: a truncated header and invalid UTF-8.
        lines.insert(7, "truncated line")
        raw_garbage = b"\xfe\xff garbled \x00 record"
        n_shards = 2
        # The drill's stream is deliberately dirty (2 junk lines); a
        # 10% quarantine SLO keeps that gate green so the /healthz dip
        # below isolates the *shard* outage.
        obs = Observability(quarantine_slo=0.10)
        daemon = FleetDaemon(
            bundle, n_shards=n_shards, chunk_lines=8,
            poll_interval=0.02, obs=obs,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            with ObsServer(obs) as server:
                status, body = http_get(server.url("/healthz"))
                assert status == 200, body
                assert '"daemon"' in body

                # Phase 1: every node walks 3 of FC5's 5 phrases, so
                # every shard holds mid-chain state when the axe falls.
                boundary = 3 * len(nodes) + 1  # +1: the inserted junk
                head = ("\n".join(lines[:boundary]) + "\n").encode()
                head += raw_garbage + b"\n"
                send_all(addr, head)
                assert wait_lines(daemon, boundary + 1)
                assert daemon.drain(30.0)
                before = daemon.status()
                assert before["ok"] and before["up"] == n_shards
                assert all(s > 0 for s in before["worker_start_s"])

                pid = daemon.worker_pid(0)
                os.kill(pid, signal.SIGKILL)

                # The outage must be *visible*: /healthz dips to 503
                # while the replacement boots...
                deadline = time.monotonic() + 30.0
                dipped = False
                while time.monotonic() < deadline:
                    status, body = http_get(server.url("/healthz"))
                    if status == 503:
                        dipped = True
                        break
                    time.sleep(0.005)
                assert dipped, "healthz never reported the dead shard"
                # ...and recover once the handoff completes.
                deadline = time.monotonic() + 30.0
                recovered = False
                while time.monotonic() < deadline:
                    status, body = http_get(server.url("/healthz"))
                    if status == 200:
                        recovered = True
                        break
                    time.sleep(0.01)
                assert recovered, "healthz never recovered after takeover"

                # Phase 2: the rest of the stream over a fresh
                # connection, through the replacement worker.
                send_all(addr, ("\n".join(lines[boundary:]) + "\n").encode())
                assert wait_lines(daemon, len(lines) + 1)
                report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)

        assert report.drained
        # Identical predictions: daemon-over-TCP == one fleet over the
        # same lines (replace-decoded, like the socket reader).
        expected_lines = lines[:]
        expected_lines.insert(
            boundary, raw_garbage.decode("utf-8", "replace"))
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, expected_lines)
        assert len(report.predictions) == len(nodes) * 2

        # Funnel identity holds across the takeover: every line the
        # daemon accepted was either decoded or quarantined.
        ingest = report.ingest
        assert ingest.lines_read == len(expected_lines)
        assert ingest.decoded + ingest.quarantined == ingest.lines_read
        assert ingest.quarantined == 2

        # The handoff restored in-flight chains (every phase-1 node was
        # mid-chain) and the whole episode is on the metrics plane.
        status = daemon.status()
        assert status["worker_deaths"] == 1
        assert status["handoffs"] == 1
        assert status["chains_restored"] >= 1
        text = obs.prometheus()
        assert "aarohi_daemon_worker_deaths_total 1" in text
        assert "aarohi_daemon_handoffs_total 1" in text
        assert "aarohi_daemon_shards_up 2" in text
        # Both first starts and the replacement's start are observed.
        assert "aarohi_daemon_worker_start_seconds_count 3" in text
        assert all(s > 0 for s in status["worker_start_s"])


class TestKillBetweenDeltaAcks:
    """Acks carry state deltas, so the restore point is only as good as
    the merge: a node that completed its chain between two acks must
    leave it, and a node that started one must join it."""

    def test_restore_point_follows_deltas_across_takeover(self):
        bundle = make_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=64, poll_interval=0.02,
        ).start()
        fc5 = [WORDS[tok] for tok in CHAIN_TOKENS["FC5"]]
        clock = [1000.0]

        def walk(node, words):
            out = []
            for word in words:
                clock[0] += 0.25
                out.append(LogEvent(
                    time=clock[0], node=node, message=word).to_line())
            return out

        try:
            assert daemon.wait_ready(30.0)
            a, b = [n for n in (f"node{i:02d}" for i in range(64))
                    if daemon.shard_for(n) == 0][:2]
            shard = daemon._shards[0]
            # Ack 1: A stands 4 phrases into FC5.
            phase1 = walk(a, fc5[:4])
            # Ack 2: A completes (its state leaves the restore point),
            # B starts a chain (its state joins).
            phase2 = walk(a, fc5[4:]) + walk(b, fc5[:2])
            # After the kill: A's last phrase again, which completes a
            # chain only if A's stale state was restored; then B
            # finishes and A walks a whole chain.
            phase3 = walk(a, fc5[4:]) + walk(b, fc5[2:]) + walk(a, fc5)
            for line in phase1:
                daemon.submit(line)
            assert daemon.drain(30.0)
            with daemon._lock:
                assert set(shard.last_state) == {a}
            for line in phase2:
                daemon.submit(line)
            assert daemon.drain(30.0)
            with daemon._lock:
                assert set(shard.last_state) == {b}
                assert shard.acked == 2
            os.kill(daemon.worker_pid(0), signal.SIGKILL)
            # Dispatched at once, so the chunk may reach the dead
            # worker's queue; the replacement replays it.
            for line in phase3:
                daemon.submit(line)
            daemon.flush()
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        lines = phase1 + phase2 + phase3
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert len(report.predictions) == 3
        status = daemon.status()
        assert status["handoffs"] == 1
        assert status["chains_restored"] == 1  # B alone
        ingest = report.ingest
        assert ingest.lines_read == len(lines)
        assert ingest.decoded + ingest.quarantined == ingest.lines_read


class TestSpawnHandOff:
    """A worker's spawn arguments are scalars, its work queue and its
    result pipe's write end; the bundle, the scanner tables and the
    restore point reach it first on its work queue.  So
    ``Process.start()`` never waits for a child to boot, and a
    takeover, which spawns under the daemon lock, stalls no other
    shard's ingest."""

    def test_spawn_pickle_stays_far_below_the_pipe(self):
        bundle = make_wide_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=8, poll_interval=0.02)
        assert len(pickle.dumps(daemon._tables)) > PIPE_BYTES
        ctx = daemon._ctx
        sizes = []

        def process(**kwargs):
            proc = ctx.Process(**kwargs)
            sizes.append(spawn_pickle_size(proc))
            return proc

        daemon._ctx = SimpleNamespace(Queue=ctx.Queue, Process=process)
        lines = make_lines([f"node{i:02d}" for i in range(8)], reps=2)
        daemon.start()
        try:
            assert daemon.wait_ready(30.0)
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert len(sizes) == 2
        assert max(sizes) < 8 * 1024, sizes
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert len(report.predictions) == 8 * 2

    def test_takeover_stalls_no_live_shard(self):
        """Kill shard 0's worker while a thread submits lines for shard
        1: every one of those ``submit`` calls returns in under 50 ms,
        and the stream still equals one fleet over the same lines."""
        bundle = make_wide_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=8, poll_interval=0.02,
        ).start()
        names = [f"node{i:02d}" for i in range(64)]
        dead = [n for n in names if daemon.shard_for(n) == 0][:4]
        live = [n for n in names if daemon.shard_for(n) == 1][:4]
        # Shard 0's nodes stand 3 phrases into FC5 when the axe falls.
        walk = make_lines(dead, reps=1)
        head, tail = walk[:3 * len(dead)], walk[3 * len(dead):]
        feed = make_lines(live, reps=200)
        fed = []
        durations = []
        feeding = threading.Event()
        done = threading.Event()

        def submit_live():
            for line in feed:
                if done.is_set():
                    return
                start = time.monotonic()
                daemon.submit(line)
                durations.append(time.monotonic() - start)
                fed.append(line)
                if len(fed) == 50:
                    feeding.set()
                time.sleep(0.001)

        feeder = threading.Thread(target=submit_live)
        # The test process's own heap is not the daemon's: keep it out
        # of the collector's full passes, so the times are the daemon's.
        gc.freeze()
        try:
            assert daemon.wait_ready(30.0)
            for line in head:
                daemon.submit(line)
            assert daemon.drain(30.0)
            feeder.start()
            assert feeding.wait(30.0)
            os.kill(daemon.worker_pid(0), signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while (daemon.status()["handoffs"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert daemon.wait_ready(30.0)
            time.sleep(0.05)
            done.set()
            feeder.join(30.0)
            for line in tail:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        finally:
            done.set()
            gc.unfreeze()
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert not feeder.is_alive()
        assert max(durations) < 0.05, sorted(durations)[-5:]
        status = daemon.status()
        assert status["handoffs"] == 1
        assert status["chains_restored"] == len(dead)
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, head + fed + tail)
        assert len(report.predictions) >= len(dead)


def sent_bytes(msgs) -> bytes:
    """The bytes ``Connection.send`` writes for ``msgs``, as a worker
    writes its result pipe, taken off an ``os.pipe()`` after each send
    (every frame here fits a pipe)."""
    r, w = os.pipe()
    os.set_blocking(r, False)
    conn = Connection(w, readable=False)
    wire = bytearray()
    try:
        for msg in msgs:
            conn.send(msg)
            while True:
                try:
                    wire += os.read(r, 1 << 16)
                except BlockingIOError:
                    break
    finally:
        conn.close()
        os.close(r)
    return bytes(wire)


class TestFrameReader:
    """The supervisor's one read of a ready result pipe.  The read end
    is non-blocking here, so a reader that waited for the rest of a
    frame would raise instead of hang."""

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(0, 40_000), min_size=1, max_size=5),
           data=st.data())
    def test_frames_cut_anywhere_come_out_whole_and_in_order(
            self, sizes, data):
        msgs = [("ack", i, bytes([i]) * size) for i, size in enumerate(sizes)]
        wire = sent_bytes(msgs)
        ends = []
        for msg in msgs:
            ends.append((ends[-1] if ends else 0) + len(sent_bytes([msg])))
        assert ends[-1] == len(wire)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(wire)), max_size=12)))
        r, w = os.pipe()
        os.set_blocking(r, False)
        inbox = bytearray()
        got = []
        try:
            for lo, hi in zip([0, *cuts], [*cuts, len(wire)]):
                # A write never outgrows the pipe; every read drains it.
                for at in range(lo, hi, 32 * 1024):
                    written = min(hi, at + 32 * 1024)
                    os.write(w, wire[at:written])
                    got += _read_frames(r, inbox)
                    whole = sum(1 for end in ends if end <= written)
                    assert got == msgs[:whole]
                    assert len(inbox) == written - ([0, *ends][whole])
        finally:
            os.close(r)
            os.close(w)
        assert got == msgs
        assert inbox == b""

    def test_eof_with_half_a_frame_reads_as_worker_gone(self):
        msgs = [("up", 0), ("ack", 1, b"x" * 20_000)]
        wire = sent_bytes(msgs)
        r, w = os.pipe()
        os.set_blocking(r, False)
        inbox = bytearray()
        try:
            os.write(w, wire[:-100])
            assert _read_frames(r, inbox) == msgs[:1]
            assert len(inbox) == len(wire) - 100 - len(sent_bytes(msgs[:1]))
            os.close(w)
            w = None
            assert _read_frames(r, inbox) is None
        finally:
            os.close(r)
            if w is not None:
                os.close(w)


class TestStoppedWorker:
    """One supervisor loop reads every shard's results: a worker that
    stops (SIGSTOP, with chunks pending) holds up neither the other
    shard's acks nor the tick, and its chunks run once it resumes."""

    def test_stopped_worker_blocks_no_other_shard(self):
        bundle = make_bundle()
        before = set(threading.enumerate())
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        names = [f"node{i:02d}" for i in range(64)]
        stopped = [n for n in names if daemon.shard_for(n) == 0][:4]
        live = [n for n in names if daemon.shard_for(n) == 1][:4]
        # Shard 0's nodes stand 3 phrases into FC5 when it stops.
        walk = make_lines(stopped, reps=1)
        head, tail = walk[:3 * len(stopped)], walk[3 * len(stopped):]
        feed = make_lines(live, reps=1, t0=2000.0)
        pid = None
        try:
            assert daemon.wait_ready(30.0)
            # The parent runs the supervisor and one work-queue feeder
            # per shard; no thread collects results.
            assert sorted(t.name for t in threading.enumerate()
                          if t not in before) == [
                "QueueFeederThread", "QueueFeederThread",
                "aarohi-daemon-supervisor"]
            for line in head:
                daemon.submit(line)
            assert daemon.drain(30.0)
            pid = daemon.worker_pid(0)
            os.kill(pid, signal.SIGSTOP)
            for line in tail + feed:
                daemon.submit(line)
            daemon.flush()
            deadline = time.monotonic() + 30.0
            while (len(daemon.predictions) < len(live)
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            with daemon._lock:
                assert sorted(p.node for p in daemon.predictions) == live
                assert daemon._shards[0].pending
            uptime = daemon.status()["uptime_s"]
            time.sleep(0.1)
            assert daemon.status()["uptime_s"] > uptime
            os.kill(pid, signal.SIGCONT)
            pid = None
            report = daemon.stop(drain=True)
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGCONT)
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert daemon.status()["handoffs"] == 0
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, head + tail + feed)
        assert len(report.predictions) == len(stopped) + len(live)


class TestShardChunk:
    """The worker's chunk path in process: what one chunk visits, and
    what its ack's state delta carries."""

    @staticmethod
    def shard_fleet(bundle, backend, idle=0, scan_backend="native"):
        """A fleet wired like a shard worker's, holding ``idle``
        predictors that have never seen a line."""
        obs = _ShardObservability(labels={"shard": "0"})
        fleet = bundle.make_fleet(
            obs=obs, backend=backend, scan_backend=scan_backend)
        for i in range(idle):
            fleet.predictor_for(f"idle{i:04d}")
        return fleet, obs

    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_chunk_visits_bounded_by_hits(self, monkeypatch, backend):
        """No timing: count the predictors one chunk and its ack read
        (state snapshots plus engine stats) at 64 and 6,400 idle
        predictors.  Only the chunk's FC-related hits may set it."""
        visits = []
        real_snapshot = AarohiPredictor.state_snapshot

        def counted_snapshot(predictor):
            visits.append(predictor.node)
            return real_snapshot(predictor)

        monkeypatch.setattr(AarohiPredictor, "state_snapshot",
                            counted_snapshot)
        for engine in (_MatcherEngine, _LalrEngine):
            def counted_stats(self, _real=engine.stats.fget):
                visits.append(None)
                return _real(self)

            monkeypatch.setattr(engine, "stats", property(counted_stats))
        bundle = make_bundle()
        # A 256-line chunk: two nodes walk FC5 among 246 noise lines
        # from 123 other nodes.
        lines = make_lines(["n0", "n1"], reps=1)
        lines += [LogEvent(time=2000.0 + i, node=f"chatter{i % 123}",
                           message="routine status x").to_line()
                  for i in range(256 - len(lines))]
        blob = "\n".join(lines).encode()
        counts = {}
        for idle in (64, 6400):
            fleet, obs = self.shard_fleet(bundle, backend, idle)
            visits.clear()
            _, stats, _, state = _run_chunk(fleet, blob, "quarantine")
            obs.registry.delta()  # the ack's obs delta
            assert stats.lines_tokenized == 10
            assert set(state) == {"n0", "n1"}
            assert 0 < len(visits) <= 2 * stats.lines_tokenized
            counts[idle] = len(visits)
        assert counts[6400] == counts[64]

    @pytest.mark.parametrize("scan_backend", ["str", "native"])
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_merged_deltas_equal_state_snapshot(self, backend,
                                                scan_backend):
        """Merging every ack's state delta into an empty restore point
        gives the worker fleet's full snapshot after every chunk."""
        rng = random.Random(11)
        bundle = make_bundle()
        fleet, _ = self.shard_fleet(bundle, backend, scan_backend=scan_backend)
        chains = [[WORDS[tok] for tok in toks]
                  for toks in CHAIN_TOKENS.values()]
        # Per-node scripts of whole and broken chain walks, merged in
        # random order; a rare gap past the ΔT timeout resets chains.
        scripts = {f"n{i}": [] for i in range(6)}
        for script in scripts.values():
            for _ in range(6):
                walk = rng.choice(chains)
                script.extend(walk[:rng.randint(1, len(walk))])
        lines = []
        t = 1000.0
        while any(scripts.values()):
            node = rng.choice([n for n, s in scripts.items() if s])
            t += 500.0 if rng.random() < 0.03 else 0.5
            lines.append(LogEvent(
                time=t, node=node, message=scripts[node].pop(0)).to_line())
            if rng.random() < 0.2:
                lines.append("garbled record")
        restore = {}
        idled = predicted = 0
        start = 0
        while start < len(lines):
            stop = start + rng.randint(1, 24)
            predictions, _, _, state = _run_chunk(
                fleet, "\n".join(lines[start:stop]).encode(), "quarantine")
            start = stop
            predicted += len(predictions)
            for node, node_state in state.items():
                if node_state is None:
                    idled += restore.pop(node, None) is not None
                else:
                    restore[node] = node_state
            assert restore == fleet.state_snapshot()["nodes"]
        assert predicted and idled


class TestBackpressure:
    def test_high_water_stalls_ingest_and_bounds_memory(self):
        bundle = make_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=1, chunk_lines=1, high_water_chunks=2,
            poll_interval=0.02, throttle_s=0.05,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            lines = make_lines(["node00", "node01"], reps=2)
            max_pending = 0
            for line in lines:
                daemon.submit(line)
                max_pending = max(max_pending, daemon.pending_chunks())
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        status = daemon.status()
        # The slow worker pushed back on the submitter...
        assert status["backpressure_stalls"] >= 1
        # ...and the queue never grew past the high-water mark.
        assert max_pending <= 2
        # Slow, not wrong: nothing was dropped.
        assert status["lines_received"] == len(lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)


class TestUnixSocket:
    def test_unix_stream_matches_batch(self, tmp_path):
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=1)
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            path = daemon.listen_unix(tmp_path / "aarohi.sock")
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(path)
                sock.sendall(("\n".join(lines) + "\n").encode())
            assert wait_lines(daemon, len(lines))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert not os.path.exists(path)  # cleaned up on stop

    def test_regular_file_at_path_survives(self, tmp_path):
        """A path that holds anything but a socket (a log named by
        mistake) is refused, byte for byte intact."""
        target = tmp_path / "messages"
        content = b"2024-01-01T00:00:00 n0 keep me\n" * 3
        target.write_bytes(content)
        daemon = FleetDaemon(make_bundle(), n_shards=1)
        with pytest.raises(FileExistsError):
            daemon.listen_unix(target)
        assert target.read_bytes() == content

    def test_stale_socket_is_replaced(self, tmp_path):
        """A socket left behind by a dead daemon is taken over."""
        path = tmp_path / "aarohi.sock"
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(path))
        stale.close()  # the socket file outlives its owner
        assert path.is_socket()
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(2)], reps=1)
        daemon = FleetDaemon(
            bundle, n_shards=1, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            daemon.listen_unix(path)
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(str(path))
                sock.sendall(("\n".join(lines) + "\n").encode())
            assert wait_lines(daemon, len(lines))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)


class TestTailRotation:
    def test_tail_survives_logrotate(self, tmp_path):
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=1)
        half = len(lines) // 2
        target = tmp_path / "cluster.log"
        target.write_text("\n".join(lines[:half]) + "\n")
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            daemon.tail_file(target, poll=0.02)
            deadline = time.monotonic() + 30.0
            while (daemon.status()["lines_received"] < half
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            # logrotate: rename the live file away, recreate the name.
            target.rename(tmp_path / "cluster.log.1")
            target.write_text("\n".join(lines[half:]) + "\n")
            deadline = time.monotonic() + 30.0
            while (daemon.status()["lines_received"] < len(lines)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        status = daemon.status()
        assert status["tail_rotations"] == 1
        assert status["lines_received"] == len(lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)


class TestConnectionChurn:
    def test_closed_connections_leave_no_trace(self):
        """Many short-lived senders: each closed connection's socket and
        reader thread leave the daemon's books, and every line they
        carried is still predicted on."""
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(8)], reps=2)
        n_conns = 20
        per_conn = len(lines) // n_conns
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            for start in range(0, len(lines), per_conn):
                send_all(addr, (
                    "\n".join(lines[start:start + per_conn]) + "\n"
                ).encode())
                # One sender at a time keeps the stream in order.
                assert wait_lines(daemon, start + per_conn)
            deadline = time.monotonic() + 30.0
            while (daemon.status()["connections"]
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            assert daemon.status()["connections"] == 0
            with daemon._lock:
                assert daemon._conns == []
                assert daemon._conn_threads == []
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert f"aarohi_daemon_connections_total {n_conns}" in (
            daemon.obs.prometheus())
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert len(report.predictions) == 8 * 2


class TestSubmitBeforeReady:
    def test_chunks_dispatched_while_booting_still_run(self):
        """Lines submitted before the workers report up are chunked
        into shards that are still booting; they must reach the workers
        once they are up, in order, without waiting for later
        traffic."""
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=2)
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
        ).start()
        try:
            for line in lines:
                daemon.submit(line)
            assert not daemon.status()["ok"]  # still booting
            assert daemon.drain(30.0)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert report.drained
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert len(report.predictions) == 4 * 2


class TestReorderRepair:
    def test_connection_sort_buffer_repairs_skew(self):
        bundle = make_bundle()
        lines = make_lines([f"n{i}" for i in range(4)], reps=1, dt=1.0)
        # Adjacent-swap skew: displacement of one record (1 s), well
        # inside the 10 s horizon.
        skewed = lines[:]
        for i in range(0, len(skewed) - 1, 2):
            skewed[i], skewed[i + 1] = skewed[i + 1], skewed[i]
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            send_all(addr, ("\n".join(skewed) + "\n").encode())
            assert wait_lines(daemon, len(skewed))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        # The buffer restored time order, so predictions match a batch
        # run over the *clean* stream — and the repairs were counted.
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert report.ingest.reordered > 0

    @staticmethod
    def node_skew():
        """Two nodes' chain walks with each node's lines swapped
        pairwise (the nodes alternate, so i and i + 2 are one node's):
        a 2 s displacement that breaks every chain unless a buffer
        repairs it."""
        lines = make_lines(["n0", "n1"], reps=2, dt=1.0)
        skewed = lines[:]
        for i in range(0, len(skewed) - 2, 4):
            skewed[i], skewed[i + 2] = skewed[i + 2], skewed[i]
        return lines, skewed

    @pytest.mark.parametrize("poison", ["1e12 n0 x", "nan n0 x", "inf n0 x"])
    def test_quarantined_line_bypasses_sort_buffer(self, poison):
        # A line the workers' decoder quarantines (a bare epoch float is
        # no ISO-8601 stamp) must not move the connection's reorder
        # watermarks: were its time taken, every later line would ship
        # unsorted or count as late.
        bundle = make_bundle()
        lines, skewed = self.node_skew()
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            addr = daemon.listen_tcp()
            send_all(addr, ("\n".join([poison] + skewed) + "\n").encode())
            assert wait_lines(daemon, len(skewed) + 1)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert report.ingest.late == 0
        assert report.ingest.quarantined == 1

    @pytest.mark.parametrize("transport", ["tcp", "unix"])
    def test_stop_flushes_an_open_connection(self, tmp_path, transport):
        # A forwarder that never hangs up: stop() ends the connection's
        # read side, which wakes its blocked reader, so the lines still
        # inside the horizon reach the workers, and it does not wait
        # for the sender's own EOF.
        bundle = make_bundle()
        lines = make_lines(["n0", "n1", "n2"], reps=2, dt=1.0)
        assert len(lines) == 30
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            if transport == "tcp":
                sock = socket.create_connection(daemon.listen_tcp())
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(daemon.listen_unix(tmp_path / "aarohi.sock"))
            with sock:
                sock.sendall(("\n".join(lines) + "\n").encode())
                # The last 10 s of lines wait in the connection's buffer.
                assert wait_lines(daemon, 20)
                start = time.monotonic()
                report = daemon.stop(drain=True, timeout=10.0)
                elapsed = time.monotonic() - start
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert daemon.status()["lines_received"] == 30
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert len(report.predictions) == 6
        assert report.drained
        assert elapsed < 5.0

    def test_tailed_file_sort_buffer_repairs_skew(self, tmp_path):
        # A tailed file frames through the same reader as a connection,
        # horizon included.
        bundle = make_bundle()
        lines, skewed = self.node_skew()
        target = tmp_path / "cluster.log"
        target.write_text("\n".join(skewed) + "\n")
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            daemon.tail_file(target, poll=0.02)
            # One read takes the whole file; the lines still inside the
            # horizon wait for stop(), which flushes the buffer.
            assert wait_lines(daemon, 1)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert daemon.status()["lines_received"] == len(lines)
        assert pred_keys(report.predictions) == batch_predictions(
            bundle, lines)
        assert report.ingest.reordered > 0
        assert report.ingest.late == 0


class TestDaemonValidation:
    def test_rejects_bad_configuration(self):
        bundle = make_bundle()
        with pytest.raises(ValueError, match="shard"):
            FleetDaemon(bundle, n_shards=0)
        with pytest.raises(ValueError, match="high_water"):
            FleetDaemon(bundle, high_water_chunks=0)
        with pytest.raises(ValueError, match="on_error"):
            FleetDaemon(bundle, on_error="explode")

    def test_status_is_json_serializable(self):
        bundle = make_bundle()
        daemon = FleetDaemon(bundle, n_shards=1, poll_interval=0.02).start()
        try:
            assert daemon.wait_ready(30.0)
            payload = json.dumps(daemon.status())
            assert '"ok": true' in payload
        finally:
            daemon.stop(drain=False)


class TestIngestSeries:
    def test_parent_ingest_series_count_once(self):
        """Workers run ``run_lines``, which records an ingest funnel;
        the parent folds each ack's funnel itself, so no shard-labelled
        ``aarohi_ingest_*`` copy may reach its registry."""
        bundle = make_bundle()
        obs = Observability(quarantine_slo=0.5)
        lines = make_lines([f"n{i}" for i in range(6)], reps=2)
        lines.insert(5, "junk")
        daemon = FleetDaemon(
            bundle, n_shards=2, scan_backend="native", chunk_lines=8,
            poll_interval=0.02, obs=obs,
        ).start()
        try:
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        snap = obs.registry.snapshot()
        shards = {e["labels"].get("shard")
                  for e in snap[LINES_SEEN]["series"]}
        assert shards == {"0", "1"}  # both workers ran chunks
        families = [name for name in snap if name.startswith("aarohi_ingest_")]
        assert INGEST_LINES_READ in families
        for name in families:
            assert [e["labels"] for e in snap[name]["series"]] == [{}], name
        (read,) = snap[INGEST_LINES_READ]["series"]
        assert read["value"] == report.ingest.lines_read == len(lines)
        assert report.ingest.quarantined == 1


class TestMergePerAck:
    def test_merge_override_sees_each_ack_once(self):
        """Benchmarks subclass ``Registry`` and override ``merge`` to
        stamp when a shard's predictions land: the parent must call it
        exactly once per ack, and the shard's ``aarohi_predictions_total``
        must count the ack's predictions when the call returns."""
        seen = []

        class Stamped(Registry):
            def merge(self, snapshot):
                super().merge(snapshot)
                # No assert here: this runs on the supervisor thread.
                (shard, *others) = {entry["labels"]["shard"]
                                    for family in snapshot.values()
                                    for entry in family["series"]}
                landed = sum(
                    1 for p in list(daemon.predictions)
                    if daemon.shard_for(p.node) == int(shard))
                total = self.counter(PREDICTIONS, shard=shard).value
                seen.append((shard if not others else None, total, landed))

        bundle = make_bundle()
        nodes = [f"n{i}" for i in range(8)]
        lines = make_lines(nodes, reps=3)
        daemon = FleetDaemon(
            bundle, n_shards=2, scan_backend="native", chunk_lines=4,
            poll_interval=0.02, obs=Observability(registry=Stamped()),
        ).start()
        try:
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert len(report.predictions) == len(nodes) * 3
        acks = {str(shard.index): shard.acked for shard in daemon._shards}
        assert {label: sum(1 for s, _, _ in seen if s == label)
                for label in acks} == acks
        assert all(total == landed for _, total, landed in seen), seen
        assert sum(max(t for s, t, _ in seen if s == label)
                   for label in acks) == len(report.predictions)


class TestSubmitPerLine:
    """Benchmarks time ``aarohi serve`` by replacing the instance's
    ``submit``, so every source must call it once per accepted line: a
    CRLF line once, stripped of its CR, and a blank line not at all.
    A tail never reaches EOF, so under a horizon its last line is one
    stamped past it, which releases every line before it."""

    @pytest.mark.parametrize("horizon", [0.0, 10.0])
    def test_tcp_and_tail_call_submit_once_per_line(self, tmp_path, horizon):
        bundle = make_bundle()
        lines = make_lines(["n0", "n1", "n2"], reps=1)
        wire = [line + "\n" for line in lines]
        wire[0] = lines[0] + "\r\n"
        wire.insert(4, "\n")
        payload = "".join(wire).encode()
        release = LogEvent(
            time=1000.0 + horizon + 60.0, node="n0",
            message=WORDS[176]).to_line()
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=horizon,
        ).start()
        seen = []
        inner = daemon.submit

        def counting_submit(line):
            seen.append(line)
            inner(line)

        daemon.submit = counting_submit
        try:
            assert daemon.wait_ready(30.0)
            send_all(daemon.listen_tcp(), payload)
            assert wait_lines(daemon, len(lines))
            target = tmp_path / "cluster.log"
            target.write_bytes(payload + (release + "\n").encode())
            daemon.tail_file(target, poll=0.02)
            assert wait_lines(daemon, 2 * len(lines))
            report = daemon.stop(drain=True)
        finally:
            if not daemon._stopped:
                daemon.stop(drain=False)
        assert seen == lines + lines + [release]
        assert daemon.status()["lines_received"] == len(seen)
        assert report.ingest.lines_read == len(seen)
