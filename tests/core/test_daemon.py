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

import json
import os
import random
import signal
import socket
import time
import urllib.request

import pytest

from repro.core import ChainSet, FailureChain, LogEvent
from repro.core.daemon import FleetDaemon, _run_chunk, _ShardObservability
from repro.core.events import Severity
from repro.core.predictor import AarohiPredictor, _LalrEngine, _MatcherEngine
from repro.obs import (
    INGEST_LINES_READ,
    LINES_SEEN,
    Observability,
    ObsServer,
    diff_snapshots,
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
            diff_snapshots(obs.registry.snapshot(), None)  # the ack's delta
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

    def test_stop_flushes_an_open_connection(self):
        # A forwarder that never hangs up: stop() ends the connection's
        # read side, so the lines still inside the horizon reach the
        # workers, and it does not wait for the sender's own EOF.
        bundle = make_bundle()
        lines = make_lines(["n0", "n1", "n2"], reps=2, dt=1.0)
        assert len(lines) == 30
        daemon = FleetDaemon(
            bundle, n_shards=2, chunk_lines=4, poll_interval=0.02,
            reorder_horizon=10.0,
        ).start()
        try:
            assert daemon.wait_ready(30.0)
            with socket.create_connection(daemon.listen_tcp()) as sock:
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
