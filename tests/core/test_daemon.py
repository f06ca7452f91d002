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
import signal
import socket
import time
import urllib.request

import pytest

from repro.core import ChainSet, FailureChain, LogEvent
from repro.core.daemon import FleetDaemon
from repro.core.events import Severity
from repro.obs import Observability, ObsServer
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


class TestBackpressure:
    def test_high_water_stalls_ingest_and_bounds_memory(self):
        bundle = make_bundle()
        daemon = FleetDaemon(
            bundle, n_shards=1, chunk_lines=1, window=1,
            high_water_chunks=2, poll_interval=0.02, throttle_s=0.05,
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


class TestDaemonValidation:
    def test_rejects_bad_configuration(self):
        bundle = make_bundle()
        with pytest.raises(ValueError, match="shard"):
            FleetDaemon(bundle, n_shards=0)
        with pytest.raises(ValueError, match="high_water"):
            FleetDaemon(bundle, window=8, high_water_chunks=2)
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
