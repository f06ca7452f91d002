"""Persistent sharded live-ingest daemon (``aarohi serve``).

The daemon is the deployment shape the paper's HSS aggregation point
actually has: a long-running service that *receives* a cluster's log
traffic.  It accepts newline-delimited records over TCP and
unix-socket connections (one syslog forwarder per connection), tails
rotating files, routes every line to a worker shard by consistent node
hash, and keeps predicting across worker death.  It is the only
sharded executor: per-node predictor state is independent (§III: one
instance per node), so hashing nodes onto shards is all the
parallelism prediction needs, and at 10⁵-node scale that is what turns
the placement-model CPU budget (:mod:`repro.logsim.placement`) into
real speedup past the GIL.

The drills in ``tests/core/test_daemon.py`` assert that a TCP-streamed
run produces predictions identical to a single-process
:class:`~repro.core.fleet.PredictorFleet` over the same lines — an
oracle that shares no code with the sharded path.  The pieces:

* **routing** — :func:`route_key` peels the node field off a line
  without decoding it, and :func:`shard_of` hashes it (CRC-32), so a
  node's lines always reach the same shard in arrival order;
* **workers** — each shard process (:func:`_daemon_worker_main`)
  rebuilds the fleet from the bundle and the parent's compiled scanner
  tables, which reach it first on its work queue, then runs every
  chunk through :func:`_run_chunk` — one tolerant ``run_lines`` call,
  the fused C pass on ``native`` — and ships per-chunk
  ``IngestStats`` + shard-labeled obs registry deltas with every
  result;
* **sources** — each connection and each tailed file is a generator
  of byte chunks, framed into records by
  :func:`~repro.logsim.stream.frame_records`, the one record reader
  every Python path that reads log bytes shares;
* **reorder repair** — with a positive horizon, each source frames
  through its own :class:`~repro.logsim.stream.SortBuffer` over the
  record timestamps (each forwarder is near-sorted on its own; the
  merged stream is not, which is exactly the buffer's contract);
* **service plane** — the daemon publishes ``aarohi_daemon_*`` series
  into an :class:`~repro.obs.Observability` and mounts its health and
  expvar blocks through ``add_health_hook``/``add_debug_provider``, so
  the existing :class:`~repro.obs.ObsServer` serves ``/metrics``,
  ``/healthz``, ``/alerts`` and ``/debug/*`` unchanged.

Exactly-once under ``kill -9`` (the handoff protocol):

1. The parent keeps every dispatched chunk in a per-shard *pending*
   map until the worker acks it.  An ack carries the chunk's
   predictions, stats, ingest funnel, obs delta — and a state delta:
   the chain state of each node the chunk fed, ``None`` for one now
   idle.  Merged into the shard's restore point, it keeps that equal
   to the worker's state after its last acked chunk.
2. Chunks are submitted at-least-once, results applied exactly-once:
   the supervisor is the only reader of every worker's result pipe,
   and a replaced worker's pipe is closed unread, because its unacked
   chunks will be replayed by the replacement.
3. On worker death — seen at once on the process sentinel — the
   supervisor closes the dead worker's result pipe, spawns a
   replacement seeded with the **last acked** state snapshot, and
   re-dispatches the pending chunks in sequence order.  The replayed
   stream continues from precisely the state the acked prefix left
   behind, so predictions — and the ingest funnel identity
   ``decoded + quarantined == lines_read`` — are preserved across the
   takeover.

Backpressure is bounded by construction: each chunk goes on its
shard's worker queue as it is made, and a shard holds at most
``high_water_chunks`` unacked; past the high-water mark
:meth:`FleetDaemon.submit` *stalls the ingest thread* (counted in
``aarohi_daemon_backpressure_stalls_total``), which slows the socket
reads and lets TCP flow control push back on the sender — memory never
grows without bound.

Workers are spawn-context processes, so a script that starts a daemon
needs an ``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import errno
import multiprocessing as mp
import os
import pickle
import socket
import stat
import struct
import threading
import time as _time
import zlib
from multiprocessing.connection import Pipe, wait
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from ..logsim.stream import ERROR_POLICIES, IngestStats, frame_records
from ..obs import (
    DAEMON_BACKPRESSURE_STALLS,
    DAEMON_CHAINS_RESTORED,
    DAEMON_CONNECTIONS_ACTIVE,
    DAEMON_CONNECTIONS_TOTAL,
    DAEMON_HANDOFFS,
    DAEMON_LINES_RECEIVED,
    DAEMON_QUEUE_CHUNKS,
    DAEMON_SHARDS,
    DAEMON_SHARDS_DOWN,
    DAEMON_SHARDS_UP,
    DAEMON_TAIL_ROTATIONS,
    DAEMON_UPTIME_SECONDS,
    DAEMON_WORKER_DEATHS,
    DAEMON_WORKER_START_SECONDS,
    Observability,
    SpanClock,
)
from .events import Prediction
from .predictor import PredictorStats


def shard_of(node: str, n_shards: int) -> int:
    """Stable node→shard assignment: CRC-32 of the UTF-8 node id, the
    same unsigned value on every platform and Python build."""
    return zlib.crc32(node.encode()) % n_shards


def route_key(line: str) -> str:
    """The shard-routing key of one serialized line: the header's node
    field when the line splits, else the whole line (so a malformed
    line always lands on — and is quarantined by — the same worker)."""
    parts = line.split(" ", 2)
    return parts[1] if len(parts) == 3 else line


# The service plane's series, bound once on the daemon's facade.
_DAEMON_SERIES = (
    ("gauge", DAEMON_UPTIME_SECONDS, "seconds since daemon start"),
    ("gauge", DAEMON_SHARDS, "configured worker shards"),
    ("gauge", DAEMON_SHARDS_UP, "worker shards currently serving"),
    ("gauge", DAEMON_SHARDS_DOWN, "worker shards lost, takeover pending"),
    ("gauge", DAEMON_QUEUE_CHUNKS, "chunks pending across shards"),
    ("gauge", DAEMON_CONNECTIONS_ACTIVE, "open ingest connections"),
    ("counter", DAEMON_CONNECTIONS_TOTAL, "ingest connections accepted"),
    ("counter", DAEMON_LINES_RECEIVED, "lines accepted by the daemon"),
    ("counter", DAEMON_BACKPRESSURE_STALLS,
     "ingest stalls at the backpressure high-water mark"),
    ("counter", DAEMON_WORKER_DEATHS, "worker processes lost"),
    ("counter", DAEMON_HANDOFFS, "shard takeovers (state handoffs)"),
    ("counter", DAEMON_CHAINS_RESTORED,
     "per-node chain states restored on takeover"),
    ("counter", DAEMON_TAIL_ROTATIONS, "tailed-file rotations detected"),
)
_WORKER_START_SERIES = (
    ("histogram", DAEMON_WORKER_START_SECONDS,
     "shard worker spawn to up, first starts and takeovers"),
)


class _ShardObservability(Observability):
    """A worker's shard-labelled facade.  It records no ingest funnel:
    the parent folds each ack's ``IngestStats`` into its unlabelled
    ``aarohi_ingest_*`` series, so a labelled copy would count twice."""

    def record_ingest(self, delta) -> None:
        pass


def _run_chunk(
    fleet, blob: bytes, on_error: str
) -> Tuple[List[tuple], PredictorStats, IngestStats, Dict[str, Optional[dict]]]:
    """Run one chunk (the newline-joined wire blob) through a shard's
    fleet: one tolerant ``run_lines`` call with no clock reads — the
    fused C pass on ``native``, byte ingest then decode on ``str``.  A
    malformed line is quarantined into the chunk's funnel instead of
    taking the shard's predictor state down.  Predictions come back as
    plain tuples for the trip through the result pipe, with the state
    delta: the chain state of each node the chunk fed, ``None`` for one
    now idle."""
    report = fleet.run_lines(blob, on_error=on_error, timing="off")
    predictions = [
        (p.node, p.chain_id, p.flagged_at, p.prediction_time,
         p.matched_tokens)
        for p in report.predictions
    ]
    state = {node: predictor.state_snapshot()
             for node, predictor in report.touched.items()}
    return predictions, report.stats, report.ingest, state


def _daemon_worker_main(
    shard: int,
    work_q,
    results,
    timeout: Optional[float],
    on_error: str,
    scan_backend: str,
    spans_sample: float,
    throttle_s: float,
) -> None:
    """One shard process: build the shard's fleet, then run chunks
    until the ``None`` sentinel.

    The spawn arguments are scalars, the work queue and the write end
    of the shard's result pipe, so the parent's ``Process.start()``
    never waits for this process to boot.  The first work item is
    ``(bundle dict, scanner tables, restore point or None)``; the
    scanner is rebuilt from those tables (no regex compilation here,
    just kernel specialization).  The fleet reports into a
    process-local registry whose ``shard`` label keeps per-shard series
    distinct after the parent-side merge; a positive ``spans_sample``
    arms a span clock whose cumulative stage counters ride the same
    deltas.  The one thread sends "up", then an ack per chunk with the
    registry delta since the previous ack and the chunk's state delta,
    which keeps the parent's restore point at the last acked chunk.

    ``throttle_s`` is a drill knob (sleep per chunk) used by the
    backpressure tests to make a worker predictably slow; production
    paths leave it 0.
    """
    from ..persistence import PredictorBundle, scanner_from_artifact
    from ..templates.store import CountingTemplateScanner

    bundle_dict, scanner_tables, init_state = work_q.get()
    obs = _ShardObservability(
        labels={"shard": str(shard)},
        spans=SpanClock(spans_sample) if spans_sample > 0.0 else None,
    )
    scanner = CountingTemplateScanner(
        scanner_from_artifact(scanner_tables), backend=scan_backend)
    fleet = PredictorBundle.from_dict(bundle_dict).make_fleet(
        timeout=timeout, obs=obs, scanner=scanner)
    restored = fleet.restore_state(init_state) if init_state is not None else 0
    results.send(("up", restored))
    while True:
        item = work_q.get()
        if item is None:
            return
        seq, payload = item
        if throttle_s > 0.0:
            _time.sleep(throttle_s)
        predictions, stats, ingest, state = _run_chunk(
            fleet, payload, on_error)
        # Registries are cumulative; ship only the series this chunk
        # changed, so the parent-side merge never double-counts earlier
        # chunks.  A new worker's first delta ships every series, which
        # republishes a replaced shard's gauges.
        results.send(("ack", seq, predictions, stats, obs.registry.delta(),
                      ingest, state))


def _read_frames(fd: int, inbox: bytearray) -> Optional[List[tuple]]:
    """One ``os.read`` of a worker's result pipe into ``inbox``, then
    the messages of its whole frames, in order; ``None`` at EOF (the
    worker is gone, and a half frame with it).  A frame is what
    ``Connection.send`` writes: a ``!i`` length, then the pickle, in two
    writes past 16 KiB.  A partial frame waits in ``inbox``: the call
    never blocks for the rest, so a worker stopped mid-message holds up
    no other shard."""
    data = os.read(fd, 1 << 16)
    if not data:
        return None
    inbox += data
    msgs, start = [], 0
    while len(inbox) >= start + 4:
        end = start + 4 + struct.unpack_from("!i", inbox, start)[0]
        if end > len(inbox):
            break
        msgs.append(pickle.loads(inbox[start + 4:end]))
        start = end
    del inbox[:start]
    return msgs


class _Shard:
    """Parent-side bookkeeping for one worker shard."""

    __slots__ = (
        "index", "proc", "work_q", "results", "inbox", "pending",
        "next_seq", "up", "was_up", "last_state", "acked", "spawned_at",
        "start_s",
    )

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.work_q = None
        # The result pipe's read end; the part of a frame read so far.
        self.results = None
        self.inbox = bytearray()
        # seq → blob, insertion (== sequence) ordered; chunks leave
        # only on ack, so this is the at-least-once replay buffer.
        self.pending: Dict[int, bytes] = {}
        self.next_seq = 0
        self.up = False
        # "down" means *lost* — a shard that has reported up and whose
        # worker then died.  A still-booting shard is neither up nor
        # down, so the shard-down page never fires on a clean start.
        self.was_up = False
        # The restore point: node → chain state as of the last acked
        # chunk, mid-chain nodes only (acks merge their state deltas).
        self.last_state: Dict[str, dict] = {}
        self.acked = 0
        # Spawn → "up" of the last worker to report up: after a
        # takeover, lines routed here wait at least this long.
        self.spawned_at = 0.0
        self.start_s: Optional[float] = None


class DaemonReport(NamedTuple):
    """Final accounting returned by :meth:`FleetDaemon.stop`."""

    predictions: List[Prediction]
    stats: PredictorStats
    ingest: IngestStats
    drained: bool


class FleetDaemon:
    """Long-running sharded ingest service over a predictor bundle.

    Lifecycle: construct → :meth:`start` → attach sources
    (:meth:`listen_tcp` / :meth:`listen_unix` / :meth:`tail_file`, or
    programmatic :meth:`submit`) → :meth:`stop`.  Mount the HTTP plane
    by handing :attr:`obs` to :class:`~repro.obs.ObsServer` — the
    daemon's health block and expvars are already registered on it.
    """

    def __init__(
        self,
        bundle,
        *,
        n_shards: int = 2,
        on_error: str = "quarantine",
        scan_backend: str = "native",
        timeout: Optional[float] = None,
        chunk_lines: int = 256,
        high_water_chunks: int = 32,
        reorder_horizon: float = 0.0,
        obs: Optional[Observability] = None,
        poll_interval: float = 0.1,
        spans_sample: float = 0.0,
        throttle_s: float = 0.0,
    ):
        from ..codegen import resolve_backend
        from ..persistence import compile_scanner_cached, scanner_artifact

        if n_shards < 1:
            raise ValueError("need at least one shard")
        if chunk_lines < 1:
            raise ValueError("need at least one line per chunk")
        if high_water_chunks < 1:
            raise ValueError("high_water_chunks must be >= 1")
        if on_error not in ERROR_POLICIES:
            raise ValueError(
                f"on_error must be one of {ERROR_POLICIES}, got {on_error!r}")
        if reorder_horizon < 0:
            raise ValueError("reorder horizon must be non-negative")
        self.n_shards = n_shards
        self.on_error = on_error
        self.chunk_lines = chunk_lines
        self.high_water = high_water_chunks
        self.reorder_horizon = reorder_horizon
        self.poll_interval = poll_interval
        self.spans_sample = spans_sample
        self.throttle_s = throttle_s
        self.timeout = timeout if timeout is not None else bundle.timeout
        self.obs = obs if obs is not None else Observability()
        # Parent-resolved backend (native degrades here, once) so
        # every worker, replacements included, compiles the same kernel
        # family.
        self.scan_backend = resolve_backend(scan_backend)
        self._bundle_dict = bundle.to_dict()
        # One scanner compile (or cache hit) in the parent; workers —
        # including every post-takeover replacement — reconstruct from
        # the finished tables.
        spec = bundle.store.lex_spec(keep=bundle.chains.token_set)
        compiled = compile_scanner_cached(spec, backend=self.scan_backend)
        self._tables = scanner_artifact(compiled, backend=self.scan_backend)
        self._ctx = mp.get_context("spawn")

        self._lock = threading.RLock()
        # Notified on each "up", each ack and in ``stop()``: what
        # ``wait_ready``, ``drain`` and a stalled ``submit`` wait on.
        self._progress = threading.Condition(self._lock)
        self._shards = [_Shard(i) for i in range(n_shards)]
        self._buffers: List[List[str]] = [[] for _ in range(n_shards)]
        self.predictions: List[Prediction] = []
        self.stats = PredictorStats()
        self.ingest = IngestStats()
        # Service-plane counters (published as aarohi_daemon_* series).
        self._lines_received = 0
        self._stalls = 0
        self._deaths = 0
        self._handoffs = 0
        self._chains_restored = 0
        self._rotations = 0
        self._connections_active = 0
        self._connections_total = 0
        self._started_at: Optional[float] = None
        self._accepting = False
        self._stopping = False
        self._stopped = False
        self._supervisor: Optional[threading.Thread] = None
        self._tcp_servers: List[socket.socket] = []
        self._unix_paths: List[str] = []
        self._source_threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        # Reference-swapped status snapshot: the health hook and debug
        # provider read it without taking the daemon lock (they run
        # under the obs facade lock; taking ours there would invert
        # lock order against every obs call site below).
        self._status: dict = {"ok": False, "shards": n_shards, "up": 0}

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "FleetDaemon":
        with self._lock:
            if self._started_at is not None:
                raise RuntimeError("daemon already started")
            self._started_at = _time.monotonic()
            self._accepting = True
            for shard in self._shards:
                self._spawn_worker(shard, init_state=None)
        self.obs.add_health_hook("daemon", lambda: self._status)
        self.obs.add_debug_provider("daemon", self.status)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="aarohi-daemon-supervisor",
            daemon=True)
        self._supervisor.start()
        self._publish_metrics()
        return self

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Block until every shard's worker has reported up."""
        with self._progress:
            return self._progress.wait_for(
                lambda: all(s.up for s in self._shards), timeout)

    def _spawn_worker(self, shard: _Shard, init_state: Optional[dict]) -> None:
        """(Re)spawn one shard worker; caller holds the lock.

        The spawn pickle carries scalars, the work queue and a fresh
        result pipe's write end (the parent's copy closed once the
        child holds it), so ``start()`` returns without waiting for the
        child to boot: the shards boot side by side, and a takeover
        holds the lock for a fork, not a boot.  The bundle, the scanner
        tables (~100 KB for ``serve``'s default bundle, more than a pipe
        holds) and the restore point go first on the work queue, whose
        feeder thread writes them as the child reads them."""
        shard.up = False
        shard.spawned_at = _time.monotonic()
        shard.work_q = self._ctx.Queue()
        shard.results, results = Pipe(duplex=False)
        shard.inbox = bytearray()
        shard.proc = self._ctx.Process(
            target=_daemon_worker_main,
            args=(shard.index, shard.work_q, results, self.timeout,
                  self.on_error, self.scan_backend, self.spans_sample,
                  self.throttle_s),
            daemon=True,
            name=f"aarohi-shard-{shard.index}",
        )
        shard.proc.start()
        results.close()
        shard.work_q.put((self._bundle_dict, self._tables, init_state))
        # Replay the unacked suffix in order.
        for item in shard.pending.items():
            shard.work_q.put(item)

    # -- ingest ---------------------------------------------------------
    def submit(self, line: str) -> None:
        """Route one serialized line to its shard (the programmatic
        ingest path; the socket and tail sources all land here).
        Blocks while the target shard is over its backpressure
        high-water mark, until an ack (or ``stop()``) wakes it."""
        stalled = False
        shard_idx = shard_of(route_key(line), self.n_shards)
        with self._progress:
            shard = self._shards[shard_idx]
            while len(shard.pending) >= self.high_water and not self._stopping:
                if not stalled:
                    stalled = True
                    self._stalls += 1
                self._progress.wait()
            if self._stopping:
                return
            buf = self._buffers[shard_idx]
            buf.append(line)
            self._lines_received += 1
            if len(buf) >= self.chunk_lines:
                self._dispatch(shard_idx)
        if stalled:
            self._publish_metrics()

    def flush(self) -> None:
        """Dispatch every partially-filled shard buffer."""
        with self._lock:
            for shard_idx in range(self.n_shards):
                if self._buffers[shard_idx]:
                    self._dispatch(shard_idx)

    def _dispatch(self, shard_idx: int) -> None:
        """Turn the shard's line buffer into a pending chunk; caller
        holds the lock.  The wire form on every backend is one
        newline-joined UTF-8 blob — a single bytes pickle, which the
        worker's ``run_lines`` splits and header-checks itself."""
        shard = self._shards[shard_idx]
        payload = "\n".join(self._buffers[shard_idx]).encode(
            "utf-8", "replace")
        self._buffers[shard_idx] = []
        shard.pending[shard.next_seq] = payload
        # Queue whether or not the worker has reported up: a booting
        # worker reads its queue once ready.
        shard.work_q.put((shard.next_seq, payload))
        shard.next_seq += 1

    # -- results and supervision ----------------------------------------
    def _handle_msg(self, shard: _Shard, msg: tuple) -> None:
        kind = msg[0]
        obs = self.obs
        with self._lock:
            if kind == "up":
                shard.up = shard.was_up = True
                start_s = shard.start_s = _time.monotonic() - shard.spawned_at
                self._chains_restored += msg[1]
                self._refresh_status()
            else:
                (_, seq, predictions, stats, obs_delta, chunk_ingest,
                 state) = msg
                shard.pending.pop(seq, None)
                restore = shard.last_state
                for node, node_state in state.items():
                    if node_state is None:
                        restore.pop(node, None)
                    else:
                        restore[node] = node_state
                shard.acked += 1
                self.predictions.extend(
                    Prediction(node=n, chain_id=c, flagged_at=f,
                               prediction_time=p, matched_tokens=tuple(m))
                    for (n, c, f, p, m) in predictions
                )
                self.stats.add(stats)
                self.ingest.add(chunk_ingest)
            self._progress.notify_all()
        # Obs fold-in strictly after the daemon lock is released (the
        # facade lock nests obs→status-read, never obs→daemon-lock).
        if kind == "up":
            with obs.lock:
                start_seconds, = obs.bound(
                    "worker_start", _WORKER_START_SERIES)
                start_seconds.observe(start_s)
            self._publish_metrics()
            return
        # One facade-locked block per chunk, so a scrape or a rule
        # capture never sees the registry, the funnel and the ring
        # disagree about which chunks have landed.
        with obs.lock:
            obs.registry.merge(obs_delta)
            if chunk_ingest.lines_read:
                obs.record_ingest(chunk_ingest)
            if obs.flight is not None:
                obs.flight.note(
                    "chunk_done", shard=shard.index, chunk=seq,
                    predictions=len(predictions),
                    quarantined=chunk_ingest.quarantined or None)

    def _supervise_loop(self) -> None:
        """The daemon's one waiter and the only reader of the result
        pipes: it applies each ready pipe's whole frames (closing the
        pipe at EOF), takes a worker over as its sentinel fires, and on
        the ``poll_interval`` tick flushes partial buffers (so a trickle
        below ``chunk_lines`` still reaches the workers), publishes
        metrics and captures history."""
        tick = _time.monotonic()
        while True:
            with self._lock:
                if self._stopped:
                    for shard in self._shards:
                        shard.results.close()
                    return
                pipes = {s.results: s for s in self._shards
                         if not s.results.closed}
                # Workers exit on purpose while stopping.
                sentinels = ({} if self._stopping else
                             {s.proc.sentinel: s for s in self._shards})
            if _time.monotonic() >= tick:
                tick = _time.monotonic() + self.poll_interval
                self.flush()
                self._publish_metrics()
                self.obs.record_history()
            ready = wait([*pipes, *sentinels],
                         max(0.0, tick - _time.monotonic()))
            # Pipes first: what a dead worker acked before it died
            # still moves its restore point.
            for shard in (pipes[conn] for conn in ready if conn in pipes):
                msgs = _read_frames(shard.results.fileno(), shard.inbox)
                if msgs is None:
                    shard.results.close()
                for msg in msgs or ():
                    self._handle_msg(shard, msg)
            for sentinel in ready:
                if sentinel in sentinels:
                    with self._lock:
                        if not self._stopping:
                            self._takeover(sentinels[sentinel])

    def _takeover(self, shard: _Shard) -> None:
        """Replace a dead worker; caller holds the lock.

        Its result pipe is closed unread; the replacement inherits the
        restore point (the state as of the last applied ack) and
        replays the pending chunks — the exactly-once story documented
        in the module docstring."""
        self._deaths += 1
        self._handoffs += 1
        shard.results.close()
        old_work = shard.work_q
        try:
            # The dead worker may have left the queue mid-write; never
            # wait on its feeder thread.
            old_work.close()
            old_work.cancel_join_thread()
        except (OSError, ValueError):
            pass
        # A copy: the queue pickles it later, on its feeder thread.
        self._spawn_worker(shard, init_state={"nodes": dict(shard.last_state)})
        self._refresh_status()

    # -- status / metrics ----------------------------------------------
    def status(self) -> dict:
        """Point-in-time service state (the ``/debug/vars`` block)."""
        return dict(self._status)

    def _refresh_status(self) -> None:
        """Rebuild the lock-free status snapshot; caller holds the
        lock."""
        up = sum(1 for s in self._shards if s.up)
        down = sum(1 for s in self._shards if s.was_up and not s.up)
        pending = sum(len(s.pending) for s in self._shards)
        self._status = {
            "ok": up == self.n_shards,
            "shards": self.n_shards,
            "up": up,
            "down": down,
            "pending_chunks": pending,
            "connections": self._connections_active,
            "lines_received": self._lines_received,
            "worker_deaths": self._deaths,
            "handoffs": self._handoffs,
            "chains_restored": self._chains_restored,
            "backpressure_stalls": self._stalls,
            "tail_rotations": self._rotations,
            "worker_start_s": [
                None if s.start_s is None else round(s.start_s, 4)
                for s in self._shards],
            "uptime_s": (
                round(_time.monotonic() - self._started_at, 3)
                if self._started_at is not None else 0.0),
        }

    def _publish_metrics(self) -> None:
        with self._lock:
            self._refresh_status()
            snap = self._status
        obs = self.obs
        with obs.lock:
            (uptime, shards, up, down, queue_chunks, connections_active,
             connections_total, lines_received, stalls, deaths, handoffs,
             chains_restored, rotations) = obs.bound(
                 "daemon", _DAEMON_SERIES)
            uptime.set(snap["uptime_s"])
            shards.set(snap["shards"])
            up.set(snap["up"])
            down.set(snap["down"])
            queue_chunks.set(snap["pending_chunks"])
            connections_active.set(snap["connections"])
            connections_total.set_total(self._connections_total)
            lines_received.set_total(snap["lines_received"])
            stalls.set_total(snap["backpressure_stalls"])
            deaths.set_total(snap["worker_deaths"])
            handoffs.set_total(snap["handoffs"])
            chains_restored.set_total(snap["chains_restored"])
            rotations.set_total(snap["tail_rotations"])

    # -- sources --------------------------------------------------------
    def listen_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Accept line-protocol connections; returns the bound
        ``(host, port)`` (``port=0`` binds ephemerally)."""
        server = socket.create_server((host, port))
        server.settimeout(0.5)
        self._tcp_servers.append(server)
        bound = server.getsockname()[:2]
        thread = threading.Thread(
            target=self._accept_loop, args=(server,),
            name=f"aarohi-accept-{bound[1]}", daemon=True)
        thread.start()
        self._source_threads.append(thread)
        return bound

    def listen_unix(self, path) -> str:
        """Accept line-protocol connections on a unix socket.

        A socket already at ``path`` (left by a daemon that died) is
        replaced; anything else there raises :class:`FileExistsError`
        and is left untouched.
        """
        path = str(path)
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            pass
        else:
            if not stat.S_ISSOCK(mode):
                raise FileExistsError(
                    errno.EEXIST, "exists and is not a socket", path)
            os.unlink(path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen()
        server.settimeout(0.5)
        self._tcp_servers.append(server)
        self._unix_paths.append(path)
        thread = threading.Thread(
            target=self._accept_loop, args=(server,),
            name="aarohi-accept-unix", daemon=True)
        thread.start()
        self._source_threads.append(thread)
        return path

    def _accept_loop(self, server: socket.socket) -> None:
        while True:
            with self._lock:
                if not self._accepting:
                    break
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                if not self._accepting:
                    conn.close()
                    break
                self._connections_active += 1
                self._connections_total += 1
                self._conns.append(conn)
                thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    name="aarohi-conn", daemon=True)
                self._conn_threads.append(thread)
            self._publish_metrics()
            thread.start()
        try:
            server.close()
        except OSError:
            pass

    def _serve_connection(self, conn: socket.socket) -> None:
        """Ingest one connection until EOF (or ``stop()``), then take
        it off the daemon's books."""
        try:
            self._ingest(self._recv_chunks(conn))
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._connections_active -= 1
                # A closed connection leaves no trace behind: stop()
                # only ever has to close and join live ones.
                self._conns.remove(conn)
                self._conn_threads.remove(threading.current_thread())
            self._publish_metrics()

    def _recv_chunks(self, conn: socket.socket) -> Iterator[bytes]:
        """A connection's bytes as they arrive, until EOF or a socket
        error; ``stop()`` shuts the read side, which a blocked ``recv``
        reads as EOF."""
        while True:
            try:
                data = conn.recv(65536)
            except OSError:
                return
            if not data:
                return
            yield data

    def _ingest(self, chunks: Iterable[bytes]) -> None:
        """Submit every record framed from one source's byte chunks.

        Bytes decode with ``errors="replace"`` — the same treatment
        tolerant file ingest gives invalid UTF-8 — so mojibake reaches
        the workers as quarantinable text instead of killing the
        source.  With a positive ``reorder_horizon`` each source frames
        through its own sort buffer: one forwarder's stream is
        near-sorted on its own clock, which is exactly the bounded
        displacement the buffer repairs.  ``self.submit`` is looked up
        for every record, because a benchmark host replaces it on a
        running daemon."""
        stats = IngestStats()
        for record in frame_records(chunks, self.reorder_horizon, stats):
            self.submit(record.decode("utf-8", "replace"))
        with self._lock:
            # Reorder accounting only; the decode counters come from
            # the workers.
            self.ingest.reordered += stats.reordered
            self.ingest.late += stats.late

    def tail_file(self, path, poll: float = 0.1) -> None:
        """Follow ``path`` like ``tail -F``: read appended lines, and
        when the inode under the name changes (logrotate's
        rename-and-recreate) or the file shrinks (copytruncate),
        finish the old stream and reopen — counted in
        ``aarohi_daemon_tail_rotations_total``."""
        path = str(Path(path))
        thread = threading.Thread(
            target=self._ingest, args=(self._tail_chunks(path, poll),),
            name=f"aarohi-tail-{os.path.basename(path)}", daemon=True)
        thread.start()
        self._source_threads.append(thread)

    def _tail_chunks(self, path: str, poll: float) -> Iterator[bytes]:
        """A followed file's bytes as they are appended, until
        ``stop()``.  A rotation yields one newline, which ends the old
        file's unterminated last record where that file ends."""
        fh = None
        inode = None
        try:
            while True:
                with self._lock:
                    # ``stop()`` clears the accepting flag before it
                    # joins source threads; the read after the loop
                    # catches anything appended since the last poll.
                    if not self._accepting:
                        break
                if fh is None:
                    try:
                        fh = open(path, "rb")
                        inode = os.fstat(fh.fileno()).st_ino
                    except FileNotFoundError:
                        _time.sleep(poll)
                        continue
                data = fh.read()
                if data:
                    yield data
                    continue
                rotated = False
                try:
                    st = os.stat(path)
                    if st.st_ino != inode:
                        rotated = True  # rename-and-recreate
                    elif st.st_size < fh.tell():
                        rotated = True  # copytruncate
                except FileNotFoundError:
                    rotated = True
                if rotated:
                    yield b"\n"
                    fh.close()
                    fh = None
                    with self._lock:
                        self._rotations += 1
                    self._publish_metrics()
                    continue
                _time.sleep(poll)
            if fh is not None:
                yield fh.read()
        finally:
            if fh is not None:
                fh.close()

    # -- drain / stop ---------------------------------------------------
    def pending_chunks(self) -> int:
        with self._lock:
            return (sum(len(s.pending) for s in self._shards)
                    + sum(1 for b in self._buffers if b))

    def drain(self, timeout: float = 60.0) -> bool:
        """Flush buffers and block until every dispatched chunk has
        been acked (surviving worker takeovers along the way)."""
        self.flush()
        with self._progress:
            return self._progress.wait_for(
                lambda: self.pending_chunks() == 0, timeout)

    def stop(self, drain: bool = True, timeout: float = 60.0) -> DaemonReport:
        """Graceful shutdown: close sources, optionally drain, retire
        workers, and return the final accounting (predictions sorted by
        flag time).

        Each open connection's read side is shut, so its reader takes
        what the kernel already holds, reaches EOF and flushes its
        reorder buffer through :meth:`submit`; bytes a sender has not
        sent by then are not ingested.  Only after the one drain does
        ``submit`` start refusing lines.  ``drain=False`` refuses them
        at once."""
        deadline = _time.monotonic() + timeout
        with self._progress:
            self._accepting = False
            self._stopping = not drain
            self._progress.notify_all()
        for server in self._tcp_servers:
            try:
                server.close()
            except OSError:
                pass
        for thread in self._source_threads:
            thread.join(timeout=5.0)
        with self._lock:
            conns = list(self._conns)
            conn_threads = list(self._conn_threads)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for thread in conn_threads:
            thread.join(timeout=max(0.0, deadline - _time.monotonic()))
        drained = (self.drain(max(0.0, deadline - _time.monotonic()))
                   if drain else True)
        with self._progress:
            self._stopping = True
            self._progress.notify_all()
            for shard in self._shards:
                if shard.proc is not None and shard.proc.is_alive():
                    try:
                        shard.work_q.put(None)
                    except (OSError, ValueError):
                        pass
        for shard in self._shards:
            if shard.proc is not None:
                shard.proc.join(timeout=5.0)
                if shard.proc.is_alive():
                    shard.proc.terminate()
                    shard.proc.join(timeout=5.0)
        with self._lock:
            self._stopped = True
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        for path in self._unix_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._publish_metrics()
        with self._lock:
            self.predictions.sort(key=lambda p: p.flagged_at)
            return DaemonReport(
                predictions=list(self.predictions),
                stats=self.stats,
                ingest=self.ingest,
                drained=drained,
            )

    def __enter__(self) -> "FleetDaemon":
        return self

    def __exit__(self, *exc) -> None:
        if not self._stopped:
            self.stop()

    # -- introspection for drills ---------------------------------------
    def worker_pid(self, shard: int) -> Optional[int]:
        """The shard's current worker pid (the drill's kill target)."""
        with self._lock:
            proc = self._shards[shard].proc
            return proc.pid if proc is not None else None

    def shard_for(self, node: str) -> int:
        """Which shard serves ``node`` — drills use this to aim a
        partial chain at the worker they are about to kill."""
        return shard_of(node, self.n_shards)
