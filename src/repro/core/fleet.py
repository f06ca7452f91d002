"""Per-node predictor fleet.

"For each node in the cluster, we dedicate a predictor instance that
processes messages of that node only" (§III, Fig. 2).  The fleet routes
a merged cluster log stream to per-node predictor instances — the
deployment shape of the HSS-side aggregation point (Fig. 16) — and
collects predictions.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields
from operator import add, attrgetter, sub
from typing import Callable, Dict, Iterable, List, Literal, Optional

from ..obs import Observability
from ..obs.spans import (
    STAGE_DECODE,
    STAGE_EMIT,
    STAGE_INGEST,
    STAGE_MATCH,
    STAGE_SCAN,
    SpanTimer,
)
from .chains import ChainSet
from .events import LogEvent, Prediction
from .matcher import MatcherStats
from .predictor import AarohiPredictor, Backend, PredictorStats, Tokenizer

Timing = Literal["full", "sampled", "off"]
_TIMING_MODES = ("full", "sampled", "off")

_node_of = attrgetter("node")
_message_of = attrgetter("message")
# One engine's transition counters as a tuple, in MatcherStats order.
_engine_counts = attrgetter(*(f.name for f in fields(MatcherStats)))
_NO_ENGINE_COUNTS = (0,) * len(fields(MatcherStats))

# Sentinel for the internal ``_span`` plumbing: "no caller-provided
# timer — consult the span clock yourself".  Distinct from ``None``,
# which means "the outer entry point already consulted the clock and
# this run is unsampled".
_SPAN_AUTO = object()


@dataclass
class FleetReport:
    """Aggregate outcome of a fleet run.

    ``stats`` counts **this run only**, so repeated ``run()`` calls on
    a long-lived fleet never double-count earlier windows.  Its
    ``lines_seen`` is the run's share of the fleet's line count.

    ``nodes`` counts the predictor instances the fleet holds after the
    run.  Every batched path (``timing`` ``"off"`` or ``"sampled"``, on
    any scan backend) creates one only for a node that sent an
    FC-related line; the per-event ``timing="full"`` path, like
    :meth:`PredictorFleet.process`, creates one per node that sent any
    line.

    ``touched`` maps each node whose predictor this run fed to that
    predictor.  No other predictor's chain state or engine stats can
    have moved, so per-run bookkeeping (the engine-stats fold-in, a
    daemon shard's state delta) visits these and no others.
    """

    predictions: List[Prediction] = field(default_factory=list)
    stats: PredictorStats = field(default_factory=PredictorStats)
    nodes: int = 0
    touched: Dict[str, AarohiPredictor] = field(default_factory=dict)
    # Decode-funnel counters when the run came through :meth:`run_lines`
    # (None for pre-decoded event streams).
    ingest: Optional[object] = None

    @property
    def lines_seen(self) -> int:
        return self.stats.lines_seen

    @property
    def lines_tokenized(self) -> int:
        return self.stats.lines_tokenized

    @property
    def fc_related_fraction(self) -> float:
        return self.stats.fc_related_fraction


class PredictorFleet:
    """Lazy map of node id → :class:`AarohiPredictor`.

    Predictor instances share the chain set and the compiled scanner
    (the generated DFA is immutable), so a 10⁵-node fleet costs one
    table build plus O(1) state per node.
    """

    def __init__(
        self,
        chains: ChainSet,
        tokenizer: Tokenizer,
        *,
        timeout: Optional[float] = None,
        backend: Backend = "matcher",
        clock: Optional[Callable[[], float]] = None,
        obs: Optional[Observability] = None,
        scanner=None,
    ):
        self.chains = chains
        self.tokenizer = tokenizer
        self.timeout = timeout
        self.backend: Backend = backend
        self.obs = obs
        self.scanner = scanner  # the shared scanner object, if known
        self._clock = clock
        self._predictors: Dict[str, AarohiPredictor] = {}
        # Byte-path bookkeeping: raw node id -> decoded name (hits only).
        self._node_names: Dict[bytes, str] = {}
        # The fleet's line count: every line offered to the scanner, on
        # every path.  The scanner funnel resolves against it, and each
        # obs fold-in publishes what it gained since the previous one.
        self._lines_seen = 0
        self._lines_folded = 0
        # Running engine-stat totals for the obs fold-in, kept current
        # from the predictors each run touched: the counts each one had
        # at its last fold-in, and those process() fed since then.
        self._engine_totals = _NO_ENGINE_COUNTS
        self._engine_folded: Dict[str, tuple] = {}
        self._unfolded: Dict[str, AarohiPredictor] = {}

    @classmethod
    def from_store(
        cls,
        chains: ChainSet,
        store,
        *,
        optimized: bool = True,
        obs: Optional[Observability] = None,
        scanner=None,
        scan_backend: str = "str",
        **kwargs,
    ) -> "PredictorFleet":
        if scanner is None:
            if optimized:
                scanner = store.compile_scanner(
                    keep=chains.token_set, counting=obs is not None,
                    backend=scan_backend)
            else:
                from ..templates.store import NaiveTemplateScanner

                scanner = NaiveTemplateScanner(store, keep=chains.token_set)
        # Per-event paths hand the tokenizer decoded text, so on native
        # the fleet holds the encoding adapter, not the raw byte kernel
        # (which only the batched paths call directly).
        tokenizer = getattr(scanner, "tokenize_text", None) or scanner.tokenize
        return cls(chains, tokenizer, obs=obs, scanner=scanner, **kwargs)

    def predictor_for(self, node: str) -> AarohiPredictor:
        predictor = self._predictors.get(node)
        if predictor is None:
            kwargs = {}
            if self._clock is not None:
                kwargs["clock"] = self._clock
            predictor = AarohiPredictor(
                self.chains,
                self.tokenizer,
                timeout=self.timeout,
                backend=self.backend,
                node=node,
                obs=self.obs,
                **kwargs,
            )
            self._predictors[node] = predictor
        return predictor

    def process(self, event: LogEvent) -> Optional[Prediction]:
        self._lines_seen += 1
        predictor = self.predictor_for(event.node)
        if self.obs is not None:
            self._unfolded[event.node] = predictor  # for the next run
        return predictor.process(event)

    def _span_start(self) -> Optional[SpanTimer]:
        """Consult the span clock (if any) for this run — once per
        outermost entry point (run / run_lines)."""
        obs = self.obs
        if obs is not None and obs.spans is not None:
            return obs.spans.start_run()
        return None

    def run(
        self,
        events: Iterable[LogEvent],
        *,
        timing: Timing = "full",
        _span=_SPAN_AUTO,
    ) -> FleetReport:
        """Drive a whole (time-ordered) stream through the fleet.

        ``timing="full"`` is the per-event path:
        :meth:`AarohiPredictor.process` on each event in stream order,
        which clocks every tokenize call and chain check and keeps
        per-node ``lines_seen``.

        ``"off"`` and ``"sampled"`` take the batched path
        (:meth:`_run_flat`).  The accept-or-discard decision is
        node-independent (every node shares the merged scanner), so the
        stream is **not** grouped by node at all: one batched
        :meth:`~repro.templates.store.TemplateScanner.scan_hits` call
        scans every message (a fleet without one runs its tokenizer
        over them), and only the rare surviving hits are routed to
        their per-node engines.  Discarded lines never surface as
        per-event Python work — no tuple, no dict probe, no function
        call.

        Either way predictions come back in stream order, exactly as the
        per-event loop produces them (the differential suite asserts
        it).  The report counts **this run only**.  When the fleet
        carries an :class:`~repro.obs.Observability`, the run is folded
        into its registry here — per run, never per event.
        """
        if timing not in _TIMING_MODES:
            raise ValueError(f"unknown timing mode {timing!r}")
        span = self._span_start() if _span is _SPAN_AUTO else _span
        if timing != "full":
            return self._run_flat(events, timing, span)
        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        if not isinstance(events, (list, tuple)):
            events = list(events)
        predictors = self._predictors
        # The report counts this run only: diff the touched nodes'
        # stats against their totals before it.
        touched = set(map(_node_of, events))
        before = {node: predictors[node].stats.snapshot()
                  for node in touched if node in predictors}
        report = FleetReport()
        predictions = report.predictions
        predictor_of = predictors.get
        predictor_for = self.predictor_for
        for event in events:
            node = event.node
            prediction = (predictor_of(node) or predictor_for(node)).process(
                event)
            if prediction is not None:
                predictions.append(prediction)
        self._lines_seen += len(events)
        stats = report.stats
        for node in touched:
            now = predictors[node].stats
            stats.add(now.diff(before[node]) if node in before else now)
        report.nodes = len(predictors)
        report.touched = {node: predictors[node] for node in touched}
        if span is not None:
            # process() tokenizes, then matches: the predictors' measured
            # tokenize time is the scan stage, the rest of the loop match.
            match = span.lap(STAGE_MATCH, stats.lines_tokenized)
            span.carve(STAGE_MATCH, STAGE_SCAN,
                       min(stats.tokenize_seconds, match), len(events))
        if obs is not None:
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             events[-1].time if events else None, span)
        return report

    def run_lines(
        self,
        source,
        *,
        on_error: str = "warn",
        reorder_horizon: float = 0.0,
        timing: Timing = "full",
    ) -> FleetReport:
        """Replay serialized log lines through the fleet, tolerantly.

        ``source`` is a path, a byte buffer, a text handle or an
        iterable of lines.  ``on_error`` selects the decode policy — the
        default keeps the replay alive across malformed lines,
        quarantining them into the report's :attr:`~FleetReport.ingest`
        counters.  A positive ``reorder_horizon`` orders the decoded
        events the way a :class:`~repro.logsim.stream.SortBuffer` would,
        so near-sorted input (clock skew, interleaved controllers)
        reaches the engines in time order.  When the fleet carries an
        Observability, the ingest funnel is folded in alongside the
        run's other series.

        A native scanner fed a path or byte buffer under a tolerant
        policy and ``timing`` other than ``"full"`` takes the fused C
        pass (:meth:`_run_fused`), reorder horizon or not.  Everything
        else takes the decoded path:
        :func:`~repro.logsim.stream.read_log`, which frames a path or
        byte buffer by the fused pass's record rule, then
        :func:`~repro.logsim.stream.sorted_stream` under a horizon.
        """
        from pathlib import Path

        from ..logsim.stream import IngestStats, read_log, sorted_stream

        stats = IngestStats()
        span = self._span_start()
        # Fused native path: the compiled kernel splits, header-checks,
        # time-stamps and scans the raw blob in a single C pass, and a
        # second C call applies the reorder horizon — Python sees only
        # the hits and the rare suspect records.  No per-line timing
        # ("sampled" clocks only the hits' chain checks, so it stays
        # fused), and a tolerant policy (strict must attribute the
        # *first* bad record, which means classifying every record in
        # order).
        if (
            timing != "full"
            and on_error != "strict"
            and getattr(self.scanner, "scan_records", None) is not None
            and isinstance(source, (str, Path, bytes, bytearray, memoryview))
        ):
            report = self._run_fused(
                source, timing=timing, on_error=on_error,
                reorder_horizon=reorder_horizon, stats=stats, span=span)
            report.ingest = stats
            return report
        events = read_log(source, on_error=on_error, stats=stats)
        if reorder_horizon > 0:
            events = sorted_stream(events, reorder_horizon, stats)
        if span is not None:
            span.lap(STAGE_INGEST)  # iterator setup; the read is lazy
        events = list(events)
        if span is not None:
            # Materializing the stream drives read + tolerant decode
            # (+ reorder repair) in one pass; it all lands on decode.
            span.lap(STAGE_DECODE, len(events))
        if self.obs is not None:
            self.obs.record_ingest(stats)
        report = self.run(events, timing=timing, _span=span)
        report.ingest = stats
        return report

    def _run_fused(
        self,
        source,
        *,
        timing: Timing,
        on_error: str,
        reorder_horizon: float,
        stats,
        span: Optional[SpanTimer] = None,
    ) -> FleetReport:
        """Native fused ingest+scan: one C pass over the raw blob.

        The kernel's ``scan_records`` returns every record's epoch time
        (parsed in C, bit-identical to the Python parse), the template
        *hits* in record order as arrays (record index, token, node id),
        each distinct node span of the call once, and apart from the
        hits the *suspects*: records that failed the strict C
        header check (malformed, odd timestamp shape, or an escaped
        message).  Each distinct node decodes once, through the fleet's
        node-name cache.  Suspects re-run the tolerant Python parser, so
        quarantine decisions, counts, and warn-policy logging are
        identical to :func:`~repro.logsim.stream.read_byte_batch`; a decoded
        suspect writes its time back into the record times and is
        tokenized through the scanner like any other line, and a hit
        joins the scan's.  The scanner's ``reorder`` then emits the hits
        in stream order: record order, or under a positive
        ``reorder_horizon`` the :class:`~repro.logsim.stream.SortBuffer`
        replayed in C over those times, whose ``reordered``/``late``
        counts join the ingest funnel.  Suspect decode and the reorder
        call form the decode stage.  So the per-node chain engines see
        the exact feed sequence of the unfused pipeline — predictions
        are byte-identical (asserted by the fused-equivalence tests).
        ``timing`` is ``"off"`` or ``"sampled"``; under ``"sampled"``
        the routing loop clocks each FC-related hit's chain check, so
        every prediction carries its measured ``prediction_time``.
        """
        from ..logsim.stream import WARN_LINE_CAP, _log, open_byte_buffer
        from .events import LogDecodeError, parse_record_bytes

        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        warn = on_error == "warn"
        node_name = self._node_name
        scanner = self.scanner
        tokenize = scanner.tokenize
        quarantined = 0
        by_reason: Dict[str, int] = {}
        with open_byte_buffer(source) as blob:
            if span is not None:
                span.lap(STAGE_INGEST)  # open/mmap; the read is the scan
            scan = scanner.scan_records(blob)
            if span is not None:
                span.lap(STAGE_SCAN, scan.n_records)
            handed_over = scan.n_hits + len(scan.suspects)
            names = [node_name(bytes(blob[start:start + length]))
                     for start, length in scan.nodes]
            for index, start, length in scan.suspects:
                try:
                    t, node, message = parse_record_bytes(
                        bytes(blob[start:start + length]))
                except LogDecodeError as exc:
                    quarantined += 1
                    reason = exc.reason
                    by_reason[reason] = by_reason.get(reason, 0) + 1
                    if warn and quarantined <= WARN_LINE_CAP:
                        _log.warning("quarantined record (%s)", exc)
                    continue
                scan.times[index] = t
                token = tokenize(message)
                if token is not None:
                    scan.add_hit(index, token, len(names))
                    names.append(node_name(node))
        if warn and quarantined > WARN_LINE_CAP:
            _log.warning(
                "quarantined %d further records (suppressed per-record "
                "warnings after the first %d)",
                quarantined - WARN_LINE_CAP, WARN_LINE_CAP)
        emission = scanner.reorder(
            scan.times, scan.n_records, reorder_horizon, scan)
        stats.reordered += emission.reordered
        stats.late += emission.late
        last_time = (None if emission.last is None
                     else scan.times[emission.last])
        if span is not None:
            span.lap(STAGE_DECODE, handed_over)
        _, tokens, times, nodes = emission.hits
        report = self._route_hits(
            zip(map(names.__getitem__, nodes), times, tokens), timing, span)
        decoded = scan.n_records - quarantined
        stats.lines_read += scan.n_records
        stats.decoded += decoded
        stats.quarantined += quarantined
        for reason, n in by_reason.items():
            stats.quarantined_by_reason[reason] = (
                stats.quarantined_by_reason.get(reason, 0) + n)
        self._lines_seen += decoded
        report.stats.lines_seen = decoded
        if obs is not None:
            obs.record_ingest(stats)
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             last_time, span)
        return report

    def _run_flat(
        self,
        events: Iterable[LogEvent],
        timing: Timing,
        span: Optional[SpanTimer] = None,
    ) -> FleetReport:
        """Whole-stream scan: one batched kernel call (the fleet's
        tokenizer over every message, without one), per-hit routing."""
        obs = self.obs
        t_run = _time.perf_counter() if obs is not None else 0.0
        if not isinstance(events, (list, tuple)):
            events = list(events)
        messages = list(map(_message_of, events))
        if getattr(self.scanner, "backend", "str") != "str":
            # Native kernels scan raw bytes; pre-decoded events
            # re-encode here (the zero-decode win belongs to _run_fused).
            messages = [m.encode("utf-8", "replace") for m in messages]
        if span is not None:
            # Message extraction (+ re-encode) is the in-memory analog of
            # the decode stage.
            span.lap(STAGE_DECODE, len(events))
        scan_hits = getattr(self.scanner, "scan_hits", None)
        if scan_hits is not None:
            hits = scan_hits(messages)
        else:
            hits = [(i, token)
                    for i, token in enumerate(map(self.tokenizer, messages))
                    if token is not None]
        if span is not None:
            span.lap(STAGE_SCAN, len(events))
        report = self._route_hits(
            ((events[i].node, events[i].time, token) for i, token in hits),
            timing, span)
        self._lines_seen += len(events)
        report.stats.lines_seen = len(events)
        if obs is not None:
            self._record_run(obs, report, _time.perf_counter() - t_run,
                             events[-1].time if events else None, span)
        return report

    def _node_name(self, raw: bytes) -> str:
        """Decoded node id of a byte-path record, through a persistent
        ``bytes → str`` cache — only hit records ever get here."""
        node = self._node_names.get(raw)
        if node is None:
            node = self._node_names[raw] = str(raw, "utf-8", "replace")
        return node

    def _route_hits(
        self,
        hits: Iterable[tuple],
        timing: Timing,
        span: Optional[SpanTimer],
    ) -> FleetReport:
        """Feed ``(node, event time, token)`` scan hits, in stream order,
        to their per-node engines: the routing half of every batched
        path — :meth:`_run_flat` (``run`` at ``"off"``/``"sampled"`` on
        any fleet) and :meth:`_run_fused`.

        Tokens no chain uses are dropped.  Each surviving hit counts
        toward its predictor's ``lines_tokenized``; under
        ``timing="sampled"`` its chain check is clocked into
        ``feed_seconds`` and the running chain cost, which becomes the
        ``prediction_time`` of the prediction that completes the chain.
        Predictions pass the predictor's obs emit hook, and their emit
        cost is carved out of the match stage.  The returned report
        carries this run's predictions, ``lines_tokenized``,
        ``predictions``, ``feed_seconds``, node count and the predictors
        it fed (``touched``, which doubles as the loop's node lookup);
        ``lines_seen`` is the caller's, which alone knows what it
        scanned.
        """
        report = FleetReport()
        relevant = self.chains.token_set
        touched = report.touched
        predictor_of = self._predictors.get
        predictor_for = self.predictor_for
        predictions = report.predictions
        sampled = timing == "sampled"
        tokenized = 0
        n_predictions = 0
        feed_seconds = 0.0
        for node, event_time, token in hits:
            if token not in relevant:
                continue
            predictor = touched.get(node)
            if predictor is None:
                predictor = touched[node] = (
                    predictor_of(node) or predictor_for(node))
            predictor.stats.lines_tokenized += 1
            tokenized += 1
            if sampled:
                clock = predictor._clock
                t0 = clock()
                match = predictor._engine.feed(token, event_time)
                cost = clock() - t0
                predictor.stats.feed_seconds += cost
                feed_seconds += cost
                predictor._chain_cost += cost
            else:
                match = predictor._engine.feed(token, event_time)
            if match is None:
                continue
            if sampled:
                prediction_time = predictor._chain_cost
                predictor._chain_cost = 0.0
            else:
                prediction_time = 0.0
            predictor.stats.predictions += 1
            n_predictions += 1
            # Predictions are rare, so per-hit clock reads for the emit
            # stage only run on sampled runs and cost nothing upstream.
            t_emit = _time.perf_counter() if span is not None else 0.0
            prediction = Prediction(
                node=node,
                chain_id=match.chain_id,
                flagged_at=match.end_time,
                prediction_time=prediction_time,
                matched_tokens=match.tokens,
            )
            if predictor._obs_emit is not None:
                predictor._obs_emit(prediction)
            predictions.append(prediction)
            if span is not None:
                span.carve(STAGE_MATCH, STAGE_EMIT,
                           _time.perf_counter() - t_emit, 1)
        if span is not None:
            span.lap(STAGE_MATCH, tokenized)
        report.stats.lines_tokenized = tokenized
        report.stats.predictions = n_predictions
        report.stats.feed_seconds = feed_seconds
        report.nodes = len(self._predictors)
        return report

    def _record_run(
        self,
        obs: Observability,
        report: FleetReport,
        seconds: float,
        last_event_time: Optional[float] = None,
        span: Optional[SpanTimer] = None,
    ) -> None:
        # The whole fold-in sequence runs under the facade lock so a
        # concurrent scrape (server thread) never sees a half-recorded
        # run — e.g. lines_seen bumped but the funnel counters not yet
        # mirrored, which would break the funnel identity mid-scrape.
        with obs.lock:
            # Lines since the previous fold-in, process() calls between
            # runs included, so LINES_SEEN equals the funnel total.
            lines_seen = self._lines_seen
            obs.record_run_stats(report.stats,
                                 lines_seen - self._lines_folded)
            self._lines_folded = lines_seen
            obs.record_fleet_run(
                n_events=report.lines_seen,
                n_nodes=report.nodes,
                seconds=seconds,
            )
            obs.record_engine_stats(self._fold_engine_stats(report))
            if self.scanner is not None:
                # The scanner is shared by every predictor, so its funnel
                # is resolved against the fleet's cumulative line count.
                obs.record_scanner(self.scanner, lines_seen)
            # Live/quality planes (no-ops unless configured on the
            # facade).  Latencies already reached the live sketch through
            # the predictors' emit hooks; this folds in rate, lag,
            # predictions, and the batch's discard fraction.
            obs.record_live_run(
                n_events=report.lines_seen,
                seconds=seconds,
                last_event_time=last_event_time,
            )
            obs.record_quality_run(
                predictions=report.predictions,
                stats_delta=report.stats,
                now=last_event_time,
            )
            obs.record_spans(span)
            # With everything folded in, offer the settled snapshot to
            # the history ring (the cadence throttle makes this nearly
            # free when not due); an accepted capture also runs one
            # alert-rules pass, whose newly firing rules dump flight
            # capsules.  The ring keeps its own (injectable) clock —
            # wall time, not event time, so paced replays and live
            # streams look alike.
            obs.record_history()

    def _fold_engine_stats(self, report: FleetReport) -> MatcherStats:
        """The engine-stat totals over every predictor, brought up to
        date from the ones fed since the previous fold-in: the run's
        ``touched`` plus any :meth:`process` fed between runs.  An
        engine nothing fed has the counts it had at its last fold-in, so
        this costs O(touched), not O(fleet)."""
        touched = report.touched
        if self._unfolded:
            touched = {**self._unfolded, **touched}
            self._unfolded = {}
        totals = self._engine_totals
        folded = self._engine_folded
        for node, predictor in touched.items():
            now = _engine_counts(predictor._engine.stats)
            before = folded.get(node, _NO_ENGINE_COUNTS)
            if now != before:
                folded[node] = now
                totals = tuple(map(add, totals, map(sub, now, before)))
        self._engine_totals = totals
        return MatcherStats(*totals)

    # -- state handoff ---------------------------------------------------
    def state_snapshot(self) -> dict:
        """Serializable fleet state for worker handoff: per-node
        predictor snapshots, **mid-chain nodes only** (idle nodes carry
        no state worth shipping and are rebuilt lazily on their next
        line).  Per-node state is a few scalars, so even a fleet with
        thousands of instantiated predictors snapshots in microseconds.
        """
        nodes: Dict[str, dict] = {}
        for node, predictor in self._predictors.items():
            state = predictor.state_snapshot()
            if state is not None:
                nodes[node] = state
        return {"backend": self.backend, "nodes": nodes}

    def restore_state(self, state: dict) -> int:
        """Adopt a :meth:`state_snapshot` from an equivalent fleet (same
        chain set and backend) — how a replacement worker inherits the
        dead shard's in-flight chains.  Returns the number of node
        states restored."""
        backend = state.get("backend", self.backend)
        if backend != self.backend:
            raise ValueError(
                f"fleet snapshot from backend {backend!r} cannot restore "
                f"into a {self.backend!r} fleet")
        nodes = state.get("nodes", {})
        for node, node_state in nodes.items():
            self.predictor_for(node).restore_state(node_state)
        return len(nodes)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._predictors)
