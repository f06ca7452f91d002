"""`repro.obs` — observability for the online predictor fleet.

Passive layers (ISSUE 2 / DESIGN.md §5.6):

* :mod:`.metrics` — allocation-free Counter/Gauge/log2-Histogram types
  and a process-local :class:`Registry` with label support, snapshots,
  and a merge path for multi-process fleets;
* :mod:`.tracing` — the prediction-lifecycle :class:`Tracer` (JSONL,
  sampled per chain activation);
* :mod:`.exposition` — Prometheus text-format and JSON renderers plus
  the inverse parser.

Live ops plane (ISSUE 3 / DESIGN.md §5.7):

* :mod:`.live` — P² latency quantiles, EWMA message rate, stream-lag
  gauge, and the :class:`DeadlineMonitor` feasibility/SLO check;
* :mod:`.quality` — the online :class:`QualityScoreboard` (rolling
  precision/recall/lead time vs injected ground truth) and the CUSUM
  discard-fraction drift detector;
* :mod:`.server` — stdlib HTTP exposition (``/metrics``, ``/healthz``,
  ``/quality``);
* :mod:`.report` — snapshot → report-section renderers shared by
  ``obs-report`` and the ``predict --watch`` dashboard.

Recording-rules plane (ISSUE 8 / DESIGN.md §5.12):

* :mod:`.history` — the bounded :class:`HistoryRing` of
  delta-compressed registry captures plus the Prometheus-flavoured
  window-query kit (``rate``/``increase``/``*_over_time``/``absent``);
* :mod:`.rules` — declarative alert rules (dicts / TOML) with
  pending→firing→resolved tracking, evaluated on the capture cadence;
  firing rules dump ``alert_rule`` flight capsules and gate
  ``/healthz`` (``/alerts`` serves the same state).

:class:`Observability` is the wiring facade the predictor stack accepts
(``PredictorFleet.from_store(..., obs=...)``): it owns the registry,
optional tracer, and the optional live monitor / quality scoreboard,
and knows how to fold the cheap cumulative counters the hot path
maintains into registry metrics **once per batch/run**, never per
event.
"""

from __future__ import annotations

import functools
import threading
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..lazy import lazy_exports
from .live import (
    DeadlineMonitor,
    DeadlineVerdict,
    EwmaRate,
    LiveMonitor,
    P2Quantile,
    QuantileSketch,
    StreamLag,
    inter_arrival_budget,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    NULL_REGISTRY,
    NullRegistry,
    Registry,
    diff_snapshots,
    reset_series,
    series_display_name,
    snapshot_asymmetry,
)
from .names import (  # noqa: F401  (canonical names, re-exported)
    ALERT_STATE,
    ALERT_TRANSITIONS,
    ALERTS_FIRING,
    ALL_SERIES,
    CHAIN_ACTIVATIONS,
    CHAIN_MATCHES,
    CHAIN_TIMEOUTS,
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
    DEADLINE_BREACHES,
    DEADLINE_BUDGET,
    DEADLINE_OK,
    DISCARD_CUSUM,
    FLIGHT_CAPSULES,
    FLIGHT_EVENTS_BUFFERED,
    DISCARD_DRIFT_ALARM,
    DISCARD_DRIFT_TRIPPED,
    DISCARD_FRACTION,
    FEED_SECONDS,
    HISTORY_CAPTURES,
    HISTORY_SAMPLES,
    HISTORY_SPAN_SECONDS,
    FLEET_BATCH_EVENTS,
    FLEET_EVENTS_PER_SECOND,
    FLEET_NODES,
    FLEET_RUN_SECONDS,
    FLEET_RUNS,
    FUNNEL_STAGES,
    INGEST_DECODED,
    INGEST_FUNNEL_STAGES,
    INGEST_LATE,
    INGEST_LINES_READ,
    INGEST_QUARANTINE_BURN,
    INGEST_QUARANTINE_FRACTION,
    INGEST_QUARANTINED,
    INGEST_REORDERED,
    LINES_SEEN,
    LINES_TOKENIZED,
    LIVE_LATENCY_QUANTILE,
    LIVE_MESSAGE_RATE,
    LIVE_STREAM_LAG,
    LOGSIM_EVENTS,
    LOGSIM_FAULTS,
    LOGSIM_WINDOWS,
    NEGATIVE_DELTA_T,
    PREDICTION_SECONDS,
    PREDICTIONS,
    QUALITY_ACTIONABLE_RATIO,
    QUALITY_F1,
    QUALITY_FALSE_NEGATIVES,
    QUALITY_FALSE_POSITIVES,
    QUALITY_LEAD_SECONDS,
    QUALITY_MEAN_LEAD,
    QUALITY_PRECISION,
    QUALITY_RECALL,
    QUALITY_TRUE_POSITIVES,
    SCANNER_BACKEND_FALLBACK,
    SCANNER_BACKEND_INFO,
    SCANNER_DFA_MATCHES,
    SCANNER_DFA_RUNS,
    SCANNER_FIRST_CHAR_REJECTED,
    SCANNER_MEMO_HITS,
    SCANNER_TRANSLATE_EVICTIONS,
    SLO_BURN,
    SPAN_RUN_SECONDS,
    SPAN_RUNS,
    SPAN_RUNS_SAMPLED,
    SPAN_STAGE_LATENCY,
    SPAN_STAGE_RECORDS,
    SPAN_STAGE_SECONDS,
    TOKENIZE_SECONDS,
    TOKENS_ADVANCED,
    TOKENS_SKIPPED,
)
from .spans import (
    SPAN_STAGES,
    STAGE_DECODE,
    STAGE_EMIT,
    STAGE_INGEST,
    STAGE_MATCH,
    STAGE_SCAN,
    SpanClock,
    SpanTimer,
    shard_span_breakdown,
)
from .tracing import (
    CHAIN_STARTED,
    DELTA_T_TIMEOUT,
    EVENT_KINDS,
    PARSER_RESET,
    PREDICTION_FIRED,
    TOKEN_ADVANCED,
    Tracer,
    lifecycle_counts,
    read_trace,
    realized_lead_times,
)

if TYPE_CHECKING:
    from .flight import FlightRecorder
    from .history import HistoryRing
    from .quality import QualityScoreboard
    from .rules import RuleEngine

# Planes a daemon shard worker never runs load on first use: the HTTP
# plane (the only ``http.server`` user), the rendering, the history
# ring and alert rules, the flight recorder and the quality scoreboard.
# The facade below imports each where it uses it.
_, __getattr__, __dir__ = lazy_exports(__name__, {
    "exposition": ("PrometheusParseError", "histogram_series",
                   "parse_prometheus", "render_json", "render_prometheus"),
    "flight": ("FlightRecorder", "TRIGGER_ALERT", "TRIGGER_REASONS",
               "TRIGGER_SHUTDOWN", "read_capsule"),
    "history": ("HistoryRing", "group_history_records",
                "parse_history_ndjson"),
    "quality": ("DiscardDriftDetector", "QualityScore", "QualityScoreboard"),
    "rules": ("AlertRule", "DAEMON_RULES", "DEFAULT_RULES", "RuleEngine",
              "daemon_ruleset", "default_ruleset", "load_rules",
              "rules_to_toml", "validate_rules"),
    "server": ("ObsServer",),
})


def _locked(method):
    """Serialize a facade method under ``self.lock`` (reentrant, so
    callers holding the lock across multi-method fold-in sequences —
    ``PredictorFleet._record_run`` — nest freely).  The per-run fold-ins
    take the lock in their bodies instead: they run once per daemon
    chunk, where this wrapper's extra call costs more than the lock."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.lock:
            return method(self, *args, **kwargs)

    return wrapper


# The series each fold-in writes, as ``(kind, name, help)`` or
# ``(kind, name, help, options)``; :meth:`Observability.bound` resolves
# a group into handles the first time the fold-in writes it.
_RUN_SERIES = (
    ("counter", LINES_SEEN, "log lines offered to the scanner"),
    ("counter", LINES_TOKENIZED, "FC-related phrases tokenized"),
    ("counter", PREDICTIONS, "failure predictions flagged"),
    ("counter", TOKENIZE_SECONDS, "cumulative scan time"),
    ("counter", FEED_SECONDS, "cumulative rule-check time"),
)
_SCANNER_SERIES = (
    ("counter", SCANNER_FIRST_CHAR_REJECTED,
     "lines rejected by the first-char table (incl. empty lines)"),
    ("counter", SCANNER_MEMO_HITS, "tokenize results served from the memo"),
    ("counter", SCANNER_DFA_RUNS, "full DFA scans executed"),
    ("counter", SCANNER_DFA_MATCHES,
     "full DFA scans that matched a template"),
    ("counter", SCANNER_TRANSLATE_EVICTIONS,
     "codepoint classes evicted from the bounded translate memo"),
)
_BACKEND_SERIES = (
    ("gauge", SCANNER_BACKEND_INFO,
     "scan-kernel backend identity (value pinned to 1)"),
)
_FALLBACK_SERIES = (
    ("counter", SCANNER_BACKEND_FALLBACK,
     "scan-kernel backends degraded below the requested one"),
)
_INGEST_SERIES = (
    ("counter", INGEST_LINES_READ, "log lines offered to the decoder"),
    ("counter", INGEST_DECODED, "lines decoded into events"),
    ("counter", INGEST_QUARANTINED, "undecodable lines quarantined"),
    ("counter", INGEST_REORDERED,
     "arrival inversions repaired by sort buffers"),
    ("counter", INGEST_LATE, "events beyond the reorder horizon"),
    ("gauge", INGEST_QUARANTINE_FRACTION, "quarantined lines / lines read"),
    ("gauge", INGEST_QUARANTINE_BURN,
     "quarantine fraction vs the allowed SLO fraction"),
)
_ENGINE_SERIES = (
    ("counter", CHAIN_ACTIVATIONS, "chain checks started"),
    ("counter", TOKENS_ADVANCED, "tokens that advanced a chain"),
    ("counter", TOKENS_SKIPPED, "mid-chain tokens skipped"),
    ("counter", CHAIN_TIMEOUTS, "ΔT timeouts (parser resets)"),
    ("counter", CHAIN_MATCHES, "complete rule matches"),
    ("counter", NEGATIVE_DELTA_T,
     "backwards timestamps clamped (ΔT floor 0)"),
)
_FLEET_RUN_SERIES = (
    ("counter", FLEET_RUNS, "fleet.run() invocations"),
    ("gauge", FLEET_NODES, "predictor instances alive"),
    ("histogram", FLEET_BATCH_EVENTS, "log lines per run",
     {"lo_exp": 0, "hi_exp": 24}),
)
_FLEET_SPEED_SERIES = (
    ("gauge", FLEET_RUN_SECONDS, "wall time of the last run"),
    ("gauge", FLEET_EVENTS_PER_SECOND, "throughput of the last run"),
)


class Observability:
    """Wiring facade: registry, optional tracer, optional live plane.

    Instrumented components receive one of these (or ``None``, meaning
    observability fully off).  All recording methods are batch-grained —
    the per-event bookkeeping stays in plain int slots owned by the hot
    path and is folded in here.  ``live`` and ``quality`` opt the run
    into the deadline/SLO monitor and the online scoreboard; both stay
    ``None`` on the passive (PR 2) configuration.  ``spans`` opts runs
    into stage-level time attribution and ``flight`` arms the black-box
    recorder, whose anomaly capsules come from firing alert rules.

    Every public method runs under :attr:`lock` (a reentrant lock), so
    a `/metrics` scrape from the server thread never observes a
    half-folded run — fold-in sequences that must be atomic as a group
    additionally take ``with obs.lock:`` around the whole sequence.
    """

    def __init__(
        self,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        labels: Optional[dict] = None,
        live: Optional[LiveMonitor] = None,
        quality: Optional[QualityScoreboard] = None,
        quarantine_slo: float = 0.01,
        spans: Optional[SpanClock] = None,
        flight: Optional[FlightRecorder] = None,
        history: Optional[HistoryRing] = None,
        rules: Optional[RuleEngine] = None,
    ):
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.live = live
        self.quality = quality
        self.spans = spans
        self.flight = flight
        # Alert rules are the recorder's only anomaly trigger, so a
        # recorder without rules arms the shipped defaults.  Rules
        # evaluate over the ring; without one they get a default ring.
        if flight is not None and rules is None:
            from .rules import RuleEngine, default_ruleset

            rules = RuleEngine(default_ruleset())
        if rules is not None and history is None:
            from .history import HistoryRing

            history = HistoryRing()
        self.history = history
        self.rules = rules
        if tracer is not None and flight is not None and tracer.mirror is None:
            # Tee sampled lifecycle records into the flight ring.
            tracer.mirror = flight.absorb
        # Default labels stamped on every recorded series — e.g.
        # {"shard": "3"} inside a daemon shard worker, so per-shard
        # series stay distinct after the parent-side merge.
        self.labels = dict(labels or {})
        # Ingest hardening (ISSUE 5): cumulative decode-funnel totals
        # and the allowed quarantine fraction (the /healthz burn gate).
        if not 0.0 < quarantine_slo < 1.0:
            raise ValueError("quarantine_slo must be in (0, 1)")
        self.quarantine_slo = quarantine_slo
        from ..logsim.stream import IngestStats

        self.ingest = IngestStats()
        # The last record_scanner fold-in's funnel counts, backend,
        # requested backend and line total, behind scanner_info.
        self._scanner_fold: Optional[tuple] = None
        # Pluggable surface extensions (the daemon mounts its service
        # plane through these instead of the facade hardcoding it):
        # health hooks contribute named /healthz blocks and can flip
        # the probe red; debug providers contribute /debug/vars blocks.
        self._health_hooks: dict = {}
        self._debug_providers: dict = {}
        self.lock = threading.RLock()
        # bound()'s handles, with the registry and labels they were
        # resolved under.
        self._held: tuple = (None, None, {})

    # -- surface extension hooks ---------------------------------------
    def add_health_hook(self, name: str, hook) -> None:
        """Register ``hook() -> dict`` to contribute the ``name`` block
        of every ``/healthz`` payload.  A block carrying ``"ok": False``
        flips the probe to ``failing`` — how the daemon surfaces a dead
        shard without the facade knowing what a shard is.  Hooks run
        under the facade lock; keep them allocation-light."""
        if not callable(hook):
            raise TypeError("health hook must be callable")
        self._health_hooks[name] = hook

    def add_debug_provider(self, name: str, provider) -> None:
        """Register ``provider() -> dict`` as the ``name`` block of
        every ``/debug/vars`` payload (expvar-style)."""
        if not callable(provider):
            raise TypeError("debug provider must be callable")
        self._debug_providers[name] = provider

    def bound(self, key, specs, **extra: str) -> tuple:
        """The handles of the series ``specs`` lists, each spec
        ``(kind, name, help)`` or ``(kind, name, help, options)``.

        They resolve through :attr:`registry` under :attr:`labels` plus
        ``extra`` on the first call for ``key`` and are held after, so a
        fold-in is plain ``inc``/``set`` calls on them; assigning a new
        registry or labels dict resolves them afresh.  Resolving creates
        a series, so bind a group only where every series in it is
        written.  ``key`` names one group: the same specs under the same
        labels on every call."""
        registry = self.registry
        held = self._held
        if held[0] is not registry or held[1] is not self.labels:
            held = self._held = (registry, self.labels, {})
        handles = held[2].get(key)
        if handles is None:
            labels = {**extra, **self.labels}
            handles = held[2][key] = tuple(
                getattr(registry, spec[0])(
                    spec[1], spec[2], **(spec[3] if len(spec) > 3 else {}),
                    **labels)
                for spec in specs)
        return handles

    # -- fold-in paths (called per batch / run, never per event) -------
    def record_run_stats(self, run_stats, lines_seen: int) -> None:
        """Fold one run's :class:`~repro.core.predictor.PredictorStats`
        delta (from ``snapshot()``/``diff()``) into the counters.
        ``lines_seen`` is what the fleet's line count gained since its
        previous fold-in — the run's lines plus any lines
        :meth:`~repro.core.fleet.PredictorFleet.process` saw between
        runs — so ``LINES_SEEN`` stays equal to the scanner funnel's
        total."""
        with self.lock:
            seen, tokenized, predictions, tokenize_s, feed_s = self.bound(
                "run", _RUN_SERIES)
            seen.inc(lines_seen)
            tokenized.inc(run_stats.lines_tokenized)
            predictions.inc(run_stats.predictions)
            tokenize_s.inc(run_stats.tokenize_seconds)
            feed_s.inc(run_stats.feed_seconds)

    def record_scanner(self, scanner, lines_seen_total: int) -> None:
        """Mirror a counting scanner's cumulative funnel slots into the
        registry.  ``lines_seen_total`` is the total number of tokenize
        calls (the fleet's line count), from which the
        untracked common-path stage (first-char rejection) is derived —
        the hot path pays zero bookkeeping for rejected lines."""
        with self.lock:
            funnel = getattr(scanner, "funnel", None)
            if funnel is None:
                return
            counts = funnel(lines_seen_total)
            first_char, memo, dfa_runs, dfa_matches, evictions = (
                self.bound("scanner", _SCANNER_SERIES))
            first_char.set_total(counts["first_char_rejected"])
            memo.set_total(counts["memo_hits"])
            dfa_runs.set_total(counts["dfa_runs"])
            dfa_matches.set_total(counts["dfa_matches"])
            evictions.set_total(counts.get("translate_evictions", 0))
            backend = getattr(scanner, "backend", None) or "str"
            requested = (getattr(scanner, "requested_backend", None)
                         or backend)
            info, = self.bound(("backend", backend), _BACKEND_SERIES,
                               backend=backend)
            info.set(1.0)
            if requested != backend:
                # Degradation is once per scanner build, not per run:
                # set_total keeps the counter idempotent across run folds.
                fallback, = self.bound(
                    ("fallback", requested, backend), _FALLBACK_SERIES,
                    requested=requested, backend=backend)
                fallback.set_total(1)
            self._scanner_fold = (
                counts, backend, requested, lines_seen_total)

    @property
    def scanner_info(self) -> dict:
        """Scanner identity and funnel totals as of the last
        :meth:`record_scanner` fold-in (``{}`` before one), for
        ``/debug/vars``."""
        if self._scanner_fold is None:
            return {}
        counts, backend, requested, lines_seen = self._scanner_fold
        return {
            "backend": backend,
            "requested_backend": requested,
            "fallback": requested != backend,
            "translate_evictions": counts.get("translate_evictions", 0),
            "funnel": dict(counts),
            "lines_seen": lines_seen,
        }

    def record_ingest(self, delta) -> None:
        """Fold one ingest pass's :class:`~repro.logsim.stream.IngestStats`
        delta into the cumulative decode-funnel counters.

        Call once per read/replay (CLI, ``run_lines``) or per worker
        chunk (:class:`~repro.core.daemon.FleetDaemon`) — the deltas
        accumulate into :attr:`ingest`, whose totals back both the
        registry counters and the ``/healthz`` quarantine-burn gate.
        """
        with self.lock:
            ingest = self.ingest
            ingest.add(delta)
            read, decoded, quarantined, reordered, late, fraction, burn = (
                self.bound("ingest", _INGEST_SERIES))
            read.set_total(ingest.lines_read)
            decoded.set_total(ingest.decoded)
            quarantined.set_total(ingest.quarantined)
            reordered.set_total(ingest.reordered)
            late.set_total(ingest.late)
            fraction.set(ingest.quarantine_fraction)
            burn.set(ingest.quarantine_fraction / self.quarantine_slo)
            if self.flight is not None and (delta.lines_read or delta.late):
                self.flight.note(
                    "ingest",
                    lines_read=delta.lines_read,
                    quarantined=delta.quarantined or None,
                    late=delta.late or None,
                    quarantine_fraction=ingest.quarantine_fraction,
                )

    def record_engine_stats(self, totals) -> None:
        """Mirror a fleet's cumulative matcher transition totals (one
        :class:`~repro.core.matcher.MatcherStats` summed over its
        engines) into the registry."""
        with self.lock:
            (activations, advanced, skipped, timeouts, matches,
             negative_dt) = self.bound("engine", _ENGINE_SERIES)
            activations.set_total(totals.activations)
            advanced.set_total(totals.advanced)
            skipped.set_total(totals.skipped)
            timeouts.set_total(totals.resets_timeout)
            matches.set_total(totals.matches)
            negative_dt.set_total(totals.negative_dt)

    def record_fleet_run(
        self,
        *,
        n_events: int,
        n_nodes: int,
        seconds: Optional[float],
    ) -> None:
        with self.lock:
            if self.flight is not None:
                self.flight.note(
                    "fleet_run", n_events=n_events, n_nodes=n_nodes,
                    seconds=seconds)
            runs, nodes, batch_events = self.bound(
                "fleet", _FLEET_RUN_SERIES)
            runs.inc()
            nodes.set(n_nodes)
            batch_events.observe(n_events)
            if seconds is not None and seconds > 0:
                run_seconds, events_per_second = self.bound(
                    "fleet_speed", _FLEET_SPEED_SERIES)
                run_seconds.set(seconds)
                events_per_second.set(n_events / seconds)

    @_locked
    def record_window(self, n_events: int, injections) -> None:
        """Count a generated logsim window (events emitted, faults
        injected by kind)."""
        registry = self.registry
        registry.counter(LOGSIM_WINDOWS, "windows generated").inc()
        registry.counter(LOGSIM_EVENTS, "log events emitted").inc(n_events)
        for injection in injections:
            registry.counter(
                LOGSIM_FAULTS, "injected chains by kind",
                kind=injection.kind,
            ).inc()

    # -- live ops plane (ISSUE 3) --------------------------------------
    @_locked
    def record_live_run(
        self,
        *,
        n_events: int,
        seconds: Optional[float],
        last_event_time: Optional[float],
    ) -> None:
        """Fold one run into the live monitor (rate, lag, gauges).

        Per-prediction latencies reach the monitor through the
        predictor's emit hook, so this method never touches them —
        double-feeding would skew the sketch."""
        live = self.live
        if live is None:
            return
        live.record_batch(
            n_events=n_events, seconds=seconds,
            last_event_time=last_event_time)
        live.publish(self.registry, self.labels)

    @_locked
    def record_quality_run(
        self,
        *,
        predictions: Sequence,
        stats_delta,
        now: Optional[float],
    ) -> None:
        """Fold one run into the scoreboard: new predictions, the
        batch's scanner discard numbers, and the event-time advance."""
        quality = self.quality
        if quality is None:
            return
        quality.add_predictions(predictions)
        if stats_delta is not None and stats_delta.lines_seen:
            quality.record_discard(
                stats_delta.lines_seen - stats_delta.lines_tokenized,
                stats_delta.lines_seen)
        if now is not None:
            quality.advance(now)
        quality.publish(self.registry, self.labels)

    # -- span tracing + flight recorder (ISSUE 7) ----------------------
    @_locked
    def record_spans(self, timer: Optional[SpanTimer] = None) -> None:
        """Fold one run's (possibly ``None`` = unsampled) stage timer
        into the span clock and mirror cumulative span series into the
        registry."""
        spans = self.spans
        if spans is None:
            return
        if timer is not None:
            spans.finish_run(timer)
            if self.flight is not None:
                self.flight.note(
                    "span_run", total=timer.total,
                    stages={s: round(v, 9)
                            for s, v in timer.seconds.items()})
        spans.publish(self.registry, self.labels)

    def _publish_flight_gauges(self) -> None:
        flight = self.flight
        registry = self.registry
        labels = self.labels
        registry.counter(
            FLIGHT_CAPSULES, "crash capsules dumped",
            **labels).set_total(flight.capsules)
        registry.gauge(
            FLIGHT_EVENTS_BUFFERED, "lifecycle notes in the flight ring",
            **labels).set(flight.buffered)

    @_locked
    def flush_shutdown(self, **fields) -> Optional[str]:
        """Freeze the flight ring into a ``shutdown`` capsule — the
        graceful-drain path (SIGTERM, daemon stop).  No-op without a
        recorder armed; sticky like every trigger, so a SIGTERM racing
        a second shutdown path still dumps exactly one capsule.
        Returns the capsule text when one was written."""
        flight = self.flight
        if flight is None:
            return None
        from .flight import TRIGGER_SHUTDOWN

        text = flight.trigger(
            TRIGGER_SHUTDOWN, snapshot=self.registry.snapshot(), **fields)
        self._publish_flight_gauges()
        return text

    # -- history ring + alert rules (ISSUE 8) --------------------------
    @_locked
    def record_history(
        self, now: Optional[float] = None, *, force: bool = False
    ) -> bool:
        """Offer the current registry snapshot to the history ring and,
        when a sample lands, run one rule-evaluation pass.

        Called by both fleet drivers at the end of every run fold-in
        (after live/quality gauges are published, so the sample sees
        them).  The cadence throttle is checked *before* building the
        snapshot — a declined capture costs two attribute loads and a
        comparison, which is what keeps an aggressive ``interval=0``
        affordable and a throttled one free (DESIGN.md §5.12).

        Returns ``True`` when a sample was captured.
        """
        ring = self.history
        if ring is None:
            return False
        if not force and not ring.due(now):
            return False
        captured = ring.capture(
            self.registry.snapshot(), t=now, force=force)
        if not captured:
            return False
        registry = self.registry
        labels = self.labels
        registry.counter(
            HISTORY_CAPTURES, "history ring captures accepted",
            **labels).set_total(ring.captures)
        registry.gauge(
            HISTORY_SAMPLES, "samples retained in the history ring",
            **labels).set(len(ring))
        registry.gauge(
            HISTORY_SPAN_SECONDS, "seconds of history retained",
            **labels).set(ring.span)
        self.check_rules(now=ring.end_time)
        return True

    @_locked
    def check_rules(self, now: Optional[float] = None) -> List[str]:
        """One alert-rule evaluation pass over the history ring.

        State transitions are noted into the flight ring (so a later
        capsule shows the alert's own build-up), every rule that
        *newly* entered ``firing`` dumps one ``alert_rule`` capsule —
        sticky per rule id — with the rule's recent history embedded,
        and alert state is mirrored into the ``aarohi_alert_*`` series.

        Returns the ids of rules that fired capsules this call.
        """
        engine = self.rules
        if engine is None:
            return []
        flight = self.flight
        transitions = engine.evaluate(self.history, now)
        fired: List[str] = []
        for transition in transitions:
            if flight is not None:
                flight.note(
                    "alert",
                    rule=transition["rule"],
                    state=transition["to"],
                    value=round(transition["value"], 9),
                    at=transition["at"],
                )
            if transition["to"] != "firing":
                continue
            rule = engine.rule(transition["rule"])
            if flight is not None:
                from .flight import TRIGGER_ALERT

                text = flight.trigger(
                    TRIGGER_ALERT,
                    key=rule.id,
                    snapshot=self.registry.snapshot(),
                    history=self.history.records(
                        rule.series, rule.labels or None),
                    rule=rule.id,
                    series=rule.series,
                    expr=rule.expr,
                    threshold=rule.threshold,
                    value=transition["value"],
                    severity=rule.severity,
                    summary=rule.summary or None,
                )
                if text is not None:
                    fired.append(rule.id)
            else:
                fired.append(rule.id)
        registry = self.registry
        labels = self.labels
        state_rank = {"inactive": 0, "pending": 1, "firing": 2,
                      "resolved": 3}
        for rule in engine.rules:
            state = engine.states[rule.id]
            registry.gauge(
                ALERT_STATE,
                "alert state (0 inactive, 1 pending, 2 firing,"
                " 3 resolved)",
                rule=rule.id, severity=rule.severity, **labels,
            ).set(state_rank[state.state])
        registry.gauge(
            ALERTS_FIRING, "alert rules currently firing",
            **labels).set(len(engine.firing()))
        for transition in transitions:
            registry.counter(
                ALERT_TRANSITIONS, "alert state transitions",
                rule=transition["rule"], to=transition["to"], **labels,
            ).inc()
        if flight is not None:
            self._publish_flight_gauges()
        return fired

    @_locked
    def alerts_report(self) -> dict:
        """The ``/alerts`` payload: every rule with its declarative
        definition, current state, last value, and since-timestamps."""
        engine = self.rules
        if engine is None:
            return {"enabled": False}
        payload = engine.report()
        payload["enabled"] = True
        if self.history is not None:
            payload["history"] = {
                "samples": len(self.history),
                "span_seconds": self.history.span,
                "interval": self.history.interval,
                "captures": self.history.captures,
            }
        return payload

    @_locked
    def history_records(
        self,
        series: Optional[str] = None,
        labels: Optional[dict] = None,
    ) -> Optional[List[dict]]:
        """Flat history point records (``None`` when no ring armed) —
        the ``/debug/history`` and ``obs-report --history`` source."""
        if self.history is None:
            return None
        return self.history.records(series, labels)

    @_locked
    def debug_spans(self) -> dict:
        """The ``/debug/spans`` payload: local span clock state plus
        per-shard stage breakdowns reassembled from the registry."""
        payload: dict = {"enabled": self.spans is not None}
        if self.spans is not None:
            payload["local"] = self.spans.report()
        shards = shard_span_breakdown(self.registry.snapshot())
        if shards:
            payload["shards"] = shards
        return payload

    @_locked
    def debug_flight(self) -> dict:
        """The ``/debug/flight`` metadata (the capsule body itself is
        served verbatim as JSONL)."""
        flight = self.flight
        if flight is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "capacity": flight.capacity,
            "buffered": flight.buffered,
            "capsules": flight.capsules,
            "triggered": dict(flight.triggered),
            "last_reason": flight.last_reason,
            "last_capsule_path": (
                str(flight.last_capsule_path)
                if flight.last_capsule_path is not None else None),
        }

    @_locked
    def debug_vars(self) -> dict:
        """The ``/debug/vars`` payload: build/backend identity plus the
        full registry snapshot."""
        import platform

        from .. import __version__

        payload: dict = {
            "build": {
                "version": __version__,
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
            },
            "labels": dict(self.labels),
            "quarantine_slo": self.quarantine_slo,
            "scanner": self.scanner_info,
        }
        snapshot = self.registry.snapshot()
        if not payload["scanner"]:
            # Daemon parent: record_scanner ran worker-side, but the
            # shard-labeled identity gauge merged in — derive from it.
            family = snapshot.get(SCANNER_BACKEND_INFO)
            if family:
                backends = sorted({
                    series["labels"].get("backend", "str")
                    for series in family["series"] if series["value"]
                })
                evictions = sum(
                    series["value"]
                    for series in snapshot.get(
                        SCANNER_TRANSLATE_EVICTIONS, {}).get("series", ()))
                payload["scanner"] = {
                    "backend": ",".join(backends),
                    "translate_evictions": int(evictions),
                }
        if self.spans is not None:
            payload["spans"] = {
                "sample": self.spans.sample,
                "runs": self.spans.runs,
                "runs_sampled": self.spans.runs_sampled,
            }
        if self.history is not None:
            payload["history"] = {
                "capacity": self.history.capacity,
                "interval": self.history.interval,
                "samples": len(self.history),
                "span_seconds": self.history.span,
                "captures": self.history.captures,
            }
        if self.rules is not None:
            payload["rules"] = {
                "count": len(self.rules.rules),
                "evaluations": self.rules.evaluations,
                "firing": sorted(r.id for r in self.rules.firing()),
            }
        flight = self.debug_flight()
        if flight.get("enabled"):
            payload["flight"] = flight
        for name, provider in self._debug_providers.items():
            payload[name] = provider()
        payload["registry"] = snapshot
        return payload

    @_locked
    def refresh(self) -> None:
        """Re-publish live/quality gauges (the pre-scrape hook)."""
        if self.live is not None:
            self.live.publish(self.registry, self.labels)
        if self.quality is not None:
            self.quality.publish(self.registry, self.labels)
        if self.spans is not None:
            self.spans.publish(self.registry, self.labels)

    @_locked
    def healthz(self) -> dict:
        """Deadline + drift + ingest health, the ``/healthz`` payload.

        Without rules the raw checks gate the probe: a blown deadline
        verdict, a tripped drift detector or a quarantine burn > 1.
        With rules armed their blocks stay as data and only a firing
        ``page`` rule fails it — the shipped rules encode the same
        checks with their ``for:`` holds, and ``/healthz`` reads the
        rule states ``/alerts`` serves, so the two can never disagree.
        A health hook reporting ``ok: False`` fails it either way."""
        payload: dict = {"status": "ok"}
        red = False
        live = self.live
        if live is not None:
            verdict = live.verdict()
            if verdict is None and live.deadline is None:
                # No budget configured: report quantiles only.
                payload["latency_quantiles"] = live.sketch.quantiles()
            elif verdict is not None:
                payload["deadline"] = verdict.as_dict()
                red = not verdict.ok
            payload["message_rate_hz"] = live.rate.rate
            payload["stream_lag_seconds"] = live.stream_lag.lag
        if self.quality is not None:
            drift = self.quality.drift.as_dict()
            payload["drift"] = drift
            red = red or drift["tripped"]
        engine = self.rules
        if engine is not None:
            firing = engine.firing()
            payload["alerts"] = {
                "firing": sorted(r.id for r in firing),
                "pending": sorted(
                    r.id for r in engine.rules
                    if engine.states[r.id].state == "pending"),
            }
        ingest = self.ingest
        if ingest.lines_read:
            # Quarantine-rate burn: the fraction of undecodable input
            # vs the allowed SLO fraction.  >1 means the stream is
            # dirtier than the deployment budgeted for — predictions
            # are running on a partial view.
            fraction = ingest.quarantine_fraction
            burn = fraction / self.quarantine_slo
            payload["ingest"] = {
                "lines_read": ingest.lines_read,
                "quarantined": ingest.quarantined,
                "quarantine_fraction": fraction,
                "slo_fraction": self.quarantine_slo,
                "burn_rate": burn,
                "late": ingest.late,
                "ok": burn <= 1.0,
            }
            red = red or burn > 1.0
        if engine is not None:
            red = any(r.severity == "page" for r in firing)
        for name, hook in self._health_hooks.items():
            block = hook()
            payload[name] = block
            if isinstance(block, dict) and block.get("ok") is False:
                red = True
        if red:
            payload["status"] = "failing"
        return payload

    @_locked
    def quality_report(self) -> dict:
        """The rolling scoreboard as JSON, the ``/quality`` payload."""
        quality = self.quality
        if quality is None:
            return {"enabled": False}
        payload = quality.score().as_dict()
        payload["enabled"] = True
        payload["window_seconds"] = quality.window
        payload["horizon_seconds"] = quality.horizon
        payload["now"] = quality.now
        payload["drift"] = quality.drift.as_dict()
        return payload

    # -- exposition ----------------------------------------------------
    @_locked
    def prometheus(self) -> str:
        from .exposition import render_prometheus

        return render_prometheus(self.registry.snapshot())

    @_locked
    def json(self) -> str:
        from .exposition import render_json

        return render_json(self.registry.snapshot())

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


__all__ = [
    "ALL_SERIES",
    "CHAIN_STARTED",
    "DAEMON_RULES",
    "DEFAULT_RULES",
    "DELTA_T_TIMEOUT",
    "EVENT_KINDS",
    "FUNNEL_STAGES",
    "SPAN_STAGES",
    "STAGE_DECODE",
    "STAGE_EMIT",
    "STAGE_INGEST",
    "STAGE_MATCH",
    "STAGE_SCAN",
    "TRIGGER_ALERT",
    "TRIGGER_REASONS",
    "TRIGGER_SHUTDOWN",
    "AlertRule",
    "Counter",
    "DeadlineMonitor",
    "DeadlineVerdict",
    "DiscardDriftDetector",
    "EwmaRate",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistoryRing",
    "LiveMonitor",
    "NULL_REGISTRY",
    "NullRegistry",
    "ObsServer",
    "Observability",
    "P2Quantile",
    "PARSER_RESET",
    "PREDICTION_FIRED",
    "PrometheusParseError",
    "QualityScore",
    "QualityScoreboard",
    "QuantileSketch",
    "Registry",
    "RuleEngine",
    "SpanClock",
    "SpanTimer",
    "StreamLag",
    "TOKEN_ADVANCED",
    "Tracer",
    "daemon_ruleset",
    "default_ruleset",
    "diff_snapshots",
    "group_history_records",
    "histogram_series",
    "inter_arrival_budget",
    "lifecycle_counts",
    "load_rules",
    "parse_history_ndjson",
    "parse_prometheus",
    "read_capsule",
    "read_trace",
    "realized_lead_times",
    "render_json",
    "render_prometheus",
    "reset_series",
    "rules_to_toml",
    "series_display_name",
    "shard_span_breakdown",
    "snapshot_asymmetry",
    "validate_rules",
]
