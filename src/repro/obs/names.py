"""Canonical metric names, in one place so every layer agrees.

Exposition, reports, the live ops plane, and the tests all refer to
series by these constants; the strings themselves follow Prometheus
conventions (``_total`` suffix on counters, base units in the name).
Everything here is re-exported from :mod:`repro.obs`.
"""

from __future__ import annotations

# -- predictor / fleet counters (PR 2, the passive layer) --------------
LINES_SEEN = "aarohi_lines_seen_total"
LINES_TOKENIZED = "aarohi_lines_tokenized_total"
PREDICTIONS = "aarohi_predictions_total"
TOKENIZE_SECONDS = "aarohi_tokenize_seconds_total"
FEED_SECONDS = "aarohi_feed_seconds_total"
PREDICTION_SECONDS = "aarohi_prediction_seconds"

SCANNER_FIRST_CHAR_REJECTED = "aarohi_scanner_first_char_rejected_total"
SCANNER_MEMO_HITS = "aarohi_scanner_memo_hits_total"
SCANNER_DFA_RUNS = "aarohi_scanner_dfa_runs_total"
SCANNER_DFA_MATCHES = "aarohi_scanner_dfa_matches_total"
SCANNER_TRANSLATE_EVICTIONS = "aarohi_scanner_translate_evictions_total"

CHAIN_ACTIVATIONS = "aarohi_chain_activations_total"
TOKENS_ADVANCED = "aarohi_tokens_advanced_total"
TOKENS_SKIPPED = "aarohi_tokens_skipped_total"
CHAIN_TIMEOUTS = "aarohi_chain_timeouts_total"
CHAIN_MATCHES = "aarohi_chain_matches_total"
NEGATIVE_DELTA_T = "aarohi_negative_delta_t_total"

# -- ingest hardening (ISSUE 5): tolerant decode + time discipline -----
INGEST_LINES_READ = "aarohi_ingest_lines_read_total"
INGEST_DECODED = "aarohi_ingest_decoded_total"
INGEST_QUARANTINED = "aarohi_ingest_quarantined_total"
INGEST_REORDERED = "aarohi_ingest_reordered_total"
INGEST_LATE = "aarohi_ingest_late_total"
INGEST_QUARANTINE_FRACTION = "aarohi_ingest_quarantine_fraction"
INGEST_QUARANTINE_BURN = "aarohi_ingest_quarantine_burn_rate"

# -- span tracing (ISSUE 7): per-stage pipeline time attribution -------
SPAN_STAGE_SECONDS = "aarohi_span_stage_seconds_total"
SPAN_STAGE_RECORDS = "aarohi_span_stage_records_total"
SPAN_RUN_SECONDS = "aarohi_span_run_seconds_total"
SPAN_RUNS = "aarohi_span_runs_total"
SPAN_RUNS_SAMPLED = "aarohi_span_runs_sampled_total"
SPAN_STAGE_LATENCY = "aarohi_span_stage_seconds_per_record"

# Scanner backend identity (str/native), exposed as an info-style
# gauge: one series with a ``backend`` label, value pinned to 1.  When
# the *requested* backend degraded (native without a C compiler, with
# a failed compile, or on a catalog without an exact byte alphabet),
# the fallback counter carries one series labelled
# requested=<asked>/backend=<got>.
SCANNER_BACKEND_INFO = "aarohi_scanner_backend_info"
SCANNER_BACKEND_FALLBACK = "aarohi_scanner_backend_fallback_total"

# -- flight recorder (ISSUE 7): black-box crash capsules ---------------
FLIGHT_CAPSULES = "aarohi_flight_capsules_total"
FLIGHT_EVENTS_BUFFERED = "aarohi_flight_events_buffered"

FLEET_RUNS = "aarohi_fleet_runs_total"
FLEET_RUN_SECONDS = "aarohi_fleet_run_seconds"
FLEET_EVENTS_PER_SECOND = "aarohi_fleet_events_per_second"
FLEET_NODES = "aarohi_fleet_nodes"
FLEET_BATCH_EVENTS = "aarohi_fleet_batch_events"

LOGSIM_EVENTS = "aarohi_logsim_events_emitted_total"
LOGSIM_FAULTS = "aarohi_logsim_faults_injected_total"
LOGSIM_WINDOWS = "aarohi_logsim_windows_total"

# -- live ops plane (ISSUE 3): deadline / SLO monitor ------------------
LIVE_LATENCY_QUANTILE = "aarohi_live_prediction_latency_seconds"
LIVE_MESSAGE_RATE = "aarohi_live_message_rate_hz"
LIVE_STREAM_LAG = "aarohi_live_stream_lag_seconds"
DEADLINE_BUDGET = "aarohi_deadline_budget_seconds"
DEADLINE_OK = "aarohi_deadline_ok"
DEADLINE_BREACHES = "aarohi_deadline_breaches_total"
SLO_BURN = "aarohi_slo_burn_rate"

# -- live ops plane: online quality scoreboard -------------------------
QUALITY_TRUE_POSITIVES = "aarohi_quality_true_positives"
QUALITY_FALSE_POSITIVES = "aarohi_quality_false_positives"
QUALITY_FALSE_NEGATIVES = "aarohi_quality_false_negatives"
QUALITY_PRECISION = "aarohi_quality_precision"
QUALITY_RECALL = "aarohi_quality_recall"
QUALITY_F1 = "aarohi_quality_f1"
QUALITY_LEAD_SECONDS = "aarohi_quality_lead_seconds"
QUALITY_ACTIONABLE_RATIO = "aarohi_quality_actionable_ratio"
QUALITY_MEAN_LEAD = "aarohi_quality_mean_lead_seconds"

DISCARD_FRACTION = "aarohi_scanner_discard_fraction"
DISCARD_CUSUM = "aarohi_scanner_discard_cusum"
DISCARD_DRIFT_ALARM = "aarohi_scanner_discard_drift_alarm"
DISCARD_DRIFT_TRIPPED = "aarohi_scanner_discard_drift_tripped"

# -- fleet daemon (ISSUE 10): live-ingest service plane ----------------
DAEMON_UPTIME_SECONDS = "aarohi_daemon_uptime_seconds"
DAEMON_CONNECTIONS_ACTIVE = "aarohi_daemon_connections_active"
DAEMON_CONNECTIONS_TOTAL = "aarohi_daemon_connections_total"
DAEMON_LINES_RECEIVED = "aarohi_daemon_lines_received_total"
DAEMON_BACKPRESSURE_STALLS = "aarohi_daemon_backpressure_stalls_total"
DAEMON_QUEUE_CHUNKS = "aarohi_daemon_queue_chunks"
DAEMON_SHARDS = "aarohi_daemon_shards"
DAEMON_SHARDS_UP = "aarohi_daemon_shards_up"
DAEMON_SHARDS_DOWN = "aarohi_daemon_shards_down"
DAEMON_WORKER_DEATHS = "aarohi_daemon_worker_deaths_total"
DAEMON_HANDOFFS = "aarohi_daemon_handoffs_total"
DAEMON_CHAINS_RESTORED = "aarohi_daemon_chains_restored_total"
DAEMON_TAIL_ROTATIONS = "aarohi_daemon_tail_rotations_total"
DAEMON_WORKER_START_SECONDS = "aarohi_daemon_worker_start_seconds"

# -- history ring + alert rules (ISSUE 8) ------------------------------
HISTORY_CAPTURES = "aarohi_history_captures_total"
HISTORY_SAMPLES = "aarohi_history_samples"
HISTORY_SPAN_SECONDS = "aarohi_history_span_seconds"
ALERT_STATE = "aarohi_alert_state"
ALERTS_FIRING = "aarohi_alerts_firing"
ALERT_TRANSITIONS = "aarohi_alert_transitions_total"

# The rejection-funnel stage names, in pipeline order.  Their counter
# values sum to LINES_SEEN (asserted by the equivalence suite).  The
# merged-DFA scanner has exactly three terminal stages per line: the
# first-char table rejects it, the memo answers it, or the DFA walks it.
FUNNEL_STAGES = (
    (SCANNER_FIRST_CHAR_REJECTED, "first-char rejected"),
    (SCANNER_MEMO_HITS, "memo hits"),
    (SCANNER_DFA_RUNS, "full DFA runs"),
)

# The ingest funnel, one level up: every line offered to the decoder is
# either decoded or quarantined, so these two counters sum to
# INGEST_LINES_READ (asserted by the robustness suite).
INGEST_FUNNEL_STAGES = (
    (INGEST_DECODED, "decoded"),
    (INGEST_QUARANTINED, "quarantined"),
)

# Every canonical series name defined above, for alert-rule linting
# (``aarohi obs-rules --check``): a rule watching a series no layer can
# ever publish is a typo, not a rule.  Collected from the module's own
# UPPER_CASE ``aarohi_*`` string constants so adding a name here is
# automatically enough.
ALL_SERIES = tuple(sorted(
    value
    for key, value in list(globals().items())
    if key.isupper() and isinstance(value, str)
    and value.startswith("aarohi_")
))
