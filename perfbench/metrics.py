"""Every metric the benchmark reports, and why each one is there.

``BENCHMARK.json`` lists the same names, units, directions and bounds (a
self-test pins the two together).  Its keys are fixed, so the rest of
the rationale lives here: for each per-layer metric, the end-to-end
metric and workload it should move (``moves``), which the traced run
also prints, so later changes can cite both by name.
"""

from __future__ import annotations

from typing import NamedTuple

WORKLOADS = ("replay_quiet", "replay_storm", "serve_paced")


class Metric(NamedTuple):
    unit: str
    better: str
    moves: str = ""  # per-layer: the end-to-end metric and workload
    bound: float = 0.0  # end-to-end: allowed worsening, share of median


REPLAYS = "replay_quiet and replay_storm"
DAEMON = "serve_paced"

END_TO_END = {
    "setup_s": Metric("s", "lower", bound=0.25),
    "events_per_s": Metric("ev/s", "higher", bound=0.25),
    "peak_rss_mb": Metric("MB", "lower", bound=0.1),
    "cpu_us_per_event": Metric("us", "lower", bound=0.25),
    "decision_delay_p50_ms": Metric("ms", "lower", bound=0.25),
    "decision_delay_p95_ms": Metric("ms", "lower", bound=0.25),
}

PER_LAYER = {
    # cli and persistence: the fixed cost before the first line.
    "setup.import_ms": Metric("ms", "lower", f"setup_s on {REPLAYS}"),
    "setup.bundle_ms": Metric("ms", "lower", f"setup_s on {REPLAYS}"),
    "setup.scanner_load_ms": Metric("ms", "lower", f"setup_s on {REPLAYS}"),
    "setup.scanner_cold_ms": Metric(
        "ms", "lower", "nothing: a cold compile is never inside setup_s"),
    "setup.workers_ready_ms": Metric("ms", "lower", f"setup_s on {DAEMON}"),
    # logsim.stream: ingest, clean path on replay_quiet, tolerant on storm.
    "ingest.records_per_s": Metric(
        "1/s", "higher", f"events_per_s on {REPLAYS}"),
    "ingest.share": Metric("ratio", "lower", f"events_per_s on {REPLAYS}"),
    "ingest.quarantined": Metric(
        "count", "lower", "events_per_s on replay_storm"),
    "ingest.reordered": Metric(
        "count", "lower", "events_per_s on replay_storm"),
    # templates, codegen and native: the scan kernel.
    "scan.ns_per_line": Metric("ns", "lower", "events_per_s on replay_quiet"),
    "scan.hit_ratio": Metric(
        "ratio", "higher", "events_per_s on replay_quiet"),
    "scan.share": Metric("ratio", "lower", "events_per_s on replay_quiet"),
    # core.matcher and core.predictor: match.
    "match.us_per_hit": Metric("us", "lower", "events_per_s on replay_storm"),
    "match.prediction_ratio": Metric(
        "ratio", "higher", "events_per_s on replay_storm"),
    "match.prediction_time_p50_ms": Metric(
        "ms", "lower", "events_per_s on replay_storm"),
    "match.prediction_time_p99_ms": Metric(
        "ms", "lower", "events_per_s on replay_storm"),
    # core.fleet: route and emit.
    "route.us_per_hit": Metric("us", "lower", "events_per_s on replay_storm"),
    "emit.predictions": Metric(
        "count", "higher", "events_per_s on replay_storm"),
    # core.daemon and its shard workers.
    "daemon.submit_us_per_line": Metric(
        "us", "lower", f"cpu_us_per_event and decision_delay_* on {DAEMON}"),
    "daemon.parent_cpu_us_per_line": Metric(
        "us", "lower", f"cpu_us_per_event on {DAEMON}"),
    "daemon.shard_cpu_us_per_line": Metric(
        "us", "lower", f"cpu_us_per_event on {DAEMON}"),
    "daemon.lines_per_chunk": Metric(
        "count", "higher",
        f"cpu_us_per_event (down) and decision_delay_* (up) on {DAEMON}"),
    "daemon.read_ms_p50": Metric(
        "ms", "lower", f"decision_delay_* on {DAEMON}"),
    "daemon.ship_ms_p50": Metric(
        "ms", "lower", f"decision_delay_* on {DAEMON}"),
    "daemon.backpressure_stalls": Metric(
        "count", "lower", f"decision_delay_p95_ms on {DAEMON}"),
    "daemon.shard_skew": Metric(
        "ratio", "lower", f"decision_delay_p95_ms on {DAEMON}"),
    # obs: what watching the daemon costs.
    "obs.merge_us_per_chunk": Metric(
        "us", "lower", f"cpu_us_per_event on {DAEMON}"),
    "obs.tick_ms": Metric("ms", "lower", f"cpu_us_per_event on {DAEMON}"),
    # The load generator, which is not part of the program.
    "loadgen.lag_max_ms": Metric(
        "ms", "lower", f"decision_delay_p95_ms on {DAEMON}"),
    # What the traced run's own spans cost against the untraced run.
    "trace.pass_overhead_pct": Metric(
        "%", "lower", "nothing: tracing cost of the layer sweep"),
    "trace.daemon_overhead_pct": Metric(
        "%", "lower", "nothing: tracing cost of the paced daemon phase"),
}
