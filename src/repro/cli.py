"""Command-line interface: ``aarohi <subcommand>``.

Thin wrappers over the library so each piece of the paper's workflow
(Fig. 6) is drivable from a shell:

* ``generate`` — synthesize a cluster log window to a file
* ``rules`` — print Algorithm 1's rule derivation (Table IV style)
* ``predict`` — run the predictor fleet over a log file
* ``pipeline`` — full two-phase run (generate → mine → predict → metrics)
* ``speedup`` — quick Table VI-style comparison on this machine
* ``obs-report`` — render a ``--metrics`` snapshot (and optionally a
  ``--trace`` file) as funnel / latency / lifecycle summaries, the
  delta of two snapshots (``--diff BEFORE AFTER``), or just the stage
  span tables (``--spans``)
* ``obs-serve`` — replay a log through a live-instrumented fleet while
  serving ``/metrics``, ``/healthz``, ``/quality``, ``/alerts``, and
  the ``/debug/*`` plane over HTTP
* ``obs-rules`` — lint an alert-rules file (``--check``, exit 2 on
  problems) or print the shipped default ruleset as TOML
* ``serve`` — persistent sharded live-ingest daemon: accept line
  streams over TCP / unix sockets, tail rotating files, survive worker
  death via chain-state handoff, and serve the obs HTTP plane
* ``stream`` — replay a log file *as a live stream* (optionally paced
  against event time) to a ``serve`` daemon or stdout

Long-running commands (``predict``, ``obs-serve``, ``serve``) install
a SIGTERM handler: on termination they drain gracefully — flush a
``shutdown`` flight capsule and write the final ``--metrics`` snapshot
— and exit 143, so an orchestrator's ``kill`` never loses the run's
accounting.
"""

from __future__ import annotations

import argparse
import json as _json
import math
import signal
import sys
import time
from itertools import islice
from statistics import mean
from typing import Callable, List, Optional

from .codegen import SCAN_BACKENDS
from .core import PredictorFleet, build_rules, pair_predictions
from .logsim import (
    ERROR_POLICIES,
    IngestStats,
    frame_records,
    read_truth,
    system_by_name,
    write_log,
    write_truth,
)
from .logsim.stream import byte_chunks
from .obs import (
    LiveMonitor,
    Observability,
    SpanClock,
    Tracer,
    inter_arrival_budget,
)
from .reporting import render_table


SIGTERM_EXIT = 143  # 128 + SIGTERM, the conventional termination code


#: The commands that drive the log simulator, which needs numpy (the
#: [fast] extra): :func:`main` checks for it before one runs.  Each
#: imports the simulator where it runs: spawn re-runs this module in
#: every ``serve`` shard worker (DESIGN.md §5.14).
SIMULATOR_COMMANDS = ("generate", "pipeline", "speedup", "fieldstudy")


def _trained_bundle(args: argparse.Namespace):
    """The predictor bundle of ``args.system``: its catalog's template
    store, Phase 1's trained chains and the parsing timeout, built from
    committed tables without the simulator or numpy.  ``--seed`` seeds
    only the simulator's windows, never the bundle."""
    from .logsim.bundle import trained_bundle

    return trained_bundle(system_by_name(args.system))


class _Terminated(Exception):
    """Raised by the SIGTERM handler to unwind into the graceful-drain
    path of whatever command is running."""

    def __init__(self, signame: str = "SIGTERM"):
        super().__init__(signame)
        self.signame = signame


def _install_sigterm() -> None:
    """Route SIGTERM through :class:`_Terminated` so ``finally`` blocks
    and context managers run (a bare default handler would kill the
    process mid-write).  A no-op off the main thread, where Python
    forbids signal handlers (tests drive commands in-process)."""

    def handler(signum, frame):
        raise _Terminated(signal.Signals(signum).name)

    try:
        signal.signal(signal.SIGTERM, handler)
    except ValueError:
        pass


def _flush_shutdown(obs, signame: str) -> None:
    """Freeze the flight ring into a shutdown capsule (when armed) and
    say where it landed."""
    if obs is None:
        return
    text = obs.flush_shutdown(signal=signame)
    if text is not None and obs.flight is not None \
            and obs.flight.last_capsule_path is not None:
        print(f"flight capsule (shutdown): {obs.flight.last_capsule_path}",
              file=sys.stderr)


def _add_system_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system", default="HPC3",
        choices=["HPC1", "HPC2", "HPC3", "HPC4"],
        help="which Table II system to simulate",
    )
    parser.add_argument("--seed", type=int, default=7)


def _add_scan_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scan-backend", default="native", choices=SCAN_BACKENDS,
        help="scan kernel family: native (default: compiled C kernel; "
             "falls back to str without a C compiler or an exact byte "
             "alphabet), str (decoded text)")


def _add_ingest_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-error", default="warn", choices=list(ERROR_POLICIES),
        help="malformed-line policy: strict raises, warn logs and "
             "quarantines, quarantine counts silently (default: warn)",
    )
    parser.add_argument(
        "--reorder-horizon", type=float, default=0.0, metavar="SECONDS",
        help="buffer the stream and re-sort events arriving up to this "
             "many seconds out of order (default: 0, off)",
    )


def _ingest_summary(stats: IngestStats) -> Optional[str]:
    if not stats.lines_read:
        return None
    parts = [f"ingest: {stats.decoded}/{stats.lines_read} lines decoded"]
    if stats.quarantined:
        reasons = ", ".join(
            f"{n} {reason}" for reason, n
            in sorted(stats.quarantined_by_reason.items()))
        parts.append(f"{stats.quarantined} quarantined ({reasons})")
    if stats.reordered:
        parts.append(f"{stats.reordered} reordered")
    if stats.late:
        parts.append(f"{stats.late} late (past the horizon)")
    return "; ".join(parts)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics", metavar="OUT.prom", default=None,
        help="write a Prometheus text-format metrics snapshot here",
    )
    parser.add_argument(
        "--trace", metavar="TRACE.jsonl", default=None,
        help="write prediction-lifecycle trace records (JSONL) here",
    )
    parser.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of chain activations to trace (default: all)",
    )
    parser.add_argument(
        "--spans", type=float, default=0.0, metavar="SAMPLE",
        help="time pipeline stages (ingest/decode/scan/match/emit) on "
             "this fraction of runs (default: 0, off; 1.0 = every run)",
    )
    parser.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="arm the flight recorder: each alert rule that fires (the "
             "shipped ruleset unless --rules names one) dumps a JSONL "
             "crash capsule into DIR",
    )
    parser.add_argument(
        "--history", type=float, default=None, metavar="SECONDS",
        help="arm the in-process history ring, capturing a registry "
             "sample at most every SECONDS (0 = every run); --watch "
             "and --flight-dir arm it automatically",
    )
    parser.add_argument(
        "--rules", default=None, metavar="RULES",
        help="evaluate alert rules on the history cadence: a [[rule]] "
             "TOML file, or the literal word 'default' for the shipped "
             "ruleset (implies --history)",
    )


def _make_obs(
    args: argparse.Namespace, config=None
) -> Optional[Observability]:
    """Build the Observability the flags ask for (None = fully off).

    ``--watch`` turns on the live monitor (deadline budget derived from
    the system config); ``--truth`` turns on the quality scoreboard,
    pre-loaded with the ground-truth failures.
    """
    watch = getattr(args, "watch", False)
    trace = getattr(args, "trace", None)
    truth = getattr(args, "truth", None)
    spans_sample = getattr(args, "spans", 0.0)
    flight_dir = getattr(args, "flight_dir", None)
    history_interval = getattr(args, "history", None)
    rules_source = getattr(args, "rules", None)
    if not (args.metrics or trace or watch or truth
            or spans_sample or flight_dir
            or history_interval is not None or rules_source):
        return None
    from .obs import FlightRecorder, QualityScoreboard, default_ruleset

    tracer = None
    if trace:
        tracer = Tracer(trace, sample=args.trace_sample)
    live = None
    if watch:
        budget = inter_arrival_budget(config) if config is not None else None
        live = LiveMonitor(budget)
    quality = None
    if truth:
        quality = QualityScoreboard()
        quality.add_failures(read_truth(truth))
    spans = SpanClock(spans_sample) if spans_sample > 0.0 else None
    flight = FlightRecorder(directory=flight_dir) if flight_dir else None
    history, rules = _make_history(
        history_interval, rules_source,
        default_ruleset() if watch else None)
    return Observability(tracer=tracer, live=live, quality=quality,
                         spans=spans, flight=flight,
                         history=history, rules=rules)


def _make_history(
    history_interval: Optional[float],
    rules_source: Optional[str],
    default_rules=None,
):
    """Build the (history ring, rule engine) pair the flags ask for.

    ``default_rules`` is the command's ruleset when ``--rules`` names
    none: the shipped rules under ``--watch`` and ``obs-serve`` (the
    dashboard's trend columns and firing-alerts banner need them), the
    daemon rules under ``serve``, none under a plain ``predict``.  A
    ruleset arms the ring; ``--history`` sets only its interval.
    """
    from .obs import HistoryRing, RuleEngine, default_ruleset, load_rules

    if history_interval is not None and history_interval < 0:
        raise SystemExit("--history must be >= 0 seconds")
    if rules_source:
        try:
            default_rules = (default_ruleset() if rules_source == "default"
                             else load_rules(rules_source))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load rules {rules_source!r}: {exc}")
    rules = RuleEngine(default_rules) if default_rules is not None else None
    if history_interval is not None:
        return HistoryRing(interval=history_interval), rules
    return (HistoryRing() if rules is not None else None), rules


def _finish_obs(args: argparse.Namespace, obs: Optional[Observability]) -> None:
    if obs is None:
        return
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus())
    if obs.rules is not None:
        firing = obs.rules.firing()
        if firing:
            rules = ", ".join(
                f"{r.id} ({r.severity})" for r in firing)
            print(f"alerts firing: {rules}", file=sys.stderr)
    if obs.flight is not None and obs.flight.last_capsule_path is not None:
        print(f"flight capsule ({obs.flight.last_reason}): "
              f"{obs.flight.last_capsule_path}", file=sys.stderr)
    obs.close()


def cmd_generate(args: argparse.Namespace) -> int:
    from .logsim.generator import ClusterLogGenerator

    gen = ClusterLogGenerator(system_by_name(args.system), seed=args.seed)
    window = gen.generate_window(
        duration=args.duration, n_nodes=args.nodes, n_failures=args.failures,
    )
    if args.corrupt > 0:
        from .logsim.corruptions import CorruptionSpec, corrupt_window

        spec = CorruptionSpec.all_kinds(args.corrupt)
        lines, report = corrupt_window(
            window.events, spec, seed=args.seed)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(line + "\n" for line in lines)
        count = len(lines)
        faults = ", ".join(
            f"{v} {k}" for k, v in report.as_dict().items()
            if v and not k.startswith("events_"))
        print(f"corrupted at p={args.corrupt:g}: {faults}")
    else:
        count = write_log(window.events, args.out)
    print(f"wrote {count} events for {len(window.nodes)} nodes to {args.out}")
    print(f"injected {len(window.failures)} failures "
          f"({sum(1 for i in window.injections if i.kind == 'novel')} novel)")
    if args.truth:
        n_truth = write_truth(window.failures, args.truth)
        print(f"wrote {n_truth} ground-truth failures to {args.truth}")
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    rule_set = build_rules(_trained_bundle(args).chains, factor=not args.flat)
    print(rule_set.describe())
    return 0


def _watch_frame(obs: Observability) -> str:
    """One dashboard refresh: firing-alerts banner, funnel, latency,
    fleet, live, quality, alert-rule states, history trends."""
    from .obs import group_history_records
    from .obs.report import (
        alerts_banner,
        alerts_section,
        history_trend_section,
        report_sections,
    )

    obs.refresh()
    sections = report_sections(obs.registry.snapshot())
    alerts = obs.alerts_report()
    banner = alerts_banner(alerts)
    if banner is not None:
        sections.insert(0, banner)
    table = alerts_section(alerts)
    if table is not None:
        sections.append(table)
    records = obs.history_records()
    if records:
        trends = history_trend_section(
            group_history_records(records), limit=16,
            title="History trends (ring)")
        if trends is not None:
            sections.append(trends)
    return "\n\n".join(sections)


def _replay_slices(
    fleet: PredictorFleet,
    args: argparse.Namespace,
    after_slice: Callable[[int, int], None],
):
    """Replay ``args.log`` through ``fleet`` in ``args.slices`` slices,
    calling ``after_slice(done, total)`` (in framed lines) after each:
    the replay behind ``predict --watch`` and ``obs-serve``.

    A first pass counts the framed records, which sizes the slices.  The
    second frames the file in fixed-size reads, with the reorder horizon
    applied across the whole stream (a buffer per slice would restart at
    every slice boundary and change the predictions), and runs each
    slice as soon as it is framed, as one blob through ``run_lines`` at
    ``timing="sampled"`` — the fused pass on ``native`` — so the replay
    predicts what a one-shot ``predict`` does while it holds one slice
    of the file at a time.  Before each slice the framer's
    ``reordered``/``late`` so far fold into the fleet's obs, and the
    slice folds its own decode funnel before its history capture, so
    every slice's rules pass sees the run's quarantine burn so far.
    """
    from .core.fleet import FleetReport

    total = FleetReport(ingest=IngestStats())
    n_records = sum(1 for _ in frame_records(byte_chunks(args.log)))
    size = max(1, math.ceil(n_records / max(1, args.slices)))
    framed = IngestStats()  # the framer's counts since the last fold
    records = frame_records(
        byte_chunks(args.log), args.reorder_horizon, framed)
    done = 0
    for piece in iter(lambda: list(islice(records, size)), []):
        fleet.obs.record_ingest(framed)
        total.ingest.add(framed)
        framed.reordered = framed.late = 0  # the framer counts on
        report = fleet.run_lines(
            b"\n".join(piece), on_error=args.on_error, timing="sampled")
        total.predictions.extend(report.predictions)
        total.stats.add(report.stats)
        total.ingest.add(report.ingest)
        total.nodes = report.nodes
        done += len(piece)
        after_slice(done, n_records)
    return total


def cmd_predict(args: argparse.Namespace) -> int:
    _install_sigterm()
    config = system_by_name(args.system)
    obs = _make_obs(args, config)
    fleet = _trained_bundle(args).make_fleet(
        backend=args.backend, obs=obs, scan_backend=args.scan_backend)
    try:
        if getattr(args, "watch", False):
            clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""

            def redraw(done: int, total: int) -> None:
                print(f"{clear}— watch: {done}/{total} lines —\n")
                print(_watch_frame(obs))

            report = _replay_slices(fleet, args, redraw)
            ingest = report.ingest
        else:
            # Sampled timing clocks only the FC-related chain checks,
            # so the native fleet keeps its fused single-pass scan;
            # run_lines folds ingest into obs itself.
            report = fleet.run_lines(
                args.log, on_error=args.on_error,
                reorder_horizon=args.reorder_horizon, timing="sampled",
            )
            ingest = report.ingest
    except _Terminated as term:
        # Graceful drain: everything processed so far is accounted —
        # shutdown capsule + final metrics snapshot, then the
        # conventional 143.
        print(f"predict: {term.signame} — draining", file=sys.stderr)
        _flush_shutdown(obs, term.signame)
        _finish_obs(args, obs)
        return SIGTERM_EXIT
    _finish_obs(args, obs)
    if args.json:
        scanner = fleet.scanner
        funnel = {}
        if scanner is not None and hasattr(scanner, "funnel"):
            funnel = scanner.funnel(report.lines_seen)
        print(_json.dumps({
            "system": args.system,
            "predictions": [
                {
                    "node": p.node,
                    "chain": p.chain_id,
                    "flagged_at": p.flagged_at,
                    "prediction_time": p.prediction_time,
                }
                for p in report.predictions
            ],
            "stats": {
                "lines_seen": report.lines_seen,
                "lines_tokenized": report.lines_tokenized,
                "fc_related_fraction": report.fc_related_fraction,
                "nodes": report.nodes,
            },
            "scanner": {
                "backend": getattr(scanner, "backend", None) or "str",
                "requested_backend": getattr(
                    scanner, "requested_backend", None)
                or getattr(scanner, "backend", None) or "str",
                "fallback": getattr(scanner, "requested_backend", None)
                not in (None, getattr(scanner, "backend", None)),
                "translate_evictions": funnel.get("translate_evictions", 0),
            },
            "ingest": ingest.as_dict(),
        }))
        return 0
    rows = [
        (p.node, p.chain_id, f"{p.flagged_at:.3f}",
         f"{p.prediction_time * 1e3:.4f}")
        for p in report.predictions
    ]
    print(render_table(
        ["node", "chain", "flagged_at (s)", "prediction time (ms)"], rows,
        title=f"{len(rows)} predictions "
              f"({report.fc_related_fraction:.1%} of phrases FC-related)",
    ))
    summary = _ingest_summary(ingest)
    if summary is not None:
        print(summary)
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    from .logsim.generator import ClusterLogGenerator
    from .training import (
        EventLabeler, anomaly_sequences, confusion_from_predictions,
        mine_chains, terminal_tokens,
    )

    config = system_by_name(args.system)
    gen = ClusterLogGenerator(config, seed=args.seed)
    train = gen.generate_window(
        duration=args.duration, n_nodes=args.nodes, n_failures=args.failures)
    test = gen.generate_window(
        duration=args.duration, n_nodes=args.nodes, n_failures=args.failures)

    labeler = EventLabeler(gen.store)
    sequences = anomaly_sequences(labeler.label_stream(train.events))
    terminals = terminal_tokens(gen.store, ["node down", "node *", "shutting down"])
    mined = mine_chains(sequences, terminals, min_support=1)
    if not args.json:
        print(f"Phase 1: mined {len(mined.chains)} chains "
              f"from {len(mined.candidates)} candidates")

    fleet = PredictorFleet.from_store(
        mined.chains, gen.store, timeout=gen.recommended_timeout)
    report = fleet.run(test.events)
    pairing = pair_predictions(report.predictions, test.failures)
    confusion = confusion_from_predictions(
        report.predictions, test.failures, test.nodes)
    pct = confusion.as_percentages()
    if args.json:
        print(_json.dumps({
            "system": config.name,
            "mined_chains": len(mined.chains),
            "candidates": len(mined.candidates),
            "predictions": len(report.predictions),
            "failures": len(test.failures),
            "recall_pct": pct["recall"],
            "precision_pct": pct["precision"],
            "accuracy_pct": pct["accuracy"],
            "fnr_pct": pct["fnr"],
            "mean_lead_time_s": pairing.mean_lead_time(),
            "mean_prediction_time_s": pairing.mean_prediction_time(),
        }, indent=2))
        return 0
    print(render_table(
        ["metric", "value"],
        [
            ("recall %", f"{pct['recall']:.1f}"),
            ("precision %", f"{pct['precision']:.1f}"),
            ("accuracy %", f"{pct['accuracy']:.1f}"),
            ("FNR %", f"{pct['fnr']:.1f}"),
            ("mean lead time (min)", f"{pairing.mean_lead_time() / 60:.2f}"),
            ("mean prediction time (ms)",
             f"{pairing.mean_prediction_time() * 1e3:.4f}"),
        ],
        title=f"{config.name} two-phase pipeline",
    ))
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    from .baselines import (
        AarohiMessageDetector, CloudSeerMessageDetector, DeepLogDetector,
        DeshDetector, KeyedLSTMMessageDetector, repeat_message_checks,
    )
    from .logsim.generator import ClusterLogGenerator
    from .templates.store import NaiveTemplateScanner

    import numpy as np

    gen = ClusterLogGenerator(system_by_name(args.system), seed=args.seed)
    chains = gen.chains
    rng = np.random.default_rng(args.seed)
    chain_def = max(gen.trained_defs, key=lambda d: len(d.phrase_keys))
    entries = []
    for i in range(args.length):
        key = chain_def.phrase_keys[i % len(chain_def.phrase_keys)]
        entries.append((gen.catalog.anomaly(key).make(rng, "c0-0c0s0n0"), float(i)))
    scanner = NaiveTemplateScanner(gen.store, keep=chains.token_set)
    detectors = [
        AarohiMessageDetector(chains, gen.store, timeout=1e9),
        KeyedLSTMMessageDetector(
            "Desh", scanner, DeshDetector.train(chains, epochs=5, seed=1)),
        KeyedLSTMMessageDetector(
            "DeepLog", scanner,
            DeepLogDetector.train([c.tokens for c in chains], epochs=5, seed=1)),
        CloudSeerMessageDetector(chains, gen.store),
    ]
    rows = []
    for det in detectors:
        runs = repeat_message_checks(det, entries, repeats=5)
        rows.append((det.name, f"{mean(r.msecs for r in runs):.4f}"))
    print(render_table(
        ["approach", f"time for {args.length}-length check (ms)"], rows,
        title="Prediction-time comparison (Table VI shape)",
    ))
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    bundle = _trained_bundle(args)
    source = bundle.emit_standalone()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(source)
    print(f"wrote standalone predictor ({len(source.splitlines())} lines, "
          f"{len(bundle.chains)} chains) to {args.out}")
    return 0


def cmd_fieldstudy(args: argparse.Namespace) -> int:
    from .analysis import (
        fit_weibull, inter_failure_stats, inter_failure_times, run_campaign,
    )

    campaign = run_campaign(
        system_by_name(args.system), windows=args.windows,
        duration=args.duration, n_nodes=args.nodes,
        failures_per_window=args.failures, seed=args.seed)
    stats = inter_failure_stats(campaign.failures)
    weibull = fit_weibull(inter_failure_times(campaign.failures))
    print(render_table(
        ["statistic", "value"],
        [
            ("windows", campaign.windows),
            ("failures", stats.count),
            ("MTBF (min)", f"{stats.mtbf / 60:.1f}"),
            ("Weibull shape", f"{weibull.shape:.2f}"),
            ("campaign recall", f"{campaign.recall:.1%}"),
        ],
        title=f"{campaign.system} longitudinal field study"))
    return 0


class _ReportError(Exception):
    """A user-facing obs-report input problem (exit code 2)."""


def _load_snapshot(path: str) -> dict:
    """Parse a ``.prom`` file, or raise :class:`_ReportError` with a
    one-line explanation (missing, empty, truncated, not Prometheus)."""
    from .obs import PrometheusParseError, parse_prometheus

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _ReportError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    if not text.strip():
        raise _ReportError(f"{path} is empty — no metrics were written")
    try:
        snapshot = parse_prometheus(text)
    except PrometheusParseError as exc:
        raise _ReportError(
            f"{path} is not a valid metrics snapshot ({exc})") from exc
    if not snapshot:
        raise _ReportError(f"{path} contains no metric series")
    return snapshot


def _load_trace(path: str) -> list:
    from .obs import read_trace

    try:
        return read_trace(path)
    except OSError as exc:
        raise _ReportError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise _ReportError(
            f"{path} is not a valid trace file ({exc})") from exc


def _load_history_records(path: str) -> list:
    """History points from an NDJSON dump (``/debug/history``) or a
    flight capsule with an embedded ``history`` record."""
    from .obs import parse_history_ndjson, read_capsule

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _ReportError(
            f"cannot read {path}: {exc.strerror or exc}") from exc
    if not text.strip():
        raise _ReportError(f"{path} is empty — no history was written")
    first = text.lstrip().splitlines()[0]
    if '"kind":"capsule"' in first.replace(" ", ""):
        capsule = read_capsule(text)
        records = capsule.get("history")
        if not records:
            raise _ReportError(
                f"{path} is a flight capsule without embedded history "
                "(only alert_rule capsules carry one)")
        return records
    try:
        return parse_history_ndjson(text)
    except ValueError as exc:
        raise _ReportError(
            f"{path} is not a history dump ({exc})") from exc


def cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs import diff_snapshots, group_history_records, snapshot_asymmetry
    from .obs.report import (
        history_trend_section,
        report_sections,
        resets_section,
        series_change_section,
        span_latency_section,
        spans_section,
    )

    change_section = None
    clamp_section = None
    try:
        if getattr(args, "history", None):
            records = _load_history_records(args.history)
            trends = history_trend_section(
                group_history_records(records),
                title=f"History trends — {len(records)} points")
            if trends is None:
                raise _ReportError(
                    f"{args.history} contains no history points")
            print(trends)
            return 0
        if args.diff:
            before = _load_snapshot(args.diff[0])
            after = _load_snapshot(args.diff[1])
            snapshot = diff_snapshots(after, before)
            # Snapshots that gained or lost whole series (a run that
            # turned spans on, a backend change) report the asymmetry
            # instead of pretending the series never existed.
            change_section = series_change_section(
                snapshot_asymmetry(after, before))
            # Counters that went backwards (process restart between
            # snapshots) had their deltas clamped to 0 — say so rather
            # than silently reporting a flat rate.
            clamp_section = resets_section(snapshot)
            if not snapshot and change_section is None:
                print("no metric changed between the two snapshots")
                return 0
        else:
            if not args.metrics:
                raise _ReportError(
                    "need --metrics FILE or --diff BEFORE AFTER")
            snapshot = _load_snapshot(args.metrics)
        trace_records = _load_trace(args.trace) if args.trace else None
        if getattr(args, "spans", False):
            sections = [s for s in (spans_section(snapshot),
                                    span_latency_section(snapshot))
                        if s is not None]
            if not sections:
                raise _ReportError(
                    "no span series in the snapshot — rerun the fleet "
                    "with predict --spans SAMPLE")
            print("\n\n".join(sections))
            return 0
    except _ReportError as exc:
        print(f"obs-report: {exc}", file=sys.stderr)
        return 2
    sections = report_sections(snapshot, trace_records)
    if change_section is not None:
        sections.append(change_section)
    if clamp_section is not None:
        sections.append(clamp_section)
    print("\n\n".join(sections))
    return 0


def cmd_obs_rules(args: argparse.Namespace) -> int:
    """Lint a ruleset (``--check``) or print the shipped default
    ruleset as TOML (``--print-default``)."""
    from .obs import DEFAULT_RULES, rules_to_toml, validate_rules
    from .obs.rules import load_raw_rules

    if args.print_default:
        print(rules_to_toml(DEFAULT_RULES), end="")
        return 0
    if not args.check:
        print("obs-rules: need --check RULES or --print-default",
              file=sys.stderr)
        return 2
    try:
        raw_rules = load_raw_rules(args.check)
    except (OSError, ValueError) as exc:
        print(f"obs-rules: cannot load {args.check!r}: {exc}",
              file=sys.stderr)
        return 2
    problems = validate_rules(raw_rules)
    if problems:
        for problem in problems:
            print(f"obs-rules: {problem}", file=sys.stderr)
        print(f"obs-rules: {len(problems)} problem(s) in "
              f"{len(raw_rules)} rule(s)", file=sys.stderr)
        return 2
    print(f"obs-rules: {len(raw_rules)} rule(s) OK")
    return 0


def cmd_obs_serve(args: argparse.Namespace) -> int:
    """Replay a log through a live-instrumented fleet while serving
    ``/metrics``, ``/healthz``, ``/quality``, and ``/debug/*``.  Exit
    code reflects the final deadline verdict (0 = feasible, 1 = budget
    blown); SIGTERM drains gracefully (shutdown capsule + final
    ``--metrics`` snapshot) and exits 143."""
    from .obs.server import ObsServer

    _install_sigterm()
    config = system_by_name(args.system)
    # The parser sets ``watch``: a serving fleet runs the live monitor
    # and self-monitors with history + the shipped ruleset by default.
    obs = _make_obs(args, config)
    fleet = _trained_bundle(args).make_fleet(
        backend=args.backend, obs=obs, scan_backend=args.scan_backend)

    def pace(done: int, total: int) -> None:
        if args.pace > 0:
            time.sleep(args.pace)

    def write_metrics() -> None:
        if getattr(args, "metrics", None):
            with open(args.metrics, "w", encoding="utf-8") as fh:
                fh.write(obs.prometheus())

    try:
        with ObsServer(obs, host=args.host, port=args.port) as server:
            print(f"serving {server.url('/metrics')} "
                  f"(also /healthz /quality /alerts /debug/spans "
                  f"/debug/flight /debug/vars /debug/history)", flush=True)
            report = _replay_slices(fleet, args, pace)
            summary = _ingest_summary(report.ingest)
            if summary is not None:
                print(summary, flush=True)
            verdict = obs.live.verdict()
            if verdict is not None:
                state = "PASS" if verdict.ok else "FAIL"
                print(f"deadline {state}: p{verdict.quantile:g} latency "
                      f"{verdict.latency * 1e3:.4f} ms vs budget "
                      f"{verdict.budget * 1e3:.4f} ms "
                      f"({verdict.observed} predictions, "
                      f"burn {verdict.burn_rate:.3f})")
            firing = obs.rules.firing() if obs.rules is not None else []
            if firing:
                print("alerts firing: " + ", ".join(
                    f"{r.id} ({r.severity})" for r in firing))
            flight = obs.flight
            if flight is not None and flight.last_capsule_path is not None:
                print(f"flight capsule ({flight.last_reason}): "
                      f"{flight.last_capsule_path}")
            if args.hold:
                print("stream done; serving until interrupted (Ctrl-C)",
                      flush=True)
                try:
                    while True:
                        time.sleep(1.0)
                        # Keep capturing, so a rule still pending when
                        # the stream ended can fire and /healthz follows.
                        obs.record_history()
                except KeyboardInterrupt:
                    pass
    except _Terminated as term:
        # Graceful drain: the ObsServer context already closed on
        # unwind; freeze the capsule + final snapshot and exit 143.
        print(f"obs-serve: {term.signame} — draining", file=sys.stderr)
        _flush_shutdown(obs, term.signame)
        write_metrics()
        return SIGTERM_EXIT
    write_metrics()
    return 0 if verdict is None or verdict.ok else 1


def _parse_endpoint(value: str, default_host: str = "127.0.0.1"):
    """``HOST:PORT``, ``:PORT``, or bare ``PORT`` → ``(host, port)``."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = default_host, value
    if not host:
        host = default_host
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"invalid endpoint {value!r}: want HOST:PORT")


def _serve_bundle(args: argparse.Namespace):
    """The daemon's predictor bundle: an explicit ``--bundle`` file, or
    ``--system``'s trained bundle (:func:`_trained_bundle`, no numpy)."""
    from .persistence import BundleError, PredictorBundle

    if args.bundle:
        try:
            return PredictorBundle.load(args.bundle)
        except (OSError, BundleError) as exc:
            raise SystemExit(f"serve: cannot load bundle "
                             f"{args.bundle!r}: {exc}")
    return _trained_bundle(args)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded live-ingest daemon until SIGTERM/SIGINT, then
    drain gracefully and write the run's accounting."""
    from .core.daemon import FleetDaemon
    from .obs import FlightRecorder, daemon_ruleset

    _install_sigterm()
    bundle = _serve_bundle(args)
    flight = (FlightRecorder(directory=args.flight_dir)
              if args.flight_dir else None)
    history, rules = _make_history(
        args.history, args.rules, daemon_ruleset())
    obs = Observability(flight=flight, history=history, rules=rules)
    try:
        daemon = FleetDaemon(
            bundle,
            n_shards=args.shards,
            on_error=args.on_error,
            scan_backend=args.scan_backend,
            chunk_lines=args.chunk_lines,
            high_water_chunks=args.high_water,
            reorder_horizon=args.reorder_horizon,
            obs=obs,
        )
    except ValueError as exc:
        raise SystemExit(f"serve: {exc}")
    daemon.start()
    if not daemon.wait_ready(60.0):
        daemon.stop(drain=False)
        raise SystemExit("serve: workers failed to come up")
    endpoints = []
    # No explicit source → an ephemeral TCP listener, so a bare
    # ``aarohi serve`` is immediately usable (the bound port prints).
    if args.tcp or not (args.unix or args.tail):
        host, port = _parse_endpoint(args.tcp or "127.0.0.1:0")
        bound = daemon.listen_tcp(host, port)
        endpoints.append(f"tcp {bound[0]}:{bound[1]}")
    if args.unix:
        try:
            endpoints.append(f"unix {daemon.listen_unix(args.unix)}")
        except OSError as exc:
            daemon.stop(drain=False)
            raise SystemExit(
                f"serve: cannot listen on {args.unix}: {exc.strerror or exc}")
    for path in args.tail or []:
        daemon.tail_file(path)
        endpoints.append(f"tail {path}")
    server = None
    if args.http_port is not None:
        from .obs.server import ObsServer

        server = ObsServer(
            obs, host=args.http_host, port=args.http_port).start()
        endpoints.append(f"http {server.url('/metrics')}")
    print("serve: " + "; ".join(endpoints), flush=True)
    print(f"daemon ready: {args.shards} shard(s), "
          f"on_error={args.on_error}", flush=True)
    signame = None
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        signame = "SIGINT"
    except _Terminated as term:
        signame = term.signame
    print(f"serve: {signame} — draining", file=sys.stderr, flush=True)
    report = daemon.stop(drain=True)
    _flush_shutdown(obs, signame)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for p in report.predictions:
                fh.write(_json.dumps({
                    "node": p.node,
                    "chain": p.chain_id,
                    "flagged_at": p.flagged_at,
                    "prediction_time": p.prediction_time,
                }) + "\n")
        print(f"wrote {len(report.predictions)} predictions to {args.out}",
              file=sys.stderr)
    if server is not None:
        server.close()
    status = daemon.status()
    summary = _ingest_summary(report.ingest)
    drained = "drained" if report.drained else "DRAIN TIMED OUT"
    print(f"serve: {drained}; {len(report.predictions)} predictions; "
          f"{status['worker_deaths']} worker death(s), "
          f"{status['handoffs']} handoff(s), "
          f"{status['chains_restored']} chain(s) restored",
          file=sys.stderr)
    if summary is not None:
        print(summary, file=sys.stderr)
    return SIGTERM_EXIT if signame == "SIGTERM" else 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Replay a log file as a live byte stream — the forwarder half of
    a ``serve`` drill — to a TCP endpoint or stdout."""
    import socket

    from .logsim import file_sink, stream_log, tcp_sink

    if args.pace < 0:
        raise SystemExit("stream: --pace must be >= 0")
    try:
        if args.tcp:
            host, port = _parse_endpoint(args.tcp)
            with socket.create_connection((host, port)) as sock:
                stats = stream_log(
                    args.log, tcp_sink(sock),
                    pace=args.pace, chunk=args.chunk)
        else:
            stats = stream_log(
                args.log, file_sink(sys.stdout.buffer),
                pace=args.pace, chunk=args.chunk)
    except OSError as exc:
        raise SystemExit(f"stream: {exc}")
    parts = [f"streamed {stats.lines} lines "
             f"({stats.bytes_sent} bytes, {stats.flushes} flushes)"]
    if stats.sleeps:
        parts.append(f"slept {stats.slept_seconds:.2f}s "
                     f"across {stats.sleeps} waits")
    if stats.unparsed_times:
        parts.append(f"{stats.unparsed_times} records inherited their "
                     "schedule (unparseable timestamps)")
    print("; ".join(parts), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aarohi",
        description="Aarohi (IPDPS'20) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a cluster log window")
    _add_system_arg(p)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--failures", type=int, default=6)
    p.add_argument("--out", default="window.log")
    p.add_argument("--truth", default=None, metavar="TRUTH.jsonl",
                   help="also write injected-failure ground truth (JSONL)")
    p.add_argument("--corrupt", type=float, default=0.0, metavar="P",
                   help="inject every corruption kind (truncation, "
                        "garbling, duplication, reordering, skew, drops) "
                        "at probability P (default: 0, pristine output)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("rules", help="print Algorithm 1's rule derivation")
    _add_system_arg(p)
    p.add_argument("--flat", action="store_true", help="skip LALR factoring")
    p.set_defaults(func=cmd_rules)

    p = sub.add_parser("predict", help="run the fleet over a log file")
    _add_system_arg(p)
    p.add_argument("--log", required=True)
    p.add_argument("--backend", default="matcher", choices=["matcher", "lalr"])
    _add_scan_backend_arg(p)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of a table")
    p.add_argument("--watch", action="store_true",
                   help="refreshing dashboard: funnel, latency quantiles, "
                        "SLO budget, quality")
    p.add_argument("--slices", type=int, default=20,
                   help="stream slices per --watch refresh (default 20)")
    p.add_argument("--truth", default=None, metavar="TRUTH.jsonl",
                   help="ground-truth failures (enables the online "
                        "quality scoreboard)")
    _add_ingest_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pipeline", help="full two-phase run with metrics")
    _add_system_arg(p)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--failures", type=int, default=8)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("speedup", help="Table VI-style timing comparison")
    _add_system_arg(p)
    p.add_argument("--length", type=int, default=50)
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("compile",
                       help="emit a standalone predictor module (codegen)")
    _add_system_arg(p)
    p.add_argument("--out", default="aarohi_predictor.py")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser(
        "obs-report",
        help="summarize a --metrics snapshot (funnel, latency, lifecycle)")
    p.add_argument("--metrics", default=None, metavar="OUT.prom",
                   help="Prometheus text file written by predict --metrics")
    p.add_argument("--trace", default=None, metavar="TRACE.jsonl",
                   help="optional trace file for the lifecycle roll-up")
    p.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"),
                   default=None,
                   help="render the delta between two snapshots instead")
    p.add_argument("--spans", action="store_true",
                   help="print only the pipeline stage span tables")
    p.add_argument("--history", default=None, metavar="HISTORY",
                   help="render min/p50/max trend tables from a history "
                        "NDJSON dump (/debug/history) or an alert_rule "
                        "flight capsule")
    p.set_defaults(func=cmd_obs_report)

    p = sub.add_parser(
        "obs-rules",
        help="lint an alert-rules file (or print the shipped defaults)")
    p.add_argument("--check", default=None, metavar="RULES",
                   help="validate a [[rule]] TOML file (or the literal "
                        "word 'default'); exit 2 on problems")
    p.add_argument("--print-default", action="store_true",
                   help="print the shipped default ruleset as TOML")
    p.set_defaults(func=cmd_obs_rules)

    p = sub.add_parser(
        "obs-serve",
        help="replay a log through a live fleet while serving /metrics")
    _add_system_arg(p)
    p.add_argument("--log", required=True)
    p.add_argument("--backend", default="matcher",
                   choices=["matcher", "lalr"])
    _add_scan_backend_arg(p)
    p.add_argument("--truth", default=None, metavar="TRUTH.jsonl",
                   help="ground-truth failures (enables /quality scoring)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9464,
                   help="HTTP port (0 = ephemeral; default 9464)")
    p.add_argument("--slices", type=int, default=20,
                   help="process the stream in this many batches")
    p.add_argument("--pace", type=float, default=0.0,
                   help="sleep this many seconds between batches")
    p.add_argument("--hold", action="store_true",
                   help="keep serving after the stream ends (Ctrl-C exits)")
    p.add_argument("--spans", type=float, default=0.0, metavar="SAMPLE",
                   help="time pipeline stages on this fraction of runs "
                        "(serves /debug/spans; default: 0, off)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm the flight recorder; capsules land in DIR "
                        "and on /debug/flight")
    p.add_argument("--history", type=float, default=None,
                   metavar="SECONDS",
                   help="history-ring capture interval; the rules stay "
                        "armed (default: at most once per second)")
    p.add_argument("--rules", default=None, metavar="RULES",
                   help="alert rules: a [[rule]] TOML file or 'default' "
                        "(default: the shipped ruleset; serves /alerts)")
    p.add_argument("--metrics", metavar="OUT.prom", default=None,
                   help="write the final metrics snapshot here on exit "
                        "(including SIGTERM graceful drain)")
    _add_ingest_args(p)
    p.set_defaults(func=cmd_obs_serve, watch=True)

    p = sub.add_parser(
        "serve",
        help="persistent sharded live-ingest daemon (TCP/unix/tail)")
    _add_system_arg(p)
    p.add_argument("--bundle", default=None, metavar="BUNDLE.json",
                   help="serve this saved predictor bundle instead of "
                        "--system's trained one")
    p.add_argument("--shards", type=int, default=2,
                   help="worker shard processes (default 2)")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="accept line streams on this TCP endpoint "
                        "(port 0 = ephemeral; default when no source "
                        "flag is given: 127.0.0.1:0)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="accept line streams on a unix socket at PATH")
    p.add_argument("--tail", action="append", default=None, metavar="FILE",
                   help="follow FILE like tail -F, surviving logrotate "
                        "(repeatable)")
    p.add_argument("--http-host", default="127.0.0.1")
    p.add_argument("--http-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics /healthz /alerts /debug/* on "
                        "this port (0 = ephemeral; default: no HTTP)")
    p.add_argument("--chunk-lines", type=int, default=256,
                   help="lines per worker chunk (default 256)")
    p.add_argument("--high-water", type=int, default=32,
                   help="unacked chunks per shard before ingest stalls "
                        "(backpressure; default 32)")
    _add_scan_backend_arg(p)
    p.add_argument("--out", default=None, metavar="PRED.jsonl",
                   help="write the session's predictions here on exit")
    p.add_argument("--metrics", metavar="OUT.prom", default=None,
                   help="write the final metrics snapshot here on exit")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm the flight recorder (shutdown + alert "
                        "capsules land in DIR)")
    p.add_argument("--history", type=float, default=None, metavar="SECONDS",
                   help="history-ring capture interval; the rules stay "
                        "armed (default: at most once per second)")
    p.add_argument("--rules", default=None, metavar="RULES",
                   help="alert rules: a [[rule]] TOML file or 'default' "
                        "(default: the daemon ruleset — shipped rules "
                        "plus shard-down/handoff/backpressure)")
    _add_ingest_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "stream",
        help="replay a log file as a live (optionally paced) stream")
    p.add_argument("--log", required=True)
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="stream to this TCP endpoint (default: stdout)")
    p.add_argument("--pace", type=float, default=0.0,
                   help="speed multiplier over event time: 1 = real "
                        "time, 60 = a minute of log per second "
                        "(default 0 = blast)")
    p.add_argument("--chunk", type=int, default=256,
                   help="records per sink write (default 256)")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("fieldstudy", help="longitudinal failure statistics")
    _add_system_arg(p)
    p.add_argument("--windows", type=int, default=8)
    p.add_argument("--duration", type=float, default=3600.0)
    p.add_argument("--nodes", type=int, default=24)
    p.add_argument("--failures", type=int, default=5)
    p.set_defaults(func=cmd_fieldstudy)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in SIMULATOR_COMMANDS:
        from .logsim import SIMULATOR_AVAILABLE

        if not SIMULATOR_AVAILABLE:
            raise SystemExit(
                f"{args.command} drives the log simulator, which requires"
                " numpy: install the [fast] extra (pip install 'repro[fast]')")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
