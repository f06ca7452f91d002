"""The traced run: every layer timed from outside, on the workload's lines.

A traced run records a span around each public call it makes into the
program, keeps the spans in memory and writes them to
``.work/trace-<workload>.jsonl`` when it ends.  Its three parts are the
same on every workload, so every per-layer metric is measured on each:

1. set-up probes: fresh interpreters stamp ``import repro.cli``, the
   predictor bundle and the scanner load from the warm artifact cache,
   then a cold compile (cache bypassed) that ``setup_s`` never includes;
2. a layer sweep: the ``predict`` pipeline taken apart into its layers'
   public calls (``logsim.stream`` ingest, the scanner's ``scan_hits``,
   then for each FC-related hit ``PredictorFleet.predictor_for`` to
   route and ``AarohiPredictor.feed_token`` to match).  These are the
   batch calls; the CLI's default path tokenizes line by line with
   per-line timing, which the sweep leaves out.  Untraced and traced
   passes alternate, so the tracing overhead is measured in the same
   run;
3. a paced daemon phase (:func:`serve.paced_phase`): the workload's
   lines fed to a default serve daemon, untraced in the first half of
   its measured window and traced in the second.

``metrics.PER_LAYER`` names the end-to-end metric and workload each
per-layer metric should move.
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
import time
from collections import Counter

import serve
import workloads
from common import (
    Result, Spans, count_mismatches, median, min_samples, named_percentile,
    wait_child,
)

PROBES = 3  # fresh-interpreter set-up probes
PAIRS = 2  # untraced/traced sweep passes compared for the overhead
MAX_TRACED = 8  # traced passes allowed to gather prediction-time samples


def setup_probes(ctx, spans: Spans) -> dict:
    """Set-up costs from :data:`PROBES` fresh interpreters (medians)."""
    rows = []
    for _ in range(PROBES):
        proc = subprocess.Popen(
            [sys.executable, str(ctx.here / "probe.py")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            env=ctx.env, cwd=ctx.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            code, _ = wait_child(proc, 120.0)
        if code != 0:
            raise RuntimeError(f"the set-up probe exited with {code}")
        t = json.loads(out)
        root = spans.add("setup", t[0], t[3])
        spans.add("cli.import", t[0], t[1], root)
        spans.add("bundle", t[1], t[2], root)
        spans.add("scanner.load", t[2], t[3], root)
        spans.add("scanner.cold", t[3], t[4])
        rows.append(t)

    def ms(a: int, b: int) -> float:
        return median([(t[b] - t[a]) * 1e3 for t in rows])

    return {
        "setup.import_ms": ms(0, 1),
        "setup.bundle_ms": ms(1, 2),
        "setup.scanner_load_ms": ms(2, 3),
        "setup.scanner_cold_ms": ms(3, 4),
    }


def sweep_pass(fleet, is_relevant, log: str, horizon: float,
               spans=None) -> dict:
    """One ``predict`` pass driven layer by layer through public calls;
    with ``spans``, every call is timed and recorded."""
    from repro.logsim import (
        IngestStats, read_byte_batch, read_log, sorted_stream,
    )

    clock = time.monotonic
    scanner = fleet.scanner
    stats = IngestStats()
    gc.collect()
    t0 = clock()
    root = None if spans is None else spans.add("pass", t0)
    if getattr(scanner, "backend", "str") == "str":
        events = read_log(log, on_error="quarantine", stats=stats)
        if horizon > 0:
            events = sorted_stream(events, horizon, stats)
        events = list(events)
        times = [e.time for e in events]
        nodes = [e.node for e in events]
        messages = [e.message for e in events]
    else:
        batch = read_byte_batch(log, on_error="quarantine",
                                reorder_horizon=horizon, stats=stats)
        times, nodes, messages = batch.times, batch.nodes, batch.messages
    t1 = clock()
    hits = scanner.scan_hits(messages)
    t2 = clock()
    if spans is not None:
        spans.add("ingest", t0, t1, root)
        spans.add("scan", t1, t2, root)
        loop = spans.add("hits", t2, None, root)
    predictor_for = fleet.predictor_for
    names = {}
    predicted = Counter()
    chain_cost = {}
    pred_times = []
    relevant = 0
    for i, token in hits:
        if not is_relevant(token):
            continue
        relevant += 1
        raw = nodes[i]
        node = names.get(raw)
        if node is None:
            node = names[raw] = (
                raw if isinstance(raw, str) else str(raw, "utf-8", "replace"))
        if spans is None:
            p = predictor_for(node).feed_token(token, times[i])
        else:
            a = clock()
            predictor = predictor_for(node)
            b = clock()
            p = predictor.feed_token(token, times[i])
            c = clock()
            spans.add("route", a, b, loop)
            spans.add("match", b, c, loop)
            # Fig. 8's prediction time: feed time summed over the lines
            # of one chain, reset when the chain completes.
            cost = chain_cost.get(node, 0.0) + (c - b)
            chain_cost[node] = cost if p is None else 0.0
            if p is not None:
                pred_times.append(cost)
        if p is not None:
            predicted[(p.node, p.chain_id, p.flagged_at)] += 1
    t3 = clock()
    if spans is not None:
        spans.end(loop, t3)
        spans.end(root, t3)
    return {
        "wall": t3 - t0, "root": root, "lines_read": stats.lines_read,
        "quarantined": stats.quarantined, "reordered": stats.reordered,
        "scanned": len(messages), "hits": len(hits), "relevant": relevant,
        "predicted": predicted, "pred_times": pred_times,
    }


def layer_sweep(log, flags, spans: Spans, result: Result) -> dict:
    """Per-layer metrics from alternating untraced and traced sweep
    passes, each held to the reference batch run."""
    args, gen = workloads.cli_bundle(workloads.predict_argv(log, flags))
    reference, lines_read, _ = workloads.replay_reference(log, flags)

    def one(trace):
        fleet = workloads.fresh_fleet(gen, scan_backend=args.scan_backend)
        out = sweep_pass(fleet, gen.chains.is_relevant, str(log),
                         args.reorder_horizon, trace)
        result.attempted += out["lines_read"]
        result.failed += count_mismatches(reference, out["predicted"])
        result.failed += abs(out["lines_read"] - lines_read)
        return out

    one(None)  # warm-up: lazy set-up and in-process caches fill
    plain, traced = [], []
    for _ in range(PAIRS):
        plain.append(one(None))
        traced.append(one(spans))
    while (len(traced) < MAX_TRACED and sum(
            len(p["pred_times"]) for p in traced) < min_samples(0.99)):
        traced.append(one(spans))
    own = Counter()
    for p in traced:
        own.update(spans.self_times(p["root"]))

    def total(key: str):
        return sum(p[key] for p in traced)

    wall = total("wall")
    relevant = total("relevant")
    samples = [t * 1e3 for p in traced for t in p["pred_times"]]
    # Fastest against fastest, as in the untraced runs.
    overhead = (min(p["wall"] for p in traced[:PAIRS])
                / min(p["wall"] for p in plain))
    return {
        "ingest.records_per_s": total("lines_read") / own["ingest"],
        "ingest.share": own["ingest"] / wall,
        "ingest.quarantined": traced[0]["quarantined"],
        "ingest.reordered": traced[0]["reordered"],
        "scan.ns_per_line": own["scan"] / total("scanned") * 1e9,
        "scan.hit_ratio": total("hits") / total("scanned"),
        "scan.share": own["scan"] / wall,
        "match.us_per_hit": own["match"] / relevant * 1e6,
        "match.prediction_ratio": len(samples) / relevant,
        "match.prediction_time_p50_ms": named_percentile(
            samples, 0.5, "prediction time"),
        "match.prediction_time_p99_ms": named_percentile(
            samples, 0.99, "prediction time"),
        "route.us_per_hit": own["route"] / relevant * 1e6,
        "emit.predictions": len(traced[0]["pred_times"]),
        "trace.pass_overhead_pct": (overhead - 1.0) * 100.0,
    }


def traced_run(ctx, workload: str, seed: int, seconds: float) -> Result:
    """A traced run (``--trace 1``) of any workload."""
    if workload == "serve_paced":
        n_lines, flags = serve.phase_lines(seconds), []
    else:
        n_lines, flags = workloads.LINES[workload], workloads.FLAGS[workload]
    lines = workloads.generate(workload, seed, n_lines)
    log = ctx.work / f"{workload}.log"
    workloads.write(lines, log)
    raw = [line.encode("utf-8") for line in lines]
    del lines
    workloads.warm_scanner_cache()

    result = Result()
    spans = Spans()
    result.metrics.update(setup_probes(ctx, spans))
    result.metrics.update(layer_sweep(log, flags, spans, result))
    phase = serve.paced_phase(ctx, raw, seconds, traced=True, spans=spans)
    result.attempted += phase["attempted"]
    result.failed += phase["failed"]
    result.metrics.update(phase["layers"])
    result.notes.extend(phase["notes"])
    trace = ctx.work / f"trace-{workload}.jsonl"
    spans.write(trace)
    result.notes.append(
        f"{len(spans.records)} spans in {trace.relative_to(ctx.root)}")
    return result
