"""Seeded inputs for the three workloads, and the reference outputs the
program's outputs are held to.

The program sees only what is generated here: a log file for the replay
workloads, the bytes of such a file on a TCP connection for
``serve_paced``.  One seed always gives the same lines.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from common import completing_lines

SYSTEM = "HPC3"
EPOCH = 1_600_000_000.0  # event time at which the first window starts

#: ``aarohi predict`` flags per replay workload (CLI defaults otherwise).
FLAGS = {"replay_quiet": [], "replay_storm": ["--reorder-horizon", "5"]}

#: Log lines per replay workload; serve_paced sends as many as its
#: schedule needs (``serve.phase_lines``).
LINES = {"replay_quiet": 200_000, "replay_storm": 110_000}

# ClusterLogGenerator.generate_window shapes; windows follow each other
# in event time until the workload has its lines.
SHAPES = {
    # Fig. 12's cluster-wide regime: ~0.7% of lines are FC-related.
    "replay_quiet": dict(n_nodes=48, n_failures=16, duration=3600.0,
                         benign_rate_hz=0.058),
    # Failure episodes: most nodes walk a chain (~30% FC-related lines),
    # then every corruption kind is injected at 1%.
    "replay_storm": dict(n_nodes=40, n_failures=32, duration=1200.0,
                         benign_rate_hz=0.0067, corrupt=0.01),
    # Live traffic with a chain completion every ~370 lines: 54 delay
    # samples a second at 20k lines/s, 200 (a p95) within 4 s.
    "serve_paced": dict(n_nodes=64, n_failures=32, duration=3600.0,
                        benign_rate_hz=0.0434),
}


def generate(workload: str, seed: int, n_lines: int) -> List[str]:
    """The first ``n_lines`` serialized lines of the workload for
    ``seed``."""
    from repro.logsim import ClusterLogGenerator, system_by_name

    shape = dict(SHAPES[workload])
    corrupt = shape.pop("corrupt", 0.0)
    gen = ClusterLogGenerator(system_by_name(SYSTEM), seed=seed)
    events = []
    start = EPOCH
    while len(events) < n_lines:
        events.extend(gen.generate_window(start_time=start, **shape).events)
        start += shape["duration"]
    del events[n_lines:]
    if not corrupt:
        return [event.to_line() for event in events]
    from repro.logsim import CorruptionSpec, corrupt_window

    lines, _ = corrupt_window(
        events, CorruptionSpec.all_kinds(corrupt), seed=seed)
    return lines


def write(lines: List[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + "\n" for line in lines)


def predict_argv(log, flags) -> List[str]:
    return ["predict", "--log", str(log), "--json", *flags]


def cli_bundle(argv: List[str]):
    """``(parsed args, generator)`` for an ``aarohi`` command line; the
    command builds its predictor bundle from the generator's store and
    chains."""
    from repro.cli import build_parser
    from repro.logsim import ClusterLogGenerator, system_by_name

    args = build_parser().parse_args(argv)
    return args, ClusterLogGenerator(
        system_by_name(args.system), seed=args.seed)


def warm_scanner_cache() -> None:
    """Build every scanner the timed runs load, so the artifact cache is
    warm before any timing."""
    for argv in (["predict", "--log", "-"], ["serve"]):
        args, gen = cli_bundle(argv)
        gen.store.compile_scanner(
            keep=gen.chains.token_set, backend=args.scan_backend)


def fresh_fleet(gen, **kwargs):
    from repro.core import PredictorFleet

    return PredictorFleet.from_store(
        gen.chains, gen.store, timeout=gen.recommended_timeout, **kwargs)


def replay_reference(log, flags):
    """``(Counter of (node, chain, flagged_at), lines read, FC-related
    fraction)`` of a fresh fleet over ``log`` with the reorder horizon
    ``flags`` ask for."""
    args, gen = cli_bundle(predict_argv(log, flags))
    report = fresh_fleet(gen).run_lines(
        str(log), on_error="quarantine",
        reorder_horizon=args.reorder_horizon, timing="off")
    keys = Counter(
        (p.node, p.chain_id, p.flagged_at) for p in report.predictions)
    return keys, report.ingest.lines_read, report.fc_related_fraction


def stream_reference(raw_lines):
    """Reference for the lines a serve daemon is sent: each decoded as
    the daemon decodes it, all run through a fresh fleet in one batch.

    Returns ``(predictions, offered, quarantined)``; each prediction is
    ``(index of its chain-completing line, node)`` in stream order."""
    from repro.core.events import LogDecodeError, LogEvent

    events, where = [], []
    offered = quarantined = 0
    for i, raw in enumerate(raw_lines):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        if not raw:
            continue
        offered += 1
        try:
            events.append(LogEvent.from_line(raw.decode("utf-8", "replace")))
        except LogDecodeError:
            quarantined += 1
            continue
        where.append(i)
    _, gen = cli_bundle(["serve"])
    predictions = fresh_fleet(gen).run(events, timing="off").predictions
    index = completing_lines(
        [e.node for e in events], [e.time for e in events],
        [(p.node, p.flagged_at) for p in predictions])
    return ([(where[k], p.node) for k, p in zip(index, predictions)],
            offered, quarantined)
