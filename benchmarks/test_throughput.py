"""Real-time feasibility: sustained fleet throughput vs cluster log rate.

The paper's challenge #2: "the pace of analyzing incoming event logs by
the predictor should be compatible to the inter-arrival times of the
consecutive system logs".  This bench measures the fleet's sustained
events/second on a realistic mixed stream — both the per-event
``process()`` loop and the batched ``run(..., timing="off")`` fast path
— and compares it against each Table II system's aggregate log rate;
the margin is the real-time feasibility headroom the placement model
consumes.

Before timing anything, the batched path is differentially checked
against the per-event path on every generator system: under a constant
clock both must produce identical predictions.
"""

from repro.core import PredictorFleet
from repro.logsim import ClusterProfile, evaluate_placement
from repro.reporting import render_table

from emit_bench import PRE_PR_REFERENCE, discard_heavy_stream, measure_hotpath


def assert_batched_path_equivalent(gen, n_events=4000):
    """Differential check: batched fleet.run == per-event process()."""
    events = discard_heavy_stream(gen, n_events)
    zero = lambda: 0.0  # noqa: E731
    reference = PredictorFleet.from_store(
        gen.chains, gen.store, timeout=gen.recommended_timeout, clock=zero)
    expected = [p for p in map(reference.process, events) if p is not None]
    batched = PredictorFleet.from_store(
        gen.chains, gen.store, timeout=gen.recommended_timeout, clock=zero)
    report = batched.run(events, timing="off")
    assert report.predictions == expected, gen.config.name
    assert report.lines_seen == n_events


def test_realtime_throughput(benchmark, emit, generators):
    rows = []
    results = {}
    first = True
    for name, gen in generators.items():
        assert_batched_path_equivalent(gen)
        if first:
            measured = benchmark.pedantic(
                measure_hotpath, args=(gen,), rounds=1, iterations=1)
            first = False
        else:
            measured = measure_hotpath(gen)
        results[name] = measured
        events_per_s = measured["batched_events_per_s"]
        per_event = 1.0 / events_per_s
        cluster_rate = gen.config.n_nodes * gen.config.benign_rate_hz
        margin = events_per_s / cluster_rate
        placement = evaluate_placement(
            ClusterProfile(n_nodes=gen.config.n_nodes,
                           log_rate_hz=gen.config.benign_rate_hz),
            strategy="hss", per_message_cost_s=per_event)
        rows.append((
            name,
            f"{measured['per_event_events_per_s']:,.0f}",
            f"{events_per_s:,.0f}",
            f"{cluster_rate:,.0f}",
            f"{margin:.0f}x",
            "yes" if placement.feasible else "NO",
        ))
        # Real-time requirement: one predictor core outpaces the whole
        # cluster's healthy log rate with a wide margin.
        assert margin > 10.0, (name, margin)
        assert placement.feasible, name
        # The batched driver must beat the per-event loop.  The margin
        # is modest because the scanner-level optimizations (first-char
        # rejection, alphabet-compressed walk, memo) speed up *both*
        # paths; the batched driver's edge is the whole-stream scan
        # kernel and clock elision.
        assert measured["batched_vs_per_event"] > 1.05, (name, measured)

    # Perf gate vs the recorded pre-PR numbers (same machine only —
    # foreign machines still get the batched-vs-per-event gate above).
    for name, row in results.items():
        ref = PRE_PR_REFERENCE.get(name)
        if isinstance(ref, int):
            assert row["batched_events_per_s"] / ref > 1.0, (name, row)

    emit("throughput_realtime", render_table(
        ["System", "per-event ev/s", "batched ev/s (1 core)",
         "cluster log rate (msg/s)", "headroom", "HSS placement feasible"],
        rows, title="Real-time feasibility: sustained throughput vs "
                    "aggregate log rate"))
