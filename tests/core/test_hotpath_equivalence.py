"""Differential equivalence suite for the batched hot path.

The batched paths (:meth:`PredictorFleet.run` at ``timing`` ``"off"``
and ``"sampled"``, on a batch-scanning fleet and on one without a batch
scanner, and the fused native :meth:`PredictorFleet.run_lines` over a
byte blob) are pure
performance restructurings: under a constant clock they must produce
**byte-identical** predictions and run stats to the per-event
:meth:`PredictorFleet.process` loop, which ``run(timing="full")`` is,
for both backends, with and without timeout pressure, on multi-node
interleaved streams with benign noise.
"""

import itertools

import pytest

from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
from repro.core.events import Severity
from repro.core.predictor import PredictorStats
from repro.templates import TemplateStore

ZERO_CLOCK = lambda: 0.0  # noqa: E731 — constant clock: timings byte-compare


@pytest.fixture(scope="module")
def store():
    s = TemplateStore()
    s.add("alpha fault *", Severity.ERRONEOUS, token=301)
    s.add("beta warn *", Severity.UNKNOWN, token=302)
    s.add("gamma err *", Severity.ERRONEOUS, token=303)
    s.add("delta panic *", Severity.ERRONEOUS, token=304)
    s.add("epsilon trap *", Severity.UNKNOWN, token=305)
    return s


@pytest.fixture(scope="module")
def chains():
    return ChainSet([
        FailureChain("FC_x", (301, 302, 303)),
        FailureChain("FC_y", (304, 305)),
    ])


def mixed_stream(n_nodes=4, repeats=6, gap_every=5):
    """Interleaved multi-node stream: chain phrases, benign noise, and
    periodic long gaps that trip small timeouts mid-chain."""
    msgs = [
        "alpha fault a", "benign chatter one", "beta warn b",
        "delta panic d", "unrelated noise xyz", "gamma err c",
        "epsilon trap e", "zeta nothing at all",
    ]
    events = []
    t = 0.0
    for r in range(repeats):
        for i, m in enumerate(msgs):
            node = f"node-{(r + i) % n_nodes}"
            t += 100.0 if (r * len(msgs) + i) % gap_every == 0 else 1.0
            events.append(LogEvent(t, node, m))
    return events


def chain_stream(start=0.0, n_nodes=3, rounds=4):
    """Interleaved multi-node stream whose chains complete: each round
    walks every node through FC_x then FC_y, one phrase per node in
    turn, with benign noise in between; odd rounds stall 5 s after
    ``beta`` so a 3 s timeout drops the pending FC_x matches."""
    phrases = ["alpha fault a", "beta warn b", "gamma err c",
               "delta panic d", "epsilon trap e"]
    events = []
    t = start
    for r in range(rounds):
        for phrase in phrases:
            for k in range(n_nodes):
                t += 0.5
                events.append(LogEvent(t, f"node-{(k + r) % n_nodes}", phrase))
                events.append(LogEvent(t, f"node-{k}", "benign chatter one"))
            if r % 2 and phrase.startswith("beta"):
                t += 5.0
    return events


def run_per_event(fleet, events):
    """The reference path: one process() call per event, stream order."""
    out = []
    for event in events:
        prediction = fleet.process(event)
        if prediction is not None:
            out.append(prediction)
    return out


def fleet_stats(fleet):
    return {
        node: (p.stats.lines_seen, p.stats.lines_tokenized,
               p.stats.predictions, p.stats.tokenize_seconds,
               p.stats.feed_seconds)
        for node, p in fleet._predictors.items()
    }


# (entry point, timing) pairs: every public fleet entry point in every timing
# mode it accepts.  The fused native ``run_lines`` path cannot time
# per-line tokenization, so it does not serve ``"full"``.  ``run_naive``
# is ``run`` on a fleet with no batch scanner.
ENTRY_TIMINGS = [
    ("run", "full"), ("run", "sampled"), ("run", "off"),
    ("run_naive", "sampled"), ("run_naive", "off"),
    ("run_lines", "sampled"), ("run_lines", "off"),
]


def drive(entry, store, chains, events, timing, **kwargs):
    """Run ``events`` through one fleet entry point: ``run`` on a str
    fleet, ``run`` on a fleet whose per-template naive scanner has no
    batch scan, or the fused ``run_lines`` blob path on a native
    fleet."""
    if entry in ("run", "run_naive"):
        fleet = PredictorFleet.from_store(
            chains, store, optimized=entry == "run", **kwargs)
        return fleet, fleet.run(events, timing=timing)
    blob = "\n".join(e.to_line() for e in events).encode()
    fleet = PredictorFleet.from_store(
        chains, store, scan_backend="native", **kwargs)
    if fleet.scanner.backend != "native":
        pytest.skip("no C compiler: the fused path needs the native kernel")
    return fleet, fleet.run_lines(blob, timing=timing)


@pytest.mark.parametrize("backend", ["matcher", "lalr"])
@pytest.mark.parametrize("timeout", [100.0, 3.0])
@pytest.mark.parametrize("entry,timing", ENTRY_TIMINGS)
class TestFleetBatchedEquivalence:
    def test_identical_predictions_and_stats(
        self, store, chains, backend, timeout, entry, timing
    ):
        events = mixed_stream()
        events += chain_stream(start=events[-1].time + 1000.0)
        reference = PredictorFleet.from_store(
            chains, store, timeout=timeout, backend=backend, clock=ZERO_CLOCK)
        expected = run_per_event(reference, events)

        batched, report = drive(
            entry, store, chains, events, timing,
            timeout=timeout, backend=backend, clock=ZERO_CLOCK)

        assert len(expected) >= 18  # chains complete on every node
        assert report.predictions == expected  # dataclass eq: every field
        assert report.lines_seen == len(events)
        assert report.lines_tokenized == sum(
            p.stats.lines_tokenized for p in reference._predictors.values())
        assert report.stats.predictions == len(expected)
        assert report.stats.feed_seconds == sum(
            p.stats.feed_seconds for p in reference._predictors.values())
        if (entry, timing) == ("run", "full"):
            assert fleet_stats(batched) == fleet_stats(reference)
            return
        # The batched paths count lines per fleet, not per node, and only
        # nodes with a relevant hit ever get a predictor.
        hit_nodes = {node for node, p in reference._predictors.items()
                     if p.stats.lines_tokenized}
        assert set(batched._predictors) == hit_nodes
        for node in hit_nodes:
            got, want = batched._predictors[node].stats, \
                reference._predictors[node].stats
            assert (got.lines_tokenized, got.predictions, got.feed_seconds) \
                == (want.lines_tokenized, want.predictions, want.feed_seconds)


def step_clock():
    """A fresh clock that advances by 1.0 on every read."""
    reads = itertools.count()
    return lambda: float(next(reads))


@pytest.mark.parametrize("backend", ["matcher", "lalr"])
@pytest.mark.parametrize("timing", ["full", "sampled", "off"])
class TestPredictorBatchEquivalence:
    def test_batch_boundaries_are_invisible(self, store, chains, backend, timing):
        """Splitting one stream across several ``fleet.run`` calls keeps
        mid-chain state (chain cost, engine position) intact: the
        predictions, with their clocked prediction times, and the run
        stats equal one call's."""
        events = mixed_stream()
        events += chain_stream(start=events[-1].time + 1000.0)

        def fleet():
            return PredictorFleet.from_store(
                chains, store, timeout=3.0, backend=backend,
                clock=step_clock())

        whole = fleet()
        expected = whole.run(events, timing=timing)
        split = fleet()
        got, stats = [], PredictorStats()
        for start in range(0, len(events), 7):
            report = split.run(events[start:start + 7], timing=timing)
            got.extend(report.predictions)
            stats.add(report.stats)
        assert expected.predictions
        assert got == expected.predictions
        assert stats == expected.stats
        assert fleet_stats(split) == fleet_stats(whole)


def drive_clocked(monkeypatch, entry, store, chains, timing):
    """Drive a chain-completing stream through ``entry`` under a
    clock that counts its reads (each read returns the running count,
    so a clocked chain check costs exactly 1).  A spy on ``_run_fused``
    asserts that the fused native pass ran exactly for ``run_lines``.
    Returns ``(report, clock reads)``."""
    reads = []
    fused = []

    def counting_clock():
        reads.append(1)
        return float(len(reads))

    real_fused = PredictorFleet._run_fused

    def spy(self, *args, **kwargs):
        fused.append(kwargs["timing"])
        return real_fused(self, *args, **kwargs)

    monkeypatch.setattr(PredictorFleet, "_run_fused", spy)
    events = mixed_stream()
    events += chain_stream(start=events[-1].time + 1000.0)
    _, report = drive(entry, store, chains, events, timing,
                      timeout=100.0, clock=counting_clock)
    assert fused == ([timing] if entry == "run_lines" else [])
    assert report.predictions  # the stream completes chains
    return report, reads


ENTRIES = ["run", "run_naive", "run_lines"]


class TestTimingModes:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_off_reads_no_clock(self, store, chains, entry, monkeypatch):
        report, reads = drive_clocked(
            monkeypatch, entry, store, chains, "off")
        assert not reads
        assert all(p.prediction_time == 0.0 for p in report.predictions)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_sampled_skips_discarded_lines(
        self, store, chains, entry, monkeypatch
    ):
        report, reads = drive_clocked(
            monkeypatch, entry, store, chains, "sampled")
        # Exactly two reads per FC-related phrase, none for discards.
        assert len(reads) == 2 * report.lines_tokenized
        assert report.stats.feed_seconds == report.lines_tokenized
        # Each prediction's time is its chain's clocked checks.
        assert all(p.prediction_time >= 1.0 for p in report.predictions)

    def test_unknown_timing_rejected(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        with pytest.raises(ValueError):
            fleet.run(mixed_stream(), timing="warp")


class TestInstrumentedEquivalence:
    """The counting scanner and obs wiring are pure observers: they must
    not change predictions, and the funnel stages must account for every
    line exactly once."""

    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_instrumented_run_identical(self, store, chains, backend):
        from repro.obs import Observability

        events = mixed_stream()
        plain = PredictorFleet.from_store(
            chains, store, timeout=3.0, backend=backend, clock=ZERO_CLOCK)
        expected = plain.run(events, timing="off")

        obs = Observability()
        wired = PredictorFleet.from_store(
            chains, store, timeout=3.0, backend=backend, clock=ZERO_CLOCK,
            obs=obs)
        report = wired.run(events, timing="off")
        assert report.predictions == expected.predictions
        assert report.stats == expected.stats

    @pytest.mark.parametrize("timing", ["full", "off"])
    @pytest.mark.parametrize("per_event", [0, 10])
    def test_funnel_counters_sum_to_lines_seen(
        self, store, chains, timing, per_event
    ):
        """``per_event`` lines go through ``process()`` before the first
        run; the next fold-in counts them too."""
        from repro.obs import FUNNEL_STAGES, LINES_SEEN, Observability

        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        events = mixed_stream()
        for event in events[:per_event]:
            fleet.process(event)

        def total(name):
            snap = obs.registry.snapshot()
            return sum(e["value"] for e in snap[name]["series"])

        for window in (events[per_event:], events):
            fleet.run(window, timing=timing)
            # The identity holds after every fold-in, cumulatively.
            assert sum(total(name) for name, _ in FUNNEL_STAGES) \
                == total(LINES_SEEN)
        assert total(LINES_SEEN) == 2 * len(events)


class TestRunWindowAccounting:
    def test_second_run_not_double_counted(self, store, chains):
        """Regression: FleetReport summed cumulative per-predictor
        counters, so a second run() re-reported the first window."""
        events = mixed_stream()
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        first = fleet.run(events)
        second = fleet.run(events)
        assert first.lines_seen == len(events)
        assert second.lines_seen == len(events)
        assert second.lines_tokenized == first.lines_tokenized

    def test_mixed_process_and_run_windows(self, store, chains):
        events = mixed_stream()
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        for event in events[:10]:
            fleet.process(event)
        report = fleet.run(events[10:])
        assert report.lines_seen == len(events) - 10
