"""Fleet- and daemon-level observability wiring tests."""

import random

import pytest

from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
from repro.core.events import Severity
from repro.obs import (
    CHAIN_ACTIVATIONS,
    CHAIN_MATCHES,
    CHAIN_TIMEOUTS,
    FUNNEL_STAGES,
    LINES_SEEN,
    LINES_TOKENIZED,
    LOGSIM_EVENTS,
    LOGSIM_FAULTS,
    LOGSIM_WINDOWS,
    NEGATIVE_DELTA_T,
    Observability,
    PREDICTION_SECONDS,
    PREDICTIONS,
    SCANNER_DFA_MATCHES,
    TOKENS_ADVANCED,
    TOKENS_SKIPPED,
    histogram_series,
)
from repro.templates import TemplateStore

ZERO_CLOCK = lambda: 0.0  # noqa: E731


@pytest.fixture(scope="module")
def store():
    s = TemplateStore()
    s.add("alpha fault *", Severity.ERRONEOUS, token=301)
    s.add("beta warn *", Severity.UNKNOWN, token=302)
    s.add("gamma err *", Severity.ERRONEOUS, token=303)
    return s


@pytest.fixture(scope="module")
def chains():
    return ChainSet([FailureChain("FC_x", (301, 302, 303))])


def mixed_stream(repeats=5):
    msgs = [
        "alpha fault a", "benign chatter one", "beta warn b",
        "unrelated noise xyz", "gamma err c", "zeta nothing",
    ]
    # One node per repeat: each node sees whole chains plus noise.
    return [
        LogEvent(float(r * len(msgs) + i), f"node-{r % 3}", m)
        for r in range(repeats)
        for i, m in enumerate(msgs)
    ]


def counter_total(snapshot, name):
    family = snapshot.get(name, {"series": []})
    return sum(entry["value"] for entry in family["series"])


# Engine-stat series and the MatcherStats field each one totals.
ENGINE_SERIES = {
    CHAIN_ACTIVATIONS: "activations",
    TOKENS_ADVANCED: "advanced",
    TOKENS_SKIPPED: "skipped",
    CHAIN_TIMEOUTS: "resets_timeout",
    CHAIN_MATCHES: "matches",
    NEGATIVE_DELTA_T: "negative_dt",
}
ENGINE_OPS = ("process", "run_full", "run_off", "run_sampled", "lines", "blob")


class TestFleetRegistry:
    def test_counters_match_report_stats(self, store, chains):
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        report = fleet.run(mixed_stream())
        snap = obs.registry.snapshot()
        assert counter_total(snap, LINES_SEEN) == report.lines_seen
        assert counter_total(snap, LINES_TOKENIZED) == report.lines_tokenized
        assert counter_total(snap, PREDICTIONS) == len(report.predictions)

    def test_funnel_counters_sum_to_lines_seen(self, store, chains):
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        report = fleet.run(mixed_stream())
        snap = obs.registry.snapshot()
        funnel_sum = sum(counter_total(snap, name) for name, _ in FUNNEL_STAGES)
        assert funnel_sum == report.lines_seen
        # Every FC-related phrase is a DFA match (first full scan) or a
        # memo hit; the store's matcher found exactly the tokenized ones.
        assert counter_total(snap, SCANNER_DFA_MATCHES) <= report.lines_tokenized

    def test_second_run_extends_not_doubles(self, store, chains):
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        events = mixed_stream()
        fleet.run(events)
        fleet.run(events)
        snap = obs.registry.snapshot()
        assert counter_total(snap, LINES_SEEN) == 2 * len(events)
        funnel_sum = sum(counter_total(snap, name) for name, _ in FUNNEL_STAGES)
        assert funnel_sum == 2 * len(events)

    def test_latency_histogram_counts_predictions(self, store, chains):
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, obs=obs)
        report = fleet.run(mixed_stream())
        assert report.predictions  # the stream completes chains
        (entry,) = histogram_series(
            obs.registry.snapshot(), PREDICTION_SECONDS)
        assert sum(entry["counts"]) == len(report.predictions)

    def test_chain_matches_mirror_engine_stats(self, store, chains):
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs)
        report = fleet.run(mixed_stream())
        snap = obs.registry.snapshot()
        assert counter_total(snap, CHAIN_MATCHES) == len(report.predictions)

    def test_no_obs_no_counting_scanner(self, store, chains):
        from repro.templates.store import CountingTemplateScanner

        plain = PredictorFleet.from_store(chains, store, timeout=100.0)
        assert not isinstance(plain.scanner, CountingTemplateScanner)
        wired = PredictorFleet.from_store(
            chains, store, timeout=100.0, obs=Observability())
        assert isinstance(wired.scanner, CountingTemplateScanner)


class TestDaemonObs:
    @pytest.fixture(scope="class")
    def gen(self):
        from repro.logsim import ClusterLogGenerator, HPC3

        return ClusterLogGenerator(HPC3, seed=61)

    @pytest.fixture(scope="class")
    def bundle(self, gen):
        from repro.persistence import PredictorBundle

        return PredictorBundle(
            store=gen.store, chains=gen.chains,
            timeout=gen.recommended_timeout, system="HPC3")

    @staticmethod
    def stream(bundle, lines, obs, **kwargs):
        from repro.core.daemon import FleetDaemon

        with FleetDaemon(bundle, n_shards=2, obs=obs,
                         **kwargs).start() as daemon:
            assert daemon.wait_ready(30.0)
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        assert report.drained
        return report

    def test_worker_deltas_merge_without_double_count(self, gen, bundle):
        window = gen.generate_window(
            duration=1800.0, n_nodes=12, n_failures=4, n_spurious=0)
        lines = [e.to_line() for e in window.events]
        serial_obs = Observability()
        serial_report = bundle.make_fleet(obs=serial_obs).run_lines(
            lines, on_error="quarantine", timing="off")
        serial_snap = serial_obs.registry.snapshot()

        obs = Observability()
        report = self.stream(bundle, lines, obs, chunk_lines=64)
        predictions = report.predictions
        assert len(predictions) == len(serial_report.predictions) > 0
        snap = obs.registry.snapshot()
        # Summed across shard labels, totals equal the single-process
        # run's: every chunk delta merged exactly once.  (The funnel's
        # per-stage split depends on each process's scanner memo; only
        # its sum is shard-invariant.)
        for name in (LINES_SEEN, PREDICTIONS):
            assert counter_total(snap, name) == counter_total(
                serial_snap, name), name
        assert counter_total(snap, LINES_SEEN) == len(window.events)
        funnel_sum = sum(
            counter_total(snap, name) for name, _ in FUNNEL_STAGES)
        assert funnel_sum == len(window.events)
        assert counter_total(snap, PREDICTIONS) == len(predictions)
        # PredictorStats merged back through snapshot/diff/add.
        assert report.stats.lines_seen == len(window.events)
        assert report.stats.predictions == len(predictions)

    def test_shard_labels_distinguish_workers(self, gen, bundle):
        window = gen.generate_window(
            duration=1800.0, n_nodes=12, n_failures=2, n_spurious=0)
        obs = Observability()
        self.stream(bundle, [e.to_line() for e in window.events], obs)
        snap = obs.registry.snapshot()
        shards = {
            entry["labels"].get("shard")
            for entry in snap[LINES_SEEN]["series"]
        }
        assert shards == {"0", "1"}


class TestLogsimObs:
    def test_generator_records_windows_events_faults(self):
        from repro.logsim import ClusterLogGenerator, HPC3

        obs = Observability()
        gen = ClusterLogGenerator(HPC3, seed=11, obs=obs)
        window = gen.generate_window(
            duration=900.0, n_nodes=8, n_failures=3, n_spurious=1)
        snap = obs.registry.snapshot()
        assert counter_total(snap, LOGSIM_WINDOWS) == 1
        assert counter_total(snap, LOGSIM_EVENTS) == len(window.events)
        assert counter_total(snap, LOGSIM_FAULTS) == len(window.injections)
        kinds = {
            entry["labels"]["kind"]: entry["value"]
            for entry in snap[LOGSIM_FAULTS]["series"]
        }
        assert kinds.get("spurious") == 1


class TestEngineTotals:
    """The engine-stat series are running totals folded in from the
    predictors each run fed (plus those ``process()`` fed since the last
    fold-in), never from a walk over the fleet.  After every run they
    must still equal that walk."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("scan_backend", ["str", "native"])
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_totals_equal_full_walk(self, store, chains, backend,
                                    scan_backend, seed):
        rng = random.Random(seed)
        obs = Observability()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, clock=ZERO_CLOCK, obs=obs,
            backend=backend, scan_backend=scan_backend)
        messages = ["alpha fault a", "beta warn b", "gamma err c",
                    "benign chatter"]
        t = 1000.0
        checked = 0
        for step in range(60):
            events = []
            for _ in range(rng.randint(1, 25)):
                # Mostly forward; some ΔT timeouts and backwards stamps.
                t += rng.choice((1.0, 1.0, 2.0, 150.0, -3.0))
                events.append(LogEvent(
                    t, f"node-{rng.randrange(6)}", rng.choice(messages)))
            op = rng.choice(ENGINE_OPS)
            if op == "process":
                for event in events:
                    fleet.process(event)
                continue
            if op.startswith("run_"):
                fleet.run(events, timing=op[4:])
            elif op == "lines":
                fleet.run_lines([e.to_line() for e in events],
                                on_error="quarantine", timing="off")
            else:
                blob = "\n".join(e.to_line() for e in events).encode()
                fleet.run_lines(blob, on_error="quarantine",
                                timing=rng.choice(("off", "sampled")))
            snap = obs.registry.snapshot()
            for name, attr in ENGINE_SERIES.items():
                walk = sum(getattr(p._engine.stats, attr)
                           for p in fleet._predictors.values())
                assert counter_total(snap, name) == walk, (step, op, name)
            checked += 1
        assert checked
        # The stream exercised matches, ΔT timeouts and clamped stamps.
        for attr in ("matches", "resets_timeout", "negative_dt"):
            assert sum(getattr(p._engine.stats, attr)
                       for p in fleet._predictors.values()), attr
