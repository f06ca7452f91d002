"""Tests for stage-level span tracing (``repro.obs.spans``)."""

import pytest

from repro.obs import Registry, SpanClock, SpanTimer, shard_span_breakdown
from repro.obs.names import (
    SPAN_RUN_SECONDS,
    SPAN_RUNS,
    SPAN_RUNS_SAMPLED,
    SPAN_STAGE_LATENCY,
    SPAN_STAGE_SECONDS,
)
from repro.obs.spans import (
    SPAN_STAGES,
    STAGE_DECODE,
    STAGE_EMIT,
    STAGE_MATCH,
    STAGE_SCAN,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestSpanTimer:
    def test_laps_telescope_exactly(self):
        clock = FakeClock()
        timer = SpanTimer(clock)
        clock.advance(0.25)
        timer.lap(STAGE_DECODE, 100)
        clock.advance(0.5)
        timer.lap(STAGE_SCAN, 100)
        clock.advance(0.125)
        timer.lap(STAGE_MATCH, 40)
        assert timer.total == sum(timer.seconds.values())
        assert timer.seconds[STAGE_SCAN] == 0.5
        assert timer.records[STAGE_DECODE] == 100

    def test_repeated_laps_accumulate(self):
        clock = FakeClock()
        timer = SpanTimer(clock)
        for _ in range(3):
            clock.advance(0.1)
            timer.lap(STAGE_MATCH, 10)
        assert timer.seconds[STAGE_MATCH] == pytest.approx(0.3)
        assert timer.records[STAGE_MATCH] == 30

    def test_carve_is_zero_sum(self):
        clock = FakeClock()
        timer = SpanTimer(clock)
        clock.advance(1.0)
        timer.lap(STAGE_MATCH, 50)
        timer.carve(STAGE_MATCH, STAGE_EMIT, 0.25, 2)
        assert timer.seconds[STAGE_MATCH] == pytest.approx(0.75)
        assert timer.seconds[STAGE_EMIT] == pytest.approx(0.25)
        assert timer.total == pytest.approx(sum(timer.seconds.values()))
        assert timer.records[STAGE_EMIT] == 2

    def test_carve_before_enclosing_lap_still_telescopes(self):
        # The fleet carves emit time out mid-loop, before the match lap
        # closes — the transient negative cancels when it does.
        clock = FakeClock()
        timer = SpanTimer(clock)
        clock.advance(0.3)
        timer.carve(STAGE_MATCH, STAGE_EMIT, 0.1, 1)
        clock.advance(0.7)
        timer.lap(STAGE_MATCH, 10)
        assert timer.total == pytest.approx(sum(timer.seconds.values()))
        assert timer.seconds[STAGE_EMIT] == pytest.approx(0.1)


class TestSpanClockSampling:
    def test_sample_one_times_every_run(self):
        clock = SpanClock(1.0)
        timers = [clock.start_run() for _ in range(10)]
        assert all(t is not None for t in timers)
        assert clock.runs == 10
        assert clock.runs_sampled == 10

    def test_sample_zero_times_nothing(self):
        clock = SpanClock(0.0)
        assert all(clock.start_run() is None for _ in range(10))
        assert clock.runs == 10
        assert clock.runs_sampled == 0

    def test_fractional_sample_is_deterministic_and_proportional(self):
        clock = SpanClock(0.25)
        picks = [clock.start_run() is not None for _ in range(100)]
        # Accumulator starts full: run 1 samples, then every 4th run.
        assert picks[0] is True
        assert sum(picks) == 26

    def test_rejects_out_of_range_sample(self):
        with pytest.raises(ValueError):
            SpanClock(1.5)

    def test_unsampled_finish_is_a_noop(self):
        clock = SpanClock(0.0)
        clock.finish_run(None)
        assert clock.run_seconds == 0.0
        assert clock.stage_seconds == {}


class TestPublishAndBreakdown:
    def _clock_with_run(self, wall):
        span_clock = SpanClock(1.0, clock=wall)
        timer = span_clock.start_run()
        wall.advance(0.5)
        timer.lap(STAGE_DECODE, 200)
        wall.advance(1.5)
        timer.lap(STAGE_MATCH, 200)
        span_clock.finish_run(timer)
        return span_clock

    def test_publish_round_trips_through_breakdown(self):
        wall = FakeClock()
        span_clock = self._clock_with_run(wall)
        registry = Registry()
        span_clock.publish(registry, {"shard": "3"})
        breakdown = shard_span_breakdown(registry.snapshot())
        assert set(breakdown) == {"3"}
        shard = breakdown["3"]
        assert shard["runs"] == 1
        assert shard["runs_sampled"] == 1
        assert shard["stages"][STAGE_DECODE]["records"] == 200
        stage_sum = sum(s["seconds"] for s in shard["stages"].values())
        assert stage_sum == pytest.approx(shard["run_seconds"])

    def test_unlabeled_series_land_under_dash(self):
        wall = FakeClock()
        span_clock = self._clock_with_run(wall)
        registry = Registry()
        span_clock.publish(registry)
        breakdown = shard_span_breakdown(registry.snapshot())
        assert set(breakdown) == {"-"}

    def test_publish_is_set_total_idempotent(self):
        # Cumulative-slot discipline: publishing twice must not double.
        wall = FakeClock()
        span_clock = self._clock_with_run(wall)
        registry = Registry()
        span_clock.publish(registry)
        span_clock.publish(registry)
        snap = registry.snapshot()
        (runs,) = snap[SPAN_RUNS]["series"]
        assert runs["value"] == 1
        (seconds,) = snap[SPAN_RUN_SECONDS]["series"]
        assert seconds["value"] == pytest.approx(2.0)

    def test_latency_quantiles_published_per_stage(self):
        wall = FakeClock()
        span_clock = self._clock_with_run(wall)
        registry = Registry()
        span_clock.publish(registry)
        snap = registry.snapshot()
        labels = [
            entry["labels"] for entry in snap[SPAN_STAGE_LATENCY]["series"]]
        stages = {lbl["stage"] for lbl in labels}
        assert stages == {STAGE_DECODE, STAGE_MATCH}
        assert {lbl["quantile"] for lbl in labels} == {"0.5", "0.9", "0.99"}

    def test_report_orders_stages_pipeline_first(self):
        wall = FakeClock()
        span_clock = self._clock_with_run(wall)
        report = span_clock.report()
        stages = [entry["stage"] for entry in report["stages"]]
        assert stages == [s for s in SPAN_STAGES if s in stages]
        decode = report["stages"][0]
        assert decode["seconds_per_record"] == pytest.approx(0.5 / 200)

    def test_merged_multi_shard_breakdown_keeps_shards_distinct(self):
        registry = Registry()
        for shard in ("0", "1"):
            wall = FakeClock()
            self._clock_with_run(wall).publish(registry, {"shard": shard})
        breakdown = shard_span_breakdown(registry.snapshot())
        assert set(breakdown) == {"0", "1"}
        for shard in breakdown.values():
            stage_sum = sum(s["seconds"] for s in shard["stages"].values())
            assert stage_sum == pytest.approx(shard["run_seconds"])


class TestFleetIntegration:
    def test_serial_fleet_attributes_stages(self):
        pytest.importorskip("numpy")
        from repro.core import PredictorFleet
        from repro.logsim import ClusterLogGenerator, HPC3
        from repro.obs import Observability

        gen = ClusterLogGenerator(HPC3, seed=11)
        obs = Observability(spans=SpanClock(1.0))
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout, obs=obs)
        window = gen.generate_window(
            duration=600.0, n_nodes=6, n_failures=2, n_spurious=1)
        report = fleet.run(window.events)
        spans = obs.spans
        assert spans.runs == 1
        assert spans.runs_sampled == 1
        assert sum(spans.stage_seconds.values()) == pytest.approx(
            spans.run_seconds)
        # The per-event loop: measured tokenize time is scan, the rest
        # of the loop match.
        assert spans.stage_records[STAGE_SCAN] == len(window.events)
        assert spans.stage_records[STAGE_MATCH] == report.lines_tokenized
        assert spans.stage_seconds[STAGE_SCAN] == pytest.approx(
            report.stats.tokenize_seconds)

    def test_unsampled_runs_record_nothing(self):
        pytest.importorskip("numpy")
        from repro.core import PredictorFleet
        from repro.logsim import ClusterLogGenerator, HPC3
        from repro.obs import Observability

        gen = ClusterLogGenerator(HPC3, seed=11)
        obs = Observability(spans=SpanClock(0.0))
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout, obs=obs)
        window = gen.generate_window(
            duration=600.0, n_nodes=6, n_failures=1, n_spurious=0)
        fleet.run(window.events)
        assert obs.spans.runs == 1
        assert obs.spans.runs_sampled == 0
        assert obs.registry.snapshot().get(SPAN_STAGE_SECONDS) is None
        (sampled,) = obs.registry.snapshot()[SPAN_RUNS_SAMPLED]["series"]
        assert sampled["value"] == 0
