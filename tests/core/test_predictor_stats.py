"""Tests for predictor cost accounting and stats."""

import itertools

import pytest

from repro.core import AarohiPredictor, ChainSet, FailureChain, LogEvent
from repro.templates import TemplateStore


@pytest.fixture
def setup():
    store = TemplateStore()
    store.add("one alpha *", token=401)
    store.add("two beta *", token=402)
    chains = ChainSet([FailureChain("FC", (401, 402))])
    return store, chains


def make_predictor(store, chains, **kwargs):
    counter = itertools.count()
    # Deterministic clock: each call advances 1 ms.
    clock = lambda: next(counter) * 1e-3
    return AarohiPredictor.from_store(
        chains, store, timeout=100.0, clock=clock, **kwargs)


class TestCostAccounting:
    def test_prediction_time_accumulates_over_chain(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        pred = predictor.process(LogEvent(1.0, "n", "two beta y"))
        assert pred is not None
        # Each process(): tokenize (1 tick) + feed (1 tick) = 2 ms; two
        # events → 4 ms accumulated chain cost.
        assert pred.prediction_time == pytest.approx(4e-3)

    def test_benign_scan_cost_counted(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        predictor.process(LogEvent(0.5, "n", "completely benign"))
        pred = predictor.process(LogEvent(1.0, "n", "two beta y"))
        # The benign line's scan tick joins the chain cost (5 ticks).
        assert pred.prediction_time == pytest.approx(5e-3)

    def test_cost_resets_after_prediction(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        first = predictor.process(LogEvent(1.0, "n", "two beta y"))
        predictor.process(LogEvent(10.0, "n", "one alpha x"))
        second = predictor.process(LogEvent(11.0, "n", "two beta y"))
        assert second.prediction_time == pytest.approx(first.prediction_time)

    def test_stats_fields(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        predictor.process(LogEvent(0.5, "n", "noise"))
        predictor.process(LogEvent(1.0, "n", "two beta y"))
        stats = predictor.stats
        assert stats.lines_seen == 3
        assert stats.lines_tokenized == 2
        assert stats.predictions == 1
        assert stats.tokenize_seconds > 0
        assert stats.feed_seconds > 0

    def test_manual_reset_clears_chain_cost(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        predictor.reset()
        predictor.process(LogEvent(10.0, "n", "one alpha x"))
        pred = predictor.process(LogEvent(11.0, "n", "two beta y"))
        assert pred.prediction_time == pytest.approx(4e-3)


class TestSnapshotDiffAdd:
    """The windowed-accounting API (snapshot → work → diff → add) that
    FleetReport and the daemon's worker merging are built on."""

    def run_window(self, predictor):
        predictor.process(LogEvent(0.0, "n", "one alpha x"))
        predictor.process(LogEvent(0.5, "n", "noise"))
        predictor.process(LogEvent(1.0, "n", "two beta y"))

    def test_snapshot_is_independent_copy(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        before = predictor.stats.snapshot()
        self.run_window(predictor)
        assert before.lines_seen == 0
        assert predictor.stats.lines_seen == 3

    def test_diff_isolates_one_window(self, setup):
        store, chains = setup
        predictor = make_predictor(store, chains)
        self.run_window(predictor)
        before = predictor.stats.snapshot()
        self.run_window(predictor)
        delta = predictor.stats.diff(before)
        assert delta.lines_seen == 3
        assert delta.lines_tokenized == 2
        assert delta.predictions == 1
        assert delta.tokenize_seconds > 0
        # Cumulative totals unchanged by diffing.
        assert predictor.stats.lines_seen == 6

    def test_add_accumulates_in_place(self, setup):
        from repro.core.predictor import PredictorStats

        store, chains = setup
        total = PredictorStats()
        for _ in range(3):
            predictor = make_predictor(store, chains)
            self.run_window(predictor)
            total.add(predictor.stats.diff(PredictorStats()))
        assert total.lines_seen == 9
        assert total.predictions == 3
        assert total.fc_related_fraction == pytest.approx(6 / 9)

    def test_add_covers_every_field(self):
        from dataclasses import fields

        from repro.core.predictor import PredictorStats

        one = PredictorStats(**{f.name: 1 for f in fields(PredictorStats)})
        total = PredictorStats()
        total.add(one)
        total.add(one)
        assert all(getattr(total, f.name) == 2
                   for f in fields(PredictorStats))
