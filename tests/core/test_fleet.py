"""Tests for the per-node predictor fleet."""

import pytest

from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
from repro.core.events import Severity
from repro.templates import TemplateStore


@pytest.fixture
def store():
    s = TemplateStore()
    s.add("alpha fault *", Severity.ERRONEOUS, token=301)
    s.add("beta warn *", Severity.UNKNOWN, token=302)
    s.add("gamma err *", Severity.ERRONEOUS, token=303)
    return s


@pytest.fixture
def chains():
    return ChainSet([FailureChain("FC_x", (301, 302, 303))])


def episode(node, base):
    msgs = ["alpha fault a", "beta warn b", "gamma err c"]
    return [LogEvent(base + 2.0 * i, node, m) for i, m in enumerate(msgs)]


class TestFleet:
    def test_per_node_isolation(self, store, chains):
        """Interleaved chains on two nodes both match — a single shared
        matcher would break on the interleaving."""
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        a = episode("node-a", 0.0)
        b = episode("node-b", 1.0)
        stream = sorted(a + b, key=lambda e: e.time)
        report = fleet.run(stream)
        assert sorted(p.node for p in report.predictions) == ["node-a", "node-b"]

    def test_lazy_instantiation(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        assert fleet.nodes == []
        fleet.process(LogEvent(0.0, "n1", "alpha fault q"))
        assert fleet.nodes == ["n1"]

    def test_predictors_share_tokenizer(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        p1 = fleet.predictor_for("a")
        p2 = fleet.predictor_for("b")
        assert p1 is not p2
        assert p1.tokenizer is p2.tokenizer  # shared compiled scanner

    def test_predictor_for_is_stable(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        assert fleet.predictor_for("a") is fleet.predictor_for("a")

    def test_report_aggregates_stats(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        stream = episode("a", 0.0) + [LogEvent(9.0, "a", "benign chatter")]
        report = fleet.run(stream)
        assert report.lines_seen == 4
        assert report.lines_tokenized == 3
        assert report.fc_related_fraction == pytest.approx(0.75)
        assert report.nodes == 1

    def test_lalr_backend_fleet(self, store, chains):
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, backend="lalr")
        report = fleet.run(episode("n", 0.0))
        assert [p.chain_id for p in report.predictions] == ["FC_x"]

    def test_custom_clock_propagates(self, store, chains):
        ticks = iter(range(10_000))
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0,
            clock=lambda: float(next(ticks)))
        report = fleet.run(episode("n", 0.0))
        # Deterministic clock → deterministic integer prediction time.
        assert report.predictions[0].prediction_time == int(
            report.predictions[0].prediction_time)

    def test_empty_report(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        report = fleet.run([])
        assert report.fc_related_fraction == 0.0
        assert report.predictions == []


class TestSharedChainTables:
    """The chain set builds its rule tables once; a new predictor holds
    references to them instead of rebuilding them per node."""

    def test_matchers_share_the_chain_set_tables(self, store, chains):
        fleet = PredictorFleet.from_store(chains, store, timeout=100.0)
        for i in range(50):
            fleet.run(episode(f"n{i}", float(i)))
        assert len(fleet.nodes) == 50
        for node in fleet.nodes:
            matcher = fleet.predictor_for(node)._engine.matcher
            assert matcher._sequences is chains.sequences
            assert matcher._chain_ids is chains.chain_ids
            assert matcher._first_of is chains.first_of
            assert matcher._token_owner is chains.token_owner

    def test_lalr_fleet_builds_parser_tables_once(self, store, chains,
                                                  monkeypatch):
        from repro.core import grammar_builder

        built = []
        real = grammar_builder.build_chain_tables

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grammar_builder, "build_chain_tables", counting)
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, backend="lalr")
        stream = sorted(
            (e for i in range(40) for e in episode(f"n{i}", float(i))),
            key=lambda e: e.time)
        report = fleet.run(stream)
        assert len(report.predictions) == 40 and len(fleet.nodes) == 40
        assert len(built) == 1
        tables = {id(fleet.predictor_for(n)._engine.tables)
                  for n in fleet.nodes}
        assert tables == {id(chains.lalr_tables)}
