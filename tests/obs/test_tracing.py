"""Tests for the prediction-lifecycle tracer and trace analytics."""

import io
import json

import pytest

from repro.core.events import NodeFailure
from repro.obs.tracing import (
    CHAIN_STARTED,
    EVENT_KINDS,
    PREDICTION_FIRED,
    TOKEN_ADVANCED,
    Tracer,
    lifecycle_counts,
    read_trace,
    realized_lead_times,
)


class TestEmitAndRead:
    def test_round_trip(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=lambda: 99.0)
        tracer.emit(CHAIN_STARTED, "node-1", chain="FC_x", token=7, t=3.5)
        tracer.emit(PREDICTION_FIRED, "node-1", chain="FC_x", t=9.0)
        tracer.close()
        records = read_trace(io.StringIO(sink.getvalue()))
        assert [r["ev"] for r in records] == [CHAIN_STARTED, PREDICTION_FIRED]
        assert records[0]["chain"] == "FC_x"
        assert records[0]["wall"] == 99.0
        assert tracer.emitted == 2

    def test_none_fields_dropped(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=lambda: 0.0)
        tracer.emit(TOKEN_ADVANCED, "n", chain=None, token=5, t=1.0)
        (record,) = read_trace(io.StringIO(sink.getvalue()))
        assert "chain" not in record
        assert record["token"] == 5

    def test_unknown_event_kind_rejected_on_read(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO('{"ev": "mystery", "node": "n"}\n'))

    def test_lines_are_compact_json_dumps(self):
        """Each line is byte-equal to ``json.dumps(record,
        separators=(",", ":"))`` of the record the tracer keeps: ints,
        floats, non-ASCII node names, ``None`` fields dropped."""
        sink = io.StringIO()
        records = []
        walls = iter([1.5e9 + 0.125, 7, -0.0, 1e-7])
        tracer = Tracer(sink, clock=lambda: next(walls),
                        mirror=records.append)
        tracer.emit(CHAIN_STARTED, "nœud-ü", chain="FC_é", token=7, t=3.5)
        tracer.emit(TOKEN_ADVANCED, "c0-0c0s1n2", chain=None, token=176,
                    t=1e300, index=None)
        tracer.emit(PREDICTION_FIRED, "节点-1", chain="FC_x",
                    t=1600000000.123456, lead=float("inf"))
        tracer.emit(CHAIN_STARTED, "n\"q\\", t=0.1 + 0.2)
        lines = sink.getvalue().split("\n")
        assert lines[-1] == ""
        assert lines[:-1] == [
            json.dumps(record, separators=(",", ":")) for record in records]
        assert "chain" not in records[1] and "index" not in records[1]
        assert records[2]["node"] == "节点-1"

    def test_path_sink_owned_and_closed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(str(path), clock=lambda: 0.0) as tracer:
            tracer.emit(CHAIN_STARTED, "n", chain="FC", t=0.0)
        records = read_trace(str(path))
        assert len(records) == 1


class TestSampling:
    def test_sample_one_traces_everything(self):
        tracer = Tracer(io.StringIO(), sample=1.0)
        assert all(tracer.sample_chain() for _ in range(20))

    def test_sample_zero_traces_nothing(self):
        tracer = Tracer(io.StringIO(), sample=0.0)
        # The accumulator starts full, so even the first activation needs
        # a nonzero rate to fire.
        assert not any(tracer.sample_chain() for _ in range(20))

    def test_fractional_rate_is_deterministic_and_proportional(self):
        tracer = Tracer(io.StringIO(), sample=0.25)
        decisions = [tracer.sample_chain() for _ in range(100)]
        # The accumulator starts full: the first activation fires, then
        # every 4th after it — 26 of 100 at rate 0.25.
        assert decisions[0] is True
        assert sum(decisions) == 26
        again = Tracer(io.StringIO(), sample=0.25)
        assert [again.sample_chain() for _ in range(100)] == decisions

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(io.StringIO(), sample=1.5)


class TestRealizedLeadTimes:
    def make_records(self):
        return [
            {"ev": CHAIN_STARTED, "node": "a", "chain": "FC", "t": 0.0},
            {"ev": PREDICTION_FIRED, "node": "a", "chain": "FC", "t": 10.0},
            {"ev": PREDICTION_FIRED, "node": "b", "chain": "FC", "t": 20.0},
        ]

    def test_fired_records_gain_lead(self):
        failures = [NodeFailure(node="a", time=130.0, chain_id="FC")]
        annotated = realized_lead_times(self.make_records(), failures)
        fired = [r for r in annotated if r["ev"] == PREDICTION_FIRED]
        assert fired[0]["lead"] == pytest.approx(120.0)
        assert fired[1]["lead"] is None  # node b never failed
        # Non-fired records pass through unannotated.
        assert "lead" not in annotated[0]

    def test_horizon_limits_pairing(self):
        failures = [NodeFailure(node="a", time=10_000.0, chain_id="FC")]
        annotated = realized_lead_times(
            self.make_records(), failures, horizon=100.0)
        fired = [r for r in annotated if r["ev"] == PREDICTION_FIRED]
        assert fired[0]["lead"] is None

    def test_input_not_mutated(self):
        records = self.make_records()
        realized_lead_times(
            records, [NodeFailure(node="a", time=130.0, chain_id="FC")])
        assert "lead" not in records[1]

    def test_duplicate_flags_credit_earliest_only(self):
        records = [
            {"ev": PREDICTION_FIRED, "node": "a", "t": 10.0},
            {"ev": PREDICTION_FIRED, "node": "a", "t": 40.0},
        ]
        failures = [NodeFailure(node="a", time=100.0, chain_id="FC")]
        fired = realized_lead_times(records, failures)
        assert fired[0]["lead"] == pytest.approx(90.0)
        assert fired[1]["lead"] is None
        assert fired[1].get("duplicate") is True
        assert "duplicate" not in fired[0]

    def test_each_failure_credited_once_across_two_failures(self):
        records = [
            {"ev": PREDICTION_FIRED, "node": "a", "t": 10.0},
            {"ev": PREDICTION_FIRED, "node": "a", "t": 60.0},
        ]
        failures = [
            NodeFailure(node="a", time=50.0, chain_id="FC"),
            NodeFailure(node="a", time=100.0, chain_id="FC"),
        ]
        fired = realized_lead_times(records, failures)
        # Earliest flag claims the earliest failure; the second flag
        # moves on to the next one rather than double-crediting.
        assert fired[0]["lead"] == pytest.approx(40.0)
        assert fired[1]["lead"] == pytest.approx(40.0)
        assert not any("duplicate" in r for r in fired)


class TestRealizedLeadsDifferential:
    """Satellite acceptance: lead times recovered from a real fleet's
    trace equal the offline pair_predictions leads, flag for flag."""

    def test_trace_leads_match_offline_pairing(self):
        from repro.core import PredictorFleet
        from repro.core.leadtime import pair_predictions
        from repro.logsim import ClusterLogGenerator, HPC3
        from repro.obs import Observability

        gen = ClusterLogGenerator(HPC3, seed=43)
        window = gen.generate_window(
            duration=1800.0, n_nodes=12, n_failures=5, n_spurious=2)
        sink = io.StringIO()
        obs = Observability(tracer=Tracer(sink, sample=0.0, clock=lambda: 0.0))
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout, obs=obs)
        report = fleet.run(window.events, timing="off")
        assert report.predictions

        records = read_trace(io.StringIO(sink.getvalue()))
        fired = [r for r in records if r["ev"] == PREDICTION_FIRED]
        # sample=0.0 still emits every prediction_fired record.
        assert len(fired) == len(report.predictions)

        annotated = realized_lead_times(
            records, window.failures, horizon=1800.0)
        trace_leads = sorted(
            r["lead"] for r in annotated
            if r["ev"] == PREDICTION_FIRED and r["lead"] is not None)
        offline = pair_predictions(
            report.predictions, window.failures, horizon=1800.0)
        offline_leads = sorted(rec.lead_time for rec in offline.matched)
        assert trace_leads == pytest.approx(offline_leads)
        # Unrealized flags (trace-side) == offline FPs + duplicates.
        unrealized = sum(
            1 for r in annotated
            if r["ev"] == PREDICTION_FIRED and r["lead"] is None)
        assert unrealized == len(report.predictions) - len(offline.matched)


class TestLifecycleCounts:
    def test_counts_every_kind(self):
        counts = lifecycle_counts([
            {"ev": CHAIN_STARTED}, {"ev": CHAIN_STARTED},
            {"ev": PREDICTION_FIRED},
        ])
        assert counts[CHAIN_STARTED] == 2
        assert counts[PREDICTION_FIRED] == 1
        assert set(counts) == set(EVENT_KINDS)
