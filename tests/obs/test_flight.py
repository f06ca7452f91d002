"""Tests for the black-box flight recorder (``repro.obs.flight``)."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    TRIGGER_ALERT,
    TRIGGER_REASONS,
    TRIGGER_SHUTDOWN,
    read_capsule,
)


class TestRingBuffer:
    def test_note_stamps_monotone_seq_and_wall(self):
        rec = FlightRecorder(capacity=8, clock=lambda: 123.0)
        rec.note("a")
        rec.note("b", detail=1)
        events = rec.events()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["wall"] == 123.0 for e in events)

    def test_capacity_bounds_the_ring(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.note("tick", i=i)
        events = rec.events()
        assert len(events) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert rec.buffered == 4

    def test_none_fields_are_dropped(self):
        rec = FlightRecorder(capacity=4)
        rec.note("tick", keep=1, drop=None)
        (event,) = rec.events()
        assert "drop" not in event
        assert event["keep"] == 1

    def test_absorb_keeps_existing_wall_stamp(self):
        rec = FlightRecorder(capacity=4, clock=lambda: 999.0)
        rec.absorb({"ev": "prediction_fired", "node": "n1", "wall": 5.0})
        (event,) = rec.events()
        assert event["kind"] == "trace"
        assert event["wall"] == 5.0


class TestTrigger:
    def test_trigger_is_sticky_per_reason(self):
        rec = FlightRecorder(capacity=8)
        rec.note("before")
        first = rec.trigger(TRIGGER_ALERT, key="r1", burn=2.0)
        again = rec.trigger(TRIGGER_ALERT, key="r1", burn=3.0)
        other = rec.trigger(TRIGGER_SHUTDOWN)
        assert first is not None
        assert again is None
        assert other is not None
        assert rec.capsules == 2

    def test_unknown_reason_rejected(self):
        rec = FlightRecorder(capacity=8)
        with pytest.raises(ValueError):
            rec.trigger("made_up_reason")

    def test_alert_rules_and_shutdown_are_the_only_reasons(self):
        assert TRIGGER_REASONS == ("alert_rule", "shutdown")

    def test_capsule_header_carries_reason_and_extras(self):
        rec = FlightRecorder(capacity=8, clock=lambda: 7.0)
        rec.note("tick")
        text = rec.trigger(TRIGGER_ALERT, key="r1", burn=4.2)
        header = json.loads(text.splitlines()[0])
        assert header["kind"] == "capsule"
        assert header["reason"] == TRIGGER_ALERT
        assert header["burn"] == 4.2
        assert header["events"] == 1

    def test_capsule_events_precede_the_trigger(self):
        # The ring replays the run-up: every buffered event carries a
        # seq assigned before the capsule was cut.
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.note("tick", i=i)
        text = rec.trigger(TRIGGER_SHUTDOWN)
        parsed = read_capsule(text)
        assert [e["i"] for e in parsed["events"]] == [0, 1, 2, 3, 4]
        seqs = [e["seq"] for e in parsed["events"]]
        assert seqs == sorted(seqs)


class TestCapsuleIO:
    def test_capsule_file_matches_served_text(self, tmp_path):
        rec = FlightRecorder(capacity=8, directory=tmp_path)
        rec.note("tick")
        snapshot = {"aarohi_lines_seen_total": {
            "type": "counter", "help": "",
            "series": [{"labels": {}, "value": 42}]}}
        text = rec.trigger(
            TRIGGER_ALERT, key="r1", snapshot=snapshot, burn=2.0)
        path = rec.last_capsule_path
        assert path is not None
        assert path.read_text(encoding="utf-8") == text
        assert rec.last_capsule_text == text
        assert TRIGGER_ALERT in path.name

    def test_read_capsule_round_trips_path_text_and_lines(self, tmp_path):
        rec = FlightRecorder(capacity=8, directory=tmp_path)
        rec.note("tick", i=1)
        snapshot = {"aarohi_predictions_total": {
            "type": "counter", "help": "",
            "series": [{"labels": {}, "value": 3}]}}
        text = rec.trigger(TRIGGER_ALERT, key="r1", snapshot=snapshot)
        for source in (text, text.splitlines(), rec.last_capsule_path):
            parsed = read_capsule(source)
            assert parsed["header"]["reason"] == TRIGGER_ALERT
            assert [e["i"] for e in parsed["events"]] == [1]
            assert parsed["snapshot"]["aarohi_predictions_total"][
                "series"][0]["value"] == 3

    def test_read_capsule_rejects_non_capsule_jsonl(self):
        with pytest.raises(ValueError):
            read_capsule('{"kind": "tick"}\n')

    def test_capsule_without_snapshot_parses(self):
        rec = FlightRecorder(capacity=8)
        text = rec.trigger(TRIGGER_SHUTDOWN)
        parsed = read_capsule(text)
        assert parsed["snapshot"] is None


class TestFacadeTriggers:
    """Capsules come from the alert rules a recorder arms: each test
    drives history captures at explicit times across a rule's ``for:``
    hold and counts the capsules."""

    def test_recorder_arms_the_default_rules(self):
        from repro.obs import (
            DEFAULT_RULES,
            Observability,
            RuleEngine,
            default_ruleset,
        )

        obs = Observability(flight=FlightRecorder())
        assert [rule.id for rule in obs.rules.rules] == [
            raw["id"] for raw in DEFAULT_RULES]
        assert obs.history.interval == 1.0
        engine = RuleEngine(default_ruleset()[:1])
        assert Observability(
            flight=FlightRecorder(), rules=engine).rules is engine
        bare = Observability()
        assert bare.rules is None
        assert bare.history is None

    def test_quarantine_burn_capsules_exactly_once(self):
        from repro.obs import Observability
        from repro.logsim import IngestStats

        obs = Observability(flight=FlightRecorder(capacity=16))
        bad = IngestStats()
        bad.lines_read = 100
        bad.decoded = 80
        bad.quarantined = 20
        bad.quarantined_by_reason["garbled"] = 20
        obs.record_ingest(bad)
        # The first breached capture only starts the rule's 1 s hold.
        assert obs.record_history(now=100.0)
        assert obs.flight.capsules == 0
        assert obs.rules.states["quarantine-burn"].state == "pending"
        assert obs.record_history(now=101.0)
        assert obs.flight.capsules == 1
        assert obs.record_history(now=102.0)
        assert obs.flight.capsules == 1  # sticky: one capsule per anomaly
        assert list(obs.flight.triggered) == ["alert_rule:quarantine-burn"]
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_ALERT
        assert parsed["header"]["rule"] == "quarantine-burn"
        assert parsed["header"]["value"] == pytest.approx(20.0)
        assert parsed["history"]
        assert parsed["snapshot"] is not None

    def test_deadline_burn_capsules_exactly_once(self):
        from repro.obs import LiveMonitor, Observability
        from repro.obs.names import DEADLINE_OK

        # A budget no latency can meet: every prediction burns it.
        obs = Observability(
            live=LiveMonitor(1e-12), flight=FlightRecorder(capacity=16))
        for latency in (0.0003, 0.0004, 0.0005):
            obs.live.observe_prediction(latency)
        obs.refresh()  # publish the burning SLO gauge
        assert obs.record_history(now=100.0)
        assert obs.flight.capsules == 0
        assert obs.rules.states["deadline-burn"].state == "pending"
        assert obs.record_history(now=101.0)
        assert obs.flight.capsules == 1
        assert obs.record_history(now=102.0)
        assert obs.flight.capsules == 1  # sticky: one capsule per anomaly
        assert list(obs.flight.triggered) == ["alert_rule:deadline-burn"]
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_ALERT
        assert parsed["header"]["rule"] == "deadline-burn"
        assert parsed["header"]["value"] > parsed["header"]["threshold"]
        assert parsed["snapshot"] is not None
        assert parsed["snapshot"][DEADLINE_OK]["series"][0]["value"] == 0

    def test_discard_drift_capsules_exactly_once(self):
        from repro.obs import Observability, QualityScoreboard

        quality = QualityScoreboard()
        # Calibrate the CUSUM on a healthy 99% discard fraction, then
        # shift it to 50%: one batch is far past the threshold.
        for _ in range(quality.drift.warmup):
            quality.record_discard(99, 100)
        quality.record_discard(50, 100)
        assert quality.drift.tripped
        obs = Observability(
            quality=quality, flight=FlightRecorder(capacity=16))
        obs.refresh()  # publish the tripped drift gauge
        # discard-drift holds for 0 s: the first capture fires it.
        assert obs.record_history(now=100.0)
        assert obs.flight.capsules == 1
        assert obs.record_history(now=101.0)
        assert obs.flight.capsules == 1
        assert list(obs.flight.triggered) == ["alert_rule:discard-drift"]
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_ALERT
        assert parsed["header"]["rule"] == "discard-drift"
        assert parsed["header"]["value"] == 1.0
        assert parsed["snapshot"] is not None

    def test_flush_shutdown_freezes_the_ring(self, tmp_path):
        from repro.obs import Observability

        obs = Observability(
            flight=FlightRecorder(capacity=16, directory=tmp_path))
        obs.flight.note("chunk", n=3)
        text = obs.flush_shutdown(signal="SIGTERM")
        assert text is not None
        parsed = read_capsule(text)
        assert parsed["header"]["reason"] == TRIGGER_SHUTDOWN
        assert parsed["header"]["signal"] == "SIGTERM"
        assert parsed["snapshot"] is not None
        assert any(e["kind"] == "chunk" for e in parsed["events"])
        # Written to the capsule directory like any anomaly capsule.
        assert obs.flight.last_capsule_path is not None
        assert obs.flight.last_capsule_path.exists()
        # Sticky: a double drain writes exactly one capsule.
        assert obs.flush_shutdown(signal="SIGTERM") is None
        assert obs.flight.capsules == 1

    def test_flush_shutdown_without_recorder_is_noop(self):
        from repro.obs import Observability

        assert Observability().flush_shutdown() is None

    def test_tracer_mirror_feeds_the_ring(self, tmp_path):
        import io

        from repro.obs import Observability, Tracer

        flight = FlightRecorder(capacity=16)
        tracer = Tracer(io.StringIO(), sample=1.0)
        obs = Observability(tracer=tracer, flight=flight)
        assert tracer.mirror is not None
        obs.tracer.emit("prediction_fired", "n7", t=1.0)
        kinds = [e["kind"] for e in flight.events()]
        assert "trace" in kinds
        (trace_event,) = [e for e in flight.events() if e["kind"] == "trace"]
        assert trace_event["node"] == "n7"
