"""Tests for the black-box flight recorder (``repro.obs.flight``)."""

import json

import pytest

from repro.obs import (
    FlightRecorder,
    TRIGGER_DEADLINE,
    TRIGGER_DRIFT,
    TRIGGER_QUARANTINE,
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
        first = rec.trigger(TRIGGER_DEADLINE, burn=2.0)
        again = rec.trigger(TRIGGER_DEADLINE, burn=3.0)
        other = rec.trigger(TRIGGER_DRIFT)
        assert first is not None
        assert again is None
        assert other is not None
        assert rec.capsules == 2

    def test_unknown_reason_rejected(self):
        rec = FlightRecorder(capacity=8)
        with pytest.raises(ValueError):
            rec.trigger("made_up_reason")

    def test_reset_trigger_rearms(self):
        rec = FlightRecorder(capacity=8)
        assert rec.trigger(TRIGGER_QUARANTINE, burn=1.5) is not None
        rec.reset_trigger(TRIGGER_QUARANTINE)
        assert rec.trigger(TRIGGER_QUARANTINE, burn=1.6) is not None

    def test_capsule_header_carries_reason_and_extras(self):
        rec = FlightRecorder(capacity=8, clock=lambda: 7.0)
        rec.note("tick")
        text = rec.trigger(TRIGGER_DEADLINE, burn=4.2)
        header = json.loads(text.splitlines()[0])
        assert header["kind"] == "capsule"
        assert header["reason"] == TRIGGER_DEADLINE
        assert header["burn"] == 4.2
        assert header["events"] == 1

    def test_capsule_events_precede_the_trigger(self):
        # The ring replays the run-up: every buffered event carries a
        # seq assigned before the capsule was cut.
        rec = FlightRecorder(capacity=8)
        for i in range(5):
            rec.note("tick", i=i)
        text = rec.trigger(TRIGGER_DRIFT)
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
        text = rec.trigger(TRIGGER_QUARANTINE, snapshot=snapshot, burn=2.0)
        path = rec.last_capsule_path
        assert path is not None
        assert path.read_text(encoding="utf-8") == text
        assert rec.last_capsule_text == text
        assert TRIGGER_QUARANTINE in path.name

    def test_read_capsule_round_trips_path_text_and_lines(self, tmp_path):
        rec = FlightRecorder(capacity=8, directory=tmp_path)
        rec.note("tick", i=1)
        snapshot = {"aarohi_predictions_total": {
            "type": "counter", "help": "",
            "series": [{"labels": {}, "value": 3}]}}
        text = rec.trigger(TRIGGER_DEADLINE, snapshot=snapshot)
        for source in (text, text.splitlines(), rec.last_capsule_path):
            parsed = read_capsule(source)
            assert parsed["header"]["reason"] == TRIGGER_DEADLINE
            assert [e["i"] for e in parsed["events"]] == [1]
            assert parsed["snapshot"]["aarohi_predictions_total"][
                "series"][0]["value"] == 3

    def test_read_capsule_rejects_non_capsule_jsonl(self):
        with pytest.raises(ValueError):
            read_capsule('{"kind": "tick"}\n')

    def test_capsule_without_snapshot_parses(self):
        rec = FlightRecorder(capacity=8)
        text = rec.trigger(TRIGGER_DRIFT)
        parsed = read_capsule(text)
        assert parsed["snapshot"] is None


class TestFacadeTriggers:
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
        fired = obs.check_flight()
        assert fired == ["quarantine_slo"]
        assert obs.check_flight() == []  # sticky: one capsule per anomaly
        assert obs.flight.capsules == 1
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_QUARANTINE
        assert parsed["snapshot"] is not None

    def test_deadline_burn_capsules_exactly_once(self):
        from repro.obs import LiveMonitor, Observability

        # A budget no latency can meet: every prediction burns it.
        obs = Observability(
            live=LiveMonitor(1e-12), flight=FlightRecorder(capacity=16))
        obs.live.observe_predictions([0.0003, 0.0004, 0.0005])
        assert obs.check_flight() == [TRIGGER_DEADLINE]
        assert obs.check_flight() == []  # sticky: one capsule per anomaly
        assert obs.flight.capsules == 1
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_DEADLINE
        assert parsed["header"]["verdict"]["ok"] is False
        assert parsed["header"]["verdict"]["burn_rate"] > 1.0
        assert parsed["snapshot"] is not None

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
        assert obs.check_flight() == [TRIGGER_DRIFT]
        assert obs.check_flight() == []
        assert obs.flight.capsules == 1
        parsed = read_capsule(obs.flight.last_capsule_text)
        assert parsed["header"]["reason"] == TRIGGER_DRIFT
        assert parsed["header"]["drift"]["tripped"] is True
        assert parsed["snapshot"] is not None

    def test_flush_shutdown_freezes_the_ring(self, tmp_path):
        from repro.obs import Observability, TRIGGER_SHUTDOWN

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
