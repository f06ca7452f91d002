"""Tests for the ingest-funnel observability plane (ISSUE 5)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.logsim import IngestStats
from repro.obs import (
    INGEST_DECODED,
    INGEST_FUNNEL_STAGES,
    INGEST_LINES_READ,
    INGEST_QUARANTINE_BURN,
    INGEST_QUARANTINED,
    NEGATIVE_DELTA_T,
    Observability,
    ObsServer,
)


def series_value(snapshot, name):
    (entry,) = snapshot[name]["series"]
    return entry["value"]


def ingest_delta(lines_read, quarantined, **extra):
    stats = IngestStats(
        lines_read=lines_read, decoded=lines_read - quarantined,
        quarantined=quarantined, **extra)
    assert stats.funnel_ok
    return stats


class TestRecordIngest:
    def test_counters_published_with_funnel_identity(self):
        obs = Observability()
        obs.record_ingest(ingest_delta(100, 3, reordered=2))
        obs.record_ingest(ingest_delta(50, 1))
        snap = obs.registry.snapshot()
        assert series_value(snap, INGEST_LINES_READ) == 150
        assert series_value(snap, INGEST_DECODED) == 146
        assert series_value(snap, INGEST_QUARANTINED) == 4
        stage_total = sum(
            series_value(snap, name) for name, _ in INGEST_FUNNEL_STAGES)
        assert stage_total == series_value(snap, INGEST_LINES_READ)

    def test_burn_rate_gauge(self):
        obs = Observability(quarantine_slo=0.10)
        obs.record_ingest(ingest_delta(100, 5))
        snap = obs.registry.snapshot()
        assert series_value(snap, INGEST_QUARANTINE_BURN) == \
            pytest.approx(0.5)

    def test_invalid_slo_rejected(self):
        with pytest.raises(ValueError):
            Observability(quarantine_slo=0.0)
        with pytest.raises(ValueError):
            Observability(quarantine_slo=1.5)


class TestNegativeDeltaTMetric:
    def test_published_from_engine_stats(self):
        from repro.core.matcher import MatcherStats

        obs = Observability()
        obs.record_engine_stats(MatcherStats(negative_dt=5))
        snap = obs.registry.snapshot()
        assert series_value(snap, NEGATIVE_DELTA_T) == 5


class TestBoundHandles:
    def test_handles_follow_registry_and_labels(self):
        """Fold-ins write handles bound once, yet a new registry or
        labels dict on the facade gets the next fold-in's series."""
        from repro.obs import Registry

        obs = Observability(labels={"shard": "0"})
        obs.record_ingest(ingest_delta(10, 1))
        first = obs.registry
        obs.registry = Registry()
        obs.record_ingest(ingest_delta(5, 0))
        assert series_value(first.snapshot(), INGEST_LINES_READ) == 10
        (entry,) = obs.registry.snapshot()[INGEST_LINES_READ]["series"]
        assert entry == {"labels": {"shard": "0"}, "value": 15}
        obs.labels = {"shard": "1"}
        obs.record_ingest(ingest_delta(1, 0))
        series = obs.registry.snapshot()[INGEST_LINES_READ]["series"]
        assert [e["labels"]["shard"] for e in series] == ["0", "1"]

    def test_series_appear_when_first_written(self):
        obs = Observability()
        obs.record_fleet_run(n_events=3, n_nodes=1, seconds=None)
        assert "aarohi_fleet_run_seconds" not in obs.registry.snapshot()
        obs.record_fleet_run(n_events=3, n_nodes=1, seconds=0.5)
        assert "aarohi_fleet_run_seconds" in obs.registry.snapshot()


class TestHealthzBurn:
    def fetch_healthz(self, obs):
        with ObsServer(obs) as server:
            url = server.url("/healthz")
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    return resp.status, json.loads(resp.read().decode())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read().decode())

    def test_quarantine_within_slo_is_ok(self):
        obs = Observability(quarantine_slo=0.10)
        obs.record_ingest(ingest_delta(1000, 5))  # 0.5% << 10%
        status, payload = self.fetch_healthz(obs)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["ingest"]["ok"] is True
        assert payload["ingest"]["burn_rate"] == pytest.approx(0.05)

    def test_quarantine_burn_over_slo_fails(self):
        obs = Observability(quarantine_slo=0.01)
        obs.record_ingest(ingest_delta(1000, 100))  # 10% >> 1% SLO
        status, payload = self.fetch_healthz(obs)
        assert status == 503
        assert payload["status"] == "failing"
        assert payload["ingest"]["ok"] is False
        assert payload["ingest"]["burn_rate"] == pytest.approx(10.0)

    def test_no_ingest_means_no_section(self):
        obs = Observability()
        status, payload = self.fetch_healthz(obs)
        assert status == 200
        assert "ingest" not in payload
