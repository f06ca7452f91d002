"""Tests for the HTTP exposition server (``/metrics``, ``/healthz``,
``/quality``) against an ephemeral port."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.events import NodeFailure, Prediction
from repro.obs import (
    LINES_SEEN,
    LiveMonitor,
    Observability,
    ObsServer,
    QualityScoreboard,
    parse_prometheus,
)
from repro.obs.server import PROMETHEUS_CONTENT_TYPE


def fetch(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), \
            resp.read().decode("utf-8")


@pytest.fixture()
def obs():
    o = Observability(
        live=LiveMonitor(0.01, clock=lambda: 0.0),
        quality=QualityScoreboard())
    o.registry.counter(LINES_SEEN, "lines").inc(42)
    return o


class TestMetricsEndpoint:
    def test_scrape_parses_and_carries_content_type(self, obs):
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/metrics"))
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        snap = parse_prometheus(body)
        (entry,) = snap[LINES_SEEN]["series"]
        assert entry["value"] == 42

    def test_scrape_refreshes_live_gauges(self, obs):
        obs.live.observe_prediction(0.001)
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/metrics"))
        assert "aarohi_live_prediction_latency_seconds" in body
        assert "aarohi_deadline_ok 1" in body

    def test_ephemeral_ports_do_not_collide(self, obs):
        with ObsServer(obs) as a, ObsServer(obs) as b:
            assert a.port != b.port

    def test_close_returns_promptly(self, obs):
        """``close`` waits only for the serve loop's short poll, not the
        stdlib's 0.5 s default, on every start/close cycle."""
        for _ in range(5):
            server = ObsServer(obs).start()
            fetch(server.url("/metrics"))
            start = time.monotonic()
            server.close()
            assert time.monotonic() - start < 0.25

    def test_ephemeral_bind_publishes_chosen_port(self, obs):
        server = ObsServer(obs, port=0)
        try:
            assert server.port != 0
            assert str(server.port) in server.url("/healthz")
        finally:
            server.close()

    def test_restart_rebinds_same_port(self, obs):
        # Daemon-restart contract: close with live TIME_WAIT remnants,
        # then immediately rebind the identical host:port.  Without
        # allow_reuse_address this raises EADDRINUSE.
        first = ObsServer(obs).start()
        port = first.port
        fetch(first.url("/metrics"))  # leave a connection in TIME_WAIT
        first.close()
        second = ObsServer(obs, host=first.host, port=port).start()
        try:
            assert second.port == port
            status, _, _ = fetch(second.url("/metrics"))
            assert status == 200
        finally:
            second.close()

    def test_reuse_address_is_explicit(self):
        from repro.obs.server import _ReusableHTTPServer

        # The restart path must not lean on the stdlib default.
        assert "allow_reuse_address" in vars(_ReusableHTTPServer)
        assert _ReusableHTTPServer.allow_reuse_address is True


class TestHealthz:
    def test_healthy_fleet_returns_200(self, obs):
        obs.live.observe_prediction(0.001)
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/healthz"))
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["deadline"]["ok"] is True

    def test_busted_deadline_returns_503(self, obs):
        for _ in range(100):
            obs.live.observe_prediction(0.5)  # way past the 10 ms budget
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/healthz"))
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["status"] == "failing"
        assert payload["deadline"]["ok"] is False

    def test_tripped_drift_returns_503(self, obs):
        obs.quality.drift.reference = 0.99
        obs.quality.drift.warmup = 0
        for _ in range(30):
            obs.quality.record_discard(900, 1000)
        assert obs.quality.drift.tripped
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/healthz"))
        assert excinfo.value.code == 503

    def test_health_hook_block_and_gate(self, obs):
        # The daemon mounts its service plane through a named hook:
        # the block lands in the payload, and ok=False flips the probe.
        obs.live.observe_prediction(0.001)
        shard_state = {"ok": True, "shards": 2, "up": 2}
        obs.add_health_hook("daemon", lambda: dict(shard_state))
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/healthz"))
            assert json.loads(body)["daemon"]["shards"] == 2
            shard_state.update(ok=False, up=1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/healthz"))
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "failing"
            assert payload["daemon"]["up"] == 1
            shard_state.update(ok=True, up=2)  # recovery: probe goes green
            status, _, body = fetch(server.url("/healthz"))
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_debug_provider_block(self, obs):
        obs.add_debug_provider("daemon", lambda: {"connections": 3})
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/debug/vars"))
        assert json.loads(body)["daemon"]["connections"] == 3


class TestQualityEndpoint:
    def test_scoreboard_json(self, obs):
        obs.quality.add_prediction(Prediction(
            node="n1", chain_id="FC_1", flagged_at=100.0,
            prediction_time=0.0))
        obs.quality.add_failure(NodeFailure(node="n1", time=400.0))
        obs.quality.advance(500.0)
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/quality"))
        assert status == 200
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["true_positives"] == 1
        assert payload["lead_times"] == [300.0]

    def test_disabled_scoreboard(self):
        obs = Observability()
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/quality"))
        assert json.loads(body) == {"enabled": False}


class TestUnknownPath:
    def test_404(self, obs):
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/nope"))
        assert excinfo.value.code == 404


class TestDebugEndpoints:
    def _spanned_obs(self):
        from repro.obs import FlightRecorder, SpanClock

        return Observability(
            spans=SpanClock(1.0), flight=FlightRecorder(capacity=32))

    def test_debug_spans_serves_local_and_shard_views(self):
        from repro.obs import SPAN_RUNS

        obs = self._spanned_obs()
        timer = obs.spans.start_run()
        timer.lap("decode", 10)
        timer.lap("match", 10)
        obs.record_spans(timer)
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/debug/spans"))
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["local"]["runs_sampled"] == 1
        stages = {s["stage"] for s in payload["local"]["stages"]}
        assert stages == {"decode", "match"}
        assert "-" in payload["shards"]

    def test_debug_spans_without_clock_reports_disabled(self):
        obs = Observability()
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/debug/spans"))
        assert json.loads(body)["enabled"] is False

    def test_debug_flight_404_until_triggered_then_exact_capsule(
            self, tmp_path):
        from repro.obs import FlightRecorder, TRIGGER_ALERT

        obs = Observability(
            flight=FlightRecorder(capacity=16, directory=tmp_path))
        obs.flight.note("fleet_run", events=100)
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/debug/flight"))
            assert excinfo.value.code == 404
            text = obs.flight.trigger(
                TRIGGER_ALERT, key="r1", snapshot=obs.registry.snapshot())
            status, ctype, body = fetch(server.url("/debug/flight"))
        assert status == 200
        assert ctype == "application/x-ndjson"
        # Endpoint == in-memory capsule == on-disk file, byte for byte.
        assert body == text
        assert obs.flight.last_capsule_path.read_text(
            encoding="utf-8") == body

    def test_debug_vars_carries_build_scanner_and_registry(self):
        obs = self._spanned_obs()
        obs.registry.counter(LINES_SEEN, "lines").inc(7)
        with ObsServer(obs) as server:
            status, _, body = fetch(server.url("/debug/vars"))
        assert status == 200
        payload = json.loads(body)
        assert "version" in payload["build"]
        assert "python" in payload["build"]
        assert payload["spans"]["sample"] == 1.0
        assert payload["flight"]["capacity"] == 32
        assert payload["registry"][LINES_SEEN]["series"][0]["value"] == 7

    def test_404_lists_debug_paths(self, obs):
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/nope"))
        assert excinfo.value.code == 404
        assert "/debug/spans" in excinfo.value.read().decode("utf-8")


class TestAlertsEndpoint:
    def _ruled_obs(self):
        from repro.obs import HistoryRing, RuleEngine
        from repro.obs.names import SLO_BURN

        obs = Observability(
            history=HistoryRing(interval=0.0), rules=RuleEngine("default"))
        obs.registry.gauge(SLO_BURN, "burn").set(2.0)
        return obs

    def test_alerts_serves_rule_state_and_since_timestamps(self):
        obs = self._ruled_obs()
        obs.record_history(now=100.0)          # breach → pending
        obs.record_history(now=102.0, force=True)  # held 2 s ≥ 1 s → firing
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/alerts"))
        assert status == 200
        assert ctype == "application/json"
        payload = json.loads(body)
        assert payload["enabled"] is True
        assert payload["firing"] == ["deadline-burn"]
        rows = {row["id"]: row for row in payload["rules"]}
        burn = rows["deadline-burn"]
        assert burn["state"] == "firing"
        assert burn["pending_since"] == 100.0
        assert burn["firing_since"] == 102.0
        assert burn["severity"] == "page"
        # The declarative definition rides along with the state.
        assert burn["expr"] == "max_over_time"
        assert burn["for"] == 1.0
        assert payload["history"]["samples"] == 2

    def test_alerts_disabled_without_engine(self, obs):
        with ObsServer(obs) as server:
            _, _, body = fetch(server.url("/alerts"))
        assert json.loads(body) == {"enabled": False}

    def test_firing_page_rule_fails_healthz(self):
        obs = self._ruled_obs()
        obs.record_history(now=100.0)
        obs.record_history(now=102.0, force=True)
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/healthz"))
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        # healthz names the same firing rule /alerts shows.
        assert payload["alerts"]["firing"] == ["deadline-burn"]

    def test_healthz_waits_for_the_page_rule_hold(self):
        from repro.logsim import IngestStats
        from repro.obs import RuleEngine

        # 100 of 1,000 lines quarantined: 10x the default 1% SLO.
        obs = Observability(rules=RuleEngine("default"))
        obs.record_ingest(IngestStats(
            lines_read=1000, decoded=900, quarantined=100))
        obs.record_history(now=100.0)  # breach → pending
        with ObsServer(obs) as server:
            status, _, body = fetch(server.url("/healthz"))
            payload = json.loads(body)
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["alerts"]["firing"] == []
            assert "quarantine-burn" in payload["alerts"]["pending"]
            # The raw burn stays in the payload as data.
            assert payload["ingest"]["ok"] is False
            obs.record_history(now=101.5)  # held 1.5 s ≥ 1 s → firing
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/healthz"))
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read().decode("utf-8"))
        assert payload["status"] == "failing"
        assert payload["alerts"]["firing"] == ["quarantine-burn"]


class TestDebugHistory:
    def test_404_until_ring_armed(self, obs):
        with ObsServer(obs) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                fetch(server.url("/debug/history"))
        assert excinfo.value.code == 404

    def test_ndjson_dump_and_series_filter(self):
        from repro.obs import HistoryRing, parse_history_ndjson

        obs = Observability(history=HistoryRing(interval=0.0))
        obs.registry.counter(LINES_SEEN, "lines").inc(42)
        obs.record_history(now=100.0)
        with ObsServer(obs) as server:
            status, ctype, body = fetch(server.url("/debug/history"))
            _, _, filtered = fetch(
                server.url(f"/debug/history?series={LINES_SEEN}"))
        assert status == 200
        assert ctype == "application/x-ndjson"
        records = parse_history_ndjson(body)
        assert records == obs.history_records()
        only = parse_history_ndjson(filtered)
        assert {r["series"] for r in only} == {LINES_SEEN}
        assert only[0]["value"] == 42.0


class TestConcurrentScrapes:
    """Scrapes racing a running fleet must see whole snapshots: the
    facade lock makes every multi-metric record atomic, so the funnel
    identity holds on every response, mid-run included."""

    def _make_fleet(self):
        from repro.core import ChainSet, FailureChain, PredictorFleet
        from repro.core.events import Severity
        from repro.obs import SpanClock
        from repro.templates import TemplateStore

        store = TemplateStore()
        store.add("alpha fault *", Severity.ERRONEOUS, token=301)
        store.add("beta warn *", Severity.UNKNOWN, token=302)
        chains = ChainSet([FailureChain("FC_x", (301, 302))])
        obs = Observability(
            live=LiveMonitor(0.01, clock=lambda: 0.0),
            quality=QualityScoreboard(),
            spans=SpanClock(1.0))
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, obs=obs)
        return fleet, obs

    def test_funnel_identity_holds_mid_scrape(self):
        import threading

        from repro.core import LogEvent
        from repro.obs import (
            SCANNER_DFA_RUNS,
            SCANNER_FIRST_CHAR_REJECTED,
            SCANNER_MEMO_HITS,
        )

        fleet, obs = self._make_fleet()
        events = [
            LogEvent(float(i), f"n{i % 4}",
                     "alpha fault 12" if i % 3 == 0 else "benign noise")
            for i in range(200)
        ]
        stop = threading.Event()
        torn: list = []

        def scrape(server):
            while not stop.is_set():
                _, _, body = fetch(server.url("/metrics"))
                snap = parse_prometheus(body)
                if LINES_SEEN not in snap:
                    continue  # scraped before the first run recorded
                seen = snap[LINES_SEEN]["series"][0]["value"]
                funnel = sum(
                    snap[name]["series"][0]["value"]
                    for name in (SCANNER_FIRST_CHAR_REJECTED,
                                 SCANNER_MEMO_HITS, SCANNER_DFA_RUNS)
                    if name in snap)
                if funnel != seen:
                    torn.append((seen, funnel))
                # /quality races the same lock from another thread.
                fetch(server.url("/quality"))

        with ObsServer(obs) as server:
            threads = [
                threading.Thread(target=scrape, args=(server,), daemon=True)
                for _ in range(3)
            ]
            for t in threads:
                t.start()
            try:
                for _ in range(30):
                    fleet.run(events, timing="off")
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=10.0)
        assert torn == []
        assert not any(t.is_alive() for t in threads)


class TestMidRunScrape:
    def test_scrape_during_fleet_progress(self):
        """A scrape between two runs of the same fleet sees coherent,
        monotone counters (the live-dashboard contract)."""
        from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
        from repro.core.events import Severity
        from repro.templates import TemplateStore

        store = TemplateStore()
        store.add("alpha fault *", Severity.ERRONEOUS, token=301)
        store.add("beta warn *", Severity.UNKNOWN, token=302)
        chains = ChainSet([FailureChain("FC_x", (301, 302))])
        obs = Observability(live=LiveMonitor(0.01, clock=lambda: 0.0))
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, obs=obs)
        events = [
            LogEvent(float(i), "n0", "benign noise") for i in range(50)
        ]
        with ObsServer(obs) as server:
            fleet.run(events, timing="off")
            _, _, body = fetch(server.url("/metrics"))
            first = parse_prometheus(body)[LINES_SEEN]["series"][0]["value"]
            fleet.run(events, timing="off")
            _, _, body = fetch(server.url("/metrics"))
            second = parse_prometheus(body)[LINES_SEEN]["series"][0]["value"]
        assert (first, second) == (50, 100)
