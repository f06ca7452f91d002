"""End-to-end observability drill: a corrupted stream through a 2-shard
:class:`~repro.core.daemon.FleetDaemon` with spans and the flight
recorder armed.

The acceptance triangle for the debug plane:

(a) per-shard stage breakdowns reassembled from the merged registry sum
    to each shard's observed run wall time (the telescoping invariant
    survives the worker → parent snapshot/diff/merge trip), and stay
    bounded by the parent-side wall clock;
(b) a forced anomaly produces exactly one flight capsule, fired by the
    shipped ``quarantine-burn`` alert rule on the daemon's own
    supervisor tick, whose JSONL replays into events that all precede
    the trigger;
(c) ``/debug/spans`` and ``/debug/flight`` serve the same data the
    capsule file contains, up to the chunks that landed after the
    trigger.

The forced anomaly is the quarantine burn: the SLO sits below the
injected 2% corruption, and the recorder arms the shipped rules.
(Daemon workers run ``timing="off"`` and never feed a live deadline
monitor, so a deadline cannot be the trigger.)

Run with ``-m corruption`` or ``-m daemon``.  Set ``AAROHI_FLIGHT_DIR``
to redirect the capsule directory (CI uploads it as a workflow artifact
on failure).
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

np = pytest.importorskip("numpy")

from repro.core.daemon import FleetDaemon
from repro.logsim import ClusterLogGenerator, CorruptionSpec, corrupt_window, HPC3
from repro.obs import (
    FlightRecorder,
    Observability,
    ObsServer,
    TRIGGER_ALERT,
    read_capsule,
    shard_span_breakdown,
)
from repro.obs.names import (
    INGEST_LINES_READ,
    INGEST_QUARANTINE_BURN,
    INGEST_QUARANTINED,
)
from repro.persistence import PredictorBundle

pytestmark = [pytest.mark.corruption, pytest.mark.daemon]


def fetch(url):
    with urllib.request.urlopen(url, timeout=5.0) as resp:
        return resp.status, resp.read().decode("utf-8")


def key(p):
    return (p.node, p.chain_id, p.flagged_at, p.matched_tokens)


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    """One corrupted stream through the daemon, shared by all
    assertions."""
    flight_dir = os.environ.get("AAROHI_FLIGHT_DIR")
    if flight_dir is None:
        flight_dir = tmp_path_factory.mktemp("capsules")
    gen = ClusterLogGenerator(HPC3, seed=61)
    window = gen.generate_window(
        duration=3600.0, n_nodes=16, n_failures=8, n_spurious=2)
    lines, report = corrupt_window(
        window.events, CorruptionSpec.all_kinds(0.02), seed=61)
    assert report.total_faults > 0
    bundle = PredictorBundle(
        store=gen.store, chains=gen.chains,
        timeout=gen.recommended_timeout, system="HPC3")
    # A 0.5% quarantine SLO against 2% injected corruption forces the
    # burn, and no other shipped rule can fire: no live monitor, no
    # scoreboard, and prediction-absence holds for a minute.
    # The ring is sized to hold every note of the run, so the capsule
    # keeps the whole run-up to the trigger.
    obs = Observability(
        quarantine_slo=0.005,
        flight=FlightRecorder(capacity=4096, directory=flight_dir),
    )
    with FleetDaemon(
        bundle, n_shards=2, obs=obs, spans_sample=1.0, poll_interval=0.02,
    ).start() as daemon:
        assert daemon.wait_ready(30.0)
        t0 = time.perf_counter()
        for line in lines:
            daemon.submit(line)
        assert daemon.drain(60.0)
        wall = time.perf_counter() - t0
        # The supervisor captures history on its own tick, at most
        # once a second, and the rule fires one capture past its 1 s
        # hold.  stop() ends the ticks: wait for the capsule first.
        deadline = time.monotonic() + 30.0
        while obs.flight.capsules == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        result = daemon.stop(drain=True)
    assert result.drained
    serial = bundle.make_fleet().run_lines(
        lines, on_error="quarantine", timing="off")
    return {
        "obs": obs,
        "predictions": result.predictions,
        "serial": serial.predictions,
        "wall": wall,
        "flight_dir": flight_dir,
    }


class TestShardSpans:
    def test_breakdowns_sum_to_observed_wall_time(self, drill):
        obs, wall = drill["obs"], drill["wall"]
        breakdown = shard_span_breakdown(obs.registry.snapshot())
        shards = {s for s in breakdown if s != "-"}
        assert shards == {"0", "1"}
        for shard in shards:
            data = breakdown[shard]
            assert data["runs_sampled"] > 0
            stage_sum = sum(
                cell["seconds"] for cell in data["stages"].values())
            # (a) telescoping survives the merge: stages sum to the
            # shard's sampled run wall time...
            assert stage_sum == pytest.approx(
                data["run_seconds"], rel=1e-6, abs=1e-9)
            # ...and a worker cannot have spent longer than the parent
            # observed waiting for it.
            assert data["run_seconds"] <= wall

    def test_every_stage_accounts_records(self, drill):
        breakdown = shard_span_breakdown(drill["obs"].registry.snapshot())
        for shard in ("0", "1"):
            stages = breakdown[shard]["stages"]
            assert stages["decode"]["records"] > 0
            assert stages["match"]["records"] > 0

    def test_predictions_match_single_process_fleet(self, drill):
        assert drill["serial"]
        assert sorted(map(key, drill["predictions"])) == sorted(
            map(key, drill["serial"]))


class TestDeadlineCapsule:
    """The drill's anomaly capsule (the quarantine-burn rule's; see the
    module docstring for why it is not a deadline)."""

    def test_exactly_one_capsule_fired(self, drill):
        flight = drill["obs"].flight
        assert flight.capsules == 1
        assert list(flight.triggered) == ["alert_rule:quarantine-burn"]
        assert flight.last_reason == TRIGGER_ALERT

    def test_capsule_replays_events_preceding_the_trigger(self, drill):
        flight = drill["obs"].flight
        parsed = read_capsule(flight.last_capsule_path)
        header = parsed["header"]
        assert header["reason"] == TRIGGER_ALERT
        assert header["rule"] == "quarantine-burn"
        assert header["series"] == INGEST_QUARANTINE_BURN
        assert header["value"] > header["threshold"] == 1.0
        frozen = {
            name: parsed["snapshot"][name]["series"][0]["value"]
            for name in (INGEST_QUARANTINED, INGEST_LINES_READ)}
        assert 0 < frozen[INGEST_QUARANTINED] <= frozen[INGEST_LINES_READ]
        events = parsed["events"]
        assert events, "the ring must have buffered the run-up"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert all(e["wall"] <= header["wall"] for e in events)
        kinds = {e["kind"] for e in events}
        assert {"ingest", "chunk_done", "alert"} <= kinds
        # The snapshot frozen into the capsule carries span series for
        # exactly the shards whose chunks had landed by the trigger.
        landed = {
            str(e["shard"]) for e in events if e["kind"] == "chunk_done"}
        assert set(shard_span_breakdown(parsed["snapshot"])) == landed

    def test_chunk_done_events_carry_trace_context(self, drill):
        parsed = read_capsule(drill["obs"].flight.last_capsule_path)
        chunk_events = [
            e for e in parsed["events"] if e["kind"] == "chunk_done"]
        assert chunk_events
        for event in chunk_events:
            assert event["shard"] in (0, 1)
        # Every chunk a shard acked before the trigger is in the ring,
        # in dispatch order.
        for shard in (0, 1):
            chunks = [e["chunk"] for e in chunk_events if e["shard"] == shard]
            assert chunks == list(range(len(chunks)))


class TestDebugPlaneAgreement:
    def test_debug_flight_serves_the_capsule_file(self, drill):
        obs = drill["obs"]
        with ObsServer(obs) as server:
            status, body = fetch(server.url("/debug/flight"))
        assert status == 200
        assert body == obs.flight.last_capsule_text
        assert body == obs.flight.last_capsule_path.read_text(
            encoding="utf-8")

    def test_debug_spans_matches_the_capsule_snapshot(self, drill):
        obs = drill["obs"]
        with ObsServer(obs) as server:
            status, body = fetch(server.url("/debug/spans"))
        assert status == 200
        served = json.loads(body)["shards"]
        assert served == shard_span_breakdown(obs.registry.snapshot())
        parsed = read_capsule(obs.flight.last_capsule_text)
        frozen = shard_span_breakdown(parsed["snapshot"])
        # Chunks may land after the trigger, so the frozen spans are a
        # prefix of the served ones: cumulative, never ahead.
        assert frozen
        for shard, data in frozen.items():
            assert data["run_seconds"] <= served[shard]["run_seconds"]
            for stage, cell in data["stages"].items():
                now = served[shard]["stages"][stage]
                assert cell["seconds"] <= now["seconds"]
                assert cell["records"] <= now["records"]

    def test_debug_vars_reports_the_capsule(self, drill):
        obs = drill["obs"]
        with ObsServer(obs) as server:
            status, body = fetch(server.url("/debug/vars"))
        assert status == 200
        payload = json.loads(body)
        assert payload["flight"]["capsules"] == 1
        assert payload["flight"]["last_reason"] == TRIGGER_ALERT
        assert list(payload["flight"]["triggered"]) == [
            "alert_rule:quarantine-burn"]
