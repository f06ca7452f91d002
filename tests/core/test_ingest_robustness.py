"""End-to-end ingest robustness: the ISSUE 5 acceptance criteria.

A logsim stream is passed through the corruption harness with every
fault kind enabled, then replayed through the full predictor stack
under the default tolerant policy.  The suite asserts the whole
contract at once: zero uncaught exceptions, the decode-funnel identity,
byte-identical predictions when corruption is off, and agreement
between the matcher and lalr backends on the *same* corrupted stream.
"""

import pytest

from repro.core import PredictorFleet
from repro.logsim import (
    ClusterLogGenerator,
    CorruptionSpec,
    HPC3,
    IngestStats,
    corrupt_window,
    decode_lines,
)

pytestmark = pytest.mark.corruption


@pytest.fixture(scope="module")
def gen():
    return ClusterLogGenerator(HPC3, seed=23)


@pytest.fixture(scope="module")
def window(gen):
    return gen.generate_window(
        duration=3600.0, n_nodes=16, n_failures=6, n_spurious=0)


@pytest.fixture(scope="module")
def corrupted(window):
    lines, report = corrupt_window(
        window.events, CorruptionSpec.all_kinds(0.02), seed=23)
    assert report.total_faults > 0  # the harness actually did something
    return lines, report


def make_fleet(gen, backend):
    return PredictorFleet.from_store(
        gen.chains, gen.store, timeout=gen.recommended_timeout,
        backend=backend)


def prediction_keys(predictions):
    return [(p.node, p.chain_id, round(p.flagged_at, 9))
            for p in predictions]


class TestEndToEnd:
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_corrupted_replay_survives(self, gen, corrupted, backend):
        """All fault kinds at once, default policy, zero exceptions."""
        lines, _ = corrupted
        fleet = make_fleet(gen, backend)
        report = fleet.run_lines(lines, on_error="quarantine",
                                 reorder_horizon=10.0)
        ingest = report.ingest
        assert ingest.funnel_ok
        assert ingest.lines_read == len([ln for ln in lines if ln])
        assert ingest.quarantined > 0  # truncation/garbling did damage
        assert ingest.decoded > 0.8 * ingest.lines_read

    def test_counters_reflect_injected_faults(self, gen, corrupted):
        lines, inj = corrupted
        fleet = make_fleet(gen, "matcher")
        report = fleet.run_lines(lines, on_error="quarantine",
                                 reorder_horizon=10.0)
        ingest = report.ingest
        # Reordering/skew was injected, so the sort buffer had work.
        assert inj.displaced > 0 and inj.skewed_nodes > 0
        assert ingest.reordered > 0

    def test_zero_corruption_is_byte_identical(self, gen, window):
        """p=0 through the harness == the clean serialization, and the
        replays are prediction-for-prediction identical."""
        lines, report = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.0), seed=23)
        assert report.total_faults == 0
        clean_lines = [e.to_line() for e in window.events]
        assert lines == clean_lines  # byte-identical serialization

        replayed = make_fleet(gen, "matcher").run_lines(lines)
        direct = make_fleet(gen, "matcher").run_lines(clean_lines)
        assert replayed.ingest.quarantined == 0
        assert prediction_keys(replayed.predictions) == \
            prediction_keys(direct.predictions)

        # Against the in-memory run, predictions agree to serialization
        # precision (to_line stamps timestamps at the microsecond).
        clean = make_fleet(gen, "matcher").run(window.events)
        assert len(replayed.predictions) == len(clean.predictions)
        for a, b in zip(replayed.predictions, clean.predictions):
            assert (a.node, a.chain_id) == (b.node, b.chain_id)
            assert a.flagged_at == pytest.approx(b.flagged_at, abs=1e-5)

    def test_backends_agree_on_corrupted_stream(self, gen, corrupted):
        lines, _ = corrupted
        reports = {
            backend: make_fleet(gen, backend).run_lines(
                lines, on_error="quarantine", reorder_horizon=10.0)
            for backend in ("matcher", "lalr")
        }
        assert prediction_keys(reports["matcher"].predictions) == \
            prediction_keys(reports["lalr"].predictions)
        # Both backends saw the identical decode funnel.
        assert reports["matcher"].ingest.as_dict() == \
            reports["lalr"].ingest.as_dict()

    def test_still_predicts_through_corruption(self, gen, window, corrupted):
        """Moderate corruption degrades, it must not blind the fleet."""
        lines, _ = corrupted
        clean = make_fleet(gen, "matcher").run(window.events)
        dirty = make_fleet(gen, "matcher").run_lines(
            lines, on_error="quarantine", reorder_horizon=10.0)
        assert len(clean.predictions) > 0
        assert len(dirty.predictions) >= len(clean.predictions) // 2

    def test_negative_dt_clamp_engaged_under_skew(self, gen, window):
        """Skew without a reorder buffer drives the ΔT clamp directly."""
        spec = CorruptionSpec(skew_max_s=5.0)
        lines, report = corrupt_window(window.events, spec, seed=23)
        assert report.skewed_nodes > 0
        fleet = make_fleet(gen, "matcher")
        run_report = fleet.run_lines(lines)  # no reorder horizon
        assert run_report.ingest.quarantined == 0
        # The stream replays without error; any backwards gaps inside an
        # active chain were clamped and counted, never corrupting state.
        total_negative = sum(
            p._engine.stats.negative_dt
            for p in fleet._predictors.values())
        assert total_negative >= 0  # counter exists on every engine


class TestPerKindReplay:
    """Each corruption kind alone replays through both backends."""

    KINDS = {
        "truncate": CorruptionSpec(truncate_p=0.05),
        "garble": CorruptionSpec(garble_p=0.05),
        "duplicate": CorruptionSpec(duplicate_p=0.05),
        "reorder": CorruptionSpec(reorder_p=0.1, reorder_max_s=5.0),
        "skew": CorruptionSpec(skew_max_s=2.0),
        "drops": CorruptionSpec(drop_p=0.01, drop_burst=4),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_single_kind_replay(self, gen, window, kind, backend):
        lines, report = corrupt_window(
            window.events, self.KINDS[kind], seed=23)
        assert report.total_faults > 0 or kind == "skew"
        fleet = make_fleet(gen, backend)
        run_report = fleet.run_lines(lines, reorder_horizon=10.0)
        assert run_report.ingest.funnel_ok


class TestParallelTolerance:
    """A malformed line in a shard's chunk must not kill the shard."""

    @pytest.fixture(scope="class")
    def bundle(self, gen):
        from repro.persistence import PredictorBundle

        return PredictorBundle(
            store=gen.store, chains=gen.chains,
            timeout=gen.recommended_timeout, system="HPC3")

    def test_worker_chunk_quarantines_garbage(self, gen, bundle):
        # The daemon's chunk function, called in-process on fleets built
        # here: its one wire form (a newline-joined blob) quarantines the
        # same records on every scan backend, and they agree.
        from repro.core.daemon import _run_chunk

        window = gen.generate_window(
            duration=900.0, n_nodes=8, n_failures=2, n_spurious=0)
        lines = [e.to_line() for e in window.events]
        lines.insert(3, "totally broken line")
        lines.insert(10, "1970-01-01T00:00:09 short")
        blob = "\n".join(lines).encode()
        by_backend = {}
        for scan_backend in ("str", "bytes", "native"):
            predictions, stats, ingest, _ = _run_chunk(
                bundle.make_fleet(scan_backend=scan_backend), blob,
                "quarantine")
            assert ingest.quarantined == 2
            assert ingest.funnel_ok
            assert stats.lines_seen == len(lines) - 2
            by_backend[scan_backend] = predictions
        assert by_backend["str"]
        assert by_backend["bytes"] == by_backend["str"]
        assert by_backend["native"] == by_backend["str"]

    def test_parallel_fleet_accumulates_ingest(self, gen, bundle):
        from repro.core.daemon import FleetDaemon

        window = gen.generate_window(
            duration=900.0, n_nodes=8, n_failures=2, n_spurious=0)
        with FleetDaemon(bundle, n_shards=2).start() as daemon:
            assert daemon.wait_ready(30.0)
            for event in window.events:
                daemon.submit(event.to_line())
            report = daemon.stop(drain=True)
        assert report.ingest.lines_read == len(window.events)
        assert report.ingest.quarantined == 0
        assert report.ingest.funnel_ok


class TestStrictStillAvailable:
    def test_strict_policy_raises_through_run_lines(self, gen):
        from repro.core.events import LogDecodeError

        fleet = make_fleet(gen, "matcher")
        with pytest.raises(LogDecodeError):
            fleet.run_lines(["broken"], on_error="strict")

    def test_funnel_identity_after_decode(self, window, corrupted):
        lines, _ = corrupted
        stats = IngestStats()
        decoded = list(decode_lines(lines, on_error="quarantine",
                                    stats=stats))
        assert stats.funnel_ok
        assert len(decoded) == stats.decoded
