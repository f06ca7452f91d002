"""Byte-level ingest and the fleet byte hot path.

Covers the zero-copy ingest sources (mmap'd files, binary handles,
socket-style buffers), the ingest equivalence contract against the
text pipeline (quarantine decisions and counts line for line, invalid
UTF-8 included), and the fleet wiring: ``run_lines``/``run_buffer``
over byte records must produce the same predictions, ingest funnel,
and scanner funnel as the decoded str path, in one fleet and sharded.
"""

import io

import pytest

from repro.codegen import native_available
from repro.core import PredictorFleet
from repro.logsim import (
    HPC3,
    ClusterLogGenerator,
    CorruptionSpec,
    IngestStats,
    corrupt_window,
    iter_byte_records,
    read_byte_batch,
    read_log,
    read_record_batch,
    write_log,
)
from repro.persistence import PredictorBundle

BACKENDS = ["str", "bytes"] + (["native"] if native_available() else [])


@pytest.fixture(scope="module")
def gen():
    return ClusterLogGenerator(HPC3, seed=47)


@pytest.fixture(scope="module")
def window(gen):
    return gen.generate_window(
        duration=3600.0, n_nodes=20, n_failures=7, n_spurious=0)


@pytest.fixture(scope="module")
def log_path(window, tmp_path_factory):
    path = tmp_path_factory.mktemp("bytelog") / "window.log"
    with open(path, "w", encoding="utf-8") as fh:
        write_log(window.events, fh)
    return path


def make_fleet(gen, scan_backend):
    return PredictorFleet.from_store(
        gen.chains, gen.store, timeout=gen.recommended_timeout,
        scan_backend=scan_backend)


def line(t, node, message):
    from repro.core.events import LogEvent

    return LogEvent(t, node, message).to_line().encode()


def prediction_keys(predictions):
    # to_line stamps timestamps at the microsecond, so replays through a
    # serialized stream agree with in-memory runs only to ~1e-5 s.
    return [(p.node, p.chain_id, round(p.flagged_at, 4))
            for p in predictions]


class TestByteSources:
    def test_mmap_handle_and_buffer_agree(self, log_path):
        blob = log_path.read_bytes()
        from_path = list(iter_byte_records(log_path))
        from_handle = list(iter_byte_records(io.BytesIO(blob)))
        from_buffer = list(iter_byte_records(blob))
        from_view = list(iter_byte_records(memoryview(blob)))
        assert from_path == from_handle == from_buffer == from_view
        assert all(isinstance(r, bytes) for r in from_view)

    def test_blank_records_and_crlf(self):
        blob = (b"\n\n" + line(1.5, "n0", "hello") + b"\r\n" + b"\r\n"
                + line(2.5, "n0", "world") + b"\n")
        records = list(iter_byte_records(blob))
        assert records == [line(1.5, "n0", "hello") + b"\r", b"\r",
                           line(2.5, "n0", "world")]
        batch = read_record_batch(blob, on_error="quarantine")
        assert batch.messages == [b"hello", b"world"]
        assert batch.times == [1.5, 2.5]

    def test_missing_trailing_newline(self):
        blob = line(1.0, "n0", "alpha") + b"\n" + line(2.0, "n0", "beta")
        batch = read_record_batch(blob)
        assert batch.messages == [b"alpha", b"beta"]

    def test_empty_file_mmap_fallback(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_bytes(b"")
        assert list(iter_byte_records(empty)) == []
        assert len(read_byte_batch(empty)) == 0

    def test_reorder_horizon_sorts_batch(self):
        blob = (line(3.0, "n0", "m3") + b"\n" + line(1.0, "n0", "m1")
                + b"\n" + line(2.0, "n0", "m2") + b"\n")
        stats = IngestStats()
        batch = read_byte_batch(blob, reorder_horizon=5.0, stats=stats)
        assert batch.times == [1.0, 2.0, 3.0]
        assert batch.messages == [b"m1", b"m2", b"m3"]
        assert stats.reordered > 0


class TestIngestEquivalence:
    def test_clean_batch_matches_text_pipeline(self, log_path, window):
        byte_stats, text_stats = IngestStats(), IngestStats()
        batch = read_byte_batch(log_path, stats=byte_stats)
        events = list(read_log(log_path, stats=text_stats))
        assert byte_stats.as_dict() == text_stats.as_dict()
        assert byte_stats.funnel_ok
        decoded = batch.decode_events()
        assert [(e.time, e.node, e.message) for e in decoded] == \
            [(e.time, e.node, e.message) for e in events]
        assert len(decoded) == len(window.events)

    def test_corrupted_batch_quarantines_like_text(self, window):
        lines, report = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.03), seed=47)
        assert report.total_faults > 0
        blob = "\n".join(lines).encode("utf-8") + b"\n"
        byte_stats, text_stats = IngestStats(), IngestStats()
        batch = read_byte_batch(blob, on_error="quarantine",
                                stats=byte_stats)
        events = list(read_log(
            io.StringIO("\n".join(lines) + "\n"),
            on_error="quarantine", stats=text_stats))
        assert byte_stats.as_dict() == text_stats.as_dict()
        assert byte_stats.quarantined > 0 and byte_stats.funnel_ok
        assert len(batch) == len(events)

    def test_invalid_utf8_quarantines_identically(self):
        # Raw invalid bytes: a lone continuation, a dangling multi-byte
        # head, and an overlong-ish mess inside the header vs payload.
        def stamp(t):
            return line(t, "n0", "x").split(b" ", 1)[0]

        records = [
            line(1.0, "n0", "ok line"),
            b"not-a-time n0 bad header",
            stamp(2.0) + b" n\x80de payload",         # invalid byte in node
            stamp(3.0) + b" n0 pay\xc3load",          # dangling 2-byte head
            stamp(4.0) + b" n0 tail\xe2\x28garbage",  # broken 3-byte seq
            b"\xff\xfe totally binary",
        ]
        blob = b"\n".join(records) + b"\n"
        byte_stats, text_stats = IngestStats(), IngestStats()
        batch = read_record_batch(blob, on_error="quarantine",
                                  stats=byte_stats)
        text = blob.decode("utf-8", "replace")
        events = list(read_log(io.StringIO(text), on_error="quarantine",
                               stats=text_stats))
        assert byte_stats.lines_read == text_stats.lines_read
        assert byte_stats.quarantined == text_stats.quarantined
        assert byte_stats.funnel_ok and text_stats.funnel_ok
        # Surviving payloads decode (replace) to what the text path saw.
        assert [m.decode("utf-8", "replace") for m in batch.messages] == \
            [e.message for e in events]


class TestFleetBytePath:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_lines_matches_str_fleet(self, gen, window, log_path,
                                         backend):
        reference = make_fleet(gen, "str").run(window.events)
        fleet = make_fleet(gen, backend)
        assert fleet.scanner.backend == backend
        report = fleet.run_lines(log_path)
        assert prediction_keys(report.predictions) == \
            prediction_keys(reference.predictions)
        assert report.ingest is not None and report.ingest.funnel_ok
        assert report.ingest.lines_read == len(window.events)

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_run_buffer_matches_run(self, gen, window, backend):
        blob = "\n".join(e.to_line() for e in window.events).encode() + b"\n"
        batch = read_byte_batch(blob, on_error="strict")
        buffered = make_fleet(gen, backend).run_buffer(batch)
        direct = make_fleet(gen, backend).run(window.events)
        assert prediction_keys(buffered.predictions) == \
            prediction_keys(direct.predictions)

    def test_run_buffer_rejects_full_timing(self, gen, window):
        blob = "\n".join(
            e.to_line() for e in window.events[:50]).encode() + b"\n"
        batch = read_byte_batch(blob)
        fleet = make_fleet(gen, "bytes")
        with pytest.raises(ValueError):
            fleet.run_buffer(batch, timing="full")

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_corrupted_stream_predictions_match_str(self, gen, window,
                                                    backend):
        lines, _ = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.02), seed=7)
        blob = "\n".join(lines).encode("utf-8") + b"\n"
        byte_report = make_fleet(gen, backend).run_lines(
            blob, on_error="quarantine", reorder_horizon=10.0, timing="off")
        str_report = make_fleet(gen, "str").run_lines(
            lines, on_error="quarantine", reorder_horizon=10.0, timing="off")
        assert prediction_keys(byte_report.predictions) == \
            prediction_keys(str_report.predictions)
        assert byte_report.ingest.as_dict() == str_report.ingest.as_dict()

    def test_full_timing_byte_blob_decodes(self, gen, window):
        # timing="full" needs per-event tokenize timing, so a byte blob
        # routes through decode; predictions must still agree.
        blob = "\n".join(
            e.to_line() for e in window.events).encode() + b"\n"
        report = make_fleet(gen, "bytes").run_lines(blob, timing="full")
        reference = make_fleet(gen, "str").run(window.events)
        assert prediction_keys(report.predictions) == \
            prediction_keys(reference.predictions)
        assert report.ingest.lines_read == len(window.events)

    def test_scanner_funnel_identity_through_run_buffer(self, gen, window):
        from repro.obs import FUNNEL_STAGES, LINES_SEEN, Observability

        obs = Observability()
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout,
            scan_backend="bytes", obs=obs)
        blob = "\n".join(e.to_line() for e in window.events).encode() + b"\n"
        fleet.run_buffer(read_byte_batch(blob))
        snap = obs.registry.snapshot()

        def total(name):
            return sum(s["value"] for s in snap[name]["series"])

        lines_seen = total(LINES_SEEN)
        assert lines_seen == len(window.events)
        # run_buffer skips per-node attribution, yet the funnel stages
        # still resolve exactly against the fleet-level line count.
        assert sum(total(name) for name, _ in FUNNEL_STAGES) == lines_seen


@pytest.mark.skipif(not native_available(), reason="no C compiler")
class TestFusedNativePath:
    """run_lines with a native scanner and the plain replay shape
    (timing off, no reorder, tolerant policy) routes through the fused
    single-pass C kernel; everything observable must match the unfused
    byte pipeline."""

    def fused_fleet(self, gen):
        fleet = make_fleet(gen, "native")
        if getattr(fleet.scanner, "scan_records", None) is None:
            pytest.skip("native kernels did not build")
        return fleet

    def test_clean_blob_matches_bytes_pipeline(self, gen, window, log_path):
        fused = self.fused_fleet(gen).run_lines(log_path, timing="off")
        plain = make_fleet(gen, "bytes").run_lines(log_path, timing="off")
        assert prediction_keys(fused.predictions) == \
            prediction_keys(plain.predictions)
        assert fused.ingest.as_dict() == plain.ingest.as_dict()
        assert fused.ingest.funnel_ok
        assert fused.lines_seen == plain.lines_seen
        assert fused.lines_tokenized == plain.lines_tokenized

    def test_corrupted_blob_quarantines_identically(self, gen, window):
        lines, report = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.03), seed=23)
        assert report.total_faults > 0
        blob = "\n".join(lines).encode("utf-8") + b"\n"
        fused = self.fused_fleet(gen).run_lines(
            blob, on_error="quarantine", timing="off")
        plain = make_fleet(gen, "bytes").run_lines(
            blob, on_error="quarantine", timing="off")
        assert prediction_keys(fused.predictions) == \
            prediction_keys(plain.predictions)
        assert fused.ingest.as_dict() == plain.ingest.as_dict()
        assert fused.ingest.quarantined > 0 and fused.ingest.funnel_ok

    def test_strict_policy_stays_on_unfused_path(self, gen, window):
        # strict must attribute the first bad record in order, which
        # the fused kernel cannot do; the clean-stream answers must
        # nevertheless agree between the two shapes.
        blob = "\n".join(
            e.to_line() for e in window.events).encode() + b"\n"
        fleet = self.fused_fleet(gen)
        strict = fleet.run_lines(blob, on_error="strict", timing="off")
        fused = self.fused_fleet(gen).run_lines(
            blob, on_error="warn", timing="off")
        assert prediction_keys(strict.predictions) == \
            prediction_keys(fused.predictions)
        assert strict.ingest.lines_read == fused.ingest.lines_read

    def test_scanner_funnel_folds_into_obs(self, gen, window, log_path):
        from repro.obs import LINES_SEEN, SCANNER_BACKEND_INFO, Observability

        obs = Observability()
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout,
            scan_backend="native", obs=obs)
        if getattr(fleet.scanner, "scan_records", None) is None:
            pytest.skip("native kernels did not build")
        fleet.run_lines(log_path, timing="off")
        snap = obs.registry.snapshot()
        lines_seen = sum(
            s["value"] for s in snap[LINES_SEEN]["series"])
        assert lines_seen == len(window.events)
        backends = {s["labels"]["backend"]
                    for s in snap[SCANNER_BACKEND_INFO]["series"]}
        assert backends == {"native"}


class TestParallelBytePath:
    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_parallel_matches_serial(self, gen, window, backend):
        """A daemon on a byte backend ships each chunk as one bytes blob
        and runs the byte ingest worker-side; it must predict exactly
        what one str fleet predicts over the same lines."""
        from repro.core.daemon import FleetDaemon

        bundle = PredictorBundle(
            store=gen.store, chains=gen.chains,
            timeout=gen.recommended_timeout, system="HPC3")
        lines = [e.to_line() for e in window.events]
        serial = make_fleet(gen, "str").run_lines(
            lines, on_error="quarantine", timing="off").predictions
        with FleetDaemon(bundle, n_shards=2,
                         scan_backend=backend).start() as daemon:
            assert daemon.scan_backend == backend
            assert daemon.wait_ready(30.0)
            for line in lines:
                daemon.submit(line)
            report = daemon.stop(drain=True)
        assert report.drained
        key = lambda p: (p.node, p.chain_id, p.flagged_at, p.matched_tokens)
        assert serial
        assert sorted(map(key, serial)) == sorted(map(key, report.predictions))
