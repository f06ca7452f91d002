"""Byte-level ingest and the fleet byte hot path.

Covers the byte sources the one record reader (``frame_records`` over
``byte_chunks``: files and binary handles in fixed-size reads, byte
buffers whole) frames alike, the ingest equivalence contract between
``read_byte_batch`` and the text pipeline (quarantine decisions and
counts line for line, invalid UTF-8 included), and the fleet wiring:
``run_lines`` over byte records — the fused native pass, or
``read_log`` then decode — must produce the same predictions, ingest
funnel, and scanner funnel as the decoded str path, in one fleet and
sharded.
"""

import io
from datetime import datetime, timezone

import pytest

from repro.codegen import native_available
from repro.core import PredictorFleet
from repro.core.events import LogEvent, escape_message
from repro.logsim import (
    HPC3,
    ClusterLogGenerator,
    CorruptionSpec,
    IngestStats,
    corrupt_window,
    frame_records,
    read_byte_batch,
    read_log,
    write_log,
)
from repro.logsim import stream
from repro.logsim.stream import byte_chunks, open_byte_buffer
from repro.persistence import PredictorBundle

BACKENDS = ["str"] + (["native"] if native_available() else [])


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


def framed(source):
    return list(frame_records(byte_chunks(source)))


class TestByteSources:
    def test_mmap_handle_and_buffer_agree(self, log_path, window,
                                          monkeypatch):
        # A path and a binary handle arrive in fixed-size reads, a
        # buffer in one chunk; the framer reads them alike, and the
        # fused pass's mmap holds the same bytes.
        blob = log_path.read_bytes()
        from_path = framed(log_path)
        from_handle = framed(io.BytesIO(blob))
        from_buffer = framed(blob)
        from_view = framed(memoryview(blob))
        with open_byte_buffer(log_path) as mapped:
            from_mmap = framed(bytes(mapped))
        assert from_path == from_handle == from_buffer == from_view == \
            from_mmap
        assert len(from_path) == len(window.events)
        assert all(isinstance(r, bytes) for r in from_view)
        # Reads that cut records mid-way frame the same records.
        monkeypatch.setattr(stream, "CHUNK_BYTES", 4093)
        assert len(list(byte_chunks(log_path))) > 1
        assert framed(log_path) == from_path

    def test_blank_records_and_crlf(self):
        blob = (b"\n\n" + line(1.5, "n0", "hello") + b"\r\n" + b"\r\n"
                + line(2.5, "n0", "world") + b"\n")
        assert framed(blob) == [line(1.5, "n0", "hello"),
                                line(2.5, "n0", "world")]
        batch = read_byte_batch(blob, on_error="quarantine")
        assert batch.messages == [b"hello", b"world"]
        assert batch.times == [1.5, 2.5]

    def test_missing_trailing_newline(self):
        blob = line(1.0, "n0", "alpha") + b"\n" + line(2.0, "n0", "beta")
        batch = read_byte_batch(blob)
        assert batch.messages == [b"alpha", b"beta"]

    def test_empty_file_mmap_fallback(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_bytes(b"")
        with open_byte_buffer(empty) as buf:  # an empty file cannot map
            assert buf == b""
        assert framed(empty) == []
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
        assert batch.times == [e.time for e in events]
        assert [n.decode() for n in batch.nodes] == [e.node for e in events]
        assert [m.decode() for m in batch.messages] == \
            [e.message for e in events]
        assert len(batch) == len(window.events)

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
        batch = read_byte_batch(blob, on_error="quarantine",
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_byte_blob_matches_run(self, gen, window, backend):
        # native runs the fused pass over the blob; str reads it
        # through read_log's framer, then decodes.
        blob = "\n".join(e.to_line() for e in window.events).encode() + b"\n"
        buffered = make_fleet(gen, backend).run_lines(blob, timing="off")
        direct = make_fleet(gen, backend).run(window.events)
        assert prediction_keys(buffered.predictions) == \
            prediction_keys(direct.predictions)
        assert buffered.ingest.lines_read == len(window.events)

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

    def test_lone_carriage_returns_split_alike(self, gen, window, tmp_path):
        # A raw CR inside a record ends nothing: a str fleet reading the
        # file frames it as the fused native pass splits it.
        records = []
        for i, e in enumerate(window.events):
            record = e.to_line().encode()
            if i % 97 == 0:
                cut = len(record) - len(e.message.encode()) // 2
                record = record[:cut] + b"\r" + record[cut:]
            records.append(record)
        path = tmp_path / "lone-cr.log"
        path.write_bytes(b"\n".join(records) + b"\n")
        reports = [
            make_fleet(gen, backend).run_lines(
                path, on_error="quarantine", timing="off")
            for backend in ("str", "native")]
        assert reports[0].predictions
        assert full_keys(reports[0].predictions) == \
            full_keys(reports[1].predictions)
        assert reports[0].ingest.as_dict() == reports[1].ingest.as_dict()
        assert reports[0].ingest.lines_read == len(records)
        assert reports[0].ingest.quarantined == 0

    def test_full_timing_byte_blob_decodes(self, gen, window):
        # timing="full" needs per-event tokenize timing, so a byte blob
        # routes through decode; predictions must still agree.
        blob = "\n".join(
            e.to_line() for e in window.events).encode() + b"\n"
        report = make_fleet(gen, "native").run_lines(blob, timing="full")
        reference = make_fleet(gen, "str").run(window.events)
        assert prediction_keys(report.predictions) == \
            prediction_keys(reference.predictions)
        assert report.ingest.lines_read == len(window.events)

    def test_scanner_funnel_identity_through_byte_blob(self, gen, window):
        from repro.obs import FUNNEL_STAGES, LINES_SEEN, Observability

        obs = Observability()
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout,
            scan_backend="native", obs=obs)
        blob = "\n".join(e.to_line() for e in window.events).encode() + b"\n"
        fleet.run_lines(blob, timing="off")
        snap = obs.registry.snapshot()

        def total(name):
            return sum(s["value"] for s in snap[name]["series"])

        lines_seen = total(LINES_SEEN)
        assert lines_seen == len(window.events)
        # The batched paths skip per-node attribution, yet the funnel
        # stages still resolve exactly against the fleet-level line
        # count.
        assert sum(total(name) for name, _ in FUNNEL_STAGES) == lines_seen


def full_keys(predictions):
    return [(p.node, p.chain_id, p.flagged_at, p.matched_tokens)
            for p in predictions]


def displaced_suspect_lines(gen, events, every=5, shift=3):
    """Serialized lines in which every ``every``-th FC-related event
    becomes a suspect record the C header check hands back to Python —
    alternately an escaped message and a stamp without fractional
    seconds — and moves ``shift`` lines later, so a reorder horizon has
    to put it back."""
    tokenize = make_fleet(gen, "str").scanner.tokenize
    lines = [e.to_line() for e in events]
    moves = []
    related = 0
    for i, e in enumerate(events):
        token = tokenize(e.message)
        if token is None or not gen.chains.is_relevant(token):
            continue
        related += 1
        if related % every:
            continue
        if len(moves) % 2:
            stamp = datetime.fromtimestamp(
                e.time, timezone.utc).isoformat(timespec="seconds")
            lines[i] = f"{stamp} {e.node} {escape_message(e.message)}"
        else:
            lines[i] = LogEvent(e.time, e.node, e.message + " \\").to_line()
        moves.append(i)
    for i in reversed(moves):
        lines.insert(min(i + shift, len(lines) - 1), lines.pop(i))
    return lines, len(moves)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
class TestFusedNativePath:
    """run_lines with a native scanner, timing other than "full" and a
    tolerant policy routes through the fused single-pass C kernel, with
    or without a reorder horizon; everything observable must match a
    str fleet over the same bytes and over the same file (read_log's
    framer, decode, then the Python SortBuffer)."""

    def fused_fleet(self, gen):
        fleet = make_fleet(gen, "native")
        if getattr(fleet.scanner, "scan_records", None) is None:
            pytest.skip("native kernels did not build")
        return fleet

    def three_way(self, gen, source, text_path, horizon):
        """Run the fused pass over ``source`` and hold it to a str fleet
        over the same bytes and over the same file read from
        ``text_path``."""
        def run(fleet, src):
            return fleet.run_lines(src, on_error="quarantine",
                                   reorder_horizon=horizon, timing="off")

        raw = source if isinstance(source, (bytes, bytearray)) \
            else source.read_bytes()
        fused = run(self.fused_fleet(gen), source)
        plain = run(make_fleet(gen, "str"), raw)
        text = run(make_fleet(gen, "str"), text_path)
        assert fused.predictions
        for other in (plain, text):
            assert full_keys(fused.predictions) == \
                full_keys(other.predictions)
            assert fused.ingest.as_dict() == other.ingest.as_dict()
            assert fused.lines_seen == other.lines_seen
            assert fused.lines_tokenized == other.lines_tokenized
            assert fused.nodes == other.nodes
        assert fused.ingest.funnel_ok
        return fused

    @pytest.mark.parametrize("kind", ["path", "bytes", "bytearray"])
    @pytest.mark.parametrize("horizon", [0.001, 5.0, 60.0])
    def test_reorder_displaced_suspects(self, gen, window, tmp_path, kind,
                                        horizon):
        lines, moved = displaced_suspect_lines(gen, window.events)
        assert moved >= 4
        path = tmp_path / "displaced.log"
        path.write_bytes("\n".join(lines).encode() + b"\n")
        blob = path.read_bytes()
        source = {"path": path, "bytes": blob,
                  "bytearray": bytearray(blob)}[kind]
        report = self.three_way(gen, source, path, horizon)
        assert report.ingest.reordered > 0
        assert report.ingest.quarantined == 0

    @pytest.mark.parametrize("sep, tail", [
        (b"\r\n", b"\r\n"), (b"\r\n", b""), (b"\n", b"")])
    def test_reorder_line_ends(self, gen, window, tmp_path, sep, tail):
        lines, _ = displaced_suspect_lines(gen, window.events)
        path = tmp_path / "ends.log"
        path.write_bytes(sep.join(x.encode() for x in lines) + tail)
        self.three_way(gen, path.read_bytes(), path, 5.0)

    @pytest.mark.corruption
    @pytest.mark.parametrize("horizon", [0.001, 0.5])
    def test_reorder_corrupted_stream_with_late_records(
            self, gen, window, tmp_path, horizon):
        lines, report = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.03), seed=23)
        assert report.total_faults > 0
        path = tmp_path / "corrupt.log"
        path.write_bytes("\n".join(lines).encode("utf-8") + b"\n")
        fused = self.three_way(gen, path.read_bytes(), path, horizon)
        assert fused.ingest.quarantined > 0
        assert fused.ingest.reordered > 0 and fused.ingest.late > 0

    @pytest.mark.parametrize("horizon", [0.0, 0.5, 5.0])
    def test_hand_off_matches_str_across_calls(self, gen, window, horizon):
        # The kernel hands hits over as arrays with interned node ids.
        # Two predicted nodes' ids carry invalid UTF-8; the window runs as
        # two calls on one fleet, so the second call's nodes come from
        # the fleet's node-name cache; one escaped record (a suspect)
        # decodes to a node no hit had, and two suspects quarantine.
        lines, _ = displaced_suspect_lines(gen, window.events)
        tokenize = make_fleet(gen, "str").scanner.tokenize
        fc = next(e for e in window.events
                  if gen.chains.is_relevant(tokenize(e.message)))
        lines[10:10] = [
            LogEvent(fc.time, "ghost-node", fc.message + " \\").to_line(),
            "2020-13-45T99:00:00.000000+00:00 c0 link down",
            "2020-09-13"]
        failing = sorted({p.node for p in make_fleet(gen, "str").run_lines(
            "\n".join(lines).encode(), on_error="quarantine",
            reorder_horizon=horizon, timing="off").predictions})[:2]
        renamed = {node.encode(): node.encode() + b"\xff\xfe"
                   for node in failing}

        def encode(line):
            parts = line.encode().split(b" ", 2)
            if len(parts) == 3:
                parts[1] = renamed.get(parts[1], parts[1])
            return b" ".join(parts)

        records = [encode(line) for line in lines]
        half = len(records) // 2
        calls = [b"\n".join(records[:half]) + b"\n",
                 b"\n".join(records[half:]) + b"\n"]
        fleets = self.fused_fleet(gen), make_fleet(gen, "str")
        predicted = set()
        for n, blob in enumerate(calls):
            fused, plain = (fleet.run_lines(
                blob, on_error="quarantine", reorder_horizon=horizon,
                timing="off") for fleet in fleets)
            assert fused.predictions
            assert full_keys(fused.predictions) == \
                full_keys(plain.predictions)
            assert fused.ingest.as_dict() == plain.ingest.as_dict()
            assert fused.ingest.funnel_ok
            assert fused.nodes == plain.nodes
            assert {node: (p.stats.lines_tokenized, p.stats.predictions)
                    for node, p in fused.touched.items()} == \
                {node: (p.stats.lines_tokenized, p.stats.predictions)
                 for node, p in plain.touched.items()}
            predicted |= {p.node for p in fused.predictions}
            if n == 0:
                assert "ghost-node" in fused.touched
                assert fused.ingest.quarantined == 2
        bad = {node + "\ufffd\ufffd" for node in failing}
        assert bad <= set(fleets[0].nodes) and predicted & bad

    def test_clean_blob_matches_bytes_pipeline(self, gen, window, log_path):
        # The reference is a str fleet over the same file's bytes:
        # read_log's framer, decode and the str kernels.
        fused = self.fused_fleet(gen).run_lines(log_path, timing="off")
        plain = make_fleet(gen, "str").run_lines(
            log_path.read_bytes(), timing="off")
        assert prediction_keys(fused.predictions) == \
            prediction_keys(plain.predictions)
        assert fused.ingest.as_dict() == plain.ingest.as_dict()
        assert fused.ingest.funnel_ok
        assert fused.lines_seen == plain.lines_seen
        assert fused.lines_tokenized == plain.lines_tokenized

    @pytest.mark.corruption
    def test_corrupted_blob_quarantines_identically(self, gen, window):
        lines, report = corrupt_window(
            window.events, CorruptionSpec.all_kinds(0.03), seed=23)
        assert report.total_faults > 0
        blob = "\n".join(lines).encode("utf-8") + b"\n"
        fused = self.fused_fleet(gen).run_lines(
            blob, on_error="quarantine", timing="off")
        plain = make_fleet(gen, "str").run_lines(
            blob, on_error="quarantine", timing="off")
        assert prediction_keys(fused.predictions) == \
            prediction_keys(plain.predictions)
        assert fused.ingest.as_dict() == plain.ingest.as_dict()
        assert fused.ingest.quarantined > 0 and fused.ingest.funnel_ok

    def test_strict_policy_stays_on_unfused_path(self, gen, window):
        # strict must attribute the first bad record in order, which
        # the fused kernel cannot do, so it takes the decoded path; the
        # clean-stream answers must nevertheless agree between the two
        # shapes.
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_matches_serial(self, gen, window, backend):
        """A daemon ships each chunk as one bytes blob and its workers
        ingest it at the byte layer (the fused pass on native, read_log
        then decode on str); it must predict exactly what one str fleet
        predicts over the same lines."""
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
