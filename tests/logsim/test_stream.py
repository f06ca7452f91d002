"""Tests for stream plumbing (framing / serialize / tolerant replay)."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import LogDecodeError, LogEvent
from repro.logsim import (
    IngestStats,
    SortBuffer,
    clip_window,
    decode_lines,
    frame_records,
    read_log,
    sorted_stream,
    split_by_node,
    write_log,
)


def ev(t, node="c0-0c0s0n0", msg="hello world"):
    return LogEvent(time=t, node=node, message=msg)


class TestSerialization:
    def test_roundtrip(self):
        events = [ev(1.5, "c0-0c1s2n3", "DVS: file node down: x"), ev(2.25)]
        buffer = io.StringIO()
        assert write_log(events, buffer) == 2
        buffer.seek(0)
        back = list(read_log(buffer))
        assert back == events

    def test_file_roundtrip(self, tmp_path):
        events = [ev(float(i), msg=f"msg {i}") for i in range(5)]
        path = tmp_path / "window.log"
        write_log(events, path)
        assert list(read_log(path)) == events

    def test_message_with_spaces_preserved(self):
        event = ev(0.0, msg="a  b   c, punctuated: [ok] (fine)")
        assert LogEvent.from_line(event.to_line()) == event

    def test_blank_lines_skipped(self):
        buffer = io.StringIO(ev(1.0).to_line() + "\n\n" + ev(2.0).to_line() + "\n")
        assert len(list(read_log(buffer))) == 2


def mixed_lines():
    """Three good lines with two malformed ones interleaved."""
    return [
        ev(1.0).to_line(),
        "1970-01-01T00:00:04 node-but-no-message",
        ev(2.0).to_line(),
        "not-a-timestamp c0-0c0s0n0 some message",
        ev(3.0).to_line(),
    ]


class TestErrorPolicies:
    def test_strict_raises_on_first_bad_line(self):
        with pytest.raises(LogDecodeError):
            list(decode_lines(mixed_lines(), on_error="strict"))

    @pytest.mark.parametrize("policy", ["warn", "quarantine"])
    def test_tolerant_policies_keep_stream_alive(self, policy):
        stats = IngestStats()
        events = list(decode_lines(mixed_lines(), on_error=policy, stats=stats))
        assert [e.time for e in events] == [1.0, 2.0, 3.0]
        assert stats.lines_read == 5
        assert stats.decoded == 3
        assert stats.quarantined == 2
        assert stats.funnel_ok
        assert stats.quarantined_by_reason == {
            "truncated": 1, "bad_timestamp": 1}

    def test_default_policy_is_tolerant(self):
        # Satellite 1: a single bad line must not kill read_log.
        buffer = io.StringIO("\n".join(mixed_lines()) + "\n")
        assert len(list(read_log(buffer))) == 3

    def test_strict_funnel_holds_on_error_exit(self):
        stats = IngestStats()
        with pytest.raises(LogDecodeError):
            list(decode_lines(mixed_lines(), on_error="strict", stats=stats))
        assert stats.funnel_ok
        assert stats.quarantined == 1  # counted before the raise

    def test_funnel_holds_on_midstream_abandon(self):
        stats = IngestStats()
        it = decode_lines(mixed_lines(), stats=stats)
        next(it)
        it.close()  # consumer walks away; finally-fold still runs
        assert stats.funnel_ok
        assert stats.lines_read == stats.decoded == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            list(decode_lines([], on_error="ignore"))
        with pytest.raises(ValueError):
            list(read_log(io.StringIO(""), on_error="explode"))

    def test_quarantine_fraction(self):
        stats = IngestStats()
        list(decode_lines(mixed_lines(), stats=stats))
        assert stats.quarantine_fraction == pytest.approx(2 / 5)
        assert IngestStats().quarantine_fraction == 0.0

    def test_invalid_utf8_file_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "binary.log"
        with open(path, "wb") as fh:
            fh.write((ev(1.0).to_line() + "\n").encode())
            fh.write(b"\xff\xfe\x00 broken bytes\n")
            fh.write((ev(2.0).to_line() + "\n").encode())
        stats = IngestStats()
        events = list(read_log(path, stats=stats))
        assert [e.time for e in events] == [1.0, 2.0]
        assert stats.quarantined == 1

    def test_stats_add_accumulates(self):
        a, b = IngestStats(), IngestStats()
        list(decode_lines(mixed_lines(), stats=a))
        list(decode_lines(mixed_lines(), stats=b))
        a.add(b)
        assert a.lines_read == 10
        assert a.quarantined == 4
        assert a.quarantined_by_reason == {"truncated": 2, "bad_timestamp": 2}
        assert a.funnel_ok


class TestSortBuffer:
    def test_repairs_within_horizon(self):
        stats = IngestStats()
        times = [1.0, 3.0, 2.0, 5.0, 4.0, 8.0, 9.0]
        out = list(sorted_stream((ev(t) for t in times), 3.0, stats))
        assert [e.time for e in out] == sorted(times)
        assert stats.reordered == 2
        assert stats.late == 0

    def test_late_event_emitted_not_dropped(self):
        stats = IngestStats()
        buffer = SortBuffer(1.0, stats)
        released = []
        for t in [1.0, 5.0, 9.0]:
            released += buffer.push(ev(t))
        # 2.0 is behind the emit watermark (5.0 - 1.0 released 1.0..4.0
        # range already): too late to reinsert, emitted immediately.
        released += buffer.push(ev(2.0))
        released += buffer.flush()
        assert sorted(e.time for e in released) == [1.0, 2.0, 5.0, 9.0]
        assert len(released) == 4
        assert stats.late == 1

    def test_equal_timestamps_keep_arrival_order(self):
        buffer = SortBuffer(1.0)
        a, b = ev(2.0, msg="first"), ev(2.0, msg="second")
        buffer.push(a)
        buffer.push(b)
        out = buffer.flush()
        assert [e.message for e in out] == ["first", "second"]

    def test_tie_at_emit_watermark_counts_late(self):
        # Regression: an event whose timestamp *equals* the emit
        # watermark must not re-enter the heap — its tie slot was
        # already released, so buffering it again would emit it behind
        # an already-emitted equal-timestamp event.  It is late.
        stats = IngestStats()
        buffer = SortBuffer(1.0, stats)
        released = []
        released += buffer.push(ev(2.0, msg="on-time"))
        # High water 3.0 ⇒ watermark 2.0 ⇒ the 2.0 slot is emitted.
        released += buffer.push(ev(3.0))
        assert [e.time for e in released] == [2.0]
        assert buffer._emitted_to == 2.0
        # Equal-timestamp arrival displaced by exactly the horizon:
        # emitted immediately (order still non-decreasing), counted
        # late, never behind a later-timestamp heap release.
        released += buffer.push(ev(2.0, msg="displaced"))
        assert stats.late == 1
        assert [e.time for e in released] == [2.0, 2.0]
        released += buffer.flush()
        assert [e.time for e in released] == [2.0, 2.0, 3.0]
        times = [e.time for e in released]
        assert times == sorted(times)

    def test_tie_displacement_in_sorted_stream(self):
        # The same boundary through the lazy wrapper: the duplicate
        # timestamp arriving after its slot emitted comes out adjacent
        # to its tie, not displaced behind later events.
        stats = IngestStats()
        out = list(sorted_stream(
            (ev(t) for t in [2.0, 3.0, 2.0, 4.0]), 1.0, stats))
        assert [e.time for e in out] == [2.0, 2.0, 3.0, 4.0]
        assert stats.late == 1

    def test_len_and_flush(self):
        buffer = SortBuffer(10.0)
        for t in [1.0, 2.0, 3.0]:
            assert buffer.push(ev(t)) == []
        assert len(buffer) == 3
        assert [e.time for e in buffer.flush()] == [1.0, 2.0, 3.0]
        assert len(buffer) == 0

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            SortBuffer(-1.0)

    @given(st.lists(st.floats(0, 100), max_size=50))
    def test_bounded_displacement_always_sorted(self, times):
        # Any stream whose events are displaced by at most the horizon
        # comes out fully sorted.
        out = list(sorted_stream(
            (ev(t) for t in times), 200.0))  # horizon > whole window
        assert [e.time for e in out] == sorted(times)


def cut(blob, points):
    """``blob`` cut at ``points`` (empty chunks included)."""
    edges = [0, *sorted(points), len(blob)]
    return [blob[a:b] for a, b in zip(edges, edges[1:])]


class TestFrameRecords:
    RECORDS = [
        ev(1.0).to_line().encode(),
        ev(2.0, node="n1").to_line().encode(),
        b"truncated",
        b"2024-01-01T00:00:03 n0 \xfe\xff garbled",
    ]
    # CRLF, blank records (bare and CRLF) and an unterminated last one.
    BLOB = (b"\n" + RECORDS[0] + b"\r\n\r\n" + RECORDS[1] + b"\n\n"
            + RECORDS[2] + b"\n" + RECORDS[3])

    @given(st.lists(st.integers(0, len(BLOB)), max_size=12))
    def test_any_chunking_frames_like_one_chunk(self, points):
        assert list(frame_records(cut(self.BLOB, points))) == self.RECORDS
        assert list(frame_records([self.BLOB])) == self.RECORDS

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                    max_size=40),
           st.lists(st.integers(0, 4000), max_size=8))
    def test_horizon_orders_like_sorted_stream(self, items, points):
        # Unique messages, so the comparison sees tie order too; junk
        # lines have no stamp and bypass the buffer.
        lines = ["garbled record" if junk
                 else ev(1000.0 + t, msg=f"m{i}").to_line()
                 for i, (t, junk) in enumerate(items)]
        blob = "\n".join(lines).encode()
        framed_stats, want_stats = IngestStats(), IngestStats()
        framed = frame_records(
            cut(blob, [p for p in points if p <= len(blob)]), 5.0,
            framed_stats)
        got = list(decode_lines(
            (r.decode() for r in framed), on_error="quarantine"))
        want = list(sorted_stream(
            decode_lines(lines, on_error="quarantine"), 5.0, want_stats))
        assert got == want
        assert (framed_stats.reordered, framed_stats.late) == (
            want_stats.reordered, want_stats.late)

    def test_unparseable_stamp_bypasses_buffer(self):
        first = ev(1000.0).to_line().encode()
        second = ev(1001.0).to_line().encode()
        stats = IngestStats()
        framed = list(frame_records(
            [first + b"\n1e12 n0 x\n" + second], 10.0, stats))
        # Yielded on arrival, ahead of a line still buffered, and its
        # would-be stamp never moved the watermark.
        assert framed == [b"1e12 n0 x", first, second]
        assert (stats.reordered, stats.late) == (0, 0)


class TestReadLogFrames:
    """``read_log`` over a path or a byte buffer reads exactly the
    records ``frame_records`` frames: a lone CR stays inside its
    record, as the native kernel's fused pass keeps it."""

    RECORDS = [
        ev(1.0, msg="lone carriage").to_line().encode().replace(
            b"lone ", b"lone\r"),
        ev(2.0, node="n1").to_line().encode(),
        b"truncated",
        ev(3.0, msg="unterminated").to_line().encode(),
    ]
    # CRLF, blank records (bare and CRLF) and an unterminated last one.
    BLOB = (b"\n" + RECORDS[0] + b"\r\n\r\n" + RECORDS[1] + b"\n\n"
            + RECORDS[2] + b"\n" + RECORDS[3])

    def test_path_and_bytes_read_the_framed_records(self, tmp_path):
        assert list(frame_records([self.BLOB])) == self.RECORDS
        want_stats = IngestStats()
        want = list(decode_lines(
            (r.decode() for r in frame_records([self.BLOB])),
            on_error="quarantine", stats=want_stats))
        assert [e.message for e in want] == [
            "lone\rcarriage", "hello world", "unterminated"]
        assert (want_stats.lines_read, want_stats.quarantined) == (4, 1)
        path = tmp_path / "framed.log"
        path.write_bytes(self.BLOB)
        for source in (path, str(path), self.BLOB, bytearray(self.BLOB),
                       memoryview(self.BLOB)):
            stats = IngestStats()
            assert list(read_log(
                source, on_error="quarantine", stats=stats)) == want
            assert stats.as_dict() == want_stats.as_dict()


class TestGrouping:
    def test_split_by_node(self):
        events = [ev(1.0, "a"), ev(2.0, "b"), ev(3.0, "a")]
        groups = split_by_node(events)
        assert sorted(groups) == ["a", "b"]
        assert [e.time for e in groups["a"]] == [1.0, 3.0]

    def test_split_empty_stream(self):
        assert split_by_node([]) == {}

    def test_split_preserves_within_node_order(self):
        events = [ev(2.0, "a", "x"), ev(2.0, "a", "y"), ev(2.0, "b", "z")]
        groups = split_by_node(events)
        assert [e.message for e in groups["a"]] == ["x", "y"]

    def test_clip_window(self):
        events = [ev(float(i)) for i in range(10)]
        clipped = clip_window(events, 3.0, 7.0)
        assert [e.time for e in clipped] == [3.0, 4.0, 5.0, 6.0]

    def test_clip_empty_stream(self):
        assert clip_window([], 0.0, 10.0) == []

    def test_clip_equal_timestamps_all_kept(self):
        events = [ev(5.0, msg=f"m{i}") for i in range(4)]
        assert clip_window(events, 5.0, 6.0) == events
        assert clip_window(events, 4.0, 5.0) == []  # end is exclusive

    def test_clip_start_equals_end_is_empty(self):
        events = [ev(float(i)) for i in range(5)]
        assert clip_window(events, 3.0, 3.0) == []

    def test_clip_outside_range(self):
        events = [ev(float(i)) for i in range(5)]
        assert clip_window(events, 10.0, 20.0) == []
        assert clip_window(events, -5.0, 0.0) == []
