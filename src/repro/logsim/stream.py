"""Stream plumbing: framing, serialization, tolerant replay.

The HSS aggregation point (Fig. 16) sees one time-ordered stream merged
from every controller.  These helpers frame that stream's bytes into
records, write/read the syslog-like text form, and replay a recorded
window as an iterator.

Real Cray syslog is not byte-perfect: records get truncated by crashing
writers, garbled in transit, duplicated by retransmission, and skewed
by per-controller clocks.  The ingest layer therefore degrades
gracefully instead of assuming pristine input:

* :func:`read_log` takes an ``on_error`` policy — ``"strict"`` raises
  (the old behavior), ``"warn"`` and ``"quarantine"`` route undecodable
  lines to a quarantine counter and keep the stream alive;
* :class:`IngestStats` carries the funnel counters, whose identity
  ``decoded + quarantined == lines_read`` is asserted by the tests;
* :class:`SortBuffer` re-sorts a *near*-sorted stream within a bounded
  time horizon (clock skew, interleaved controller writes);
* :func:`frame_records` turns a byte stream that arrives in pieces (a
  socket, a tailed file, a file or byte buffer read in
  :func:`byte_chunks`) into ordered records, through a
  :class:`SortBuffer` when a horizon is set.  It is the one record
  reader: every Python path that reads log bytes frames them here, by
  the same rule as the native kernel's fused pass.
"""

from __future__ import annotations

import heapq
import json
import logging
import mmap
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import (IO, Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Union)

from ..core.events import (LogDecodeError, LogEvent, NodeFailure,
                           parse_record_bytes)

_log = logging.getLogger("repro.ingest")

#: Decode-error policies accepted by :func:`read_log` and friends.
ERROR_POLICIES = ("strict", "warn", "quarantine")

#: Per-call cap on individual warn-policy log lines; later failures are
#: still quarantined and counted, then summarized once at stream end.
WARN_LINE_CAP = 5


@dataclass
class IngestStats:
    """Counters describing one ingest pass (decode funnel + ordering).

    Identity (asserted by the tests): every line offered to the decoder
    is either decoded or quarantined — ``decoded + quarantined ==
    lines_read``.  Blank lines are never offered, so they count nowhere.
    """

    lines_read: int = 0
    decoded: int = 0
    quarantined: int = 0
    # quarantine reasons → counts (LogDecodeError.reason tags)
    quarantined_by_reason: Dict[str, int] = field(default_factory=dict)
    # ordering discipline
    reordered: int = 0  # arrival inversions a SortBuffer repaired
    late: int = 0  # events beyond the reorder horizon (emitted as-is)

    @property
    def funnel_ok(self) -> bool:
        return self.decoded + self.quarantined == self.lines_read

    @property
    def quarantine_fraction(self) -> float:
        if not self.lines_read:
            return 0.0
        return self.quarantined / self.lines_read

    def add(self, other: "IngestStats") -> None:
        """Accumulate another stats record in place (chunk → fleet
        aggregation, mirroring :meth:`PredictorStats.add`)."""
        for f in fields(self):
            if f.name == "quarantined_by_reason":
                for reason, n in other.quarantined_by_reason.items():
                    self.quarantined_by_reason[reason] = (
                        self.quarantined_by_reason.get(reason, 0) + n
                    )
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return {
            "lines_read": self.lines_read,
            "decoded": self.decoded,
            "quarantined": self.quarantined,
            "quarantined_by_reason": dict(self.quarantined_by_reason),
            "reordered": self.reordered,
            "late": self.late,
        }


def _check_policy(on_error: str) -> None:
    if on_error not in ERROR_POLICIES:
        raise ValueError(
            f"unknown error policy {on_error!r}; expected one of {ERROR_POLICIES}")


class SortBuffer:
    """Bounded reorder buffer for a near-sorted event stream.

    Real merged syslog is *almost* time-ordered: per-controller clock
    skew and interleaved writes displace events by seconds, not hours.
    The buffer holds events until the stream's high-water timestamp has
    advanced ``horizon_s`` past them, then emits in time order — so any
    event displaced by at most the horizon comes out sorted, with
    bounded memory and latency.

    Events arriving at or behind the emit watermark (displaced further
    than the horizon, or tying a timestamp whose slot was already
    released) cannot be re-inserted without breaking the emitted
    order; they are emitted immediately and counted as ``late`` — the
    downstream negative-ΔT clamp keeps them harmless.
    """

    def __init__(self, horizon_s: float, stats: Optional[IngestStats] = None):
        if horizon_s < 0:
            raise ValueError("reorder horizon must be non-negative")
        self.horizon = horizon_s
        self.stats = stats if stats is not None else IngestStats()
        self._heap: List[tuple] = []
        self._seq = 0  # FIFO tie-break for equal timestamps
        self._high_water = float("-inf")
        self._emitted_to = float("-inf")

    def push(self, event: LogEvent) -> List[LogEvent]:
        """Add one event; returns the events released by its arrival."""
        stats = self.stats
        if event.time < self._high_water:
            stats.reordered += 1
        if event.time <= self._emitted_to:
            # Too late to re-order: the slot it belongs in was already
            # emitted.  That includes a timestamp *equal* to the emit
            # watermark — its tie slot was released when ``_emitted_to``
            # reached it, so re-entering the heap would emit it behind
            # an already-emitted equal-timestamp event, silently
            # breaking the FIFO tie order the buffer guarantees.  Ship
            # it now (still non-decreasing in time) and count it late.
            stats.late += 1
            return [event]
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1
        if event.time > self._high_water:
            self._high_water = event.time
        watermark = self._high_water - self.horizon
        out: List[LogEvent] = []
        heap = self._heap
        while heap and heap[0][0] <= watermark:
            t, _, released = heapq.heappop(heap)
            self._emitted_to = t
            out.append(released)
        return out

    def flush(self) -> List[LogEvent]:
        """Drain everything still buffered, in time order."""
        heap = self._heap
        out: List[LogEvent] = []
        while heap:
            t, _, released = heapq.heappop(heap)
            self._emitted_to = t
            out.append(released)
        return out

    def __len__(self) -> int:
        return len(self._heap)


def sorted_stream(
    events: Iterable[LogEvent],
    horizon_s: float,
    stats: Optional[IngestStats] = None,
) -> Iterator[LogEvent]:
    """Lazily repair a near-sorted stream through a :class:`SortBuffer`."""
    buffer = SortBuffer(horizon_s, stats)
    for event in events:
        yield from buffer.push(event)
    yield from buffer.flush()


def write_log(events: Iterable[LogEvent], target: Union[str, Path, IO[str]]) -> int:
    """Serialize events, one line each; returns the line count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return write_log(events, fh)
    count = 0
    for event in events:
        target.write(event.to_line() + "\n")
        count += 1
    return count


def decode_lines(
    lines: Iterable[str],
    *,
    on_error: str = "warn",
    stats: Optional[IngestStats] = None,
) -> Iterator[LogEvent]:
    """Decode serialized lines under an error policy.

    * ``"strict"`` — re-raise :class:`LogDecodeError` (one bad line
      kills the iteration, the pre-hardening behavior);
    * ``"warn"`` — quarantine the line, log the first
      :data:`WARN_LINE_CAP` offenders plus one end-of-stream summary;
    * ``"quarantine"`` — quarantine silently (counters only).

    Blank lines are skipped without counting.  The funnel identity
    ``decoded + quarantined == lines_read`` holds on every exit path,
    including a consumer abandoning the iterator mid-stream.

    The clean-line fast path costs one local increment over a bare
    ``LogEvent.from_line`` loop (the ``--smoke`` bench gate holds it
    under 3%): counts accumulate in locals and fold into ``stats`` in
    the ``finally`` block, never per line.
    """
    _check_policy(on_error)
    from_line = LogEvent.from_line
    strict = on_error == "strict"
    warn = on_error == "warn"
    lines_read = 0
    quarantined = 0
    by_reason: Dict[str, int] = {}
    try:
        for line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            lines_read += 1
            try:
                yield from_line(line)
            except LogDecodeError as exc:
                # Count before a strict re-raise so the funnel identity
                # holds on the error exit path too.
                quarantined += 1
                reason = exc.reason
                by_reason[reason] = by_reason.get(reason, 0) + 1
                if strict:
                    raise
                if warn and quarantined <= WARN_LINE_CAP:
                    _log.warning("quarantined line (%s)", exc)
        if warn and quarantined > WARN_LINE_CAP:
            _log.warning(
                "quarantined %d further lines (suppressed per-line "
                "warnings after the first %d)",
                quarantined - WARN_LINE_CAP, WARN_LINE_CAP)
    finally:
        if stats is not None:
            stats.lines_read += lines_read
            stats.decoded += lines_read - quarantined
            stats.quarantined += quarantined
            for reason, n in by_reason.items():
                stats.quarantined_by_reason[reason] = (
                    stats.quarantined_by_reason.get(reason, 0) + n
                )


def read_log(
    source: Union[str, Path, bytes, bytearray, memoryview, Iterable[str]],
    *,
    on_error: str = "warn",
    stats: Optional[IngestStats] = None,
) -> Iterator[LogEvent]:
    """Parse a log produced by :func:`write_log` lazily.

    A path or a byte buffer is framed by :func:`frame_records` (a record
    ends at LF alone, one trailing CR is stripped, blank records are
    skipped: the native kernel's fused pass splits the same way) and
    each record is replace-decoded, so even invalid UTF-8 reaches the
    decoder as (quarantinable) text under every policy.  A text handle
    or an iterable of lines goes to :func:`decode_lines` as it is.

    The default policy (``"warn"``) keeps the stream alive across
    malformed, truncated, or mojibake lines — they are quarantined and
    counted into ``stats`` instead of aborting the replay; pass
    ``on_error="strict"`` to raise :class:`LogDecodeError` at the first.
    """
    if isinstance(source, (str, Path, bytes, bytearray, memoryview)):
        source = (record.decode("utf-8", "replace")
                  for record in frame_records(byte_chunks(source)))
    return decode_lines(source, on_error=on_error, stats=stats)


# -- byte-level ingest ------------------------------------------------
#
# Raw UTF-8 records, split without decoding.  The native scan kernel's
# fused pass (PredictorFleet._run_fused) reads a whole buffer from
# open_byte_buffer, splits it in C by frame_records' rule, and re-parses
# only its suspect records with parse_record_bytes.  Every Python reader
# frames through frame_records, a file or byte buffer over byte_chunks.

#: Read size of :func:`byte_chunks` over a file.
CHUNK_BYTES = 1 << 20


def byte_chunks(
    source: Union[str, Path, bytes, bytearray, memoryview, IO[bytes]],
) -> Iterator[bytes]:
    """``source``'s bytes as :func:`frame_records` takes them: a path or
    a binary handle in :data:`CHUNK_BYTES` reads, a byte buffer as one
    chunk."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        yield bytes(source)  # records must be immutable, hashable bytes
        return
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from iter(partial(fh.read, CHUNK_BYTES), b"")
        return
    yield from iter(partial(source.read, CHUNK_BYTES), b"")


@contextmanager
def open_byte_buffer(
    source: Union[str, Path, bytes, bytearray, memoryview, IO[bytes]],
):
    """Yield ``source`` as one contiguous byte buffer for the native
    backend's fused ingest+scan pass (:meth:`PredictorFleet.run_lines`).

    Paths are mmapped with ``ACCESS_COPY``: private copy-on-write pages
    — reads hit the page cache like ``ACCESS_READ``, nothing ever
    touches the file, and the mapping is *writable*, which is what lets
    ``ctypes`` take a zero-copy array view of it (read-only buffers
    refuse ``from_buffer``).  Empty or unmappable files degrade to one
    ``read()``; byte buffers pass through untouched.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            try:
                buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
            except (ValueError, OSError):  # empty or unmappable file
                yield fh.read()
                return
        try:
            yield buf
        finally:
            buf.close()
        return
    if hasattr(source, "read"):
        yield source.read()
        return
    yield source


@dataclass
class ByteRecordBatch:
    """A record stream with parsed headers and undecoded payloads.

    Parallel lists: ``times[i]`` (epoch seconds, parsed eagerly — the
    quarantine decision requires it), ``nodes[i]`` and ``messages[i]``
    (raw UTF-8 bytes).
    """

    times: List[float]
    nodes: List[bytes]
    messages: List[bytes]

    def __len__(self) -> int:
        return len(self.times)


def read_byte_batch(
    source: Union[str, Path, bytes, bytearray, memoryview, IO[bytes]],
    *,
    on_error: str = "warn",
    reorder_horizon: float = 0.0,
    stats: Optional[IngestStats] = None,
) -> ByteRecordBatch:
    """Byte-level analog of :func:`read_log` + :func:`sorted_stream`:
    the records :func:`frame_records` frames from ``source``, each
    header-parsed by :func:`~repro.core.events.parse_record_bytes`
    under the same error policies into a :class:`ByteRecordBatch`,
    then reordered by :func:`sorted_stream` over the parsed times
    under a positive ``reorder_horizon`` (so no header is parsed
    twice).

    Quarantine decisions and counts match the text pipeline record for
    record (asserted by the ingest equivalence tests); the funnel
    identity ``decoded + quarantined == lines_read`` holds on every
    exit path.  Under ``"strict"`` the first undecodable record raises
    :class:`LogDecodeError`.
    """
    _check_policy(on_error)
    strict = on_error == "strict"
    warn = on_error == "warn"
    times: List[float] = []
    nodes: List[bytes] = []
    messages: List[bytes] = []
    lines_read = 0
    quarantined = 0
    by_reason: Dict[str, int] = {}
    try:
        for record in frame_records(byte_chunks(source)):
            lines_read += 1
            try:
                t, node, message = parse_record_bytes(record)
            except LogDecodeError as exc:
                quarantined += 1
                reason = exc.reason
                by_reason[reason] = by_reason.get(reason, 0) + 1
                if strict:
                    raise
                if warn and quarantined <= WARN_LINE_CAP:
                    _log.warning("quarantined record (%s)", exc)
                continue
            times.append(t)
            nodes.append(node)
            messages.append(message)
        if warn and quarantined > WARN_LINE_CAP:
            _log.warning(
                "quarantined %d further records (suppressed per-record "
                "warnings after the first %d)",
                quarantined - WARN_LINE_CAP, WARN_LINE_CAP)
    finally:
        if stats is not None:
            stats.lines_read += lines_read
            stats.decoded += lines_read - quarantined
            stats.quarantined += quarantined
            for reason, n in by_reason.items():
                stats.quarantined_by_reason[reason] = (
                    stats.quarantined_by_reason.get(reason, 0) + n
                )
    if reorder_horizon > 0:
        order = [s.item for s in sorted_stream(
            map(_Stamped, times, range(len(times))), reorder_horizon, stats)]
        times, nodes, messages = (
            [column[i] for i in order] for column in (times, nodes, messages))
    return ByteRecordBatch(times, nodes, messages)


class _Stamped(NamedTuple):
    """Carrier for replaying anything with a time through a SortBuffer
    (the buffer only ever reads ``.time``)."""

    time: float
    item: object


def frame_records(
    chunks: Iterable[bytes],
    reorder_horizon: float = 0.0,
    stats: Optional[IngestStats] = None,
) -> Iterator[bytes]:
    """Frame a byte stream that arrives in arbitrary chunks into its
    newline-delimited records, in order: the one record reader, behind
    ``aarohi serve``'s sockets and tailed files, the CLI's sliced
    replays, ``aarohi stream``, :func:`read_log` and
    :func:`read_byte_batch`.

    Each chunk is split once, and a record cut by chunk boundaries is
    joined when its newline arrives, so a sender that never sends one
    costs linear time.  One trailing CR is stripped (CRLF frames like
    LF), blank records are skipped, and an unterminated last record is
    yielded when the chunks run out.

    A positive ``reorder_horizon`` passes the records through a
    :class:`SortBuffer` keyed on the decoder's own timestamp rule
    (:func:`~repro.core.events.parse_record_bytes`), counting into
    ``stats.reordered``/``stats.late``.  A record the decoder will
    quarantine has no time to sort by: it is yielded on arrival, so it
    never moves the buffer's watermarks, and where it lands is
    immaterial.
    """
    sort = SortBuffer(reorder_horizon, stats) if reorder_horizon > 0 else None
    head: List[bytes] = []  # the pieces of a record cut by chunk ends
    # One more newline ends an unterminated last record.
    for chunk in chain(chunks, (b"\n",)):
        records = chunk.split(b"\n")
        if len(records) == 1:
            head.append(chunk)
            continue
        if head:
            head.append(records[0])
            records[0] = b"".join(head)
        head = [records.pop()]
        # A CR ending records[0] may have arrived in an earlier chunk.
        if b"\r" in chunk or records[0].endswith(b"\r"):
            records = [r[:-1] if r.endswith(b"\r") else r for r in records]
        if sort is None:
            yield from filter(None, records)
            continue
        for record in filter(None, records):
            try:
                stamp = parse_record_bytes(record)[0]
            except LogDecodeError:
                yield record
                continue
            for released in sort.push(_Stamped(stamp, record)):
                yield released.item
    if sort is not None:
        for released in sort.flush():
            yield released.item


def write_truth(
    failures: Iterable[NodeFailure], target: Union[str, Path, IO[str]]
) -> int:
    """Serialize injected-failure ground truth (JSONL, one failure per
    line) next to a replayed log — the feed for the online
    :class:`~repro.obs.quality.QualityScoreboard`.  Returns the count."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            return write_truth(failures, fh)
    count = 0
    for failure in failures:
        target.write(json.dumps({
            "node": failure.node,
            "time": failure.time,
            "chain_id": failure.chain_id,
        }) + "\n")
        count += 1
    return count


def read_truth(source: Union[str, Path, IO[str]]) -> Iterator[NodeFailure]:
    """Parse a ground-truth file produced by :func:`write_truth`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from read_truth(fh)
        return
    for line in source:
        line = line.strip()
        if line:
            record = json.loads(line)
            yield NodeFailure(
                node=record["node"], time=record["time"],
                chain_id=record.get("chain_id"),
            )


def split_by_node(events: Iterable[LogEvent]) -> dict[str, List[LogEvent]]:
    """Group a stream per source node (predictor-instance routing)."""
    out: dict[str, List[LogEvent]] = {}
    for event in events:
        out.setdefault(event.node, []).append(event)
    return out


def clip_window(
    events: Sequence[LogEvent], start: float, end: float
) -> List[LogEvent]:
    """Events with ``start <= time < end`` (assumes sorted input)."""
    import bisect

    times = [e.time for e in events]
    lo = bisect.bisect_left(times, start)
    hi = bisect.bisect_left(times, end)
    return list(events[lo:hi])
