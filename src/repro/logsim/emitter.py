"""Paced live-log emitter: replay a serialized log as a *stream*.

Batch replay hands the whole file to the fleet at once; a serving drill
needs the opposite — lines arriving over a socket at a controlled rate,
including the corrupted ones, exactly as a cluster's syslog forwarder
would deliver them.  :func:`stream_log` is that forwarder: it ships the
raw **bytes** of each record (binary-safe — mojibake and truncated
lines flow through untouched, they are the point of the drill) to a
sink, optionally paced against the event timestamps.

Pacing semantics: ``pace`` is a speed multiplier over event time.
``pace=1`` replays in real time (a record stamped 30 s after the first
is emitted ~30 s after the first), ``pace=60`` replays a minute of log
per second, ``pace=0`` (default) blasts with no delays.  Records whose
timestamp cannot be parsed — corrupted headers — inherit the previous
record's schedule, so corruption never stalls or reorders the stream.

The clock and sleep are injectable, so tests drive hours of simulated
pacing in microseconds.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Callable, IO, Optional, Union

from .stream import byte_chunks, frame_records

Sink = Callable[[bytes], object]


@dataclass
class EmitStats:
    """What one :func:`stream_log` run shipped."""

    lines: int = 0
    bytes_sent: int = 0
    flushes: int = 0
    sleeps: int = 0
    slept_seconds: float = 0.0
    unparsed_times: int = 0  # records that inherited their schedule

    def as_dict(self) -> dict:
        return {
            "lines": self.lines,
            "bytes_sent": self.bytes_sent,
            "flushes": self.flushes,
            "sleeps": self.sleeps,
            "slept_seconds": round(self.slept_seconds, 6),
            "unparsed_times": self.unparsed_times,
        }


def parse_time_prefix(record: bytes) -> Optional[float]:
    """The leading timestamp field of a serialized record, or ``None``
    when the header is unparseable (corrupted line).

    Accepts both the canonical ISO-8601 stamps of
    :meth:`~repro.core.events.LogEvent.to_line` and bare epoch floats
    (synthetic fixtures), so pacing works on either."""
    head, sep, _ = record.partition(b" ")
    if not sep:
        return None
    text = str(head, "utf-8", "replace")
    try:
        return float(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text).timestamp()
    except (ValueError, OverflowError, OSError):
        return None


def stream_log(
    source: Union[str, Path, bytes, bytearray, memoryview, IO[bytes]],
    sink: Sink,
    *,
    pace: float = 0.0,
    chunk: int = 256,
    sleep: Callable[[float], None] = _time.sleep,
    clock: Callable[[], float] = _time.monotonic,
    min_sleep: float = 0.005,
) -> EmitStats:
    """Ship ``source``'s records to ``sink`` as newline-terminated
    bytes, paced at ``pace``× event time (``0`` = no pacing).  Records
    are framed by :func:`~repro.logsim.stream.frame_records`, so a CRLF
    log's records go out with LF endings.

    Records are coalesced into buffers of up to ``chunk`` lines between
    sink calls; a pacing wait always flushes first, so everything due
    *before* the wait is on the wire before the emitter sleeps.  Waits
    shorter than ``min_sleep`` are skipped (they accrue — the schedule
    is absolute, not per-record, so skipped micro-waits never drift the
    replay).  Returns the shipped-traffic :class:`EmitStats`.
    """
    if pace < 0:
        raise ValueError("pace must be >= 0")
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    stats = EmitStats()
    buffer: list[bytes] = []
    buffered = 0

    def flush() -> None:
        nonlocal buffered
        if not buffer:
            return
        payload = b"".join(buffer)
        buffer.clear()
        buffered = 0
        sink(payload)
        stats.flushes += 1
        stats.bytes_sent += len(payload)

    t0: Optional[float] = None  # first parseable event time
    wall0 = clock()
    last_offset = 0.0  # schedule inherited by unparseable records
    for record in frame_records(byte_chunks(source)):
        if pace > 0:
            t = parse_time_prefix(record)
            if t is None:
                stats.unparsed_times += 1
            else:
                if t0 is None:
                    t0 = t
                # Clamp backwards stamps to the running schedule: the
                # emitter preserves arrival order, it never re-sorts.
                last_offset = max(last_offset, (t - t0) / pace)
            due = wall0 + last_offset
            wait = due - clock()
            if wait >= min_sleep:
                flush()
                sleep(wait)
                stats.sleeps += 1
                stats.slept_seconds += wait
        buffer.append(record + b"\n")
        buffered += 1
        stats.lines += 1
        if buffered >= chunk:
            flush()
    flush()
    return stats


def tcp_sink(sock) -> Sink:
    """A :func:`stream_log` sink over a connected socket."""
    return sock.sendall


def file_sink(fh: IO[bytes]) -> Sink:
    """A :func:`stream_log` sink over a binary file object (stdout)."""

    def send(payload: bytes) -> None:
        fh.write(payload)
        fh.flush()

    return send
