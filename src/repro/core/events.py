"""Event model shared across the library.

A :class:`LogEvent` is one syslog-style record: timestamp, source node,
message text.  After template matching an event becomes a
:class:`TokenEvent` — the phrase's global token id plus arrival time —
which is all the online predictor ever looks at (Table III's ``<T, id>``
token column).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Optional, Tuple


class LogDecodeError(ValueError):
    """A syslog line that cannot be decoded into a :class:`LogEvent`.

    ``reason`` is a short stable tag (``"truncated"`` — fewer than three
    space-separated fields — or ``"bad_timestamp"``) so quarantine
    accounting can bucket failures without string-matching messages.
    """

    def __init__(self, reason: str, line: str):
        preview = line if len(line) <= 80 else line[:77] + "..."
        super().__init__(f"{reason}: {preview!r}")
        self.reason = reason
        self.line = line


def escape_message(text: str) -> str:
    """Make a message single-line safe: ``\\`` → ``\\\\``, newline →
    ``\\n``, carriage return → ``\\r``.  Exact inverse of
    :func:`unescape_message`."""
    return (
        text.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_message(text: str) -> str:
    """Inverse of :func:`escape_message`.

    Splitting on the escaped backslash first means ``\\n`` sequences
    inside each fragment are unambiguous real-newline escapes (a literal
    backslash followed by ``n`` serializes as ``\\\\n``, which the split
    consumes before the replace runs).
    """
    return "\\".join(
        part.replace("\\n", "\n").replace("\\r", "\r")
        for part in text.split("\\\\")
    )


class Severity(enum.Enum):
    """Phrase labels used during Phase-1 segregation (Table III).

    ``ERRONEOUS`` — definitely-not-benign messages (e.g. hardware error);
    ``UNKNOWN`` — not provably benign, kept in chains; ``BENIGN`` —
    healthy chatter, never part of a failure chain.
    """

    ERRONEOUS = "E"
    UNKNOWN = "U"
    BENIGN = "B"


@dataclass(frozen=True, slots=True)
class LogEvent:
    """One raw log record."""

    time: float  # seconds since epoch
    node: str  # e.g. "c0-0c2s0n2"
    message: str

    def to_line(self) -> str:
        """Serialize as a syslog-like line (ISO timestamp, node, message).

        Messages containing newlines or backslashes are escaped so one
        event is always exactly one line (see :func:`escape_message`);
        :meth:`from_line` reverses the escaping, making the round trip
        exact for adversarial messages too.
        """
        stamp = datetime.fromtimestamp(self.time, tz=timezone.utc)
        message = self.message
        if "\\" in message or "\n" in message or "\r" in message:
            message = escape_message(message)
        return f"{stamp.isoformat(timespec='microseconds')} {self.node} {message}"

    @classmethod
    def from_line(cls, line: str) -> "LogEvent":
        """Parse one serialized line; raises :class:`LogDecodeError` (a
        ``ValueError``) on truncated fields or an unparseable timestamp.
        Tolerant iteration lives in :func:`repro.logsim.stream.read_log`,
        which maps these errors to its error policy."""
        parts = line.rstrip("\n").split(" ", 2)
        if len(parts) != 3:
            raise LogDecodeError("truncated", line)
        stamp, node, message = parts
        try:
            t = datetime.fromisoformat(stamp).timestamp()
        except (ValueError, OverflowError, OSError) as exc:
            raise LogDecodeError("bad_timestamp", line) from exc
        if "\\" in message:
            message = unescape_message(message)
        return cls(time=t, node=node, message=message)


def parse_record_bytes(record: bytes) -> Tuple[float, bytes, bytes]:
    """Split and header-validate one raw serialized record **without
    decoding the payload**.

    Returns ``(time, node_bytes, message_bytes)``.  Only the ~32-byte
    timestamp field is ever decoded; the node and message stay raw for
    the byte-level scan path, which defers their decoding to the rare
    lines that actually match (see :mod:`repro.logsim.stream`).

    Quarantine decisions are identical to :meth:`LogEvent.from_line` on
    the replace-decoded text: ``0x20`` never occurs inside a UTF-8
    multi-byte sequence, so the byte-level field split finds exactly
    the spaces the decoded split finds, and an invalid timestamp field
    replace-decodes to text ``fromisoformat`` rejects just the same.
    Raises :class:`LogDecodeError` with the same reason tags.

    Messages containing escapes (``b"\\\\"`` present — rare) are
    normalized here: decoded, unescaped, re-encoded.  The scanner must
    see the same text the str pipeline scans, and an escaped newline is
    two bytes on the wire but one character to the templates.
    """
    sp1 = record.find(b" ")
    sp2 = record.find(b" ", sp1 + 1) if sp1 >= 0 else -1
    if sp2 < 0:
        raise LogDecodeError("truncated", str(record, "utf-8", "replace"))
    try:
        t = datetime.fromisoformat(
            str(record[:sp1], "utf-8", "replace")).timestamp()
    except (ValueError, OverflowError, OSError) as exc:
        raise LogDecodeError(
            "bad_timestamp", str(record, "utf-8", "replace")) from exc
    message = record[sp2 + 1:]
    if b"\\" in message:
        message = unescape_message(str(message, "utf-8", "replace")).encode()
    return t, record[sp1 + 1:sp2], message


@dataclass(frozen=True, slots=True)
class TokenEvent:
    """A tokenized phrase: what the parser consumes (Table III Token col)."""

    time: float
    token: int  # global phrase-template id
    node: str = ""

    def delta_t(self, earlier: "TokenEvent") -> float:
        """ΔT in seconds between this arrival and an earlier one."""
        return self.time - earlier.time


@dataclass(frozen=True, slots=True)
class Prediction:
    """An imminent-node-failure flag raised by the predictor."""

    node: str
    chain_id: str  # which FC matched
    flagged_at: float  # timestamp of the phrase completing the match
    prediction_time: float  # seconds spent deciding (inference cost)
    matched_tokens: tuple[int, ...] = ()

    def effective_lead_time(self, failure_time: float) -> float:
        """Lead time to ``failure_time`` net of prediction cost (§IV)."""
        return failure_time - self.flagged_at - self.prediction_time


@dataclass(frozen=True, slots=True)
class NodeFailure:
    """Ground-truth record of an anomalous node outage."""

    node: str
    time: float
    chain_id: Optional[str] = None  # which injected FC caused it (if known)
