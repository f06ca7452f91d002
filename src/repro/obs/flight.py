"""Black-box flight recorder: what was the fleet doing before it broke?

An SLO burn or a drift trip is only the *last* symptom — diagnosing it
needs the events that led up to it, which a cumulative registry has
already averaged away.  The :class:`FlightRecorder` keeps a bounded
ring of recent lifecycle notes (fleet runs, ingest folds, chunk
completions, alert transitions, sampled trace records) and, when a
trigger fires, freezes the ring into a JSONL **crash capsule**:

* one header record (``kind="capsule"``, the trigger reason + detail),
* the buffered events in sequence order (every event precedes the
  trigger: ``seq`` is monotone and stamped at note time),
* optionally the firing rule's history window (``kind="history"``) and
  a full registry snapshot (``kind="snapshot"``).

Triggers are **sticky per reason and key** — a burning SLO stays
burning for the rest of a run, so the first trip captures the
interesting ring and later trips of the same rule are no-ops.  That is
what makes "exactly one capsule per anomaly" assertable in tests.

The recorder is deliberately dumb about *what* constitutes an anomaly:
alert rules (:mod:`repro.obs.rules`) decide, and
:meth:`repro.obs.Observability.check_rules` calls :meth:`trigger` with
reason ``alert_rule`` keyed by the newly firing rule's id.  The only
other reason is ``shutdown``, the graceful-drain dump.

``note`` costs one dict build + deque append and is called at batch
grain (never per event), so the recorder rides along at ring-buffer
cost.  The last capsule is kept in memory as the exact text written to
disk — ``/debug/flight`` serves that same string, so the endpoint and
the file can never disagree.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, IO, Iterable, List, Optional, Union

# A newly firing alert rule (see Observability.check_rules).
TRIGGER_ALERT = "alert_rule"
# Not an anomaly: the graceful-drain path (SIGTERM / daemon shutdown)
# freezes the ring so the last moments of a run are never lost to a
# clean exit racing an in-flight investigation.
TRIGGER_SHUTDOWN = "shutdown"

TRIGGER_REASONS = (TRIGGER_ALERT, TRIGGER_SHUTDOWN)


class FlightRecorder:
    """Bounded ring of lifecycle notes + sticky capsule dumps."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        directory: Union[str, Path, None] = None,
        clock: Callable[[], float] = _time.time,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.directory = Path(directory) if directory is not None else None
        self._clock = clock
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._seq = 0
        self.capsules = 0
        self.triggered: Dict[str, float] = {}  # reason -> trigger wall time
        self.last_capsule_text: Optional[str] = None
        self.last_capsule_path: Optional[Path] = None
        self.last_reason: Optional[str] = None

    # -- feeding (batch-grained) ---------------------------------------
    def note(self, kind: str, **fields) -> None:
        """Buffer one lifecycle note.  ``None`` fields are dropped; a
        ``wall`` stamp and a monotone ``seq`` are added (``wall`` only
        when the caller didn't supply one — absorbed trace records keep
        their original stamp)."""
        record: dict = {"kind": kind}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        self._seq += 1
        record["seq"] = self._seq
        if "wall" not in record:
            record["wall"] = self._clock()
        self._events.append(record)

    def absorb(self, record: dict) -> None:
        """Tee a tracer record into the ring (the ``Tracer(mirror=...)``
        hook)."""
        self.note("trace", **record)

    @property
    def buffered(self) -> int:
        return len(self._events)

    def events(self) -> List[dict]:
        """The current ring contents, oldest first (a copy)."""
        return list(self._events)

    # -- triggering ----------------------------------------------------
    def trigger(
        self,
        reason: str,
        *,
        snapshot: Optional[dict] = None,
        history: Optional[list] = None,
        key: Optional[str] = None,
        **fields,
    ) -> Optional[str]:
        """Freeze the ring into a capsule, once per ``reason``.

        Returns the capsule JSONL text on the first trip of a reason,
        ``None`` on repeats (sticky).  ``key`` refines the sticky
        grain: an ``alert_rule`` trigger passes the rule id, so two
        *different* firing rules each capture a capsule while one rule
        stays one-capsule-sticky.  ``history`` embeds pre-trigger
        time-series records (``kind="history"``) from the
        :class:`~repro.obs.history.HistoryRing`.  When a ``directory``
        is configured the same text is also written to
        ``capsule-<n>-<reason>.jsonl`` there.
        """
        if reason not in TRIGGER_REASONS:
            raise ValueError(
                f"reason must be one of {TRIGGER_REASONS}, got {reason!r}")
        sticky = reason if key is None else f"{reason}:{key}"
        if sticky in self.triggered:
            return None
        wall = self._clock()
        self.triggered[sticky] = wall
        self.capsules += 1
        header: dict = {
            "kind": "capsule",
            "reason": reason,
            "wall": wall,
            "capsule": self.capsules,
            "events": len(self._events),
            "capacity": self.capacity,
        }
        for key, value in fields.items():
            if value is not None:
                header[key] = value
        lines = [json.dumps(header, separators=(",", ":"))]
        lines.extend(
            json.dumps(event, separators=(",", ":"))
            for event in self._events
        )
        if history is not None:
            lines.append(json.dumps(
                {"kind": "history", "samples": list(history)},
                separators=(",", ":")))
        if snapshot is not None:
            lines.append(json.dumps(
                {"kind": "snapshot", "registry": snapshot},
                separators=(",", ":")))
        text = "\n".join(lines) + "\n"
        self.last_capsule_text = text
        self.last_reason = reason
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"capsule-{self.capsules:03d}-{reason}.jsonl"
            path.write_text(text, encoding="utf-8")
            self.last_capsule_path = path
        return text


def read_capsule(
    source: Union[str, Path, IO[str], Iterable[str]]
) -> dict:
    """Parse a capsule (path, file handle, lines, or JSONL text) back
    into its parts.

    Returns ``{"header": dict, "events": [dict...], "snapshot":
    dict | None, "history": [dict...] | None}``.  Raises ``ValueError``
    when the first record is not a capsule header (the file is not a
    capsule).
    """
    if isinstance(source, str) and source.lstrip().startswith("{"):
        source = source.splitlines()  # capsule text, not a path
    elif isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_capsule(fh)
    header: Optional[dict] = None
    events: List[dict] = []
    snapshot: Optional[dict] = None
    history: Optional[List[dict]] = None
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if header is None:
            if kind != "capsule":
                raise ValueError(
                    f"not a flight capsule: first record kind {kind!r}")
            header = record
        elif kind == "snapshot":
            snapshot = record.get("registry")
        elif kind == "history":
            history = record.get("samples")
        else:
            events.append(record)
    if header is None:
        raise ValueError("empty capsule")
    return {
        "header": header, "events": events, "snapshot": snapshot,
        "history": history,
    }
