"""Prediction-lifecycle tracing: structured JSONL event stream.

One line per lifecycle transition of a per-node chain check:

* ``chain_started``   — a token activated a rule (Algorithm 2 #5)
* ``token_advanced``  — the active rule consumed its expected token
* ``delta_t_timeout`` — the ΔT gap was exceeded mid-chain (#13)
* ``parser_reset``    — the engine state was cleared (``cause`` says
  why: ``timeout``, ``prediction``, or ``manual``)
* ``prediction_fired``— a complete rule match flagged a node

Every record carries the emitting node, the event-stream time ``t``
(log timestamps), and the wall-clock ``wall`` stamp; ``chain`` and
``token`` appear where the engine knows them (the LALR backend does not
know which chain it is mid-parse — only completion names one).

**Sampling.**  Tracing every chain on a million-events/s stream is not
viable, so lifecycle events are sampled *per chain activation*:
:meth:`Tracer.sample_chain` is consulted once at ``chain_started`` and
the decision sticks for that chain's whole lifecycle, so sampled
lifecycles are always complete (started → advanced* → reset/fired).
``prediction_fired`` events are always emitted — predictions are rare
and the most valuable record.  The sampler is a deterministic
error-accumulator (no RNG state, no clock): ``sample=1.0`` traces all
chains, ``sample=0.1`` every 10th activation, ``sample=0`` none.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path
from typing import Callable, Dict, IO, Iterable, List, Optional, Sequence, Union

CHAIN_STARTED = "chain_started"
TOKEN_ADVANCED = "token_advanced"
DELTA_T_TIMEOUT = "delta_t_timeout"
PARSER_RESET = "parser_reset"
PREDICTION_FIRED = "prediction_fired"

EVENT_KINDS = (
    CHAIN_STARTED,
    TOKEN_ADVANCED,
    DELTA_T_TIMEOUT,
    PARSER_RESET,
    PREDICTION_FIRED,
)

# One compact encoder for every record: ``json.dumps`` with non-default
# separators builds a new ``JSONEncoder`` on each call.
_encode = json.JSONEncoder(separators=(",", ":")).encode


class Tracer:
    """JSONL lifecycle tracer writing to a path or file-like sink."""

    def __init__(
        self,
        sink: Union[str, Path, IO[str]],
        *,
        sample: float = 1.0,
        clock: Callable[[], float] = _time.time,
        mirror: Optional[Callable[[dict], None]] = None,
    ):
        if not 0.0 <= sample <= 1.0:
            raise ValueError("sample must be within [0, 1]")
        if isinstance(sink, (str, Path)):
            self._fh: IO[str] = open(sink, "w", encoding="utf-8")
            self._owns_fh = True
        else:
            self._fh = sink
            self._owns_fh = False
        self.sample = sample
        self._clock = clock
        self._acc = 1.0  # start full: the first activation is sampled
        self.emitted = 0
        # Optional tee: every emitted record is also handed to
        # ``mirror`` (e.g. FlightRecorder.absorb), so the flight ring
        # sees the same sampled lifecycle the JSONL sink does.
        self.mirror = mirror

    # -- sampling ------------------------------------------------------
    def sample_chain(self) -> bool:
        """Decide (deterministically) whether to trace the lifecycle of
        the chain activating now."""
        if self.sample <= 0.0:
            return False
        self._acc += self.sample
        if self._acc >= 1.0:
            self._acc -= 1.0
            return True
        return False

    # -- emission ------------------------------------------------------
    def emit(self, kind: str, node: str, **fields) -> None:
        """Write one trace record.  ``None``-valued fields are dropped so
        records stay minimal."""
        record: Dict[str, object] = {"ev": kind, "node": node}
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        record["wall"] = self._clock()
        self._fh.write(_encode(record) + "\n")
        self.emitted += 1
        if self.mirror is not None:
            self.mirror(record)

    def close(self) -> None:
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(source: Union[str, Path, IO[str], Iterable[str]]) -> List[dict]:
    """Parse a JSONL trace back into records (the round-trip path)."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    records = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("ev") not in EVENT_KINDS:
            raise ValueError(f"unknown trace event kind: {record.get('ev')!r}")
        records.append(record)
    return records


def realized_lead_times(
    records: Sequence[dict],
    failures: Sequence,
    *,
    horizon: float = 1800.0,
) -> List[dict]:
    """Annotate ``prediction_fired`` records with the realized lead time.

    Lead time is only *realized* once ground truth exists (the node
    actually failed), so this is a post-hoc pass with **exactly** the
    one-to-one pairing rule of
    :func:`repro.core.leadtime.pair_predictions`: fired records are
    walked in flag order, each targets the earliest same-node failure
    within ``horizon`` seconds after its flag, and each failure is
    credited **once** — to the earliest flag that targeted it.  Credited
    records gain a ``lead`` field; later duplicate flags of an
    already-credited failure gain ``lead: None`` plus
    ``duplicate: true`` (they are not penalized downstream, mirroring
    the offline report); stale flags gain plain ``lead: None``.  The
    differential suite pins trace-path leads == offline-path leads.
    Returns new records, input untouched.
    """
    by_node: Dict[str, List] = {}
    for failure in failures:
        by_node.setdefault(failure.node, []).append(failure)
    for node_failures in by_node.values():
        node_failures.sort(key=lambda f: f.time)
    # Credit in flag order (stable on input order for ties), exactly as
    # pair_predictions sorts its predictions.
    fired = sorted(
        ((record.get("t", 0.0), i)
         for i, record in enumerate(records)
         if record.get("ev") == PREDICTION_FIRED),
    )
    claimed: set = set()
    leads: Dict[int, Optional[float]] = {}
    duplicates: set = set()
    for flagged, i in fired:
        target = None
        for failure in by_node.get(records[i].get("node", ""), ()):
            if flagged <= failure.time <= flagged + horizon:
                target = failure
                break
        if target is None:
            leads[i] = None
        elif id(target) in claimed:
            # Duplicate flag for an already-credited failure: the
            # earliest flag keeps the (longest) lead.
            leads[i] = None
            duplicates.add(i)
        else:
            claimed.add(id(target))
            leads[i] = target.time - flagged
    out: List[dict] = []
    for i, record in enumerate(records):
        if record.get("ev") != PREDICTION_FIRED:
            out.append(record)
            continue
        record = dict(record)
        record["lead"] = leads[i]
        if i in duplicates:
            record["duplicate"] = True
        out.append(record)
    return out


def lifecycle_counts(records: Sequence[dict]) -> Dict[str, int]:
    """Event-kind histogram of a trace (obs-report's lifecycle row)."""
    counts = {kind: 0 for kind in EVENT_KINDS}
    for record in records:
        counts[record["ev"]] += 1
    return counts
