"""Bounded in-process time series: the recording-rules layer.

Every exposition surface so far (``/metrics``, ``/quality``,
``predict --watch``) is a point-in-time snapshot of cumulative state —
fine for a scraper that keeps its own history, useless for a process
that must look back at its *own* recent past to decide "is the burn
rate trending wrong?".  :class:`HistoryRing` closes that gap: it
captures delta-compressed registry snapshots on a configurable cadence
and answers Prometheus-flavoured window queries (``rate``,
``increase``, ``avg_over_time``, ``max_over_time``, ``absent``) over
any ``aarohi_*`` series without an external TSDB.

Storage model (why eviction round-trips exactly):

* every captured snapshot is flattened to scalar points — a counter's
  value, a gauge's value, a histogram's total observation count — keyed
  by ``(family, sorted-label-tuple)``, so the daemon's shard series
  (``{"shard": "3"}``) stay distinct in the ring;
* cumulative kinds are **delta-compressed**: each ring sample stores
  only the series that moved since the previous capture (with negative
  deltas clamped to zero and flagged ``reset``, the same counter-reset
  discipline as :func:`~repro.obs.metrics.diff_snapshots`); gauges
  store their current value each capture (last-write-wins has no
  delta);
* a ``base`` map carries the cumulative value of every series as of
  *just before the oldest retained sample*.  Evicting a sample folds
  its deltas into the base, so ``base + Σ retained deltas`` always
  reconstructs the true (clamped-cumulative) series — the property the
  hypothesis oracle test pins down.

Memory is strictly bounded: ``capacity`` samples of sparse deltas plus
two flat dicts, independent of how long the process runs.  A capture
costs one snapshot flatten (~series count dict ops) at most once per
``interval`` seconds; see DESIGN.md §5.12 for the measured cost model.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Tuple,
)

from .metrics import LabelKey, series_display_name

Key = Tuple[str, LabelKey]

# Scalar flattening: which snapshot kinds are cumulative (delta
# compressed + reset clamped) vs instantaneous (stored per capture).
_CUMULATIVE = ("counter", "histogram")


class HistorySample:
    """One capture: sparse deltas for cumulative series, current values
    for gauges, plus the capture's full presence set."""

    __slots__ = ("t", "deltas", "values", "resets", "present")

    def __init__(self, t, deltas, values, resets, present):
        self.t = t
        self.deltas: Dict[Key, float] = deltas
        self.values: Dict[Key, float] = values
        self.resets: frozenset = resets
        self.present: frozenset = present


def _flatten(snapshot: dict) -> Dict[Key, Tuple[str, float]]:
    """Snapshot → ``{(family, labelkey): (kind, scalar)}``.

    Histograms flatten to their total observation count — the scalar a
    rate query over e.g. ``aarohi_quality_lead_seconds`` wants.
    """
    flat: Dict[Key, Tuple[str, float]] = {}
    for name, family_data in snapshot.items():
        kind = family_data.get("type")
        for entry in family_data.get("series", ()):
            key = (name, tuple(sorted(entry.get("labels", {}).items())))
            if kind == "histogram":
                flat[key] = (kind, float(sum(entry.get("counts", ()))))
            else:
                flat[key] = (kind, float(entry.get("value", 0.0)))
    return flat


class HistoryRing:
    """Bounded ring of delta-compressed registry captures + query kit.

    ``interval`` throttles the capture cadence (seconds between
    captures; ``0`` captures on every offer — a stress mode for tests
    and benches).  The 1 s default is the cost model's anchor: the
    plane's cost is *per capture*, so at the default cadence it is
    bounded at (per-capture cost)/(1 s) of one core regardless of event
    rate — see DESIGN.md §5.12.  ``capacity`` bounds retained samples;
    older captures fold into the base map on eviction.  ``clock`` is
    injectable for tests.
    """

    def __init__(
        self,
        capacity: int = 240,
        *,
        interval: float = 1.0,
        clock: Callable[[], float] = _time.time,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if interval < 0:
            raise ValueError("interval must be >= 0")
        self.capacity = capacity
        self.interval = interval
        self._clock = clock
        self._samples: Deque[HistorySample] = deque()
        # Cumulative (clamped) value of every cumulative series as of
        # the newest capture / as of just before the oldest sample.
        self._cum: Dict[Key, float] = {}
        self._base: Dict[Key, float] = {}
        self._kinds: Dict[Key, str] = {}
        # Reconstruction-at-newest, maintained incrementally so
        # ``latest`` is O(matched keys) instead of O(ring):
        # ``_recon[k] == _base[k] + Σ retained deltas[k]`` for
        # cumulative series, ``_gauge_last[k]`` is the last written
        # gauge value.
        self._recon: Dict[Key, float] = {}
        self._gauge_last: Dict[Key, float] = {}
        self.captures = 0  # accepted captures (post-throttle), ever

    # -- capture path --------------------------------------------------
    def __len__(self) -> int:
        return len(self._samples)

    @property
    def start_time(self) -> Optional[float]:
        return self._samples[0].t if self._samples else None

    @property
    def end_time(self) -> Optional[float]:
        return self._samples[-1].t if self._samples else None

    @property
    def span(self) -> float:
        """Seconds of history retained in the ring."""
        if len(self._samples) < 2:
            return 0.0
        return self._samples[-1].t - self._samples[0].t

    def due(self, t: Optional[float] = None) -> bool:
        """Would a capture offered at ``t`` be accepted by the cadence
        throttle?  Callers use this to skip building the snapshot."""
        if not self._samples:
            return True
        if t is None:
            t = self._clock()
        return t - self._samples[-1].t >= self.interval

    def capture(
        self,
        snapshot: dict,
        t: Optional[float] = None,
        *,
        force: bool = False,
    ) -> bool:
        """Offer one registry snapshot to the ring.

        Returns ``True`` when a sample was recorded, ``False`` when the
        cadence throttle (or a non-advancing clock) dropped it.  Time
        must not run backwards between accepted captures.
        """
        if t is None:
            t = self._clock()
        if self._samples:
            if not force and t - self._samples[-1].t < self.interval:
                return False
            if t < self._samples[-1].t:
                return False  # clock went backwards: drop, don't corrupt
        flat = _flatten(snapshot)
        deltas: Dict[Key, float] = {}
        values: Dict[Key, float] = {}
        resets = set()
        for key, (kind, scalar) in flat.items():
            self._kinds[key] = kind
            if kind not in _CUMULATIVE:
                values[key] = scalar
                self._gauge_last[key] = scalar
                continue
            prev = self._cum.get(key)
            if prev is None:
                # First sight: the whole cumulative value is the delta
                # (the series was born inside the ring's horizon).
                if scalar:
                    deltas[key] = scalar
                self._cum[key] = scalar
                self._recon[key] = scalar
            elif scalar < prev:
                # Counter reset (restart): clamp like diff_snapshots —
                # the drop contributes delta 0 and a flag, and the raw
                # scalar becomes the new baseline so post-reset growth
                # counts from the restart, not the old high-water mark.
                resets.add(key)
                self._cum[key] = scalar
            elif scalar > prev:
                deltas[key] = scalar - prev
                self._recon[key] = self._recon.get(key, 0.0) + (
                    scalar - prev)
                self._cum[key] = scalar
        sample = HistorySample(
            t, deltas, values, frozenset(resets), frozenset(flat))
        self._samples.append(sample)
        self.captures += 1
        while len(self._samples) > self.capacity:
            self._evict()
        return True

    def _evict(self) -> None:
        """Fold the oldest sample's deltas into the base map so the
        reconstruction ``base + Σ retained deltas`` stays exact."""
        evicted = self._samples.popleft()
        for key, delta in evicted.deltas.items():
            self._base[key] = self._base.get(key, 0.0) + delta

    # -- query kit -----------------------------------------------------
    def _match_keys(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> List[Key]:
        """Series keys for ``name`` whose labels are a superset of the
        ``labels`` selector (Prometheus-style subset matching)."""
        wanted = tuple(sorted((labels or {}).items()))
        out = []
        for key in self._kinds:
            if key[0] != name:
                continue
            if wanted and not set(wanted) <= set(key[1]):
                continue
            out.append(key)
        return out

    def _window(self, window: Optional[float]) -> List[HistorySample]:
        """Samples inside the trailing ``window`` seconds (measured from
        the newest sample; ``None`` = the whole ring)."""
        if not self._samples:
            return []
        if window is None:
            return list(self._samples)
        cutoff = self._samples[-1].t - window
        return [s for s in self._samples if s.t >= cutoff]

    def points(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: Optional[float] = None,
    ) -> List[Tuple[float, float, bool]]:
        """``(t, value, reset)`` per retained sample in the window,
        where ``value`` is the reconstructed clamped-cumulative value
        (cumulative kinds) or the captured value (gauges), summed over
        every label set matching the selector."""
        keys = self._match_keys(name, labels)
        if not keys or not self._samples:
            return []
        kinds = self._kinds
        cumulative = [k for k in keys if kinds[k] in _CUMULATIVE]
        gauges = [k for k in keys if kinds[k] not in _CUMULATIVE]
        cutoff = (
            None if window is None else self._samples[-1].t - window)
        # Running totals as plain floats (not per-key dicts): the hot
        # loop below runs once per retained sample on every rule
        # evaluation, so it stays allocation-free.
        running = sum(self._base.get(k, 0.0) for k in cumulative)
        last_gauge: Dict[Key, float] = {}
        gauge_total = 0.0
        keyset = frozenset(keys)
        out: List[Tuple[float, float, bool]] = []
        for sample in self._samples:
            if cumulative:
                deltas = sample.deltas
                for k in cumulative:
                    d = deltas.get(k)
                    if d is not None:
                        running += d
            if gauges:
                values = sample.values
                for k in gauges:
                    v = values.get(k)
                    if v is not None:
                        gauge_total += v - last_gauge.get(k, 0.0)
                        last_gauge[k] = v
            if cutoff is not None and sample.t < cutoff:
                continue
            if not keyset & sample.present:
                continue
            reset = bool(keyset & sample.resets)
            out.append((sample.t, running + gauge_total, reset))
        return out

    def increase(
        self,
        name: str,
        window: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> float:
        """Clamped increase over the window: the reconstructed
        cumulative value at the window's newest sample minus the value
        at its oldest (Prometheus ``increase`` shape — accrual carried
        *into* the first window sample is excluded, so a windowed rate
        is never inflated by pre-window growth).  Counter resets
        contribute zero and growth after a reset counts from the
        restart.  0.0 with fewer than two samples in the window."""
        if not any(
            self._kinds[k] in _CUMULATIVE
            for k in self._match_keys(name, labels)
        ):
            return 0.0
        pts = self.points(name, labels, window)
        if len(pts) < 2:
            return 0.0
        return pts[-1][1] - pts[0][1]

    def rate(
        self,
        name: str,
        window: Optional[float] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> float:
        """Per-second increase over the window.

        The divisor is the window length when one is given (fixed
        window normalization: a half-empty ring doesn't inflate the
        rate), else the ring's retained span.
        """
        if window is not None:
            elapsed = window
        else:
            elapsed = self.span
        if elapsed <= 0:
            return 0.0
        return self.increase(name, window, labels) / elapsed

    def _point_values(self, name, window, labels) -> List[float]:
        return [v for _, v, _ in self.points(name, labels, window)]

    def avg_over_time(self, name, window=None, labels=None) -> float:
        values = self._point_values(name, window, labels)
        return sum(values) / len(values) if values else 0.0

    def max_over_time(self, name, window=None, labels=None) -> float:
        values = self._point_values(name, window, labels)
        return max(values) if values else 0.0

    def min_over_time(self, name, window=None, labels=None) -> float:
        values = self._point_values(name, window, labels)
        return min(values) if values else 0.0

    def latest(self, name, labels=None) -> float:
        """The newest reconstructed value (0.0 when never captured).

        O(matched keys), not O(ring): reads the maintained
        reconstruction maps, so rules shaped ``latest(...) >= 1`` cost
        nothing per evaluation beyond the label match."""
        keys = self._match_keys(name, labels)
        if not keys:
            return 0.0
        total = 0.0
        for key in keys:
            if self._kinds[key] in _CUMULATIVE:
                total += self._recon.get(key, 0.0)
            else:
                total += self._gauge_last.get(key, 0.0)
        return total

    def absent(self, name, window=None, labels=None) -> bool:
        """True when no sample in the window contains a matching
        series — the series does not exist, as distinct from exists
        with value 0 (Prometheus ``absent()`` semantics)."""
        keys = set(self._match_keys(name, labels))
        if not keys:
            return True
        for sample in self._window(window):
            if any(k in sample.present for k in keys):
                return False
        return True

    def series_names(self) -> List[str]:
        """Every family name the ring has ever captured, sorted."""
        return sorted({key[0] for key in self._kinds})

    # -- dumps (NDJSON; shared by /debug/history, capsules, reports) ---
    def records(
        self,
        name: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
    ) -> List[dict]:
        """Flat per-labelset point records, oldest first:
        ``{"t", "series", "labels", "value", "reset"?}``.

        This is the interchange format: ``/debug/history`` serves it as
        NDJSON, flight capsules embed it, and ``obs-report --history``
        renders it — so all three surfaces can never disagree.
        """
        if name is None:
            names = self.series_names()
        else:
            names = [name]
        out: List[dict] = []
        for family in names:
            for key in self._match_keys(family, labels):
                kind = self._kinds[key]
                if kind in _CUMULATIVE:
                    running = self._base.get(key, 0.0)
                else:
                    running = None
                for sample in self._samples:
                    if kind in _CUMULATIVE:
                        running += sample.deltas.get(key, 0.0)
                        if key not in sample.present:
                            continue
                        value = running
                    else:
                        if key not in sample.values:
                            continue
                        value = sample.values[key]
                    record = {
                        "t": sample.t,
                        "series": family,
                        "labels": dict(key[1]),
                        "value": value,
                    }
                    if key in sample.resets:
                        record["reset"] = True
                    out.append(record)
        out.sort(key=lambda r: (r["t"], r["series"],
                                sorted(r["labels"].items())))
        return out

    def render_ndjson(self, name=None, labels=None) -> str:
        lines = [
            json.dumps(record, separators=(",", ":"))
            for record in self.records(name, labels)
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_history_ndjson(source: Iterable[str]) -> List[dict]:
    """Inverse of :meth:`HistoryRing.render_ndjson` (lines or text)."""
    if isinstance(source, str):
        source = source.splitlines()
    records = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if not isinstance(record, dict) or "series" not in record:
            raise ValueError(f"not a history record: {line[:80]!r}")
        records.append(record)
    return records


def group_history_records(records: Iterable[dict]) -> Dict[str, List[dict]]:
    """Records → ``{display_name: [records sorted by t]}`` for report
    rendering; display names carry the label sets."""
    grouped: Dict[str, List[dict]] = {}
    for record in records:
        display = series_display_name(
            record.get("series", "?"), record.get("labels", {}))
        grouped.setdefault(display, []).append(record)
    for points in grouped.values():
        points.sort(key=lambda r: r.get("t", 0.0))
    return grouped
