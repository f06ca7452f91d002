"""Allocation-free metric primitives for the online predictor fleet.

The hot path processes >10⁶ events/s, so the metric types are designed
around **batched recording**: hot loops accumulate plain local ints and
flush them once per batch (``Counter.add`` / ``Counter.set_total``),
never once per event.  A :class:`Histogram` uses fixed log2 buckets —
``math.frexp`` turns a float into a bucket index with no allocation, no
search, and no configuration beyond the exponent range.

The :class:`Registry` is process-local.  :meth:`Registry.snapshot`
returns a plain (picklable, JSON-able) dict, ``diff_snapshots`` turns
two cumulative snapshots into a delta, and :meth:`Registry.merge` folds
a snapshot (or delta) back into a registry.  :meth:`Registry.delta`
gives the same delta shape from the series changed since its previous
call — the worker→parent shipping path used by
:class:`~repro.core.daemon.FleetDaemon`, one delta per ack.

When observability is disabled, callers either hold no registry at all
(the instrumented branches are never wired) or use :data:`NULL_REGISTRY`
whose metric handles are shared no-ops — the ``timing=off`` analog for
metrics.
"""

from __future__ import annotations

from math import frexp
from operator import add, sub
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotone counter.  ``inc``/``add`` for deltas accumulated by the
    caller; ``set_total`` when the caller already maintains a cumulative
    total in a cheaper place (a scanner slot, a stats dataclass) and the
    counter is just its exposition mirror."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    add = inc  # alias: per-batch flush reads better as counter.add(n)

    def set_total(self, total: float) -> None:
        self.value = total


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket log2 histogram.

    Bucket ``i`` holds values whose :func:`math.frexp` exponent is
    ``lo_exp + i`` — i.e. values in ``[2**(lo_exp+i-1), 2**(lo_exp+i))``
    — with underflow clamped into bucket 0 and overflow into the last
    bucket.  The default range covers ~60 ns to ~256 s, the full span
    from a single memo probe to a stalled batch.

    ``observe`` is allocation-free (one list index + two adds);
    ``observe_many`` amortizes attribute loads for batched recording.
    """

    __slots__ = ("lo_exp", "hi_exp", "counts", "sum")
    kind = "histogram"

    def __init__(self, lo_exp: int = -24, hi_exp: int = 8) -> None:
        if hi_exp <= lo_exp:
            raise ValueError("hi_exp must exceed lo_exp")
        self.lo_exp = lo_exp
        self.hi_exp = hi_exp
        # one bucket per exponent in [lo_exp, hi_exp] — the last doubles
        # as the overflow bucket (rendered with le="+Inf").
        self.counts: List[int] = [0] * (hi_exp - lo_exp + 1)
        self.sum: float = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return 0
        e = frexp(value)[1]
        i = e - self.lo_exp
        if i < 0:
            return 0
        last = len(self.counts) - 1
        return i if i < last else last

    def observe(self, value: float) -> None:
        self.counts[self.bucket_index(value)] += 1
        self.sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        counts = self.counts
        total = 0.0
        index = self.bucket_index
        for v in values:
            counts[index(v)] += 1
            total += v
        self.sum += total



class _Family:
    """One named metric family: shared type/help, children per label set.

    A new child is also appended to its registry's ``series`` list,
    which :meth:`Registry.delta` walks."""

    __slots__ = ("name", "kind", "help", "children", "hist_args", "series")

    def __init__(self, name: str, kind: str, help: str, hist_args, series):
        self.name = name
        self.kind = kind
        self.help = help
        self.children: Dict[LabelKey, object] = {}
        self.hist_args = hist_args
        self.series = series

    def child(self, labels: Dict[str, str]):
        key = _label_key(labels)
        metric = self.children.get(key)
        if metric is None:
            if self.kind == "counter":
                metric = Counter()
            elif self.kind == "gauge":
                metric = Gauge()
            else:
                metric = Histogram(*self.hist_args)
            self.children[key] = metric
            self.series.append(_Series(self, dict(key), metric))
        return metric


class _Series:
    """One series as :meth:`Registry.delta` tracks it: its family's
    name, kind and help, its labels, and what the previous delta shipped
    of it (``None`` before the first; a histogram's is a copy of its
    counts and its sum)."""

    __slots__ = ("name", "kind", "help", "labels", "metric", "shipped")

    def __init__(self, family: _Family, labels: Dict[str, str], metric):
        self.name = family.name
        self.kind = family.kind
        self.help = family.help
        self.labels = labels
        self.metric = metric
        self.shipped = None


class Registry:
    """Process-local registry of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name and labels return the same metric object, so
    instrumented code fetches its handles once (at wiring time) and the
    hot path touches only the handle.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        # Every series in creation order, for delta(); and merge()'s
        # handles by (name, label items as the sender ordered them).
        self._series: List[_Series] = []
        self._merged: Dict[tuple, object] = {}

    def _family(self, name: str, kind: str, help: str, hist_args=None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, hist_args, self._series)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._family(name, "counter", help).child(labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        lo_exp: int = -24,
        hi_exp: int = 8,
        **labels: str,
    ) -> Histogram:
        family = self._family(name, "histogram", help, (lo_exp, hi_exp))
        return family.child(labels)

    # -- shipping ------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict state: picklable across processes, JSON-able."""
        out: dict = {}
        for name, family in sorted(self._families.items()):
            series = []
            for key, metric in sorted(family.children.items()):
                entry: dict = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["counts"] = list(metric.counts)
                    entry["sum"] = metric.sum
                    entry["lo_exp"] = metric.lo_exp
                    entry["hi_exp"] = metric.hi_exp
                else:
                    entry["value"] = metric.value
                series.append(entry)
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def delta(self) -> dict:
        """The series changed since the previous ``delta()`` call, in
        :func:`diff_snapshots`' shape, so :meth:`merge` reads it as is.

        The first call ships every series whole, as
        ``diff_snapshots(snapshot, None)`` does; after that a series
        ships only when it moved: a counter's increase (a decrease ships
        as a zero ``reset`` entry), a gauge's new value, a histogram's
        added counts and sum (whole, marked ``reset``, if a count went
        down).  Merged into one parent, successive deltas leave it equal
        to merging ``diff_snapshots`` of successive snapshots, at the
        cost of the series this registry holds, not of a snapshot and a
        diff — the per-ack path of a daemon shard.  Entries hold the
        registry's own label dicts: read them, do not change them."""
        out: dict = {}
        for series in self._series:
            metric = series.metric
            shipped = series.shipped
            kind = series.kind
            if kind == "histogram":
                counts = metric.counts
                if shipped is None:
                    entry = {"labels": series.labels, "counts": list(counts),
                             "sum": metric.sum, "lo_exp": metric.lo_exp,
                             "hi_exp": metric.hi_exp}
                else:
                    last_counts, last_sum = shipped
                    if counts == last_counts:
                        continue
                    added = list(map(sub, counts, last_counts))
                    if min(added) < 0:
                        entry = {"labels": series.labels,
                                 "counts": list(counts), "sum": metric.sum,
                                 "lo_exp": metric.lo_exp,
                                 "hi_exp": metric.hi_exp, "reset": True}
                    else:
                        entry = {"labels": series.labels, "counts": added,
                                 "sum": metric.sum - last_sum,
                                 "lo_exp": metric.lo_exp,
                                 "hi_exp": metric.hi_exp}
                series.shipped = (list(counts), metric.sum)
            else:
                value = metric.value
                if value == shipped:
                    continue
                if shipped is None or kind == "gauge":
                    entry = {"labels": series.labels, "value": value}
                elif value < shipped:
                    entry = {"labels": series.labels, "value": 0.0,
                             "reset": True}
                else:
                    entry = {"labels": series.labels,
                             "value": value - shipped}
                series.shipped = value
            family = out.get(series.name)
            if family is None:
                out[series.name] = {"type": kind, "help": series.help,
                                    "series": [entry]}
            else:
                family["series"].append(entry)
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (or a delta from ``diff_snapshots`` or
        :meth:`delta`) into this registry: counters and histograms
        accumulate, gauges last-write.  Each series resolves once; later
        merges find its handle by name and label items."""
        handles = self._merged
        for name, family_data in snapshot.items():
            kind = family_data["type"]
            for entry in family_data["series"]:
                labels = entry.get("labels", {})
                key = (name, *labels.items())
                metric = handles.get(key)
                if metric is None or metric.kind != kind:
                    metric = handles[key] = self._merge_target(
                        name, kind, family_data.get("help", ""), entry,
                        labels)
                if kind == "counter":
                    metric.inc(entry["value"])
                elif kind == "gauge":
                    metric.set(entry["value"])
                else:
                    counts = metric.counts
                    if len(counts) != len(entry["counts"]):
                        raise ValueError(
                            f"histogram {name!r} bucket layout mismatch"
                        )
                    counts[:] = map(add, counts, entry["counts"])
                    metric.sum += entry["sum"]

    def _merge_target(self, name, kind, help, entry, labels):
        if kind == "counter":
            return self.counter(name, help, **labels)
        if kind == "gauge":
            return self.gauge(name, help, **labels)
        return self.histogram(
            name, help, lo_exp=entry["lo_exp"], hi_exp=entry["hi_exp"],
            **labels)


def diff_snapshots(new: dict, old: Optional[dict]) -> dict:
    """Delta between two cumulative snapshots of the same registry.

    Counters and histogram counts/sums subtract; gauges pass through
    (their latest value is the meaningful one).  Families or series
    absent from ``old`` pass through whole.  The result feeds
    :meth:`Registry.merge` on another process's registry.

    A cumulative series that went *down* means the process restarted
    between the snapshots (counters are monotone within one process
    lifetime).  Subtraction would produce a negative delta — a negative
    rate in ``obs-report --diff`` and a poisoned ring in
    :class:`~repro.obs.history.HistoryRing` — so the delta is clamped
    to zero and the series entry is annotated with ``"reset": True``
    instead.  ``Registry.merge`` ignores the marker (a zero-delta merge
    is a no-op) and reports surface it.
    """
    if not old:
        return new
    out: dict = {}
    for name, family_data in new.items():
        old_family = old.get(name)
        old_series: Dict[LabelKey, dict] = {}
        if old_family is not None:
            for entry in old_family["series"]:
                old_series[_label_key(entry.get("labels", {}))] = entry
        kind = family_data["type"]
        series = []
        for entry in family_data["series"]:
            prev = old_series.get(_label_key(entry.get("labels", {})))
            if prev is None or kind == "gauge":
                series.append(entry)
                continue
            if kind == "counter":
                value = entry["value"] - prev["value"]
                if value < 0:
                    series.append({
                        "labels": entry["labels"], "value": 0.0,
                        "reset": True,
                    })
                elif value:
                    series.append({"labels": entry["labels"], "value": value})
                continue
            if (
                entry["lo_exp"] != prev["lo_exp"]
                or len(entry["counts"]) != len(prev["counts"])
            ):
                # Bucket layout changed between snapshots (reconfigured
                # histogram): subtraction is meaningless, so the new
                # cumulative state passes through whole rather than
                # being silently zip-truncated to garbage.
                series.append(entry)
                continue
            counts = [c - p for c, p in zip(entry["counts"], prev["counts"])]
            if any(c < 0 for c in counts):
                # Histogram restarted: the new cumulative state passes
                # through whole (like a fresh series) with the marker.
                series.append(dict(entry, reset=True))
                continue
            if any(counts):
                series.append({
                    "labels": entry["labels"],
                    "counts": counts,
                    "sum": entry["sum"] - prev["sum"],
                    "lo_exp": entry["lo_exp"],
                    "hi_exp": entry["hi_exp"],
                })
        if series:
            out[name] = {
                "type": kind,
                "help": family_data.get("help", ""),
                "series": series,
            }
    return out


def series_display_name(family: str, labels: Dict[str, str]) -> str:
    """``family{label="value",...}`` — the exposition-style display name
    shared by diff reports and history dumps."""
    if not labels:
        return family
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return family + "{" + inner + "}"


def reset_series(snapshot: Optional[dict]) -> List[str]:
    """Display names of series a :func:`diff_snapshots` delta marked as
    reset (cumulative value went backwards — process restart)."""
    out = []
    for family, family_data in (snapshot or {}).items():
        for entry in family_data.get("series", ()):
            if entry.get("reset"):
                out.append(
                    series_display_name(family, entry.get("labels", {})))
    return sorted(out)


def snapshot_asymmetry(new: dict, old: Optional[dict]) -> dict:
    """Series present in only one of two snapshots.

    Returns ``{"added": [...], "removed": [...]}`` where each item is
    ``"family{label="value",...}"`` — the shape ``obs-report --diff``
    prints when BEFORE and AFTER disagree about which metrics exist
    (the common case once a run gains span series the previous run
    lacked).  ``diff_snapshots`` handles added series fine (they pass
    through whole) but silently drops removed ones; this makes both
    directions visible instead.
    """

    def series_names(snapshot: Optional[dict]):
        names = set()
        for family, family_data in (snapshot or {}).items():
            for entry in family_data.get("series", ()):
                names.add((family, _label_key(entry.get("labels", {}))))
        return names

    def render(item) -> str:
        family, key = item
        return series_display_name(family, dict(key))

    new_names = series_names(new)
    old_names = series_names(old)
    return {
        "added": sorted(render(i) for i in new_names - old_names),
        "removed": sorted(render(i) for i in old_names - new_names),
    }


class _NullMetric:
    """Shared do-nothing stand-in for every metric type."""

    __slots__ = ()
    kind = "null"
    value = 0.0
    sum = 0.0
    count = 0
    counts: List[int] = []

    def inc(self, amount: float = 1) -> None:
        pass

    add = inc

    def set(self, value: float) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set_total(self, total: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values: Iterable[float]) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """No-op registry: every handle is the shared no-op metric.

    Lets wiring code stay unconditional (fetch handles, call them) while
    the disabled path costs one no-op method call per *batch* — the
    metrics analog of the predictor's ``timing="off"`` mode.
    """

    def counter(self, name: str, help: str = "", **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", **labels: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> dict:
        return {}

    def delta(self) -> dict:
        return {}

    def merge(self, snapshot: dict) -> None:
        pass


NULL_REGISTRY = NullRegistry()
