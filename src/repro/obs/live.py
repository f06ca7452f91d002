"""Live rolling-window metrics: the deadline/SLO side of the ops plane.

Aarohi's headline claim is *feasibility* — per-prediction latency must
stay below the stream's message inter-arrival time (Fig. 14, Table VI).
The passive layer (PR 2) records cumulative counters; this module adds
the pieces that watch a **running** fleet:

* :class:`P2Quantile` — the P² streaming quantile estimator (Jain &
  Chlamtac 1985): O(1) memory, no stored samples, updated per
  prediction (predictions are rare, so this is off the hot path);
* :class:`EwmaRate` — exponentially-weighted message-rate estimator
  over batch-grained updates with irregular intervals;
* :class:`StreamLag` — backpressure gauge comparing log timestamps to
  the wall clock, auto-anchored at the first observed event so both
  live ingest (epoch timestamps) and replay (window timestamps) read
  as "seconds the processing clock fell behind the stream";
* :class:`DeadlineMonitor` — compares a latency quantile against the
  per-platform inter-arrival budget and tracks SLO burn (the fraction
  of predictions over budget vs the allowed error budget);
* :class:`LiveMonitor` — the wiring hub the fleet drives once per run,
  publishing everything as registry gauges so the series merge across
  shards through the existing snapshot/delta path.

:func:`DeadlineMonitor.evaluate_snapshot` renders the same verdict from
a (possibly multi-shard, merged) registry snapshot by reading the
``aarohi_prediction_seconds`` histogram — the path ``/healthz`` uses
for a sharded daemon, where per-shard P² state never leaves the
worker.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .names import (
    DEADLINE_BREACHES,
    DEADLINE_BUDGET,
    DEADLINE_OK,
    LIVE_LATENCY_QUANTILE,
    LIVE_MESSAGE_RATE,
    LIVE_STREAM_LAG,
    PREDICTION_SECONDS,
    SLO_BURN,
)


class P2Quantile:
    """Single-quantile P² estimator (no stored samples, five markers).

    ``observe`` costs a handful of float ops; ``value`` is the running
    estimate (exact until five observations exist).
    """

    __slots__ = ("q", "count", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.q = q
        self.count = 0
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def observe(self, value: float) -> None:
        self.count += 1
        heights = self._heights
        if self.count <= 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        # 1. Find the cell and clamp extreme markers.
        if value < heights[0]:
            heights[0] = value
            k = 0
        elif value >= heights[4]:
            heights[4] = value
            k = 3
        else:
            k = 0
            while value >= heights[k + 1]:
                k += 1
        # 2. Shift marker positions right of the cell.
        for i in range(k + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._rates[i]
        # 3. Adjust interior markers toward their desired positions.
        for i in range(1, 4):
            d = desired[i] - positions[i]
            if (d >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                d <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:  # parabolic estimate escaped: fall back to linear
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (p[j] - p[i])

    def value(self) -> float:
        """Current estimate (0.0 before any observation)."""
        heights = self._heights
        if not heights:
            return 0.0
        if self.count <= 5:
            # Exact quantile over the few samples held so far.
            rank = min(len(heights) - 1, int(self.q * len(heights)))
            return heights[rank]
        return heights[2]


class QuantileSketch:
    """A bundle of :class:`P2Quantile` markers fed together."""

    def __init__(self, quantiles: Sequence[float] = (0.5, 0.9, 0.99)):
        self._estimators = [P2Quantile(q) for q in quantiles]

    def observe(self, value: float) -> None:
        for estimator in self._estimators:
            estimator.observe(value)

    @property
    def count(self) -> int:
        return self._estimators[0].count if self._estimators else 0

    def quantiles(self) -> Dict[float, float]:
        return {e.q: e.value() for e in self._estimators}


class EwmaRate:
    """EWMA events/s over batch-grained updates.

    ``update(n_events, seconds)`` folds one batch in; the smoothing
    weight adapts to the batch's wall duration so irregular batch sizes
    decay consistently (half the weight is forgotten every
    ``halflife`` seconds of observed wall time).
    """

    def __init__(self, halflife: float = 30.0):
        if halflife <= 0:
            raise ValueError("halflife must be positive")
        self.halflife = halflife
        self.rate = 0.0
        self._primed = False

    def update(self, n_events: int, seconds: float) -> float:
        if seconds <= 0.0:
            return self.rate
        instantaneous = n_events / seconds
        if not self._primed:
            self.rate = instantaneous
            self._primed = True
        else:
            keep = 0.5 ** (seconds / self.halflife)
            self.rate = keep * self.rate + (1.0 - keep) * instantaneous
        return self.rate


class StreamLag:
    """Backpressure gauge: seconds the processing clock trails the stream.

    The first update anchors ``wall - event_time``; later updates report
    how much further the wall clock has drifted past that anchor.  For a
    live stream (epoch timestamps) the anchor is the initial ingest
    delay; for a replayed window it cancels the window's time base, so
    either way growth in ``lag`` means the fleet is falling behind.
    """

    def __init__(self) -> None:
        self._anchor: Optional[float] = None
        self.lag = 0.0

    def update(self, event_time: float, wall: float) -> float:
        offset = wall - event_time
        if self._anchor is None:
            self._anchor = offset
        self.lag = offset - self._anchor
        return self.lag


def inter_arrival_budget(config=None, *, rate_hz: Optional[float] = None,
                         n_nodes: Optional[int] = None) -> float:
    """Per-prediction latency budget: the mean message inter-arrival
    time at the aggregation point (Fig. 14's feasibility line).

    Pass a :class:`~repro.logsim.systems.SystemConfig` (budget =
    ``1 / (benign_rate_hz * n_nodes)``), or the raw rate/node knobs.
    """
    if config is not None:
        rate_hz = config.benign_rate_hz if rate_hz is None else rate_hz
        n_nodes = config.n_nodes if n_nodes is None else n_nodes
    if not rate_hz or not n_nodes:
        raise ValueError("need a config or rate_hz and n_nodes")
    total = rate_hz * n_nodes
    if total <= 0:
        raise ValueError("aggregate message rate must be positive")
    return 1.0 / total


@dataclass(frozen=True)
class DeadlineVerdict:
    """One feasibility reading: does prediction latency clear the budget?"""

    ok: bool
    quantile: float
    latency: float  # the watched latency quantile (seconds)
    budget: float  # inter-arrival budget (seconds)
    observed: int  # predictions scored
    over_budget: int  # predictions that individually exceeded the budget
    burn_rate: float  # (over_budget/observed) / slo_fraction; >1 = burning

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "quantile": self.quantile,
            "latency_seconds": self.latency,
            "budget_seconds": self.budget,
            "observed": self.observed,
            "over_budget": self.over_budget,
            "burn_rate": self.burn_rate,
        }


def quantile_from_histogram(
    counts: Sequence[int], lo_exp: int, q: float
) -> float:
    """Upper-bound estimate of quantile ``q`` from log2 bucket counts.

    Returns the inclusive upper bound of the bucket holding the q-th
    observation (conservative: the true value is ≤ the estimate except
    in the +Inf overflow bucket, where the last finite bound is
    returned).  0.0 when the histogram is empty.
    """
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    last = len(counts) - 1
    for i, count in enumerate(counts):
        cumulative += count
        if cumulative >= target:
            # Bucket i spans [2^(lo+i-1), 2^(lo+i)); the last bucket is
            # the +Inf overflow, capped at its finite lower edge.
            return 2.0 ** (lo_exp + min(i, last - 1))
    return 2.0 ** (lo_exp + last - 1)


class DeadlineMonitor:
    """Watch per-prediction latency against the inter-arrival budget.

    The feasibility SLO has two faces:

    * **verdict** — the watched quantile (default p99, via P²) must sit
      at or under the budget;
    * **burn** — each prediction over budget spends error budget; the
      burn rate is the observed over-budget fraction divided by the
      allowed fraction (``slo_fraction``), so >1 means the SLO is
      burning faster than allowed.
    """

    def __init__(
        self,
        budget_seconds: float,
        *,
        quantile: float = 0.99,
        slo_fraction: float = 0.01,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99),
    ):
        if budget_seconds <= 0:
            raise ValueError("budget must be positive")
        if not 0.0 < slo_fraction < 1.0:
            raise ValueError("slo_fraction must be in (0, 1)")
        if quantile not in quantiles:
            quantiles = tuple(quantiles) + (quantile,)
        self.budget = budget_seconds
        self.quantile = quantile
        self.slo_fraction = slo_fraction
        self.sketch = QuantileSketch(quantiles)
        self.observed = 0
        self.over_budget = 0

    def observe(self, latency: float) -> None:
        self.observed += 1
        if latency > self.budget:
            self.over_budget += 1
        self.sketch.observe(latency)

    def quantiles(self) -> Dict[float, float]:
        return self.sketch.quantiles()

    def verdict(self) -> DeadlineVerdict:
        latency = self.sketch.quantiles().get(self.quantile, 0.0)
        return self._verdict(latency, self.observed, self.over_budget)

    def _verdict(self, latency: float, observed: int,
                 over_budget: int) -> DeadlineVerdict:
        over_fraction = over_budget / observed if observed else 0.0
        burn = over_fraction / self.slo_fraction
        ok = latency <= self.budget and burn <= 1.0
        return DeadlineVerdict(
            ok=ok, quantile=self.quantile, latency=latency,
            budget=self.budget, observed=observed,
            over_budget=over_budget, burn_rate=burn,
        )

    def evaluate_snapshot(self, snapshot: dict) -> DeadlineVerdict:
        """Verdict from a registry snapshot's latency histogram.

        Sums the ``aarohi_prediction_seconds`` series across label sets
        (shards), so a parent registry assembled through the worker
        snapshot/delta path gets one fleet-wide feasibility reading
        without any live monitor running inside the workers.
        """
        family = snapshot.get(PREDICTION_SECONDS)
        if not family or family.get("type") != "histogram":
            return self._verdict(0.0, 0, 0)
        merged: Optional[List[int]] = None
        lo_exp = 0
        for entry in family["series"]:
            counts = entry["counts"]
            if merged is None:
                merged = list(counts)
                lo_exp = entry["lo_exp"]
            elif entry["lo_exp"] == lo_exp and len(counts) == len(merged):
                merged = [a + b for a, b in zip(merged, counts)]
        if not merged:
            return self._verdict(0.0, 0, 0)
        latency = quantile_from_histogram(merged, lo_exp, self.quantile)
        observed = sum(merged)
        # Over-budget count from the buckets wholly above the budget:
        # conservative in the same direction as the quantile bound.
        over = 0
        for i, count in enumerate(merged):
            if 2.0 ** (lo_exp + i - 1) >= self.budget:
                over += count
        return self._verdict(latency, observed, over)


class LiveMonitor:
    """The rolling-window hub the fleet drives once per run/batch.

    Owns the deadline monitor, the EWMA rate, and the lag gauge, and
    mirrors their state into registry gauges on :meth:`publish` — which
    is where a ``/metrics`` scrape or a multi-shard merge picks them up.
    """

    def __init__(
        self,
        budget_seconds: Optional[float] = None,
        *,
        quantile: float = 0.99,
        slo_fraction: float = 0.01,
        halflife: float = 30.0,
        clock: Callable[[], float] = _time.time,
    ):
        self.deadline = (
            DeadlineMonitor(budget_seconds, quantile=quantile,
                            slo_fraction=slo_fraction)
            if budget_seconds is not None else None
        )
        self.sketch = (
            self.deadline.sketch if self.deadline is not None
            else QuantileSketch()
        )
        self.rate = EwmaRate(halflife)
        self.stream_lag = StreamLag()
        self._clock = clock

    # -- feeding (cheap: per prediction / per run) ---------------------
    def observe_prediction(self, latency: float) -> None:
        if self.deadline is not None:
            self.deadline.observe(latency)
        else:
            self.sketch.observe(latency)

    def observe_predictions(self, latencies: Iterable[float]) -> None:
        for latency in latencies:
            self.observe_prediction(latency)

    def record_batch(
        self,
        *,
        n_events: int,
        seconds: Optional[float],
        last_event_time: Optional[float] = None,
    ) -> None:
        if seconds is not None and seconds > 0:
            self.rate.update(n_events, seconds)
        if last_event_time is not None:
            self.stream_lag.update(last_event_time, self._clock())

    # -- exposition ----------------------------------------------------
    def verdict(self) -> Optional[DeadlineVerdict]:
        return self.deadline.verdict() if self.deadline is not None else None

    def publish(self, registry, labels: Optional[dict] = None) -> None:
        """Mirror live state into gauges (idempotent, per run)."""
        labels = labels or {}
        for q, value in self.sketch.quantiles().items():
            registry.gauge(
                LIVE_LATENCY_QUANTILE,
                "rolling per-prediction latency quantile (P² sketch)",
                quantile=_format_quantile(q), **labels,
            ).set(value)
        registry.gauge(
            LIVE_MESSAGE_RATE, "EWMA message rate at the aggregation point",
            **labels).set(self.rate.rate)
        registry.gauge(
            LIVE_STREAM_LAG,
            "seconds the processing clock trails the stream",
            **labels).set(self.stream_lag.lag)
        if self.deadline is not None:
            verdict = self.deadline.verdict()
            registry.gauge(
                DEADLINE_BUDGET, "per-prediction inter-arrival budget",
                **labels).set(verdict.budget)
            registry.gauge(
                DEADLINE_OK, "1 when the latency quantile clears the budget",
                **labels).set(1.0 if verdict.ok else 0.0)
            registry.gauge(
                SLO_BURN, "over-budget fraction vs the allowed error budget",
                **labels).set(verdict.burn_rate)
            registry.counter(
                DEADLINE_BREACHES, "predictions that exceeded the budget",
                **labels).set_total(verdict.over_budget)


def _format_quantile(q: float) -> str:
    text = f"{q:g}"
    return text


def live_rows(snapshot: dict) -> List[Tuple[str, str]]:
    """(label, value) rows for the live gauges present in ``snapshot``
    (the dashboard / obs-report consumption path)."""

    def gauge_values(name: str):
        family = snapshot.get(name)
        if not family:
            return []
        return family["series"]

    rows: List[Tuple[str, str]] = []
    for entry in gauge_values(LIVE_LATENCY_QUANTILE):
        q = entry["labels"].get("quantile", "?")
        rows.append((f"latency p{q}", f"{entry['value'] * 1e3:.4f} ms"))
    for name, label, fmt in (
        (LIVE_MESSAGE_RATE, "message rate", "{:.1f} ev/s"),
        (LIVE_STREAM_LAG, "stream lag", "{:.3f} s"),
        (DEADLINE_BUDGET, "deadline budget", "{:.4g} s"),
        (SLO_BURN, "SLO burn rate", "{:.3f}"),
    ):
        series = gauge_values(name)
        if series:
            rows.append((label, fmt.format(sum(e["value"] for e in series))))
    series = gauge_values(DEADLINE_OK)
    if series:
        ok = all(e["value"] >= 1.0 for e in series)
        rows.append(("deadline verdict", "PASS" if ok else "FAIL"))
    return rows
