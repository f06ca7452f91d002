"""Tests for the allocation-free metric primitives and the registry."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    NULL_REGISTRY,
    Registry,
    diff_snapshots,
    snapshot_asymmetry,
)


class TestCounter:
    def test_inc_add_set_total(self):
        c = Counter()
        c.inc()
        c.inc(4)
        c.add(5)
        assert c.value == 10
        c.set_total(42)
        assert c.value == 42


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(3.0)
        g.inc()
        g.dec(0.5)
        assert g.value == pytest.approx(3.5)


class TestHistogram:
    def test_bucket_index_edges(self):
        h = Histogram(lo_exp=-3, hi_exp=3)
        assert h.bucket_index(0.0) == 0
        assert h.bucket_index(-1.0) == 0
        assert h.bucket_index(1e-9) == 0  # underflow clamps low
        assert h.bucket_index(1e9) == len(h.counts) - 1  # overflow clamps high

    def test_bucket_boundaries_are_powers_of_two(self):
        h = Histogram(lo_exp=0, hi_exp=4)
        # Bucket i holds values in [2**(lo_exp+i-1), 2**(lo_exp+i)).
        assert h.bucket_index(0.5) == 0  # [0.5, 1)
        assert h.bucket_index(1.0) == 1  # [1, 2)
        assert h.bucket_index(1.5) == 1
        assert h.bucket_index(2.0) == 2  # [2, 4)
        assert h.bucket_index(2.1) == 2

    def test_observe_accumulates(self):
        h = Histogram(lo_exp=-2, hi_exp=2)
        h.observe(0.5)
        h.observe_many([0.5, 3.0])
        assert h.count == 3
        assert h.sum == pytest.approx(4.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram(lo_exp=3, hi_exp=3)


class TestRegistry:
    def test_get_or_create_returns_same_handle(self):
        r = Registry()
        assert r.counter("x_total") is r.counter("x_total")
        assert r.counter("x_total", node="a") is not r.counter("x_total")

    def test_kind_conflict_rejected(self):
        r = Registry()
        r.counter("thing")
        with pytest.raises(ValueError):
            r.gauge("thing")

    def test_snapshot_shape(self):
        r = Registry()
        r.counter("c_total", "help!", node="a").inc(2)
        r.gauge("g").set(1.5)
        r.histogram("h_seconds", lo_exp=-2, hi_exp=2).observe(0.5)
        snap = r.snapshot()
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["help"] == "help!"
        assert snap["c_total"]["series"][0] == {
            "labels": {"node": "a"}, "value": 2}
        assert snap["g"]["series"][0]["value"] == 1.5
        hist = snap["h_seconds"]["series"][0]
        assert sum(hist["counts"]) == 1
        assert hist["lo_exp"] == -2

    def test_merge_accumulates(self):
        a, b = Registry(), Registry()
        for r, n in ((a, 2), (b, 3)):
            r.counter("c_total").inc(n)
            r.gauge("g").set(n)
            r.histogram("h", lo_exp=0, hi_exp=4).observe(n)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["c_total"]["series"][0]["value"] == 5
        assert snap["g"]["series"][0]["value"] == 3  # last write wins
        assert sum(snap["h"]["series"][0]["counts"]) == 2
        assert snap["h"]["series"][0]["sum"] == pytest.approx(5.0)

    def test_merge_bucket_layout_mismatch_rejected(self):
        a, b = Registry(), Registry()
        a.histogram("h", lo_exp=0, hi_exp=4)
        b.histogram("h", lo_exp=0, hi_exp=8).observe(1.0)
        with pytest.raises(ValueError):
            a.merge(b.snapshot())


class TestDiffSnapshots:
    def test_counter_and_histogram_delta(self):
        r = Registry()
        r.counter("c_total").inc(2)
        r.histogram("h", lo_exp=0, hi_exp=4).observe(1.0)
        old = r.snapshot()
        r.counter("c_total").inc(3)
        r.histogram("h", lo_exp=0, hi_exp=4).observe(2.0)
        delta = diff_snapshots(r.snapshot(), old)
        assert delta["c_total"]["series"][0]["value"] == 3
        assert sum(delta["h"]["series"][0]["counts"]) == 1
        assert delta["h"]["series"][0]["sum"] == pytest.approx(2.0)

    def test_gauges_pass_through(self):
        r = Registry()
        r.gauge("g").set(1.0)
        old = r.snapshot()
        r.gauge("g").set(9.0)
        delta = diff_snapshots(r.snapshot(), old)
        assert delta["g"]["series"][0]["value"] == 9.0

    def test_unchanged_series_dropped(self):
        r = Registry()
        r.counter("c_total").inc(2)
        snap = r.snapshot()
        assert "c_total" not in diff_snapshots(snap, snap)

    def test_none_old_passes_through(self):
        r = Registry()
        r.counter("c_total").inc(2)
        snap = r.snapshot()
        assert diff_snapshots(snap, None) is snap

    def test_delta_merges_without_double_count(self):
        """The daemon's shipping path: cumulative worker registry,
        per-chunk deltas merged into the parent."""
        worker, parent = Registry(), Registry()
        last = None
        for chunk in (2, 3, 5):
            worker.counter("c_total").inc(chunk)
            snap = worker.snapshot()
            parent.merge(diff_snapshots(snap, last))
            last = snap
        assert parent.snapshot()["c_total"]["series"][0]["value"] == 10

    def test_counter_reset_clamps_to_zero_with_marker(self):
        """A restarted process's counters go backwards between
        snapshots; the delta clamps to 0 and flags ``reset`` instead of
        reporting a negative increase."""
        old_r, new_r = Registry(), Registry()
        old_r.counter("c_total").inc(100)
        new_r.counter("c_total").inc(3)
        delta = diff_snapshots(new_r.snapshot(), old_r.snapshot())
        (entry,) = delta["c_total"]["series"]
        assert entry["value"] == 0.0
        assert entry["reset"] is True

    def test_histogram_reset_flags_and_passes_through(self):
        old_r, new_r = Registry(), Registry()
        old_r.histogram("h", lo_exp=0, hi_exp=4).observe(1.0)
        old_r.histogram("h", lo_exp=0, hi_exp=4).observe(1.0)
        new_r.histogram("h", lo_exp=0, hi_exp=4).observe(1.0)
        delta = diff_snapshots(new_r.snapshot(), old_r.snapshot())
        (entry,) = delta["h"]["series"]
        assert entry["reset"] is True
        # Post-restart cumulative state, not a negative bucket delta.
        assert sum(entry["counts"]) == 1

    def test_reset_series_lists_display_names(self):
        from repro.obs import reset_series

        old_r, new_r = Registry(), Registry()
        old_r.counter("c_total", shard="0").inc(100)
        new_r.counter("c_total", shard="0").inc(3)
        new_r.counter("ok_total").inc(5)
        delta = diff_snapshots(new_r.snapshot(), old_r.snapshot())
        assert reset_series(delta) == ['c_total{shard="0"}']

    def test_merge_after_reset_does_not_go_backwards(self):
        """The shipping path survives a worker restart: the clamped
        delta folds as 0, so the parent total never decreases."""
        worker, parent = Registry(), Registry()
        worker.counter("c_total").inc(10)
        snap = worker.snapshot()
        parent.merge(diff_snapshots(snap, None))
        restarted = Registry()
        restarted.counter("c_total").inc(2)
        parent.merge(diff_snapshots(restarted.snapshot(), snap))
        assert parent.snapshot()["c_total"]["series"][0]["value"] == 10

    def test_reconfigured_histogram_passes_through_whole(self):
        """A bucket-layout change between snapshots must not be
        zip-truncated into garbage — the new cumulative state passes
        through untouched."""
        old_r, new_r = Registry(), Registry()
        old_r.histogram("h", lo_exp=0, hi_exp=4).observe(1.0)
        new_r.histogram("h", lo_exp=-4, hi_exp=8).observe(2.0)
        new = new_r.snapshot()
        delta = diff_snapshots(new, old_r.snapshot())
        assert delta["h"]["series"][0] == new["h"]["series"][0]


class TestSnapshotAsymmetry:
    def test_added_and_removed_series_reported(self):
        old_r, new_r = Registry(), Registry()
        old_r.counter("gone_total").inc(1)
        old_r.counter("stays_total").inc(1)
        new_r.counter("stays_total").inc(2)
        new_r.counter("fresh_total", "", stage="scan").inc(3)
        out = snapshot_asymmetry(new_r.snapshot(), old_r.snapshot())
        assert out["added"] == ['fresh_total{stage="scan"}']
        assert out["removed"] == ["gone_total"]

    def test_label_sets_are_distinct_series(self):
        old_r, new_r = Registry(), Registry()
        old_r.counter("c_total", "", shard="0").inc(1)
        new_r.counter("c_total", "", shard="1").inc(1)
        out = snapshot_asymmetry(new_r.snapshot(), old_r.snapshot())
        assert out["added"] == ['c_total{shard="1"}']
        assert out["removed"] == ['c_total{shard="0"}']

    def test_identical_snapshots_are_symmetric(self):
        r = Registry()
        r.counter("c_total").inc(1)
        snap = r.snapshot()
        assert snapshot_asymmetry(snap, snap) == {
            "added": [], "removed": []}

    def test_none_old_counts_everything_added(self):
        r = Registry()
        r.counter("c_total").inc(1)
        out = snapshot_asymmetry(r.snapshot(), None)
        assert out["added"] == ["c_total"]
        assert out["removed"] == []


class TestNullRegistry:
    def test_all_handles_are_noops(self):
        NULL_REGISTRY.counter("c").inc(5)
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(5)
        NULL_REGISTRY.histogram("h").observe_many([1, 2])
        assert NULL_REGISTRY.snapshot() == {}

    def test_merge_is_noop(self):
        r = Registry()
        r.counter("c_total").inc(1)
        NULL_REGISTRY.merge(r.snapshot())
        assert NULL_REGISTRY.snapshot() == {}
