"""Tests for the live ops plane: P² quantiles, EWMA rate, stream lag,
and the deadline/SLO monitor (Fig. 14 / Table VI feasibility check)."""

import random

import pytest

from repro.obs import (
    DEADLINE_OK,
    DeadlineMonitor,
    EwmaRate,
    LIVE_LATENCY_QUANTILE,
    LiveMonitor,
    Observability,
    P2Quantile,
    QuantileSketch,
    Registry,
    StreamLag,
    inter_arrival_budget,
)
from repro.obs.live import live_rows


def exact_quantile(samples, q):
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[rank]


class TestP2Quantile:
    def test_exact_until_five_samples(self):
        est = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            est.observe(v)
        assert est.value() == 3.0  # exact median of {1, 3, 5}

    def test_empty_is_zero(self):
        assert P2Quantile(0.9).value() == 0.0

    def test_rejects_degenerate_quantiles(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [7, 23, 99])
    def test_tracks_uniform_distribution(self, q, seed):
        rng = random.Random(seed)
        est = P2Quantile(q)
        samples = [rng.random() for _ in range(5000)]
        for v in samples:
            est.observe(v)
        # P² on U(0,1): the estimate sits near the true quantile q.
        assert abs(est.value() - q) < 0.05

    @pytest.mark.parametrize("seed", [3, 41])
    def test_tracks_skewed_latency_distribution(self, seed):
        # Latency-shaped data: lognormal-ish with a heavy right tail,
        # the regime the deadline monitor actually watches.
        rng = random.Random(seed)
        samples = [rng.expovariate(1000.0) for _ in range(8000)]
        est = P2Quantile(0.9)
        for v in samples:
            est.observe(v)
        truth = exact_quantile(samples, 0.9)
        assert truth > 0
        assert abs(est.value() - truth) / truth < 0.15

    def test_monotone_across_quantiles(self):
        rng = random.Random(11)
        sketch = QuantileSketch((0.5, 0.9, 0.99))
        for _ in range(3000):
            sketch.observe(rng.gauss(10.0, 2.0))
        qs = sketch.quantiles()
        assert qs[0.5] <= qs[0.9] <= qs[0.99]
        assert sketch.count == 3000


class TestEwmaRate:
    def test_first_update_primes(self):
        rate = EwmaRate(halflife=30.0)
        assert rate.update(300, 1.0) == 300.0

    def test_decays_toward_new_rate(self):
        rate = EwmaRate(halflife=30.0)
        rate.update(1000, 1.0)
        # One halflife of wall time at 500 ev/s: halfway there.
        assert rate.update(500 * 30, 30.0) == pytest.approx(750.0)

    def test_zero_duration_is_ignored(self):
        rate = EwmaRate()
        rate.update(100, 1.0)
        assert rate.update(999, 0.0) == 100.0

    def test_rejects_bad_halflife(self):
        with pytest.raises(ValueError):
            EwmaRate(halflife=0.0)


class TestStreamLag:
    def test_anchors_on_first_update(self):
        lag = StreamLag()
        assert lag.update(event_time=100.0, wall=5000.0) == 0.0

    def test_reports_drift_past_anchor(self):
        lag = StreamLag()
        lag.update(100.0, 5000.0)
        # 10 s of stream consumed in 12 s of wall time: 2 s behind.
        assert lag.update(110.0, 5012.0) == pytest.approx(2.0)
        # Catching back up is visible too.
        assert lag.update(120.0, 5020.0) == pytest.approx(0.0)


class TestInterArrivalBudget:
    def test_hpc1_budget_matches_table_vi(self):
        from repro.logsim import HPC1

        budget = inter_arrival_budget(HPC1)
        assert budget == pytest.approx(
            1.0 / (HPC1.benign_rate_hz * HPC1.n_nodes))
        # Table VI scale: single-digit milliseconds at the aggregator.
        assert 0.001 < budget < 0.1

    def test_raw_knobs(self):
        assert inter_arrival_budget(rate_hz=10.0, n_nodes=10) == 0.01

    def test_requires_rate_and_nodes(self):
        with pytest.raises(ValueError):
            inter_arrival_budget()


class TestDeadlineMonitor:
    def test_pass_when_under_budget(self):
        mon = DeadlineMonitor(0.01, quantile=0.99, slo_fraction=0.01)
        for _ in range(200):
            mon.observe(0.001)
        verdict = mon.verdict()
        assert verdict.ok
        assert verdict.latency <= verdict.budget
        assert verdict.over_budget == 0
        assert verdict.burn_rate == 0.0

    def test_fail_when_quantile_over_budget(self):
        mon = DeadlineMonitor(0.01)
        for _ in range(200):
            mon.observe(0.05)
        verdict = mon.verdict()
        assert not verdict.ok
        assert verdict.over_budget == 200

    def test_burn_rate_fails_even_with_good_quantile(self):
        # 5% of predictions over budget burns a 1% SLO at 5×, even
        # though p50 stays comfortably inside the budget.
        mon = DeadlineMonitor(0.01, quantile=0.5, slo_fraction=0.01)
        for i in range(200):
            mon.observe(0.05 if i % 20 == 0 else 0.001)
        verdict = mon.verdict()
        assert verdict.burn_rate > 1.0
        assert not verdict.ok

    def test_as_dict_round_trips_fields(self):
        mon = DeadlineMonitor(0.01)
        mon.observe(0.001)
        d = mon.verdict().as_dict()
        assert d["ok"] is True
        assert d["budget_seconds"] == 0.01
        assert d["observed"] == 1


class TestDeadlineWithRealFleet:
    """The acceptance pair: a real fleet clears the Table VI budget;
    an inflated clock (slow hardware stand-in) fails it."""

    @pytest.fixture(scope="class")
    def gen(self):
        from repro.logsim import ClusterLogGenerator, HPC1

        return ClusterLogGenerator(HPC1, seed=17)

    @pytest.fixture(scope="class")
    def window(self, gen):
        return gen.generate_window(
            duration=1800.0, n_nodes=16, n_failures=6, n_spurious=0)

    def run_fleet(self, gen, window, clock=None):
        from repro.core import PredictorFleet

        budget = inter_arrival_budget(gen.config)
        live = LiveMonitor(budget)
        obs = Observability(live=live)
        kwargs = {} if clock is None else {"clock": clock}
        fleet = PredictorFleet.from_store(
            gen.chains, gen.store, timeout=gen.recommended_timeout,
            obs=obs, **kwargs)
        report = fleet.run(window.events, timing="sampled")
        assert report.predictions, "window produced no predictions"
        return live.verdict(), len(report.predictions)

    def test_real_clock_passes_budget(self, gen, window):
        verdict, n = self.run_fleet(gen, window)
        assert verdict.observed == n
        # Real per-prediction cost is microseconds; the HPC1 budget is
        # ~6 ms (Fig. 14's feasibility gap).
        assert verdict.ok, verdict.as_dict()

    def test_inflated_clock_fails_budget(self, gen, window):
        budget = inter_arrival_budget(gen.config)
        ticks = iter(range(10**9))

        def slow_clock():
            # Every clock read advances 2× the whole budget, so any
            # timed chain check alone busts the deadline.
            return next(ticks) * 2.0 * budget

        verdict, n = self.run_fleet(gen, window, clock=slow_clock)
        assert verdict.observed == n
        assert not verdict.ok, verdict.as_dict()
        assert verdict.over_budget == n


class TestLiveMonitorPublish:
    def test_gauges_carry_quantile_labels(self):
        live = LiveMonitor(0.01, clock=lambda: 1000.0)
        for _ in range(10):
            live.observe_prediction(0.001)
        live.record_batch(n_events=600, seconds=2.0, last_event_time=50.0)
        registry = Registry()
        live.publish(registry)
        snap = registry.snapshot()
        labels = {
            entry["labels"]["quantile"]
            for entry in snap[LIVE_LATENCY_QUANTILE]["series"]
        }
        assert labels == {"0.5", "0.9", "0.99"}
        (ok,) = snap[DEADLINE_OK]["series"]
        assert ok["value"] == 1.0

    def test_no_budget_publishes_quantiles_only(self):
        live = LiveMonitor()  # no deadline configured
        live.observe_prediction(0.002)
        assert live.verdict() is None
        registry = Registry()
        live.publish(registry)
        snap = registry.snapshot()
        assert LIVE_LATENCY_QUANTILE in snap
        assert DEADLINE_OK not in snap

    def test_live_rows_render_verdict(self):
        live = LiveMonitor(0.01, clock=lambda: 0.0)
        live.observe_prediction(0.001)
        live.record_batch(n_events=100, seconds=1.0, last_event_time=None)
        registry = Registry()
        live.publish(registry)
        rows = dict(live_rows(registry.snapshot()))
        assert rows["deadline verdict"] == "PASS"
        assert "message rate" in rows
