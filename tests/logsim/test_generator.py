"""Tests for workload generation and the end-to-end predict pipeline."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.core import PredictorFleet, pair_predictions
from repro.logsim import (
    ALL_SYSTEMS,
    HPC3,
    ClusterLogGenerator,
    catalog_for,
    chain_defs_for,
)
from repro.logsim.faults import DeltaTModel, LeadGapModel


@pytest.fixture(scope="module")
def gen():
    return ClusterLogGenerator(HPC3, seed=42)


class TestCatalogs:
    @pytest.mark.parametrize("family", ["xc30", "xc40", "xe6"])
    def test_catalog_complete(self, family):
        catalog = catalog_for(family)
        assert len(catalog.benign) >= 10
        assert len(catalog.anomalies) >= 15
        keys = [e.key for e in (*catalog.benign, *catalog.anomalies)]
        assert len(keys) == len(set(keys))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            catalog_for("bgq")

    @pytest.mark.parametrize("family", ["xc40", "xe6"])
    def test_chain_defs_reference_catalog(self, family):
        catalog = catalog_for(family)
        trained, novel = chain_defs_for(family)
        assert len(trained) >= 5
        for chain_def in trained + novel:
            for key in chain_def.phrase_keys:
                catalog.anomaly(key)
            catalog.anomaly(chain_def.terminal_key)

    def test_realizers_substitute(self):
        catalog = catalog_for("xc40")
        rng = np.random.default_rng(0)
        msg = catalog.anomaly("dvs_verify").make(rng, "c0-0c1s2n3")
        assert "<node>" not in msg and "<hex>" not in msg and "<n>" not in msg
        assert msg.startswith("DVS: verify filesystem:")

    def test_trained_chains_distinct_start(self):
        for family in ("xc40", "xe6"):
            trained, _ = chain_defs_for(family)
            starts = [c.phrase_keys[0] for c in trained]
            assert len(starts) == len(set(starts))


class TestDeltaTModel:
    def test_shape_mostly_under_two_minutes(self):
        model = DeltaTModel()
        rng = np.random.default_rng(1)
        gaps = model.sample(rng, 5000)
        assert (gaps > 0).all()
        assert np.mean(gaps <= 125.0) > 0.9  # bulk under ~2 min (Fig. 5)
        assert np.mean(gaps <= 0.2) > 0.3  # substantial msec-scale mass

    def test_lead_gap_range(self):
        model = LeadGapModel()
        rng = np.random.default_rng(2)
        leads = np.array([model.sample(rng) for _ in range(500)])
        assert leads.min() >= 30.0
        assert leads.max() <= 235.0
        assert 120.0 <= leads.mean() <= 200.0  # ≈2–3.3 min (Figs. 13–14)


class TestGenerator:
    def test_window_reproducible(self):
        a = ClusterLogGenerator(HPC3, seed=7).generate_window(
            duration=600, n_nodes=10, n_failures=3)
        b = ClusterLogGenerator(HPC3, seed=7).generate_window(
            duration=600, n_nodes=10, n_failures=3)
        assert [e.to_line() for e in a.events] == [e.to_line() for e in b.events]

    def test_trained_chains_independent_of_hash_seed(self):
        """The chains' trained ΔT stats are the same in every process,
        whatever its PYTHONHASHSEED (str hashes are salted per run)."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        code = (
            "import json\n"
            "from repro.logsim import HPC3, ClusterLogGenerator\n"
            "from repro.persistence import chains_to_dict\n"
            "gen = ClusterLogGenerator(HPC3, seed=7)\n"
            "print(json.dumps(chains_to_dict(gen.chains)))\n")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            outs.append(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert outs[0] == outs[1]

    def test_events_sorted(self, gen):
        window = gen.generate_window(duration=1200, n_nodes=12, n_failures=4)
        times = [e.time for e in window.events]
        assert times == sorted(times)

    def test_failures_have_terminal_records(self, gen):
        window = gen.generate_window(duration=1800, n_nodes=16, n_failures=5)
        assert len(window.failures) == 5
        for failure in window.failures:
            node_events = [e for e in window.events if e.node == failure.node]
            assert any(abs(e.time - failure.time) < 1e-9 for e in node_events)

    def test_spurious_chains_have_no_failure(self, gen):
        window = gen.generate_window(
            duration=1800, n_nodes=20, n_failures=4, n_spurious=3)
        spurious = [i for i in window.injections if i.kind == "spurious"]
        assert len(spurious) == 3
        failed_nodes = {f.node for f in window.failures}
        for injection in spurious:
            assert injection.node not in failed_nodes
            assert injection.failure_time is None

    def test_novel_fraction_applied(self):
        gen = ClusterLogGenerator(HPC3, seed=11)  # novel_fraction 0.177
        window = gen.generate_window(duration=3600, n_nodes=40, n_failures=17)
        novel = [i for i in window.injections if i.kind == "novel"]
        assert len(novel) == round(0.177 * 17)

    def test_chain_phrases_in_window(self, gen):
        window = gen.generate_window(duration=900, n_nodes=8, n_failures=2)
        for injection in window.injections:
            assert all(window.events[0].time <= t for t in injection.phrase_times)
            assert injection.phrase_times[-1] <= window.events[-1].time


class TestEndToEndPipeline:
    """Generated logs → fleet → predictions → lead-time pairing."""

    def test_detectable_failures_predicted(self):
        gen = ClusterLogGenerator(HPC3, seed=21)
        window = gen.generate_window(
            duration=3600, n_nodes=24, n_failures=6, n_spurious=0)
        fleet = PredictorFleet.from_store(gen.chains, gen.store, timeout=gen.recommended_timeout)
        report = fleet.run(window.events)
        pairing = pair_predictions(report.predictions, window.failures)
        detectable = [i for i in window.injections if i.kind == "detectable"]
        assert pairing.true_positives == len(detectable)
        # Novel-chain failures are the misses.
        assert len(pairing.missed_failures) == len(window.failures) - len(detectable)

    def test_lead_times_are_minutes(self):
        gen = ClusterLogGenerator(HPC3, seed=22)
        window = gen.generate_window(
            duration=7200, n_nodes=24, n_failures=8, n_spurious=0)
        fleet = PredictorFleet.from_store(gen.chains, gen.store, timeout=gen.recommended_timeout)
        report = fleet.run(window.events)
        pairing = pair_predictions(report.predictions, window.failures)
        assert pairing.matched, "expected at least one paired prediction"
        for record in pairing.matched:
            assert 25.0 <= record.effective_lead_time <= 240.0

    def test_spurious_chains_become_false_positives(self):
        gen = ClusterLogGenerator(HPC3, seed=23)
        window = gen.generate_window(
            duration=3600, n_nodes=24, n_failures=4, n_spurious=2)
        fleet = PredictorFleet.from_store(gen.chains, gen.store, timeout=gen.recommended_timeout)
        report = fleet.run(window.events)
        pairing = pair_predictions(report.predictions, window.failures)
        assert len(pairing.false_positives) == 2

    def test_fc_related_fraction_below_half(self):
        # Observation 4: under 47% of phrases are FC-related.
        gen = ClusterLogGenerator(HPC3, seed=24)
        window = gen.generate_window(
            duration=3600, n_nodes=24, n_failures=5, benign_rate_hz=0.02)
        fleet = PredictorFleet.from_store(gen.chains, gen.store, timeout=gen.recommended_timeout)
        report = fleet.run(window.events)
        assert 0.0 < report.fc_related_fraction < 0.47


@pytest.mark.parametrize("config", ALL_SYSTEMS, ids=lambda c: c.name)
def test_all_systems_generate(config):
    gen = ClusterLogGenerator(config, seed=1)
    window = gen.generate_window(duration=600, n_nodes=8, n_failures=2)
    assert window.n_events > 0
    assert len(gen.chains) >= 5
