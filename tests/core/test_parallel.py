"""Sharded execution: the FleetDaemon against a single-process fleet.

The oracle is one :class:`~repro.core.fleet.PredictorFleet` over every
line in order; it shares no code with the sharded path, so agreement on
``(node, chain_id, flagged_at, matched_tokens)`` is the equivalence
contract of node-hash sharding (§III: per-node state is independent).
"""

import pytest

from repro.core import pair_predictions
from repro.core.daemon import FleetDaemon, shard_of
from repro.logsim import ClusterLogGenerator, HPC3
from repro.persistence import PredictorBundle


@pytest.fixture(scope="module")
def gen():
    return ClusterLogGenerator(HPC3, seed=61)


@pytest.fixture(scope="module")
def bundle(gen):
    return PredictorBundle(
        store=gen.store, chains=gen.chains,
        timeout=gen.recommended_timeout, system="HPC3")


@pytest.fixture(scope="module")
def window(gen):
    return gen.generate_window(
        duration=3600.0, n_nodes=24, n_failures=8, n_spurious=0)


def lines_of(window):
    return [e.to_line() for e in window.events]


def key(p):
    return (p.node, p.chain_id, p.flagged_at, p.matched_tokens)


def single_process(fleet, lines):
    return fleet.run_lines(
        lines, on_error="quarantine", timing="off").predictions


def submit_all(daemon, lines):
    for line in lines:
        daemon.submit(line)
    assert daemon.drain(60.0)


class TestSharding:
    def test_shard_of_stable(self):
        assert shard_of("c0-0c2s0n2", 8) == shard_of("c0-0c2s0n2", 8)

    def test_shard_in_range(self):
        for i in range(50):
            assert 0 <= shard_of(f"c{i}-0c0s0n0", 7) < 7


class TestShardedDaemon:
    def test_matches_serial_fleet(self, bundle, window):
        lines = lines_of(window)
        with FleetDaemon(bundle, n_shards=3).start() as daemon:
            assert daemon.wait_ready(30.0)
            submit_all(daemon, lines)
            report = daemon.stop(drain=True)
        serial = single_process(bundle.make_fleet(), lines)
        assert serial
        assert sorted(map(key, report.predictions)) == sorted(map(key, serial))

    def test_predictions_pair_with_failures(self, bundle, window):
        with FleetDaemon(bundle, n_shards=2).start() as daemon:
            assert daemon.wait_ready(30.0)
            submit_all(daemon, lines_of(window))
            report = daemon.stop(drain=True)
        pairing = pair_predictions(report.predictions, window.failures)
        detectable = sum(
            1 for i in window.injections if i.kind == "detectable")
        assert pairing.true_positives == detectable

    def test_reusable_across_windows(self, gen, bundle):
        """Two windows through one daemon: shard state carries across
        them exactly as one fleet's state does across two runs."""
        w1 = gen.generate_window(duration=900.0, n_nodes=8, n_failures=2,
                                 n_spurious=0)
        w2 = gen.generate_window(duration=900.0, n_nodes=8, n_failures=2,
                                 n_spurious=0)
        with FleetDaemon(bundle, n_shards=2).start() as daemon:
            assert daemon.wait_ready(30.0)
            submit_all(daemon, lines_of(w1))
            n_first = len(daemon.predictions)
            submit_all(daemon, lines_of(w2))
            report = daemon.stop(drain=True)
        fleet = bundle.make_fleet()
        first = single_process(fleet, lines_of(w1))
        second = single_process(fleet, lines_of(w2))
        assert n_first == len(first) >= 1 and len(second) >= 1
        assert sorted(map(key, report.predictions)) == sorted(
            map(key, first + second))
