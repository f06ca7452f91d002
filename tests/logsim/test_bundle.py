"""The trained predictor bundle, which the bundle-only commands build
without the simulator or numpy.

The ΔT table is held to the sampler it was drawn from, and the bundle
to the one the simulator's generator carries; both of those checks need
numpy and skip without it.  The last check blocks numpy in a fresh
interpreter and builds every bundle there.
"""

import json
import os
import subprocess
import sys
import zlib

import pytest

import repro
from repro.logsim import ALL_SYSTEMS, catalog_for, chain_defs_for, trained_bundle
from repro.logsim.bundle import TIMEOUT
from repro.logsim.faults import TRAINED_DELTAS
from repro.persistence import PredictorBundle

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
FAMILIES = ("xc30", "xc40", "xe6")


class TestTrainedDeltas:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_table_is_the_sampled_means(self, family):
        np = pytest.importorskip("numpy")
        trained, _ = chain_defs_for(family)
        for chain_def in trained:
            sampled = chain_def.deltas.sample(
                np.random.default_rng(zlib.crc32(chain_def.chain_id.encode())),
                len(chain_def.phrase_keys) - 1)
            assert TRAINED_DELTAS[chain_def.chain_id] == tuple(
                float(m) for m in sampled), chain_def.chain_id

    def test_table_holds_only_trained_chains(self):
        trained = {d.chain_id for family in FAMILIES
                   for d in chain_defs_for(family)[0]}
        assert set(TRAINED_DELTAS) == trained


class TestTrainedBundle:
    @pytest.mark.parametrize("config", ALL_SYSTEMS, ids=lambda c: c.name)
    def test_equals_the_generators_bundle(self, config):
        pytest.importorskip("numpy")
        from repro.logsim import ClusterLogGenerator

        gen = ClusterLogGenerator(config)
        expected = PredictorBundle(
            store=gen.store, chains=gen.chains,
            timeout=gen.recommended_timeout, system=config.name)
        assert trained_bundle(config).to_dict() == expected.to_dict()

    @pytest.mark.parametrize("config", ALL_SYSTEMS, ids=lambda c: c.name)
    def test_chains_spell_their_definitions(self, config):
        """Each trained chain's tokens name its definition's anomaly
        templates in order, every catalog template is in the store, and
        the bundle survives its own round trip."""
        bundle = trained_bundle(config)
        catalog = catalog_for(config.family)
        trained, _ = chain_defs_for(config.family)
        assert [c.chain_id for c in bundle.chains] == [
            d.chain_id for d in trained]
        for chain_def in trained:
            chain = bundle.chains[chain_def.chain_id]
            assert [bundle.store.get(t).text for t in chain.tokens] == [
                catalog.anomaly(k).template for k in chain_def.phrase_keys]
            assert chain.deltas == TRAINED_DELTAS[chain_def.chain_id]
        texts = {t.text for t in bundle.store}
        assert texts == {e.template for e in catalog.by_key().values()}
        assert bundle.timeout == TIMEOUT == 240.0
        assert bundle.system == config.name
        again = PredictorBundle.from_dict(bundle.to_dict())
        assert again.to_dict() == bundle.to_dict()


#: Blocks numpy before anything imports it, then builds every bundle.
NO_NUMPY_BUNDLES = """
import json, sys

sys.modules["numpy"] = None
import repro.logsim.catalogs, repro.logsim.faults
from repro.logsim import ALL_SYSTEMS, trained_bundle

print(json.dumps({c.name: trained_bundle(c).to_dict() for c in ALL_SYSTEMS}))
"""


class TestWithoutNumpy:
    def test_every_bundle_builds(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_BUNDLES], capture_output=True,
            text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            c.name: trained_bundle(c).to_dict() for c in ALL_SYSTEMS}
