"""Phase 1's finished output for a simulated system, built without numpy.

Phase 2 consumes what Phase 1 trained: a :class:`TemplateStore` holding
every template of the family's catalog (benign first, then anomalies,
in catalog order) and the trained failure chains as token sequences
with their ΔT means (:data:`~.faults.TRAINED_DELTAS`).
:func:`trained_bundle` is the one place that assembles them: the
bundle-only commands (``predict``, ``serve``, ``obs-serve``, ``rules``,
``compile``) call it directly, and
:class:`~.generator.ClusterLogGenerator` takes its store and chains
from it, so a simulated window and the predictor share one vocabulary.
"""

from __future__ import annotations

from ..core.chains import ChainSet, FailureChain
from ..persistence import PredictorBundle
from ..templates.store import TemplateStore
from .catalogs import catalog_for
from .faults import TRAINED_DELTAS, chain_defs_for
from .systems import SystemConfig

#: The parsing timeout: 4 minutes, per the paper's example ("4 mins when
#: 93% of the phrase inter-arrival times are ≤ 4 mins").  It safely
#: covers the ΔT model's minutes-scale tail (≤125 s); tighter timeouts
#: trade false negatives for earlier resets (see the timeout ablation).
TIMEOUT = 240.0


def trained_bundle(config: SystemConfig) -> PredictorBundle:
    """The predictor bundle for ``config``: its family's template store,
    trained chains and :data:`TIMEOUT`."""
    catalog = catalog_for(config.family)
    store = TemplateStore()
    token_of = {
        entry.key: store.add(entry.template, entry.severity).token
        for entry in (*catalog.benign, *catalog.anomalies)
    }
    trained, _ = chain_defs_for(config.family)
    chains = ChainSet([
        FailureChain(
            d.chain_id, tuple(token_of[k] for k in d.phrase_keys),
            TRAINED_DELTAS[d.chain_id])
        for d in trained
    ])
    return PredictorBundle(
        store=store, chains=chains, timeout=TIMEOUT, system=config.name)
