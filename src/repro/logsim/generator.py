"""Cluster log generation: healthy traffic + injected failure chains.

:class:`ClusterLogGenerator` owns, for one system config:

* the node topology,
* the message catalog, with the :class:`TemplateStore` of every
  template and the trained :class:`ChainSet` that
  :func:`~.bundle.trained_bundle` builds from it (what Phase-1 training
  would have produced),
* and seeded RNG streams for reproducible workloads.

``generate_window`` produces a time-ordered stream for a window of the
cluster's life, with four ingredient kinds:

1. benign background chatter per node (Poisson);
2. *detectable* failures — a trained chain's phrases with Fig. 5 ΔTs,
   then the node-death record after the lead gap;
3. *novel* failures — held-out chains the rules never saw (Phase-1 FNs);
4. *spurious* precursors — a trained chain with no subsequent failure
   (the Phase-1 FP source).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.events import LogEvent, NodeFailure
from .bundle import TIMEOUT, trained_bundle
from .catalogs import Catalog, catalog_for
from .faults import ChainDef, chain_defs_for
from .systems import SystemConfig
from .topology import ClusterTopology


@dataclass(frozen=True)
class InjectedChain:
    """Provenance record for one injected chain instance."""

    chain_id: str
    node: str
    start: float
    phrase_times: Tuple[float, ...]
    kind: str  # "detectable" | "novel" | "spurious"
    failure_time: Optional[float]  # None for spurious


@dataclass
class LogWindow:
    """One generated evaluation window."""

    events: List[LogEvent]
    failures: List[NodeFailure]
    injections: List[InjectedChain]
    nodes: List[str]
    duration: float

    @property
    def n_events(self) -> int:
        return len(self.events)


class ClusterLogGenerator:
    """Reproducible workload source for one simulated system."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        seed: Optional[int] = None,
        obs=None,
    ):
        self.config = config
        # Optional repro.obs.Observability: windows/events/faults counters.
        self.obs = obs
        self.topology = ClusterTopology(config.n_nodes)
        self.catalog: Catalog = catalog_for(config.family)
        self.rng = np.random.default_rng(config.seed if seed is None else seed)

        # Phase 1's vocabulary and trained chains, built as the
        # bundle-only commands build them.
        bundle = trained_bundle(config)
        self.store = bundle.store
        self.chains = bundle.chains
        self._token_of: Dict[str, int] = {
            key: self.store.lookup(entry.template).token
            for key, entry in self.catalog.by_key().items()
        }
        trained, novel = chain_defs_for(config.family)
        self.trained_defs: List[ChainDef] = trained
        self.novel_defs: List[ChainDef] = novel

    # -- wiring helpers ------------------------------------------------
    @property
    def recommended_timeout(self) -> float:
        """The parsing timeout for this workload (:data:`.bundle.TIMEOUT`,
        4 minutes)."""
        return TIMEOUT

    def token_of(self, key: str) -> int:
        return self._token_of[key]

    # -- generation ------------------------------------------------------
    def generate_window(
        self,
        *,
        duration: float = 3600.0,
        n_nodes: int = 32,
        n_failures: int = 8,
        n_spurious: Optional[int] = None,
        start_time: float = 0.0,
        benign_rate_hz: Optional[float] = None,
    ) -> LogWindow:
        """Generate one evaluation window.

        ``n_failures`` failures are split into detectable vs novel by the
        config's ``novel_fraction``; ``n_spurious`` (default: derived
        from ``spurious_rate``) complete precursor chains are injected on
        healthy nodes with no subsequent failure.
        """
        rng = self.rng
        config = self.config
        nodes = self.topology.sample_nodes(rng, n_nodes)
        rate = config.benign_rate_hz if benign_rate_hz is None else benign_rate_hz

        events: List[LogEvent] = []
        failures: List[NodeFailure] = []
        injections: List[InjectedChain] = []

        # 1. Benign background on every node.
        benign_entries = self.catalog.benign
        for node in nodes:
            n_msgs = rng.poisson(rate * duration)
            if n_msgs == 0:
                continue
            times = np.sort(rng.uniform(start_time, start_time + duration, n_msgs))
            picks = rng.integers(0, len(benign_entries), n_msgs)
            for t, p in zip(times, picks):
                entry = benign_entries[int(p)]
                events.append(LogEvent(float(t), node, entry.make(rng, node)))

        # 2 & 3. Failures on distinct nodes (detectable + novel mix).
        n_novel = int(round(config.novel_fraction * n_failures))
        n_detectable = n_failures - n_novel
        fail_nodes = list(rng.permutation(nodes)[:n_failures])
        kinds = ["detectable"] * n_detectable + ["novel"] * n_novel
        for node, kind in zip(fail_nodes, kinds):
            defs = self.trained_defs if kind == "detectable" else self.novel_defs
            chain_def = defs[int(rng.integers(len(defs)))]
            injection = self._inject_chain(
                events, chain_def, node, rng,
                window=(start_time, start_time + duration), kind=kind,
            )
            injections.append(injection)
            assert injection.failure_time is not None
            failures.append(
                NodeFailure(node=node, time=injection.failure_time,
                            chain_id=chain_def.chain_id)
            )

        # 4. Spurious complete precursor chains, no failure follows.
        if n_spurious is None:
            n_spurious = int(round(config.spurious_rate * n_failures))
        healthy = [n for n in nodes if n not in set(fail_nodes)]
        rng.shuffle(healthy)
        for node in healthy[:n_spurious]:
            chain_def = self.trained_defs[int(rng.integers(len(self.trained_defs)))]
            injections.append(
                self._inject_chain(
                    events, chain_def, node, rng,
                    window=(start_time, start_time + duration), kind="spurious",
                )
            )

        events.sort(key=lambda e: e.time)
        if self.obs is not None:
            self.obs.record_window(len(events), injections)
        return LogWindow(
            events=events, failures=failures, injections=injections,
            nodes=nodes, duration=duration,
        )

    def _inject_chain(
        self,
        events: List[LogEvent],
        chain_def: ChainDef,
        node: str,
        rng: np.random.Generator,
        *,
        window: Tuple[float, float],
        kind: str,
    ) -> InjectedChain:
        lo, hi = window
        gaps = chain_def.deltas.sample(rng, len(chain_def.phrase_keys) - 1)
        lead_gap = chain_def.lead.sample(rng)
        span = float(gaps.sum() + lead_gap)
        # Keep the whole episode inside the window.
        start = float(rng.uniform(lo, max(lo + 1.0, hi - span - 1.0)))
        t = start
        phrase_times: List[float] = []
        for i, key in enumerate(chain_def.phrase_keys):
            if i > 0:
                t += float(gaps[i - 1])
            phrase_times.append(t)
            entry = self.catalog.anomaly(key)
            events.append(LogEvent(t, node, entry.make(rng, node)))
        failure_time: Optional[float] = None
        if kind != "spurious":
            failure_time = t + lead_gap
            terminal = self.catalog.anomaly(chain_def.terminal_key)
            events.append(LogEvent(failure_time, node, terminal.make(rng, node)))
        return InjectedChain(
            chain_id=chain_def.chain_id, node=node, start=start,
            phrase_times=tuple(phrase_times), kind=kind,
            failure_time=failure_time,
        )
