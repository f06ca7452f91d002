"""Failure-chain fault models and ΔT (inter-arrival) sampling.

A :class:`ChainDef` names the anomaly-catalog phrases that precede one
kind of node failure, the terminal "node died" phrase, and the lead-gap
distribution between the last precursor and the death record (that gap
*is* the achievable lead time, Fig. 13: 0.5–3.9 min, mean ≈2.7 min).

In-chain ΔTs follow the empirical shape of Fig. 5: the bulk of arrivals
are milliseconds apart (log-routing bursts, with characteristic spikes
around 25 ms), a secondary mass at seconds scale, and a thin tail
toward ~2 minutes; ~93% of gaps fall under the parsing timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class DeltaTModel:
    """Mixture model for inter-arrival gaps within a chain (seconds)."""

    burst_weight: float = 0.55  # msec-scale routing bursts
    seconds_weight: float = 0.35  # filesystem / interconnect delays
    minutes_weight: float = 0.10  # slow propagation tail
    burst_median_ms: float = 25.0
    burst_sigma: float = 0.6
    seconds_median: float = 8.0
    seconds_sigma: float = 1.0
    minutes_low: float = 60.0
    minutes_high: float = 125.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        import numpy as np

        weights = np.array(
            [self.burst_weight, self.seconds_weight, self.minutes_weight]
        )
        weights = weights / weights.sum()
        kinds = rng.choice(3, size=size, p=weights)
        out = np.empty(size)
        burst = kinds == 0
        out[burst] = (
            rng.lognormal(np.log(self.burst_median_ms / 1000.0), self.burst_sigma,
                          burst.sum())
        )
        secs = kinds == 1
        out[secs] = rng.lognormal(np.log(self.seconds_median), self.seconds_sigma,
                                  secs.sum())
        mins = kinds == 2
        out[mins] = rng.uniform(self.minutes_low, self.minutes_high, mins.sum())
        return out


@dataclass(frozen=True)
class LeadGapModel:
    """Gap between the chain's last phrase and the node-death record."""

    mean: float = 164.0  # ≈2.74 min (Fig. 14)
    std: float = 70.0  # ≈1.16 min
    minimum: float = 30.0
    maximum: float = 235.0  # just under 4 min (Fig. 13 range)

    def sample(self, rng: np.random.Generator) -> float:
        import numpy as np

        return float(np.clip(rng.normal(self.mean, self.std), self.minimum, self.maximum))


@dataclass(frozen=True)
class ChainDef:
    """A failure mode: precursor phrase keys + terminal death phrase."""

    chain_id: str
    phrase_keys: Tuple[str, ...]  # anomaly-catalog keys, in order
    terminal_key: str  # the node-death record (ground truth)
    deltas: DeltaTModel = field(default_factory=DeltaTModel)
    lead: LeadGapModel = field(default_factory=LeadGapModel)

    def __post_init__(self):
        if len(self.phrase_keys) < 2:
            raise ValueError(f"{self.chain_id}: need ≥2 precursor phrases")
        if len(set(self.phrase_keys)) != len(self.phrase_keys):
            raise ValueError(f"{self.chain_id}: repeated phrase key")


# Trained failure modes per family.  Starting phrases are distinct
# (paper §III feature 3); several chains share subchains/suffixes so the
# Table IV factoring has real material to work on.
_CHAINS_XC: List[ChainDef] = [
    ChainDef("FC_dvs", ("fw_bug", "dvs_verify", "dvs_down", "lustre_peer",
                        "lnet_hw", "cb_unavail"), "node_down"),
    ChainDef("FC_aries", ("aries_lcb", "aries_ptl", "lustre_peer", "lnet_hw",
                          "cb_unavail"), "node_down"),
    ChainDef("FC_mce", ("mce", "ecc_corr", "ecc_uncorr", "soft_lockup",
                        "kpanic"), "node_halt"),
    ChainDef("FC_oom", ("oom", "soft_lockup", "kpanic"), "node_halt"),
    ChainDef("FC_hb", ("hb_fault", "volt_fault", "cb_unavail"), "node_down"),
    ChainDef("FC_lustre", ("lustre_evict", "ib_timeout", "lustre_peer",
                           "dvs_down", "cb_unavail"), "node_down"),
    ChainDef("FC_gpu", ("seastar", "oom", "soft_lockup", "kpanic"), "node_halt"),
]

# Held-out (novel) failure modes: their chains were never trained, so a
# predictor running the trained rules misses them — the Phase-1 false
# negatives of Fig. 7.
_NOVEL_XC: List[ChainDef] = [
    ChainDef("NV_ecc", ("ecc_uncorr", "mce", "hb_fault"), "node_halt"),
    ChainDef("NV_ib", ("ib_timeout", "lustre_evict", "lnet_hw"), "node_down"),
]

_CHAINS_XE: List[ChainDef] = [
    ChainDef("FC_dvs", ("fw_bug", "dvs_verify", "dvs_down", "lustre_peer",
                        "lnet_hw", "cb_unavail"), "node_down"),
    ChainDef("FC_gem", ("gemini_lcb", "gemini_route", "lustre_peer", "lnet_hw",
                        "cb_unavail"), "node_down"),
    ChainDef("FC_mce", ("mce", "ecc_corr", "ecc_uncorr", "soft_lockup",
                        "kpanic"), "node_halt"),
    ChainDef("FC_oom", ("oom", "soft_lockup", "kpanic"), "node_halt"),
    ChainDef("FC_hb", ("hb_fault", "volt_fault", "cb_unavail"), "node_down"),
    ChainDef("FC_gpu", ("seastar", "oom", "soft_lockup", "kpanic"), "node_halt"),
]

_NOVEL_XE: List[ChainDef] = [
    ChainDef("NV_ecc", ("ecc_uncorr", "mce", "hb_fault"), "node_halt"),
    ChainDef("NV_volt", ("volt_fault", "kpanic"), "node_halt"),
]


# Phase 1's trained ΔT stats: each trained chain's expected gaps, drawn
# once as ``deltas.sample(default_rng(zlib.crc32(chain_id.encode())), n)``
# (the CRC-32 seed keeps every process, whatever its PYTHONHASHSEED, on
# the same chains).  They depend only on the chain id, so they are kept
# here as repr-exact literals: the predictor bundle builds without numpy.
TRAINED_DELTAS: Dict[str, Tuple[float, ...]] = {
    "FC_dvs": (9.215599966756265, 7.395406394563124, 9.39561213769784,
               8.000672942927048, 1.1790105459242548),
    "FC_aries": (0.02544460248660877, 74.26445920671728, 5.185726924762787,
                 106.09407157285708),
    "FC_mce": (3.740657316845976, 0.049500799287613265, 60.162612040783664,
               11.432861717394246),
    "FC_oom": (122.68604523234313, 29.68916102331478),
    "FC_hb": (0.03980793490862152, 0.06098466536530392),
    "FC_lustre": (4.676886072782346, 0.04748730300554643,
                  0.015398842217678968, 40.33115293069816),
    "FC_gpu": (0.03368493946556269, 2.793850437867047, 0.009021382487121766),
    "FC_gem": (106.36203607911732, 2.524212867125473, 34.93550520253293,
               4.80100602686247),
}


def chain_defs_for(family: str) -> Tuple[List[ChainDef], List[ChainDef]]:
    """(trained, novel) chain definitions for a system family."""
    if family in ("xc30", "xc40"):
        return list(_CHAINS_XC), list(_NOVEL_XC)
    if family == "xe6":
        return list(_CHAINS_XE), list(_NOVEL_XE)
    raise ValueError(f"unknown system family {family!r}")
