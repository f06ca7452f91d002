"""Message catalogs: the vocabulary each simulated system logs.

Each catalog entry pairs a *template* (the masked phrase a
:class:`~repro.templates.store.TemplateStore` would learn) with a
*realizer* that instantiates concrete variable fields.  Benign templates
model healthy chatter (job scheduler, SEDC telemetry, DVS/Lustre info
messages); anomaly templates are the Cray XC/XE phrases the paper's
failure chains are built from (Tables III & IX).

Families mirror Table I: ``xc30``, ``xc40`` (Aries, bcsysd, Slurm) and
``xe6`` (Gemini, syslog-ng, Torque) share semantics but differ in syntax
— the adaptability experiments rely on those differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence

from ..core.events import Severity

if TYPE_CHECKING:
    import numpy as np

Realizer = Callable[["np.random.Generator", str], str]


@dataclass(frozen=True)
class CatalogEntry:
    """A loggable message type."""

    key: str  # stable short name, unique within a catalog
    template: str  # masked phrase ('*' wildcards)
    severity: Severity
    realize: Realizer

    def make(self, rng: np.random.Generator, node: str) -> str:
        return self.realize(rng, node)


def _with_tail(head: str, tails: Sequence[str]) -> Realizer:
    def realize(rng: np.random.Generator, node: str) -> str:
        tail = tails[int(rng.integers(len(tails)))]
        return f"{head} {tail}".replace("<node>", node).replace(
            "<n>", str(int(rng.integers(1, 4096)))
        ).replace("<hex>", f"0x{int(rng.integers(1, 2**32)):x}")

    return realize


def _entry(key: str, template: str, severity: Severity, tails: Sequence[str]) -> CatalogEntry:
    head = template.split("*", 1)[0].strip()
    return CatalogEntry(key, template, severity, _with_tail(head, tails))


# ---------------------------------------------------------------------------
# Benign chatter common to Cray systems (never part of a failure chain).
# ---------------------------------------------------------------------------

_BENIGN_COMMON: List[CatalogEntry] = [
    _entry("sedc_temp", "SEDC: cabinet temperature reading *", Severity.BENIGN,
           ["<n> centigrade", "<n> C nominal"]),
    _entry("sedc_power", "SEDC: blade power sample *", Severity.BENIGN,
           ["<n> W", "<n> watts steady"]),
    _entry("hb_ok", "HSS heartbeat ok for *", Severity.BENIGN,
           ["<node> seq <n>"]),
    _entry("job_start", "Job * started on *", Severity.BENIGN,
           ["<n> started on <node>"]),
    _entry("job_end", "Job * completed on *", Severity.BENIGN,
           ["<n> completed on <node> status <n>"]),
    _entry("dvs_info", "DVS: mount point statistics *", Severity.BENIGN,
           ["ops <n> window <n>"]),
    _entry("lustre_info", "Lustre: recovery status *", Severity.BENIGN,
           ["complete in <n> ms", "clients <n>"]),
    _entry("nfs_ok", "RPC: server * responding", Severity.BENIGN,
           ["<node> responding"]),
    _entry("sshd", "sshd accepted publickey for *", Severity.BENIGN,
           ["operator from 10.128.<n>.<n>"]),
    _entry("cron", "CROND: job * finished", Severity.BENIGN,
           ["<n> finished"]),
    _entry("kernel_info", "kernel: perf interrupt took *", Severity.BENIGN,
           ["<n> ns"]),
    _entry("pcie_replay", "pcieport *: Replay Timer Timeout", Severity.BENIGN,
           ["0000:00:03.0: [12] Replay Timer Timeout"]),
]

_BENIGN_SLURM = [
    _entry("slurm_epilog", "slurmd epilog complete for job *", Severity.BENIGN,
           ["<n> on <node>"]),
    _entry("slurm_health", "slurmd health check ok *", Severity.BENIGN,
           ["seq <n>"]),
]

_BENIGN_TORQUE = [
    _entry("pbs_mom", "pbs_mom: job * exited", Severity.BENIGN, ["<n> exited"]),
    _entry("pbs_poll", "pbs_mom: status poll *", Severity.BENIGN, ["cycle <n>"]),
]

# ---------------------------------------------------------------------------
# Anomaly phrases (chain building blocks), per family.
# ---------------------------------------------------------------------------

_ANOMALY_XC: List[CatalogEntry] = [
    _entry("fw_bug", "[Firmware Bug]: powernow k8: *", Severity.ERRONEOUS,
           ["disabling frequency transitions", "acpi mismatch id <n>"]),
    _entry("dvs_verify", "DVS: verify filesystem: *", Severity.UNKNOWN,
           ["file system magic value <hex> retrieved from server <node> does not match expected value <hex>: excluding server"]),
    _entry("dvs_down", "DVS: file node down: *", Severity.UNKNOWN,
           ["removing <node> from list of available servers"]),
    _entry("lustre_peer", "Lustre: * cannot find peer *", Severity.UNKNOWN,
           ["<n>:0:ldlm cannot find peer 10.128.<n>.<n>"]),
    _entry("lnet_hw", "Lnet: critical hardware error: *", Severity.ERRONEOUS,
           ["bus fault on nid <n>"]),
    _entry("cb_unavail", "cb_node_unavailable: *", Severity.ERRONEOUS,
           ["<node> marked unavailable"]),
    _entry("aries_lcb", "aries lcb lane degrade on *", Severity.UNKNOWN,
           ["<node> lane <n>"]),
    _entry("aries_ptl", "aries ptltap error threshold exceeded *", Severity.ERRONEOUS,
           ["count <n> on <node>"]),
    _entry("mce", "Machine Check Exception: *", Severity.ERRONEOUS,
           ["bank <n> <hex>", "cpu <n> bank <n>"]),
    _entry("ecc_corr", "EDAC MC*: corrected error *", Severity.UNKNOWN,
           ["1: corrected error row <n>"]),
    _entry("ecc_uncorr", "EDAC MC*: uncorrected error *", Severity.ERRONEOUS,
           ["0: uncorrected error page <hex>"]),
    _entry("oom", "Out of memory: kill process *", Severity.UNKNOWN,
           ["<n> (app.exe) score <n>"]),
    _entry("soft_lockup", "BUG: soft lockup CPU#* stuck *", Severity.ERRONEOUS,
           ["3 stuck for <n>s"]),
    _entry("kpanic", "Kernel panic not syncing: *", Severity.ERRONEOUS,
           ["fatal exception in interrupt"]),
    _entry("hb_fault", "bcsysd heartbeat fault on *", Severity.ERRONEOUS,
           ["<node> missed <n> beats"]),
    _entry("volt_fault", "Voltage fault detected on *", Severity.ERRONEOUS,
           ["<node> rail VDD vale <n> mV"]),
    _entry("seastar", "nvidia gpu xid error *", Severity.ERRONEOUS,
           ["<n> on <node>"]),
    _entry("lustre_evict", "LustreError: * evicted by *", Severity.UNKNOWN,
           ["client <hex> evicted by <node>"]),
    _entry("ib_timeout", "o2iblnd timed out tx for *", Severity.UNKNOWN,
           ["<node> <n> seconds"]),
    _entry("node_down", "node down (compute node failure) *", Severity.ERRONEOUS,
           ["<node>"]),
    _entry("node_halt", "shutting down node * unexpectedly", Severity.ERRONEOUS,
           ["<node> unexpectedly"]),
]

# XE6 variants: same semantics, Gemini/syslog-ng era syntax.
_ANOMALY_XE: List[CatalogEntry] = [
    _entry("fw_bug", "[Firmware Bug]: powernow k8: *", Severity.ERRONEOUS,
           ["disabling frequency transitions"]),
    _entry("dvs_verify", "DVS verify: filesystem magic mismatch *", Severity.UNKNOWN,
           ["server <node> value <hex>"]),
    _entry("dvs_down", "DVS map: server node down *", Severity.UNKNOWN,
           ["<node> removed"]),
    _entry("lustre_peer", "Lustre: * cannot find peer *", Severity.UNKNOWN,
           ["<n>:0:ldlm cannot find peer 10.131.<n>.<n>"]),
    _entry("lnet_hw", "Lnet: critical hardware error: *", Severity.ERRONEOUS,
           ["bus fault on nid <n>"]),
    _entry("cb_unavail", "cb_node_unavailable: *", Severity.ERRONEOUS,
           ["<node> marked unavailable"]),
    _entry("gemini_lcb", "gemini lcb failed on *", Severity.UNKNOWN,
           ["<node> channel <n>"]),
    _entry("gemini_route", "gemini routing table rebuild *", Severity.ERRONEOUS,
           ["triggered by <node>"]),
    _entry("mce", "Machine Check Exception (MCE) *", Severity.ERRONEOUS,
           ["cpu <n> bank <n>"]),
    _entry("ecc_corr", "L0 DDR correctable symbol error *", Severity.UNKNOWN,
           ["rank <n>"]),
    _entry("ecc_uncorr", "L0 DDR uncorrectable error *", Severity.ERRONEOUS,
           ["page <hex>"]),
    _entry("oom", "Out of memory: kill process *", Severity.UNKNOWN,
           ["<n> (app.exe) score <n>"]),
    _entry("soft_lockup", "soft-lockup: hung tasks on *", Severity.ERRONEOUS,
           ["<node> cpu <n>"]),
    _entry("kpanic", "Kernel panic, Call Trace: *", Severity.ERRONEOUS,
           ["<hex> <hex> <hex>"]),
    _entry("hb_fault", "L0 heartbeat fault *", Severity.ERRONEOUS,
           ["<node> missed <n>"]),
    _entry("volt_fault", "Voltage Fault *", Severity.ERRONEOUS,
           ["<node> rail <n>"]),
    _entry("seastar", "GPU* PMU communication error", Severity.ERRONEOUS,
           ["0 PMU communication error"]),
    _entry("lustre_evict", "LustreError: * evicted by *", Severity.UNKNOWN,
           ["client <hex> evicted by <node>"]),
    _entry("ib_timeout", "portals message timeout for *", Severity.UNKNOWN,
           ["<node> after <n> s"]),
    _entry("node_down", "node down (compute node failure) *", Severity.ERRONEOUS,
           ["<node>"]),
    _entry("node_halt", "node * system has halted", Severity.ERRONEOUS,
           ["<node> system has halted"]),
]


@dataclass(frozen=True)
class Catalog:
    """The full message vocabulary of one system family."""

    family: str
    benign: tuple[CatalogEntry, ...]
    anomalies: tuple[CatalogEntry, ...]

    def anomaly(self, key: str) -> CatalogEntry:
        for entry in self.anomalies:
            if entry.key == key:
                return entry
        raise KeyError(f"{self.family}: no anomaly {key!r}")

    def by_key(self) -> Dict[str, CatalogEntry]:
        return {e.key: e for e in (*self.benign, *self.anomalies)}


def catalog_for(family: str) -> Catalog:
    """Catalog for ``family`` ∈ {"xc30", "xc40", "xe6"}."""
    if family in ("xc30", "xc40"):
        return Catalog(
            family=family,
            benign=tuple(_BENIGN_COMMON + _BENIGN_SLURM),
            anomalies=tuple(_ANOMALY_XC),
        )
    if family == "xe6":
        return Catalog(
            family=family,
            benign=tuple(_BENIGN_COMMON + _BENIGN_TORQUE),
            anomalies=tuple(_ANOMALY_XE),
        )
    raise ValueError(f"unknown system family {family!r}")
