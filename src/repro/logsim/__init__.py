"""Synthetic HPC cluster log substrate (Tables I–II, Fig. 5 shapes).

* :mod:`.topology` — Cray node naming / cluster enumeration
* :mod:`.catalogs` — per-family message vocabularies (benign + anomaly)
* :mod:`.faults` — failure-chain definitions and ΔT / lead-gap models
* :mod:`.systems` — HPC1–HPC4 configs (Table II)
* :mod:`.generator` — seeded workload generation with chain injection
* :mod:`.stream` — framing / serialize / replay plumbing
"""

# The simulator half (catalogs/faults/generator/corruptions) needs
# numpy; the stream/ingest half below is pure stdlib.  Without numpy
# (the [fast] extra) the ingest layer must stay importable — the
# scanner stack quarantines and replays logs fine on either scan
# backend — so the simulator names simply go missing and any use of
# them raises the usual ImportError at the access site.
try:
    from .catalogs import Catalog, CatalogEntry, catalog_for
    from .corruptions import (
        CorruptionReport,
        CorruptionSpec,
        corrupt_events,
        corrupt_lines,
        corrupt_window,
    )
    from .faults import ChainDef, DeltaTModel, LeadGapModel, chain_defs_for
    from .generator import ClusterLogGenerator, InjectedChain, LogWindow

    SIMULATOR_AVAILABLE = True
except ImportError:
    SIMULATOR_AVAILABLE = False
from .emitter import EmitStats, file_sink, parse_time_prefix, stream_log, tcp_sink
from .placement import ClusterProfile, PlacementResult, compare_placements, evaluate_placement
from .stream import (
    ERROR_POLICIES,
    ByteRecordBatch,
    IngestStats,
    SortBuffer,
    clip_window,
    decode_lines,
    frame_records,
    read_byte_batch,
    read_log,
    read_truth,
    sorted_stream,
    split_by_node,
    write_log,
    write_truth,
)
from .systems import ALL_SYSTEMS, HPC1, HPC2, HPC3, HPC4, SystemConfig, system_by_name
from .topology import ClusterTopology, NodeName

__all__ = [
    "ALL_SYSTEMS",
    "ByteRecordBatch",
    "Catalog",
    "CatalogEntry",
    "ChainDef",
    "ClusterLogGenerator",
    "ClusterProfile",
    "ClusterTopology",
    "CorruptionReport",
    "CorruptionSpec",
    "DeltaTModel",
    "ERROR_POLICIES",
    "EmitStats",
    "HPC1",
    "HPC2",
    "HPC3",
    "HPC4",
    "IngestStats",
    "InjectedChain",
    "LeadGapModel",
    "LogWindow",
    "PlacementResult",
    "NodeName",
    "SIMULATOR_AVAILABLE",
    "SortBuffer",
    "SystemConfig",
    "catalog_for",
    "chain_defs_for",
    "clip_window",
    "compare_placements",
    "corrupt_events",
    "corrupt_lines",
    "corrupt_window",
    "decode_lines",
    "evaluate_placement",
    "file_sink",
    "frame_records",
    "parse_time_prefix",
    "read_byte_batch",
    "read_log",
    "read_truth",
    "sorted_stream",
    "split_by_node",
    "stream_log",
    "system_by_name",
    "tcp_sink",
    "write_log",
    "write_truth",
]
