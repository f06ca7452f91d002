"""Synthetic HPC cluster log substrate (Tables I–II, Fig. 5 shapes).

* :mod:`.topology` — Cray node naming / cluster enumeration
* :mod:`.catalogs` — per-family message vocabularies (benign + anomaly)
* :mod:`.faults` — failure-chain definitions, ΔT / lead-gap models and
  the trained chains' ΔT means
* :mod:`.systems` — HPC1–HPC4 configs (Table II)
* :mod:`.bundle` — the predictor bundle (store, trained chains, timeout)
* :mod:`.generator` — seeded workload generation with chain injection
* :mod:`.stream` — framing / serialize / replay plumbing
"""

from ..lazy import lazy_exports

# Only what samples needs numpy: the generator, the corruptions and
# ``DeltaTModel``/``LeadGapModel.sample``, which import it where they
# run.  Catalogs, chain definitions, systems, the predictor bundle and
# the stream/ingest half are pure stdlib.  Names resolve on first read,
# so without numpy (the [fast] extra) reading a simulator name raises
# the usual ImportError there.
__all__, _getattr, __dir__ = lazy_exports(__name__, {
    "bundle": ("trained_bundle",),
    "catalogs": ("Catalog", "CatalogEntry", "catalog_for"),
    "corruptions": ("CorruptionReport", "CorruptionSpec", "corrupt_events",
                    "corrupt_lines", "corrupt_window"),
    "emitter": ("EmitStats", "file_sink", "parse_time_prefix", "stream_log",
                "tcp_sink"),
    "faults": ("ChainDef", "DeltaTModel", "LeadGapModel", "chain_defs_for"),
    "generator": ("ClusterLogGenerator", "InjectedChain", "LogWindow"),
    "placement": ("ClusterProfile", "PlacementResult", "compare_placements",
                  "evaluate_placement"),
    "stream": ("ERROR_POLICIES", "ByteRecordBatch", "IngestStats",
               "SortBuffer", "clip_window", "decode_lines", "frame_records",
               "read_byte_batch", "read_log", "read_truth", "sorted_stream",
               "split_by_node", "write_log", "write_truth"),
    "systems": ("ALL_SYSTEMS", "HPC1", "HPC2", "HPC3", "HPC4", "SystemConfig",
                "system_by_name"),
    "topology": ("ClusterTopology", "NodeName"),
})
__all__.append("SIMULATOR_AVAILABLE")


def __getattr__(name: str):
    if name == "SIMULATOR_AVAILABLE":
        try:
            from . import generator  # noqa: F401
        except ImportError:
            available = False
        else:
            available = True
        globals()[name] = available
        return available
    return _getattr(name)
