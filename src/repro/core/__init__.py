"""Aarohi's core: the paper's primary contribution.

* :mod:`.events` — log/token/prediction event model (Table III)
* :mod:`.chains` — failure chains, the Phase-1 → Phase-2 interface
* :mod:`.rules` — Algorithm 1: FCs → token list + rule list (+ LALR factoring)
* :mod:`.grammar_builder` — rule sets → executable LALR grammars (Table IV)
* :mod:`.matcher` — Algorithm 2's O(1)-per-token rule checker
* :mod:`.predictor` — the online predictor (scan → tokenize → parse → flag)
* :mod:`.fleet` — per-node predictor instances over a cluster stream
* :mod:`.daemon` — persistent sharded live-ingest service (``aarohi serve``)
* :mod:`.leadtime` — prediction↔failure pairing and lead-time metrics
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive": ("AdaptationEvent", "AdaptiveFleet"),
    "audit": ("AuditLog", "AuditRecord", "read_audit_log"),
    "chains": ("ChainSet", "FailureChain", "common_subchains"),
    "daemon": ("DaemonReport", "FleetDaemon", "shard_of"),
    "events": ("LogEvent", "NodeFailure", "Prediction", "Severity",
               "TokenEvent"),
    "fleet": ("FleetReport", "PredictorFleet"),
    "grammar_builder": ("build_chain_tables", "factored_grammar",
                        "flat_grammar"),
    "leadtime": ("LeadTimeRecord", "LeadTimeReport", "pair_predictions"),
    "matcher": ("ChainMatcher", "Match", "MatcherStats", "OracleTracker"),
    "predictor": ("AarohiPredictor", "PredictorStats"),
    "rules": ("ChainRule", "FactoredRule", "RuleSet", "build_rules"),
})
