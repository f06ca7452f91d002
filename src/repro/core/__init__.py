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

from .adaptive import AdaptationEvent, AdaptiveFleet
from .audit import AuditLog, AuditRecord, read_audit_log
from .chains import ChainSet, FailureChain, common_subchains
from .daemon import DaemonReport, FleetDaemon, shard_of
from .events import LogEvent, NodeFailure, Prediction, Severity, TokenEvent
from .fleet import FleetReport, PredictorFleet
from .grammar_builder import build_chain_tables, factored_grammar, flat_grammar
from .leadtime import LeadTimeRecord, LeadTimeReport, pair_predictions
from .matcher import ChainMatcher, Match, MatcherStats, OracleTracker
from .predictor import AarohiPredictor, PredictorStats
from .rules import ChainRule, FactoredRule, RuleSet, build_rules

__all__ = [
    "AarohiPredictor",
    "AdaptationEvent",
    "AdaptiveFleet",
    "AuditLog",
    "AuditRecord",
    "ChainMatcher",
    "ChainRule",
    "ChainSet",
    "DaemonReport",
    "FactoredRule",
    "FleetDaemon",
    "FailureChain",
    "FleetReport",
    "LeadTimeRecord",
    "LeadTimeReport",
    "LogEvent",
    "Match",
    "MatcherStats",
    "NodeFailure",
    "OracleTracker",
    "Prediction",
    "PredictorFleet",
    "PredictorStats",
    "RuleSet",
    "Severity",
    "TokenEvent",
    "build_chain_tables",
    "build_rules",
    "common_subchains",
    "factored_grammar",
    "flat_grammar",
    "pair_predictions",
    "shard_of",
    "read_audit_log",
]
