"""Declarative alert rules over the history ring.

Alert rules are the one place that decides what counts as an anomaly.
A rule is a plain dict (or one ``[[rule]]`` table in a TOML file)
naming a series selector, a window expression from the
:class:`~repro.obs.history.HistoryRing` query kit, a comparison, a
``for:`` hold duration, and a severity.

:class:`RuleEngine` evaluates every rule on the history capture
cadence and runs the Prometheus-shaped state machine per rule::

    inactive ──breach──▶ pending ──held ``for:``──▶ firing
        ▲                   │                          │
        └───────clear───────┘          clear──▶ resolved ──breach──▶ pending

Newly-firing rules feed ``FlightRecorder.trigger`` (reason
``alert_rule``, sticky per rule id) with the rule's recent history
embedded in the capsule, and ``/healthz`` fails whenever a
``severity = "page"`` rule is firing — healthz and ``/alerts`` read the
same state, so they can never disagree.

:data:`DEFAULT_RULES` is what a flight recorder arms when given no
other rules; the TOML form (``load_rules``) needs only a stdlib parser
(``tomllib`` on 3.11+, a minimal fallback below it) so rule files work
everywhere the CLI does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .names import (
    ALL_SERIES,
    DAEMON_BACKPRESSURE_STALLS,
    DAEMON_HANDOFFS,
    DAEMON_SHARDS_DOWN,
    DISCARD_DRIFT_TRIPPED,
    INGEST_QUARANTINE_BURN,
    PREDICTIONS,
    SLO_BURN,
)

EXPRS = (
    "rate", "increase", "avg_over_time", "max_over_time",
    "min_over_time", "latest", "absent",
)
OPS = (">", ">=", "<", "<=", "==")
SEVERITIES = ("page", "warn", "info")
STATES = ("inactive", "pending", "firing", "resolved")

_OP_FN = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: *expr(series[labels], window) op threshold,
    held for ``hold`` seconds → fire at ``severity``*."""

    id: str
    series: str
    expr: str
    threshold: float = 0.0
    op: str = ">"
    window: Optional[float] = None
    hold: float = 0.0          # the rule file's ``for`` key
    severity: str = "warn"
    labels: Dict[str, str] = field(default_factory=dict)
    summary: str = ""

    @classmethod
    def from_dict(cls, raw: dict) -> "AlertRule":
        problems = validate_rule(raw)
        if problems:
            raise ValueError(
                f"invalid alert rule {raw.get('id', '?')!r}: "
                + "; ".join(problems))
        return cls(
            id=raw["id"],
            series=raw["series"],
            expr=raw["expr"],
            threshold=float(raw.get("threshold", 0.0)),
            op=raw.get("op", ">"),
            window=(float(raw["window"]) if raw.get("window") is not None
                    else None),
            hold=float(raw.get("for", 0.0)),
            severity=raw.get("severity", "warn"),
            labels=dict(raw.get("labels", {})),
            summary=raw.get("summary", ""),
        )

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "series": self.series,
            "expr": self.expr,
            "threshold": self.threshold,
            "op": self.op,
            "for": self.hold,
            "severity": self.severity,
            "summary": self.summary,
        }
        if self.window is not None:
            out["window"] = self.window
        if self.labels:
            out["labels"] = dict(self.labels)
        return out

    def evaluate(self, ring) -> Tuple[float, bool]:
        """``(value, breached)`` against a HistoryRing."""
        if self.expr == "absent":
            absent = ring.absent(self.series, self.window, self.labels)
            return (1.0 if absent else 0.0), absent
        if self.expr == "latest":
            value = ring.latest(self.series, self.labels)
        else:
            value = getattr(ring, self.expr)(
                self.series, self.window, self.labels)
        return value, _OP_FN[self.op](value, self.threshold)


# -- validation / linting (``aarohi obs-rules --check``) ---------------
def validate_rule(
    raw: dict, known_series: Sequence[str] = ALL_SERIES
) -> List[str]:
    """Problems with one raw rule dict (empty list = clean)."""
    problems: List[str] = []
    if not isinstance(raw, dict):
        return [f"rule must be a table/dict, got {type(raw).__name__}"]
    rule_id = raw.get("id")
    if not rule_id or not isinstance(rule_id, str):
        problems.append("missing rule id")
    series = raw.get("series")
    if not series or not isinstance(series, str):
        problems.append("missing series")
    elif known_series and series not in known_series:
        problems.append(f"unknown series {series!r}")
    expr = raw.get("expr")
    if expr not in EXPRS:
        problems.append(
            f"malformed expr {expr!r} (one of {', '.join(EXPRS)})")
    op = raw.get("op", ">")
    if op not in OPS:
        problems.append(f"malformed op {op!r} (one of {', '.join(OPS)})")
    for numeric in ("threshold", "window", "for"):
        value = raw.get(numeric)
        if value is not None and not isinstance(value, (int, float)):
            problems.append(f"{numeric} must be a number, got {value!r}")
    window = raw.get("window")
    if isinstance(window, (int, float)) and window <= 0:
        problems.append("window must be positive")
    hold = raw.get("for")
    if isinstance(hold, (int, float)) and hold < 0:
        problems.append("for must be >= 0")
    severity = raw.get("severity", "warn")
    if severity not in SEVERITIES:
        problems.append(
            f"unknown severity {severity!r} (one of {', '.join(SEVERITIES)})")
    labels = raw.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in labels.items()
    ):
        problems.append("labels must be a table of string pairs")
    known_keys = {
        "id", "series", "expr", "threshold", "op", "window", "for",
        "severity", "labels", "summary",
    }
    for key in sorted(set(raw) - known_keys):
        problems.append(f"unknown key {key!r}")
    return problems


def validate_rules(
    raw_rules: Sequence[dict], known_series: Sequence[str] = ALL_SERIES
) -> List[str]:
    """Lint a whole ruleset: per-rule problems plus duplicate ids."""
    problems: List[str] = []
    seen: Dict[str, int] = {}
    for i, raw in enumerate(raw_rules):
        rule_id = raw.get("id") if isinstance(raw, dict) else None
        label = rule_id or f"#{i + 1}"
        for problem in validate_rule(raw, known_series):
            problems.append(f"rule {label}: {problem}")
        if rule_id:
            if rule_id in seen:
                problems.append(
                    f"rule {label}: duplicate rule id "
                    f"(first defined as rule #{seen[rule_id] + 1})")
            else:
                seen[rule_id] = i
    if not raw_rules:
        problems.append("ruleset is empty")
    return problems


# -- TOML loading ------------------------------------------------------
def _parse_toml_rules(text: str) -> List[dict]:
    """Parse a ``[[rule]]`` TOML document into raw rule dicts.

    Uses :mod:`tomllib` when available (3.11+); below that, a minimal
    parser covering exactly the rule-file subset — ``[[rule]]`` array
    headers, ``[rule.labels]`` sub-tables, and scalar ``key = value``
    pairs (strings, numbers, booleans) — so rule files keep working on
    every supported interpreter without a third-party dependency.
    """
    try:
        import tomllib
    except ImportError:
        tomllib = None
    if tomllib is not None:
        data = tomllib.loads(text)
    else:
        data = _mini_toml(text)
    rules = data.get("rule", [])
    if not isinstance(rules, list):
        raise ValueError("TOML rules file must use [[rule]] tables")
    return rules


def _mini_toml(text: str) -> dict:
    """The fallback TOML-subset parser (see ``_parse_toml_rules``)."""
    data: dict = {}
    target: Optional[dict] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            target = {}
            data.setdefault(name, []).append(target)
            continue
        if line.startswith("[") and line.endswith("]"):
            path = line[1:-1].strip().split(".")
            if len(path) != 2 or not data.get(path[0]):
                raise ValueError(
                    f"line {lineno}: unsupported table {line!r}")
            sub: dict = {}
            data[path[0]][-1][path[1]] = sub
            target = sub
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        if target is None:
            raise ValueError(
                f"line {lineno}: key outside any [[rule]] table")
        key, _, value = line.partition("=")
        target[key.strip()] = _mini_toml_value(value.strip(), lineno)
    return data


def _mini_toml_value(token: str, lineno: int):
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    if token in ("true", "false"):
        return token == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"line {lineno}: unsupported value {token!r}") from None


def load_raw_rules(
    source: Union[str, Path, Sequence[dict]]
) -> List[dict]:
    """Rule dicts from a ruleset source: already-parsed dicts, the
    literal name ``"default"``, a TOML file path, or TOML text."""
    if isinstance(source, (list, tuple)):
        return [dict(raw) for raw in source]
    if isinstance(source, Path):
        return _parse_toml_rules(source.read_text(encoding="utf-8"))
    if isinstance(source, str):
        if source == "default":
            return [dict(raw) for raw in DEFAULT_RULES]
        if "[[rule]]" in source:
            return _parse_toml_rules(source)
        return _parse_toml_rules(Path(source).read_text(encoding="utf-8"))
    raise TypeError(f"unsupported rules source: {type(source).__name__}")


def load_rules(
    source: Union[str, Path, Sequence[dict]]
) -> List[AlertRule]:
    """Parse + validate a ruleset source into :class:`AlertRule`\\ s."""
    raw_rules = load_raw_rules(source)
    problems = validate_rules(raw_rules)
    if problems:
        raise ValueError("invalid ruleset: " + "; ".join(problems))
    return [AlertRule.from_dict(raw) for raw in raw_rules]


def rules_to_toml(raw_rules: Sequence[dict]) -> str:
    """Render rule dicts as a ``[[rule]]`` TOML document (the inverse
    of ``load_raw_rules``, used by ``obs-rules --print-default``)."""
    lines: List[str] = []
    for raw in raw_rules:
        lines.append("[[rule]]")
        labels = raw.get("labels")
        for key in ("id", "series", "expr", "op", "threshold", "window",
                    "for", "severity", "summary"):
            if key not in raw or raw[key] is None:
                continue
            value = raw[key]
            if isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, str):
                rendered = '"' + value.replace('"', '\\"') + '"'
            else:
                rendered = repr(float(value) if isinstance(value, float)
                                else value)
            lines.append(f"{key} = {rendered}")
        if labels:
            lines.append("")
            lines.append("[rule.labels]")
            for k, v in sorted(labels.items()):
                lines.append(f'{k} = "{v}"')
        lines.append("")
    return "\n".join(lines)


# The shipped ruleset, and the flight recorder's triggers unless the
# caller arms others: deadline burn, quarantine burn and discard drift,
# plus the liveness check no point-in-time surface can ask ("is this
# fleet predicting *at all*?").
DEFAULT_RULES: Tuple[dict, ...] = (
    {
        "id": "deadline-burn",
        "series": SLO_BURN,
        "expr": "max_over_time",
        "op": ">",
        "threshold": 1.0,
        "window": 60.0,
        "for": 1.0,
        "severity": "page",
        "summary": "prediction deadline SLO burning (budget exceeded)",
    },
    {
        "id": "quarantine-burn",
        "series": INGEST_QUARANTINE_BURN,
        "expr": "max_over_time",
        "op": ">",
        "threshold": 1.0,
        "window": 60.0,
        "for": 1.0,
        "severity": "page",
        "summary": "ingest quarantine fraction over the allowed SLO",
    },
    {
        "id": "discard-drift",
        "series": DISCARD_DRIFT_TRIPPED,
        "expr": "latest",
        "op": ">=",
        "threshold": 1.0,
        "for": 0.0,
        "severity": "page",
        "summary": "scanner discard-fraction CUSUM tripped (catalog drift)",
    },
    {
        "id": "prediction-absence",
        "series": PREDICTIONS,
        "expr": "increase",
        "op": "==",
        "threshold": 0.0,
        "window": 300.0,
        "for": 60.0,
        "severity": "warn",
        "summary": "no predictions flagged over the trailing window",
    },
)


def default_ruleset() -> List[AlertRule]:
    return [AlertRule.from_dict(dict(raw)) for raw in DEFAULT_RULES]


# Service-plane rules for ``aarohi serve``: layered *on top of* the
# default rules (kept separate so batch runs never see shard series
# that, for them, can only be absent).
DAEMON_RULES: Tuple[dict, ...] = (
    {
        "id": "shard-down",
        "series": DAEMON_SHARDS_DOWN,
        "expr": "latest",
        "op": ">=",
        "threshold": 1.0,
        "for": 0.0,
        "severity": "page",
        "summary": "a worker shard is down (takeover in progress)",
    },
    {
        "id": "handoff-spike",
        "series": DAEMON_HANDOFFS,
        "expr": "increase",
        "op": ">=",
        "threshold": 3.0,
        "window": 300.0,
        "for": 0.0,
        "severity": "warn",
        "summary": "repeated shard handoffs — workers are crash-looping",
    },
    {
        "id": "backpressure-sustained",
        "series": DAEMON_BACKPRESSURE_STALLS,
        "expr": "increase",
        "op": ">",
        "threshold": 0.0,
        "window": 60.0,
        "for": 30.0,
        "severity": "warn",
        "summary": "ingest running against the backpressure high-water",
    },
)


def daemon_ruleset() -> List[AlertRule]:
    """The default rules plus the daemon's shard/handoff/backpressure
    rules — what ``aarohi serve`` arms its RuleEngine with."""
    return [
        AlertRule.from_dict(dict(raw))
        for raw in DEFAULT_RULES + DAEMON_RULES
    ]


class RuleState:
    """Mutable per-rule alert state (the /alerts row)."""

    __slots__ = (
        "state", "value", "since", "pending_since", "firing_since",
        "resolved_since", "transitions",
    )

    def __init__(self):
        self.state = "inactive"
        self.value = 0.0
        self.since: Optional[float] = None
        self.pending_since: Optional[float] = None
        self.firing_since: Optional[float] = None
        self.resolved_since: Optional[float] = None
        self.transitions = 0

    def _move(self, state: str, now: float) -> None:
        self.state = state
        self.since = now
        self.transitions += 1
        if state == "pending":
            self.pending_since = now
        elif state == "firing":
            self.firing_since = now
        elif state == "resolved":
            self.resolved_since = now

    def as_dict(self) -> dict:
        return {
            "state": self.state,
            "value": self.value,
            "since": self.since,
            "pending_since": self.pending_since,
            "firing_since": self.firing_since,
            "resolved_since": self.resolved_since,
            "transitions": self.transitions,
        }


class RuleEngine:
    """Evaluate a ruleset against a HistoryRing on each capture.

    ``evaluate`` returns the per-call transition list; the facade turns
    ``→ firing`` transitions into flight capsules and mirrors state
    into the ``aarohi_alert_*`` series.
    """

    def __init__(self, rules: Union[str, Path, Sequence]):
        if isinstance(rules, (list, tuple)) and rules and isinstance(
                rules[0], AlertRule):
            self.rules: List[AlertRule] = list(rules)
        else:
            self.rules = load_rules(rules)
        ids = [rule.id for rule in self.rules]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate rule ids")
        self.states: Dict[str, RuleState] = {
            rule.id: RuleState() for rule in self.rules}
        self.evaluations = 0
        self.last_eval: Optional[float] = None

    def rule(self, rule_id: str) -> AlertRule:
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(rule_id)

    def evaluate(self, ring, now: Optional[float] = None) -> List[dict]:
        """One evaluation pass; returns transition records
        ``{"rule", "from", "to", "value", "at"}`` in rule order."""
        if now is None:
            now = ring.end_time if ring.end_time is not None else 0.0
        self.evaluations += 1
        self.last_eval = now
        transitions: List[dict] = []

        def move(rule, state, to):
            prev = state.state
            state._move(to, now)
            transitions.append({
                "rule": rule.id, "from": prev, "to": to,
                "value": state.value, "at": now,
            })

        for rule in self.rules:
            state = self.states[rule.id]
            value, breached = rule.evaluate(ring)
            state.value = value
            if breached:
                if state.state in ("inactive", "resolved"):
                    move(rule, state, "pending")
                if (
                    state.state == "pending"
                    and now - state.pending_since >= rule.hold
                ):
                    move(rule, state, "firing")
            else:
                if state.state == "pending":
                    move(rule, state, "inactive")
                elif state.state == "firing":
                    move(rule, state, "resolved")
        return transitions

    def firing(self) -> List[AlertRule]:
        return [
            rule for rule in self.rules
            if self.states[rule.id].state == "firing"
        ]

    def report(self) -> dict:
        """The ``/alerts`` payload body."""
        return {
            "evaluations": self.evaluations,
            "last_eval": self.last_eval,
            "firing": sorted(r.id for r in self.firing()),
            "rules": [
                dict(rule.as_dict(), **self.states[rule.id].as_dict())
                for rule in self.rules
            ],
        }
