"""The Aarohi online predictor (Phase 2, Algorithm 2).

Pipeline per log event: anchored template scan (generated lexer) →
discard if the phrase belongs to no failure chain → feed the token to
the rule-checking backend → emit a :class:`Prediction` on a complete
rule match.

Two interchangeable, cross-validated backends:

* ``backend="matcher"`` — the optimized direct :class:`ChainMatcher`
  (what the paper's measured numbers correspond to);
* ``backend="lalr"`` — a generated LALR(1) parser driven through
  :class:`~repro.parsegen.runtime.StreamingParser`, with token skips
  implemented as non-destructive rejections and ΔT timeouts as parser
  resets; the compiler-architecture path of Fig. 6.

Prediction time is measured per completed match: the cumulative
tokenize+feed cost of the phrases participating in the chain check
since the last reset (the paper's "time taken to check if a variable
length sequence of phrases matches any of the FCs").
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, fields, replace
from typing import Callable, List, Literal, Optional

from ..obs import Observability, PREDICTION_SECONDS
from ..obs.tracing import (
    CHAIN_STARTED,
    DELTA_T_TIMEOUT,
    PARSER_RESET,
    PREDICTION_FIRED,
    TOKEN_ADVANCED,
)
from ..parsegen import END, FeedResult, StreamingParser
from .chains import ChainSet
from .events import LogEvent, Prediction
from .grammar_builder import terminal_name
from .matcher import ChainMatcher, Match, MatcherStats

Tokenizer = Callable[[str], Optional[int]]
Backend = Literal["matcher", "lalr"]


@dataclass
class PredictorStats:
    lines_seen: int = 0
    lines_tokenized: int = 0  # FC-related phrases (Fig. 12 numerator)
    predictions: int = 0
    tokenize_seconds: float = 0.0
    feed_seconds: float = 0.0

    @property
    def fc_related_fraction(self) -> float:
        if not self.lines_seen:
            return 0.0
        return self.lines_tokenized / self.lines_seen

    # -- windowed accounting (snapshot → work → diff) ------------------
    def snapshot(self) -> "PredictorStats":
        """An immutable-by-convention copy of the current totals."""
        return replace(self)

    def diff(self, since: "PredictorStats") -> "PredictorStats":
        """Field-wise delta of this snapshot against an earlier one —
        the 'this run only' accounting used by :class:`~.fleet.FleetReport`."""
        return PredictorStats(**{
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in fields(self)
        })

    def add(self, other: "PredictorStats") -> None:
        """Accumulate another stats record in place (fleet aggregation,
        worker→parent merging in :class:`~.daemon.FleetDaemon`)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class AarohiPredictor:
    """Per-node online failure predictor.

    Use :meth:`process` for raw log events (scan + parse) or
    :meth:`feed_token` when events are pre-tokenized.
    """

    def __init__(
        self,
        chains: ChainSet,
        tokenizer: Tokenizer,
        *,
        timeout: Optional[float] = None,
        backend: Backend = "matcher",
        node: str = "",
        clock: Callable[[], float] = _time.perf_counter,
        obs: Optional[Observability] = None,
    ):
        self.chains = chains
        self.tokenizer = tokenizer
        self.node = node
        self.backend: Backend = backend
        self.stats = PredictorStats()
        self._clock = clock
        self._chain_cost = 0.0  # accumulated check time for current chain
        if backend == "matcher":
            self._engine: _Engine = _MatcherEngine(chains, timeout)
        elif backend == "lalr":
            self._engine = _LalrEngine(chains, timeout)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        # Observability is opt-in: with obs=None the prediction path has
        # exactly one extra None-check, taken only when a match fires.
        self._obs_emit: Optional[Callable[[Prediction], None]] = None
        if obs is not None:
            self._obs_emit = self._make_obs_emit(obs)
            if obs.tracer is not None:
                self._engine.set_tracer(obs.tracer, node)

    def _make_obs_emit(self, obs: Observability) -> Callable[[Prediction], None]:
        """Build the per-prediction recording hook (latency histogram +
        prediction_fired trace).  Predictions are rare, so this hook may
        allocate; it never runs for discarded or skipped lines."""
        hist = obs.registry.histogram(
            PREDICTION_SECONDS,
            "per-prediction chain-check latency (seconds)",
            **obs.labels,
        )
        tracer = obs.tracer
        live = obs.live

        def emit(prediction: Prediction) -> None:
            hist.observe(prediction.prediction_time)
            if live is not None:
                live.observe_prediction(prediction.prediction_time)
            if tracer is not None:
                tracer.emit(
                    PREDICTION_FIRED,
                    prediction.node,
                    chain=prediction.chain_id,
                    t=prediction.flagged_at,
                    prediction_time=prediction.prediction_time,
                    n_tokens=len(prediction.matched_tokens),
                )

        return emit

    @classmethod
    def from_store(
        cls,
        chains: ChainSet,
        store,
        *,
        optimized: bool = True,
        **kwargs,
    ) -> "AarohiPredictor":
        """Wire a predictor whose scanner is generated from a
        :class:`~repro.templates.store.TemplateStore`, restricted to
        FC-related templates (non-FC phrases are never tokenized).  With
        ``obs=`` in ``kwargs`` the scanner is compiled in counting mode
        so its rejection funnel is observable."""
        if optimized:
            scanner = store.compile_scanner(
                keep=chains.token_set,
                counting=kwargs.get("obs") is not None,
            )
        else:
            from ..templates.store import NaiveTemplateScanner

            scanner = NaiveTemplateScanner(store, keep=chains.token_set)
        return cls(chains, scanner.tokenize, **kwargs)

    # -- processing ------------------------------------------------------
    def process(self, event: LogEvent) -> Optional[Prediction]:
        """Scan + parse one raw log event."""
        clock = self._clock
        self.stats.lines_seen += 1
        t0 = clock()
        token = self.tokenizer(event.message)
        t1 = clock()
        self.stats.tokenize_seconds += t1 - t0
        if token is None or not self.chains.is_relevant(token):
            # Not FC-related: discarded during lexical scanning.  The
            # scan cost still counts toward the running chain check.
            self._chain_cost += t1 - t0
            return None
        self.stats.lines_tokenized += 1
        return self._feed(token, event.time, t1 - t0)

    def feed_token(self, token: int, event_time: float) -> Optional[Prediction]:
        """Feed a pre-tokenized phrase (used by token-level benches)."""
        return self._feed(token, event_time, 0.0)

    def _feed(self, token: int, event_time: float, scan_cost: float) -> Optional[Prediction]:
        clock = self._clock
        t0 = clock()
        match = self._engine.feed(token, event_time)
        cost = clock() - t0
        self.stats.feed_seconds += cost
        self._chain_cost += scan_cost + cost
        if match is None:
            return None
        prediction_time = self._chain_cost
        self._chain_cost = 0.0
        self.stats.predictions += 1
        prediction = Prediction(
            node=self.node,
            chain_id=match.chain_id,
            flagged_at=match.end_time,
            prediction_time=prediction_time,
            matched_tokens=match.tokens,
        )
        if self._obs_emit is not None:
            self._obs_emit(prediction)
        return prediction

    def reset(self) -> None:
        self._engine.reset()
        self._chain_cost = 0.0

    # -- state handoff ---------------------------------------------------
    def state_snapshot(self) -> Optional[dict]:
        """Serializable in-flight state: the engine's chain progress plus
        the accumulated chain-check cost.  ``None`` when there is nothing
        worth shipping (idle engine, zero cost) — the common case, so a
        fleet snapshot only carries nodes that are mid-chain."""
        engine_state = self._engine.state_snapshot()
        if engine_state is None and self._chain_cost == 0.0:
            return None
        return {
            "backend": self.backend,
            "engine": engine_state,
            "chain_cost": self._chain_cost,
        }

    def restore_state(self, state: Optional[dict]) -> None:
        """Adopt a :meth:`state_snapshot` from an equivalent predictor
        (same chains, same backend) — the worker-handoff path."""
        if state is None:
            self._engine.restore_state(None)
            self._chain_cost = 0.0
            return
        backend = state.get("backend", self.backend)
        if backend != self.backend:
            raise ValueError(
                f"snapshot from backend {backend!r} cannot restore into "
                f"a {self.backend!r} predictor")
        self._engine.restore_state(state["engine"])
        self._chain_cost = float(state.get("chain_cost", 0.0))


class _Engine:
    def feed(self, token: int, time: float) -> Optional[Match]:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def set_tracer(self, tracer, node: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def state_snapshot(self) -> Optional[dict]:  # pragma: no cover
        raise NotImplementedError

    def restore_state(self, state: Optional[dict]) -> None:  # pragma: no cover
        raise NotImplementedError

    @property
    def stats(self) -> MatcherStats:  # pragma: no cover
        raise NotImplementedError


class _MatcherEngine(_Engine):
    def __init__(self, chains: ChainSet, timeout: Optional[float]):
        self.matcher = ChainMatcher(chains, timeout)
        # The hot path calls the matcher directly, not through a
        # forwarding method.
        self.feed = self.matcher.feed

    def reset(self) -> None:
        self.matcher.reset()

    def set_tracer(self, tracer, node: str) -> None:
        self.matcher.set_tracer(tracer, node)

    def state_snapshot(self) -> Optional[dict]:
        return self.matcher.state_snapshot()

    def restore_state(self, state: Optional[dict]) -> None:
        self.matcher.restore_state(state)

    @property
    def stats(self) -> MatcherStats:
        return self.matcher.stats


class _LalrEngine(_Engine):
    """Algorithm 2 on top of the generated LALR parser.

    The streaming parser rejects non-viable tokens without touching the
    stack (= skip).  A complete FC has been consumed exactly when the
    parser would accept ``$end``; at that point we feed ``$end`` to run
    the semantic action, read the chain id, and reset.
    """

    def __init__(self, chains: ChainSet, timeout: Optional[float]):
        self.chains = chains
        self.timeout = chains.suggest_timeout() if timeout is None else timeout
        self.tables = chains.lalr_tables
        self.parser = StreamingParser(self.tables)
        self._last_time = 0.0
        self._start_time = 0.0
        self._tokens: List[int] = []
        # token id → terminal name, interned once (the scanner emits a
        # small closed vocabulary, so this never grows unbounded).
        self._names = {t: terminal_name(t) for t in chains.token_set}
        self._stats = MatcherStats()
        self._tracer = None
        self._trace_node = ""
        self._trace_chain = False

    @property
    def stats(self) -> MatcherStats:
        return self._stats

    def set_tracer(self, tracer, node: str = "") -> None:
        self._tracer = tracer
        self._trace_node = node

    def feed(self, token: int, time: float) -> Optional[Match]:
        parser = self.parser
        stats = self._stats
        tracer = self._tracer
        stats.fed += 1
        active = parser.depth > 0
        if active and time < self._last_time:
            # Negative-ΔT clamp, identical to ChainMatcher's policy:
            # never rewind the chain clock, count the occurrence.
            stats.negative_dt += 1
            time = self._last_time
        if active and time - self._last_time > self.timeout:
            stats.resets_timeout += 1
            if tracer is not None and self._trace_chain:
                # Mid-parse the LALR configuration does not name one
                # chain, so the timeout record carries no chain id.
                tracer.emit(
                    DELTA_T_TIMEOUT,
                    self._trace_node,
                    token=token,
                    t=time,
                    gap=time - self._last_time,
                )
            self._trace_chain = False
            parser.reset()
            self._tokens.clear()
            active = False
        name = self._names.get(token)
        if name is None:
            name = self._names[token] = terminal_name(token)
        result = parser.feed(name, token)
        if result is FeedResult.ERROR:
            stats.skipped += 1
            return None  # skip (mid-chain mismatch or irrelevant start)
        if not active:
            self._start_time = time
            stats.activations += 1
            if tracer is not None:
                self._trace_chain = tracer.sample_chain()
                if self._trace_chain:
                    tracer.emit(
                        CHAIN_STARTED, self._trace_node, token=token, t=time)
        else:
            stats.advanced += 1
            if tracer is not None and self._trace_chain:
                tracer.emit(
                    TOKEN_ADVANCED,
                    self._trace_node,
                    token=token,
                    t=time,
                    pos=len(self._tokens) + 1,
                )
        self._last_time = time
        self._tokens.append(token)
        # Probe-free completion check: feed($end) directly — rejection
        # is non-destructive, so a mid-chain configuration is untouched,
        # and acceptance replaces the old would_accept+feed double walk.
        if parser.feed(END) is FeedResult.ACCEPTED:
            chain_id = parser.result  # set by the accept action
            tokens = tuple(self._tokens)
            parser.reset()
            self._tokens.clear()
            stats.matches += 1
            self._trace_chain = False
            return Match(
                chain_id=chain_id,
                start_time=self._start_time,
                end_time=time,
                tokens=tokens,
            )
        return None

    def reset(self) -> None:
        tracer = self._tracer
        if tracer is not None and self._trace_chain and self.parser.depth > 0:
            tracer.emit(PARSER_RESET, self._trace_node, cause="manual")
        self._trace_chain = False
        self.parser.reset()
        self._tokens.clear()

    def state_snapshot(self) -> Optional[dict]:
        """The LALR configuration is reconstructible from the consumed
        token sequence (every fed token was a non-ERROR transition), so
        the snapshot ships the token list, not the parser stack."""
        if self.parser.depth == 0:
            return None
        return {
            "tokens": list(self._tokens),
            "last_time": self._last_time,
            "start_time": self._start_time,
        }

    def restore_state(self, state: Optional[dict]) -> None:
        """Rebuild the mid-chain configuration by replaying the
        snapshot's tokens through a reset parser — deterministic, and
        immune to parser-stack representation changes across versions.
        Stats are untouched: the replayed transitions were already
        counted by the process that took the snapshot."""
        self._trace_chain = False
        self.parser.reset()
        self._tokens.clear()
        if state is None:
            return
        parser = self.parser
        names = self._names
        for tok in state["tokens"]:
            name = names.get(tok)
            if name is None:
                name = names[tok] = terminal_name(tok)
            if parser.feed(name, tok) is FeedResult.ERROR:
                parser.reset()
                self._tokens.clear()
                raise ValueError(
                    f"token {tok} does not replay into a viable LALR "
                    f"configuration (incompatible chain set?)")
            self._tokens.append(tok)
        self._last_time = float(state["last_time"])
        self._start_time = float(state["start_time"])
