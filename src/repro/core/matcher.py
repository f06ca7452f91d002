"""Algorithm 2's rule-checking engine over token events.

:class:`ChainMatcher` is the optimized direct implementation used by the
evaluation: per-node state is three integers (active rule, position,
last-match time), and each token costs O(1) — an equality check against
the expected next token plus dispatch on chain-starting tokens.  Its
semantics follow Algorithm 2 exactly:

* a token starting some rule activates that rule (first match wins);
* a token equal to the active rule's expected next token advances it;
* any other token is **skipped** while the gap since the last matched
  token stays within the ΔT timeout (#12);
* a timeout violation resets the parser, restarting at the current
  token (#13);
* completing a rule flags a prediction and resets, continuing with the
  next phrase after the match.

**Negative-ΔT policy** (ingest hardening): merged real-world streams
carry clock skew, so a token can arrive with a timestamp *behind* the
chain's last matched token.  Rewinding the chain clock would corrupt
ΔT state (a later in-order token could be seen as a huge gap → bogus
timeout) and inflate lead times (``flagged_at`` earlier than the events
that produced it).  All engines apply the same explicit policy: the
backwards time is **clamped** to the last-match time (ΔT = 0, clock
never rewinds), and ``stats.negative_dt`` counts the occurrence — never
a silent state corruption.  The lalr backend in
:mod:`repro.core.predictor` implements the identical clamp; the
differential suite cross-validates them.

:class:`OracleTracker` runs every rule concurrently (what a hypothetical
multi-parser would do); the Table V experiment compares it to
:class:`ChainMatcher` to count interleavings and check that the
first-match policy misses no failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..obs.tracing import (
    CHAIN_STARTED,
    DELTA_T_TIMEOUT,
    PARSER_RESET,
    TOKEN_ADVANCED,
)
from .chains import ChainSet


@dataclass
class MatcherStats:
    """Counters describing one matcher's life (used by Table V / Fig 12)."""

    fed: int = 0
    advanced: int = 0
    skipped: int = 0
    interleaved_skips: int = 0  # skipped tokens that belong to some other rule
    resets_timeout: int = 0
    matches: int = 0
    activations: int = 0
    negative_dt: int = 0  # backwards timestamps clamped to the chain clock


@dataclass(frozen=True, slots=True)
class Match:
    """A completed rule match."""

    chain_id: str
    start_time: float  # arrival of the first matched phrase
    end_time: float  # arrival of the phrase completing the match
    tokens: Tuple[int, ...]


class ChainMatcher:
    """Single-rule-at-a-time matcher (Aarohi's policy) for one node."""

    __slots__ = (
        "chains",
        "timeout",
        "stats",
        "_first_of",
        "_sequences",
        "_chain_ids",
        "_token_owner",
        "_active",
        "_pos",
        "_last_time",
        "_start_time",
        "_tracer",
        "_trace_node",
        "_trace_chain",
    )

    def __init__(self, chains: ChainSet, timeout: Optional[float] = None):
        self.chains = chains
        self.timeout = chains.suggest_timeout() if timeout is None else timeout
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        self.stats = MatcherStats()
        # The chain set's dense rule tables, shared read-only.
        self._sequences = chains.sequences
        self._chain_ids = chains.chain_ids
        self._first_of = chains.first_of
        self._token_owner = chains.token_owner
        self._active: int = -1
        self._pos: int = 0
        self._last_time: float = 0.0
        self._start_time: float = 0.0
        # Lifecycle tracing (off by default: one None-check per feed).
        self._tracer = None
        self._trace_node = ""
        self._trace_chain = False  # is the *current* chain sampled?

    # -- state ---------------------------------------------------------
    @property
    def active_chain(self) -> Optional[str]:
        return self._chain_ids[self._active] if self._active >= 0 else None

    @property
    def position(self) -> int:
        return self._pos

    def set_tracer(self, tracer, node: str = "") -> None:
        """Attach a lifecycle :class:`~repro.obs.tracing.Tracer`.

        Lifecycle events (started / advanced / timeout) are emitted for
        chains the tracer samples; with no tracer attached the hot path
        pays one ``None``-check per fed token.
        """
        self._tracer = tracer
        self._trace_node = node

    def state_snapshot(self) -> Optional[dict]:
        """Serializable matcher state, or ``None`` when no chain is
        active.

        The whole per-node state is four scalars (§III: "per-node state
        is three integers"), so a snapshot is a tiny JSON-safe dict keyed
        by the *chain id string* — never the rule index, which is an
        artifact of catalog ordering and would silently mis-restore
        across a reordered (but semantically identical) chain set.
        """
        if self._active < 0:
            return None
        return {
            "chain": self._chain_ids[self._active],
            "pos": self._pos,
            "last_time": self._last_time,
            "start_time": self._start_time,
        }

    def restore_state(self, state: Optional[dict]) -> None:
        """Adopt a :meth:`state_snapshot` taken from an equivalent
        matcher (same chain set), e.g. on worker handoff.

        ``None`` restores the idle state.  Tracing does not survive a
        handoff — the chain re-enters the sampling lottery on its next
        activation rather than pretending continuity across processes.
        """
        self._trace_chain = False
        if state is None:
            self._active = -1
            self._pos = 0
            return
        chain = state["chain"]
        try:
            idx = self._chain_ids.index(chain)
        except ValueError:
            raise ValueError(f"unknown chain id {chain!r}") from None
        pos = int(state["pos"])
        if not 1 <= pos < len(self._sequences[idx]):
            # pos == len(seq) completes the rule and is never
            # snapshotted; pos == 0 means idle, which is ``None``.
            raise ValueError(
                f"position {pos} out of range for chain {chain!r}")
        self._active = idx
        self._pos = pos
        self._last_time = float(state["last_time"])
        self._start_time = float(state["start_time"])

    def reset(self) -> None:
        tracer = self._tracer
        if tracer is not None and self._trace_chain and self._active >= 0:
            # An externally requested reset tears down a traced chain.
            tracer.emit(
                PARSER_RESET,
                self._trace_node,
                chain=self._chain_ids[self._active],
                cause="manual",
            )
        self._trace_chain = False
        self._active = -1
        self._pos = 0

    # -- feeding ---------------------------------------------------------
    def feed(self, token: int, time: float) -> Optional[Match]:
        """Process one tokenized phrase; returns a :class:`Match` when a
        rule completes."""
        self.stats.fed += 1
        if self._active < 0:
            self._try_activate(token, time)
            return None

        if time < self._last_time:
            # Skewed/backwards arrival: clamp to the chain clock (ΔT=0)
            # instead of rewinding it — see the module docstring.
            self.stats.negative_dt += 1
            time = self._last_time

        if time - self._last_time > self.timeout:
            # Inordinate delay: this is not the same failure pattern.
            self.stats.resets_timeout += 1
            tracer = self._tracer
            if tracer is not None and self._trace_chain:
                tracer.emit(
                    DELTA_T_TIMEOUT,
                    self._trace_node,
                    chain=self._chain_ids[self._active],
                    token=token,
                    t=time,
                    gap=time - self._last_time,
                )
            self._trace_chain = False
            self._active = -1
            self._pos = 0
            self._try_activate(token, time)
            return None

        seq = self._sequences[self._active]
        if token == seq[self._pos]:
            self.stats.advanced += 1
            self._pos += 1
            self._last_time = time
            tracer = self._tracer
            if tracer is not None and self._trace_chain:
                tracer.emit(
                    TOKEN_ADVANCED,
                    self._trace_node,
                    chain=self._chain_ids[self._active],
                    token=token,
                    t=time,
                    pos=self._pos,
                )
            if self._pos == len(seq):
                self.stats.matches += 1
                match = Match(
                    chain_id=self._chain_ids[self._active],
                    start_time=self._start_time,
                    end_time=time,
                    tokens=seq,
                )
                # Silent teardown: the completion is traced by the
                # predictor's prediction_fired record.
                self._trace_chain = False
                self._active = -1
                self._pos = 0
                return match
            return None

        # Mismatch within the timeout window: skip the token (#12).
        self.stats.skipped += 1
        owners = self._token_owner.get(token)
        if owners and owners != {self._active}:
            self.stats.interleaved_skips += 1
        return None

    def _try_activate(self, token: int, time: float) -> None:
        rule = self._first_of.get(token)
        if rule is None:
            return
        self._active = rule
        self._pos = 1
        self._last_time = time
        self._start_time = time
        self.stats.activations += 1
        tracer = self._tracer
        if tracer is not None:
            self._trace_chain = tracer.sample_chain()
            if self._trace_chain:
                tracer.emit(
                    CHAIN_STARTED,
                    self._trace_node,
                    chain=self._chain_ids[rule],
                    token=token,
                    t=time,
                )
        # Single-phrase chains are rejected by ChainSet, so no immediate
        # match is possible here.


@dataclass
class _Cursor:
    pos: int
    start_time: float
    last_time: float


class OracleTracker:
    """Tracks *all* rules concurrently with the same skip/timeout
    semantics — the exhaustive comparator for Table V."""

    def __init__(self, chains: ChainSet, timeout: Optional[float] = None):
        self.chains = chains
        self.timeout = chains.suggest_timeout() if timeout is None else timeout
        # Only ``negative_dt`` is maintained here (clamps are counted
        # per cursor); the full transition counters live on the
        # single-rule matcher.
        self.stats = MatcherStats()
        self._sequences = chains.sequences
        self._chain_ids = chains.chain_ids
        self._cursors: Dict[int, _Cursor] = {}

    def feed(self, token: int, time: float) -> List[Match]:
        matches: List[Match] = []
        timeout = self.timeout
        dead: List[int] = []
        for idx, cursor in self._cursors.items():
            # Same negative-ΔT policy as ChainMatcher, applied per
            # cursor: a backwards arrival clamps to *this* rule's last
            # matched time, never rewinding its clock.
            t = time
            if t < cursor.last_time:
                self.stats.negative_dt += 1
                t = cursor.last_time
            if t - cursor.last_time > timeout:
                dead.append(idx)
                continue
            seq = self._sequences[idx]
            if token == seq[cursor.pos]:
                cursor.pos += 1
                cursor.last_time = t
                if cursor.pos == len(seq):
                    matches.append(
                        Match(
                            chain_id=self._chain_ids[idx],
                            start_time=cursor.start_time,
                            end_time=t,
                            tokens=seq,
                        )
                    )
                    dead.append(idx)
        for idx in dead:
            del self._cursors[idx]
        # New activations (a rule may re-activate right after matching).
        for idx, seq in enumerate(self._sequences):
            if idx not in self._cursors and seq[0] == token and len(seq) > 1:
                self._cursors[idx] = _Cursor(pos=1, start_time=time, last_time=time)
        return matches
