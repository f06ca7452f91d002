"""Failure chains (FCs): the interface between Phase 1 and Phase 2.

A :class:`FailureChain` is an ordered sequence of phrase-template tokens
known to precede a node failure, ending in the terminal "failed" phrase
(e.g. ``cb_node_unavailable``).  Phase-1 trainers produce these; the
Phase-2 generator consumes them.  Chains carry optional ΔT statistics
used to pick the parsing timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


@dataclass(frozen=True)
class FailureChain:
    """One trained failure chain.

    ``tokens`` are global phrase-template ids; ``deltas`` (optional, one
    shorter than ``tokens``) are mean inter-arrival gaps in seconds
    observed during training (Table III's ΔT column).
    """

    chain_id: str
    tokens: Tuple[int, ...]
    deltas: Tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.tokens) < 2:
            raise ValueError(f"chain {self.chain_id!r} needs ≥2 phrases")
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError(
                f"chain {self.chain_id!r} repeats a phrase; chains must be "
                "simple sequences of distinct templates"
            )
        if self.deltas and len(self.deltas) != len(self.tokens) - 1:
            raise ValueError(
                f"chain {self.chain_id!r}: {len(self.tokens)} tokens need "
                f"{len(self.tokens) - 1} deltas, got {len(self.deltas)}"
            )

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def first(self) -> int:
        return self.tokens[0]

    @property
    def terminal(self) -> int:
        """The last token — typically the node-failed phrase."""
        return self.tokens[-1]

    def expected_span(self) -> float:
        """Sum of mean ΔTs: expected wall-clock length of the chain."""
        return float(sum(self.deltas)) if self.deltas else 0.0


class ChainSet:
    """An ordered, validated collection of failure chains.

    Provides the global token vocabulary (Algorithm 1's *Token List*) and
    the dense rule tables every per-node engine reads: built once here
    and shared read-only, so a new predictor costs O(1) rather than a
    table build.  Rule ``i`` is ``chains[i]``:

    * ``sequences[i]`` / ``chain_ids[i]`` — its tokens and id;
    * ``first_of`` — first-token dispatch: token → lowest rule index
      starting with it;
    * ``token_owner`` — token → the rule indices containing it
      (interleaving statistics).

    :attr:`lalr_tables` builds the generated parser's tables on first
    use, also once per chain set.
    """

    def __init__(self, chains: Iterable[FailureChain]):
        self.chains: List[FailureChain] = list(chains)
        if not self.chains:
            raise ValueError("ChainSet needs at least one chain")
        ids = [c.chain_id for c in self.chains]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chain ids")
        # Token List: first-seen order, deduplicated (Algorithm 1 #5).
        seen: Dict[int, None] = {}
        for chain in self.chains:
            for token in chain.tokens:
                seen.setdefault(token)
        self.token_list: Tuple[int, ...] = tuple(seen)
        self.token_set: frozenset[int] = frozenset(seen)
        self.sequences: Tuple[Tuple[int, ...], ...] = tuple(
            c.tokens for c in self.chains)
        self.chain_ids: Tuple[str, ...] = tuple(ids)
        self.first_of: Dict[int, int] = {}
        owners: Dict[int, set[int]] = {}
        for idx, seq in enumerate(self.sequences):
            self.first_of.setdefault(seq[0], idx)
            for tok in seq:
                owners.setdefault(tok, set()).add(idx)
        self.token_owner: Dict[int, frozenset[int]] = {
            t: frozenset(s) for t, s in owners.items()}

    def __iter__(self) -> Iterator[FailureChain]:
        return iter(self.chains)

    def __len__(self) -> int:
        return len(self.chains)

    def __getitem__(self, chain_id: str) -> FailureChain:
        for chain in self.chains:
            if chain.chain_id == chain_id:
                return chain
        raise KeyError(chain_id)

    def starting_with(self, token: int) -> List[FailureChain]:
        return [c for c in self.chains if c.first == token]

    @cached_property
    def lalr_tables(self):
        """LALR(1) tables of the flat chain grammar (read-only, shared
        by every ``backend="lalr"`` predictor over this chain set)."""
        from .grammar_builder import build_chain_tables
        from .rules import build_rules

        return build_chain_tables(build_rules(self, factor=False))

    def is_relevant(self, token: int) -> bool:
        """Does ``token`` appear in any chain? (scanner keep/discard test)"""
        return token in self.token_set

    def max_length(self) -> int:
        return max(len(c) for c in self.chains)

    def suggest_timeout(self, quantile: float = 0.93) -> float:
        """Pick a parsing timeout from trained ΔTs.

        The paper picks a timeout covering ~93% of inter-arrival gaps
        (e.g. 4 min when 93% of ΔTs are ≤ 4 min).  Falls back to 240 s
        when no ΔT statistics are available.
        """
        deltas = sorted(d for c in self.chains for d in c.deltas)
        if not deltas:
            return 240.0
        idx = min(len(deltas) - 1, int(quantile * len(deltas)))
        return max(deltas[idx], 1e-6)


def common_subchains(
    a: Sequence[int], b: Sequence[int], min_len: int = 2
) -> List[Tuple[int, ...]]:
    """Maximal common contiguous subchains of ``a`` and ``b``.

    Used by Algorithm 1 (#14) to discover shared phrase runs (e.g.
    ``(177 178)`` common to FC1 and FC5 in Table IV) that become LALR
    non-terminals.  Returns longest-first, each at least ``min_len`` long,
    non-overlapping within ``a``.
    """
    # Dynamic programming over suffix match lengths.
    n, m = len(a), len(b)
    best: List[Tuple[int, int, int]] = []  # (length, end_in_a, end_in_b)
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] >= min_len:
                    best.append((cur[j], i, j))
        prev = cur
    best.sort(reverse=True)
    chosen: List[Tuple[int, ...]] = []
    used_a: set[int] = set()
    for length, end_a, _end_b in best:
        span = range(end_a - length, end_a)
        if any(i in used_a for i in span):
            continue
        used_a.update(span)
        chosen.append(tuple(a[end_a - length : end_a]))
    return chosen
