"""Algorithm 1: from failure chains to parser rules.

Translates a :class:`~repro.core.chains.ChainSet` into:

* the **Token List** ``T`` — every distinct phrase template across all
  FCs, enumerated uniquely (Algorithm 1 #5);
* the **Rule List** ``S`` — one *unique chain rule* per FC (#6–#8);
* optionally, **factored LALR rules** (#11–#21): shared subchains become
  non-terminals (``B → (177 178)`` in Table IV), and groups of rules
  with a common trailing phrase get a middle non-terminal (``C``),
  reproducing the ``P_LALR`` derivation of Table IV.

The evaluation path uses the flat rules ("our FCs contain sparse
subchain matches for which non-recursive chain rules suffice", §IV);
the factored form exists to reproduce Table IV and as documented
generalization: factoring accepts the cross product of prefixes ×
middles, a superset of the trained chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from .chains import ChainSet, common_subchains

# A factored RHS element: either a terminal token id or a non-terminal name.
Symbol = Union[int, str]


@dataclass(frozen=True)
class ChainRule:
    """One unique chain rule R (Algorithm 1 #6): the FC as a token tuple."""

    chain_id: str
    tokens: Tuple[int, ...]


@dataclass(frozen=True)
class FactoredRule:
    """An FC rewritten over non-terminals (Algorithm 1 #15-#16)."""

    chain_id: str
    symbols: Tuple[Symbol, ...]


@dataclass
class RuleSet:
    """Output of Algorithm 1: token list + rule list (+ factored form)."""

    token_list: Tuple[int, ...]
    rules: List[ChainRule]
    factored: List[FactoredRule] = field(default_factory=list)
    # Non-terminal definitions.  Subchain NTs ("B0", ...) map to a single
    # token tuple; group NTs ("C0", ...) map to alternative symbol tuples.
    subchain_nts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    group_nts: Dict[str, List[Tuple[Symbol, ...]]] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable dump in the style of Table IV."""
        lines = ["P_FC:"]
        for rule in self.rules:
            lines.append(f"  S → ({' '.join(map(str, rule.tokens))})   # {rule.chain_id}")
        if self.factored:
            lines.append("P_LALR:")
            for rule in self.factored:
                lines.append(
                    f"  S → ({' '.join(map(str, rule.symbols))})   # {rule.chain_id}"
                )
            for name, alts in self.group_nts.items():
                shown = " | ".join(f"({' '.join(map(str, alt))})" for alt in alts)
                lines.append(f"  {name} → {shown}")
            for name, tokens in self.subchain_nts.items():
                lines.append(f"  {name} → ({' '.join(map(str, tokens))})")
        return "\n".join(lines)


def build_rules(chains: ChainSet, *, factor: bool = True, min_subchain: int = 2) -> RuleSet:
    """Run Algorithm 1 over ``chains``.

    ``factor=False`` stops after the unique-chain-rule stage (#8).
    """
    rules = [ChainRule(c.chain_id, c.tokens) for c in chains]
    rule_set = RuleSet(token_list=chains.token_list, rules=rules)
    if factor:
        _factor(rule_set, min_subchain=min_subchain)
    return rule_set


def _find_shared_subchains(
    rules: Sequence[ChainRule], min_len: int
) -> List[Tuple[int, ...]]:
    """Subchains (length ≥ min_len) appearing in ≥2 rules, longest first."""
    found: Dict[Tuple[int, ...], None] = {}
    for i, u in enumerate(rules):
        for v in rules[i + 1 :]:
            for sub in common_subchains(u.tokens, v.tokens, min_len=min_len):
                found.setdefault(sub)
    # Longest-first so bigger shared runs win the substitution race.
    return sorted(found, key=len, reverse=True)


def _substitute(
    seq: Tuple[Symbol, ...], sub: Tuple[int, ...], name: str
) -> Tuple[Symbol, ...]:
    """Replace every non-overlapping occurrence of ``sub`` in ``seq``."""
    out: List[Symbol] = []
    i = 0
    n, k = len(seq), len(sub)
    while i < n:
        if tuple(seq[i : i + k]) == sub:
            out.append(name)
            i += k
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def _factor(rule_set: RuleSet, min_subchain: int) -> None:
    rules = rule_set.rules
    shared = _find_shared_subchains(rules, min_subchain)

    # Stage 1: subchain non-terminals (B → (177 178)).
    sequences: Dict[str, Tuple[Symbol, ...]] = {
        r.chain_id: tuple(r.tokens) for r in rules
    }
    for sub in shared:
        # Skip subchains that stopped occurring ≥2 times after earlier
        # (longer) substitutions consumed their tokens.
        hits = sum(
            1 for seq in sequences.values() if _substitute(seq, sub, "#") != seq
        )
        if hits < 2:
            continue
        name = f"B{len(rule_set.subchain_nts)}"
        rule_set.subchain_nts[name] = sub
        sequences = {
            cid: _substitute(seq, sub, name) for cid, seq in sequences.items()
        }

    # Stage 2: middle grouping (C → (B 179 180) | (B 193)) for rules that
    # share a trailing symbol run and contain a subchain NT in the middle.
    by_last: Dict[Symbol, List[str]] = {}
    for cid, seq in sequences.items():
        by_last.setdefault(seq[-1], []).append(cid)

    grouped: Dict[str, Tuple[Symbol, ...]] = {}
    for last, cids in by_last.items():
        if len(cids) < 2:
            continue
        seqs = [sequences[cid] for cid in cids]
        suffix_len = _common_suffix_len(seqs)
        if suffix_len < 1:
            continue
        middles = [seq[1 : len(seq) - suffix_len] for seq in seqs]
        if any(not m for m in middles):
            continue
        if not any(isinstance(s, str) for m in middles for s in m):
            continue  # nothing factored inside; grouping buys nothing
        name = f"C{len(rule_set.group_nts)}"
        rule_set.group_nts[name] = list(dict.fromkeys(middles))
        for cid, seq in zip(cids, seqs):
            grouped[cid] = (seq[0], name, *seq[len(seq) - suffix_len :])

    rule_set.factored = [
        FactoredRule(r.chain_id, grouped.get(r.chain_id, sequences[r.chain_id]))
        for r in rules
    ]


def _common_suffix_len(seqs: Sequence[Tuple[Symbol, ...]]) -> int:
    # Leave at least the first symbol and one middle symbol per sequence.
    limit = min(len(s) - 2 for s in seqs)
    length = 0
    while length < limit and len({s[len(s) - 1 - length] for s in seqs}) == 1:
        length += 1
    return length
