"""Scanner specifications: named, prioritized lexical rules.

A :class:`LexSpec` is the analog of a ``.l`` flex file: an ordered list
of (token name, pattern) rules.  Earlier rules win ties on equal match
length (first-rule-wins) and longest-match wins overall, exactly like
flex.  Compiling a spec produces a single merged, minimized DFA whose
accept states are tagged with rule indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..regexlib.dfa import DFA, from_nfa

if TYPE_CHECKING:
    from ..regexlib.ast import Node


@dataclass(frozen=True)
class LexRule:
    """One lexical rule.

    ``skip=True`` means matches are consumed but not emitted (whitespace,
    comments — or, in Aarohi's scanner, phrases that belong to no failure
    chain).
    """

    name: str
    pattern: str
    skip: bool = False

    def parse_ast(self) -> Node:
        from ..regexlib.parser import parse

        return parse(self.pattern)


class LexSpecError(ValueError):
    """Raised for malformed scanner specifications."""


@dataclass
class LexSpec:
    """An ordered collection of :class:`LexRule`."""

    rules: List[LexRule] = field(default_factory=list)

    def rule(self, name: str, pattern: str, *, skip: bool = False) -> "LexSpec":
        """Append a rule; returns ``self`` for chaining."""
        if not name:
            raise LexSpecError("rule name must be non-empty")
        if any(r.name == name for r in self.rules):
            raise LexSpecError(f"duplicate rule name {name!r}")
        self.rules.append(LexRule(name, pattern, skip=skip))
        return self

    def extend(self, rules: Iterable[Tuple[str, str]]) -> "LexSpec":
        for name, pattern in rules:
            self.rule(name, pattern)
        return self

    def names(self) -> List[str]:
        return [r.name for r in self.rules]

    def compile(self, *, minimized: bool = True) -> "CompiledLexSpec":
        """Merge all rules into one tagged DFA.

        ``minimized=False`` skips Hopcroft minimization; used by the
        Fig. 11 "optimization off" ablation.  The regex compiler is
        imported here: a process that only loads finished tables (a
        daemon shard) never needs it.
        """
        from ..regexlib.minimize import minimize
        from ..regexlib.nfa import from_asts
        from ..regexlib.parser import RegexSyntaxError

        if not self.rules:
            raise LexSpecError("cannot compile an empty LexSpec")
        tagged = []
        for idx, rule in enumerate(self.rules):
            try:
                tree = rule.parse_ast()
            except RegexSyntaxError as exc:
                raise LexSpecError(f"rule {rule.name!r}: {exc}") from exc
            tagged.append((tree, idx))
        dfa = from_nfa(from_asts(tagged))
        if minimized:
            dfa = minimize(dfa)
        if dfa.accepts[dfa.start] is not None:
            nullable = self.rules[dfa.accepts[dfa.start]]
            raise LexSpecError(
                f"rule {nullable.name!r} matches the empty string; "
                "scanners would loop forever"
            )
        return CompiledLexSpec(spec=self, dfa=dfa)


@dataclass(frozen=True)
class CompiledLexSpec:
    """A :class:`LexSpec` compiled to its merged DFA."""

    spec: LexSpec
    dfa: DFA

    @property
    def n_states(self) -> int:
        return self.dfa.n_states

    def rule_of_tag(self, tag: int) -> LexRule:
        return self.spec.rules[tag]

    def longest_match(self, text: str, pos: int) -> Tuple[Optional[int], int]:
        """(rule index, end) of the longest match at ``pos``; (None, pos) if none."""
        return self.dfa.match(text, pos)


def spec_from_pairs(pairs: Sequence[Tuple[str, str]]) -> LexSpec:
    """Build a :class:`LexSpec` from (name, pattern) pairs."""
    return LexSpec().extend(pairs)
