"""Context-free grammar representation (the "bison" input language).

Symbols are plain strings.  A symbol is a *nonterminal* iff it appears as
the left-hand side of some production; every other symbol is a terminal.
The special symbols ``$end`` (end-of-input) and ``$accept`` (augmented
start) are reserved.

Productions may carry a semantic action: a callable receiving the list
of semantic values of the right-hand side and returning the value of the
left-hand side.  The default action returns the RHS value list itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

END = "$end"
ACCEPT = "$accept"

Action = Callable[[list], object]


@dataclass(frozen=True)
class Production:
    """``lhs → rhs`` with an index (its position in the grammar)."""

    index: int
    lhs: str
    rhs: Tuple[str, ...]
    action: Optional[Action] = field(default=None, compare=False)

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else "ε"
        return f"{self.lhs} → {rhs}"


class GrammarError(ValueError):
    """Raised for malformed grammars."""


class Grammar:
    """A context-free grammar with a designated start symbol.

    Build one incrementally::

        g = Grammar("S")
        g.add("S", ["A", "b"])
        g.add("A", ["a"], action=lambda v: v[0])
        g = g.augmented()
    """

    def __init__(self, start: str):
        if start in (END, ACCEPT):
            raise GrammarError(f"start symbol may not be reserved {start!r}")
        self.start = start
        self.productions: List[Production] = []
        self._by_lhs: Dict[str, List[Production]] = {}

    # -- construction ------------------------------------------------
    def add(
        self,
        lhs: str,
        rhs: Sequence[str],
        action: Optional[Action] = None,
    ) -> Production:
        if lhs in (END, ACCEPT):
            raise GrammarError(f"cannot define reserved symbol {lhs!r}")
        if any(s in (END, ACCEPT) for s in rhs):
            raise GrammarError("reserved symbols may not appear in a RHS")
        if any(not s for s in rhs):
            raise GrammarError("empty symbol name in RHS")
        prod = Production(len(self.productions), lhs, tuple(rhs), action)
        self.productions.append(prod)
        self._by_lhs.setdefault(lhs, []).append(prod)
        return prod

    # -- queries -----------------------------------------------------
    @property
    def nonterminals(self) -> frozenset[str]:
        return frozenset(self._by_lhs)

    @property
    def terminals(self) -> frozenset[str]:
        used = {s for p in self.productions for s in p.rhs}
        return frozenset(used - self.nonterminals)

    @property
    def symbols(self) -> frozenset[str]:
        return self.nonterminals | self.terminals

    def productions_of(self, lhs: str) -> List[Production]:
        return self._by_lhs.get(lhs, [])

    def is_nonterminal(self, symbol: str) -> bool:
        return symbol in self._by_lhs

    def validate(self) -> None:
        """Check that the start symbol is defined and all nonterminals
        are productive enough to be reachable (undefined-symbol check is
        implicit: undefined symbols are terminals by definition)."""
        if self.start not in self._by_lhs:
            raise GrammarError(f"start symbol {self.start!r} has no productions")
        # Reachability diagnostic: warn-level, raised as error to keep
        # generated grammars honest.
        reachable = {self.start}
        changed = True
        while changed:
            changed = False
            for p in self.productions:
                if p.lhs in reachable:
                    for s in p.rhs:
                        if self.is_nonterminal(s) and s not in reachable:
                            reachable.add(s)
                            changed = True
        unreachable = self.nonterminals - reachable
        if unreachable:
            raise GrammarError(
                f"unreachable nonterminals: {sorted(unreachable)}"
            )

    def __str__(self) -> str:
        return "\n".join(str(p) for p in self.productions)


@dataclass(frozen=True)
class AugmentedGrammar:
    """``grammar`` plus the production ``$accept → start $end``.

    Production 0 is always the accept production; the parser generator
    operates exclusively on augmented grammars.
    """

    grammar: Grammar
    productions: Tuple[Production, ...]

    @classmethod
    def of(cls, grammar: Grammar) -> "AugmentedGrammar":
        grammar.validate()
        accept = Production(0, ACCEPT, (grammar.start, END))
        shifted = [
            Production(p.index + 1, p.lhs, p.rhs, p.action)
            for p in grammar.productions
        ]
        return cls(grammar=grammar, productions=(accept, *shifted))

    def productions_of(self, lhs: str) -> List[Production]:
        if lhs == ACCEPT:
            return [self.productions[0]]
        return [self.productions[p.index + 1] for p in self.grammar.productions_of(lhs)]

    def is_nonterminal(self, symbol: str) -> bool:
        return symbol == ACCEPT or self.grammar.is_nonterminal(symbol)

    @property
    def terminals(self) -> frozenset[str]:
        return self.grammar.terminals | {END}

    @property
    def nonterminals(self) -> frozenset[str]:
        return self.grammar.nonterminals | {ACCEPT}
