"""LALR(1) parser generator (the repo's "bison" analog).

Pipeline: :class:`Grammar` → augmented grammar → LR(0) automaton
(:mod:`.lr0`) → LALR(1) lookaheads via DeRemer–Pennello (:mod:`.lalr`)
→ ACTION/GOTO tables with conflict reporting (:mod:`.tables`) → batch
or streaming drivers (:mod:`.runtime`).

The streaming driver's non-destructive token rejection is the substrate
for Aarohi's Algorithm 2 (skip unexpected phrases mid-chain).
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis": ("first_sets", "follow_sets", "nullable_set"),
    "dsl": ("GrammarSyntaxError", "format_grammar", "parse_grammar"),
    "cfg": ("ACCEPT", "END", "AugmentedGrammar", "Grammar", "GrammarError",
            "Production"),
    "lalr": ("compute_lookaheads",),
    "lr0": ("build_lr0",),
    "runtime": ("FeedResult", "LRParser", "ParseError", "StreamingParser"),
    "sampling": ("UnproductiveGrammarError", "sample_sentence",
                 "sample_sentences"),
    "tables": ("Action", "ActionKind", "Conflict", "ConflictError",
               "ParseTables", "build_tables"),
    "variants": ("build_canonical_lr1_tables", "build_slr_tables"),
})
