"""Scanner generator (the repo's "flex" analog).

Build a :class:`LexSpec` of named, prioritized regex rules, compile it to
one merged minimized DFA, and tokenize text with longest-match /
first-rule-wins semantics via :class:`Scanner`.
"""

from ..lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "scanner": ("LexToken", "ScanError", "Scanner"),
    "spec": ("CompiledLexSpec", "LexRule", "LexSpec", "LexSpecError",
             "spec_from_pairs"),
})
