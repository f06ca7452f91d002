"""From-scratch regular-expression engine (the repo's "flex" substrate).

Pipeline: pattern string → AST (:mod:`.parser`) → ε-NFA via Thompson
construction (:mod:`.nfa`) → DFA via subset construction over a
partitioned alphabet (:mod:`.dfa`) → minimal DFA via Hopcroft
(:mod:`.minimize`).  :func:`compile` wraps the pipeline; the scanner
generator in :mod:`repro.lexgen` reuses the same pieces with tagged
accept states for first-rule-wins tokenization.
"""

from ..lazy import lazy_exports

# A shard worker loads only ``dfa`` and ``charset`` (it rebuilds its
# scanner from finished tables); the compiler loads where it runs.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ast": ("literal",),
    "charset": ("CharSet", "partition_alphabet"),
    "dfa": ("DEAD", "DFA", "TranslateTable", "from_nfa"),
    "matcher": ("Regex", "compile"),
    "minimize": ("minimize",),
    "nfa": ("NFA", "from_ast", "from_asts"),
    "ops": ("equivalent", "find_distinguishing_string", "tag_equivalent",
            "to_dot"),
    "parser": ("RegexSyntaxError", "parse"),
})
