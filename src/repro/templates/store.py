"""Template store: phrase templates ↔ global token ids.

The store is the shared vocabulary between Phase 1 and Phase 2: training
registers templates and learns chains over their ids; the online scanner
is *generated from* the store (templates become lexical rules).

Template syntax: literal text with ``*`` wildcards standing for masked
variable fields, e.g. ``"DVS: verify filesystem: *"``.  Matching is
anchored at the start of the message, like Aarohi's scanner, which reads
a phrase "until it reaches [the template head]" and ignores the variable
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..codegen import compile_scan_kernels, resolve_backend
from ..core.events import Severity
from ..lexgen import LexSpec
from ..lexgen.spec import CompiledLexSpec
from .masking import MASK, mask_message

# Characters that are regex metacharacters in repro.regexlib syntax.
_META = set("()[]{}|*+?.\\")


def template_to_pattern(template: str) -> str:
    """Convert a ``*``-wildcard template into a repro.regexlib pattern.

    Literal runs are escaped; each wildcard becomes ``.*`` except a
    *trailing* wildcard, which is dropped entirely — the scanner stops at
    the end of the literal head and never scans the variable tail
    (that's part of the speedup: "the remaining content ... none of
    which are further considered").
    """
    parts = template.split(MASK)
    # Drop a trailing wildcard: no need to consume the tail.
    trailing_wildcard = template.endswith(MASK)
    escaped = ["".join("\\" + c if c in _META else c for c in p) for p in parts]
    if trailing_wildcard:
        escaped = escaped[:-1]
        pattern = ".*".join(p for p in escaped)
        return pattern.rstrip()  # trailing spaces before '*' are noise
    return ".*".join(escaped)


@dataclass(frozen=True)
class Template:
    """A registered phrase template."""

    token: int
    text: str
    severity: Severity = Severity.UNKNOWN

    @property
    def head(self) -> str:
        """The literal head (text before the first wildcard)."""
        return self.text.split(MASK, 1)[0].strip()


class TemplateStore:
    """Bidirectional template registry with scanner generation."""

    def __init__(self) -> None:
        self._by_token: Dict[int, Template] = {}
        self._by_text: Dict[str, Template] = {}
        self._next_token = 100  # paper numbers phrases from ~100 upward

    def __len__(self) -> int:
        return len(self._by_token)

    def __iter__(self):
        return iter(self._by_token.values())

    def add(
        self,
        text: str,
        severity: Severity = Severity.UNKNOWN,
        token: Optional[int] = None,
    ) -> Template:
        """Register a template; idempotent on identical text."""
        existing = self._by_text.get(text)
        if existing is not None:
            return existing
        if token is None:
            token = self._next_token
        if token in self._by_token:
            raise ValueError(f"token {token} already registered")
        self._next_token = max(self._next_token, token + 1)
        template = Template(token=token, text=text, severity=severity)
        self._by_token[token] = template
        self._by_text[text] = template
        return template

    def get(self, token: int) -> Template:
        return self._by_token[token]

    def lookup(self, text: str) -> Optional[Template]:
        return self._by_text.get(text)

    def tokens(self) -> List[int]:
        return sorted(self._by_token)

    def add_from_message(
        self, message: str, severity: Severity = Severity.UNKNOWN
    ) -> Template:
        """Mask ``message`` and register the resulting template."""
        return self.add(mask_message(message), severity)

    # -- scanner generation (the Aarohi lexer) -------------------------
    def lex_spec(self, keep: Optional[Iterable[int]] = None) -> LexSpec:
        """A scanner spec whose rules are (a subset of) the templates.

        ``keep`` restricts the scanner to FC-related tokens (Observation
        4: less than half of test phrases are FC-related; the rest are
        discarded by the scanner without tokenization).  Rule names are
        the decimal token ids.
        """
        wanted = set(keep) if keep is not None else None
        spec = LexSpec()
        for token in sorted(self._by_token):
            if wanted is not None and token not in wanted:
                continue
            template = self._by_token[token]
            spec.rule(str(token), template_to_pattern(template.text))
        if not spec.rules:
            raise ValueError("no templates selected for scanner")
        return spec

    def compile_scanner(
        self,
        keep: Optional[Iterable[int]] = None,
        *,
        minimized: bool = True,
        counting: bool = False,
        cache: Optional[bool] = None,
        backend: str = "str",
    ) -> "TemplateScanner":
        """Compile the merged scanner; ``counting=True`` returns a
        :class:`CountingTemplateScanner` whose rejection-funnel stages
        are observable (see :mod:`repro.obs`).

        ``cache`` controls the persistent compiled-artifact cache (see
        :mod:`repro.persistence`): ``True`` forces it, ``False``
        bypasses it, and ``None`` (default) defers to the
        ``AAROHI_SCANNER_CACHE`` environment policy.  On a cache hit
        the NFA→DFA→Hopcroft pipeline is skipped entirely and the
        scanner is rebuilt from the stored tables.

        ``backend`` selects the kernel family (``"str"`` or
        ``"native"``; see :data:`repro.codegen.SCAN_BACKENDS`).  It is
        resolved *before* the cache probe — ``"native"`` degrades to
        ``"str"`` when no C compiler is found — so the artifact-cache
        key always reflects the backend actually compiled.  The
        scanner's ``requested_backend`` keeps the pre-resolution name,
        which is how obs detects degradation.
        """
        from .. import persistence  # late: persistence imports this module

        requested = backend
        backend = resolve_backend(backend)
        spec = self.lex_spec(keep)
        compiled = persistence.compile_scanner_cached(
            spec, minimized=minimized, cache=cache, backend=backend
        )
        cls = CountingTemplateScanner if counting else TemplateScanner
        return cls(compiled, backend=backend, requested_backend=requested)


class TemplateScanner:
    """Anchored tokenizer over the merged template DFA.

    All templates are unioned into one tagged DFA (longest match,
    lowest rule on ties — flex semantics), so accept-or-discard is a
    single table walk regardless of catalog size.  The walk itself is a
    *translate kernel* (:func:`repro.codegen.compile_scan_kernels`):

    * **first-char rejection** — a 128-entry table of ASCII codepoints
      that can leave the DFA's start state; a message whose first char
      is not in it can match nothing, so it is discarded with one index
      (most log lines, per Fig. 12);
    * **alphabet compression** — ``str.translate`` maps every character
      to its equivalence class in one C call, so the walk indexes dense
      ``array``-backed rows by ``ord`` alone (no classifier branch);
    * **bounded memo** — results are cached for messages that pass the
      first-char check.  When the DFA is acyclic, a match is fully
      determined by the first ``max_match_length`` characters, so the
      cache keys on that prefix; otherwise it keys on the whole message
      (sound for any DFA: ``tokenize`` is a pure function of the
      message, and CPython caches string hashes, so repeated log lines
      cost one dict probe).  The cache is cleared when it fills,
      bounding memory.

    The public entry points are plain functions bound as instance
    attributes (no bound-method dispatch on the hot path):

    * ``tokenize(message) -> token | None`` — per-message scan;
    * ``scan_hits(messages) -> [(index, token), ...]`` — batched scan
      returning only the lines that matched, so discard-heavy batches
      never surface per-line results to Python;
    * ``match_span(message) -> (token | None, end)`` — longest-match
      span, for differential testing against per-template matching.

    With ``backend="native"`` the kernels are compiled C (see
    :func:`repro.codegen.emit_native_scan_kernels_source`) and take raw
    ``bytes`` records instead of ``str``; callers that only have
    decoded text should go through ``tokenize_text``, which encodes on
    native and is a plain alias of ``tokenize`` on the str backend.

    ``backend`` is the kernel family actually running, which can sit
    below what the caller asked for: ``requested_backend`` preserves
    the request (``"native"`` without a compiler, whose compile failed,
    or whose catalog has no exact byte alphabet runs ``"str"``), and
    :meth:`repro.obs.Obs.record_scanner` turns the difference into a
    fallback counter.  ``scan_records`` (fused ingest+scan over a raw
    record blob) and ``reorder`` (the reorder buffer over that pass's
    record times, emitting its hits in stream order) are the native
    backend's extra entry points, ``None`` on ``str``.
    """

    __slots__ = ("compiled", "backend", "requested_backend", "tokenize",
                 "tokenize_text", "scan_hits", "match_span", "scan_records",
                 "reorder", "memo", "_counts")

    _counting = False

    def __init__(
        self,
        compiled: CompiledLexSpec,
        *,
        memo_capacity: int = 4096,
        backend: str = "str",
        requested_backend: Optional[str] = None,
    ):
        self.compiled = compiled
        rule_tokens = [int(rule.name) for rule in compiled.spec.rules]
        kernels = compile_scan_kernels(
            compiled.dfa,
            rule_tokens,
            memo_capacity=memo_capacity,
            counting=self._counting,
            backend=backend,
        )
        self.backend = kernels.backend
        self.requested_backend = requested_backend or backend
        self.scan_records = kernels.scan_records
        self.reorder = kernels.reorder
        self.tokenize = kernels.tokenize
        if kernels.backend == "str":
            self.tokenize_text = kernels.tokenize
        else:
            _tok = kernels.tokenize

            def tokenize_text(message: str) -> Optional[int]:
                return _tok(message.encode("utf-8", "replace"))

            self.tokenize_text = tokenize_text
        self.scan_hits = kernels.scan_hits
        self.match_span = kernels.match_span
        self.memo = kernels.memo
        self._counts = kernels.counts


class CountingTemplateScanner(TemplateScanner):
    """A :class:`TemplateScanner` whose rejection funnel is observable.

    Counting must not tax the hot path, so the kernels increment only on
    the *rare* branches — lines that survive the first-char table
    (``n_pass_first``), full DFA walks (``n_scans``) and matches
    (``n_matched``).  The two overwhelmingly common outcomes cost
    **zero** extra bookkeeping:

    * first-char rejection (most lines, Fig. 12) runs the exact same
      instructions as the plain kernel — its count is *derived* as
      ``lines_seen - n_pass_first`` (empty messages included: an empty
      message has no viable first character by definition);
    * memo hits (the common survivor outcome on repetitive streams) are
      derived as ``n_pass_first - n_scans``, since every memo miss runs
      exactly one DFA walk.

    ``funnel(lines_seen)`` resolves the derived stages; the three stage
    counts sum to ``lines_seen`` by construction, which the equivalence
    suite asserts against independently recomputed per-line outcomes.
    """

    __slots__ = ()

    _counting = True

    @property
    def n_pass_first(self) -> int:
        return self._counts[0]

    @property
    def n_scans(self) -> int:
        return self._counts[1]

    @property
    def n_matched(self) -> int:
        return self._counts[2]

    def funnel(self, lines_seen: int) -> Dict[str, int]:
        """Resolve the funnel given the total tokenize-call count
        (tracked for free by the predictors' ``lines_seen`` stats)."""
        n_pass, n_scans, n_matched = self._counts
        return {
            "first_char_rejected": lines_seen - n_pass,
            "memo_hits": n_pass - n_scans,
            "dfa_runs": n_scans,
            "dfa_matches": n_matched,
            "translate_evictions": self.compiled.dfa.translate_table.evictions,
        }


class NaiveTemplateScanner:
    """Per-template sequential scanner (the Fig. 11 "optimization off"
    analog): tries each template's DFA one by one instead of the merged,
    minimized DFA."""

    def __init__(self, store: TemplateStore, keep: Optional[Iterable[int]] = None):
        from ..regexlib import compile as rx_compile

        wanted = set(keep) if keep is not None else None
        self._patterns: List[Tuple[int, object]] = []
        for template in store:
            if wanted is not None and template.token not in wanted:
                continue
            rx = rx_compile(template_to_pattern(template.text), minimized=False)
            self._patterns.append((template.token, rx))
        self._patterns.sort()

    def tokenize(self, message: str) -> Optional[int]:
        for token, rx in self._patterns:
            if rx.match_prefix(message) is not None:
                return token
        return None

    def match_span(self, message: str) -> Tuple[Optional[int], int]:
        """Longest match over all templates, lowest token on ties —
        the reference semantics the merged DFA must reproduce."""
        best_token: Optional[int] = None
        best_end = 0
        for token, rx in self._patterns:
            span = rx.match_prefix(message)
            if span is None:
                continue
            end = span[1]
            if best_token is None or end > best_end:
                best_token, best_end = token, end
        return best_token, best_end
