"""Subset construction: ε-NFA → DFA over a partitioned alphabet.

The DFA's input symbols are *character classes* (blocks of the alphabet
partition induced by every CharSet appearing on an NFA edge), so the
transition table is ``n_states × n_classes`` — small and cache-friendly.
A per-codepoint classifier maps input characters to class ids: an ASCII
lookup table for the common case plus a sorted-interval binary search for
the rest.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

from .charset import MAX_CODEPOINT, CharSet, partition_alphabet

if TYPE_CHECKING:
    from .nfa import NFA

DEAD = -1  # transition target meaning "no move"

#: Default bound on memoized non-ASCII codepoints in a TranslateTable.
#: Unicode has ~1.1M codepoints; an adversarial stream cycling through
#: them must not grow the shared table without limit.
TRANSLATE_MEMO_CAPACITY = 4096


class TranslateTable(dict):
    """Memoizing codepoint → class-character map for ``str.translate``.

    This is the flex-style equivalence-class (ECS) compression applied
    in one C call: ``message.translate(table)`` rewrites every character
    to ``chr(class_id)``, so the DFA walk indexes transition rows by
    ``ord`` alone — no per-character classifier branch in Python.

    ASCII is seeded eagerly; any other codepoint is classified once on
    first sight (``__missing__``) and memoized, so repeated non-ASCII
    traffic also runs at dict-lookup speed.  Codepoints outside every
    class map to the *dead class* (``n_classes``), whose transition
    column is always :data:`DEAD`.

    The memo is bounded: once ``capacity`` entries exist, each new
    codepoint evicts the oldest memoized one (insertion order, never
    the ASCII seed) — so a stream cycling through the ~1.1M-codepoint
    space holds the table at ``capacity`` instead of growing without
    limit, while steady-state non-ASCII traffic keeps its hot entries.
    ``evictions`` counts displacements for the funnel stats.
    """

    __slots__ = ("_classify", "_dead_char", "_n_seed", "capacity", "evictions")

    def __init__(
        self,
        classify: Callable[[int], int],
        dead: int,
        seed: dict,
        capacity: int = TRANSLATE_MEMO_CAPACITY,
    ):
        super().__init__(seed)
        self._classify = classify
        self._dead_char = chr(dead)
        self._n_seed = len(self)
        self.capacity = max(capacity, self._n_seed + 1)
        self.evictions = 0

    def __missing__(self, cp: int) -> str:
        cls = self._classify(cp)
        ch = self._dead_char if cls < 0 else chr(cls)
        if len(self) >= self.capacity:
            # Seed keys were inserted first and are never deleted, so the
            # first key past them is always the oldest memoized codepoint.
            del self[next(islice(iter(self), self._n_seed, None))]
            self.evictions += 1
        self[cp] = ch
        return ch


class ByteAlphabet(NamedTuple):
    """Byte-level ECS tables: scan raw UTF-8 without decoding.

    ``table`` maps every byte value to a class id (dead class =
    ``n_classes``, exactly like the str table).  It exists only for a
    DFA in which every non-ASCII codepoint falls in one equivalence
    class that is *idempotent* in the walk table (or in no class at
    all), so stepping the DFA once per UTF-8 **byte** accepts exactly
    the messages that stepping once per **codepoint** accepts: a
    multi-byte character's continuation bytes just re-take the same
    self-loop (or die on the same dead move).  Every byte ≥ 0x80 maps
    to that class and the walk never needs to decode.

    ``first_ok`` is the 256-entry start-viability table; bytes ≥ 0x80
    always pass, mirroring the str kernel's ASCII-only first-char guard.
    """

    table: bytes
    first_ok: bytes


@dataclass
class Classifier:
    """Maps codepoints to dense character-class ids (or -1: unclassified)."""

    ascii_table: List[int]  # length 128
    # parallel arrays for non-ASCII lookup, sorted by lo
    los: List[int]
    his: List[int]
    ids: List[int]
    n_classes: int

    @classmethod
    def build(cls, blocks: List[CharSet]) -> "Classifier":
        ascii_table = [-1] * 128
        entries: List[Tuple[int, int, int]] = []
        for class_id, block in enumerate(blocks):
            for lo, hi in block.intervals:
                # ASCII fast path
                a_lo, a_hi = lo, min(hi, 127)
                for cp in range(a_lo, a_hi + 1):
                    ascii_table[cp] = class_id
                if hi > 127:
                    entries.append((max(lo, 128), hi, class_id))
        entries.sort()
        return cls(
            ascii_table=ascii_table,
            los=[e[0] for e in entries],
            his=[e[1] for e in entries],
            ids=[e[2] for e in entries],
            n_classes=len(blocks),
        )

    def classify(self, cp: int) -> int:
        if cp < 128:
            return self.ascii_table[cp]
        i = bisect.bisect_right(self.los, cp) - 1
        if i >= 0 and cp <= self.his[i]:
            return self.ids[i]
        return -1


@dataclass
class DFA:
    """Deterministic automaton over character classes.

    ``transitions`` is a flat row-major table: entry for state ``s`` on
    class ``c`` is ``transitions[s * n_classes + c]`` (``DEAD`` if none).
    ``accepts[s]`` is the accept tag of state ``s`` or ``None``.
    """

    n_states: int
    n_classes: int
    transitions: List[int]
    accepts: List[Optional[int]]
    classifier: Classifier
    start: int = 0

    def match(self, text: str, pos: int = 0) -> Tuple[Optional[int], int]:
        """Longest match of the DFA starting at ``text[pos]``.

        Returns ``(tag, end)`` for the longest accepting prefix, or
        ``(None, pos)`` if even the empty prefix does not accept.

        The scan loop inlines the ASCII classifier lookup (one list
        index instead of a method call per character); only non-ASCII
        codepoints fall back to :meth:`Classifier.classify`.
        """
        state = self.start
        best_tag = self.accepts[state]
        best_end = pos
        transitions = self.transitions
        accepts = self.accepts
        n_classes = self.n_classes
        ascii_table = self.classifier.ascii_table
        classify = self.classifier.classify
        i = pos
        n = len(text)
        while i < n:
            cp = ord(text[i])
            cls = ascii_table[cp] if cp < 128 else classify(cp)
            if cls < 0:
                break
            state = transitions[state * n_classes + cls]
            if state < 0:
                break
            i += 1
            tag = accepts[state]
            if tag is not None:
                best_tag = tag
                best_end = i
        return best_tag, best_end

    @cached_property
    def start_viable_ascii(self) -> bytes:
        """128-entry table: 1 iff an ASCII codepoint can leave the start
        state.  Lets callers reject most non-matching inputs with a
        single index instead of entering the scan loop (Fig. 12: the
        overwhelming majority of log lines are not FC-related)."""
        base = self.start * self.n_classes
        transitions = self.transitions
        table = bytearray(128)
        for cp, cls in enumerate(self.classifier.ascii_table):
            if cls >= 0 and transitions[base + cls] >= 0:
                table[cp] = 1
        return bytes(table)

    @cached_property
    def translate_table(self) -> TranslateTable:
        """Shared :class:`TranslateTable` for this DFA's alphabet classes."""
        dead = self.n_classes
        seed = {
            cp: chr(cls if cls >= 0 else dead)
            for cp, cls in enumerate(self.classifier.ascii_table)
        }
        return TranslateTable(self.classifier.classify, dead, seed)

    def _uniform_nonascii_class(self) -> Optional[int]:
        """The single class id covering *all* of [0x80, MAX_CODEPOINT],
        the dead class if no codepoint up there is classified at all, or
        ``None`` when non-ASCII codepoints are distinguished."""
        c = self.classifier
        if not c.los:
            return self.n_classes  # everything non-ASCII is dead
        ids = set(c.ids)
        if len(ids) != 1:
            return None
        # One class — but it must tile [128, MAX_CODEPOINT] gaplessly,
        # or the gaps (dead) would be indistinguishable from it.
        if c.los[0] != 128 or c.his[-1] != MAX_CODEPOINT:
            return None
        for i in range(len(c.los) - 1):
            if c.los[i + 1] != c.his[i] + 1:
                return None
        return c.ids[0]

    def _class_idempotent(self, cls: int) -> bool:
        """True iff re-reading ``cls`` from any state it leads to is a
        self-loop — the condition under which one codepoint-step and
        several byte-steps on the same class are indistinguishable."""
        stride = self.n_classes + 1
        walk = self.walk_transitions
        for s in range(self.n_states):
            t = walk[s * stride + cls]
            if t >= 0 and walk[t * stride + cls] != t:
                return False
        return True

    @cached_property
    def byte_alphabet(self) -> Optional[ByteAlphabet]:
        """Byte-level translate tables for this DFA (see
        :class:`ByteAlphabet`), or ``None`` when the catalog
        distinguishes non-ASCII codepoints (several classes, or a
        non-idempotent one) or has more than 254 character classes."""
        dead = n = self.n_classes
        if n > 254:
            return None
        star = self._uniform_nonascii_class()
        if star is None or not (star == dead or self._class_idempotent(star)):
            return None
        ascii_part = [
            cls if cls >= 0 else dead for cls in self.classifier.ascii_table
        ]
        return ByteAlphabet(
            table=bytes(ascii_part + [star] * 128),
            first_ok=self.start_viable_ascii + b"\x01" * 128,
        )

    @cached_property
    def walk_transitions(self) -> array:
        """Dense, ``array``-backed row-major transition table for the
        translate-walk kernel (see :func:`repro.codegen.compile_scan_kernels`).

        Rows have ``n_classes + 1`` columns: one per character class
        plus a trailing always-:data:`DEAD` column for the dead class,
        so the walk needs no "unclassified?" branch at all — a dead
        character simply steps to :data:`DEAD` like any failed move.
        """
        n = self.n_classes
        stride = n + 1
        table = array("i", [DEAD]) * (self.n_states * stride)
        src = self.transitions
        for s in range(self.n_states):
            table[s * stride : s * stride + n] = array("i", src[s * n : (s + 1) * n])
        return table

    @cached_property
    def max_match_length(self) -> Optional[int]:
        """Longest path (in characters) from the start state, or ``None``
        if the DFA is cyclic (unbounded matches, e.g. internal ``.*``).

        When finite, ``match(text, 0)`` depends only on
        ``text[:max_match_length]`` — which makes a prefix-keyed memo
        cache on tokenizers sound."""
        transitions = self.transitions
        n_classes = self.n_classes
        longest = [-1] * self.n_states  # -1 = not yet finished
        on_stack = [False] * self.n_states
        stack: List[Tuple[int, bool]] = [(self.start, False)]
        while stack:
            s, processed = stack.pop()
            if processed:
                on_stack[s] = False
                best = 0
                base = s * n_classes
                for c in range(n_classes):
                    t = transitions[base + c]
                    if t >= 0 and longest[t] + 1 > best:
                        best = longest[t] + 1
                longest[s] = best
                continue
            if longest[s] >= 0 or on_stack[s]:
                continue
            on_stack[s] = True
            stack.append((s, True))
            base = s * n_classes
            for c in range(n_classes):
                t = transitions[base + c]
                if t >= 0:
                    if on_stack[t]:
                        return None  # back edge: cycle
                    if longest[t] < 0:
                        stack.append((t, False))
        return longest[self.start]


def from_nfa(nfa: NFA) -> DFA:
    """Determinize ``nfa`` via subset construction.

    Accept-tag conflicts in a subset resolve to the smallest tag
    (first-rule-wins for scanners).
    """
    all_sets = [cs for edges in nfa.char_edges for cs, _ in edges]
    blocks = partition_alphabet(all_sets)
    classifier = Classifier.build(blocks)
    n_classes = len(blocks)

    # Precompute, per NFA state, the list of (class_id, target).
    state_moves: List[List[Tuple[int, int]]] = [[] for _ in range(nfa.n_states)]
    for s in range(nfa.n_states):
        for cs, t in nfa.char_edges[s]:
            for class_id, block in enumerate(blocks):
                if cs.overlaps(block):
                    state_moves[s].append((class_id, t))

    start_set = nfa.eps_closure([nfa.start])
    subsets: Dict[frozenset[int], int] = {start_set: 0}
    worklist = [start_set]
    transitions: List[int] = []
    accepts: List[Optional[int]] = []

    def accept_of(subset: frozenset[int]) -> Optional[int]:
        tags = [nfa.accepts[s] for s in subset if s in nfa.accepts]
        return min(tags) if tags else None

    accepts.append(accept_of(start_set))
    transitions.extend([DEAD] * n_classes)

    while worklist:
        subset = worklist.pop()
        row = subsets[subset] * n_classes
        # Gather targets per class.
        per_class: Dict[int, set[int]] = {}
        for s in subset:
            for class_id, t in state_moves[s]:
                per_class.setdefault(class_id, set()).add(t)
        for class_id, targets in per_class.items():
            closure = nfa.eps_closure(sorted(targets))
            idx = subsets.get(closure)
            if idx is None:
                idx = len(subsets)
                subsets[closure] = idx
                worklist.append(closure)
                accepts.append(accept_of(closure))
                transitions.extend([DEAD] * n_classes)
            transitions[row + class_id] = idx

    return DFA(
        n_states=len(subsets),
        n_classes=n_classes,
        transitions=transitions,
        accepts=accepts,
        classifier=classifier,
    )
