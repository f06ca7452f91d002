"""Predictor code generation — Fig. 6's "produce the binary" step.

flex/bison emit a C scanner/parser that compiles to a standalone
binary; the Python analog emits **specialized source** at two levels:

* :func:`compile_scan_kernels` — the in-process scanner kernels.  The
  merged tagged DFA is lowered to a flat *translate walk*: a
  precomputed ``str.translate`` table rewrites every character to its
  alphabet equivalence class (flex ECS) in one C call, and the walk
  indexes dense ``array``-backed transition rows by ``ord`` alone.
  The kernel source is rendered with the start state, row stride and
  memo policy inlined as literals, compiled once per shape, and closed
  over the tables — so the discard path is one table walk regardless
  of how many templates were merged.  ``backend="native"`` renders the
  same DFA over its byte alphabet as C
  (:func:`emit_native_scan_kernels_source`) compiled with the system
  ``cc``, and falls back to the translate walk wherever it cannot.

* :func:`emit_predictor_source` — a **self-contained module** with the
  scanner tables, the chain rule tables and the Algorithm-2 driver
  baked in as literals.  The generated module imports nothing, so it
  can be dropped onto a monitoring host (the HSS workstation of
  Fig. 16) without shipping this library.

Usage::

    source = emit_predictor_source(chains, store, timeout=240.0)
    Path("aarohi_hpc3.py").write_text(source)
    # later, anywhere:
    predictor = load_predictor(source)
    flag = predictor.feed("DVS: verify filesystem: ...", t)

The generated module exposes:

* ``tokenize(message) -> token | None`` — anchored scanner
* ``Predictor`` — per-node Algorithm-2 state machine with
  ``feed(message, time) -> chain_id | None`` and ``reset()``
* ``CHAINS`` — the baked-in rule list (chain id → token tuple)
"""

from __future__ import annotations

import types
from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .regexlib.dfa import DFA

_MEMO_MISS = object()  # cache sentinel: None is a legitimate cached value

#: Kernel backends accepted by :func:`compile_scan_kernels`.
#:
#: * ``"str"``   — decoded-text kernels (the translate walk), the
#:   portable reference every differential suite checks against;
#: * ``"native"`` — the DFA's byte alphabet
#:   (:class:`~repro.regexlib.dfa.ByteAlphabet`) and renumbered
#:   accept-threshold walk rendered as C
#:   (:func:`emit_native_scan_kernels_source`), compiled at runtime with
#:   the system ``cc`` into a cached shared object and driven through
#:   ``ctypes`` over raw UTF-8 records; adds a fused ``scan_records``
#:   entry point that splits, header-checks, time-stamps and scans raw
#:   record blobs in one pass, and a ``reorder`` entry point for the
#:   reorder buffer.
#:
#: ``"native"`` falls back to ``"str"`` when no compiler is found, the
#: compile fails, the catalog has no exact byte alphabet (it
#: distinguishes non-ASCII codepoints, or has more than 254 character
#: classes), or its DFA has too many states for the uint16 walk table.
SCAN_BACKENDS = ("str", "native")


def native_available() -> bool:
    """True iff a working system C compiler was found for ``native``."""
    from . import native

    return native.native_available()


def resolve_backend(backend: str) -> str:
    """Validate a backend name, degrading ``"native"`` to ``"str"``
    when no working C compiler is found.  A *compile* failure with a
    present compiler, or a catalog out of native's range, degrades
    later, inside :func:`compile_scan_kernels`."""
    if backend not in SCAN_BACKENDS:
        raise ValueError(
            f"unknown scan backend {backend!r}; expected one of {SCAN_BACKENDS}")
    if backend == "native" and not native_available():
        return "str"
    return backend


class ScanKernels(NamedTuple):
    """The closure-specialized scanner entry points for one DFA.

    ``tokenize(message)`` is the anchored per-message scan;
    ``scan_hits(messages)`` is the batched driver loop (returns
    ``[(index, token), ...]`` for the lines that matched — discarded
    lines never leave the C-adjacent loop); ``match_span(message)``
    returns ``(token, end)`` of the longest anchored match for
    differential testing.  ``memo`` and ``counts`` expose the shared
    mutable state (bounded result cache, funnel counters) the kernels
    close over.

    ``backend`` names the kernel family actually built (see
    :data:`SCAN_BACKENDS`).  Str kernels take ``str`` messages; native
    kernels take ``bytes`` records, and ``match_span`` then reports the
    end offset in bytes.

    ``scan_records`` is the native backend's fused ingest+scan entry
    point (``None`` elsewhere): one C pass over a raw record blob that
    splits on newlines, header-checks each record, parses its time, and
    scans accepted messages, interning its hits' node ids; ``reorder``
    replays the reorder buffer over the per-record times it returns and
    emits the hits in that order — see :func:`repro.native.make_kernels`.
    """

    tokenize: Callable[[str], Optional[int]]
    scan_hits: Callable
    match_span: Callable
    memo: dict
    counts: List[int]
    backend: str = "str"
    scan_records: Optional[Callable] = None
    reorder: Optional[Callable] = None


# The kernel factory source.  All varying *shape* parameters (start
# state, row stride, memo capacity and key policy, funnel counting) are
# substituted as literals so the interpreter specializes each scanner;
# the tables themselves are bound as default arguments (LOAD_FAST, the
# cheapest name access CPython has).  Counting fragments compile to
# nothing for the uninstrumented scanner — its loops are byte-identical
# to the plain ones.
_KERNELS_TEMPLATE = '''\
def _make_kernels(transitions, accept_token, translate, first_ok, memo, miss, counts):
    def tokenize(message, _ord=ord, _len=len,
                 _trans=transitions, _accept=accept_token, _tab=translate,
                 _first=first_ok, _memo=memo, _get=memo.get, _miss=miss,
                 _counts=counts):
        if not message:
            return None
        cp = _ord(message[0])
        if cp < 128 and not _first[cp]:
            return None
{c_pass1}        key = {key_expr}
        token = _get(key, _miss)
        if token is not _miss:
            return token
{c_scan1}        state = {start}
        best = -1
        for ch in key.translate(_tab):
            state = _trans[state * {stride} + _ord(ch)]
            if state < 0:
                break
            t = _accept[state]
            if t >= 0:
                best = t
        if best < 0:
            token = None
        else:
            token = best
{c_match1}        if _len(_memo) >= {capacity}:
            _memo.clear()
        _memo[key] = token
        return token

    def scan_hits(messages, _ord=ord, _len=len,
                  _trans=transitions, _accept=accept_token, _tab=translate,
                  _first=first_ok, _memo=memo, _get=memo.get, _miss=miss,
                  _counts=counts):
        hits = []
        _append = hits.append
{c_locals}        i = -1
        for message in messages:
            i += 1
            if not message:
                continue
            cp = _ord(message[0])
            if cp < 128 and not _first[cp]:
                continue
{c_pass2}            key = {key_expr}
            token = _get(key, _miss)
            if token is _miss:
{c_scan2}                state = {start}
                best = -1
                for ch in key.translate(_tab):
                    state = _trans[state * {stride} + _ord(ch)]
                    if state < 0:
                        break
                    t = _accept[state]
                    if t >= 0:
                        best = t
                if best < 0:
                    token = None
                else:
                    token = best
{c_match2}                if _len(_memo) >= {capacity}:
                    _memo.clear()
                _memo[key] = token
            if token is not None:
                _append((i, token))
{c_fold}        return hits

    def match_span(message, _ord=ord,
                   _trans=transitions, _accept=accept_token, _tab=translate):
        state = {start}
        best = -1
        end = 0
        i = 0
        for ch in message.translate(_tab):
            state = _trans[state * {stride} + _ord(ch)]
            if state < 0:
                break
            i += 1
            t = _accept[state]
            if t >= 0:
                best = t
                end = i
        if best < 0:
            return None, 0
        return best, end

    return tokenize, scan_hits, match_span
'''

_COUNTING_FRAGMENTS = {
    "c_pass1": "        _counts[0] += 1\n",
    "c_scan1": "        _counts[1] += 1\n",
    "c_match1": "            _counts[2] += 1\n",
    "c_locals": "        n_pass = n_scan = n_match = 0\n",
    "c_pass2": "            n_pass += 1\n",
    "c_scan2": "                n_scan += 1\n",
    "c_match2": "                    n_match += 1\n",
    "c_fold": (
        "        _counts[0] += n_pass\n"
        "        _counts[1] += n_scan\n"
        "        _counts[2] += n_match\n"
    ),
}

_PLAIN_FRAGMENTS = {name: "" for name in _COUNTING_FRAGMENTS}

# Kernel shapes repeat heavily (every scanner over the same catalog has
# the same start/stride/memo policy), so code objects are cached by
# their rendered source.
_KERNEL_CODE_CACHE: Dict[str, types.CodeType] = {}


def emit_scan_kernels_source(
    *,
    start: int,
    stride: int,
    capacity: int,
    memo_len: Optional[int],
    counting: bool = False,
) -> str:
    """Render the kernel factory source for one scanner shape.

    ``memo_len`` is the DFA's :attr:`~repro.regexlib.dfa.DFA.max_match_length`:
    when finite, the memo keys on (and the walk translates) only the
    determining prefix; ``None`` (cyclic DFA) keys on the whole message.
    """
    key_expr = "message" if memo_len is None else f"message[:{memo_len}]"
    fragments = _COUNTING_FRAGMENTS if counting else _PLAIN_FRAGMENTS
    return _KERNELS_TEMPLATE.format(
        start=start,
        stride=stride,
        capacity=capacity,
        key_expr=key_expr,
        **fragments,
    )


def _accept_threshold_tables(dfa: DFA, accept_token: Sequence[int]):
    """Renumber states so accepting ids form the top of the id space.

    Returns ``(transitions, accept_by_state, start, athresh)`` for the
    native kernel: ``transitions`` is the renumbered walk table as a
    list with dead = ``0xFFFF`` (the kernel's uint16 sentinel, so the
    table fits only when there are fewer states than that),
    ``accept_by_state[s]`` is the external token of accepting state
    ``s`` (``-1`` below the threshold), and a state is accepting iff
    ``s >= athresh`` — one compare in the walk instead of an
    accept-table load per step.  Pure permutation: tokens, spans and
    funnel counts are unchanged.
    """
    stride = dfa.n_classes + 1
    trans = dfa.walk_transitions
    n_states = len(trans) // stride
    order = [s for s in range(n_states) if accept_token[s] < 0]
    athresh = len(order)
    order += [s for s in range(n_states) if accept_token[s] >= 0]
    perm = [0] * n_states
    for new, old in enumerate(order):
        perm[old] = new
    # Rows in new-id order; the dead target (-1) indexes the appended
    # sentinel, so one lookup renumbers every cell, dead or live.
    renumbered = list(map((perm + [0xFFFF]).__getitem__, chain.from_iterable(
        trans[old * stride:(old + 1) * stride] for old in order)))
    accept_by_state = tuple(accept_token[old] for old in order)
    return renumbered, accept_by_state, perm[dfa.start], athresh


# The native kernel: the renumbered accept-threshold walk
# (_accept_threshold_tables) over the byte alphabet, rendered as
# self-contained C.  The header carries everything that
# varies per scanner shape (tables as static arrays, shape parameters
# as macros); the body is fixed C the compiler specializes against
# those macros.  Dead state is 0xFFFF in the uint16 walk table, checked
# before the accept compare, so the hot loop is: class lookup, table
# load, one dead test, one threshold compare.
_NATIVE_HEADER = '''\
/* Auto-generated Aarohi native scan kernel (do not edit).
 *
 * Same semantics as the Python str kernels: first-char gate, bounded
 * memo with clear-at-capacity, longest-match walk (here over the
 * renumbered accept-threshold tables), funnel counter semantics.
 * MEMO_LEN is the acyclic-DFA match bound (SIZE_MAX = cyclic, key on
 * the whole message).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define START {start}u
#define STRIDE {stride}
#define ATHRESH {athresh}u
#define CAPACITY {capacity}u
#define N_SLOTS {n_slots}u
#define MEMO_LEN {memo_len}
#define DEAD16 0xFFFFu

static const uint16_t WALK[] = {{{walk}}};
static const int32_t ACCEPT[] = {{{accept}}};
static const uint8_t CLASSES[256] = {{{classes}}};
static const uint8_t FIRST_OK[256] = {{{first_ok}}};
'''

_NATIVE_BODY = r'''
/* One probe, one cache line: the slot packs arena offset, key length
 * and token together (parallel arrays would cost up to three misses
 * per lookup on a cold table). */
typedef struct {
    uint32_t off;            /* key arena offset + 1; 0 = empty slot */
    uint32_t len;
    int32_t  tok;
} memo_slot;

typedef struct {
    memo_slot slots[N_SLOTS];
    uint32_t count;
    unsigned char *arena;    /* append-only key bytes, reset on clear */
    size_t arena_len;
    size_t arena_cap;
    uint64_t counts[3];      /* [past first-char, DFA runs, matches] */
} aarohi_state;

/* Word-at-a-time FNV-style mix with a murmur finalizer.  The hash only
 * steers probe placement — hit/miss decisions always go through the
 * memcmp — so the choice is pure performance, not semantics. */
static uint64_t hash_key(const unsigned char *p, size_t n) {
    uint64_t h = 1469598103934665603ULL ^ (n * 1099511628211ULL);
    uint64_t v;
    while (n >= 8) {
        memcpy(&v, p, 8);
        h = (h ^ v) * 1099511628211ULL;
        p += 8;
        n -= 8;
    }
    if (n) {
        v = 0;
        memcpy(&v, p, n);
        h = (h ^ v) * 1099511628211ULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

static int memo_get(const aarohi_state *st, const unsigned char *key,
                    size_t klen, int32_t *tok) {
    uint32_t i = (uint32_t)(hash_key(key, klen) & (N_SLOTS - 1u));
    while (st->slots[i].off) {
        if (st->slots[i].len == klen &&
            memcmp(st->arena + st->slots[i].off - 1, key, klen) == 0) {
            *tok = st->slots[i].tok;
            return 1;
        }
        i = (i + 1u) & (N_SLOTS - 1u);
    }
    return 0;
}

static void memo_put(aarohi_state *st, const unsigned char *key,
                     size_t klen, int32_t tok) {
    /* Same policy as the Python kernels: wholesale clear when full,
     * then insert.  CAPACITY <= N_SLOTS / 2, so a probe always finds
     * an empty slot.  The memo is best-effort: allocation failure
     * skips the insert, never the scan. */
    if (st->count >= CAPACITY) {
        memset(st->slots, 0, sizeof(st->slots));
        st->count = 0;
        st->arena_len = 0;
    }
    if (st->arena_len + klen + 1 > UINT32_MAX)
        return;
    if (st->arena_len + klen > st->arena_cap) {
        size_t cap = st->arena_cap ? st->arena_cap : 65536;
        while (cap < st->arena_len + klen)
            cap *= 2;
        unsigned char *next = realloc(st->arena, cap);
        if (!next)
            return;
        st->arena = next;
        st->arena_cap = cap;
    }
    uint32_t i = (uint32_t)(hash_key(key, klen) & (N_SLOTS - 1u));
    while (st->slots[i].off) {
        if (st->slots[i].len == klen &&
            memcmp(st->arena + st->slots[i].off - 1, key, klen) == 0) {
            st->slots[i].tok = tok;
            return;
        }
        i = (i + 1u) & (N_SLOTS - 1u);
    }
    memcpy(st->arena + st->arena_len, key, klen);
    st->slots[i].off = (uint32_t)st->arena_len + 1u;
    st->slots[i].len = (uint32_t)klen;
    st->slots[i].tok = tok;
    st->arena_len += klen;
    st->count++;
}

/* SWAR single-byte search: glibc memchr pays call+setup overhead on
 * every ~40-byte log line; eight bytes per step with no call wins on
 * short ranges.  Falls back to memchr where the bit tricks are not
 * known-safe (non-GNU compiler or big-endian target). */
#if defined(__GNUC__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
static const char *find_byte(const char *p, const char *end, char c) {
    const uint64_t ones = 0x0101010101010101ULL;
    const uint64_t high = 0x8080808080808080ULL;
    const uint64_t pat = ones * (unsigned char)c;
    uint64_t v, m;
    while (end - p >= 8) {
        memcpy(&v, p, 8);
        v ^= pat;
        m = (v - ones) & ~v & high;
        if (m)
            return p + (__builtin_ctzll(m) >> 3);
        p += 8;
    }
    for (; p < end; p++)
        if (*p == c)
            return p;
    return NULL;
}

/* The end of the record at p (its newline, or NULL at the blob's end)
 * in the same sweep that notes whether any byte before that end is a
 * backslash.  Within a word a borrow can only flag a byte above a true
 * match, so "any backslash below the first newline" is exact. */
static const char *find_record_end(const char *p, const char *end,
                                   int *backslash) {
    const uint64_t ones = 0x0101010101010101ULL;
    const uint64_t high = 0x8080808080808080ULL;
    const uint64_t nl = ones * (unsigned char)'\n';
    const uint64_t bs = ones * (unsigned char)'\\';
    uint64_t v, a, b, seen = 0;
    while (end - p >= 8) {
        memcpy(&v, p, 8);
        a = v ^ nl;
        b = v ^ bs;
        uint64_t m = (a - ones) & ~a & high;
        b = (b - ones) & ~b & high;
        if (m) {
            *backslash = (seen | (b & ((m & -m) - 1))) != 0;
            return p + (__builtin_ctzll(m) >> 3);
        }
        seen |= b;
        p += 8;
    }
    for (; p < end && *p != '\n'; p++)
        seen |= *p == '\\';
    *backslash = seen != 0;
    return p < end ? p : NULL;
}
#else
static const char *find_byte(const char *p, const char *end, char c) {
    return memchr(p, c, (size_t)(end - p));
}

static const char *find_record_end(const char *p, const char *end,
                                   int *backslash) {
    const char *nl = find_byte(p, end, '\n');
    *backslash = find_byte(p, nl ? nl : end, '\\') != NULL;
    return nl;
}
#endif

static int32_t walk_key(const unsigned char *key, size_t klen) {
    uint32_t state = START;
    uint32_t best = DEAD16;
    for (size_t j = 0; j < klen; j++) {
        state = WALK[(size_t)state * STRIDE + CLASSES[key[j]]];
        if (state == DEAD16)
            break;
        if (state >= ATHRESH)
            best = state;
    }
    return best == DEAD16 ? -1 : ACCEPT[best];
}

static int32_t scan_message(aarohi_state *st, const unsigned char *msg,
                            size_t len) {
    if (len == 0 || !FIRST_OK[msg[0]])
        return -1;
    st->counts[0]++;
    size_t klen = len < MEMO_LEN ? len : MEMO_LEN;
    int32_t tok;
    if (memo_get(st, msg, klen, &tok))
        return tok;
    st->counts[1]++;
    tok = walk_key(msg, klen);
    if (tok >= 0)
        st->counts[2]++;
    memo_put(st, msg, klen, tok);
    return tok;
}

void *aarohi_new(void) {
    return calloc(1, sizeof(aarohi_state));
}

void aarohi_free(void *h) {
    aarohi_state *st = h;
    if (!st)
        return;
    free(st->arena);
    free(st);
}

void aarohi_memo_clear(void *h) {
    aarohi_state *st = h;
    memset(st->slots, 0, sizeof(st->slots));
    st->count = 0;
    st->arena_len = 0;
}

uint32_t aarohi_memo_len(void *h) {
    return ((aarohi_state *)h)->count;
}

uint64_t *aarohi_counts_ptr(void *h) {
    return ((aarohi_state *)h)->counts;
}

int32_t aarohi_tokenize(void *h, const char *msg, size_t len) {
    return scan_message(h, (const unsigned char *)msg, len);
}

int32_t aarohi_match_span(const char *msg, size_t len, size_t *end) {
    const unsigned char *m = (const unsigned char *)msg;
    uint32_t state = START;
    uint32_t best = DEAD16;
    size_t bend = 0;
    for (size_t j = 0; j < len; j++) {
        state = WALK[(size_t)state * STRIDE + CLASSES[m[j]]];
        if (state == DEAD16)
            break;
        if (state >= ATHRESH) {
            best = state;
            bend = j + 1;
        }
    }
    if (best == DEAD16)
        return -1;
    *end = bend;
    return ACCEPT[best];
}

/* Newlines + 1: the record-count bound the caller sizes the per-record
 * time array with, and aarohi_scan_blob's message count.  A byte loop
 * with a 64-bit sum compiles to one compare per byte, so newlines are
 * summed in a byte accumulator over fixed 240-byte blocks (a multiple
 * of the vector width, and under 256 so a lane cannot wrap): GCC 12+
 * vectorizes that at -O2, and the attribute asks older GCCs to. */
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("tree-vectorize")))
#endif
int64_t aarohi_count_lines(const char *blob, size_t blen) {
    const unsigned char *q = (const unsigned char *)blob;
    int64_t n = 1;
    for (; blen >= 240; q += 240, blen -= 240) {
        uint8_t block = 0;
        for (size_t j = 0; j < 240; j++)
            block += q[j] == '\n';
        n += block;
    }
    for (size_t j = 0; j < blen; j++)
        n += q[j] == '\n';
    return n;
}

int64_t aarohi_scan_blob(void *h, const char *blob, size_t blen,
                         int64_t n_expected, int32_t *out_idx,
                         int32_t *out_tok) {
    aarohi_state *st = h;
    const char *p = blob;
    const char *endp = blob + blen;
    /* Desync guard: a message embedding a raw newline would shift
     * every index after it.  Verify the message count first at vector
     * pace — no state is touched on a mismatch, so the caller's
     * per-message fallback leaves the memo and funnel counters exactly
     * as a clean batch would have. */
    if (aarohi_count_lines(blob, blen) != n_expected)
        return -1;
    int64_t i = 0, k = 0;
    for (;;) {
        const char *nl = (p < endp) ? find_byte(p, endp, '\n') : NULL;
        const char *e = nl ? nl : endp;
        int32_t tok = scan_message(
            st, (const unsigned char *)p, (size_t)(e - p));
        if (tok >= 0) {
            out_idx[k] = (int32_t)i;
            out_tok[k] = tok;
            k++;
        }
        i++;
        if (!nl)
            break;
        p = nl + 1;
    }
    return k;
}

/* Canonical Event.to_line timestamp: YYYY-MM-DDTHH:MM:SS.ffffff+00:00,
 * 32 bytes, the UTC offset exactly +00:00.  Its minute, the first
 * STAMP_KEY bytes, is checked against MINUTE_PAT ('d' = any digit,
 * everything else literal) and the rest by ts_tail.  Range checks
 * below make acceptance imply that datetime.fromisoformat succeeds, so
 * every record this passes is one Python would decode — anything else
 * goes back as a suspect. */
#define STAMP_KEY 17
static const char MINUTE_PAT[STAMP_KEY + 1] = "dddd-dd-ddTdd:dd:";

/* |microseconds| up to which an int64 converts to double exactly. */
#define EXACT_US 9007199254740992LL /* 2^53 */

/* Days from 1970-01-01 to a proleptic Gregorian date (years 1..9999),
 * by the era/day-of-era decomposition. */
static int64_t days_from_civil(int year, int mon, int day) {
    int64_t y = year - (mon <= 2);
    int64_t era = y / 400;
    int64_t yoe = y - era * 400;
    int64_t doy = (153 * (mon + (mon > 2 ? -3 : 9)) + 2) / 5 + day - 1;
    int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + doe - 719468;
}

#define NOT_DIGIT(c) ((unsigned)((c) - '0') > 9u)

/* The microseconds since 1970 at the minute s[0:STAMP_KEY] names, into
 * *us; 0 (and *us untouched) unless the minute is canonical and names
 * a real date and time. */
static int ts_minute(const unsigned char *s, int64_t *us) {
    for (size_t i = 0; i < STAMP_KEY; i++) {
        unsigned char p = (unsigned char)MINUTE_PAT[i];
        if (p == 'd' ? NOT_DIGIT(s[i]) : s[i] != p)
            return 0;
    }
    int year = (s[0] - '0') * 1000 + (s[1] - '0') * 100
             + (s[2] - '0') * 10 + (s[3] - '0');
    int mon = (s[5] - '0') * 10 + (s[6] - '0');
    int day = (s[8] - '0') * 10 + (s[9] - '0');
    int hour = (s[11] - '0') * 10 + (s[12] - '0');
    int minute = (s[14] - '0') * 10 + (s[15] - '0');
    static const int mdays[13] = {0, 31, 28, 31, 30, 31, 30,
                                  31, 31, 30, 31, 30, 31};
    if (year == 0 || mon < 1 || mon > 12 || day < 1)
        return 0;
    int dmax = mdays[mon];
    if (mon == 2 && year % 4 == 0 && (year % 100 != 0 || year % 400 == 0))
        dmax = 29;
    if (day > dmax || hour > 23 || minute > 59)
        return 0;
    *us = (days_from_civil(year, mon, day) * 86400
           + hour * 3600 + minute * 60) * 1000000;
    return 1;
}

/* True iff s[STAMP_KEY:32] reads SS.ffffff+00:00 (digits where SS and
 * ffffff stand).  Every stamp takes this check, so it is spelled out
 * without branches on the digits. */
static int ts_tail(const unsigned char *s) {
    int bad = NOT_DIGIT(s[17]) | NOT_DIGIT(s[18]) | (s[19] != '.')
        | NOT_DIGIT(s[20]) | NOT_DIGIT(s[21]) | NOT_DIGIT(s[22])
        | NOT_DIGIT(s[23]) | NOT_DIGIT(s[24]) | NOT_DIGIT(s[25]);
    return !bad && memcmp(s + 26, "+00:00", 6) == 0;
}

/* One scan_records call's last canonical minute and its microseconds
 * since 1970.  A run of stamps inside one minute parses that minute
 * once: a stamp whose first STAMP_KEY bytes equal the key takes
 * minute_us as is.  It starts at the epoch's minute, so no flag is
 * needed for "nothing cached yet". */
typedef struct {
    unsigned char key[STAMP_KEY];
    int64_t minute_us;
} stamp_cache;

/* Parse a canonical stamp into *t, epoch seconds bit-identical to
 * datetime.fromisoformat(s).timestamp(): an aware datetime's timestamp
 * is its exact integer microseconds since 1970 divided once by 10**6,
 * correctly rounded, and for |us| <= 2^53 both operands are exact
 * doubles, so one IEEE division rounds to the same value.  Past 2^53
 * the int64 -> double step would round first; such stamps (before
 * 1685 or after 2255) return 0 and go back as suspects.  The seconds,
 * fraction, offset and that bound are checked on every stamp, cached
 * minute or not; the cache only ever holds a minute ts_minute passed. */
static int ts_parse(stamp_cache *cache, const unsigned char *s, size_t n,
                    double *t) {
    if (n != 32 || !ts_tail(s))
        return 0;
    int sec = (s[17] - '0') * 10 + (s[18] - '0');
    if (sec > 59)
        return 0;
    if (memcmp(s, cache->key, STAMP_KEY) != 0) {
        if (!ts_minute(s, &cache->minute_us))
            return 0;
        memcpy(cache->key, s, STAMP_KEY);
    }
    int64_t frac = 0;
    for (size_t i = 20; i < 26; i++)
        frac = frac * 10 + (s[i] - '0');
    int64_t us = cache->minute_us + sec * 1000000LL + frac;
    if (us > EXACT_US || us < -EXACT_US)
        return 0;
    *t = (double)us / 1e6;
    return 1;
}

/* One aarohi_scan_records call's output.  Hits (records whose message
 * scanned to a token) are listed in record order, each with its record
 * index, token and node id (its time is its record's); suspects
 * (records Python must re-parse) are listed apart, each with its record
 * index and span.  A node id indexes the node spans, which hold each
 * distinct node span of the call once, in order of first appearance.
 * Every column has room for cap entries, so the caller may append the
 * hits it decodes from suspects; all columns share one allocation,
 * released by aarohi_records_free. */
typedef struct {
    int64_t records, ok, cap, hits, suspects, nodes;
    int64_t *hit_idx;        /* base of the shared allocation */
    int32_t *hit_tok;
    int32_t *hit_node;
    int64_t *suspect_idx, *suspect_start, *suspect_len;
    int64_t *node_start, *node_len;
} aarohi_records;

/* The call's node interning table: open-addressed node ids + 1
 * (0 = empty slot) keyed on the span bytes, doubled when half full. */
typedef struct {
    uint32_t *slots;
    size_t mask;
} node_table;

static int node_table_grow(node_table *tab, const aarohi_records *out,
                           const char *blob) {
    size_t mask = tab->mask * 2 + 1;
    uint32_t *slots = calloc(mask + 1, sizeof(uint32_t));
    if (!slots)
        return -1;
    for (int64_t id = 0; id < out->nodes; id++) {
        size_t i = (size_t)hash_key(
            (const unsigned char *)blob + out->node_start[id],
            (size_t)out->node_len[id]) & mask;
        while (slots[i])
            i = (i + 1) & mask;
        slots[i] = (uint32_t)id + 1u;
    }
    free(tab->slots);
    tab->slots = slots;
    tab->mask = mask;
    return 0;
}

/* The node id of span[0:len], interning the span on first sight;
 * -1 when the table cannot grow. */
static int64_t intern_node(node_table *tab, aarohi_records *out,
                           const char *blob, const char *span, size_t len) {
    size_t i = (size_t)hash_key((const unsigned char *)span, len)
        & tab->mask;
    uint32_t slot;
    while ((slot = tab->slots[i])) {
        int64_t id = (int64_t)slot - 1;
        if (out->node_len[id] == (int64_t)len
                && memcmp(blob + out->node_start[id], span, len) == 0)
            return id;
        i = (i + 1) & tab->mask;
    }
    if (out->nodes >= INT32_MAX)
        return -1;
    int64_t id = out->nodes++;
    out->node_start[id] = span - blob;
    out->node_len[id] = (int64_t)len;
    tab->slots[i] = (uint32_t)id + 1u;
    if ((size_t)out->nodes * 2 > tab->mask
            && node_table_grow(tab, out, blob) < 0)
        return -1;
    return id;
}

/* Fused ingest+scan: split a raw record blob on newlines, strip one
 * trailing CR per record, skip blanks, header-split each record on its
 * first two spaces and parse the timestamp.  Records that pass are
 * counted ok, their time stored in times[record], and their message
 * scanned; a hit interns its node span.  Records that do not pass (or
 * whose message contains a backslash, i.e. possible escape sequences)
 * get a NaN time and are listed as suspects for the caller to re-parse.
 * Returns -1 when an allocation fails, -2 when the blob holds more than
 * cap records; *out is filled only on success. */
int aarohi_scan_records(void *h, const char *blob, size_t blen,
                        int64_t cap, double *times, aarohi_records *out) {
    aarohi_state *st = h;
    size_t c = cap > 0 ? (size_t)cap : 1;
    aarohi_records r;
    memset(&r, 0, sizeof(r));
    char *block = malloc(c * (6 * sizeof(int64_t) + 2 * sizeof(int32_t)));
    node_table tab = {calloc(256, sizeof(uint32_t)), 255};
    if (!block || !tab.slots) {
        free(block);
        free(tab.slots);
        return -1;
    }
    r.cap = (int64_t)c;
    r.hit_idx = (int64_t *)block;
    r.suspect_idx = r.hit_idx + c;
    r.suspect_start = r.suspect_idx + c;
    r.suspect_len = r.suspect_start + c;
    r.node_start = r.suspect_len + c;
    r.node_len = r.node_start + c;
    r.hit_tok = (int32_t *)(r.node_len + c);
    r.hit_node = r.hit_tok + c;
    int rc = 0;
    int64_t records = 0, ok = 0, k = 0, m = 0;
    stamp_cache stamps = {.minute_us = 0};
    memcpy(stamps.key, "1970-01-01T00:00:", STAMP_KEY);
    const char *p = blob;
    const char *endp = blob + blen;
    for (;;) {
        int backslash;
        const char *nl = find_record_end(p, endp, &backslash);
        const char *e = nl ? nl : endp;
        if (e > p && e[-1] == '\r')
            e--;
        if (e > p) {
            if (records >= cap) {
                rc = -2;
                break;
            }
            int64_t rec = records++;
            size_t rlen = (size_t)(e - p);
            /* Canonical records carry the 32-char timestamp, so the
             * first space is at offset 32; anything else takes the
             * generic search and fails ts_parse into the suspect path. */
            const char *sp1 = (rlen > 32 && p[32] == ' ')
                ? p + 32 : find_byte(p, e, ' ');
            const char *sp2 = sp1 ? find_byte(sp1 + 1, e, ' ') : NULL;
            double t = NAN;
            int suspect = !sp2 || !ts_parse(
                &stamps, (const unsigned char *)p, (size_t)(sp1 - p), &t);
            const char *msg = sp2 ? sp2 + 1 : p;
            size_t mlen = sp2 ? (size_t)(e - msg) : 0;
            /* The sweep saw a backslash somewhere in the record: only
             * one in the message marks possible escapes. */
            if (!suspect && backslash && find_byte(msg, e, '\\'))
                suspect = 1;
            if (suspect) {
                times[rec] = NAN;
                r.suspect_idx[m] = rec;
                r.suspect_start[m] = p - blob;
                r.suspect_len[m] = (int64_t)rlen;
                m++;
            } else {
                ok++;
                times[rec] = t;
                int32_t tok = scan_message(
                    st, (const unsigned char *)msg, mlen);
                if (tok >= 0) {
                    int64_t id = intern_node(
                        &tab, &r, blob, sp1 + 1, (size_t)(sp2 - sp1 - 1));
                    if (id < 0) {
                        rc = -1;
                        break;
                    }
                    r.hit_idx[k] = rec;
                    r.hit_tok[k] = tok;
                    r.hit_node[k] = (int32_t)id;
                    k++;
                }
            }
        }
        if (!nl)
            break;
        p = nl + 1;
    }
    free(tab.slots);
    if (rc) {
        free(block);
        return rc;
    }
    r.records = records;
    r.ok = ok;
    r.hits = k;
    r.suspects = m;
    *out = r;
    return 0;
}

void aarohi_records_free(aarohi_records *out) {
    free(out->hit_idx);
    out->hit_idx = NULL;
}

/* The reorder buffer's pending records, a binary min-heap on (time,
 * record index): the index is arrival order, so equal times leave
 * first-in first-out. */
typedef struct {
    double t;
    int64_t i;
} pending;

static int pending_before(pending a, pending b) {
    return a.t < b.t || (a.t == b.t && a.i < b.i);
}

static void heap_push(pending *heap, int64_t *size, pending item) {
    int64_t j = (*size)++;
    while (j > 0) {
        int64_t up = (j - 1) / 2;
        if (!pending_before(item, heap[up]))
            break;
        heap[j] = heap[up];
        j = up;
    }
    heap[j] = item;
}

static pending heap_pop(pending *heap, int64_t *size) {
    pending top = heap[0];
    pending item = heap[--*size];
    int64_t n = *size, j = 0;
    for (;;) {
        int64_t child = 2 * j + 1;
        if (child >= n)
            break;
        if (child + 1 < n && pending_before(heap[child + 1], heap[child]))
            child++;
        if (!pending_before(heap[child], item))
            break;
        heap[j] = heap[child];
        j = child;
    }
    if (n)
        heap[j] = item;
    return top;
}

/* The records' emission order: SortBuffer (repro.logsim.stream)
 * replayed over a per-record time array under a positive horizon, and
 * record order otherwise.  NaN marks a record that is not in the
 * stream.  Under a horizon a record is counted reordered when it
 * arrives behind the high-water time, and late (emitted at once) when
 * it arrives at or behind the emit watermark; otherwise it waits until
 * the high-water time passes it by the horizon.  rank[i] receives
 * record i's emission position (-1 for NaN); counts receives the
 * reordered and late counts and the last record emitted (-1 when none).
 *
 * Given hits (an aarohi_scan_records output, plus any hits the caller
 * appended), the call also writes them out in emission order into out,
 * as four columns of hits->hits entries each: record index (int64),
 * time (double, the record's), token and node id (int32).  Each hit
 * must name a distinct record in the stream.  Returns the number of
 * records emitted, -1 when an allocation fails, or -2 when a hit names
 * a record outside the stream or one another hit names. */
int64_t aarohi_reorder(const double *times, int64_t n, double horizon,
                       int64_t *rank, int64_t *counts,
                       const aarohi_records *hits, char *out) {
    int64_t nh = hits ? hits->hits : 0;
    int64_t *out_idx = (int64_t *)out;
    double *out_t = (double *)(out_idx + nh);
    int32_t *out_tok = (int32_t *)(out_t + nh);
    int32_t *out_node = out_tok + nh;
    /* Until a record is emitted, rank[] marks it: -1 for no hit, and
     * -2 - j for hit j. */
    for (int64_t i = 0; i < n; i++)
        rank[i] = -1;
    for (int64_t j = 0; j < nh; j++) {
        int64_t i = hits->hit_idx[j];
        if (i < 0 || i >= n || isnan(times[i]) || rank[i] != -1)
            return -2;
        rank[i] = -2 - j;
    }
    pending *heap = NULL;
    if (horizon > 0) {
        heap = malloc((size_t)(n > 0 ? n : 1) * sizeof(pending));
        if (!heap)
            return -1;
    }
    int64_t size = 0, emitted = 0, re = 0, lt = 0, tail = -1, k = 0;
#define EMIT(rec) do {                                          \
        int64_t i_ = (rec), j_ = -2 - rank[i_];                 \
        rank[i_] = emitted++;                                   \
        tail = i_;                                              \
        if (j_ >= 0) {                                          \
            out_idx[k] = i_;                                    \
            out_tok[k] = hits->hit_tok[j_];                     \
            out_t[k] = times[i_];                               \
            out_node[k] = hits->hit_node[j_];                   \
            k++;                                                \
        }                                                       \
    } while (0)
    double high = -INFINITY, emitted_to = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        double t = times[i];
        if (isnan(t))
            continue;
        if (!heap) {
            EMIT(i);
            continue;
        }
        if (t < high)
            re++;
        if (t <= emitted_to) {
            lt++;
            EMIT(i);
            continue;
        }
        pending item = {t, i};
        heap_push(heap, &size, item);
        if (t > high)
            high = t;
        double watermark = high - horizon;
        while (size && heap[0].t <= watermark) {
            pending out = heap_pop(heap, &size);
            emitted_to = out.t;
            EMIT(out.i);
        }
    }
    while (size)
        EMIT(heap_pop(heap, &size).i);
#undef EMIT
    free(heap);
    counts[0] = re;
    counts[1] = lt;
    counts[2] = tail;
    return emitted;
}
'''


def emit_native_scan_kernels_source(
    *,
    walk: Sequence[int],
    accept: Sequence[int],
    classes: bytes,
    first_ok: bytes,
    start: int,
    stride: int,
    athresh: int,
    capacity: int,
    memo_len: Optional[int],
) -> str:
    """Render the native scanner's C source for one scanner shape.

    ``walk`` is the renumbered accept-threshold walk table with the
    dead state already rewritten to ``0xFFFF`` (the uint16 sentinel);
    ``accept`` the per-state external token table; ``classes`` and
    ``first_ok`` the 256-entry byte-class map and first-char gate from
    :attr:`~repro.regexlib.dfa.DFA.byte_alphabet`.  The rendered source
    is self-contained (stdlib headers only) and doubles as the cache
    key material for the compiled object — any table or shape change
    reshapes the source and therefore the digest.
    """
    n_slots = 1
    while n_slots < 2 * capacity:
        n_slots *= 2
    header = _NATIVE_HEADER.format(
        start=start,
        stride=stride,
        athresh=athresh,
        capacity=capacity,
        n_slots=n_slots,
        memo_len="SIZE_MAX" if memo_len is None else str(memo_len),
        walk=_c_list(walk),
        accept=_c_list(accept),
        classes=_c_list(classes),
        first_ok=_c_list(first_ok),
    )
    return header + _NATIVE_BODY


def _c_list(values: Sequence[int]) -> str:
    """Comma-separated decimal literals, each distinct value formatted
    once: a walk table repeats a few hundred state ids, and every warm
    native load renders its source for the cache digest at start-up."""
    text = {v: str(v) for v in set(values)}
    return ",".join(map(text.__getitem__, values))


def _try_native_kernels(
    dfa: DFA, accept_token: Sequence[int], *, capacity: int
) -> Optional[ScanKernels]:
    """Build the compiled-kernel surface, or ``None`` to degrade.

    ``None`` means the caller falls back to the ``str`` kernels: no
    exact byte alphabet, state counts that overflow the uint16 walk
    table, a missing compiler, or a failed compile/load.
    """
    alpha = dfa.byte_alphabet
    if alpha is None:
        return None
    stride = dfa.n_classes + 1
    trans, accept, start, athresh = _accept_threshold_tables(dfa, accept_token)
    if len(trans) // stride >= 0xFFFF:
        return None
    from . import native

    source = emit_native_scan_kernels_source(
        walk=trans,
        accept=accept,
        classes=alpha.table,
        first_ok=alpha.first_ok,
        start=start,
        stride=stride,
        athresh=athresh,
        capacity=capacity,
        memo_len=dfa.max_match_length,
    )
    lib = native.compile_kernel_library(source)
    if lib is None:
        return None
    try:
        (tokenize, scan_hits, match_span, memo, counts, scan_records,
         reorder) = native.make_kernels(lib)
    except MemoryError:
        return None
    return ScanKernels(
        tokenize, scan_hits, match_span, memo, counts, "native",
        scan_records, reorder)


def compile_scan_kernels(
    dfa: DFA,
    rule_tokens: Sequence[int],
    *,
    memo_capacity: int = 4096,
    counting: bool = False,
    backend: str = "str",
) -> ScanKernels:
    """Build the specialized translate-walk kernels for ``dfa``.

    ``rule_tokens[tag]`` maps the DFA's accept tags (rule indices) to
    the external token ids the kernels return.  ``counting=True`` emits
    the funnel-instrumented variant whose ``counts`` list tracks
    ``[lines past first-char, DFA runs, DFA matches]``.  ``backend``
    selects the kernel family (:data:`SCAN_BACKENDS`); the native
    kernels take raw ``bytes`` records and never decode a line the
    funnel rejects.  A ``native`` request the catalog or the machine
    cannot serve degrades to ``str``, and the returned kernels'
    ``backend`` names the family actually built.
    """
    backend = resolve_backend(backend)
    accept_token = tuple(
        -1 if tag is None else rule_tokens[tag] for tag in dfa.accepts
    )
    capacity = max(1, memo_capacity)
    if backend == "native":
        kernels = _try_native_kernels(dfa, accept_token, capacity=capacity)
        if kernels is not None:
            return kernels
        # Compile failed or the catalog shape is out of native's range:
        # degrade to the str kernels, same as a missing compiler.
    source = emit_scan_kernels_source(
        start=dfa.start,
        stride=dfa.n_classes + 1,
        capacity=capacity,
        memo_len=dfa.max_match_length,
        counting=counting,
    )
    code = _KERNEL_CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro.codegen scan kernels>", "exec")
        _KERNEL_CODE_CACHE[source] = code
    namespace: dict = {}
    exec(code, namespace)
    memo: dict = {}
    counts = [0, 0, 0]
    tokenize, scan_hits, match_span = namespace["_make_kernels"](
        dfa.walk_transitions,
        accept_token,
        dfa.translate_table,
        dfa.start_viable_ascii,
        memo,
        _MEMO_MISS,
        counts,
    )
    return ScanKernels(tokenize, scan_hits, match_span, memo, counts, "str")


_TEMPLATE = '''\
"""Auto-generated Aarohi predictor (do not edit).

Generated by repro.codegen from {n_chains} failure chains over
{n_tokens} phrase templates.  Self-contained: no imports required.
"""

# -- scanner tables ---------------------------------------------------
N_CLASSES = {n_classes}
# Walk-table row stride: one column per character class plus a trailing
# always-dead column for unclassified characters.
STRIDE = {stride}
START = {start}
ASCII_CLASSES = {ascii_table!r}
CLASS_LOS = {los!r}
CLASS_HIS = {his!r}
CLASS_IDS = {ids!r}
# Dense row-major transitions (STRIDE columns per state, -1 = dead).
WALK_TRANSITIONS = {walk_transitions!r}
# Accept-state token per DFA state (-1 = non-accepting); longest match
# wins, ties broken toward the lowest rule during table construction.
ACCEPT_TOKEN = {accept_token!r}
# ASCII codepoints that can leave the DFA start state: anything else is
# rejected before the scan loop even starts (most log lines, Fig. 12).
START_OK = {start_ok!r}
# Memo key length: when the DFA is acyclic a match is decided by this
# many characters; None means cyclic — key on the whole message (still
# sound: tokenize is a pure function of the message).
MEMO_LEN = {memo_len!r}
_MEMO = {{}}
_MEMO_CAPACITY = 4096
_MEMO_MISS = object()

# -- chain rule tables ------------------------------------------------
CHAINS = {chains!r}
FIRST_OF = {first_of!r}
TIMEOUT = {timeout!r}


def _classify(cp):
    if cp < 128:
        return ASCII_CLASSES[cp]
    lo, hi = 0, len(CLASS_LOS)
    while lo < hi:
        mid = (lo + hi) // 2
        if CLASS_LOS[mid] <= cp:
            lo = mid + 1
        else:
            hi = mid
    i = lo - 1
    if i >= 0 and cp <= CLASS_HIS[i]:
        return CLASS_IDS[i]
    return -1


class _Translate(dict):
    """Memoizing codepoint → class-character map for str.translate.

    Seeded with ASCII below; any other codepoint is classified once on
    first sight and memoized.  Unclassified codepoints map to the dead
    class (N_CLASSES), whose transition column is always -1.
    """

    def __missing__(self, cp):
        cls = _classify(cp)
        ch = chr(N_CLASSES if cls < 0 else cls)
        self[cp] = ch
        return ch


TRANSLATE = _Translate(
    (cp, chr(cls if cls >= 0 else N_CLASSES))
    for cp, cls in enumerate(ASCII_CLASSES)
)


def tokenize(message):
    """Anchored longest-match scan; returns a phrase token or None.

    Flattened hot path: first-char rejection, bounded memo, then one
    merged-DFA table walk over the translate-compressed message — the
    equivalence-class mapping runs in a single C call and the walk
    indexes dense rows by ord alone.
    """
    if not message:
        return None
    cp = ord(message[0])
    if cp < 128 and not START_OK[cp]:
        return None
    key = message if MEMO_LEN is None else message[:MEMO_LEN]
    token = _MEMO.get(key, _MEMO_MISS)
    if token is not _MEMO_MISS:
        return token
    state = START
    best = -1
    transitions = WALK_TRANSITIONS
    accept = ACCEPT_TOKEN
    for ch in key.translate(TRANSLATE):
        state = transitions[state * STRIDE + ord(ch)]
        if state < 0:
            break
        t = accept[state]
        if t >= 0:
            best = t
    token = None if best < 0 else best
    if len(_MEMO) >= _MEMO_CAPACITY:
        _MEMO.clear()
    _MEMO[key] = token
    return token


class Predictor:
    """Per-node online failure predictor (Algorithm 2)."""

    __slots__ = ("_active", "_pos", "_last", "_start")

    def __init__(self):
        self.reset()

    def reset(self):
        self._active = -1
        self._pos = 0
        self._last = 0.0
        self._start = 0.0

    def feed(self, message, time):
        """Consume one log line; returns the matched chain id or None."""
        token = tokenize(message)
        if token is None:
            return None
        return self.feed_token(token, time)

    def feed_token(self, token, time):
        if self._active < 0:
            self._try_activate(token, time)
            return None
        if time - self._last > TIMEOUT:
            self.reset()
            self._try_activate(token, time)
            return None
        chain_id, tokens = CHAINS[self._active]
        if token == tokens[self._pos]:
            self._pos += 1
            self._last = time
            if self._pos == len(tokens):
                self.reset()
                return chain_id
        return None

    def _try_activate(self, token, time):
        rule = FIRST_OF.get(token, -1)
        if rule >= 0:
            self._active = rule
            self._pos = 1
            self._last = time
            self._start = time
'''


def emit_predictor_source(
    chains,
    store,
    *,
    timeout: Optional[float] = None,
) -> str:
    """Render a standalone predictor module for ``chains``."""
    compiled = store.lex_spec(keep=chains.token_set).compile()
    dfa = compiled.dfa
    classifier = dfa.classifier
    rule_tokens = [int(rule.name) for rule in compiled.spec.rules]
    accept_token = [
        -1 if tag is None else rule_tokens[tag] for tag in dfa.accepts
    ]
    chain_rows = [(c.chain_id, tuple(c.tokens)) for c in chains]
    first_of = {}
    for idx, chain in enumerate(chains):
        first_of.setdefault(chain.first, idx)
    return _TEMPLATE.format(
        n_chains=len(chains),
        n_tokens=len(rule_tokens),
        n_classes=dfa.n_classes,
        stride=dfa.n_classes + 1,
        start=dfa.start,
        ascii_table=classifier.ascii_table,
        los=classifier.los,
        his=classifier.his,
        ids=classifier.ids,
        walk_transitions=list(dfa.walk_transitions),
        accept_token=accept_token,
        start_ok=list(dfa.start_viable_ascii),
        memo_len=dfa.max_match_length,
        chains=chain_rows,
        first_of=first_of,
        timeout=float(
            chains.suggest_timeout() if timeout is None else timeout),
    )


def load_predictor(source: str, name: str = "aarohi_generated"):
    """Exec a generated module and return it (the "binary" loaded)."""
    module = types.ModuleType(name)
    exec(compile(source, f"<{name}>", "exec"), module.__dict__)
    return module
