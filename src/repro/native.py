"""Native scan kernel runtime: compile, cache, load, wrap.

:func:`repro.codegen.emit_native_scan_kernels_source` renders one
merged DFA as self-contained C; this module turns that source into
callable kernels:

* **compiler probe** — ``$CC``, else the first of ``cc``/``gcc``/
  ``clang`` on PATH, identified by path + ``--version`` line.  The
  probe result keys on the ``$CC`` value so test environments that
  repoint the compiler are re-probed, and a probe failure simply means
  the ``native`` backend resolves to ``str``
  (:func:`repro.codegen.resolve_backend`).
* **compile + cache** — the shared object lands in the scanner
  artifact cache (:func:`repro.persistence.scanner_cache_dir`) under a
  digest of the generated source **and the compiler identity**, so a
  compiler upgrade or table change misses cleanly.  Concurrent cold
  starts (pool workers) are serialized through
  :func:`repro.persistence.single_flight` — one compile, N loads.
* **ctypes wrappers** — :func:`make_kernels` binds one loaded library
  into the ``tokenize``/``scan_hits``/``match_span`` surface of
  :class:`repro.codegen.ScanKernels`.  Each wrapper set owns its own
  C-side state (bounded memo + funnel counters), so several scanners
  can share one cached library.  The funnel counters are read through
  a zero-copy ``ctypes`` view — always current, no refresh call.
* **fused pass hand-off** — ``scan_records`` returns a
  :class:`RecordScan`: per-record times, the hits as C arrays with
  node ids interned per call (each distinct node span listed once),
  and the suspect records apart for Python to re-parse.  ``reorder``
  emits those hits, plus any the caller decoded from suspects, in
  stream order (the reorder buffer's, or record order) as
  :class:`Emission` columns, so no per-hit tuple is built on the way
  to the chain engines.

Every failure path (no compiler, compile error, unloadable object)
returns ``None`` and the caller degrades to the ``str`` kernels; the
degradation is observable through the scanner's ``requested_backend``
(see :mod:`repro.obs`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import weakref
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

#: Bump to invalidate every cached native shared object (ABI or
#: generated-source semantics change).
NATIVE_KERNEL_VERSION = 3

_CC_TIMEOUT = 120  # seconds; a hung compiler must not hang the scanner

# Probe results keyed by the $CC value in effect (None = unset), so a
# repointed compiler is re-probed instead of served stale.
_PROBES: Dict[Optional[str], object] = {}

# Loaded libraries by source digest: dlopen once per process even when
# many scanners share one catalog (mirrors codegen._KERNEL_CODE_CACHE).
_LOADED: Dict[str, ctypes.CDLL] = {}


def compiler_identity() -> Optional[Tuple[str, str]]:
    """The C compiler to use, as ``(path, version line)``, or ``None``.

    ``$CC`` wins when set; otherwise the first of ``cc``, ``gcc``,
    ``clang`` found on PATH.  A candidate that cannot run ``--version``
    successfully is treated as absent — that is exactly the no-compiler
    CI leg (``CC=/bin/false``).
    """
    env_cc = os.environ.get("CC")
    cached = _PROBES.get(env_cc, _PROBES)
    if cached is not _PROBES:
        return cached  # type: ignore[return-value]
    result: Optional[Tuple[str, str]] = None
    if env_cc:
        candidates = [env_cc]
    else:
        candidates = ["cc", "gcc", "clang"]
    for name in candidates:
        path = shutil.which(name)
        if path is None:
            continue
        try:
            proc = subprocess.run(
                [path, "--version"], capture_output=True, text=True,
                timeout=_CC_TIMEOUT,
            )
        except (OSError, subprocess.SubprocessError):
            continue
        if proc.returncode != 0:
            continue
        first_line = (proc.stdout or proc.stderr).splitlines() or [""]
        result = (path, first_line[0].strip())
        break
    _PROBES[env_cc] = result
    return result


def native_available() -> bool:
    """True iff a working system C compiler was found."""
    return compiler_identity() is not None


def native_source_digest(source: str, cc: str, version: str) -> str:
    """Content address of one compiled kernel: generated source +
    compiler identity + ABI revision."""
    h = hashlib.sha256()
    h.update(f"native-v{NATIVE_KERNEL_VERSION}|{cc}|{version}|".encode())
    h.update(source.encode())
    return h.hexdigest()


def _invoke_cc(cc: str, source: str, out_path) -> bool:
    """Run one compile; True iff the shared object landed at
    ``out_path``.  All compiler failures are soft (degradation, not
    exceptions)."""
    out_path = Path(out_path)
    try:
        with tempfile.TemporaryDirectory(prefix="aarohi-cc-") as td:
            cfile = Path(td) / "scan_kernel.c"
            cfile.write_text(source)
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", str(out_path),
                 str(cfile)],
                capture_output=True, timeout=_CC_TIMEOUT,
            )
    except (OSError, subprocess.SubprocessError):
        return False
    return proc.returncode == 0 and out_path.exists()


def compile_kernel_library(
    source: str, *, cache: Optional[bool] = None
) -> Optional[ctypes.CDLL]:
    """Compile generated kernel source to a loaded shared library.

    Warm path: the object already sits in the artifact cache (or was
    loaded earlier in this process) and only ``dlopen`` runs.  Cold
    path: one single-flight ``cc`` invocation publishes it atomically.
    With caching disabled the object is built in a throwaway directory
    (and still memoized in-process by digest).  Returns ``None`` on any
    failure — no compiler, compile error, unloadable object.
    """
    ident = compiler_identity()
    if ident is None:
        return None
    cc, version = ident
    digest = native_source_digest(source, cc, version)
    lib = _LOADED.get(digest)
    if lib is not None:
        return lib
    from . import persistence  # late: persistence sits above codegen

    directory = persistence.scanner_cache_dir(cache)
    if directory is not None:
        path = persistence.single_flight(
            directory, f"native-{digest}.so",
            lambda tmp: _invoke_cc(cc, source, tmp),
        )
        if path is None:
            return None
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            return None
    else:
        tmpdir = tempfile.mkdtemp(prefix="aarohi-native-")
        try:
            out = Path(tmpdir) / "scan_kernel.so"
            if not _invoke_cc(cc, source, out):
                return None
            try:
                lib = ctypes.CDLL(str(out))
            except OSError:
                return None
        finally:
            # The object stays mapped after unlink (POSIX); nothing of
            # the throwaway build outlives the load.
            shutil.rmtree(tmpdir, ignore_errors=True)
    _LOADED[digest] = lib
    return lib


_p_i64 = ctypes.POINTER(ctypes.c_int64)
_p_i32 = ctypes.POINTER(ctypes.c_int32)


class _Records(ctypes.Structure):
    """Mirror of the kernel's ``aarohi_records``: one fused pass's
    output columns, in one C allocation."""

    _fields_ = [
        ("records", ctypes.c_int64), ("ok", ctypes.c_int64),
        ("cap", ctypes.c_int64), ("hits", ctypes.c_int64),
        ("suspects", ctypes.c_int64), ("nodes", ctypes.c_int64),
        ("hit_idx", _p_i64), ("hit_tok", _p_i32), ("hit_node", _p_i32),
        ("suspect_idx", _p_i64), ("suspect_start", _p_i64),
        ("suspect_len", _p_i64),
        ("node_start", _p_i64), ("node_len", _p_i64),
    ]


class RecordScan:
    """One ``scan_records`` pass over a record blob.

    ``n_records`` counts the blob's records (blank ones excluded),
    ``n_ok`` those the C header check accepted and scanned, and
    ``times`` is the per-record ``c_double`` time array (at least
    ``n_records`` long, NaN for a suspect until the caller writes its
    parsed time back).  ``nodes`` lists each distinct node span of the
    blob's hits once, as ``(start, length)``: a hit's node id is its
    position there.  ``suspects`` lists, in record order, the records
    Python must re-parse, as ``(index, start, length)`` spans of the
    whole record.  The hits stay in C until :meth:`hits` copies them
    out or the kernels' ``reorder`` call emits them; :meth:`add_hit`
    appends one the caller decoded from a suspect.
    """

    __slots__ = ("n_records", "n_ok", "times", "nodes", "suspects",
                 "_out", "_free")

    def __init__(self, lib: ctypes.CDLL, out: _Records, times):
        self._out = out
        self._free = lib.aarohi_records_free
        self.times = times
        self.n_records = out.records
        self.n_ok = out.ok
        m = out.suspects
        self.suspects: List[tuple] = list(zip(
            out.suspect_idx[:m], out.suspect_start[:m],
            out.suspect_len[:m]))
        u = out.nodes
        self.nodes: List[tuple] = list(zip(
            out.node_start[:u], out.node_len[:u]))

    @property
    def n_hits(self) -> int:
        return self._out.hits

    def add_hit(self, index: int, token: int, node: int) -> None:
        """Append a hit on record ``index`` (its time already written to
        ``times``) with node id ``node``, an id past :attr:`nodes`
        included: the caller names what each id means."""
        out = self._out
        k = out.hits
        if k >= out.cap:
            raise ValueError("more hits than records")
        out.hit_idx[k] = index
        out.hit_tok[k] = token
        out.hit_node[k] = node
        out.hits = k + 1

    def hits(self) -> Tuple[list, list, list, list]:
        """The hits' ``(index, token, time, node)`` columns, in record
        order, then the added ones."""
        out = self._out
        index = out.hit_idx[:out.hits]
        return (index, out.hit_tok[:out.hits],
                [self.times[i] for i in index], out.hit_node[:out.hits])

    def __del__(self):
        self._free(self._out)


class Emission(NamedTuple):
    """The ``reorder`` call's result.

    ``rank`` holds each record's emission position (a ``c_int64`` array,
    -1 for a record not in the stream), ``reordered`` and ``late`` are
    the reorder buffer's two counts, and ``last`` is the last record
    emitted (``None`` when none was).  Given a :class:`RecordScan`,
    ``hits`` is its hits' ``(index, token, time, node)`` columns in
    emission order, as sequences of ``int``/``float``; ``None``
    otherwise.
    """

    rank: object
    reordered: int
    late: int
    last: Optional[int]
    hits: Optional[tuple]


def _bind(lib: ctypes.CDLL) -> None:
    """Declare the kernel ABI once per loaded library."""
    if getattr(lib, "_aarohi_bound", False):
        return
    c_void_p = ctypes.c_void_p
    c_char_p = ctypes.c_char_p
    c_size_t = ctypes.c_size_t
    c_int32 = ctypes.c_int32
    c_int64 = ctypes.c_int64
    p_i32 = ctypes.POINTER(c_int32)
    p_i64 = ctypes.POINTER(c_int64)
    p_f64 = ctypes.POINTER(ctypes.c_double)
    lib.aarohi_new.argtypes = []
    lib.aarohi_new.restype = c_void_p
    lib.aarohi_free.argtypes = [c_void_p]
    lib.aarohi_free.restype = None
    lib.aarohi_memo_clear.argtypes = [c_void_p]
    lib.aarohi_memo_clear.restype = None
    lib.aarohi_memo_len.argtypes = [c_void_p]
    lib.aarohi_memo_len.restype = ctypes.c_uint32
    lib.aarohi_counts_ptr.argtypes = [c_void_p]
    lib.aarohi_counts_ptr.restype = ctypes.POINTER(ctypes.c_uint64)
    lib.aarohi_tokenize.argtypes = [c_void_p, c_char_p, c_size_t]
    lib.aarohi_tokenize.restype = c_int32
    lib.aarohi_match_span.argtypes = [
        c_char_p, c_size_t, ctypes.POINTER(c_size_t)]
    lib.aarohi_match_span.restype = c_int32
    lib.aarohi_scan_blob.argtypes = [
        c_void_p, c_char_p, c_size_t, c_int64, p_i32, p_i32]
    lib.aarohi_scan_blob.restype = c_int64
    lib.aarohi_count_lines.argtypes = [c_char_p, c_size_t]
    lib.aarohi_count_lines.restype = c_int64
    p_records = ctypes.POINTER(_Records)
    lib.aarohi_scan_records.argtypes = [
        c_void_p, c_char_p, c_size_t, c_int64, p_f64, p_records]
    lib.aarohi_scan_records.restype = ctypes.c_int
    lib.aarohi_records_free.argtypes = [p_records]
    lib.aarohi_records_free.restype = None
    lib.aarohi_reorder.argtypes = [
        p_f64, c_int64, ctypes.c_double, p_i64, p_i64, p_records,
        c_char_p]
    lib.aarohi_reorder.restype = c_int64
    lib._aarohi_bound = True


class _KernelState:
    """Owns one C-side scanner state (bounded memo + funnel counters).

    ``counts`` is a zero-copy ``uint64[3]`` view into the C struct, so
    the Python side reads live funnel counters with plain indexing —
    the :class:`~repro.templates.store.CountingTemplateScanner` funnel
    works unchanged.
    """

    __slots__ = ("lib", "handle", "counts", "_finalizer", "__weakref__")

    def __init__(self, lib: ctypes.CDLL):
        self.lib = lib
        handle = lib.aarohi_new()
        if not handle:
            raise MemoryError("native scanner state allocation failed")
        self.handle = handle
        self._finalizer = weakref.finalize(self, lib.aarohi_free, handle)
        ptr = lib.aarohi_counts_ptr(handle)
        self.counts = ctypes.cast(
            ptr, ctypes.POINTER(ctypes.c_uint64 * 3)).contents


class NativeMemo:
    """``len()``/``clear()`` view of the C-side bounded memo — the
    surface the library (and the equivalence tests) touch on the
    kernel ``memo``."""

    __slots__ = ("_state",)

    def __init__(self, state: _KernelState):
        self._state = state

    def __len__(self) -> int:
        return self._state.lib.aarohi_memo_len(self._state.handle)

    def clear(self) -> None:
        self._state.lib.aarohi_memo_clear(self._state.handle)


def _as_cbuf(blob):
    """A ctypes-passable view of ``blob`` plus its length: ``bytes``
    pass through, writable buffers (``mmap.ACCESS_COPY``) get a
    zero-copy array view, anything else is copied once."""
    if isinstance(blob, bytes):
        return blob, len(blob)
    size = len(blob)
    try:
        return (ctypes.c_char * size).from_buffer(blob), size
    except (TypeError, ValueError):
        return bytes(blob), size


def make_kernels(lib: ctypes.CDLL):
    """Bind one loaded kernel library into the ScanKernels surface.

    Returns ``(tokenize, scan_hits, match_span, memo, counts,
    scan_records, reorder)``.  The batched entry points make exactly
    one C call per batch: ``scan_hits`` joins its messages into a
    newline blob the C side re-splits (falling back to a per-message
    loop in the pathological case of a message containing a newline
    byte), ``scan_records`` drives the fused ingest+scan pass over a
    raw record blob, and ``reorder`` orders that pass's records the way
    the reorder buffer would.
    """
    _bind(lib)
    state = _KernelState(lib)
    handle = state.handle
    c_tokenize = lib.aarohi_tokenize
    c_scan_blob = lib.aarohi_scan_blob
    c_match_span = lib.aarohi_match_span
    # Grow-only hit output arrays, shared across calls (hits are
    # bounded by the batch size).
    out: dict = {"cap": 0, "idx": None, "tok": None}

    def tokenize(message, _scan=c_tokenize, _h=handle):
        token = _scan(_h, message, len(message))
        return token if token >= 0 else None

    def scan_hits(messages, _scan=c_scan_blob, _tok=c_tokenize,
                  _h=handle, _len=len, _out=out):
        n = _len(messages)
        if not n:
            return []
        if _out["cap"] < n:
            cap = max(1024, n)
            _out["idx"] = (ctypes.c_int32 * cap)()
            _out["tok"] = (ctypes.c_int32 * cap)()
            _out["cap"] = cap
        idx = _out["idx"]
        tok = _out["tok"]
        blob = b"\n".join(messages)
        k = _scan(_h, blob, _len(blob), n, idx, tok)
        if k < 0:
            # A message embedding a raw newline desynced the blob's
            # index space; the C side detects that before touching any
            # state, so the per-message re-scan stays count-exact.
            hits = []
            for i, message in enumerate(messages):
                token = _tok(_h, message, _len(message))
                if token >= 0:
                    hits.append((i, token))
            return hits
        if not k:
            return []
        return list(zip(idx[:k], tok[:k]))

    def match_span(message, _span=c_match_span):
        end = ctypes.c_size_t(0)
        token = _span(message, len(message), ctypes.byref(end))
        if token < 0:
            return None, 0
        return token, end.value

    def scan_records(blob):
        """One fused pass over a raw record blob, as a
        :class:`RecordScan`: record counts and times, the hits with
        interned node ids, the distinct node spans and the suspects."""
        cbuf, size = _as_cbuf(blob)
        cap = lib.aarohi_count_lines(cbuf, size)
        times = (ctypes.c_double * cap)()
        records = _Records()
        rc = lib.aarohi_scan_records(
            handle, cbuf, size, cap, times, ctypes.byref(records))
        if rc == -1:
            raise MemoryError("native record-scan allocation failed")
        if rc:  # more records than counted: the buffer changed under us
            raise RuntimeError("record blob changed during the scan")
        return RecordScan(lib, records, times)

    def reorder(times, n, horizon, hits=None):
        """The emission order of ``times[:n]`` (a ``c_double`` array,
        NaN = not in the stream): :class:`~repro.logsim.stream.SortBuffer`
        replayed in C under a positive ``horizon``, record order
        otherwise.  Given ``hits``, a :class:`RecordScan` over those
        records, the same call emits its hits in that order.  Returns
        an :class:`Emission`.
        """
        if not 0 <= n <= len(times):
            raise ValueError(f"{n} records but {len(times)} times")
        rank = (ctypes.c_int64 * n)()
        counts = (ctypes.c_int64 * 3)()
        records = out = columns = None
        if hits is not None:
            # One Python-owned buffer holds the four output columns;
            # their views iterate as plain ints and floats.
            k = hits.n_hits
            records = ctypes.byref(hits._out)
            buf = bytearray(24 * k)
            out = (ctypes.c_char * len(buf)).from_buffer(buf)
            view = memoryview(buf)
            columns = (view[:8 * k].cast("q"), view[16 * k:20 * k].cast("i"),
                       view[8 * k:16 * k].cast("d"), view[20 * k:].cast("i"))
        rc = lib.aarohi_reorder(times, n, horizon, rank, counts, records, out)
        if rc == -1:
            raise MemoryError("native reorder allocation failed")
        if rc < 0:
            raise ValueError("a hit names a record outside the stream, "
                             "or one another hit names")
        reordered, late, last = counts
        return Emission(rank, reordered, late,
                        last if last >= 0 else None, columns)

    return (tokenize, scan_hits, match_span, NativeMemo(state),
            state.counts, scan_records, reorder)
