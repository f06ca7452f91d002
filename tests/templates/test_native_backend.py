"""Native compiled scan kernel: compile/cache/degrade machinery.

The differential answers (token ids, spans, funnel counts) live in
``test_byte_backend_equivalence``; this file covers what is unique to
the ``native`` backend: the compiler probe and its two degradation
levels (no compiler at resolve time, failed compile at build time),
the shared-object artifact cache keyed on source + compiler identity,
the single-flight compile election, the fused ``scan_records`` entry
point's record accounting, interned node spans and C-parsed record
times (held to a Python reference rule over generated blobs), the
``reorder`` kernel against the Python reorder buffer, including the
hits it emits in that order, and the generated C itself: it compiles
with every warning an error, and runs clean under the address and
undefined-behaviour sanitizers.
"""

import ctypes
import itertools
import math
import random
import re
import struct
import subprocess
import threading
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import native, persistence
from repro.codegen import resolve_backend
from repro.core.events import LogDecodeError, LogEvent, parse_record_bytes
from repro.logsim.stream import IngestStats, SortBuffer, _Stamped
from repro.logsim import HPC1, ClusterLogGenerator
from repro.templates import TemplateStore
from repro.templates.masking import MASK

pytestmark = pytest.mark.skipif(
    not native.native_available(), reason="no C compiler on PATH")


def small_store():
    store = TemplateStore()
    store.add("link failed " + MASK)
    store.add("node " + MASK + " health check failed")
    return store


def record(t, node, message):
    return LogEvent(t, node, message).to_line().encode()


class TestCompilerProbe:
    def test_identity_is_path_and_version(self):
        ident = native.compiler_identity()
        assert ident is not None
        path, version = ident
        assert path and version

    def test_probe_failure_degrades_at_resolve(self, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.delitem(native._PROBES, "/bin/false", raising=False)
        assert native.compiler_identity() is None
        assert not native.native_available()
        assert resolve_backend("native") == "str"
        scanner = small_store().compile_scanner(
            cache=False, backend="native")
        assert scanner.backend == "str"
        assert scanner.requested_backend == "native"
        assert scanner.tokenize("link failed x") is not None

    def test_missing_compiler_path_degrades(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.delitem(native._PROBES, "/nonexistent/cc", raising=False)
        assert not native.native_available()
        assert resolve_backend("native") == "str"

    def test_probe_rechecks_when_cc_repointed(self, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.delitem(native._PROBES, "/bin/false", raising=False)
        assert not native.native_available()
        monkeypatch.delenv("CC")
        assert native.native_available()


class TestCompileFailure:
    def test_failed_compile_degrades_to_str(self, monkeypatch, tmp_path):
        # /usr/bin/true answers --version with rc 0 (the probe passes)
        # but produces no shared object: the degradation must happen at
        # the deeper, compile-time level and still land on str.
        monkeypatch.setenv("CC", "/usr/bin/true")
        monkeypatch.delitem(native._PROBES, "/usr/bin/true", raising=False)
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        assert native.native_available()
        assert resolve_backend("native") == "native"
        scanner = small_store().compile_scanner(backend="native")
        assert scanner.backend == "str"
        assert scanner.requested_backend == "native"
        assert scanner.tokenize("link failed x") is not None
        assert not list(tmp_path.glob("*.so"))

    def test_compile_failure_leaves_no_lock_behind(self, monkeypatch,
                                                   tmp_path):
        monkeypatch.setenv("CC", "/usr/bin/true")
        monkeypatch.delitem(native._PROBES, "/usr/bin/true", raising=False)
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        assert native.compile_kernel_library("int x;") is None
        assert not list(tmp_path.glob(".*.lock"))


class TestArtifactCache:
    def test_digest_covers_source_and_compiler(self):
        a = native.native_source_digest("int a;", "/usr/bin/cc", "cc 12")
        assert a != native.native_source_digest("int b;", "/usr/bin/cc",
                                                "cc 12")
        assert a != native.native_source_digest("int a;", "/usr/bin/gcc",
                                                "cc 12")
        assert a != native.native_source_digest("int a;", "/usr/bin/cc",
                                                "cc 13")

    def test_shared_object_cached_and_reused(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_LOADED", {})
        cold = small_store().compile_scanner(backend="native")
        assert cold.backend == "native"
        objects = list(tmp_path.glob("native-*.so"))
        assert len(objects) == 1
        stamp = objects[0].stat().st_mtime_ns
        monkeypatch.setattr(native, "_LOADED", {})
        warm = small_store().compile_scanner(backend="native")
        assert warm.backend == "native"
        # Same digest, no recompile: the object file was only loaded.
        assert [p.stat().st_mtime_ns for p in tmp_path.glob("native-*.so")] \
            == [stamp]
        probes = [b"link failed x", b"nothing here", b""]
        assert [warm.tokenize(b) for b in probes] == \
            [cold.tokenize(b) for b in probes]

    def test_cache_disabled_still_compiles(self, monkeypatch, tmp_path):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", "off")
        monkeypatch.setattr(native, "_LOADED", {})
        scanner = small_store().compile_scanner(backend="native")
        assert scanner.backend == "native"
        assert not list(tmp_path.iterdir())


class TestSingleFlight:
    def test_concurrent_builds_elect_one(self, tmp_path):
        builds = []
        barrier = threading.Barrier(8)

        def build(tmp):
            builds.append(tmp)
            tmp.write_text("artifact")
            return True

        paths = []

        def worker():
            barrier.wait()
            paths.append(persistence.single_flight(
                tmp_path, "artifact.bin", build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert paths == [tmp_path / "artifact.bin"] * 8
        assert (tmp_path / "artifact.bin").read_text() == "artifact"
        assert not list(tmp_path.glob(".*"))  # no locks or temps left

    def test_artifact_published_before_lock_is_not_rebuilt(
        self, tmp_path, monkeypatch
    ):
        """A peer publishes and unlocks between the caller's probe and
        its lock acquisition: the caller wins the lock but must take the
        peer's artifact instead of building it again."""
        import os

        final = tmp_path / "artifact.bin"
        lock = str(tmp_path / ".artifact.bin.lock")
        real_open = os.open

        def peer_publishes_first(path, flags, *args, **kwargs):
            if str(path) == lock and not final.exists():
                final.write_text("peer")
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", peer_publishes_first)
        builds = []

        def build(tmp):
            builds.append(tmp)
            tmp.write_text("mine")
            return True

        path = persistence.single_flight(tmp_path, "artifact.bin", build)
        assert builds == []
        assert path == final and final.read_text() == "peer"
        assert not list(tmp_path.glob(".*"))  # the lock was released

    def test_failed_build_returns_none_and_unlocks(self, tmp_path):
        assert persistence.single_flight(
            tmp_path, "bad.bin", lambda tmp: False) is None
        assert not list(tmp_path.iterdir())
        # The lock is gone, so a later successful build goes through.
        assert persistence.single_flight(
            tmp_path, "bad.bin",
            lambda tmp: tmp.write_text("ok") or True) is not None

    def test_stale_lock_is_broken(self, tmp_path, monkeypatch):
        import os

        lock = tmp_path / ".artifact.bin.lock"
        lock.write_text("")
        old = lock.stat().st_mtime - 3600
        os.utime(lock, (old, old))
        path = persistence.single_flight(
            tmp_path, "artifact.bin",
            lambda tmp: tmp.write_text("fresh") or True,
            timeout_s=5.0, stale_s=60.0)
        assert path is not None and path.read_text() == "fresh"

    def test_wedged_lock_times_out_to_private_build(self, tmp_path):
        lock = tmp_path / ".artifact.bin.lock"
        lock.write_text("")  # fresh lock nobody will ever release
        path = persistence.single_flight(
            tmp_path, "artifact.bin",
            lambda tmp: tmp.write_text("solo") or True,
            timeout_s=0.2, stale_s=3600.0)
        assert path is not None and path.read_text() == "solo"


def split_records(blob):
    """The blob's records as the kernel indexes them: newline-split,
    one trailing CR stripped, blanks skipped."""
    out = []
    for raw in blob.split(b"\n"):
        if raw.endswith(b"\r"):
            raw = raw[:-1]
        if raw:
            out.append(raw)
    return out


# A generated record blob walks a clock from one of these stamps, so
# its runs stay inside one minute or cross a minute, hour, day, month
# or year, Feb 29 (leap and not), the epoch, and either 2^53 us edge.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US = timedelta(microseconds=1)
EXACT_US = 2 ** 53
ANCHORS_US = [(datetime(*a, tzinfo=timezone.utc) - EPOCH) // US for a in (
    (2023, 12, 31, 23, 59, 58), (2024, 2, 28, 23, 59, 59),
    (2024, 2, 29, 23, 59, 58), (2100, 2, 28, 23, 59, 59),
    (2000, 2, 29, 23, 58, 59), (2024, 4, 30, 22, 59, 59),
    (1970, 1, 1), (1969, 12, 31, 23, 59, 59),
)] + [EXACT_US - 3, -EXACT_US - 2]
STEPS_US = [0, 1, 2, 250_000, 999_999, 1_000_000, 59_000_000, 61_000_000]
# Edits of the clock's stamp.  The clock mostly stays in the minute of
# the record before, so a bad second, fraction or offset often follows
# a valid stamp of the same minute.
MUTATIONS = [
    lambda t: t, lambda t: t, lambda t: t,
    lambda t: t[:17] + b"60" + t[19:],      # second 60
    lambda t: t[:18] + b"x" + t[19:],       # non-digit second
    lambda t: t[:23] + b"/" + t[24:],       # non-digit fraction
    lambda t: t[:26] + b"+01:00",           # offset not +00:00
    lambda t: t[:26] + b"-00:00",
    lambda t: t[:14] + b"60" + t[16:],      # minute 60
    lambda t: t[:15] + b"a" + t[16:],       # non-digit minute
    lambda t: t[:16] + b"." + t[17:],       # the minute's colon
    lambda t: t[:21] + b"\\" + t[22:],      # backslash in the stamp
    lambda t: t[:31],                       # short
]
NODES = [b"n0", b"c1\\x0", b"c2", b"a\\\\b"]
MESSAGES = [b"link failed x", b"node n0 health check failed", b"all quiet",
            b"link failed \\n x", b"quiet \\\\ too", b""]
ENDINGS = [b"\n", b"\n", b"\r\n", b"\n\n", b"\r\n\r\n", b""]
CANONICAL = re.compile(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00")
# How many choices each field of a stamp_blob item has.
ITEM_SIZES = (len(STEPS_US), len(MUTATIONS), len(NODES) + 1, len(MESSAGES),
              len(ENDINGS))


def stamp_text(us):
    return (EPOCH + us * US).isoformat(timespec="microseconds").encode()


def stamp_blob(anchor, items):
    """A blob of records walking the clock from ``ANCHORS_US[anchor]``:
    each item is ``(step, mutation, node, message, ending)`` indices;
    ``node`` past ``NODES`` writes a record with no header."""
    us = ANCHORS_US[anchor]
    out = []
    for step, mutation, node, message, ending in items:
        us += STEPS_US[step]
        stamp = MUTATIONS[mutation](stamp_text(us))
        if node < len(NODES):
            out.append(b" ".join((stamp, NODES[node], MESSAGES[message])))
        else:
            out.append(stamp)
        out.append(ENDINGS[ending])
    return b"".join(out)


def stamp_blobs():
    item = st.tuples(*(st.integers(0, n - 1) for n in ITEM_SIZES))
    return st.builds(stamp_blob, st.integers(0, len(ANCHORS_US) - 1),
                     st.lists(item, max_size=30))


def stamp_corpus(seed=5, n=40):
    """``stamp_blobs`` drawn with ``random`` instead of hypothesis, for
    callers outside a ``@given`` test."""
    rng = random.Random(seed)
    return [stamp_blob(rng.randrange(len(ANCHORS_US)),
                       [tuple(rng.randrange(k) for k in ITEM_SIZES)
                        for _ in range(rng.randrange(31))])
            for _ in range(n)]


def reference_record(record):
    """The Python rule the fused pass keeps: ``(time, node, message)``
    for a record it accepts, ``None`` for a suspect.  A record is
    accepted iff its stamp is canonical, its message has no backslash,
    and its stamp lies within 2^53 us of the epoch."""
    parts = record.split(b" ", 2)
    if len(parts) < 3:
        return None
    stamp, node, message = parts
    if not CANONICAL.fullmatch(stamp) or b"\\" in message:
        return None
    try:
        when = datetime.fromisoformat(stamp.decode())
    except ValueError:
        return None
    if abs((when - EPOCH) // US) > EXACT_US:
        return None
    return when.timestamp(), node, message


def assert_scan_follows_rule(scanner, oracle, blob):
    """Hold one ``scan_records`` call over ``blob`` to
    :func:`reference_record`, its hits to ``oracle`` (a str scanner)."""
    records = split_records(blob)
    expected = [reference_record(r) for r in records]
    scan = scanner.scan_records(blob)
    assert scan.n_records == len(records)
    assert scan.n_ok == sum(e is not None for e in expected)
    assert [x[0] for x in scan.suspects] == \
        [i for i, e in enumerate(expected) if e is None]
    hits = []
    for i, e in enumerate(expected):
        if e is None:
            assert math.isnan(scan.times[i])
            continue
        t, node, message = e
        assert scan.times[i] == t, records[i]
        token = oracle.tokenize(message.decode())
        if token is not None:
            hits.append((i, token, t, node))
    index, tokens, times, nodes = scan.hits()
    assert list(zip(index, tokens, times,
                    (bytes(blob[a:a + n]) for a, n in
                     (scan.nodes[j] for j in nodes)))) == hits


class TestScanRecords:
    @pytest.fixture(scope="class")
    def scanner(self):
        gen = ClusterLogGenerator(HPC1, seed=11)
        return gen.store.compile_scanner(
            counting=True, cache=False, backend="native"), gen

    def native(self, scanner):
        s, gen = scanner
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        return s, gen

    @pytest.fixture(scope="class")
    def small(self):
        store = small_store()
        s = store.compile_scanner(cache=False, backend="native")
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        return s, store.compile_scanner(cache=False, backend="str")

    def test_record_accounting(self, scanner):
        s, gen = self.native(scanner)
        window = gen.generate_window(duration=600.0, n_nodes=8, n_failures=3)
        good = [e.to_line().encode() for e in window.events[:200]]
        blob = (b"\n\n" + good[0] + b"\r\n" + b"not a record\n"
                + b"\n".join(good[1:]) + b"\n")
        records = split_records(blob)
        scan = s.scan_records(blob)
        times = scan.times
        # malformed counts
        assert scan.n_records == len(good) + 1 == len(records)
        assert scan.n_ok == len(good)
        assert len(scan.suspects) == 1
        index, start, length = scan.suspects[0]
        assert records[index] == b"not a record"
        assert bytes(blob[start:start + length]) == b"not a record"
        assert math.isnan(times[index])
        # Every emitted hit re-tokenizes to its reported token, and
        # carries its record's parsed time and node.
        hits = list(zip(*scan.hits()))
        assert hits
        for index, token, t, node in hits:
            message = records[index].split(b" ", 2)[2]
            assert s.tokenize(message) == token
            parsed_t, parsed_node, _ = parse_record_bytes(records[index])
            assert t == parsed_t == times[index]
            start, length = scan.nodes[node]
            assert bytes(blob[start:start + length]) == parsed_node
        # Each distinct node span is listed once.
        spans = [bytes(blob[a:a + n]) for a, n in scan.nodes]
        assert len(set(spans)) == len(spans)
        # Hits and suspects come in record order, and every accepted
        # record has its time: the last one is the last good record's.
        assert [h[0] for h in hits] == sorted(h[0] for h in hits)
        assert [x[0] for x in scan.suspects] == \
            sorted(x[0] for x in scan.suspects)
        assert times[scan.n_records - 1] == parse_record_bytes(good[-1])[0]

    def test_empty_and_blank_blobs(self, scanner):
        s, _ = self.native(scanner)
        for blob in (b"", b"\n\r\n\n"):
            scan = s.scan_records(blob)
            assert (scan.n_records, scan.n_ok, scan.suspects,
                    scan.nodes) == (0, 0, [], [])
            assert scan.hits() == ([], [], [], [])

    def test_backslash_record_is_suspect(self, scanner):
        # Escape sequences take the Python unescape path, so the C side
        # must flag them rather than scan the raw message.
        s, _ = self.native(scanner)
        blob = record(5.0, "n0", "with \\n escape") + b"\n"
        scan = s.scan_records(blob)
        assert scan.n_records == 1 and scan.n_ok == 0
        assert [x[0] for x in scan.suspects] == [0] and scan.n_hits == 0
        assert math.isnan(scan.times[0])

    @settings(max_examples=300, deadline=None)
    @given(stamp_blobs())
    def test_fused_pass_follows_the_python_rule(self, small, blob):
        # Runs of stamps in one minute take the minute cache; after a
        # valid record, a same-minute stamp with a bad second, fraction
        # or offset must still fail, and 2^53 us still binds.
        assert_scan_follows_rule(*small, blob)

    def test_backslash_in_node_hides_no_escaped_message(self, small):
        # The record sweep notes a backslash anywhere in the record; the
        # message is then searched on its own, so a literal backslash in
        # the node neither flags a plain message nor hides an escaped
        # one behind it.
        blob = (record(5.0, "c1\\x0", "link failed \\ x") + b"\n"
                + record(6.0, "c1\\x0", "link failed x") + b"\n"
                + record(7.0, "c2", "link failed \n x") + b"\n")
        scan = small[0].scan_records(blob)
        assert [x[0] for x in scan.suspects] == [0, 2]
        assert_scan_follows_rule(*small, blob)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.datetimes(
        min_value=datetime(1900, 1, 1), max_value=datetime(2200, 12, 31)),
        min_size=1, max_size=40))
    @example([datetime(1904, 2, 29, 23, 59, 59, 999999),
              datetime(2000, 2, 29), datetime(2196, 2, 29, 0, 0, 0, 1),
              datetime(1969, 12, 31, 23, 59, 59, 999999),
              datetime(1900, 3, 1), datetime(2100, 2, 28, 12)])
    def test_c_time_equals_python_time(self, scanner, stamps):
        s, _ = self.native(scanner)
        text = [d.replace(tzinfo=timezone.utc).isoformat(
            timespec="microseconds") for d in stamps]
        blob = b"".join(f"{x} n0 m\n".encode() for x in text)
        scan = s.scan_records(blob)
        assert scan.n_records == scan.n_ok == len(text)
        for i, x in enumerate(text):
            assert scan.times[i] == datetime.fromisoformat(x).timestamp(), x

    @pytest.mark.parametrize("stamp, exact", [
        ("2255-06-05T23:47:34.740992+00:00", True),
        ("2255-06-05T23:47:34.740993+00:00", False),
        ("1684-07-28T00:12:25.259008+00:00", True),
        ("1684-07-28T00:12:25.259007+00:00", False),
        ("2000-02-29T12:00:00.000001+00:00", True),
        ("1969-12-31T23:59:59.999999+00:00", True),
    ])
    def test_stamps_past_2_53_us_are_suspects(self, scanner, stamp, exact):
        # Within ±2^53 µs the C time is exact; one microsecond further
        # the record goes back to Python, which still decodes it.
        s, _ = self.native(scanner)
        blob = f"{stamp} n0 link failed x\n".encode()
        scan = s.scan_records(blob)
        times = scan.times
        expected = datetime.fromisoformat(stamp).timestamp()
        if exact:
            assert scan.n_ok == 1 and times[0] == expected
        else:
            assert scan.n_ok == 0 and math.isnan(times[0])
            assert [x[0] for x in scan.suspects] == [0] \
                and scan.n_hits == 0
            assert parse_record_bytes(blob.rstrip())[0] == expected


# A main() appended to the kernel source: it runs the three blob entry
# points over length-prefixed blobs, each copied into a buffer of
# exactly its size so a read past the end trips the address sanitizer,
# and prints what each call returned.
SANITIZER_MAIN = r"""
#include <stdio.h>

int main(int argc, char **argv) {
    FILE *f = fopen(argv[1], "rb");
    void *h = aarohi_new();
    uint64_t blen;
    if (!f || !h)
        return 2;
    while (fread(&blen, sizeof(blen), 1, f) == 1) {
        char *blob = malloc(blen);
        if (fread(blob, 1, blen, f) != blen)
            return 2;
        int64_t n = aarohi_count_lines(blob, blen);
        double *times = malloc((size_t)n * sizeof(double));
        int32_t *idx = malloc((size_t)n * sizeof(int32_t));
        int32_t *tok = malloc((size_t)n * sizeof(int32_t));
        aarohi_records r;
        if (aarohi_scan_records(h, blob, blen, n, times, &r))
            return 3;
        printf("%lld %lld %lld %lld %lld %lld %lld\n", (long long)n,
               (long long)r.records, (long long)r.ok, (long long)r.hits,
               (long long)r.suspects,
               (long long)aarohi_scan_blob(h, blob, blen, n, idx, tok),
               (long long)aarohi_scan_blob(h, blob, blen, n + 1, idx, tok));
        aarohi_records_free(&r);
        free(blob);
        free(times);
        free(idx);
        free(tok);
    }
    aarohi_free(h);
    fclose(f);
    return 0;
}
"""


class TestStrictCompile:
    """The generated C, built outside the artifact cache: with every
    warning an error, and under the sanitizers."""

    @pytest.fixture(scope="class")
    def source(self):
        sources = []
        real = native.compile_kernel_library

        def capture(source, **kwargs):
            sources.append(source)
            return real(source, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(native, "compile_kernel_library", capture)
            small_store().compile_scanner(cache=False, backend="native")
        assert len(sources) == 1
        return sources[0]

    def cc(self, *args):
        return subprocess.run([native.compiler_identity()[0], *args],
                              capture_output=True, text=True, timeout=300)

    def test_kernel_compiles_without_warnings(self, source, tmp_path):
        (tmp_path / "kernel.c").write_text(source)
        proc = self.cc("-O2", "-Wall", "-Wextra", "-Werror", "-shared",
                       "-fPIC", "-o", str(tmp_path / "kernel.so"),
                       str(tmp_path / "kernel.c"))
        assert proc.returncode == 0, proc.stderr

    def test_entry_points_run_clean_under_sanitizers(self, source, tmp_path):
        # Prefixes of 0-300 bytes put the end of the blob at every offset
        # of the 8-byte word reads and of the count's 240-byte blocks.
        flags = ["-fsanitize=address,undefined",
                 "-fno-sanitize-recover=all", "-g"]
        probe = tmp_path / "probe"
        (tmp_path / "probe.c").write_text("int main(void) { return 0; }\n")
        built = self.cc(*flags, "-o", str(probe), str(tmp_path / "probe.c"))
        if built.returncode or subprocess.run(
                [str(probe)], timeout=60).returncode:
            pytest.skip("the sanitizers do not link or run here")
        (tmp_path / "entry_points.c").write_text(source + SANITIZER_MAIN)
        proc = self.cc("-O2", *flags, "-o", str(tmp_path / "entry_points"),
                       str(tmp_path / "entry_points.c"))
        assert proc.returncode == 0, proc.stderr
        corpus = stamp_corpus()
        whole = b"".join(corpus)
        corpus += [whole[:n] for n in range(301)]
        with open(tmp_path / "corpus.bin", "wb") as fh:
            for blob in corpus:
                fh.write(struct.pack("=Q", len(blob)) + blob)
        run = subprocess.run([str(tmp_path / "entry_points"),
                              str(tmp_path / "corpus.bin")],
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0 and not run.stderr, run.stderr
        # What each call returned agrees with the same calls through
        # ctypes on the cached build.
        scanner = small_store().compile_scanner(cache=False, backend="native")
        expected = []
        for blob in corpus:
            scan = scanner.scan_records(blob)
            lines = blob.split(b"\n")
            expected.append(" ".join(map(str, (
                len(lines), scan.n_records, scan.n_ok, scan.n_hits,
                len(scan.suspects),
                sum(scanner.tokenize(x) is not None for x in lines), -1))))
        assert run.stdout.splitlines() == expected


def sort_buffer_replay(times, horizon):
    """The reference: SortBuffer over the non-NaN times, returning the
    emitted record indices and its two counts."""
    stats = IngestStats()
    buffer = SortBuffer(horizon, stats)
    order = []
    for i, t in enumerate(times):
        if not math.isnan(t):
            order.extend(s.item for s in buffer.push(_Stamped(t, i)))
    order.extend(s.item for s in buffer.flush())
    return order, stats.reordered, stats.late


class TestReorderKernel:
    @pytest.fixture(scope="class")
    def scanner(self):
        s = small_store().compile_scanner(cache=False, backend="native")
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        return s

    @staticmethod
    def near_sorted():
        # Integer steps make ties common; a displacement can reach far
        # past the horizon, and NaN marks records outside the stream.
        step = st.one_of(st.just(0.0), st.integers(0, 3).map(float))
        jitter = st.one_of(st.just(0.0), st.floats(-12.0, 12.0),
                           st.just(math.nan))
        return st.lists(st.tuples(step, jitter), max_size=80).map(
            lambda pairs: [
                base + j for base, j in zip(
                    itertools.accumulate(p[0] for p in pairs),
                    (p[1] for p in pairs))])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(),
           horizon=st.sampled_from([0.001, 0.5, 1.0, 2.0, 5.0, 60.0]))
    def test_matches_sort_buffer(self, scanner, data, horizon):
        times = data.draw(self.near_sorted())
        n = len(times)
        arr = (ctypes.c_double * n)(*times)
        rank, reordered, late, last, hits = scanner.reorder(arr, n, horizon)
        assert hits is None
        order, ref_reordered, ref_late = sort_buffer_replay(times, horizon)
        emitted = sorted((r, i) for i, r in enumerate(rank) if r >= 0)
        assert [i for _, i in emitted] == order
        assert [r for r, _ in emitted] == list(range(len(order)))
        assert all(rank[i] == -1 for i, t in enumerate(times)
                   if math.isnan(t))
        assert (reordered, late) == (ref_reordered, ref_late)
        assert last == (order[-1] if order else None)

    @staticmethod
    def displaced_blob(seed=3):
        """Hits, chatter, escaped records (suspects that decode) and
        truncated ones (suspects that quarantine) from six node ids, one
        of them invalid UTF-8; a third of the stamps are displaced by up
        to 8 s."""
        rng = random.Random(seed)
        lines = []
        for i in range(600):
            t = 1000.0 + i * 0.25
            if rng.random() < 0.3:
                t += rng.uniform(-8.0, 8.0)
            node = f"n{rng.randrange(5)}"
            message = rng.choice([
                "link failed x", f"node {node} health check failed",
                "all quiet", "link failed x\\y", "quiet \\ too"])
            line = record(t, node, message)
            if rng.random() < 0.05:
                line = line[:20]  # truncated: quarantined
            elif rng.random() < 0.1:
                line = line.replace(node.encode(), b"n\xff\xfe", 1)
            lines.append(line)
        return b"\n".join(lines) + b"\n"

    @pytest.mark.parametrize("horizon", [0.0, 0.5, 5.0])
    def test_hits_leave_in_emission_order(self, scanner, horizon):
        # The fused pass's hand-off: the scan's hits, plus the hits the
        # caller decodes from suspects, leave the reorder call in the
        # emission order of the reorder buffer's reference replay.
        blob = self.displaced_blob()
        scan = scanner.scan_records(blob)
        nodes = [blob[a:a + n] for a, n in scan.nodes]
        expected = {index: (token, nodes[node])
                    for index, token, _, node in zip(*scan.hits())}
        added = quarantined = 0
        for index, start, length in scan.suspects:
            try:
                t, node, message = parse_record_bytes(
                    blob[start:start + length])
            except LogDecodeError:
                quarantined += 1
                continue
            scan.times[index] = t
            token = scanner.tokenize(message)
            if token is not None:
                scan.add_hit(index, token, len(nodes))
                nodes.append(node)
                expected[index] = (token, node)
                added += 1
        assert added and quarantined and b"n\xff\xfe" in nodes
        times = scan.times[:scan.n_records]
        emission = scanner.reorder(
            scan.times, scan.n_records, horizon, scan)
        index, tokens, hit_times, node_ids = emission.hits
        if horizon > 0:
            order, reordered, late = sort_buffer_replay(times, horizon)
            assert (emission.reordered, emission.late) == (reordered, late)
            assert reordered
        else:
            order = [i for i, t in enumerate(times) if not math.isnan(t)]
            assert (emission.reordered, emission.late) == (0, 0)
        assert emission.last == order[-1]
        assert list(index) == [i for i in order if i in expected]
        assert [(token, nodes[node])
                for token, node in zip(tokens, node_ids)] == \
            [expected[i] for i in index]
        assert list(hit_times) == [times[i] for i in index]

    def test_rejects_hits_outside_the_stream(self, scanner):
        # A hit on a record with no time (a suspect not written back),
        # or a second hit on one record, cannot be placed.
        blob = self.displaced_blob()
        for pick in (
                lambda scan: scan.suspects[0][0],
                lambda scan: scan.hits()[0][0]):
            scan = scanner.scan_records(blob)
            scan.add_hit(pick(scan), 1, 0)
            with pytest.raises(ValueError):
                scanner.reorder(scan.times, scan.n_records, 5.0, scan)

    def test_rejects_more_records_than_times(self, scanner):
        with pytest.raises(ValueError):
            scanner.reorder((ctypes.c_double * 2)(1.0, 2.0), 3, 1.0)


class TestFallbackObservability:
    def test_fallback_counter_emitted_on_degradation(self, monkeypatch):
        from repro.obs import (
            SCANNER_BACKEND_FALLBACK,
            SCANNER_BACKEND_INFO,
            Observability,
        )

        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.delitem(native._PROBES, "/bin/false", raising=False)
        scanner = small_store().compile_scanner(
            counting=True, cache=False, backend="native")
        assert scanner.backend == "str"
        obs = Observability()
        obs.record_scanner(scanner, 0)
        obs.record_scanner(scanner, 0)  # idempotent across run folds
        snap = obs.registry.snapshot()
        series = snap[SCANNER_BACKEND_FALLBACK]["series"]
        assert len(series) == 1
        assert series[0]["labels"]["requested"] == "native"
        assert series[0]["labels"]["backend"] == "str"
        assert series[0]["value"] == 1
        info = snap[SCANNER_BACKEND_INFO]["series"]
        assert {s["labels"]["backend"] for s in info} == {"str"}
        assert obs.scanner_info["fallback"] is True
        assert obs.scanner_info["requested_backend"] == "native"

    def test_no_fallback_series_when_native_builds(self):
        from repro.obs import SCANNER_BACKEND_FALLBACK, Observability

        scanner = small_store().compile_scanner(
            counting=True, cache=False, backend="native")
        if scanner.backend != "native":
            pytest.skip("native kernels did not build")
        obs = Observability()
        obs.record_scanner(scanner, 0)
        snap = obs.registry.snapshot()
        assert SCANNER_BACKEND_FALLBACK not in snap
        assert obs.scanner_info["fallback"] is False


class TestMemoSurface:
    def test_len_and_clear(self):
        scanner = small_store().compile_scanner(cache=False, backend="native")
        if scanner.backend != "native":
            pytest.skip("native kernels did not build")
        scanner.tokenize(b"link failed a")
        scanner.tokenize(b"link failed b")
        assert len(scanner.memo) == 2
        scanner.memo.clear()
        assert len(scanner.memo) == 0
        assert scanner.tokenize(b"link failed a") is not None
