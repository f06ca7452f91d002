"""Native compiled scan kernel: compile/cache/degrade machinery.

The differential answers (token ids, spans, funnel counts) live in
``test_byte_backend_equivalence``; this file covers what is unique to
the ``native`` backend: the compiler probe and its two degradation
levels (no compiler at resolve time, failed compile at build time),
the shared-object artifact cache keyed on source + compiler identity,
the single-flight compile election, and the fused ``scan_records``
entry point's record accounting.
"""

import threading

import pytest

from repro import native, persistence
from repro.codegen import resolve_backend
from repro.core.events import LogEvent
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
        assert resolve_backend("native") == "bytes"
        scanner = small_store().compile_scanner(
            cache=False, backend="native")
        assert scanner.backend == "bytes"
        assert scanner.requested_backend == "native"
        assert scanner.tokenize(b"link failed x") is not None

    def test_missing_compiler_path_degrades(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.delitem(native._PROBES, "/nonexistent/cc", raising=False)
        assert not native.native_available()
        assert resolve_backend("native") == "bytes"

    def test_probe_rechecks_when_cc_repointed(self, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.delitem(native._PROBES, "/bin/false", raising=False)
        assert not native.native_available()
        monkeypatch.delenv("CC")
        assert native.native_available()


class TestCompileFailure:
    def test_failed_compile_degrades_to_bytes(self, monkeypatch, tmp_path):
        # /usr/bin/true answers --version with rc 0 (the probe passes)
        # but produces no shared object: the degradation must happen at
        # the deeper, compile-time level and still land on bytes.
        monkeypatch.setenv("CC", "/usr/bin/true")
        monkeypatch.delitem(native._PROBES, "/usr/bin/true", raising=False)
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        assert native.native_available()
        assert resolve_backend("native") == "native"
        scanner = small_store().compile_scanner(backend="native")
        assert scanner.backend == "bytes"
        assert scanner.requested_backend == "native"
        assert scanner.tokenize(b"link failed x") is not None
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


class TestScanRecords:
    @pytest.fixture(scope="class")
    def scanner(self):
        gen = ClusterLogGenerator(HPC1, seed=11)
        return gen.store.compile_scanner(
            counting=True, cache=False, backend="native"), gen

    def test_record_accounting(self, scanner):
        s, gen = scanner
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        window = gen.generate_window(duration=600.0, n_nodes=8, n_failures=3)
        good = [e.to_line().encode() for e in window.events[:200]]
        blob = (b"\n\n" + good[0] + b"\r\n" + b"not a record\n"
                + b"\n".join(good[1:]) + b"\n")
        n_records, n_ok, items, last = s.scan_records(blob)
        assert n_records == len(good) + 1  # the malformed one counts
        assert n_ok == len(good)
        suspects = [it for it in items if it[2] == native.SUSPECT_RECORD]
        assert len(suspects) == 1
        off, length, _ = suspects[0]
        assert bytes(blob[off:off + length]) == b"not a record"
        # Every emitted hit re-tokenizes to its reported token.
        for off, length, token in items:
            if token == native.SUSPECT_RECORD:
                continue
            message = bytes(blob[off:off + length]).split(b" ", 2)[2]
            assert s.tokenize(message) == token
        last_off, last_len = last
        assert bytes(blob[last_off:last_off + last_len]) == good[-1]

    def test_empty_and_blank_blobs(self, scanner):
        s, _ = scanner
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        assert s.scan_records(b"") == (0, 0, [], None)
        assert s.scan_records(b"\n\r\n\n") == (0, 0, [], None)

    def test_backslash_record_is_suspect(self, scanner):
        # Escape sequences take the Python unescape path, so the C side
        # must flag them rather than scan the raw message.
        s, _ = scanner
        if s.backend != "native":
            pytest.skip("native kernels did not build")
        blob = record(5.0, "n0", "with \\n escape") + b"\n"
        n_records, n_ok, items, _ = s.scan_records(blob)
        assert n_records == 1
        assert [it[2] for it in items] == [native.SUSPECT_RECORD]


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
        assert scanner.backend == "bytes"
        obs = Observability()
        obs.record_scanner(scanner, 0)
        obs.record_scanner(scanner, 0)  # idempotent across run folds
        snap = obs.registry.snapshot()
        series = snap[SCANNER_BACKEND_FALLBACK]["series"]
        assert len(series) == 1
        assert series[0]["labels"]["requested"] == "native"
        assert series[0]["labels"]["backend"] == "bytes"
        assert series[0]["value"] == 1
        info = snap[SCANNER_BACKEND_INFO]["series"]
        assert {s["labels"]["backend"] for s in info} == {"bytes"}
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
