"""Differential equivalence: the native byte kernel vs the str kernel.

The compiled C walk over the DFA's byte alphabet must be
observationally identical to the established str translate walk —
token ids, match spans, batched hits, and the funnel counters — over
all four platform catalogs, under the seeded random-template property
suite, and on corrupted streams containing invalid UTF-8.  The
compiled-artifact cache must key on the backend (a str artifact must
never satisfy a native probe, and vice versa), and ``"native"`` must
degrade to ``"str"`` without a C compiler or an exact byte alphabet.
"""

import random

import pytest

from repro import codegen, persistence
from repro.codegen import SCAN_BACKENDS, native_available, resolve_backend
from repro.logsim import HPC1, HPC2, HPC3, HPC4, ClusterLogGenerator
from repro.regexlib.dfa import TranslateTable
from repro.templates import TemplateStore
from repro.templates.masking import MASK

from test_merged_scanner_equivalence import probe_messages, random_store

PLATFORMS = [("HPC1", HPC1), ("HPC2", HPC2), ("HPC3", HPC3), ("HPC4", HPC4)]


def encode(messages):
    return [m.encode("utf-8", "replace") for m in messages]


def inputs(scanner, messages):
    """``messages`` as ``scanner``'s kernels take them: raw UTF-8 on
    native, text on the str kernels a native request degrades to
    without a C compiler (the differential then holds vacuously)."""
    return encode(messages) if scanner.backend == "native" else messages


def fresh_scanner(store, backend, keep=None):
    return store.compile_scanner(
        keep=keep, counting=True, cache=False, backend=backend)


def platform_probes(platform, seed):
    gen = ClusterLogGenerator(platform, seed=seed)
    window = gen.generate_window(duration=1200.0, n_nodes=16, n_failures=5)
    messages = [e.message for e in window.events[:4000]]
    messages += probe_messages(gen.store, seed=seed)
    return gen, messages


class TestBackendDifferential:
    @pytest.mark.parametrize("name,platform", PLATFORMS)
    def test_tokenize_and_counts_agree(self, name, platform):
        gen, messages = platform_probes(platform, seed=17)
        s_str = fresh_scanner(gen.store, "str")
        s_nat = fresh_scanner(gen.store, "native")
        assert [s_str.tokenize(m) for m in messages] == \
            [s_nat.tokenize(b) for b in inputs(s_nat, messages)]
        # Every platform catalog has an exact byte alphabet: the funnel
        # counters are identical stage for stage, not merely consistent.
        assert s_nat.compiled.dfa.byte_alphabet is not None
        assert list(s_str._counts) == list(s_nat._counts)

    @pytest.mark.parametrize("name,platform", PLATFORMS)
    def test_scan_hits_agree_across_all_backends(self, name, platform):
        gen, messages = platform_probes(platform, seed=29)
        scanners = {be: fresh_scanner(gen.store, be) for be in SCAN_BACKENDS}
        hits = {be: s.scan_hits(inputs(s, messages))
                for be, s in scanners.items()}
        assert hits["str"] == hits["native"]
        counts = {be: list(s._counts) for be, s in scanners.items()}
        assert counts["str"] == counts["native"]

    @pytest.mark.parametrize("name,platform", PLATFORMS[:2])
    def test_match_span_agrees(self, name, platform):
        gen, messages = platform_probes(platform, seed=31)
        s_str = fresh_scanner(gen.store, "str")
        s_nat = fresh_scanner(gen.store, "native")
        messages = messages[:2500]
        for m, b in zip(messages, inputs(s_nat, messages)):
            # Platform catalogs are pure ASCII, so the byte span's byte
            # offset and the str span's char offset coincide.
            assert s_nat.match_span(b) == s_str.match_span(m), m

    @pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
    def test_random_templates_property(self, seed):
        rng = random.Random(seed)
        store = random_store(rng)
        probes = probe_messages(store, seed=seed)
        fragments = [t.text.replace(MASK, "z") for t in store]
        for _ in range(150):
            k = rng.randrange(1, 4)
            probes.append(" ".join(rng.choice(fragments) for _ in range(k)))
            frag = rng.choice(fragments)
            probes.append(frag[: rng.randrange(0, len(frag) + 1)] + "q")
        s_str = fresh_scanner(store, "str")
        tokens = [s_str.tokenize(m) for m in probes]
        s = fresh_scanner(store, "native")
        assert [s.tokenize(b) for b in inputs(s, probes)] == tokens, seed
        s = fresh_scanner(store, "native")
        assert s.scan_hits(inputs(s, probes)) == [
            (i, t) for i, t in enumerate(tokens) if t is not None]


class TestInvalidUtf8:
    """Raw byte records that do not decode cleanly must tokenize the
    same as the str kernel sees after replace-decoding — corruption is
    quarantined/discarded identically, never mis-tokenized."""

    def garbled(self, gen, seed):
        rng = random.Random(seed)
        window = gen.generate_window(duration=900.0, n_nodes=12,
                                     n_failures=4)
        raw = []
        for e in window.events[:2000]:
            b = bytearray(e.message.encode())
            r = rng.random()
            if r < 0.2 and b:
                b[rng.randrange(len(b))] = rng.choice(
                    [0x80, 0xC3, 0xFE, 0xFF])  # invalid / lone bytes
            elif r < 0.3:
                b = b[: rng.randrange(0, len(b) + 1)]  # truncated record
            elif r < 0.4:
                b += bytes([0xE2, 0x28])  # dangling multi-byte head
            raw.append(bytes(b))
        return raw

    def test_garbled_records_tokenize_like_replace_decode(self):
        gen = ClusterLogGenerator(HPC3, seed=5)
        raw = self.garbled(gen, seed=5)
        decoded = [b.decode("utf-8", "replace") for b in raw]
        s_str = fresh_scanner(gen.store, "str")
        s_nat = fresh_scanner(gen.store, "native")
        if s_nat.backend != "native":
            raw = decoded  # degraded to the str kernels: text in
        assert [s_nat.tokenize(b) for b in raw] == \
            [s_str.tokenize(m) for m in decoded]
        s_nat2 = fresh_scanner(gen.store, "native")
        s_str2 = fresh_scanner(gen.store, "str")
        assert s_nat2.scan_hits(raw) == s_str2.scan_hits(decoded)

    def test_fallback_mode_agrees_on_non_ascii_catalog(self):
        # Non-ASCII template literals distinguish non-ASCII codepoints,
        # so the DFA has no exact byte alphabet.  The C walk has no
        # decode path, so a "native" request builds the str kernels —
        # same answers, degraded backend, and it says so.
        store = TemplateStore()
        store.add("temp sensor " + MASK + " overheat")
        store.add("видео link fault " + MASK)
        store.add("温度 warning " + MASK)
        s_nat = fresh_scanner(store, "native")
        assert s_nat.compiled.dfa.byte_alphabet is None
        assert s_nat.backend == "str"
        assert s_nat.requested_backend == "native"
        assert s_nat.scan_records is None
        s_str = fresh_scanner(store, "str")
        probes = ["temp sensor 9 overheat", "видео link fault x",
                  "温度 warning hot", "温度 warning", "unrelated 行",
                  "temp sensor overheat", ""]
        assert any(s_str.tokenize(m) is not None for m in probes)
        for m in probes:
            assert s_nat.tokenize(m) == s_str.tokenize(m), m
            assert s_nat.tokenize_text(m) == s_str.tokenize(m), m
            assert s_nat.match_span(m) == s_str.match_span(m), m


def large_alphabet_store(n=300):
    """``n`` templates whose CJK literals give the merged DFA ``n + 6``
    character classes, past the 254 a byte alphabet holds."""
    store = TemplateStore()
    for i in range(n):
        store.add(f"fault {chr(0x4E00 + i)} " + MASK)
    return store


class TestLargeAlphabetFallback:
    """Past 254 classes native degrades to the str kernels instead of
    raising, and says so."""

    @pytest.fixture(scope="class")
    def scanners(self):
        store = large_alphabet_store()
        return {b: fresh_scanner(store, b) for b in SCAN_BACKENDS}

    def test_byte_backends_run_str(self, scanners):
        dfa = scanners["str"].compiled.dfa
        assert dfa.n_classes > 254 and dfa.byte_alphabet is None
        assert scanners["native"].backend == "str"
        assert scanners["native"].requested_backend == "native"

    def test_tokenize_like_str(self, scanners):
        probes = [f"fault {chr(0x4E00 + i)} x{i}" for i in range(0, 300, 7)]
        probes += [f"fault {chr(0x4E00 + 300)} x", "fault x y", "fault",
                   "unrelated 行", ""]
        s_str = scanners["str"]
        want = [s_str.tokenize(m) for m in probes]
        assert None in want and any(t is not None for t in want)
        s = scanners["native"]
        assert [s.tokenize(m) for m in probes] == want
        assert [s.tokenize_text(m) for m in probes] == want
        assert [s.match_span(m) for m in probes] == \
            [s_str.match_span(m) for m in probes]
        assert s.scan_hits(probes) == s_str.scan_hits(probes)

    def test_fallback_counter(self, scanners):
        from repro.obs import SCANNER_BACKEND_FALLBACK, Observability

        obs = Observability()
        obs.record_scanner(scanners["native"], 0)
        series = obs.registry.snapshot()[SCANNER_BACKEND_FALLBACK]["series"]
        assert [(e["labels"]["requested"], e["labels"]["backend"], e["value"])
                for e in series] == [("native", "str", 1)]
        assert obs.scanner_info["fallback"] is True


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        # The retired numpy backend is rejected like any unknown name.
        for name in ("simd", "numpy"):
            with pytest.raises(ValueError):
                resolve_backend(name)

    def test_retired_bytes_backend_rejected(self):
        # The retired byte-kernel backend is rejected like any unknown
        # name, by the resolver and by the store alike.
        assert "bytes" not in SCAN_BACKENDS
        with pytest.raises(ValueError):
            resolve_backend("bytes")
        store = TemplateStore()
        store.add("link failed " + MASK)
        with pytest.raises(ValueError):
            store.compile_scanner(cache=False, backend="bytes")

    def test_backends_registry(self):
        assert SCAN_BACKENDS == ("str", "native")

    def test_native_degrades_to_str_when_no_compiler(self, monkeypatch):
        monkeypatch.setattr(codegen, "native_available", lambda: False)
        assert resolve_backend("native") == "str"
        store = TemplateStore()
        store.add("link failed " + MASK)
        scanner = store.compile_scanner(cache=False, backend="native")
        assert scanner.backend == "str"
        assert scanner.requested_backend == "native"
        assert scanner.tokenize("link failed x") is not None

    @pytest.mark.skipif(not native_available(), reason="no C compiler")
    def test_native_backend_reports_native(self):
        store = TemplateStore()
        store.add("link failed " + MASK)
        scanner = store.compile_scanner(cache=False, backend="native")
        assert scanner.backend == "native"
        assert scanner.requested_backend == "native"
        assert scanner.scan_records is not None


class TestArtifactCacheBackendKey:
    def test_backend_in_cache_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        gen = ClusterLogGenerator(HPC2, seed=13)
        spec = gen.store.lex_spec()
        assert persistence.scanner_digest(spec, backend="str") != \
            persistence.scanner_digest(spec, backend="native")

        # Cold: persists under the native key (the DFA tables need no
        # compiler, so this holds on a machine without one too).
        persistence.compile_scanner_cached(spec, backend="native")
        artifacts = list(tmp_path.glob("*.json"))
        assert len(artifacts) == 1
        # A str probe must not hit the native artifact.
        assert persistence.load_cached_scanner(spec, backend="str") is None
        assert persistence.load_cached_scanner(spec, backend="native") \
            is not None

        gen.store.compile_scanner(backend="str")
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_warm_byte_scanner_identical_to_cold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        gen = ClusterLogGenerator(HPC1, seed=3)
        cold = gen.store.compile_scanner(backend="native")
        warm = gen.store.compile_scanner(backend="native")
        probes = inputs(cold, probe_messages(gen.store, seed=2))
        assert [warm.tokenize(b) for b in probes] == \
            [cold.tokenize(b) for b in probes]
        assert [warm.match_span(b) for b in probes[:400]] == \
            [cold.match_span(b) for b in probes[:400]]


class TestTranslateMemoBound:
    def test_eviction_counter_and_bound(self):
        table = TranslateTable(lambda cp: cp % 5, dead=7, seed={}, capacity=8)
        for cp in range(0x100, 0x100 + 40):
            chr(cp).translate(table)
        assert len(table) <= 8
        assert table.evictions == 40 - 8

    def test_funnel_reports_evictions(self):
        # The wildcard must sit mid-template: a trailing one bounds the
        # memo key to the literal prefix and the walk never translates
        # (or classifies) the varying non-ASCII codepoints at all.
        store = TemplateStore()
        store.add("link failed " + MASK + " x")
        scanner = fresh_scanner(store, "str")
        assert scanner.compiled.dfa.max_match_length is None
        tt = scanner.compiled.dfa.translate_table
        tt.capacity = tt._n_seed + 4
        for cp in range(0x2200, 0x2240):
            scanner.tokenize(f"link failed {chr(cp)} x")
        funnel = scanner.funnel(lines_seen=0x40)
        assert funnel["translate_evictions"] == tt.evictions > 0
