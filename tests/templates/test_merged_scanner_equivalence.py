"""Differential equivalence: merged tagged-DFA scanner vs per-template.

The merged scanner (one alphabet-compressed table walk for the whole
catalog) must be observationally identical to trialing every template
one at a time with longest-match + lowest-token semantics:

* **token ids** — ``tokenize`` agrees line-for-line;
* **match spans** — ``match_span`` returns the same (token, end);
* **discard decisions** — a line is rejected by one iff by the other;

over all four platform catalogs and under a seeded random-template
property test that stresses overlap, shared prefixes, and tie-breaks.
The compiled-artifact cache rides the same contract: a scanner rebuilt
from cached tables must be indistinguishable from a cold compile.
"""

import random

import pytest

from repro import persistence
from repro.logsim import HPC1, HPC2, HPC3, HPC4, ClusterLogGenerator
from repro.templates import NaiveTemplateScanner, TemplateStore
from repro.templates.masking import MASK

PLATFORMS = [("HPC1", HPC1), ("HPC2", HPC2), ("HPC3", HPC3), ("HPC4", HPC4)]


def probe_messages(store, seed=0):
    """Matching, near-matching, and garbage probes for every template."""
    rng = random.Random(seed)
    fills = ["", "x", "17", "node c0-0c1s2n3", "0x" + "f" * 40, "* ? ["]
    probes = []
    for template in store:
        text = template.text
        for fill in fills:
            probes.append(text.replace(MASK, fill))
        solid = text.replace(MASK, "v")
        # Truncations exercise longest-match/prefix handling.
        probes.append(solid[: max(1, len(solid) // 2)])
        probes.append(solid[:-1])
        probes.append(solid + " trailing tail")
        # A corrupted head must be rejected by both scanners.
        probes.append("~" + solid)
        if len(solid) > 3:
            flip = rng.randrange(1, len(solid) - 1)
            probes.append(solid[:flip] + "\x01" + solid[flip + 1:])
    probes.extend(["", " ", "completely unrelated chatter", "\x00\x01",
                   "日本語のログ行", "*", ".*"])
    return probes


def assert_scanners_agree(merged, naive, messages):
    for message in messages:
        expected_token, expected_end = naive.match_span(message)
        got_token, got_end = merged.match_span(message)
        assert (got_token, got_end) == (expected_token, expected_end), message
        token = merged.tokenize(message)
        assert token == expected_token, message
        assert (token is None) == (expected_token is None), message


@pytest.mark.parametrize("name,platform", PLATFORMS)
def test_platform_catalogs_differentially_identical(name, platform):
    gen = ClusterLogGenerator(platform, seed=11)
    window = gen.generate_window(duration=1800, n_nodes=12, n_failures=4)
    merged = gen.store.compile_scanner(cache=False)
    naive = NaiveTemplateScanner(gen.store)
    messages = [e.message for e in window.events[:4000]]
    messages += probe_messages(gen.store, seed=hash(name) & 0xFFFF)
    assert_scanners_agree(merged, naive, messages)


@pytest.mark.parametrize("name,platform", PLATFORMS[:2])
def test_keep_restricted_scanner_matches_naive(name, platform):
    gen = ClusterLogGenerator(platform, seed=5)
    keep = gen.chains.token_set
    merged = gen.store.compile_scanner(keep=keep, cache=False)
    naive = NaiveTemplateScanner(gen.store, keep=keep)
    assert_scanners_agree(merged, naive, probe_messages(gen.store, seed=3))


def test_scan_hits_equals_per_line_tokenize():
    gen = ClusterLogGenerator(HPC3, seed=23)
    window = gen.generate_window(duration=1800, n_nodes=8, n_failures=3)
    messages = [e.message for e in window.events[:3000]]
    scanner = gen.store.compile_scanner(cache=False)
    reference = gen.store.compile_scanner(cache=False)
    expected = [
        (i, token)
        for i, token in enumerate(map(reference.tokenize, messages))
        if token is not None
    ]
    assert scanner.scan_hits(messages) == expected


def random_store(rng):
    """A template catalog engineered for collisions: shared heads,
    prefix-of-one-another templates, and inner/trailing wildcards."""
    words = ["alpha", "beta", "link", "fault", "warn", "DVS:", "ec_",
             "node", "retry", "panic"]
    store = TemplateStore()
    for _ in range(rng.randrange(6, 14)):
        n_parts = rng.randrange(1, 4)
        parts = [rng.choice(words) for _ in range(n_parts)]
        text = " ".join(parts)
        if rng.random() < 0.5:
            text += " " + MASK
        if rng.random() < 0.3:
            text = text.replace(" ", f" {MASK} ", 1)
        # Guarantee a non-empty literal head (an all-wildcard template
        # would match the empty string, which LexSpec rejects).
        if text.startswith(MASK):
            text = rng.choice(words) + text
        store.add(text)
        if rng.random() < 0.4:
            # A strict prefix of the same template: tie-break pressure.
            store.add(" ".join(parts[: max(1, n_parts - 1)]))
    return store


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
def test_random_templates_property(seed):
    rng = random.Random(seed)
    store = random_store(rng)
    merged = store.compile_scanner(cache=False)
    naive = NaiveTemplateScanner(store)
    probes = probe_messages(store, seed=seed)
    # Random interleavings of template fragments hit overlap cases the
    # per-template probes cannot.
    fragments = [t.text.replace(MASK, "z") for t in store]
    for _ in range(200):
        k = rng.randrange(1, 4)
        sep = rng.choice(["", " ", "  "])
        probes.append(sep.join(rng.choice(fragments) for _ in range(k)))
        frag = rng.choice(fragments)
        cut = rng.randrange(0, len(frag) + 1)
        probes.append(frag[:cut] + rng.choice(["", "q", " *", "alpha"]))
    assert_scanners_agree(merged, naive, probes)


class TestArtifactCacheEquivalence:
    def test_warm_scanner_identical_to_cold(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        gen = ClusterLogGenerator(HPC2, seed=13)
        cold = gen.store.compile_scanner()  # compiles, then persists
        assert list(tmp_path.glob("*.json")), "artifact was not persisted"
        warm = gen.store.compile_scanner()  # must load, not compile
        naive = NaiveTemplateScanner(gen.store)
        probes = probe_messages(gen.store, seed=2)
        assert_scanners_agree(warm, naive, probes)
        for message in probes:
            assert warm.tokenize(message) == cold.tokenize(message)

    def test_cache_roundtrip_preserves_tables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        gen = ClusterLogGenerator(HPC1, seed=3)
        spec = gen.store.lex_spec()
        compiled = persistence.compile_scanner_cached(spec)  # cold: persists
        loaded = persistence.load_cached_scanner(spec)
        assert loaded is not None
        assert loaded.dfa.n_states == compiled.dfa.n_states
        assert loaded.dfa.n_classes == compiled.dfa.n_classes
        assert loaded.dfa.transitions == compiled.dfa.transitions
        assert loaded.dfa.accepts == compiled.dfa.accepts
        assert loaded.dfa.max_match_length == compiled.dfa.max_match_length
        assert [r.name for r in loaded.spec.rules] == [
            r.name for r in compiled.spec.rules]

    def test_template_edit_invalidates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", str(tmp_path))
        store = TemplateStore()
        store.add("link failed *")
        store.compile_scanner()
        store.add("ec_node_failed *")
        spec = store.lex_spec()
        # The extended catalog digests differently: no stale hit.
        assert persistence.load_cached_scanner(spec) is None
        scanner = store.compile_scanner()
        assert scanner.tokenize("ec_node_failed x") is not None

    def test_disabled_cache_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AAROHI_SCANNER_CACHE", "off")
        store = TemplateStore()
        store.add("link failed *")
        store.compile_scanner()
        assert persistence.scanner_cache_dir() is None
