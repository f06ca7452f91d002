"""Model persistence: bundles and the compiled-scanner artifact cache.

A *bundle* is everything Phase 2 needs to stand up a predictor on
another host: the template store (token ↔ template ↔ severity), the
trained failure chains with their ΔT statistics, and the chosen parsing
timeout.  Bundles are plain JSON — diffable, versioned, auditable —
which matters operationally: site reliability teams review exactly
which phrases can page them.

The second half of this module is the **compiled-artifact cache** for
merged scanners.  Compiling a template catalog (NFA union → subset
construction → Hopcroft) costs tens of milliseconds per platform —
negligible once, but paid on every process start, in every pool worker,
and on every CLI invocation.  The cache persists the finished DFA
tables keyed by a digest of the rule set and the compiler version, so
warm starts skip regex compilation entirely:

* location: ``$AAROHI_SCANNER_CACHE`` if set (``0``/``off`` disables),
  else ``$XDG_CACHE_HOME/aarohi/scanners``, else
  ``~/.cache/aarohi/scanners``;
* invalidation: the digest covers every rule (name, pattern, skip
  flag), the minimization flag, the kernel backend and its byte/str
  alphabet mode, and :data:`SCANNER_COMPILER_VERSION` — any template
  edit, backend switch, or compiler change misses cleanly and
  recompiles;
* artifacts are written atomically (temp file + ``os.replace``) and
  treated as best-effort: any unreadable/stale artifact is ignored;
* concurrent cold starts (N pool workers all missing at once) are
  serialized by :func:`single_flight` — an ``O_EXCL`` lock file elects
  one builder, everyone else waits for the atomic publish — so exactly
  one compile runs per artifact.  The native backend stores its
  compiled shared objects (``native-<digest>.so``) through the same
  mechanism.

:func:`scanner_artifact` / :func:`scanner_from_artifact` are also the
wire format :class:`~repro.core.daemon.FleetDaemon` uses to ship
prebuilt tables to its shard workers instead of recompiling per
process.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union

from .core.chains import ChainSet, FailureChain
from .core.events import Severity
from .lexgen.spec import CompiledLexSpec, LexSpec
from .regexlib.dfa import DFA, Classifier
from .templates.store import TemplateStore

FORMAT_VERSION = 1

# Bump whenever regexlib/lexgen compilation semantics change: cached
# tables from an older compiler must miss, not load.
SCANNER_COMPILER_VERSION = 2
SCANNER_ARTIFACT_VERSION = 1


class BundleError(ValueError):
    """Raised for malformed or incompatible bundles."""


def store_to_dict(store: TemplateStore) -> dict:
    return {
        "templates": [
            {"token": t.token, "text": t.text, "severity": t.severity.value}
            for t in sorted(store, key=lambda t: t.token)
        ]
    }


def store_from_dict(data: dict) -> TemplateStore:
    store = TemplateStore()
    try:
        for item in data["templates"]:
            store.add(
                item["text"],
                Severity(item["severity"]),
                token=item["token"],
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise BundleError(f"bad template record: {exc}") from exc
    return store


def chains_to_dict(chains: ChainSet) -> dict:
    return {
        "chains": [
            {
                "id": c.chain_id,
                "tokens": list(c.tokens),
                "deltas": list(c.deltas),
            }
            for c in chains
        ]
    }


def chains_from_dict(data: dict) -> ChainSet:
    try:
        return ChainSet(
            FailureChain(
                chain_id=item["id"],
                tokens=tuple(item["tokens"]),
                deltas=tuple(item.get("deltas", ())),
            )
            for item in data["chains"]
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise BundleError(f"bad chain record: {exc}") from exc


@dataclass(frozen=True)
class PredictorBundle:
    """A complete, deployable predictor description."""

    store: TemplateStore
    chains: ChainSet
    timeout: float
    system: str = ""

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "system": self.system,
            "timeout": self.timeout,
            **store_to_dict(self.store),
            **chains_to_dict(self.chains),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PredictorBundle":
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise BundleError(
                f"unsupported bundle version {version!r} "
                f"(expected {FORMAT_VERSION})"
            )
        store = store_from_dict(data)
        chains = chains_from_dict(data)
        missing = chains.token_set - set(store.tokens())
        if missing:
            raise BundleError(
                f"chains reference tokens absent from the store: "
                f"{sorted(missing)}"
            )
        return cls(
            store=store,
            chains=chains,
            timeout=float(data.get("timeout", 240.0)),
            system=data.get("system", ""),
        )

    # -- I/O ------------------------------------------------------------
    def save(self, target: Union[str, Path, IO[str]]) -> None:
        if isinstance(target, (str, Path)):
            with open(target, "w", encoding="utf-8") as fh:
                self.save(fh)
            return
        json.dump(self.to_dict(), target, indent=2, sort_keys=True)
        target.write("\n")

    @classmethod
    def load(cls, source: Union[str, Path, IO[str]]) -> "PredictorBundle":
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8") as fh:
                return cls.load(fh)
        try:
            data = json.load(source)
        except json.JSONDecodeError as exc:
            raise BundleError(f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- convenience -----------------------------------------------------
    def make_fleet(self, **kwargs):
        from .core.fleet import PredictorFleet

        kwargs.setdefault("timeout", self.timeout)
        return PredictorFleet.from_store(self.chains, self.store, **kwargs)

    def emit_standalone(self) -> str:
        from .codegen import emit_predictor_source

        return emit_predictor_source(
            self.chains, self.store, timeout=self.timeout)


# -- compiled-scanner artifact cache ----------------------------------

_CACHE_DISABLED = {"", "0", "off", "none", "disabled"}


def scanner_cache_dir(cache: Optional[bool] = None) -> Optional[Path]:
    """Resolve the artifact cache directory, or ``None`` if disabled.

    ``cache=False`` bypasses the cache unconditionally; ``True``/``None``
    defer to ``AAROHI_SCANNER_CACHE`` (a directory path, or ``0``/``off``
    to disable), falling back to the XDG cache home.
    """
    if cache is False:
        return None
    env = os.environ.get("AAROHI_SCANNER_CACHE")
    if env is not None:
        if env.strip().lower() in _CACHE_DISABLED:
            return None
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "aarohi" / "scanners"


def scanner_alphabet_mode(backend: str) -> str:
    """The alphabet family a kernel backend walks: native walks
    byte-class tables, the str backend codepoint ones."""
    return "byte" if backend == "native" else "str"


def scanner_digest(
    spec: LexSpec, *, minimized: bool = True, backend: str = "str"
) -> str:
    """Content address of a compiled scanner: rule set + compiler rev +
    kernel backend (and its byte/str alphabet mode), so switching
    backends can never serve a stale artifact."""
    h = hashlib.sha256()
    h.update(
        f"v{SCANNER_COMPILER_VERSION}|min={int(minimized)}"
        f"|backend={backend}|alphabet={scanner_alphabet_mode(backend)}"
        .encode()
    )
    for rule in spec.rules:
        h.update(b"\x00")
        h.update(rule.name.encode())
        h.update(b"\x01")
        h.update(rule.pattern.encode())
        h.update(b"\x02" if rule.skip else b"\x03")
    return h.hexdigest()


def dfa_to_dict(dfa: DFA) -> dict:
    c = dfa.classifier
    return {
        "n_states": dfa.n_states,
        "n_classes": dfa.n_classes,
        "start": dfa.start,
        "transitions": list(dfa.transitions),
        "accepts": [-1 if tag is None else tag for tag in dfa.accepts],
        "ascii_table": list(c.ascii_table),
        "los": list(c.los),
        "his": list(c.his),
        "ids": list(c.ids),
        "max_match_length": dfa.max_match_length,
    }


def dfa_from_dict(data: dict) -> DFA:
    try:
        n_classes = data["n_classes"]
        dfa = DFA(
            n_states=data["n_states"],
            n_classes=n_classes,
            transitions=list(data["transitions"]),
            accepts=[None if tag < 0 else tag for tag in data["accepts"]],
            classifier=Classifier(
                ascii_table=list(data["ascii_table"]),
                los=list(data["los"]),
                his=list(data["his"]),
                ids=list(data["ids"]),
                n_classes=n_classes,
            ),
            start=data["start"],
        )
        # Seed the cached graph analysis so warm starts skip it too.
        dfa.__dict__["max_match_length"] = data["max_match_length"]
    except (KeyError, TypeError) as exc:
        raise BundleError(f"bad DFA record: {exc}") from exc
    if len(dfa.transitions) != dfa.n_states * dfa.n_classes:
        raise BundleError("DFA transition table has the wrong shape")
    return dfa


def scanner_artifact(
    compiled: CompiledLexSpec,
    *,
    minimized: bool = True,
    digest: Optional[str] = None,
    backend: str = "str",
) -> dict:
    """Serialize a compiled scanner's tables (the cache/wire format)."""
    return {
        "format_version": SCANNER_ARTIFACT_VERSION,
        "compiler_version": SCANNER_COMPILER_VERSION,
        "minimized": minimized,
        "backend": backend,
        "alphabet": scanner_alphabet_mode(backend),
        "digest": digest or scanner_digest(
            compiled.spec, minimized=minimized, backend=backend),
        "rules": [
            [rule.name, rule.pattern, rule.skip]
            for rule in compiled.spec.rules
        ],
        "dfa": dfa_to_dict(compiled.dfa),
    }


def scanner_from_artifact(data: dict) -> CompiledLexSpec:
    """Rebuild a :class:`CompiledLexSpec` from stored tables — no regex
    compilation, just object construction around the DFA arrays."""
    if data.get("format_version") != SCANNER_ARTIFACT_VERSION:
        raise BundleError(
            f"unsupported scanner artifact version "
            f"{data.get('format_version')!r}"
        )
    if data.get("compiler_version") != SCANNER_COMPILER_VERSION:
        raise BundleError("scanner artifact from a different compiler")
    try:
        spec = LexSpec()
        for name, pattern, skip in data["rules"]:
            spec.rule(name, pattern, skip=skip)
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"bad scanner rule record: {exc}") from exc
    return CompiledLexSpec(spec=spec, dfa=dfa_from_dict(data["dfa"]))


def load_cached_scanner(
    spec: LexSpec,
    *,
    minimized: bool = True,
    cache: Optional[bool] = None,
    backend: str = "str",
) -> Optional[CompiledLexSpec]:
    """Warm-start path: return the cached compiled scanner for ``spec``,
    or ``None`` on any miss (absent, stale, unreadable, disabled)."""
    directory = scanner_cache_dir(cache)
    if directory is None:
        return None
    digest = scanner_digest(spec, minimized=minimized, backend=backend)
    try:
        with open(directory / f"{digest}.json", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if data.get("digest") != digest:
        return None
    try:
        return scanner_from_artifact(data)
    except BundleError:
        return None


def _build_tmp(directory: Path, name: str) -> Path:
    """A temp path private to one build, so concurrent builds —
    threads of one process included — never write the same file."""
    return directory / f".{name}.{os.getpid()}.{secrets.token_hex(8)}.tmp"


def single_flight(
    directory: Path,
    name: str,
    build,
    *,
    timeout_s: float = 20.0,
    stale_s: float = 60.0,
) -> Optional[Path]:
    """Build-once coordination for one cache artifact.

    Exactly one concurrent caller runs ``build(tmp_path)`` (write the
    artifact to ``tmp_path``, return True on success); the winner
    publishes it atomically via ``os.replace`` and every waiter picks
    up the published file.  Election is an ``O_CREAT | O_EXCL`` lock
    file — the portable atomic primitive — extending the temp-file +
    rename idiom the JSON writes already use.  The winner re-checks for
    the artifact before building, since a peer may have published and
    unlocked after this caller's last probe, and every build writes its
    own temp file.  Waiters poll; a lock older than ``stale_s`` (its
    holder died mid-compile) is broken and re-elected, and a waiter
    that exhausts ``timeout_s`` stops trusting the lock entirely and
    builds into a private temp itself — progress is never blocked on a
    wedged peer, the worst case is one redundant build.  Returns the
    final artifact path, or ``None`` when the build failed or the
    directory is unusable.
    """
    final = directory / name
    if final.exists():
        return final
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return None
    lock = directory / f".{name}.lock"
    deadline = time.monotonic() + timeout_s
    while True:
        if final.exists():
            return final
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - lock.stat().st_mtime
            except OSError:
                continue  # lock vanished between probes: re-elect now
            if age > stale_s:
                try:
                    lock.unlink()
                except OSError:
                    pass
                continue
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
            continue
        except OSError:
            return None
        os.close(fd)
        tmp = _build_tmp(directory, name)
        try:
            if final.exists():
                # A peer published and unlocked between our probe and
                # our lock: its artifact stands, so build nothing.
                return final
            if build(tmp) and tmp.exists():
                os.replace(tmp, final)
                return final
            return None
        finally:
            for leftover in (tmp, lock):
                try:
                    leftover.unlink()
                except OSError:
                    pass
    tmp = _build_tmp(directory, name)
    try:
        if build(tmp) and tmp.exists():
            os.replace(tmp, final)
            return final
        return None
    finally:
        try:
            tmp.unlink()
        except OSError:
            pass


def compile_scanner_cached(
    spec: LexSpec,
    *,
    minimized: bool = True,
    cache: Optional[bool] = None,
    backend: str = "str",
) -> CompiledLexSpec:
    """Compile ``spec`` through the artifact cache with single-flight.

    The load → compile → save sequence the store and the sharded
    executors used to inline raced under concurrent cold starts (every
    pool worker compiled the catalog); here the compile itself runs under
    :func:`single_flight`, so one process builds and publishes while
    the rest reuse the artifact.  Falls back to a plain local compile
    whenever the cache is disabled or unusable — correctness never
    depends on the cache.
    """
    compiled = load_cached_scanner(
        spec, minimized=minimized, cache=cache, backend=backend)
    if compiled is not None:
        return compiled
    directory = scanner_cache_dir(cache)
    if directory is None:
        return spec.compile(minimized=minimized)
    digest = scanner_digest(spec, minimized=minimized, backend=backend)
    result: dict = {}

    def build(tmp: Path) -> bool:
        result["compiled"] = built = spec.compile(minimized=minimized)
        data = scanner_artifact(
            built, minimized=minimized, digest=digest, backend=backend)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(data, fh, separators=(",", ":"))
        except OSError:
            return False
        return True

    single_flight(directory, f"{digest}.json", build)
    if "compiled" in result:
        return result["compiled"]
    compiled = load_cached_scanner(
        spec, minimized=minimized, cache=cache, backend=backend)
    if compiled is not None:
        return compiled
    return spec.compile(minimized=minimized)
