"""Import closures: each process imports only what it runs.

A daemon shard worker is a fresh ``spawn`` interpreter at start and at
every takeover, and every module its imports pull in is paid before
the shard reports up.  Under ``aarohi serve`` or ``python -m repro.cli
serve`` spawn also re-runs ``repro.cli`` in the worker as its
``__mp_main__``, so the CLI's top level counts too.  Each check runs in
a fresh interpreter, because this test process has long imported
everything.

The worker's bundle is the handmade two-chain fixture of the daemon
drills, and ``predict``'s is the trained bundle, which builds without
numpy, so these checks also run on the no-numpy CI leg; the one that
resolves the simulator's names skips there.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import SIMULATOR_COMMANDS, build_parser
from repro.codegen import resolve_backend
from repro.core import ChainSet, FailureChain, LogEvent
from repro.core.events import Severity
from repro.logsim import system_by_name, trained_bundle
from repro.persistence import (
    PredictorBundle,
    compile_scanner_cached,
    scanner_artifact,
)
from repro.templates import TemplateStore

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What no chunk loop runs: numpy and the log simulator, the LALR parser
#: generator, the Drain baseline, the regex compiler (a shard rebuilds
#: its scanner from finished tables), the HTTP plane and the obs planes
#: a shard never arms.
UNUSED = (
    "numpy",
    "http.server",
    "repro.logsim.generator",
    "repro.parsegen.sampling",
    "repro.templates.drain",
    "repro.regexlib.ast",
    "repro.regexlib.matcher",
    "repro.regexlib.minimize",
    "repro.regexlib.nfa",
    "repro.regexlib.ops",
    "repro.regexlib.parser",
    "repro.lexgen.scanner",
    "repro.obs.exposition",
    "repro.obs.flight",
    "repro.obs.history",
    "repro.obs.quality",
    "repro.obs.rules",
    "repro.obs.server",
)

#: Packages whose re-exports resolve on first access.
LAZY_PACKAGES = (
    "repro.core", "repro.logsim", "repro.parsegen", "repro.templates",
    "repro.obs", "repro.regexlib", "repro.lexgen",
)

try:
    import numpy  # noqa: F401
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True


def run_fresh(code: str, stdin: str = "", args=()) -> dict:
    """Run ``code`` in a fresh interpreter on this checkout's ``src``
    (``args`` in its ``sys.argv[1:]``) and return the JSON document it
    prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin,
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(imports: str) -> list:
    """The modules that ``imports`` adds to a fresh interpreter."""
    return run_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{imports}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n")


class TestClosures:
    def test_predict_imports_no_unused_module(self, tmp_path):
        """A fresh ``predict`` on an empty log, its scanner already in
        the artifact cache, builds its bundle without the simulator."""
        args = build_parser().parse_args(["predict", "--log", "-"])
        bundle = trained_bundle(system_by_name(args.system))
        bundle.store.compile_scanner(
            keep=bundle.chains.token_set, backend=args.scan_backend)
        empty = tmp_path / "empty.log"
        empty.write_text("")
        loaded = loaded_after(
            "from repro import cli\n"
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    cli.main(['predict', '--log', {str(empty)!r}, '--json'])")
        assert "repro.cli" in loaded
        assert [m for m in UNUSED if m in loaded] == []

    def test_worker_imports_no_unused_module(self):
        loaded = loaded_after(
            "import repro.core.daemon, repro.persistence, "
            "repro.templates.store")
        assert "repro.core.daemon" in loaded
        assert [m for m in UNUSED if m in loaded] == []

    def test_cli_imports_no_unused_module(self):
        loaded = loaded_after("import repro.cli")
        assert "repro.cli" in loaded
        unused = UNUSED + ("multiprocessing", "repro.core.daemon")
        assert [m for m in unused if m in loaded] == []

    def test_compiler_loads_where_it_runs(self):
        """A scanner still compiles in a fresh interpreter, and the
        package name ``minimize`` stays the function after the compile
        has imported the submodule of the same name."""
        out = run_fresh(
            "import json, types\n"
            "from repro.lexgen import spec_from_pairs\n"
            "compiled = spec_from_pairs([('a', 'ab*'), ('c', 'c+')]).compile()\n"
            "from repro.regexlib import minimize\n"
            "print(json.dumps({\n"
            "    'match': compiled.longest_match('abbc', 0),\n"
            "    'function': isinstance(minimize, types.FunctionType),\n"
            "}))\n")
        assert out == {"match": [0, 3], "function": True}


WORDS = {
    176: "alpha x", 177: "bravo x", 178: "charlie x", 179: "delta x",
    180: "echo x", 137: "foxtrot x", 172: "golf x", 193: "hotel x",
}

#: Runs the real shard entry point on an in-process work queue and a
#: result pipe, noting which modules are loaded when the worker reports
#: up and how many threads run at each message.  The parent's init item
#: (bundle, scanner tables, no restore point) comes first on the work
#: queue, as ``FleetDaemon`` hands it over; the messages are read back
#: off the pipe by the supervisor's frame reader.
WORKER_RUN = """
import json, queue, sys, threading
from multiprocessing.connection import Pipe

from repro.core.daemon import _daemon_worker_main, _read_frames

job = json.loads(sys.stdin.read())
reader, writer = Pipe(duplex=False)


class Results:
    def __init__(self):
        self.threads = []
        self.at_up = None

    def send(self, msg):
        if msg[0] == "up":
            self.at_up = set(sys.modules)
        self.threads.append(threading.active_count())
        writer.send(msg)


work = queue.Queue()
work.put((job["bundle"], job["tables"], None))
work.put((0, job["blob"].encode()))
work.put(None)
results = Results()
_daemon_worker_main(
    0, work, results, 120.0, "quarantine", job["backend"], 0.0, 0.0)
writer.close()
msgs, inbox = [], bytearray()
while (frames := _read_frames(reader.fileno(), inbox)) is not None:
    msgs.extend(frames)
ack = msgs[1]
print(json.dumps({
    "kinds": [msg[0] for msg in msgs],
    "threads": results.threads,
    "after_up": sorted(set(sys.modules) - results.at_up),
    "loaded": sorted(results.at_up),
    "predictions": [[p[0], p[1]] for p in ack[2]],
    "quarantined": ack[5].quarantined,
}))
"""


class TestWorkerChunk:
    def test_chunk_after_up_imports_nothing(self):
        """What a shard needs is loaded before it reports up: a chunk
        that quarantines a record and completes a chain imports no
        further ``repro`` module afterwards.  The worker runs on one
        thread and writes its messages to its result pipe, "up" then
        one ack; it says nothing on its way out."""
        chains = ChainSet([
            FailureChain("FC1", (176, 177, 178, 179, 180, 137)),
            FailureChain("FC5", (172, 177, 178, 193, 137)),
        ])
        store = TemplateStore()
        for pattern, token in [
            ("alpha *", 176), ("bravo *", 177), ("charlie *", 178),
            ("delta *", 179), ("echo *", 180), ("foxtrot *", 137),
            ("golf *", 172), ("hotel *", 193),
        ]:
            store.add(pattern, Severity.UNKNOWN, token=token)
        bundle = PredictorBundle(store=store, chains=chains, timeout=120.0)
        # The parent's half of the hand-off, as FleetDaemon builds it.
        backend = resolve_backend("native")
        compiled = compile_scanner_cached(
            store.lex_spec(keep=chains.token_set), backend=backend)
        lines = [
            LogEvent(time=1000.0 + i, node="n0",
                     message=WORDS[token]).to_line()
            for i, token in enumerate(chains["FC5"].tokens)]
        lines.insert(2, "truncated line")
        job = {
            "bundle": bundle.to_dict(),
            "tables": scanner_artifact(compiled, backend=backend),
            "backend": backend,
            "blob": "\n".join(lines),
        }
        out = run_fresh(WORKER_RUN, json.dumps(job))
        assert out["kinds"] == ["up", "ack"]
        assert out["threads"] == [1, 1]
        assert out["predictions"] == [["n0", "FC5"]]
        assert out["quarantined"] == 1
        assert [m for m in out["after_up"] if m.startswith("repro")] == []
        assert [m for m in UNUSED if m in out["loaded"]] == []


class TestLazyPackages:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        if package == "repro.logsim" and not HAVE_NUMPY:
            pytest.skip("the simulator's names need numpy")
        out = run_fresh(
            "import importlib, json\n"
            f"pkg = importlib.import_module({package!r})\n"
            "listed = dir(pkg)\n"
            "print(json.dumps({\n"
            "    'unlisted': [n for n in pkg.__all__ if n not in listed],\n"
            "    'unresolved': [n for n in pkg.__all__\n"
            "                   if getattr(pkg, n, None) is None],\n"
            "    'unknown': hasattr(pkg, 'no_such_name'),\n"
            "}))\n")
        assert out == {"unlisted": [], "unresolved": [], "unknown": False}


#: Drives ``predict --json`` on the log given in a fresh interpreter and
#: notes whether it loaded numpy; with numpy blocked before anything
#: imports it, also each simulator command, noting how each ended.
NO_NUMPY_RUN = """
import contextlib, io, json, sys

block = sys.argv[2] == "block"
if block:
    sys.modules["numpy"] = None
import repro.cli
import repro.logsim

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["predict", "--log", sys.argv[1], "--json"])
loaded = sys.modules.get("numpy") is not None
simulator = {}
for argv in ([] if not block else [
        ["generate", "--out", sys.argv[1] + ".gen"], ["pipeline"],
        ["speedup"], ["fieldstudy", "--windows", "1"]]):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(argv)
    except SystemExit as exc:
        simulator[argv[0]] = str(exc.code)
    except Exception as exc:
        simulator[argv[0]] = repr(exc)
print(json.dumps({
    "numpy": loaded,
    "available": repro.logsim.SIMULATOR_AVAILABLE,
    "predict": code,
    "document": json.loads(out.getvalue()),
    "simulator": simulator,
}))
"""


def without_clock(document: dict) -> dict:
    """``document`` less each prediction's measured ``prediction_time``,
    a clock reading that differs from run to run."""
    return {**document, "predictions": [
        {k: v for k, v in p.items() if k != "prediction_time"}
        for p in document["predictions"]]}


class TestWithoutNumpy:
    def test_predict_runs_and_simulator_commands_say_why_they_exit(
            self, tmp_path):
        """``predict`` takes the trained bundle, so with numpy blocked it
        still reads lines written from one trained chain's templates and
        predicts that chain; each command that drives the simulator
        exits before it runs, saying it needs numpy."""
        bundle = trained_bundle(system_by_name("HPC3"))
        chain = max(bundle.chains, key=len)
        lines = [
            LogEvent(time=1000.0 + 3 * i, node="c0-0c0s1n2",
                     message=bundle.store.get(token).text.replace("*", "x"),
                     ).to_line()
            for i, token in enumerate(chain.tokens)]
        log = tmp_path / "chain.log"
        log.write_text("\n".join(lines) + "\n")
        out = run_fresh(NO_NUMPY_RUN, args=(str(log), "block"))
        assert out["available"] is False and out["numpy"] is False
        assert out["predict"] == 0
        document = out["document"]
        assert [(p["node"], p["chain"], p["flagged_at"])
                for p in document["predictions"]] == [
            ("c0-0c0s1n2", chain.chain_id, 1000.0 + 3 * (len(chain) - 1))]
        assert document["ingest"]["decoded"] == len(lines)
        simulator = out["simulator"]
        assert sorted(simulator) == sorted(SIMULATOR_COMMANDS)
        assert all("requires numpy" in why for why in simulator.values()), (
            simulator)
        if HAVE_NUMPY:
            unblocked = run_fresh(NO_NUMPY_RUN, args=(str(log), "allow"))
            assert unblocked["available"] is True
            assert unblocked["numpy"] is False
            assert without_clock(unblocked["document"]) == without_clock(
                document)
