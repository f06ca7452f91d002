"""Lifecycle-trace integration: every chain state transition is traced.

Drives real predictors (both backends) through activation, advance,
ΔT timeout, manual reset, and completion, then round-trips the JSONL
and checks exactly one trace record per transition.  Also covers the
CLI artifact path: ``predict --metrics --trace`` must produce valid
Prometheus text and a valid trace.
"""

import io

import pytest

from repro.core import ChainSet, FailureChain, LogEvent, PredictorFleet
from repro.core.events import Severity
from repro.core.predictor import AarohiPredictor
from repro.obs import Observability, Tracer
from repro.obs.tracing import (
    CHAIN_STARTED,
    DELTA_T_TIMEOUT,
    EVENT_KINDS,
    PARSER_RESET,
    PREDICTION_FIRED,
    TOKEN_ADVANCED,
    lifecycle_counts,
    read_trace,
)

ZERO_CLOCK = lambda: 0.0  # noqa: E731


@pytest.fixture(scope="module")
def store():
    from repro.templates import TemplateStore

    s = TemplateStore()
    s.add("alpha fault *", Severity.ERRONEOUS, token=301)
    s.add("beta warn *", Severity.UNKNOWN, token=302)
    s.add("gamma err *", Severity.ERRONEOUS, token=303)
    return s


@pytest.fixture(scope="module")
def chains():
    return ChainSet([FailureChain("FC_x", (301, 302, 303))])


def traced_predictor(store, chains, backend, sample=1.0, timeout=100.0):
    sink = io.StringIO()
    obs = Observability(
        tracer=Tracer(sink, sample=sample, clock=lambda: 0.0))
    predictor = AarohiPredictor.from_store(
        chains, store, timeout=timeout, backend=backend,
        clock=ZERO_CLOCK, node="node-7", obs=obs)
    return predictor, sink


def drive_full_lifecycle(predictor):
    """Activation → advance → ΔT timeout → manual reset → completion."""
    # 1. Activate, advance once, then a 1000 s gap trips the timeout.
    predictor.process(LogEvent(0.0, "node-7", "alpha fault a"))
    predictor.process(LogEvent(1.0, "node-7", "beta warn b"))
    predictor.process(LogEvent(1001.0, "node-7", "beta warn again"))
    # 2. Activate again, then reset manually mid-chain.
    predictor.process(LogEvent(2000.0, "node-7", "alpha fault c"))
    predictor.reset()
    # 3. Clean complete run → prediction.
    predictor.process(LogEvent(3000.0, "node-7", "alpha fault d"))
    predictor.process(LogEvent(3001.0, "node-7", "beta warn e"))
    return predictor.process(LogEvent(3002.0, "node-7", "gamma err f"))


@pytest.mark.parametrize("backend", ["matcher", "lalr"])
class TestEveryTransitionTraced:
    def test_all_event_kinds_emitted_once_expected(self, store, chains, backend):
        predictor, sink = traced_predictor(store, chains, backend)
        prediction = drive_full_lifecycle(predictor)
        assert prediction is not None
        records = read_trace(io.StringIO(sink.getvalue()))
        counts = lifecycle_counts(records)
        assert set(counts) == set(EVENT_KINDS)
        # Three activations (the timed-out token does not restart a
        # chain: "beta" is not a chain-starting token).
        assert counts[CHAIN_STARTED] == 3
        assert counts[DELTA_T_TIMEOUT] == 1
        assert counts[PARSER_RESET] == 1
        assert counts[PREDICTION_FIRED] == 1
        # Advances: one mid-chain before the timeout + the full run's
        # two non-activating phrases (backends agree).
        assert counts[TOKEN_ADVANCED] == 3

    def test_records_carry_node_and_times(self, store, chains, backend):
        predictor, sink = traced_predictor(store, chains, backend)
        drive_full_lifecycle(predictor)
        records = read_trace(io.StringIO(sink.getvalue()))
        assert all(r["node"] == "node-7" for r in records)
        assert all("wall" in r for r in records)
        (fired,) = [r for r in records if r["ev"] == PREDICTION_FIRED]
        assert fired["chain"] == "FC_x"
        assert fired["t"] == pytest.approx(3002.0)
        assert fired["n_tokens"] == 3
        assert "prediction_time" in fired
        (timeout,) = [r for r in records if r["ev"] == DELTA_T_TIMEOUT]
        assert timeout["gap"] == pytest.approx(1000.0)
        (reset,) = [r for r in records if r["ev"] == PARSER_RESET]
        assert reset["cause"] == "manual"

    def test_sample_zero_still_fires_predictions(self, store, chains, backend):
        predictor, sink = traced_predictor(store, chains, backend, sample=0.0)
        prediction = drive_full_lifecycle(predictor)
        assert prediction is not None
        records = read_trace(io.StringIO(sink.getvalue()))
        # Lifecycle events are sampled out; prediction_fired never is.
        kinds = {r["ev"] for r in records}
        assert kinds == {PREDICTION_FIRED}

    def test_sampled_lifecycles_are_complete(self, store, chains, backend):
        """A sampled chain traces its whole lifecycle; an unsampled one
        contributes nothing but the (always-on) prediction record."""
        predictor, sink = traced_predictor(store, chains, backend, sample=0.5)
        for base in (0.0, 100.0, 200.0, 300.0):
            predictor.process(LogEvent(base + 0.0, "node-7", "alpha fault a"))
            predictor.process(LogEvent(base + 1.0, "node-7", "beta warn b"))
            predictor.process(LogEvent(base + 2.0, "node-7", "gamma err c"))
        records = read_trace(io.StringIO(sink.getvalue()))
        counts = lifecycle_counts(records)
        # Accumulator starts full: activations 1, 2, 4 are sampled.
        assert counts[CHAIN_STARTED] == 3
        assert counts[TOKEN_ADVANCED] == 6  # both advances of each sampled run
        assert counts[PREDICTION_FIRED] == 4  # all of them


class TestBatchedDriversTrace:
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    @pytest.mark.parametrize("timing", ["full", "sampled", "off"])
    def test_fleet_run_emits_same_trace(
        self, store, chains, backend, timing
    ):
        """``fleet.run`` traces the lifecycle exactly as the per-event
        loop does, at every timing."""
        per_event, sink_ref = traced_predictor(store, chains, backend)
        drive_full_lifecycle(per_event)
        expected = read_trace(io.StringIO(sink_ref.getvalue()))

        sink = io.StringIO()
        fleet = PredictorFleet.from_store(
            chains, store, timeout=100.0, backend=backend, clock=ZERO_CLOCK,
            obs=Observability(tracer=Tracer(sink, clock=lambda: 0.0)))
        fleet.run([
            LogEvent(0.0, "node-7", "alpha fault a"),
            LogEvent(1.0, "node-7", "beta warn b"),
            LogEvent(1001.0, "node-7", "beta warn again"),
            LogEvent(2000.0, "node-7", "alpha fault c"),
        ], timing=timing)
        fleet.predictor_for("node-7").reset()
        fleet.run([
            LogEvent(3000.0, "node-7", "alpha fault d"),
            LogEvent(3001.0, "node-7", "beta warn e"),
            LogEvent(3002.0, "node-7", "gamma err f"),
        ], timing=timing)
        got = read_trace(io.StringIO(sink.getvalue()))
        strip = lambda rs: [  # noqa: E731
            {k: v for k, v in r.items() if k != "prediction_time"}
            for r in rs
        ]
        assert strip(got) == strip(expected)


class TestCliArtifacts:
    def test_predict_writes_valid_prometheus_and_trace(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import LINES_SEEN, parse_prometheus

        log = tmp_path / "w.log"
        prom = tmp_path / "m.prom"
        trace = tmp_path / "t.jsonl"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5", "--log", str(log),
            "--metrics", str(prom), "--trace", str(trace),
        ])
        capsys.readouterr()
        assert rc == 0
        snapshot = parse_prometheus(prom.read_text())
        lines_seen = snapshot[LINES_SEEN]["series"][0]["value"]
        assert lines_seen == len(log.read_text().splitlines())
        records = read_trace(str(trace))
        counts = lifecycle_counts(records)
        assert counts[CHAIN_STARTED] > 0
        assert counts[TOKEN_ADVANCED] > 0
        assert counts[PREDICTION_FIRED] > 0
        # Trace agrees with the metrics snapshot on predictions.
        from repro.obs import PREDICTIONS

        assert counts[PREDICTION_FIRED] == (
            snapshot[PREDICTIONS]["series"][0]["value"])
