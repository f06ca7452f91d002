"""End-to-end tests for the ``aarohi`` CLI."""

import json
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.native import native_available


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rules", "--system", "HPC9"])

    @pytest.mark.parametrize("argv", [
        ["predict", "--log", "w.log"],
        ["obs-serve", "--log", "w.log"],
        ["serve"],
    ])
    def test_scan_backend_choices(self, argv, capsys):
        parser = build_parser()
        assert parser.parse_args(argv).scan_backend == "native"
        for backend in ("str", "native"):
            args = parser.parse_args(argv + ["--scan-backend", backend])
            assert args.scan_backend == backend
        # The retired numpy backend is an argparse error (exit 2).
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv + ["--scan-backend", "numpy"])
        assert exc.value.code == 2
        assert "invalid choice: 'numpy'" in capsys.readouterr().err

    def test_retired_bytes_backend_exits_2(self, tmp_path, capsys):
        # The byte-kernel backend is retired like numpy: predict refuses
        # the name at the command line, before reading anything.
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--log", str(tmp_path / "w.log"),
                  "--scan-backend", "bytes"])
        assert exc.value.code == 2
        assert "invalid choice: 'bytes'" in capsys.readouterr().err


class TestGenerate:
    def test_generates_log_file(self, tmp_path, capsys):
        out = tmp_path / "window.log"
        rc = main([
            "generate", "--system", "HPC4", "--seed", "3",
            "--duration", "600", "--nodes", "8", "--failures", "2",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        lines = out.read_text().splitlines()
        assert len(lines) > 10
        captured = capsys.readouterr()
        assert "wrote" in captured.out
        assert "2 failures" in captured.out


class TestRules:
    def test_prints_both_forms(self, capsys):
        assert main(["rules", "--system", "HPC3"]) == 0
        out = capsys.readouterr().out
        assert "P_FC" in out and "P_LALR" in out

    def test_flat_only(self, capsys):
        assert main(["rules", "--system", "HPC3", "--flat"]) == 0
        out = capsys.readouterr().out
        assert "P_FC" in out and "P_LALR" not in out


class TestPredict:
    @pytest.mark.parametrize("backend", ["matcher", "lalr"])
    def test_predicts_from_file(self, tmp_path, capsys, backend):
        log = tmp_path / "w.log"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        capsys.readouterr()
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--backend", backend,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predictions" in out
        assert "FC_" in out  # at least one chain flagged


class TestPipeline:
    def test_full_pipeline_prints_metrics(self, capsys):
        rc = main([
            "pipeline", "--system", "HPC4", "--seed", "11",
            "--duration", "3600", "--nodes", "30", "--failures", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mined" in out
        assert "recall %" in out
        assert "mean lead time (min)" in out


class TestJsonOutput:
    def test_predict_json(self, tmp_path, capsys):
        log = tmp_path / "w.log"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        capsys.readouterr()
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 1  # one compact document
        payload = json.loads(out)
        assert payload["system"] == "HPC3"
        assert payload["predictions"]
        first = payload["predictions"][0]
        assert set(first) == {"node", "chain", "flagged_at", "prediction_time"}
        stats = payload["stats"]
        assert stats["lines_seen"] == len(log.read_text().splitlines())
        assert 0.0 <= stats["fc_related_fraction"] <= 1.0
        scanner = payload["scanner"]
        # The --scan-backend default asks for native, which runs as
        # str when there is no C compiler.
        assert scanner["requested_backend"] == "native"
        assert scanner["backend"] == (
            "native" if native_available() else "str")
        assert scanner["translate_evictions"] >= 0

    def test_pipeline_json(self, capsys):
        rc = main([
            "pipeline", "--system", "HPC4", "--seed", "11",
            "--duration", "3600", "--nodes", "30", "--failures", "10",
            "--json",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # pure JSON: no phase chatter on stdout
        for key in ("system", "mined_chains", "candidates", "predictions",
                    "failures", "recall_pct", "precision_pct", "accuracy_pct",
                    "fnr_pct", "mean_lead_time_s", "mean_prediction_time_s"):
            assert key in payload
        assert payload["system"] == "HPC4"
        assert payload["failures"] == 10


class TestBackendDifferential:
    """``predict --json`` answers the same on every scan backend, and
    every backend reports a measured prediction time."""

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("logs")
        paths = {"clean": root / "clean.log", "dirty": root / "dirty.log"}
        for name, extra in (("clean", []), ("dirty", ["--corrupt", "0.05"])):
            assert main([
                "generate", "--system", "HPC3", "--seed", "5",
                "--duration", "1800", "--nodes", "12", "--failures", "4",
                "--out", str(paths[name]), *extra,
            ]) == 0
        return paths

    @staticmethod
    def predict(capsys, log, backend, flags):
        capsys.readouterr()
        assert main([
            "predict", "--system", "HPC3", "--seed", "5", "--log", str(log),
            "--json", "--scan-backend", backend, *flags,
        ]) == 0
        return json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize("backend", ["native"])
    @pytest.mark.parametrize("log,flags", [
        ("clean", []),
        ("dirty", ["--on-error", "quarantine"]),
        ("dirty", ["--on-error", "quarantine", "--reorder-horizon", "10"]),
    ], ids=["clean", "quarantine", "reorder"])
    def test_backend_matches_str(self, logs, log, flags, backend, capsys):
        if backend == "native" and not native_available():
            pytest.skip("no C compiler: native runs as str")
        want = self.predict(capsys, logs[log], "str", flags)
        got = self.predict(capsys, logs[log], backend, flags)
        assert got["scanner"]["backend"] == backend

        def keys(payload):
            return Counter((p["node"], p["chain"], p["flagged_at"])
                           for p in payload["predictions"])

        assert keys(want)  # chains complete in every input
        assert keys(got) == keys(want)
        assert got["ingest"] == want["ingest"]
        assert got["stats"] == want["stats"]
        assert all(p["prediction_time"] > 0
                   for payload in (want, got)
                   for p in payload["predictions"])


class TestLargeAlphabetPredict:
    def test_predict_json_falls_back_to_str(self, tmp_path, monkeypatch,
                                            capsys):
        """A catalog past 254 byte classes runs the default predict on
        the str kernels, and the JSON says so."""
        from repro import cli
        from repro.core import ChainSet, FailureChain, LogEvent
        from repro.persistence import PredictorBundle
        from repro.templates import TemplateStore
        from repro.templates.masking import MASK

        store = TemplateStore()
        tokens = [store.add(f"fault {chr(0x4E00 + i)} " + MASK).token
                  for i in range(300)]
        chains = ChainSet([FailureChain(f"FC_{k}", tuple(tokens[k:k + 3]))
                           for k in range(0, 300, 3)])
        bundle = PredictorBundle(store=store, chains=chains, timeout=600.0)
        monkeypatch.setattr(cli, "_trained_bundle", lambda args: bundle)
        events = [LogEvent(1.0, "n0", "boot ok")]
        events += [LogEvent(2.0 + i, "n0", f"fault {chr(0x4E00 + i)} x")
                   for i in range(3)]
        log = tmp_path / "w.log"
        log.write_text("".join(e.to_line() + "\n" for e in events))

        assert main(["predict", "--log", str(log), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scanner"]["backend"] == "str"
        assert payload["scanner"]["requested_backend"] == "native"
        assert payload["scanner"]["fallback"] is True
        assert [(p["node"], p["chain"], p["flagged_at"])
                for p in payload["predictions"]] == [("n0", "FC_0", 4.0)]
        assert payload["predictions"][0]["prediction_time"] > 0


class TestObsReport:
    @pytest.fixture()
    def artifacts(self, tmp_path, capsys):
        log = tmp_path / "w.log"
        metrics = tmp_path / "out.prom"
        trace = tmp_path / "trace.jsonl"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--metrics", str(metrics),
            "--trace", str(trace),
        ])
        assert rc == 0
        capsys.readouterr()
        return metrics, trace

    def test_report_from_metrics(self, artifacts, capsys):
        metrics, _ = artifacts
        rc = main(["obs-report", "--metrics", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Scanner rejection funnel" in out
        assert "Fleet summary" in out
        assert "lines seen" in out

    def test_report_with_trace(self, artifacts, capsys):
        metrics, trace = artifacts
        rc = main([
            "obs-report", "--metrics", str(metrics), "--trace", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lifecycle" in out.lower()
        assert "prediction_fired" in out


class TestSpansAndFlightCli:
    @pytest.fixture()
    def spanned_metrics(self, tmp_path, capsys):
        log = tmp_path / "w.log"
        metrics = tmp_path / "spans.prom"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--metrics", str(metrics),
            "--spans", "1.0", "--flight-dir", str(tmp_path / "caps"),
        ])
        assert rc == 0
        capsys.readouterr()
        return metrics

    def test_spans_series_written_and_reported(
            self, spanned_metrics, capsys):
        assert "aarohi_span_stage_seconds_total" in \
            spanned_metrics.read_text()
        rc = main(["obs-report", "--metrics", str(spanned_metrics)])
        assert rc == 0
        assert "Pipeline stage spans" in capsys.readouterr().out

    def test_spans_flag_prints_only_span_tables(
            self, spanned_metrics, capsys):
        rc = main(["obs-report", "--metrics", str(spanned_metrics),
                   "--spans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pipeline stage spans" in out
        assert "Scanner rejection funnel" not in out

    def test_spans_flag_without_span_series_exits_2(
            self, tmp_path, capsys):
        from repro.obs import LINES_SEEN, Registry, render_prometheus

        registry = Registry()
        registry.counter(LINES_SEEN, "lines").inc(5)
        plain = tmp_path / "plain.prom"
        plain.write_text(render_prometheus(registry.snapshot()))
        rc = main(["obs-report", "--metrics", str(plain), "--spans"])
        assert rc == 2
        assert "no span series" in capsys.readouterr().err

    def test_clean_run_writes_no_capsule(self, spanned_metrics, tmp_path):
        caps = tmp_path / "caps"
        assert not caps.exists() or not list(caps.iterdir())

    def test_watch_and_one_shot_leave_the_same_capsules(
            self, tmp_path, capsys):
        from repro.logsim import IngestStats, read_log

        log = tmp_path / "dirty.log"
        assert main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "600", "--nodes", "8", "--failures", "2",
            "--corrupt", "0.05", "--out", str(log),
        ]) == 0
        ingest = IngestStats()
        for _ in read_log(log, on_error="quarantine", stats=ingest):
            pass
        assert ingest.quarantine_fraction > 0.01  # past the default SLO
        left = {}
        for mode, extra in (("once", []),
                            ("watch", ["--watch", "--slices", "4"])):
            caps = tmp_path / mode
            assert main([
                "predict", "--system", "HPC3", "--seed", "5",
                "--log", str(log), "--on-error", "quarantine",
                "--flight-dir", str(caps), *extra,
            ]) == 0
            left[mode] = sorted(
                p.name for p in caps.iterdir()) if caps.exists() else []
        capsys.readouterr()
        # A one-shot run takes a single history capture, so the burn
        # never outlasts the quarantine-burn rule's 1 s hold there
        # either: one flag, one trigger path, the same capsules.
        assert left["once"] == left["watch"]


class TestGenerateTruth:
    def test_truth_file_round_trips(self, tmp_path, capsys):
        from repro.logsim import read_truth

        out = tmp_path / "w.log"
        truth = tmp_path / "truth.jsonl"
        rc = main([
            "generate", "--system", "HPC4", "--seed", "3",
            "--duration", "600", "--nodes", "8", "--failures", "3",
            "--out", str(out), "--truth", str(truth),
        ])
        assert rc == 0
        failures = list(read_truth(str(truth)))
        assert len(failures) == 3
        assert all(f.node and f.time > 0 for f in failures)
        assert "ground-truth failures" in capsys.readouterr().out


class TestPredictWatch:
    def test_watch_renders_dashboard_frames(self, tmp_path, capsys):
        log = tmp_path / "w.log"
        truth = tmp_path / "truth.jsonl"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log), "--truth", str(truth),
        ])
        capsys.readouterr()
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--watch", "--slices", "4",
            "--truth", str(truth),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("— watch:") == 4
        assert "Live SLO monitor" in out
        assert "Online quality scoreboard" in out
        assert "deadline verdict" in out
        # --watch arms the history ring + default ruleset: every frame
        # carries the alert-rule states and the ring's trend columns.
        assert "Alert rules" in out
        assert "deadline-burn" in out
        assert "History trends (ring)" in out
        # The final predictions table still prints after the frames.
        assert "predictions" in out

    def test_watch_folds_ingest_before_the_slices(self, tmp_path, capsys):
        # A watched run's rules see the quarantine burn while the run
        # is in flight, as a one-shot run's do, so the burn rule ends
        # pending (1) or firing (2), not inactive (0).
        log = tmp_path / "dirty.log"
        metrics = tmp_path / "watch.prom"
        assert main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "600", "--nodes", "8", "--corrupt", "0.05",
            "--out", str(log),
        ]) == 0
        assert main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--on-error", "quarantine",
            "--watch", "--slices", "4", "--metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        states = [float(line.rsplit(" ", 1)[1])
                  for line in metrics.read_text().splitlines()
                  if line.startswith("aarohi_alert_state{")
                  and 'rule="quarantine-burn"' in line]
        assert states and states[0] >= 1

    @pytest.mark.parametrize("horizon", ["0", "5"])
    def test_watch_matches_one_shot(self, tmp_path, capsys, horizon):
        # A watched run frames the file once, reorder horizon included,
        # and runs its slices on run_lines: it predicts and counts what
        # the one-shot pass over the whole file does.
        log = tmp_path / "dirty.log"
        assert main([
            "generate", "--system", "HPC3", "--seed", "6",
            "--duration", "3600", "--nodes", "24", "--failures", "6",
            "--corrupt", "0.02", "--out", str(log),
        ]) == 0
        runs = {}
        for mode, extra in (("once", []),
                            ("watch", ["--watch", "--slices", "4"])):
            capsys.readouterr()
            assert main([
                "predict", "--system", "HPC3", "--seed", "6",
                "--log", str(log), "--json", "--on-error", "quarantine",
                "--reorder-horizon", horizon, *extra,
            ]) == 0
            out = capsys.readouterr().out
            # The watch frames print first; the JSON document, one
            # compact line, is last.
            runs[mode] = json.loads(out[out.index('{"system"'):])

        def keys(payload):
            return sorted((p["node"], p["chain"], p["flagged_at"])
                          for p in payload["predictions"])

        once, watch = runs["once"], runs["watch"]
        assert keys(once) and keys(watch) == keys(once)
        assert once["ingest"]["quarantined"]
        assert bool(once["ingest"]["reordered"]) == (horizon != "0")
        assert watch["ingest"] == once["ingest"]
        assert watch["stats"] == once["stats"]


class TestObsReportErrors:
    def run_report(self, capsys, *argv):
        rc = main(["obs-report", *argv])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc, _, err = self.run_report(
            capsys, "--metrics", str(tmp_path / "nope.prom"))
        assert rc == 2
        assert err.startswith("obs-report: cannot read")
        assert len(err.strip().splitlines()) == 1

    def test_empty_file_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.prom"
        empty.write_text("")
        rc, _, err = self.run_report(capsys, "--metrics", str(empty))
        assert rc == 2
        assert "is empty" in err

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "trunc.prom"
        bad.write_text("# TYPE aarohi_lines_seen_total counter\n"
                       "aarohi_lines_seen_total {{{garbage\n")
        rc, _, err = self.run_report(capsys, "--metrics", str(bad))
        assert rc == 2
        assert "not a valid metrics snapshot" in err

    def test_no_input_exits_2(self, capsys):
        rc, _, err = self.run_report(capsys)
        assert rc == 2
        assert "need --metrics FILE or --diff" in err

    def test_bad_trace_exits_2(self, tmp_path, capsys):
        from repro.obs import LINES_SEEN, Registry, render_prometheus

        registry = Registry()
        registry.counter(LINES_SEEN, "lines").inc(5)
        metrics = tmp_path / "ok.prom"
        metrics.write_text(render_prometheus(registry.snapshot()))
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"ev": "mystery", "node": "n"}\n')
        rc, _, err = self.run_report(
            capsys, "--metrics", str(metrics), "--trace", str(trace))
        assert rc == 2
        assert "not a valid trace file" in err


class TestObsReportDiff:
    def write_prom(self, path, lines_seen):
        from repro.obs import LINES_SEEN, Registry, render_prometheus

        registry = Registry()
        registry.counter(LINES_SEEN, "lines offered").inc(lines_seen)
        path.write_text(render_prometheus(registry.snapshot()))

    def test_diff_reports_delta(self, tmp_path, capsys):
        before, after = tmp_path / "before.prom", tmp_path / "after.prom"
        self.write_prom(before, 100)
        self.write_prom(after, 150)
        rc = main(["obs-report", "--diff", str(before), str(after)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Scanner rejection funnel" in out
        assert "50" in out  # the delta, not either absolute value

    def test_identical_snapshots_say_so(self, tmp_path, capsys):
        before, after = tmp_path / "b.prom", tmp_path / "a.prom"
        self.write_prom(before, 100)
        self.write_prom(after, 100)
        rc = main(["obs-report", "--diff", str(before), str(after)])
        assert rc == 0
        assert "no metric changed" in capsys.readouterr().out

    def test_diff_with_missing_before_exits_2(self, tmp_path, capsys):
        after = tmp_path / "a.prom"
        self.write_prom(after, 100)
        rc = main([
            "obs-report", "--diff", str(tmp_path / "nope.prom"), str(after)])
        assert rc == 2
        assert "obs-report:" in capsys.readouterr().err

    def test_diff_reports_added_and_removed_series(self, tmp_path, capsys):
        from repro.obs import Registry, render_prometheus

        before, after = tmp_path / "b.prom", tmp_path / "a.prom"
        old_r = Registry()
        old_r.counter("aarohi_gone_total", "x").inc(1)
        before.write_text(render_prometheus(old_r.snapshot()))
        new_r = Registry()
        new_r.counter("aarohi_span_runs_total", "x").inc(2)
        after.write_text(render_prometheus(new_r.snapshot()))
        rc = main(["obs-report", "--diff", str(before), str(after)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Series added/removed" in out
        assert "aarohi_span_runs_total" in out
        assert "aarohi_gone_total" in out


class TestObsRules:
    def test_check_default_ruleset(self, capsys):
        rc = main(["obs-rules", "--check", "default"])
        assert rc == 0
        assert "4 rule(s) OK" in capsys.readouterr().out

    def test_print_default_round_trips_through_check(
            self, tmp_path, capsys):
        rc = main(["obs-rules", "--print-default"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "[[rule]]" in text
        assert "deadline-burn" in text
        path = tmp_path / "rules.toml"
        path.write_text(text, encoding="utf-8")
        assert main(["obs-rules", "--check", str(path)]) == 0

    def test_problems_exit_2_and_name_the_rules(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(
            '[[rule]]\nid = "a"\nseries = "aarohi_not_real_total"\n'
            'expr = "stddev"\n\n'
            '[[rule]]\nid = "a"\nseries = "aarohi_predictions_total"\n'
            'expr = "increase"\nwindow = 60.0\n',
            encoding="utf-8")
        rc = main(["obs-rules", "--check", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown series 'aarohi_not_real_total'" in err
        assert "malformed expr" in err
        assert "duplicate rule id" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["obs-rules", "--check", str(tmp_path / "nope.toml")])
        assert rc == 2
        assert "cannot load" in capsys.readouterr().err

    def test_no_flags_exits_2(self, capsys):
        rc = main(["obs-rules"])
        assert rc == 2
        assert "need --check" in capsys.readouterr().err


class TestObsReportHistory:
    def _ring(self):
        from repro.obs import LINES_SEEN, HistoryRing, Registry

        registry = Registry()
        ring = HistoryRing(interval=0.0)
        counter = registry.counter(LINES_SEEN, "lines")
        for t, inc in [(0, 10), (10, 90), (20, 40)]:
            counter.inc(inc)
            ring.capture(registry.snapshot(), t=float(t))
        return ring

    def test_trend_table_from_ndjson_dump(self, tmp_path, capsys):
        from repro.obs import LINES_SEEN

        dump = tmp_path / "history.ndjson"
        dump.write_text(self._ring().render_ndjson(), encoding="utf-8")
        rc = main(["obs-report", "--history", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "History trends" in out
        assert LINES_SEEN in out
        assert any(block in out for block in "▁▂▃▄▅▆▇█")

    def test_trend_table_from_alert_capsule(self, tmp_path, capsys):
        from repro.obs import LINES_SEEN, TRIGGER_ALERT, FlightRecorder

        ring = self._ring()
        flight = FlightRecorder(capacity=16, directory=tmp_path)
        text = flight.trigger(
            TRIGGER_ALERT, key="r1", history=ring.records(),
            rule="r1", severity="page")
        capsule = tmp_path / "capsule.jsonl"
        capsule.write_text(text, encoding="utf-8")
        rc = main(["obs-report", "--history", str(capsule)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "History trends" in out
        assert LINES_SEEN in out

    def test_capsule_without_history_exits_2(self, tmp_path, capsys):
        from repro.obs import TRIGGER_SHUTDOWN, FlightRecorder

        flight = FlightRecorder(capacity=16, directory=tmp_path)
        text = flight.trigger(TRIGGER_SHUTDOWN)
        capsule = tmp_path / "capsule.jsonl"
        capsule.write_text(text, encoding="utf-8")
        rc = main(["obs-report", "--history", str(capsule)])
        assert rc == 2
        assert "without embedded history" in capsys.readouterr().err

    def test_empty_dump_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("", encoding="utf-8")
        rc = main(["obs-report", "--history", str(empty)])
        assert rc == 2
        assert "is empty" in capsys.readouterr().err


class TestPredictHistoryFlags:
    def _log(self, tmp_path):
        log = tmp_path / "w.log"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        return log

    def test_history_and_rules_flags_run_clean(self, tmp_path, capsys):
        log = self._log(tmp_path)
        capsys.readouterr()
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--history", "0", "--rules", "default",
        ])
        assert rc == 0
        # A healthy run must not report firing alerts.
        assert "alerts firing" not in capsys.readouterr().err

    def test_history_keeps_the_watch_rules(self, tmp_path, capsys):
        # --history sets the ring's interval; the shipped rules a
        # watched run arms stay armed.
        from repro.obs import ALERT_STATE, default_ruleset

        log = self._log(tmp_path)
        metrics = tmp_path / "watch.prom"
        assert main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--watch", "--slices", "2",
            "--history", "0", "--metrics", str(metrics),
        ]) == 0
        capsys.readouterr()
        rules = {line.split('rule="', 1)[1].split('"', 1)[0]
                 for line in metrics.read_text().splitlines()
                 if line.startswith(ALERT_STATE + "{")}
        assert rules == {r.id for r in default_ruleset()}
        assert len(rules) == 4

    def test_history_keeps_the_serve_rules(self, monkeypatch):
        import repro.core.daemon as daemon_module
        from repro.obs import daemon_ruleset

        built = {}

        def capture(bundle, **kwargs):
            built.update(kwargs)
            raise ValueError("captured")

        monkeypatch.setattr(daemon_module, "FleetDaemon", capture)
        with pytest.raises(SystemExit, match="captured"):
            main(["serve", "--system", "HPC3", "--history", "5"])
        obs = built["obs"]
        assert obs.history.interval == 5.0
        assert [r.id for r in obs.rules.rules] == \
            [r.id for r in daemon_ruleset()]
        assert len(obs.rules.rules) == 7

    def test_negative_history_rejected(self, tmp_path, capsys):
        log = self._log(tmp_path)
        with pytest.raises(SystemExit, match="--history must be"):
            main([
                "predict", "--system", "HPC3", "--seed", "5",
                "--log", str(log), "--history", "-1",
            ])

    def test_bad_rules_file_rejected(self, tmp_path, capsys):
        log = self._log(tmp_path)
        bad = tmp_path / "bad.toml"
        bad.write_text('[[rule]]\nid = "x"\n', encoding="utf-8")
        with pytest.raises(SystemExit, match="cannot load rules"):
            main([
                "predict", "--system", "HPC3", "--seed", "5",
                "--log", str(log), "--rules", str(bad),
            ])


class TestObsServe:
    def test_serves_and_reports_verdict(self, tmp_path, capsys):
        log = tmp_path / "w.log"
        truth = tmp_path / "truth.jsonl"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log), "--truth", str(truth),
        ])
        capsys.readouterr()
        rc = main([
            "obs-serve", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--truth", str(truth),
            "--port", "0", "--slices", "4",
        ])
        out = capsys.readouterr().out
        assert "serving http://" in out
        assert "/metrics" in out
        assert "deadline PASS" in out
        assert rc == 0


class TestDirtyLogs:
    """The new ingest flags: generate --corrupt, predict --on-error /
    --reorder-horizon."""

    def make_corrupted_log(self, tmp_path, capsys):
        log = tmp_path / "dirty.log"
        rc = main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log), "--corrupt", "0.05",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corrupted at p=0.05" in out
        return log

    def test_generate_corrupt_writes_dirty_log(self, tmp_path, capsys):
        log = self.make_corrupted_log(tmp_path, capsys)
        from repro.core.events import LogEvent

        bad = 0
        for line in log.read_text().splitlines():
            if not line:
                continue
            try:
                LogEvent.from_line(line)
            except ValueError:
                bad += 1
        assert bad > 0  # truncation/garbling left undecodable lines

    def test_predict_survives_corrupted_log(self, tmp_path, capsys):
        log = self.make_corrupted_log(tmp_path, capsys)
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--on-error", "quarantine",
            "--reorder-horizon", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predictions" in out
        assert "quarantined" in out  # the ingest summary line

    def test_predict_json_carries_ingest_funnel(self, tmp_path, capsys):
        log = self.make_corrupted_log(tmp_path, capsys)
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--on-error", "quarantine", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        ingest = payload["ingest"]
        assert ingest["quarantined"] > 0
        assert ingest["decoded"] + ingest["quarantined"] == \
            ingest["lines_read"]

    def test_predict_strict_flag_raises_on_dirty_log(self, tmp_path, capsys):
        from repro.core.events import LogDecodeError

        log = self.make_corrupted_log(tmp_path, capsys)
        with pytest.raises(LogDecodeError):
            main([
                "predict", "--system", "HPC3", "--seed", "5",
                "--log", str(log), "--on-error", "strict",
            ])

    def test_clean_log_reports_no_quarantine(self, tmp_path, capsys):
        log = tmp_path / "clean.log"
        main([
            "generate", "--system", "HPC3", "--seed", "5",
            "--duration", "1800", "--nodes", "12", "--failures", "4",
            "--out", str(log),
        ])
        capsys.readouterr()
        rc = main([
            "predict", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ingest"]["quarantined"] == 0

    def test_obs_serve_accepts_ingest_flags(self, tmp_path, capsys):
        log = self.make_corrupted_log(tmp_path, capsys)
        rc = main([
            "obs-serve", "--system", "HPC3", "--seed", "5",
            "--log", str(log), "--port", "0", "--slices", "2",
            "--on-error", "quarantine", "--reorder-horizon", "10",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ingest:" in out
        assert "quarantined" in out


class TestSpeedup:
    def test_speedup_table(self, capsys):
        rc = main(["speedup", "--system", "HPC3", "--length", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("Aarohi", "Desh", "DeepLog", "CloudSeer"):
            assert name in out


class TestCompile:
    def test_emits_standalone_module(self, tmp_path, capsys):
        out = tmp_path / "pred.py"
        rc = main(["compile", "--system", "HPC3", "--out", str(out)])
        assert rc == 0
        source = out.read_text()
        assert "class Predictor" in source
        namespace = {}
        exec(compile(source, str(out), "exec"), namespace)
        assert callable(namespace["tokenize"])


class TestFieldstudy:
    def test_prints_statistics(self, capsys):
        rc = main([
            "fieldstudy", "--system", "HPC4", "--seed", "3",
            "--windows", "3", "--duration", "1800",
            "--nodes", "12", "--failures", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MTBF" in out and "Weibull" in out and "recall" in out
