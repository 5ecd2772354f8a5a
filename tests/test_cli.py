"""Tests for the repro-case command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

SWEEP_SPEC = {
    "pipeline": "survival_update",
    "base": {"mode": 0.003, "sigma": 0.9, "bound": 1e-2,
             "points_per_decade": 60},
    "grid": {"demands": [0, 100, 1000]},
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_assess_args(self):
        args = build_parser().parse_args(
            ["assess", "--mode", "0.003", "--sigma", "0.9"]
        )
        assert args.command == "assess"
        assert args.confidence == 0.70


class TestCommands:
    def test_assess_output(self, capsys):
        code = main(["assess", "--mode", "0.003", "--sigma", "0.9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SIL 2" in out
        assert "granted" in out

    def test_conservative_output(self, capsys):
        code = main(["conservative", "--claim", "1e-3", "--margin", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "99.9100%" in out
        assert "supports" in out

    def test_tests_output(self, capsys):
        code = main([
            "tests", "--mode", "0.003", "--sigma", "0.9",
            "--bound", "1e-2", "--target", "0.95",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "failure-free demands" in out

    def test_growth_output(self, capsys):
        code = main(["growth", "--faults", "10", "--exposure", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MTBF" in out

    def test_domain_error_reported(self, capsys):
        code = main(["assess", "--mode", "-1", "--sigma", "0.9"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestSweepCommand:
    def _spec_path(self, tmp_path, data=SWEEP_SPEC):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_sweep_prints_table_and_summary(self, capsys, tmp_path):
        code = main(["sweep", "--spec", self._spec_path(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "confidence" in out
        assert "3 scenarios" in out
        assert "vectorized" in out

    def test_sweep_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 scenarios
        assert "csv written" in out

    def test_sweep_limit_truncates_output(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path), "--limit", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "(2 more rows)" in out

    def test_sweep_backend_serial(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--backend", "serial",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=serial" in out

    def test_sweep_workers_below_one_rejected(self, capsys, tmp_path):
        spec = self._spec_path(tmp_path)
        for backend, workers in (("thread", "0"), ("process", "-1")):
            assert main(["sweep", "--spec", spec, "--backend", backend,
                         "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert f"error: max_workers must be at least 1, got {workers}" in err

    def test_sweep_missing_spec_file_reports_error(self, tmp_path, capsys):
        code = main(["sweep", "--spec", str(tmp_path / "missing.yaml")])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot read spec file" in err

    def test_sweep_unwritable_csv_reports_error(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--csv", str(tmp_path / "no-such-dir" / "out.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot write csv" in err

    def test_sweep_negative_limit_rejected(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path), "--limit", "-1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "--limit must be non-negative" in err

    def test_sweep_bad_spec_reports_domain_error(self, capsys, tmp_path):
        bad = {"pipeline": "survival_update",
               "base": {"mode": 0.003, "sigma": 0.9, "bogus": 1}}
        code = main(["sweep", "--spec", self._spec_path(tmp_path, bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err


class TestPipelinesCommand:
    def test_lists_every_registered_pipeline(self, capsys):
        from repro.engine import available_pipelines

        assert main(["pipelines"]) == 0
        out = capsys.readouterr().out
        for name in available_pipelines():
            assert name in out
        assert "batched" in out and "stochastic" in out

    def test_verbose_lists_parameters(self, capsys):
        assert main(["pipelines", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "* = required" in out
        assert "mode*" in out


class TestMultiSweepCommand:
    def test_multi_sweep_spec_runs_all_and_writes_one_csv(
        self, capsys, tmp_path
    ):
        spec = {
            "sweeps": [
                SWEEP_SPEC,
                {
                    "pipeline": "sil_classification",
                    "name": "views",
                    "base": {"mode": 0.003, "sigma": 0.9},
                    "grid": {"required_confidence": [0.7, 0.9]},
                },
            ]
        }
        path = tmp_path / "multi.json"
        path.write_text(json.dumps(spec))
        csv_path = tmp_path / "combined.csv"
        assert main(["sweep", "--spec", str(path),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep 1/2" in out and "sweep 2/2: views" in out
        assert "pipeline=survival_update" in out
        assert "pipeline=sil_classification" in out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 2  # header + both sweeps' rows
        assert "granted_level" in lines[0] and "confidence" in lines[0]
        # Multi-pipeline CSVs carry attribution columns so rows from
        # different sweeps stay distinguishable.
        assert "sweep" in lines[0].split(",") and "pipeline" in lines[0].split(",")
        assert sum("survival_update" in line for line in lines[1:]) == 3
        assert sum(",views," in line for line in lines[1:]) == 2


CASE_FILE = str(
    __import__("pathlib").Path(__file__).resolve().parents[1]
    / "examples" / "case_confidence.yaml"
)


class TestCaseCommand:
    def test_case_renders_and_reports_confidences(self, capsys):
        assert main(["case", "--case", CASE_FILE]) == 0
        out = capsys.readouterr().out
        assert "[G] G1" in out  # rendering
        assert "top-goal confidence P(G1)" in out
        assert "doubt" in out

    def test_case_set_override_changes_top_confidence(self, capsys):
        assert main(["case", "--case", CASE_FILE, "--no-render"]) == 0
        base = capsys.readouterr().out
        assert main(["case", "--case", CASE_FILE, "--no-render",
                     "--set", "A1.p_true=0.5"]) == 0
        doubted = capsys.readouterr().out
        assert base != doubted
        assert "[G]" not in doubted  # --no-render

    def test_case_bad_set_syntax_reported(self, capsys):
        assert main(["case", "--case", CASE_FILE, "--set", "A1"]) == 2
        assert "NODE.PARAM=VALUE" in capsys.readouterr().err

    def test_case_unknown_parameter_reported(self, capsys):
        assert main(["case", "--case", CASE_FILE,
                     "--set", "Z9.q=0.5"]) == 2
        assert "Z9.q" in capsys.readouterr().err

    def test_case_missing_file_reported(self, capsys):
        assert main(["case", "--case", "/nonexistent/case.yaml"]) == 2
        assert "error:" in capsys.readouterr().err


class TestValidateCommand:
    def _write(self, tmp_path, data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    def test_valid_sweep_spec_passes(self, capsys, tmp_path):
        assert main(["validate",
                     "--spec", self._write(tmp_path, SWEEP_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "spec ok" in out and "3 scenario(s)" in out

    def test_valid_case_spec_passes(self, capsys):
        assert main(["validate", "--spec", CASE_FILE]) == 0
        out = capsys.readouterr().out
        assert "case spec ok" in out and "sweepable parameters" in out

    def test_invalid_sweep_lists_all_errors_and_fails(
        self, capsys, tmp_path
    ):
        spec = {"sweeps": [
            {"pipeline": "survival_update", "base": {"mode": 0.003}},
            {"pipeline": "no_such_pipeline"},
            {"pipeline": "alarp_decision",
             "base": {"mode": 0.003, "sigma": 0.9, "bogus": 1}},
        ]}
        assert main(["validate",
                     "--spec", self._write(tmp_path, spec)]) == 2
        err = capsys.readouterr().err
        assert "3 error(s)" in err
        assert "missing required parameters: sigma" in err
        assert "no_such_pipeline" in err
        assert "bogus" in err

    def test_invalid_case_lists_all_errors_and_fails(
        self, capsys, tmp_path
    ):
        case = {
            "nodes": [
                {"id": "G1", "kind": "goal", "text": "top"},
                {"id": "G9", "kind": "goal", "text": "floating"},
                {"id": "Sn1", "kind": "solution", "text": "evidence"},
            ],
            "support": [["G1", "Sn1"], ["G1", "G9"]],
            "quantify": {"ZZ": {"model": "fixed", "confidence": 0.9}},
        }
        assert main(["validate",
                     "--spec", self._write(tmp_path, case)]) == 2
        err = capsys.readouterr().err
        assert "failed validation" in err
        assert "G9" in err            # ungrounded goal
        assert "ZZ" in err            # unknown quantified node
        assert "Sn1" in err           # missing leaf model

    def test_unreadable_spec_reported(self, capsys):
        assert main(["validate", "--spec", "/nonexistent/spec.yaml"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestStreamingSweepCommand:
    def _spec_path(self, tmp_path, data=SWEEP_SPEC):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_stream_writes_jsonl_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "rows.jsonl"
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(out_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "3 rows streamed" in captured.out
        assert "jsonl" in captured.out
        lines = [json.loads(line)
                 for line in out_path.read_text().strip().splitlines()]
        assert len(lines) == 3
        assert all("confidence" in line for line in lines)

    def test_stream_format_csv(self, capsys, tmp_path):
        out_path = tmp_path / "rows.out"
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(out_path), "--format", "csv",
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("mode,")

    def test_stream_infers_csv_from_extension(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(out_path),
        ]) == 0
        assert "(csv)" in capsys.readouterr().out

    def test_stream_progress_counters_on_stderr(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
            "--progress", "--chunk-size", "2",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "chunk 1/2" in captured.err
        assert "chunk 2/2 (3/3 scenarios)" in captured.err

    def test_sharded_csv_matches_single_process_bytes(
        self, capsys, tmp_path
    ):
        spec = self._spec_path(tmp_path, {
            "pipeline": "sil_classification",
            "base": {"mode": 0.003},
            "grid": {
                "sigma": [round(0.5 + 0.05 * i, 2) for i in range(20)],
                "required_confidence": [0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
                                        0.99, 0.995, 0.999],
            },
        })
        single, sharded = tmp_path / "single.csv", tmp_path / "sharded.csv"
        assert main(["sweep", "--spec", spec, "--out", str(single),
                     "--chunk-size", "16"]) == 0
        assert main(["sweep", "--spec", spec, "--out", str(sharded),
                     "--chunk-size", "16", "--shards", "3"]) == 0
        assert "180 rows streamed" in capsys.readouterr().out
        assert sharded.read_bytes() == single.read_bytes()

    def test_workers_rejected_with_shards(self, capsys, tmp_path):
        for workers in ("0", "7"):
            assert main([
                "sweep", "--spec", self._spec_path(tmp_path),
                "--out", str(tmp_path / "rows.jsonl"),
                "--shards", "2", "--workers", workers,
            ]) == 2
            assert "max_workers" in capsys.readouterr().err

    def test_stream_requires_out(self, capsys, tmp_path):
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path), "--format", "csv",
        ]) == 2
        assert "--out" in capsys.readouterr().err

    def test_stream_only_flags_rejected_without_stream(
        self, capsys, tmp_path
    ):
        spec = self._spec_path(tmp_path)
        for flags in (["--progress"], ["--shards", "2"],
                      ["--delta"], ["--tile-scenarios", "4"]):
            assert main(["sweep", "--spec", spec, *flags]) == 2
            err = capsys.readouterr().err
            assert f"{flags[0]} only applies with --out or --store" in err

    def test_collect_only_flags_rejected_when_streaming(
        self, capsys, tmp_path
    ):
        spec = self._spec_path(tmp_path)
        csv_path = tmp_path / "out.csv"
        for destination in (["--out", str(tmp_path / "rows.jsonl")],
                            ["--store", str(tmp_path / "store")]):
            for flags in (["--csv", str(csv_path)], ["--limit", "3"]):
                assert main(["sweep", "--spec", spec, *destination,
                             *flags]) == 2
                err = capsys.readouterr().err
                assert f"{flags[0]} only applies to collected sweeps" in err
        assert not csv_path.exists()

    def test_chunk_size_honoured_without_stream(self, capsys, tmp_path):
        # --chunk-size applies to the collected path too (pooled
        # backends chunk their work submission by it).
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--backend", "thread", "--chunk-size", "1",
        ]) == 0
        assert "3 scenarios" in capsys.readouterr().out

    def test_stream_rejects_multi_sweep_specs(self, capsys, tmp_path):
        multi = {"sweeps": [SWEEP_SPEC, SWEEP_SPEC]}
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path, multi),
            "--out", str(tmp_path / "rows.jsonl"),
        ]) == 2
        assert "one sweep" in capsys.readouterr().err

    def test_stream_with_disk_cache_serves_hits_on_rerun(
        self, capsys, tmp_path
    ):
        cache_path = str(tmp_path / "cache.jsonl")
        args = [
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
            "--cache", cache_path,
        ]
        assert main(args) == 0
        assert "cache 0 hit / 3 miss" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache 3 hit / 0 miss" in capsys.readouterr().out

    def test_collected_sweep_also_takes_disk_cache(self, capsys, tmp_path):
        cache_path = str(tmp_path / "cache.jsonl")
        args = [
            "sweep", "--spec", self._spec_path(tmp_path),
            "--cache", cache_path,
        ]
        assert main(args) == 0
        assert "cache 0 hit / 3 miss" in capsys.readouterr().out
        assert main(args) == 0
        assert "cache 3 hit / 0 miss" in capsys.readouterr().out


class TestCacheCommand:
    def _populate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        cache_path = tmp_path / "cache.jsonl"
        assert main([
            "sweep", "--spec", str(spec),
            "--out", str(tmp_path / "rows.jsonl"),
            "--cache", str(cache_path),
        ]) == 0
        return str(cache_path)

    def test_stats_reports_disk_and_regions(self, capsys, tmp_path):
        cache_path = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--path", cache_path]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "compile-cache regions" in out

    def test_stats_without_path_shows_regions_only(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "compile-cache regions" in out
        assert "disk result cache" not in out

    def test_clear_truncates_the_log(self, capsys, tmp_path):
        cache_path = self._populate(tmp_path)
        capsys.readouterr()
        assert main(["cache", "clear", "--path", cache_path]) == 0
        assert "cleared 3" in capsys.readouterr().out
        with open(cache_path) as handle:
            assert handle.read() == ""

    def test_entry_counts_deduplicate_rewritten_keys(self, capsys, tmp_path):
        # The log is append-only, so a re-put key appears twice; counts
        # must report distinct keys, not lines (and must not be capped
        # by any in-memory replay limit).
        path = tmp_path / "cache.jsonl"
        path.write_text(
            '{"key":"a","value":{"v":1}}\n'
            '{"key":"a","value":{"v":2}}\n'
            '{"key":"b","value":{"v":3}}\n'
            "not json\n"
        )
        assert main(["cache", "stats", "--path", str(path)]) == 0
        assert "2 entries" in capsys.readouterr().out
        assert main(["cache", "clear", "--path", str(path)]) == 0
        assert "cleared 2" in capsys.readouterr().out

    def test_stats_missing_path_reported(self, capsys):
        assert main(["cache", "stats", "--path", "/nonexistent.jsonl"]) == 2
        assert "no cache log" in capsys.readouterr().err

    def test_clear_missing_path_reported(self, capsys):
        assert main(["cache", "clear", "--path", "/nonexistent.jsonl"]) == 2
        assert "no cache log" in capsys.readouterr().err


class TestTelemetryFlags:
    def _spec_path(self, tmp_path, data=SWEEP_SPEC):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        trace_path = tmp_path / "sweep.trace.json"
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
            "--trace", str(trace_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace written to" in out
        data = json.loads(trace_path.read_text())
        assert data["traceEvents"]
        names = {event["name"] for event in data["traceEvents"]}
        assert {"plan.lower", "sweep.stream", "stream.chunk"} <= names
        assert all(event["ph"] == "X" for event in data["traceEvents"])

    def test_trace_jsonl_extension_switches_format(self, capsys, tmp_path):
        trace_path = tmp_path / "sweep.spans.jsonl"
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--trace", str(trace_path),
        ]) == 0
        lines = trace_path.read_text().strip().splitlines()
        spans = [json.loads(line) for line in lines]
        assert {"plan.lower", "sweep.stream"} <= {s["name"] for s in spans}

    def test_trace_left_disabled_after_run(self, tmp_path):
        from repro.telemetry import tracer

        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--trace", str(tmp_path / "t.json"),
        ]) == 0
        assert not tracer.enabled

    def test_metrics_flag_prints_counters(self, capsys, tmp_path):
        code = main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
            "--metrics",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics:" in out
        assert "engine.rows" in out
        assert "sink.bytes" in out

    def test_stream_report_includes_stage_timings(self, capsys, tmp_path):
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "stages:" in out
        for stage in ("plan", "compile", "execute", "sink"):
            assert stage in out

    def test_progress_reports_throughput(self, capsys, tmp_path):
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--out", str(tmp_path / "rows.jsonl"),
            "--progress", "--chunk-size", "2",
        ]) == 0
        err = capsys.readouterr().err
        # The parseable prefix is intact; throughput rides behind it.
        assert "chunk 2/2 (3/3 scenarios)" in err
        assert "rows/s" in err


class TestTelemetryCommand:
    def _traced(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SWEEP_SPEC))
        trace_path = tmp_path / "sweep.trace.json"
        assert main([
            "sweep", "--spec", str(spec),
            "--out", str(tmp_path / "rows.jsonl"),
            "--trace", str(trace_path),
        ]) == 0
        return str(trace_path)

    def test_summary_renders_tree_and_hotspots(self, capsys, tmp_path):
        trace_path = self._traced(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "span tree" in out
        assert "top hotspots" in out
        assert "sweep.stream" in out

    def test_summary_top_and_depth(self, capsys, tmp_path):
        trace_path = self._traced(tmp_path)
        capsys.readouterr()
        assert main([
            "telemetry", "summary", trace_path, "--top", "1", "--depth", "0",
        ]) == 0
        out = capsys.readouterr().out
        tree_section = out.split("top hotspots")[0]
        assert "stream.chunk" not in tree_section  # depth 0 hides children

    def test_summary_missing_file_reported(self, capsys):
        assert main(["telemetry", "summary", "/nonexistent.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_summary_negative_top_rejected(self, capsys, tmp_path):
        trace_path = self._traced(tmp_path)
        capsys.readouterr()
        assert main([
            "telemetry", "summary", trace_path, "--top", "-1",
        ]) == 2
        assert "--top" in capsys.readouterr().err


class TestCacheClearRegions:
    def test_clear_regions_reports_region_names(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "pipeline": "case_confidence",
            "base": {"case_file": "examples/case_confidence.yaml"},
            "grid": {"A1.p_true": [0.6, 0.7]},
        }))
        assert main(["sweep", "--spec", str(spec)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--regions"]) == 0
        out = capsys.readouterr().out
        assert "cleared in-process compile-cache region" in out
        assert "arguments.case" in out

    def test_clear_path_and_regions_together(self, capsys, tmp_path):
        log = tmp_path / "cache.jsonl"
        log.write_text('{"key":"a","value":{"v":1}}\n')
        assert main([
            "cache", "clear", "--path", str(log), "--regions",
        ]) == 0
        out = capsys.readouterr().out
        assert "cleared 1 cached result(s)" in out
        assert "compile-cache region" in out
        assert log.read_text() == ""

    def test_clear_without_target_rejected(self, capsys):
        assert main(["cache", "clear"]) == 2
        assert "--path" in capsys.readouterr().err

    def test_stats_show_hit_rate(self, capsys, tmp_path):
        from repro.bbn import clear_compile_cache

        clear_compile_cache()
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "pipeline": "two_leg_posterior",
            "base": {
                "prior": 0.6, "dependence": 0.3,
                "leg1_validity": 0.9, "leg1_sensitivity": 0.95,
                "leg1_specificity": 0.9, "leg2_validity": 0.88,
                "leg2_sensitivity": 0.9, "leg2_specificity": 0.85,
            },
            "grid": {"leg1_validity": [0.9, 0.9, 0.92]},
        }))
        assert main(["sweep", "--spec", str(spec)]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "%" in out


class TestStoreCommand:
    def _spec_path(self, tmp_path, data=SWEEP_SPEC):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        return str(path)

    def _materialise(self, tmp_path, **_):
        store = tmp_path / "store"
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--store", str(store), "--tile-scenarios", "1",
        ]) == 0
        return str(store)

    def test_sweep_store_writes_and_reports(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        out = capsys.readouterr().out
        assert "3 rows streamed to store" in out
        from repro.store import TileStore

        assert TileStore.open(store).n_tiles == 3

    def test_sweep_delta_reports_tile_counts(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        capsys.readouterr()
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--store", store, "--tile-scenarios", "1",
            "--delta",
        ]) == 0
        out = capsys.readouterr().out
        assert "delta: 0/3 tiles executed (3 skipped" in out

    def test_store_flag_combinations_rejected(self, capsys, tmp_path):
        spec = self._spec_path(tmp_path)
        store = str(tmp_path / "store")
        # --delta without --store
        assert main(["sweep", "--spec", spec,
                     "--out", str(tmp_path / "r.jsonl"), "--delta"]) == 2
        # --delta with a row sink
        assert main(["sweep", "--spec", spec,
                     "--store", store, "--out", str(tmp_path / "r.jsonl"),
                     "--delta"]) == 2
        # --delta under sharding
        assert main(["sweep", "--spec", spec,
                     "--store", store, "--delta", "--shards", "2"]) == 2
        # --tile-scenarios without --store
        assert main(["sweep", "--spec", spec,
                     "--out", str(tmp_path / "r.jsonl"),
                     "--tile-scenarios", "4"]) == 2
        # --delta without any destination
        assert main(["sweep", "--spec", spec, "--delta"]) == 2
        capsys.readouterr()

    def test_store_flags_require_stream(self, capsys, tmp_path):
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--tile-scenarios", "4",
        ]) == 2
        assert "--store" in capsys.readouterr().err

    def test_store_stats_output(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        capsys.readouterr()
        assert main(["store", "stats", store]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios in 3 tiles" in out
        assert "demands" in out
        assert "confidence" in out
        assert "store fingerprint" in out

    def test_store_query_answers_from_tiles(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        capsys.readouterr()
        assert main([
            "store", "query", store, "--fix", "demands=100",
            "--columns", "confidence",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 scenarios executed" in out
        assert "100" in out

    def test_store_query_bad_fix_reports_error(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        capsys.readouterr()
        assert main([
            "store", "query", store, "--fix", "demands=7",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_store_on_a_file_reports_error(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main([
            "sweep", "--spec", self._spec_path(tmp_path),
            "--store", str(taken),
        ]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write a tile store at {str(taken)!r}" in err
        assert "Traceback" not in err

    def test_store_stats_on_non_store_reports_error(self, capsys, tmp_path):
        assert main(["store", "stats", str(tmp_path)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_cache_stats_disk_bytes_column(self, capsys, tmp_path):
        store = self._materialise(tmp_path)
        capsys.readouterr()
        assert main([
            "store", "query", store, "--fix", "demands=100",
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "disk bytes" in out
        assert "store.tiles" in out
