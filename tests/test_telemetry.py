"""Tests for repro.telemetry: spans, metrics, exporters and summaries."""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import JsonlSink, SweepSpec, run_sweep, run_sweep_streaming
from repro.errors import DomainError
from repro.telemetry import (
    MetricsRegistry,
    NoopTracer,
    Tracer,
    aggregate_tree,
    capture_trace,
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    hotspots,
    load_trace,
    metrics,
    render_summary,
    tracer,
)


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry disabled."""
    disable_tracing()
    disable_metrics()
    yield
    disable_tracing()
    disable_metrics()


def _sweep_spec(demands=(0, 10, 100)):
    return SweepSpec(
        pipeline="survival_update",
        base={"mode": 0.003, "sigma": 0.9, "bound": 1e-2,
              "points_per_decade": 40},
        grid={"demands": list(demands)},
    )


class TestSpans:
    def test_nesting_assigns_parents(self):
        with capture_trace() as trace:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
                with tracer.span("sibling"):
                    pass
        spans = {span.name: span for span in trace.finished()}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["sibling"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        # Children finish (and are stored) before their parent.
        names = [span.name for span in trace.finished()]
        assert names.index("inner") < names.index("outer")

    def test_span_ids_are_unique(self):
        with capture_trace() as trace:
            for _ in range(50):
                with tracer.span("s"):
                    pass
        ids = [span.span_id for span in trace.finished()]
        assert len(set(ids)) == 50

    def test_attributes_at_open_and_mid_span(self):
        with capture_trace() as trace:
            with tracer.span("work", items=3) as span:
                span.set(done=True)
        (span,) = trace.finished()
        assert span.attrs == {"items": 3, "done": True}

    def test_times_are_recorded(self):
        with capture_trace() as trace:
            with tracer.span("work"):
                sum(range(10_000))
        (span,) = trace.finished()
        assert span.wall_s > 0
        assert span.cpu_s >= 0
        assert span.start_s >= 0

    def test_exception_marks_span_and_propagates(self):
        with capture_trace() as trace:
            with pytest.raises(ValueError):
                with tracer.span("boom"):
                    raise ValueError("nope")
        (span,) = trace.finished()
        assert span.attrs["error"] == "ValueError"

    def test_threads_get_separate_lanes(self):
        def worker():
            with tracer.span("worker"):
                pass

        with capture_trace() as trace:
            with tracer.span("main"):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        spans = {span.name: span for span in trace.finished()}
        # The worker's span must not adopt the main thread's open span.
        assert spans["worker"].parent_id is None
        assert spans["worker"].thread_id != spans["main"].thread_id

    def test_max_spans_cap_counts_drops(self):
        with capture_trace(max_spans=3) as trace:
            for _ in range(10):
                with tracer.span("s"):
                    pass
        assert len(trace) == 3
        assert trace.dropped == 7

    def test_current_tracks_innermost(self):
        with capture_trace():
            assert tracer.current() is None
            with tracer.span("outer") as outer:
                assert tracer.current() is outer
                with tracer.span("inner") as inner:
                    assert tracer.current() is inner
                assert tracer.current() is outer
            assert tracer.current() is None


class TestTracerSwitches:
    def test_disabled_by_default_and_null_span_is_shared(self):
        assert not tracer.enabled
        first = tracer.span("a", x=1)
        second = tracer.span("b")
        assert first is second  # the shared null span
        with first as span:
            assert span.set(y=2) is span
        assert tracer.finished() == []

    def test_enable_disable_roundtrip(self):
        live = enable_tracing()
        assert tracer.enabled
        with tracer.span("s"):
            pass
        returned = disable_tracing()
        assert returned is live
        assert not tracer.enabled
        assert len(live.finished()) == 1

    def test_capture_restores_surrounding_tracer(self):
        outer = enable_tracing()
        with capture_trace() as inner:
            with tracer.span("inner-only"):
                pass
        assert tracer._impl is outer
        with tracer.span("outer-only"):
            pass
        disable_tracing()
        assert [s.name for s in inner.finished()] == ["inner-only"]
        assert [s.name for s in outer.finished()] == ["outer-only"]

    def test_invalid_max_spans_rejected(self):
        with pytest.raises(DomainError):
            Tracer(max_spans=0)

    def test_noop_tracer_surface(self):
        noop = NoopTracer()
        assert noop.current() is None
        assert noop.finished() == []

    def test_disabled_span_overhead_is_tiny(self):
        import time

        reps = 50_000
        start = time.perf_counter()
        for _ in range(reps):
            with tracer.span("probe"):
                pass
        per_span = (time.perf_counter() - start) / reps
        # Generous bound (plain function call territory): the no-op
        # span must stay far below a microsecond-scale cost.
        assert per_span < 20e-6


class TestExporters:
    def _trace_three_spans(self):
        with capture_trace() as trace:
            with tracer.span("root", pipeline="p"):
                with tracer.span("child", n=2):
                    pass
                with tracer.span("child", n=3):
                    pass
        return trace

    def test_chrome_trace_structure(self):
        trace = self._trace_three_spans()
        data = trace.to_chrome_trace()
        assert set(data) == {"traceEvents", "displayTimeUnit"}
        assert len(data["traceEvents"]) == 3
        for event in data["traceEvents"]:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert "span_id" in event["args"]

    def test_chrome_roundtrip_via_load_trace(self, tmp_path):
        trace = self._trace_three_spans()
        path = tmp_path / "out.trace.json"
        trace.write_chrome_trace(path)
        json.loads(path.read_text())  # valid JSON on disk
        spans = load_trace(path)
        assert [s["name"] for s in spans] == ["child", "child", "root"]
        root = next(s for s in spans if s["name"] == "root")
        children = [s for s in spans if s["name"] == "child"]
        assert all(c["parent_id"] == root["span_id"] for c in children)
        assert root["attrs"]["pipeline"] == "p"
        assert sorted(c["attrs"]["n"] for c in children) == [2, 3]

    def test_jsonl_roundtrip_via_load_trace(self, tmp_path):
        trace = self._trace_three_spans()
        path = tmp_path / "out.jsonl"
        trace.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        spans = load_trace(path)
        originals = trace.finished()
        assert [s["name"] for s in spans] == [s.name for s in originals]
        for loaded, original in zip(spans, originals):
            assert loaded["span_id"] == original.span_id
            assert loaded["wall_s"] == pytest.approx(original.wall_s,
                                                     abs=1e-9)

    def test_both_formats_agree(self, tmp_path):
        trace = self._trace_three_spans()
        chrome, jsonl = tmp_path / "t.json", tmp_path / "t.jsonl"
        trace.write_chrome_trace(chrome)
        trace.write_jsonl(jsonl)
        from_chrome = load_trace(chrome)
        from_jsonl = load_trace(jsonl)
        for a, b in zip(from_chrome, from_jsonl):
            assert a["name"] == b["name"]
            assert a["span_id"] == b["span_id"]
            assert a["parent_id"] == b["parent_id"]
            assert a["wall_s"] == pytest.approx(b["wall_s"], abs=1e-6)

    def test_numpy_attrs_are_jsonable(self, tmp_path):
        import numpy as np

        with capture_trace() as trace:
            with tracer.span("s", count=np.int64(3), ratio=np.float64(0.5),
                             arr=np.arange(2)):
                pass
        path = tmp_path / "t.json"
        trace.write_chrome_trace(path)
        (span,) = load_trace(path)
        assert span["attrs"]["count"] == 3
        assert span["attrs"]["ratio"] == 0.5
        assert isinstance(span["attrs"]["arr"], str)

    def test_load_trace_errors(self, tmp_path):
        with pytest.raises(DomainError):
            load_trace(tmp_path / "missing.json")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(DomainError):
            load_trace(bad)
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert load_trace(empty) == []


class TestMetrics:
    def test_disabled_updates_are_ignored(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.add(5)
        assert counter.value == 0
        registry.enabled = True
        counter.add(5)
        assert counter.value == 5

    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.enabled = True
        counter = registry.counter("rows")
        counter.add()
        counter.add(9)
        gauge = registry.gauge("depth")
        gauge.set(4)
        histogram = registry.histogram("dur", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        snap = registry.snapshot()
        assert snap["rows"] == {"type": "counter", "value": 10}
        assert snap["depth"] == {"type": "gauge", "value": 4.0}
        assert snap["dur"]["count"] == 3
        assert snap["dur"]["counts"] == [1, 1, 1]  # one per bucket + overflow
        assert snap["dur"]["total"] == pytest.approx(5.55)

    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(DomainError):
            registry.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(DomainError):
            MetricsRegistry().counter("")

    def test_bad_histogram_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(DomainError):
            registry.histogram("h", buckets=())
        with pytest.raises(DomainError):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(DomainError):
            registry.histogram("h3", buckets=(2.0, 1.0))

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        registry.enabled = True
        counter = registry.counter("c")
        counter.add(3)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("c") is counter

    def test_enable_metrics_reset_flag(self):
        enable_metrics(reset=True)
        probe = metrics.counter("test.probe")
        probe.add(2)
        assert probe.value == 2
        enable_metrics(reset=True)
        assert probe.value == 0


class TestSummary:
    def _spans(self):
        # root (1.0s) -> a (0.6s) -> b (0.2s); root self = 0.4s.
        return [
            {"name": "root", "span_id": 1, "parent_id": None, "tid": 0,
             "start_s": 0.0, "wall_s": 1.0, "cpu_s": 0.9, "attrs": {}},
            {"name": "a", "span_id": 2, "parent_id": 1, "tid": 0,
             "start_s": 0.1, "wall_s": 0.6, "cpu_s": 0.5, "attrs": {}},
            {"name": "b", "span_id": 3, "parent_id": 2, "tid": 0,
             "start_s": 0.2, "wall_s": 0.2, "cpu_s": 0.2, "attrs": {}},
        ]

    def test_aggregate_tree_self_times_and_order(self):
        tree = aggregate_tree(self._spans())
        by_path = {group["path"]: group for group in tree}
        assert by_path[("root",)]["self_s"] == pytest.approx(0.4)
        assert by_path[("root", "a")]["self_s"] == pytest.approx(0.4)
        assert by_path[("root", "a", "b")]["self_s"] == pytest.approx(0.2)
        # Parents precede children, shares are against the root total.
        assert [g["path"] for g in tree] == [
            ("root",), ("root", "a"), ("root", "a", "b")
        ]
        assert by_path[("root",)]["share"] == pytest.approx(1.0)

    def test_hotspots_rank_by_self_time(self):
        ranked = hotspots(self._spans())
        assert [g["name"] for g in ranked] == ["root", "a", "b"]
        assert sum(g["share"] for g in ranked) == pytest.approx(1.0)

    def test_hotspots_top_limits_rows(self):
        assert len(hotspots(self._spans(), top=2)) == 2

    def test_render_summary_contains_both_views(self):
        report = render_summary(self._spans(), top=5)
        assert "span tree (3 spans)" in report
        assert "top hotspots" in report
        assert "root" in report and "  a" in report
        assert render_summary([]) == "trace contains no spans"

    def test_render_summary_depth_filter(self):
        report = render_summary(self._spans(), max_depth=0)
        assert "\n  a" not in report.split("top hotspots")[0]


class TestEngineIntegration:
    def test_traced_sweep_covers_the_stack(self, tmp_path):
        spec = _sweep_spec()
        with capture_trace() as trace:
            result = run_sweep(spec)
        assert len(result) == 3
        names = {span.name for span in trace.finished()}
        assert {"plan.lower", "sweep.stream", "stream.chunk",
                "kernel.dispatch"} <= names
        root = next(s for s in trace.finished() if s.name == "sweep.stream")
        assert root.attrs["rows"] == 3
        assert root.attrs["pipeline"] == "survival_update"

    def test_traced_streaming_sweep_with_cache_and_sink(self, tmp_path):
        spec = _sweep_spec()
        out = tmp_path / "rows.jsonl"
        with capture_trace() as trace:
            meta = run_sweep_streaming(spec, sinks=(JsonlSink(str(out)),))
        assert meta["rows"] == 3
        names = {span.name for span in trace.finished()}
        assert "stream.chunk" in names
        timings = meta["stage_timings"]
        assert set(timings) == {"plan_s", "compile_s", "execute_s", "sink_s"}
        assert all(value >= 0 for value in timings.values())

    def test_metrics_match_meta_exactly(self, tmp_path):
        spec = _sweep_spec(demands=(0, 5, 10, 50, 100))
        enable_metrics(reset=True)
        meta = run_sweep_streaming(
            spec, sinks=(JsonlSink(str(tmp_path / "rows.jsonl")),),
            chunk_size=2,
        )
        disable_metrics()
        snap = metrics.snapshot()
        assert snap["engine.rows"]["value"] == meta["rows"]
        assert snap["engine.chunks"]["value"] == meta["n_chunks"]
        assert snap["sink.rows"]["value"] == meta["rows"]
        assert snap["sink.bytes"]["value"] == (
            tmp_path / "rows.jsonl"
        ).stat().st_size

    @settings(max_examples=15, deadline=None)
    @given(
        demands=st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=1, max_size=8, unique=True,
        ),
        chunk_size=st.integers(min_value=1, max_value=5),
    )
    def test_metrics_counters_match_meta_property(self, tmp_path_factory,
                                                  demands, chunk_size):
        out = tmp_path_factory.mktemp("rows") / "rows.jsonl"
        spec = _sweep_spec(demands=demands)
        enable_metrics(reset=True)
        before = metrics.snapshot()
        meta = run_sweep_streaming(
            spec, sinks=(JsonlSink(str(out)),), chunk_size=chunk_size,
        )
        after = metrics.snapshot()
        disable_metrics()

        def delta(name):
            return (after[name]["value"]
                    - before.get(name, {}).get("value", 0))

        assert delta("engine.rows") == meta["rows"] == len(demands)
        assert delta("engine.chunks") == meta["n_chunks"]
        assert delta("sink.rows") == meta["rows"]
        assert delta("sink.bytes") == out.stat().st_size

    def test_cache_region_metrics_and_compile_histogram(self):
        from repro.compilecache import ContentCache

        enable_metrics(reset=True)
        cache = ContentCache(maxsize=2, name="test.region")
        cache.get_or_create("k1", lambda: 1)
        cache.get_or_create("k1", lambda: 1)
        cache.get_or_create("k2", lambda: 2)
        cache.get_or_create("k3", lambda: 3)  # evicts k1's slot
        disable_metrics()
        snap = metrics.snapshot()
        stats = cache.stats()
        assert snap["cache.test.region.hits"]["value"] == stats["hits"]
        assert snap["cache.test.region.misses"]["value"] == stats["misses"]
        assert snap["cache.test.region.evictions"]["value"] == 1
        assert snap["cache.test.region.compile_s"]["count"] == 3

    def test_compile_seconds_accumulates_without_telemetry(self):
        import time

        from repro.compilecache import ContentCache, compile_seconds

        cache = ContentCache(maxsize=4, name="test.compsec")
        before = compile_seconds()
        cache.get_or_create("k", lambda: time.sleep(0.01) or 1)
        assert compile_seconds() - before >= 0.009

    def test_sink_byte_counts_match_file_sizes(self, tmp_path):
        from repro.engine import CsvSink

        spec = _sweep_spec()
        for sink_cls, name in ((JsonlSink, "r.jsonl"), (CsvSink, "r.csv")):
            path = tmp_path / name
            sink = sink_cls(str(path))
            run_sweep_streaming(spec, sinks=(sink,))
            assert sink.n_rows == 3
            assert sink.n_bytes == path.stat().st_size
