"""Span recording around the program's public functions.

The traced run wraps each layer's public entry points (listed in
``SPAN_TARGETS`` and ``COUNT_TARGETS``) from outside the program: a span
wrapper records ``(name, start, end, parent)`` in memory, a count wrapper
only counts calls.  A layer's number is its **self time** — the span's
duration minus the part of it that child spans cover — so the self times
of every span under an operation's root add up to the root's duration.

A target that no longer exists (a later change deleted or renamed it)
is reported as absent with zero calls rather than failing the run.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

#: (span name, module, attribute path).  Several targets may share one
#: span name; a layer's figure is the sum over them.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("plan.lower", "repro.engine.plan", "lower"),
    ("plan.decode", "repro.engine.plan", "ExecutionPlan.chunk_scenarios"),
    ("numerics.seed", "repro.numerics.rng", "spawn_seeds_range"),
    ("plan.resolve", "repro.engine.plan", "ExecutionPlan.chunk_items"),
    ("plan.fingerprint", "repro.engine.plan", "ExecutionPlan.fingerprint"),
    ("plan.fingerprint", "repro.engine.plan",
     "ExecutionPlan.region_fingerprint"),
    ("pipelines.run_batch", "repro.engine.pipelines", "Pipeline.run_batch"),
    ("arguments.evaluate_sweep", "repro.arguments.compiled",
     "CompiledCase.evaluate_sweep"),
    ("bbn.query_batch", "repro.bbn.compiled", "CompiledNetwork.query_batch"),
    ("bbn.lw_batch", "repro.bbn.compiled",
     "CompiledNetwork.likelihood_weighting_batch"),
    ("kernels.growth_fit", "repro.engine.kernels", "jm_profile_sweep"),
    ("kernels.growth_fit", "repro.engine.kernels", "lv_lattice_sweep"),
    ("sinks.encode", "repro.engine.sinks", "JsonlSink.encode"),
    ("sinks.write", "repro.engine.sinks", "JsonlSink.write_encoded"),
    ("store.write_tile", "repro.store.sink", "TileWriter.write_tile"),
    ("store.finalise", "repro.store.sink", "TileWriter.finalise"),
    ("store.reuse", "repro.store.sink", "TileWriter.reuse_tile"),
    ("store.delta", "repro.store.delta", "run_sweep_delta"),
    ("store.open", "repro.store.reader", "TileStore.open"),
    ("store.slice", "repro.store.reader", "TileStore.slice"),
    # The coordinator's parent blocks in Queue.get while shard workers
    # run, and merges by writing worker rows through the tile sink.
    ("coordinator.wait", "multiprocessing.queues", "Queue.get"),
    ("coordinator.merge", "repro.store.sink", "TileSink.write"),
)

#: (counter name, module, attribute path): called per row, so only
#: counted — a span each would cost more than the work it measures.
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("arguments.load_case", "repro.arguments.compiled", "load_case"),
    ("store.blob_decode", "repro.store.format", "decode_blob"),
)

#: Counter for ``Pipeline.resolve``: every registered pipeline overrides
#: or inherits it, so it is counted per pipeline instance (an instance
#: attribute shadows the class method; ``super().resolve`` inside an
#: override is then not counted twice).
RESOLVE_COUNTER = "pipelines.resolve"

ROOT = "op"


class SpanRecorder:
    """In-memory spans and call counts, per thread stack."""

    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           stack[-1] if stack else -1])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        recorder = self

        def traced(*args, **kwargs):
            index = recorder.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.end(index)

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


def _children(spans: List[list]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = defaultdict(list)
    for index, (_name, _start, _end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    return children


def self_times(spans: List[list], root: int) -> Dict[str, float]:
    """Self time per span name over ``root`` and its descendants.

    A span's self time is its duration minus the union of its direct
    children's intervals (clipped to the span), so for the spans of one
    thread the values sum to the root's duration.
    """
    children = _children(spans)
    totals: Dict[str, float] = defaultdict(float)
    pending = [root]
    while pending:
        index = pending.pop()
        name, start, end, _parent = spans[index]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(
            (spans[c][1], spans[c][2]) for c in children[index]
        ):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
        pending.extend(children[index])
    return dict(totals)


def inclusive_times(spans: List[list], root: int) -> Dict[str, float]:
    """Wall time per span name under ``root``, counting only the
    outermost span of each name (nested same-name spans add nothing)."""
    children = _children(spans)
    totals: Dict[str, float] = defaultdict(float)
    pending = [(root, frozenset())]
    while pending:
        index, open_names = pending.pop()
        name, start, end, _parent = spans[index]
        if name not in open_names:
            totals[name] += end - start
        inner = open_names | {name}
        pending.extend((child, inner) for child in children[index])
    return dict(totals)


def _resolve(module_name: str, path: str):
    """(owner, attribute, raw value) for ``module:path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Instrumentation:
    """Installs and removes the wrappers around one traced operation."""

    def __init__(self, recorder: SpanRecorder,
                 span_targets: Iterable[Tuple[str, str, str]] = SPAN_TARGETS,
                 count_targets: Iterable[Tuple[str, str, str]] = COUNT_TARGETS,
                 module_prefix: str = "repro"):
        self.recorder = recorder
        self.span_targets = tuple(span_targets)
        self.count_targets = tuple(count_targets)
        self.module_prefix = module_prefix
        self.absent: List[str] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    def _patch(self, owner, attr: str, raw, make: Callable) -> None:
        """Replace ``owner.attr`` (and, for module functions, every
        alias of it in the program's loaded modules)."""
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            had_own = attr in vars(owner)
            self._undo.append((owner, attr, vars(owner).get(attr), had_own))
            setattr(owner, attr, new)
            return
        new = make(raw)
        prefix = self.module_prefix
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == prefix or name.startswith(prefix + ".")
                or module is owner
            ):
                continue
            if getattr(module, attr, None) is raw:
                self._undo.append((module, attr, raw, True))
                setattr(module, attr, new)

    def install(self) -> "Instrumentation":
        recorder = self.recorder
        self.absent = []
        for kind, targets in (("count", self.count_targets),
                              ("span", self.span_targets)):
            for name, module_name, path in targets:
                found = _resolve(module_name, path)
                if found is None:
                    self.absent.append(f"{module_name}:{path}")
                    continue
                owner, attr, raw = found
                wrap = (recorder.span_wrapper if kind == "span"
                        else recorder.count_wrapper)
                self._patch(owner, attr, raw,
                            lambda fn, wrap=wrap, name=name: wrap(name, fn))
        self._count_resolve()
        return self

    def _count_resolve(self) -> None:
        try:
            from repro.engine.pipelines import available_pipelines, get_pipeline
        except ImportError:
            self.absent.append("repro.engine.pipelines:Pipeline.resolve")
            return
        for name in available_pipelines():
            pipeline = get_pipeline(name)
            self._undo.append(
                (pipeline, "resolve", vars(pipeline).get("resolve"),
                 "resolve" in vars(pipeline))
            )
            pipeline.resolve = self.recorder.count_wrapper(
                RESOLVE_COUNTER, pipeline.resolve
            )

    def uninstall(self) -> None:
        for owner, attr, previous, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo = []

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def op_breakdown(recorder: SpanRecorder, root: int) -> Dict[str, float]:
    """One operation's spans: ``self:<name>`` and ``incl:<name>``
    seconds, ``calls:<name>`` span counts, and the root's ``wall``."""
    out: Dict[str, float] = {}
    for name, value in self_times(recorder.spans, root).items():
        out[f"self:{name}"] = value
    for name, value in inclusive_times(recorder.spans, root).items():
        out[f"incl:{name}"] = value
    children = _children(recorder.spans)
    pending = [root]
    while pending:
        index = pending.pop()
        key = f"calls:{recorder.spans[index][0]}"
        out[key] = out.get(key, 0) + 1
        pending.extend(children[index])
    _name, start, end, _parent = recorder.spans[root]
    out["wall"] = end - start
    return out
