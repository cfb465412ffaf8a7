"""In-memory spans around the layers' public entry points.

The program has no spans of its own at the layer boundaries, so the
traced run wraps the entry points from here: ``install()`` rebinds each
module attribute to a timing wrapper and ``uninstall()`` puts the
originals back, so untraced ops in the same process run unwrapped code.
A span is an ``[op id, name, start, end, parent index]`` record, kept in
a list until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

from measure import median

#: span name → layer it belongs to
LAYER_OF = {
    "trees.parse": "trees",
    "trees.to_tree": "trees",
    "compile": "compile",
    "evaluate": "evaluate",
    "enumerate": "enumerate",
    "store.load": "store",
    "store.edit": "store",
    "store.select": "store",
    "store.select_iter": "store",
    "serve.handle_line": "serve",
}
LAYERS = ("trees", "compile", "evaluate", "enumerate", "store", "serve")

#: (module, attribute, span name).  ``parse_document``/``to_tree`` are
#: also rebound where ``core.pipeline`` and ``serve.store`` imported them;
#: ``trees.xml.to_tree`` itself stays unwrapped because it recurses.
FUNCTIONS = (
    ("repro.trees.xml", "parse_document", "trees.parse"),
    ("repro.core.pipeline", "parse_document", "trees.parse"),
    ("repro.serve.store", "parse_document", "trees.parse"),
    ("repro.core.pipeline", "to_tree", "trees.to_tree"),
    ("repro.core.pipeline", "cached_pattern", "compile"),
    ("repro.perf.batch", "evaluate_one", "evaluate"),
    ("repro.perf.enumerate", "stream_select", "enumerate"),
)
METHODS = (
    # Query objects compile their automaton lazily, on first evaluation.
    ("repro.core.query", "MSOQuery", "compiled", "compile"),
    ("repro.serve.store", "DocumentStore", "load", "store.load"),
    ("repro.serve.store", "DocumentStore", "replace_subtree", "store.edit"),
    ("repro.serve.store", "DocumentStore", "delete_subtree", "store.edit"),
    ("repro.serve.store", "DocumentStore", "select", "store.select"),
    ("repro.serve.store", "DocumentStore", "select_iter", "store.select_iter"),
    ("repro.serve.server", "QueryServer", "handle_line", "serve.handle_line"),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op_id, name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` (and anything left open inside it)."""
        self.spans[index][3] = time.perf_counter()
        while self._stack and self._stack.pop() != index:
            pass

    @contextlib.contextmanager
    def op(self, op_id: int):
        """A root span of traced op ``op_id`` around the block."""
        self.op_id = op_id
        index = self.begin("op")
        try:
            yield
        finally:
            self.end(index)
            self.op_id = None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, original, name: str):
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer.end(index)
        elif name == "enumerate":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    stream = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                return tracer._timed_stream(stream, name)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(index)
        if hasattr(original, "cache_info"):  # the pattern LRU
            wrapper.cache_info = original.cache_info
            wrapper.cache_clear = original.cache_clear
        return wrapper

    def _timed_stream(self, stream, name: str):
        """Re-yield ``stream``, one span per pulled answer."""
        try:
            while True:
                index = self.begin(name)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                yield item
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def install(self) -> None:
        """Rebind every entry point to its wrapper (idempotent)."""
        if self._saved:
            return
        for module_name, attribute, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._saved.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, name))
        for module_name, class_name, attribute, name in METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- analysis --------------------------------------------------------

    def analyse(self) -> dict:
        """Per-op totals, per-layer self times and per-name durations."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for op_id, name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        ops = {}
        covered = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        per_name: dict[str, list[tuple]] = {}
        for index, (op_id, name, start, end, parent) in enumerate(spans):
            duration = end - start
            if name == "op":  # an op may span several root spans
                ops[op_id] = ops.get(op_id, 0.0) + duration
                continue
            if parent >= 0 and spans[parent][1] == "op":
                covered[op_id] = covered.get(op_id, 0.0) + duration
            layer_self[LAYER_OF[name]] += duration - child_time[index]
            per_name.setdefault(name, []).append(
                (op_id, duration, duration - child_time[index])
            )
        return {
            "op_time": sum(ops.values()),
            "covered": sum(covered.values()),
            "layer_self": layer_self,
            "per_name": per_name,
        }


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when the denominator is 0."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(analysis: dict, counters: dict, traced_ops: int) -> dict:
    """Every per-layer metric from one trace analysis plus counters."""
    c = lambda key: counters.get(key, 0)  # noqa: E731
    op_time = analysis["op_time"]
    self_of = analysis["layer_self"]
    per_name = analysis["per_name"]

    def self_per_op(name: str) -> float:
        return sum(s for _, _, s in per_name.get(name, ())) / max(traced_ops, 1) * 1e3

    def median_call(name: str) -> float:
        return median([d * 1e3 for _, d, _ in per_name.get(name, ())])

    first_answer = []
    by_op: dict = {}
    for op_id, duration, _ in per_name.get("enumerate", ()):
        by_op.setdefault(op_id, []).append(duration)
    for durations in by_op.values():
        # open + first pull; later pulls are later pages
        first_answer.append(sum(durations[:2]) * 1e3)
    fallbacks = sum(
        value for key, value in counters.items()
        if key.startswith("npkernel.") and key.endswith("fallbacks")
    )
    return {
        "trace.coverage": ratio(analysis["covered"], op_time),
        "trees.parse_ms": self_per_op("trees.parse"),
        "trees.to_tree_ms": self_per_op("trees.to_tree"),
        "trees.share": ratio(self_of["trees"], op_time),
        "compile.ms": self_per_op("compile"),
        "compile.share": ratio(self_of["compile"], op_time),
        "compile.pattern_hit_ratio": ratio(
            c("pipeline.pattern_cache_hits"),
            c("pipeline.pattern_cache_hits") + c("pipeline.pattern_cache_misses"),
        ),
        "compile.cache_hit_ratio": ratio(
            c("compile.cache_hits"), c("compile.cache_hits") + c("compile.cache_misses")
        ),
        "compile.subformula_hit_ratio": ratio(
            c("compile.subformula_hits"),
            c("compile.subformula_hits") + c("compile.subformula_misses"),
        ),
        "compile.states_ratio": ratio(
            c("minimize.states_after"), c("minimize.states_before")
        ),
        "evaluate.ms": self_per_op("evaluate"),
        "evaluate.share": ratio(self_of["evaluate"], op_time),
        "evaluate.type_hit_ratio": ratio(
            c("trees.type_hits"), c("trees.type_hits") + c("trees.type_misses")
        ),
        "evaluate.nodes_per_op": ratio(c("trees.nodes"), traced_ops),
        "evaluate.fallbacks": fallbacks,
        "enumerate.first_ms": median(first_answer),
        "enumerate.nodes_per_answer": ratio(c("enumerate.nodes"), c("enumerate.answers")),
        "enumerate.fallbacks": c("enumerate.fallbacks"),
        "store.edit_ms": median_call("store.edit"),
        "store.select_ms": median_call("store.select"),
        "store.walked_per_edit": ratio(
            c("trees.incremental_walked"), c("serve.store_edits")
        ),
        "store.memo_pruned": c("serve.memo_pruned"),
        "store.share": ratio(self_of["store"], op_time),
        "serve.frame_ms": median(
            [s * 1e3 for _, _, s in per_name.get("serve.handle_line", ())]
        ),
        "serve.share": ratio(self_of["serve"], op_time),
        "serve.request_errors": c("serve.request_errors"),
        # Client-side serve figures; only the resident run has a client.
        "serve.wire_ms": 0.0,
        "serve.batch_size": 0.0,
        "serve.query_p50_ms": 0.0,
        "serve.edit_p50_ms": 0.0,
        "serve.page_p50_ms": 0.0,
    }
