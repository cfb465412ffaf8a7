"""``fresh_docs`` and ``novel_queries``: one caller, closed loop, in-process.

Both workloads run in rounds with a fixed mix — every (shape, size class)
stratum for ``fresh_docs``, one balanced design of query strings for
``novel_queries`` — and a run measures a number of whole rounds set by
``--seconds``, so every run carries the same mix.  Inputs are
generated before a round and each answer is checked right after its op,
both outside the timed window.
"""

from __future__ import annotations

import contextlib
import math
import random
import time

import gen
import oracle
from measure import median, peak_rss_mb, percentile

#: ``engine="naive"`` re-check only below this size (it is ~4× slower).
NAIVE_CHECK_NODES = 1200
#: Tail percentile per workload, with ≥10 samples beyond it at the op
#: counts a 15 s run makes (216 and 132 ops).
TAIL = {"fresh_docs": 90, "novel_queries": 90}


class FreshDocs:
    """Never-seen XML texts, a fixed warm query set (ingest-bound)."""

    name = "fresh_docs"
    #: A run of ``--seconds s`` measures ``ceil(s / round_seconds)`` rounds.
    #: A round takes 6-8 s here; three rounds per 15 s give the median
    #: and p90 enough samples around them.
    round_seconds = 5.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"fresh_docs/{seed}")

    def setup(self) -> None:
        """Compile the fixed query set on the shared alphabet."""
        from repro.core.pipeline import Document

        warm = Document.from_text(
            gen.render(gen.bibliography(random.Random(0), 60))
        )
        for spec in gen.FRESH_QUERIES:
            warm.select(gen.query_text(spec))

    def round(self) -> list[dict]:
        """One round of ops: text, query spec, query string."""
        ops = []
        for index, (shape, size_class, size) in enumerate(gen.fresh_round(self.rng)):
            text = gen.render(gen.MAKERS[shape](self.rng, size))
            spec = gen.FRESH_QUERIES[index % len(gen.FRESH_QUERIES)]
            ops.append({
                "text": text, "spec": spec, "query": gen.query_text(spec),
                "stratum": (shape, size_class),
            })
        return ops

    def execute(self, op: dict) -> None:
        from repro.core.pipeline import Document

        document = Document.from_text(op["text"])
        op["answer"] = document.select(op["query"])
        op["nodes"] = document.tree.size
        if op["nodes"] <= NAIVE_CHECK_NODES:
            op["document"] = document

    def check(self, op: dict) -> bool:
        expected = oracle.RefTree(op["text"]).answer(op["spec"])
        ok = op["answer"] == expected
        document = op.pop("document", None)
        if document is not None:
            ok = ok and document.select(op["query"], engine="naive") == expected
        return ok


class NovelQueries:
    """A resident ~800-node document, a never-seen query string per op.

    Ops come in designs (``gen.novel_design``): one document over a fresh
    alphabet plus a balanced set of 66 query strings.  The first design's
    document is parsed and warmed up in set-up; a later design's is parsed
    and warmed up between designs, outside the timed window.
    """

    name = "novel_queries"
    #: A design takes ≈10 s here.
    round_seconds = 10.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"novel_queries/{seed}")
        self.designs = 0
        self.next = self._design()

    def _design(self) -> dict:
        labels, specs = gen.novel_design(self.rng, self.designs)
        self.designs += 1
        text = gen.render(gen.random_shape(self.rng, 800, labels))
        return {"text": text, "specs": specs, "document": None, "reference": None}

    def _prepare(self, design: dict) -> None:
        from repro.core.pipeline import Document

        design["document"] = Document.from_text(design["text"])
        design["document"].select(gen.NOVEL_WARMUP)

    def setup(self) -> None:
        """Parse the first document and warm up outside the grammar."""
        self._prepare(self.next)

    def round(self) -> list[dict]:
        design, self.next = self.next, self._design()
        if design["document"] is None:
            self._prepare(design)
        return [
            {"spec": spec, "query": gen.query_text(spec), "stratum": spec[0],
             "design": design}
            for spec in design["specs"]
        ]

    def execute(self, op: dict) -> None:
        document = op["design"]["document"]
        op["answer"] = document.select(op["query"])
        op["nodes"] = document.tree.size

    def check(self, op: dict) -> bool:
        design = op["design"]
        if design["reference"] is None:
            design["reference"] = oracle.RefTree(design["text"])
        expected = design["reference"].answer(op["spec"])
        naive = design["document"].select(op["query"], engine="naive")
        return op["answer"] == expected and naive == expected


WORKLOADS = {"fresh_docs": FreshDocs, "novel_queries": NovelQueries}


def _run_op(workload, op: dict, scope=contextlib.nullcontext) -> float:
    """Execute one op inside ``scope()``; its latency in seconds.

    Failures are recorded on the op and timed like any other op.
    """
    start = time.perf_counter()
    try:
        with scope():
            workload.execute(op)
    except Exception as error:  # noqa: BLE001 — a failed op, counted
        op["error"] = f"{type(error).__name__}: {error}"[:200]
    return time.perf_counter() - start


def _check(workload, op: dict) -> bool:
    """Check one executed op, then drop its answer and document."""
    try:
        return "error" not in op and workload.check(op)
    except Exception as error:  # noqa: BLE001 — the check itself failed
        op["error"] = f"check: {type(error).__name__}: {error}"[:200]
        return False
    finally:
        op.pop("answer", None)
        op.pop("document", None)


def rounds_for(workload, seconds: float) -> int:
    """Rounds in a run of ``seconds``: a fixed count, not a time limit.

    Counting rounds rather than stopping at a deadline keeps the work of
    a run the same on a fast or a slow host, so the op mix and the number
    of samples behind each percentile never change with host speed.
    """
    return max(1, math.ceil(seconds / workload.round_seconds))


def measure(name: str, seed: int, seconds: float, ready) -> dict:
    """The untraced run: end-to-end figures (``setup_s`` is the caller's).

    Each op is checked right after it runs (outside its timing), so the
    live heap stays the same size from op to op.
    """
    workload = WORKLOADS[name](seed)
    workload.setup()
    ready()
    latencies: list[float] = []
    failed = wrong = 0
    check_s = 0.0
    errors: list[str] = []
    rounds = rounds_for(workload, seconds)
    for _ in range(rounds):
        for op in workload.round():
            latencies.append(_run_op(workload, op))
            check_start = time.perf_counter()
            passed = _check(workload, op)
            check_s += time.perf_counter() - check_start
            if not passed:
                failed += 1
                if "error" in op:
                    errors.append(op["error"])
                else:
                    wrong += 1
    ms = [x * 1000.0 for x in latencies]
    attempted = len(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": errors[:5],
        "tail_q": TAIL[name],
        "rounds": rounds,
        "check_s": check_s,
        "metrics": {
            "ops_per_s": attempted / sum(latencies),
            "latency_p50_ms": median(ms),
            "latency_tail_ms": percentile(ms, TAIL[name]),
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def deep_ingest_failures(depths=(1200, 5000)) -> int:
    """How many of a few >1000-deep documents ingest fails on.

    Not part of any timed op (the workloads avoid failing ops); reported
    so that a depth-safe ingest shows up as this count dropping to 0.
    """
    from repro.core.pipeline import Document

    failures = 0
    for depth in depths:
        text = "<book>" * depth + "</book>" * depth
        try:
            Document.from_text(text)
        except RecursionError:
            failures += 1
    return failures


def traced(name: str, seed: int, seconds: float) -> dict:
    """The traced run: per-layer figures from spans and ``obs`` counters.

    Ops of the same stratum (shape and size class, or query template) run
    in pairs: one traced under an ``obs`` sink, the other unwrapped with
    no sink, alternating which goes first.  ``fresh_docs`` takes two
    rounds per batch so that every stratum holds an even number of ops.
    """
    from repro import obs
    from spans import Tracer, layer_metrics

    workload = WORKLOADS[name](seed)
    workload.setup()
    tracer = Tracer()
    stats = obs.Stats()
    plain = [0.0, 0]  # seconds, nodes
    spanned = [0.0, 0]
    attempted = failed = 0
    op_id = 0

    @contextlib.contextmanager
    def traced_scope():
        with obs.collecting(stats), tracer.op(op_id):
            yield

    batches = rounds_for(workload, seconds)
    if name == "fresh_docs":
        batches = max(1, batches // 2)
    for _ in range(batches):
        ops = workload.round()
        if name == "fresh_docs":
            ops += workload.round()
        groups: dict = {}
        for op in ops:
            groups.setdefault(op["stratum"], []).append(op)
        pairs = [
            (group[i], group[i + 1])
            for group in groups.values()
            for i in range(0, len(group) - 1, 2)
        ]
        for index, pair in enumerate(pairs):
            for op in (pair if index % 2 == 0 else pair[::-1]):
                if op is pair[1]:
                    op_id += 1
                    tracer.install()
                    try:
                        elapsed = _run_op(workload, op, traced_scope)
                    finally:
                        tracer.uninstall()
                    bucket = spanned
                else:
                    elapsed = _run_op(workload, op)
                    bucket = plain
                bucket[0] += elapsed
                bucket[1] += op.get("nodes", 0)
                attempted += 1
                failed += not _check(workload, op)
    if name == "fresh_docs":  # per node: paired sizes differ within a class
        overhead = (spanned[0] / spanned[1]) / (plain[0] / plain[1]) - 1.0
    else:
        overhead = spanned[0] / plain[0] - 1.0
    layers = layer_metrics(tracer.analyse(), stats.counters, op_id)
    layers["obs.trace_overhead"] = overhead
    layers["trees.deep_doc_failures"] = (
        deep_ingest_failures() if name == "fresh_docs" else 0
    )
    return {"attempted": attempted, "failed": failed, "metrics": layers,
            "spans": tracer.spans}
