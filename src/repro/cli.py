"""Command-line interface: query XML documents with patterns.

Usage::

    python -m repro.cli query DOCUMENT.xml "//author" [--dtd SCHEMA.dtd]
    python -m repro.cli query A.xml B.xml C.xml "//author" --jobs 4
    python -m repro.cli query DOCUMENT.xml --xpath "//book[author and year]"
    python -m repro.cli query DOCUMENT.xml --mso "lab_author(x)"
    python -m repro.cli validate DOCUMENT.xml SCHEMA.dtd
    python -m repro.cli tree DOCUMENT.xml            # show the abstraction
    python -m repro.cli decide emptiness SCHEMA.dtd "//author"
    python -m repro.cli decide containment SCHEMA.dtd "/book/author" "//author"
    python -m repro.cli profile                      # instrumented workload

The query subcommand parses the document(s) (optionally validating
them), compiles the pattern through MSO to a deterministic tree
automaton, and prints each matched node's path and serialized subtree —
the paper's "locating subtrees satisfying some pattern" as a shell
tool.  The trailing positional is a legacy pattern; ``--xpath`` and
``--mso`` take the :mod:`repro.lang` surface syntaxes instead (grammar
reference: ``docs/QUERY_LANGUAGE.md``).  With several documents,
``--jobs N`` shards them across ``N`` worker processes (``--jobs 1``
stays entirely in-process); results are identical to the serial run.  ``--engine {naive,table,numpy}`` picks the
per-tree evaluator — the uncached oracles, the interned-dict default,
or the vectorized numpy kernel (which silently degrades to the default
when numpy is not installed).

``query`` and ``decide`` accept ``--stats``: the run executes under a
recording :mod:`repro.obs` sink and the report (counters, gauges, spans,
cache snapshots) is printed as JSON on stderr, leaving stdout untouched.
``profile`` runs a workload — a document/pattern of your choosing, or
the built-in suite spanning every engine — and emits the report as JSON
on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import obs
from .core.pipeline import Document, ValidationError
from .trees.dtd import parse_dtd
from .trees.xml import serialize


def _load_document(path: str, dtd_path: str | None) -> Document:
    text = Path(path).read_text()
    dtd = parse_dtd(Path(dtd_path).read_text()) if dtd_path else None
    return Document.from_text(text, dtd)


def _apply_compile_cache(args: argparse.Namespace) -> None:
    """Honor a subcommand's ``--compile-cache DIR`` flag.

    Points the content-addressed compile cache's on-disk layer
    (:func:`repro.perf.compile.set_disk_cache`) at the directory, so
    formula compilations persist across process runs; hits/misses appear
    under the ``compile.*`` counters in ``--stats`` reports.
    """
    directory = getattr(args, "compile_cache", None)
    if directory is not None:
        from .perf.compile import set_disk_cache

        set_disk_cache(directory)


def _with_stats(args: argparse.Namespace, run) -> int:
    """Run ``run()``, honoring the subcommand's ``--stats`` flag.

    With ``--stats`` the call executes under a recording sink and the
    report lands on stderr as JSON — even when ``run()`` raises, so a
    failed decision procedure still shows how far it got.
    """
    if not getattr(args, "stats", False):
        return run()
    stats = obs.Stats()
    report_head = {}
    if getattr(args, "engine", None) is not None:
        report_head["engine"] = args.engine
    try:
        with obs.collecting(stats):
            with stats.span(f"cli.{args.command}"):
                return run()
    finally:
        json.dump(
            {**report_head, **stats.report()},
            sys.stderr,
            indent=2,
            default=repr,
        )
        print(file=sys.stderr)


def _query_flags_pattern(args: argparse.Namespace) -> str | None:
    """The prefixed query string from ``--xpath``/``--mso``, if either given."""
    if getattr(args, "xpath", None) is not None:
        return "xpath:" + args.xpath
    if getattr(args, "mso", None) is not None:
        return "mso:" + args.mso
    return None


def cmd_query(args: argparse.Namespace) -> int:
    """Run a pattern query and print the matched subdocuments."""
    return _with_stats(args, lambda: _run_query(args))


def _stream_query(args, names, documents, pattern) -> int:
    """``--stream``: one NDJSON line per match, as it is enumerated.

    Each document streams through ``Document.select_iter`` (the
    constant-delay enumeration path), so the first line appears before
    the full answer set is known and ``--limit`` stops the traversal —
    never materializing the rest.
    """
    total = 0
    for name, document in zip(names, documents):
        for path in document.select_iter(
            pattern, engine=args.engine, limit=args.limit
        ):
            print(json.dumps({"doc": name, "path": list(path)}))
            total += 1
    print(f"-- {total} match(es)", file=sys.stderr)
    return 0


def _run_query(args: argparse.Namespace) -> int:
    _apply_compile_cache(args)
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 0:
        print(f"--limit must be >= 0, got {args.limit}", file=sys.stderr)
        return 2
    pattern = _query_flags_pattern(args)
    names = list(args.documents)
    if pattern is None:
        # Without --xpath/--mso the query is the trailing positional.
        if len(names) < 2:
            print(
                "missing query: add a pattern after the document(s), "
                "or pass --xpath/--mso",
                file=sys.stderr,
            )
            return 2
        pattern = names.pop()
    documents = []
    for name in names:
        try:
            documents.append(_load_document(name, args.dtd))
        except ValidationError as error:
            print(f"validation failed: {name}: {error}", file=sys.stderr)
            return 2
    from .lang import QuerySyntaxError

    try:
        if args.stream:
            return _stream_query(args, names, documents, pattern)
        if len(documents) == 1 and args.jobs in (None, 1):
            # The historical single-document path (pipeline.selects counter).
            results = [
                documents[0].select(
                    pattern, engine=args.engine, limit=args.limit
                )
            ]
        else:
            from .core.pipeline import batch_select

            results = batch_select(
                documents,
                pattern,
                jobs=args.jobs,
                engine=args.engine,
                limit=args.limit,
            )
    except QuerySyntaxError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        return 2
    total = 0
    for name, document, paths in zip(names, documents, results):
        if len(documents) > 1:
            print(f"== {name}")
        for path in paths:
            element = document.element_at(path)
            rendered = (
                serialize(element)
                if not isinstance(element, str)
                else repr(element)
            )
            location = "/" + "/".join(map(str, path)) if path else "/"
            print(f"{location}:")
            for line in rendered.splitlines():
                print(f"  {line}")
        total += len(paths)
    print(f"-- {total} match(es)", file=sys.stderr)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate a document against a DTD; print per-node violations."""
    text = Path(args.document).read_text()
    dtd = parse_dtd(Path(args.dtd).read_text())
    from .trees.xml import parse_to_tree

    tree = parse_to_tree(text)
    problems = dtd.violations(tree)
    if not problems:
        print("valid")
        return 0
    for path, message in problems:
        location = "/" + "/".join(map(str, path)) if path else "/"
        print(f"{location}: {message}")
    return 1


def cmd_tree(args: argparse.Namespace) -> int:
    """Print the document's tree abstraction with node paths."""
    document = _load_document(args.document, None)

    def render(path=(), indent=0):
        node = document.tree.subtree(path)
        print("  " * indent + node.label + "  " + "/" + "/".join(map(str, path)))
        for index in range(len(node.children)):
            render(path + (index,), indent + 1)

    render()
    return 0


def _render_tree(tree) -> str:
    if not tree.children:
        return str(tree.label)
    inner = ", ".join(_render_tree(child) for child in tree.children)
    return f"{tree.label}({inner})"


def cmd_decide(args: argparse.Namespace) -> int:
    """Decide emptiness/containment of query strings over a DTD.

    ``emptiness`` takes one query string; ``containment`` takes two and
    asks whether every node the first selects (on DTD-valid documents)
    is selected by the second.  Strings are dispatched like ``query``'s:
    legacy patterns, ``xpath:…`` or ``mso:…``.  Exit codes: 0 =
    empty/contained, 1 = a witness/counterexample was found (and
    printed), 2 = budget exceeded or invalid query.
    """
    return _with_stats(args, lambda: _run_decide(args))


def _run_decide(args: argparse.Namespace) -> int:
    _apply_compile_cache(args)
    from .decision.closure import BudgetExceededError
    from .decision.patterns import (
        pattern_containment_counterexample,
        pattern_query_witness,
    )
    from .lang import QuerySyntaxError

    dtd = parse_dtd(Path(args.dtd).read_text())
    expected = 1 if args.mode == "emptiness" else 2
    if len(args.patterns) != expected:
        print(
            f"{args.mode} takes exactly {expected} pattern(s)", file=sys.stderr
        )
        return 2
    try:
        if args.mode == "emptiness":
            result = pattern_query_witness(
                args.patterns[0], dtd, budget=args.budget
            )
            verdict = "empty"
        else:
            result = pattern_containment_counterexample(
                args.patterns[0], args.patterns[1], dtd, budget=args.budget
            )
            verdict = "contained"
    except BudgetExceededError as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        return 2
    except QuerySyntaxError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        return 2
    if result is None:
        print(verdict)
        return 0
    tree, path = result
    location = "/" + "/".join(map(str, path)) if path else "/"
    print(f"witness: {_render_tree(tree)}")
    print(f"marked node: {location}")
    return 1


def _profile_strings(stats: "obs.Stats") -> None:
    """Exercise the Theorem 3.9 fast path: sweeps and table interning."""
    import random

    from .perf import fast_evaluate
    from .strings.examples import (
        multi_sweep_query_automaton,
        odd_ones_query_automaton,
    )

    rng = random.Random(1999)
    words = ["".join(rng.choice("01") for _ in range(64)) for _ in range(8)]
    with stats.span("profile.strings"):
        for qa in (odd_ones_query_automaton(), multi_sweep_query_automaton(4)):
            for word in words:
                fast_evaluate(qa, word)


def _profile_pipeline(stats: "obs.Stats") -> None:
    """Exercise the XML pipeline: repeated selects hit the pattern LRU."""
    from .core.pipeline import pattern_cache_clear
    from .trees.dtd import BIBLIOGRAPHY_DTD
    from .trees.xml import BIBLIOGRAPHY_EXAMPLE

    with stats.span("profile.pipeline"):
        pattern_cache_clear()
        document = Document.from_text(
            BIBLIOGRAPHY_EXAMPLE, parse_dtd(BIBLIOGRAPHY_DTD)
        )
        for _ in range(3):
            document.select("//author")
            document.select("/book/title")


def _profile_decision(stats: "obs.Stats", budget: int | None) -> None:
    """Exercise the Theorem 6.3/6.4 closure: scans and subsumption prunes."""
    from .decision.closure import containment_counterexample, query_witness
    from .unranked.examples import circuit_query_automaton
    from .unranked.twoway import UnrankedQueryAutomaton

    kwargs = {} if budget is None else {"budget": budget}
    full = circuit_query_automaton()
    gates_only = UnrankedQueryAutomaton(
        full.automaton,
        frozenset(pair for pair in full.selecting if pair[0] != "u"),
    )
    with stats.span("profile.decision"):
        query_witness(full, **kwargs)
        containment_counterexample(full, gates_only, **kwargs)


def _profile_parallel(stats: "obs.Stats", jobs: int) -> None:
    """Exercise the sharded executor over a small bibliography corpus.

    ``jobs=1`` runs the serial fast path (no pool, no ``parallel.*``
    counters); ``jobs>1`` spawns workers and merges their snapshots.
    """
    from .core.pipeline import Corpus
    from .trees.xml import make_bibliography

    with stats.span("profile.parallel"):
        corpus = Corpus.from_texts(
            make_bibliography(4, 4 + offset) for offset in range(6)
        )
        corpus.select("//author", jobs=jobs)


def _profile_document(stats: "obs.Stats", args: argparse.Namespace) -> None:
    """Profile a user-supplied document/pattern workload."""
    with stats.span("profile.pipeline"):
        document = _load_document(args.document, args.dtd)
        if args.jobs is not None and args.jobs != 1:
            from .core.pipeline import Corpus

            corpus = Corpus([document] * args.repeat)
            corpus.select(
                args.pattern,
                jobs=args.jobs,
                alphabet=document.alphabet,
                engine=args.engine,
            )
        else:
            for _ in range(args.repeat):
                document.select(args.pattern, engine=args.engine)


def cmd_profile(args: argparse.Namespace) -> int:
    """Run an instrumented workload; print the obs report as JSON.

    With ``--document``/``--pattern``, profiles that query (``--repeat``
    times, so cache behavior across repeated selects is visible).
    Without arguments, runs the built-in suite: string sweeps, the XML
    pipeline, and the packed decision procedures — every counter family
    of the metrics glossary shows up nonzero.
    """
    from .decision.closure import BudgetExceededError
    from .lang import QuerySyntaxError

    flagged = _query_flags_pattern(args)
    if flagged is not None:
        args.pattern = flagged
    if bool(args.document) != bool(args.pattern):
        print(
            "--document goes with one of --pattern/--xpath/--mso",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    _apply_compile_cache(args)
    stats = obs.Stats()
    code = 0
    try:
        with obs.collecting(stats), stats.span("profile.total"):
            if args.document:
                _profile_document(stats, args)
            else:
                _profile_strings(stats)
                _profile_pipeline(stats)
                _profile_decision(stats, args.budget)
                if args.jobs is not None:
                    _profile_parallel(stats, args.jobs)
    except BudgetExceededError as error:
        print(f"budget exceeded: {error}", file=sys.stderr)
        code = 2
    except QuerySyntaxError as error:
        print(f"invalid query: {error}", file=sys.stderr)
        return 2
    workload = (
        {"kind": "document", "document": args.document,
         "pattern": args.pattern, "repeat": args.repeat}
        if args.document
        else {"kind": "builtin"}
    )
    if args.jobs is not None:
        workload["jobs"] = args.jobs
    if args.engine is not None:
        workload["engine"] = args.engine
    json.dump(
        {"workload": workload, **stats.report()},
        sys.stdout,
        indent=2,
        default=repr,
    )
    print()
    return code


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on query server (stdio by default, or TCP/HTTP).

    The server keeps every compile/engine cache warm across requests and
    serves the newline-delimited JSON protocol of ``docs/SERVE.md``:
    load/replace/delete mutate named documents (selections after an edit
    are incremental), ``query`` admits ``xpath:``/``mso:``/legacy
    strings with per-request step/time budgets, and ``stats`` exports
    the lifetime :mod:`repro.obs` report with p50/p99 latency gauges.
    """
    import asyncio

    _apply_compile_cache(args)
    if args.jobs is not None and args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    from .serve import DocumentStore, QueryServer

    store = DocumentStore()
    for spec in args.preload or ():
        name, _, path = spec.partition("=")
        if not path:
            print(
                f"--preload takes NAME=FILE.xml, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        dtd = parse_dtd(Path(args.dtd).read_text()) if args.dtd else None
        store.load(name, Path(path).read_text(), dtd)
    server = QueryServer(
        store,
        engine=args.engine,
        verify=args.verify,
        budget_steps=args.budget_steps,
        budget_ms=args.budget_ms,
        batch_window=args.batch_window / 1000.0,
        jobs=args.jobs,
    )

    async def run() -> None:
        if args.tcp is not None:
            host, port = await server.start_tcp(args.host, args.tcp)
            print(f"serving on {host}:{port}", file=sys.stderr, flush=True)
            await server.wait_closed()
        else:
            await server.run_stdio()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    if args.stats:
        json.dump(
            server.stats_report(), sys.stderr, indent=2, default=repr
        )
        print(file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``repro`` command-line tool."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Query automata over XML documents"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a pattern query")
    query.add_argument(
        "documents",
        nargs="+",
        metavar="document",
        help="path(s) to the XML document(s), followed by the legacy "
        'pattern (e.g. "//author") unless --xpath/--mso is given',
    )
    how = query.add_mutually_exclusive_group()
    how.add_argument(
        "--xpath",
        metavar="QUERY",
        help="XPath query string (see docs/QUERY_LANGUAGE.md), "
        "instead of a trailing pattern",
    )
    how.add_argument(
        "--mso",
        metavar="FORMULA",
        help="MSO formula with one free node variable (see "
        "docs/QUERY_LANGUAGE.md), instead of a trailing pattern",
    )
    query.add_argument("--dtd", help="optional DTD to validate against")
    query.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard documents across N worker processes "
        "(1 = serial, bypasses the pool; default: serial)",
    )
    query.add_argument(
        "--engine",
        choices=["naive", "table", "numpy"],
        default=None,
        help="per-tree evaluator: naive (uncached oracles), table "
        "(interned-dict default), numpy (vectorized kernel; degrades "
        "to table without numpy)",
    )
    query.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="stop after the first N matches per document (streams via "
        "constant-delay enumeration on the single-document path)",
    )
    query.add_argument(
        "--stream",
        action="store_true",
        help="emit one NDJSON object per match as it is enumerated "
        '({"doc": ..., "path": [...]}), instead of serialized subtrees',
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print an obs metrics report (JSON) on stderr",
    )
    query.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help="persist compiled automata in DIR (content-addressed)",
    )
    query.set_defaults(func=cmd_query)

    validate = subparsers.add_parser("validate", help="validate against a DTD")
    validate.add_argument("document")
    validate.add_argument("dtd")
    validate.set_defaults(func=cmd_validate)

    tree = subparsers.add_parser("tree", help="print the tree abstraction")
    tree.add_argument("document")
    tree.set_defaults(func=cmd_tree)

    decide = subparsers.add_parser(
        "decide", help="decide pattern-query emptiness/containment over a DTD"
    )
    decide.add_argument("mode", choices=["emptiness", "containment"])
    decide.add_argument("dtd", help="path to the DTD")
    decide.add_argument(
        "patterns",
        nargs="+",
        help="one query string (emptiness) or two (containment: first ⊆ second);"
        " legacy, xpath: or mso:, as for query",
    )
    decide.add_argument(
        "--budget",
        type=int,
        default=None,
        help="cap on the decision product's size (exit 2 when exceeded)",
    )
    decide.add_argument(
        "--stats",
        action="store_true",
        help="print an obs metrics report (JSON) on stderr",
    )
    decide.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help="persist compiled automata in DIR (content-addressed)",
    )
    decide.set_defaults(func=cmd_decide)

    profile = subparsers.add_parser(
        "profile",
        help="run an instrumented workload and print its obs report as JSON",
    )
    profile.add_argument(
        "--document", help="XML document to profile (default: built-in suite)"
    )
    workload = profile.add_mutually_exclusive_group()
    workload.add_argument(
        "--pattern", help="pattern to select repeatedly (with --document)"
    )
    workload.add_argument(
        "--xpath",
        metavar="QUERY",
        help="XPath query to select repeatedly (with --document)",
    )
    workload.add_argument(
        "--mso",
        metavar="FORMULA",
        help="MSO query to select repeatedly (with --document)",
    )
    profile.add_argument("--dtd", help="optional DTD for --document")
    profile.add_argument(
        "--repeat",
        type=int,
        default=10,
        help="times to repeat the --document select (default: 10)",
    )
    profile.add_argument(
        "--budget",
        type=int,
        default=None,
        help="step budget for the built-in decision workload",
    )
    profile.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="also profile the sharded executor with N worker processes "
        "(1 = serial fast path)",
    )
    profile.add_argument(
        "--engine",
        choices=["naive", "table", "numpy"],
        default=None,
        help="per-tree evaluator for the --document workload "
        "(naive/table/numpy)",
    )
    profile.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help="persist compiled automata in DIR (content-addressed)",
    )
    profile.set_defaults(func=cmd_profile)

    serve = subparsers.add_parser(
        "serve",
        help="run the always-on NDJSON query server (see docs/SERVE.md)",
    )
    serve.add_argument(
        "--tcp",
        type=int,
        metavar="PORT",
        default=None,
        help="listen on TCP (also speaks plain HTTP); default: stdio",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --tcp (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--preload",
        action="append",
        metavar="NAME=FILE.xml",
        help="load a document into the store at startup (repeatable)",
    )
    serve.add_argument(
        "--dtd", help="optional DTD to validate --preload documents against"
    )
    serve.add_argument(
        "--engine",
        choices=["naive", "table", "numpy"],
        default=None,
        help="default per-tree evaluator (requests may override)",
    )
    serve.add_argument(
        "--verify",
        action="store_true",
        help="re-check every incremental select against the one-shot path",
    )
    serve.add_argument(
        "--budget-steps",
        type=int,
        default=None,
        help="default per-request node budget (requests may override)",
    )
    serve.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="default per-request time budget in ms (requests may override)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.0,
        metavar="MS",
        help="how long to hold a query for same-query batching "
        "(default: 0 = next event-loop tick)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="shard batched inline-document queries across N workers",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="print the lifetime obs report (JSON) on stderr at exit",
    )
    serve.add_argument(
        "--compile-cache",
        metavar="DIR",
        default=None,
        help="persist compiled automata in DIR (content-addressed)",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
