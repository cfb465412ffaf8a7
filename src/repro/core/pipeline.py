"""End-to-end document pipeline: XML text → validation → query → results.

The workflow the paper's introduction motivates (Figures 1–4): parse a
document, abstract it as an unranked tree, optionally validate against a
DTD, run unary queries over it, and extract the matched subdocuments.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path as FilePath

from .. import obs
from ..trees.dtd import DTD
from ..trees.tree import Path, Tree
from ..trees.xml import XMLElement, iter_corpus, parse_document, to_tree
from .query import Query


class ValidationError(ValueError):
    """The document does not conform to the DTD."""


@lru_cache(maxsize=256)
def cached_pattern(pattern: str, alphabet: tuple) -> Query:
    """Query-string compilation memoized on (pattern, alphabet).

    Strings are dispatched by prefix through
    :func:`repro.lang.compile_query_string`: ``"xpath:..."`` parses the
    XPath fragment, ``"mso:..."`` the MSO formula syntax (both defined
    in ``docs/QUERY_LANGUAGE.md``), and anything else is the legacy
    pattern language, which :mod:`repro.core.patterns` rewrites into
    the XPath step AST (``/book`` is ``xpath:/*/book``).

    The returned query object is shared, so its compiled marked-alphabet
    automaton — and the :mod:`repro.perf` engine keyed on it — survive
    across :meth:`Document.select` calls and across documents with the
    same label alphabet.

    This LRU keys on the raw pattern *string*; underneath it, the
    MSO→automaton step goes through the content-addressed compile cache
    of :mod:`repro.perf.compile`, which keys on the *canonical formula
    digest* — so distinct patterns that desugar to α-equivalent formulas
    (and cold processes pointed at a ``--compile-cache`` directory) still
    reuse one compiled automaton.

    Inspect the cache with :func:`pattern_cache_info` and reset it with
    :func:`pattern_cache_clear`; the same snapshot appears under
    ``caches["pipeline.cached_pattern"]`` in every ``obs`` report
    (alongside ``caches["perf.compile_cache"]``).
    """
    from ..lang import compile_query_string

    return compile_query_string(pattern, alphabet)


def pattern_cache_info() -> dict:
    """hits/misses/maxsize/currsize of the shared pattern LRU, as a dict."""
    info = cached_pattern.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "maxsize": info.maxsize,
        "currsize": info.currsize,
    }


def pattern_cache_clear() -> None:
    """Drop every compiled (pattern, alphabet) entry."""
    cached_pattern.cache_clear()


obs.register_cache("pipeline.cached_pattern", pattern_cache_info)


def _slice_bounds(
    limit: int | None, offset: int | None
) -> tuple[int, int | None]:
    """Validated ``(start, stop)`` for a ``limit``/``offset`` pair.

    ``limit`` caps how many answers are returned, ``offset`` skips that
    many leading answers first; both default to "everything".  Negative
    or non-integer values raise :class:`ValueError` eagerly (before any
    evaluation or streaming starts).
    """
    for name, value in (("limit", limit), ("offset", offset)):
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    start = offset or 0
    return start, (None if limit is None else start + limit)


def _limited(stream: Iterator[Path], start: int, stop: int | None):
    """``islice`` that closes the underlying cursor when it is dropped.

    Closing the returned generator (or exhausting it) closes ``stream``
    too, so an early-closed ``select_iter`` never leaves a half-walked
    cursor computing in the background.
    """
    from itertools import islice

    try:
        yield from islice(stream, start, stop)
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()


def _pattern_for(pattern: str, alphabet: tuple) -> Query:
    """``cached_pattern`` with per-call hit/miss counters when enabled."""
    sink = obs.SINK
    if not sink.enabled:
        return cached_pattern(pattern, alphabet)
    before = cached_pattern.cache_info()
    query = cached_pattern(pattern, alphabet)
    after = cached_pattern.cache_info()
    sink.incr("pipeline.pattern_cache_hits", after.hits - before.hits)
    sink.incr("pipeline.pattern_cache_misses", after.misses - before.misses)
    return query


def _coalesce_text(content: list, children: list, index: int) -> None:
    """Merge two adjacent text chunks at ``index``/``index + 1``, if any.

    An XML parser can never produce two adjacent text chunks, but an
    edit can: deleting the element between two chunks, or replacing an
    element *with* a chunk next to another chunk.  Left unmerged, the
    edited document serializes to text that reparses into a *different*
    tree (the serializer concatenates the chunks; the parser reads them
    back as one node) — the serialize/reparse hazard the serve edit
    oracle surfaced.  The merged chunk keeps the left position; one
    ``#text`` leaf is dropped and later sibling indices shift left by
    one, exactly as a reparse would see them.
    """
    if not (0 <= index and index + 1 < len(content)):
        return
    if isinstance(content[index], str) and isinstance(content[index + 1], str):
        content[index] = content[index] + content[index + 1]
        del content[index + 1]
        del children[index + 1]
        obs.SINK.incr("pipeline.text_merges")


@dataclass
class Document:
    """A parsed document with its tree abstraction."""

    element: XMLElement
    tree: Tree

    @staticmethod
    def from_text(text: str, dtd: DTD | None = None) -> "Document":
        """Parse (and optionally validate) an XML document."""
        return Document.from_element(parse_document(text), dtd)

    @staticmethod
    def from_element(element: XMLElement, dtd: DTD | None = None) -> "Document":
        """Abstract an already-parsed element (and optionally validate)."""
        tree = to_tree(element)
        if dtd is not None:
            problems = dtd.violations(tree)
            if problems:
                rendered = "; ".join(
                    f"{'/'.join(map(str, path)) or 'root'}: {message}"
                    for path, message in problems[:5]
                )
                raise ValidationError(rendered)
        return Document(element, tree)

    @property
    def alphabet(self) -> tuple:
        """The labels occurring in the tree (query compilation alphabet).

        Cached per tree: repeated selects (and every ``select_iter``
        cursor open) would otherwise pay a full O(n) label walk just to
        key the pattern LRU.
        """
        cached = self.__dict__.get("_alphabet")
        if cached is None or cached[0] is not self.tree:
            cached = (self.tree, tuple(sorted(self.tree.labels())))
            self.__dict__["_alphabet"] = cached
        return cached[1]

    def select(
        self,
        query: Query | str,
        engine: str | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> list[Path]:
        """Run a query (object or query string); document-ordered paths.

        Strings starting with ``"xpath:"`` or ``"mso:"`` use the
        :mod:`repro.lang` frontend (see ``docs/QUERY_LANGUAGE.md``);
        other strings are legacy :mod:`repro.core.patterns` patterns.
        Query strings are compiled once per (pattern, alphabet) pair —
        with the formula-level work deduplicated by the content-addressed
        compile cache of :mod:`repro.perf.compile` — and evaluated
        through the cached :mod:`repro.perf` engines, so repeated
        selections over similar documents stay cheap.  ``engine="numpy"``
        selects the vectorized tree kernel of :mod:`repro.perf.nptrees`,
        ``engine="naive"`` the uncached oracles; the default is the
        interned-dict engines.

        ``limit``/``offset`` slice the materialized answer list — the
        full selection is still evaluated; use :meth:`select_iter` to
        stop *computing* after the first answers.
        """
        obs.SINK.incr("pipeline.selects")
        start, stop = _slice_bounds(limit, offset)
        from ..perf.registry import validate_engine

        validate_engine(engine)
        if isinstance(query, str):
            query = _pattern_for(query, self.alphabet)
        from ..perf.batch import evaluate_one

        return sorted(evaluate_one(query, self.tree, engine=engine))[start:stop]

    def select_iter(
        self,
        query: Query | str,
        engine: str | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> Iterator[Path]:
        """Stream selected paths in document order; ≡ :meth:`select`.

        The constant-delay enumeration path
        (:func:`repro.perf.enumerate.stream_select`): one linear
        preprocessing pass (the bottom-up typing sweep), then answers
        are yielded one at a time, walking only subtrees that contain
        answers — the full answer list is never built, so
        time-to-first-answer and peak memory are independent of how
        many answers follow.  Query strings go through exactly the same
        pattern LRU and compile cache as :meth:`select`; ``engine``
        means the same thing (``"naive"`` degrades to a materialized
        select behind ``enumerate.fallbacks``).

        ``limit`` stops the walk after that many answers; ``offset``
        skips leading answers first.  Closing the returned generator
        stops the walk immediately.
        """
        obs.SINK.incr("pipeline.select_iters")
        start, stop = _slice_bounds(limit, offset)
        from ..perf.registry import validate_engine

        validate_engine(engine)
        if isinstance(query, str):
            query = _pattern_for(query, self.alphabet)
        from ..perf.enumerate import stream_select

        return _limited(stream_select(query, self.tree, engine=engine), start, stop)

    def matches(
        self, query: Query | str, engine: str | None = None
    ) -> list[Tree]:
        """The matched subtrees, in document order."""
        return [
            self.tree.subtree(path)
            for path in self.select(query, engine=engine)
        ]

    @staticmethod
    def batch_select(
        documents: Sequence["Document"],
        query: Query | str,
        jobs: int | None = None,
        engine: str | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> list[list[Path]]:
        """One query over many documents (module :func:`batch_select`).

        ``jobs`` > 1 shards the documents across worker processes; see
        :class:`repro.perf.parallel.ParallelExecutor`.
        """
        return batch_select(
            documents, query, jobs=jobs, engine=engine,
            limit=limit, offset=offset,
        )

    def element_at(self, path: Path) -> XMLElement | str:
        """The XML element (or text chunk) at a tree path."""
        node: XMLElement | str = self.element
        for index in path:
            if isinstance(node, str):
                raise KeyError(f"no element at {path!r}")
            node = node.content[index]
        return node

    # -- functional edits ------------------------------------------------
    #
    # Both editors rebuild only the spine from the edit site to the root;
    # every sibling element and subtree object is shared with the source
    # document, which is what keeps the serve-layer incremental engines'
    # per-node type memos hot (repro.perf.trees.incremental_type).

    def _rebuild(
        self, path: Path, replacement: tuple | None
    ) -> "Document":
        """A new document with the node at ``path`` replaced or deleted.

        ``replacement`` is ``(content_item, subtree)`` or ``None`` to
        delete.  Raises :class:`KeyError` for paths through text chunks
        or out-of-range indices, and :class:`ValueError` for the root.

        Text chunks left adjacent *by the edit itself* are merged into
        one chunk (:func:`_coalesce_text`), so an edited document always
        serializes to XML that reparses into the same tree — adjacency
        a parser can never produce never survives an edit.  Siblings the
        edit did not make adjacent are left alone (their indices never
        shift), so untouched subtrees stay shared with this document.
        """
        if not path:
            raise ValueError("cannot edit the document root; load a new one")
        # Collect the element/tree spine down to the edit site's parent.
        elements: list[XMLElement] = [self.element]
        trees: list[Tree] = [self.tree]
        for index in path[:-1]:
            node = elements[-1].content[index]
            if isinstance(node, str):
                raise KeyError(f"no element at {path!r}")
            elements.append(node)
            trees.append(trees[-1].children[index])
        last = path[-1]
        if not 0 <= last < len(elements[-1].content):
            raise KeyError(f"no node at {path!r}")
        # Rebuild bottom-up, sharing every untouched sibling.
        new_content = list(elements[-1].content)
        new_children = list(trees[-1].children)
        if replacement is None:
            del new_content[last]
            del new_children[last]
            _coalesce_text(new_content, new_children, last - 1)
        else:
            new_content[last], new_children[last] = replacement
            if isinstance(new_content[last], str):
                _coalesce_text(new_content, new_children, last)
                _coalesce_text(new_content, new_children, last - 1)
        child_element = XMLElement(
            elements[-1].tag, elements[-1].attributes, new_content
        )
        child_tree = Tree(trees[-1].label, new_children)
        for depth in range(len(path) - 2, -1, -1):
            parent_element, parent_tree = elements[depth], trees[depth]
            content = list(parent_element.content)
            content[path[depth]] = child_element
            children = list(parent_tree.children)
            children[path[depth]] = child_tree
            child_element = XMLElement(
                parent_element.tag, parent_element.attributes, content
            )
            child_tree = Tree(parent_tree.label, children)
        return Document(child_element, child_tree)

    def with_replaced(
        self, path: Path, fragment: "XMLElement | str"
    ) -> "Document":
        """A new document with the subtree at ``path`` replaced.

        ``fragment`` is a parsed :class:`XMLElement` (or a raw text
        chunk).  Siblings and all untouched subtrees are shared with
        this document — only the spine to the root is rebuilt.  A text
        chunk placed next to an existing chunk is merged with it
        (:func:`_coalesce_text`), so the result always serializes and
        reparses to the same tree.
        """
        subtree = (
            to_tree(fragment)
            if isinstance(fragment, XMLElement)
            else Tree("#text")
        )
        return self._rebuild(path, (fragment, subtree))

    def with_deleted(self, path: Path) -> "Document":
        """A new document with the subtree at ``path`` removed.

        Text chunks the deletion makes adjacent are merged into one
        chunk (:func:`_coalesce_text`) so the result round-trips
        through serialize/reparse unchanged.
        """
        return self._rebuild(path, None)


def run_pattern(
    text: str,
    pattern: str,
    dtd: DTD | None = None,
    engine: str | None = None,
) -> list[Tree]:
    """One-shot convenience: parse, validate, query, return subtrees."""
    document = Document.from_text(text, dtd)
    return document.matches(pattern, engine=engine)


def batch_select(
    documents: Sequence[Document],
    query: Query | str,
    jobs: int | None = None,
    engine: str | None = None,
    limit: int | None = None,
    offset: int | None = None,
) -> list[list[Path]]:
    """Run one query over many documents; optionally sharded across workers.

    Compiles a pattern string once (against the union of the documents'
    alphabets) and evaluates every tree through a single cached engine, so
    automaton and table construction is amortized over the whole batch.
    Returns one document-ordered path list per document.

    ``jobs`` > 1 shards the corpus across worker processes via
    :class:`repro.perf.parallel.ParallelExecutor` — results are merged in
    submission order and are byte-identical to the serial path; worker
    counters land in the installed :mod:`repro.obs` sink.  ``jobs`` of
    ``None`` or 1 stays entirely in-process.

    ``limit``/``offset`` slice each document's answer list after its
    full evaluation (every tree is still evaluated whole — sharded
    workers return complete results); for per-answer streaming use
    :meth:`Document.select_iter` per document.
    """
    documents = list(documents)
    obs.SINK.incr("pipeline.batch_selects")
    start, stop = _slice_bounds(limit, offset)
    from ..perf.registry import validate_engine

    validate_engine(engine)
    if isinstance(query, str):
        labels: set = set()
        for document in documents:
            labels.update(document.alphabet)
        query = _pattern_for(query, tuple(sorted(labels)))
    trees = [document.tree for document in documents]
    if jobs is not None and jobs != 1:
        from ..perf.parallel import parallel_map

        results = parallel_map(query, trees, jobs=jobs, engine=engine)
    else:
        from ..perf.batch import batch_evaluate

        results = batch_evaluate(query, trees, engine=engine)
    return [sorted(paths)[start:stop] for paths in results]


class Corpus:
    """An ordered collection of documents served by one query at a time.

    The serving shape of the paper's motivation at scale: one compiled
    query, many documents.  A corpus is either *materialized* (a list of
    :class:`Document`, indexable and reusable) or *streaming* (a one-shot
    document iterator fed by :func:`repro.trees.xml.iter_corpus`, so
    million-node corpora never fully materialize — they are consumed one
    parallel chunk at a time).
    """

    def __init__(self, documents: Iterable[Document]) -> None:
        if isinstance(documents, (list, tuple)):
            self._documents: list[Document] | None = list(documents)
            self._stream: Iterator[Document] | None = None
        else:
            self._documents = None
            self._stream = iter(documents)

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_texts(
        texts: Iterable[str], dtd: DTD | None = None
    ) -> "Corpus":
        """A materialized corpus parsed from document strings."""
        return Corpus([Document.from_text(text, dtd) for text in texts])

    @staticmethod
    def from_paths(
        paths: Iterable[str | FilePath], dtd: DTD | None = None
    ) -> "Corpus":
        """A materialized corpus read from one XML file per document."""
        return Corpus(
            [
                Document.from_text(FilePath(path).read_text(), dtd)
                for path in paths
            ]
        )

    @staticmethod
    def stream(source, dtd: DTD | None = None) -> "Corpus":
        """A streaming corpus over a corpus file (root's children = documents).

        Ingestion is ``iterparse``-based: each document element is
        abstracted and released before the next is parsed, so the corpus
        is never resident in memory as a whole.  The resulting corpus is
        one-shot — :meth:`select` (or iteration) consumes it.
        """
        return Corpus(
            Document.from_element(element, dtd)
            for element in iter_corpus(source)
        )

    # -- container protocol (materialized corpora) -----------------------

    @property
    def streaming(self) -> bool:
        """Whether this corpus is a one-shot document stream."""
        return self._documents is None

    def __iter__(self) -> Iterator[Document]:
        if self._documents is not None:
            return iter(self._documents)
        stream, self._stream = self._stream, None
        if stream is None:
            raise ValueError("streaming corpus already consumed")
        return stream

    def __len__(self) -> int:
        if self._documents is None:
            raise TypeError("streaming corpora have no length until materialized")
        return len(self._documents)

    def __getitem__(self, index: int) -> Document:
        if self._documents is None:
            raise TypeError("streaming corpora are not indexable")
        return self._documents[index]

    def materialize(self) -> "Corpus":
        """This corpus with every document resident (no-op if already)."""
        if self._documents is not None:
            return self
        return Corpus(list(self))

    @property
    def alphabet(self) -> tuple:
        """Union of the documents' label alphabets (materialized only)."""
        if self._documents is None:
            raise TypeError("streaming corpora have no precomputed alphabet")
        labels: set = set()
        for document in self._documents:
            labels.update(document.alphabet)
        return tuple(sorted(labels))

    # -- querying --------------------------------------------------------

    def select(
        self,
        query: Query | str,
        jobs: int | None = None,
        alphabet: Sequence[str] | None = None,
        engine: str | None = None,
        limit: int | None = None,
        offset: int | None = None,
    ) -> list[list[Path]]:
        """One document-ordered path list per document, in corpus order.

        ``jobs`` > 1 shards the documents across worker processes
        (submission-order merge; byte-identical to serial).  A query
        string (``"xpath:"`` / ``"mso:"`` prefixed, or a legacy
        pattern) compiles against the corpus alphabet — for a streaming
        corpus pass ``alphabet=`` explicitly (or a compiled query), since
        the stream cannot be scanned twice.  ``engine`` selects the
        per-tree evaluator (``"numpy"`` for the vectorized kernel) and
        rides along to the workers when sharded.  ``limit``/``offset``
        slice each document's answers after full evaluation, exactly as
        in :func:`batch_select`.
        """
        obs.SINK.incr("pipeline.corpus_selects")
        start, stop = _slice_bounds(limit, offset)
        from ..perf.registry import validate_engine

        validate_engine(engine)
        if isinstance(query, str):
            if alphabet is None:
                if self.streaming:
                    raise ValueError(
                        "a streaming corpus cannot infer the pattern "
                        "alphabet; pass alphabet= or a compiled query"
                    )
                alphabet = self.alphabet
            query = _pattern_for(query, tuple(alphabet))
        trees: Iterable[Tree] = (document.tree for document in self)
        if not self.streaming:
            trees = [document.tree for document in self._documents or []]
        if jobs is not None and jobs != 1:
            from ..perf.parallel import parallel_map

            results = parallel_map(query, trees, jobs=jobs, engine=engine)
        else:
            from ..perf.batch import _engine_call

            call = _engine_call(query, engine=engine)
            results = [call(tree) for tree in trees]
        return [sorted(paths)[start:stop] for paths in results]
