"""Seeded inputs for the three workloads.

Everything here is a pure function of the seed: the same seed gives the
same document texts, query strings and op schedules.  The program under
test only ever receives the generated XML text, query strings and NDJSON
frames.  Documents are built as light ``El`` trees first so that edits
(``resident_mix``) can serialize any subtree without asking the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: One alphabet for every ``fresh_docs``/``resident_mix`` document, so the
#: fixed query set compiles once per process (``cached_pattern`` keys on
#: ``(query, alphabet)``).  ``#text`` joins it through the text leaves.
ELEMENTS = (
    "bibliography", "book", "article", "author",
    "title", "publisher", "year", "journal",
)

#: ``novel_queries`` label stems.  Design ``k`` names its labels
#: ``sec{k}``, ``para{k}``, ... so every design is a fresh alphabet and
#: all its query strings are new to the process.  Three labels keep a cold
#: compile under a second and a design at 66 ops.
NOVEL_STEMS = ("sec", "para", "list")

#: ``fresh_docs`` size classes, log-spaced over 300..30000 nodes, and how
#: many documents of each class a round holds per shape: small documents
#: are common and large ones rare, so a round has enough ops for a p90
#: while the large ones still carry most of the time.
SIZE_CLASSES = tuple(round(300 * 100 ** (i / 7)) for i in range(8))
CLASS_COUNTS = (6, 5, 4, 3, 2, 2, 1, 1)
SHAPES = ("bibliography", "random", "nested")


@dataclass
class El:
    """An element: tag plus ordered content (``El`` or text chunk)."""

    tag: str
    kids: list = field(default_factory=list)


def render(root: El) -> str:
    """XML text for ``root``; iterative, so depth is unbounded."""
    out: list[str] = []
    stack: list = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, El):
            out.append(f"<{item.tag}>")
            stack.append(f"</{item.tag}>")
            stack.extend(reversed(item.kids))
    return "".join(out)


def count_nodes(root: El) -> int:
    """Σ-tree size: one node per element and per text chunk."""
    total, stack = 0, [root]
    while stack:
        item = stack.pop()
        total += 1
        if isinstance(item, El):
            stack.extend(item.kids)
    return total


def bibliography(rng: random.Random, size: int) -> El:
    """A ``make_bibliography``-shaped document (high subtree sharing).

    A book is 11 Σ-tree nodes and an article 9; the book/article split is
    drawn per document.  The text is the one ``make_bibliography`` would
    render for the same counts.
    """
    books = max(1, round((size - 1) / 20 * rng.uniform(0.7, 1.3)))
    articles = max(1, round((size - 1 - 11 * books) / 9))
    kids: list = []
    for i in range(books):
        kids.append(El("book", [
            El("author", [f"A{i}"]), El("author", [f"B{i}"]),
            El("title", [f"T{i}"]), El("publisher", [f"P{i % 7}"]),
            El("year", [f"{1970 + i % 50}"]),
        ]))
    for i in range(articles):
        kids.append(El("article", [
            El("author", [f"C{i}"]), El("title", [f"U{i}"]),
            El("journal", [f"J{i % 5}"]), El("year", [f"{1970 + i % 50}"]),
        ]))
    return El("bibliography", kids)


def random_shape(rng: random.Random, elements: int, labels) -> El:
    """A seeded random recursive tree (low subtree sharing).

    Draw for draw the same tree ``repro.trees.generators.random_tree``
    builds (each new node hangs under a uniformly chosen earlier node,
    then labels are drawn), in O(n) instead of O(n²).  Every label occurs
    at least once so the alphabet never varies.
    """
    parents = [rng.randrange(node) for node in range(1, elements)]
    tags = [rng.choice(labels) for _ in range(elements)]
    for position, label in enumerate(labels):
        if label not in tags:
            tags[1 + position] = label
    nodes = [El(tag) for tag in tags]
    for child, parent in enumerate(parents, start=1):
        nodes[parent].kids.append(nodes[child])
    return nodes[0]


def random_doc(rng: random.Random, size: int) -> El:
    """``random_shape`` over the shared alphabet; leaves carry text.

    About a third of the nodes of a random recursive tree are text
    leaves, so ``size`` Σ-tree nodes need ``size / 1.5`` elements.
    """
    root = El("bibliography", [
        random_shape(rng, max(16, round(size / 1.5)), ELEMENTS[1:])
    ])
    stack = [root]
    while stack:
        node = stack.pop()
        if node.kids:
            stack.extend(node.kids)
        else:
            node.kids.append(f"w{rng.randrange(1000)}")
    return root


def nested_doc(rng: random.Random, size: int) -> El:
    """Nested sections a few hundred levels deep.

    A spine of ``book`` elements (each with a ``title``) holds leaf
    decorations spread over its levels; the depth is drawn from 300..400
    (capped so small documents are not all spine).  Ingest recurses per
    level and fails past about 1000 levels, so no op goes near that.
    """
    depth = min(rng.randint(300, 400), max(20, size // 4))
    spine = [El("book", [El("title", [f"S{level}"])]) for level in range(depth)]
    for outer, inner in zip(spine, spine[1:]):
        outer.kids.append(inner)
    spare = max(0, size - 3 * depth - 1)
    decorations = (
        lambda i: El("author", [f"N{i}"]),
        lambda i: El("year", [f"{1900 + i % 120}"]),
        lambda i: El("publisher", [f"P{i % 9}"]),
        lambda i: El("article", [El("journal", [f"J{i % 4}"])]),
    )
    i = 0
    while spare > 0 or i < len(decorations):
        make = decorations[i % len(decorations)]
        node = make(i)
        spine[rng.randrange(depth)].kids.insert(1, node)
        spare -= count_nodes(node)
        i += 1
    return El("bibliography", [spine[0]])


MAKERS = {"bibliography": bibliography, "random": random_doc, "nested": nested_doc}


def fresh_round(rng: random.Random) -> list[tuple[str, int, int]]:
    """One stratified round: every (shape, size class), shuffled.

    Items are ``(shape, size class index, size)``.  The documents of a
    class sit at the centres of equal log-slices of its width, so sizes
    (and latencies) spread evenly and every round has the same sizes; only
    the content is drawn.  A drawn size would make the median wander: the
    latency curve is steep around it.
    """
    width = SIZE_CLASSES[1] / SIZE_CLASSES[0]
    combos = [
        (shape, index,
         round(size * width ** ((slot + 0.5) / CLASS_COUNTS[index] - 0.5)))
        for shape in SHAPES
        for index, size in enumerate(SIZE_CLASSES)
        for slot in range(CLASS_COUNTS[index])
    ]
    rng.shuffle(combos)
    return combos


# -- query grammar --------------------------------------------------------

@dataclass(frozen=True)
class Template:
    """One query shape: its string form and how many labels it takes."""

    name: str
    text: str
    arity: int

    def render(self, labels) -> str:
        """The query string for concrete labels."""
        return self.text.format(*labels)


#: The ``novel_queries`` grammar: at most two steps and at most one
#: predicate, over the three front doors.  Every shape has a reference
#: evaluator in ``oracle.py``.  Two-step legacy strings and ``mso:``
#: sibling formulas are left out: their cold compiles take 3-8 s each, so
#: one of them would dominate a run.
NOVEL_TEMPLATES = (
    Template("x_desc", "xpath://{0}", 1),
    Template("x_child", "xpath://{0}/{1}", 2),
    Template("x_descdesc", "xpath://{0}//{1}", 2),
    Template("x_has", "xpath://{0}[{1}]", 2),
    Template("x_hasnot", "xpath://{0}[not({1})]", 2),
    Template("x_parent", "xpath://{0}/..", 1),
    Template("x_follow", "xpath://{0}/following-sibling::{1}", 2),
    Template("x_prec", "xpath://{0}/preceding-sibling::{1}", 2),
    Template("l_desc", "//{0}", 1),
    Template("l_child", "/{0}", 1),
    Template("m_leaf", "mso:leaf(x) & !lab_{0}(x)", 1),
    Template("m_under", "mso:exists y. (child(y, x) & lab_{0}(y))", 1),
    Template("m_desc", "mso:lab_{0}(x) & exists y. (desc(x, y) & lab_{1}(y))", 2),
    Template("m_first", "mso:first(x) & lab_{0}(x)", 1),
    Template("m_last", "mso:last(x) & lab_{0}(x)", 1),
)
#: Shapes that lower to the same formula as one above (the compile
#: cache would answer them without compiling), used by the fixed sets.
ALIASES = (
    Template("m_has", "mso:exists y. (child(x, y) & lab_{0}(y))", 1),
)
TEMPLATES = {template.name: template for template in NOVEL_TEMPLATES + ALIASES}

#: ``novel_queries`` warm-up: a query *outside* the measured grammar, so
#: warming the frontend never pre-compiles a measured string.
NOVEL_WARMUP = "xpath:/*"

#: ``fresh_docs`` fixed query set (compiled during set-up).
FRESH_QUERIES = (
    ("x_desc", ("author",)),
    ("x_has", ("book", "year")),
    ("x_child", ("article", "journal")),
    ("x_hasnot", ("book", "publisher")),
    ("m_has", ("year",)),
    ("l_desc", ("title",)),
)

#: ``resident_mix`` fixed, warm query set; cursors page the first two.
RESIDENT_QUERIES = (
    ("x_desc", ("author",)),
    ("x_has", ("book", "year")),
    ("x_child", ("article", "journal")),
    ("m_has", ("year",)),
)


def query_text(spec) -> str:
    """``(template name, labels)`` → query string."""
    name, labels = spec
    return TEMPLATES[name].render(labels)


def novel_design(rng: random.Random, k: int) -> tuple[tuple, list]:
    """Design ``k``: its labels and a balanced, shuffled list of query specs.

    A single-label template is used once with every label, a two-label
    template once with every ordered pair of distinct labels.  Every
    design therefore holds the same query strings up to the design
    number; the seed sets their order and the document.
    """
    labels = tuple(f"{stem}{k}" for stem in NOVEL_STEMS)
    specs = []
    for template in NOVEL_TEMPLATES:
        if template.arity == 1:
            combos = [(label,) for label in labels]
        else:
            combos = [(a, b) for a in labels for b in labels if a != b]
        specs.extend((template.name, combo) for combo in combos)
    rng.shuffle(specs)
    return labels, specs


# -- resident_mix ---------------------------------------------------------

#: Σ-tree sizes (before ±10% jitter) and shapes of the resident documents;
#: client 0 owns documents 0 and 3, client 1 owns 1 and 2.
RESIDENT_DOCS = (
    ("bibliography", 3000),
    ("random", 6000),
    ("bibliography", 12000),
    ("random", 30000),
)
OWNERS = ((0, 3), (1, 2))
PAGE_SIZE = 50


def resident_docs(rng: random.Random) -> list[El]:
    """The four resident documents."""
    return [
        MAKERS[shape](rng, round(size * rng.uniform(0.9, 1.1)))
        for shape, size in RESIDENT_DOCS
    ]


def edit_sites(rng: random.Random, root: El, count: int = 4) -> list[tuple]:
    """Paths of ``count`` small elements (3..60 nodes) to edit.

    Paths are Σ-tree Dewey paths: content indices, text chunks counted.
    """
    found = []
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        if path and 3 <= count_nodes(node) <= 60:
            found.append(path)
            continue
        for index, kid in enumerate(node.kids):
            if isinstance(kid, El):
                stack.append((path + (index,), kid))
    found.sort()
    return rng.sample(found, min(count, len(found)))


def element_at(root: El, path: tuple) -> El:
    """The ``El`` at a Dewey path."""
    node = root
    for index in path:
        node = node.kids[index]
    return node


def grown(node: El, serial: int) -> El:
    """``node`` with one extra ``author`` child appended (+2 nodes)."""
    return El(node.tag, list(node.kids) + [El("author", [f"E{serial}"])])


class OpStream:
    """60% query, 20% edit, 20% cursor session over owned documents.

    Ops are dealt from shuffled decks of ten: per owned document three
    queries, one edit and one cursor session.  Queries cycle through the
    fixed set, cursors through the first two queries and 1..3 pages, so
    every deck carries the same mix.  Edits alternate per document: grow
    a random edit site by one child, then delete that child again, so the
    document's size stays steady and each even revision is structurally
    the loaded document.
    """

    def __init__(self, rng: random.Random, docs, sites: dict) -> None:
        self.rng = rng
        self.docs = docs
        self.sites = sites
        self.grown_at: dict[int, tuple | None] = {doc: None for doc in docs}
        self.serial = 0
        self.deck: list = []
        self.dealt = {"query": 0, "cursor": 0}

    def next(self) -> tuple:
        """One op: ``("query", doc, spec)``, ``("edit", doc, edit)`` or
        ``("cursor", doc, spec, pages)``."""
        if not self.deck:
            self.deck = [
                (kind, doc)
                for doc in self.docs
                for kind in ("query",) * 3 + ("edit", "cursor")
            ]
            self.rng.shuffle(self.deck)
        kind, doc = self.deck.pop()
        if kind == "query":
            self.dealt["query"] += 1
            return ("query", doc,
                    RESIDENT_QUERIES[self.dealt["query"] % len(RESIDENT_QUERIES)])
        if kind == "cursor":
            self.dealt["cursor"] += 1
            turn = self.dealt["cursor"]
            return ("cursor", doc, RESIDENT_QUERIES[turn % 2], 1 + turn % 3)
        site = self.grown_at[doc]
        if site is None:
            site = self.rng.choice(self.sites[doc])
            self.grown_at[doc] = site
            self.serial += 1
            return ("edit", doc, ("grow", site, self.serial))
        self.grown_at[doc] = None
        return ("edit", doc, ("shrink", site, None))
