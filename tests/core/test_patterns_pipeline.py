"""Pattern language and the XML pipeline (the paper's motivating workflow)."""

import pytest

from repro.core.patterns import PatternError, compile_pattern
from repro.core.pipeline import Document, ValidationError, run_pattern
from repro.core.query import MSOQuery
from repro.trees.dtd import BIBLIOGRAPHY_DTD, parse_dtd
from repro.trees.tree import Tree
from repro.trees.xml import BIBLIOGRAPHY_EXAMPLE


class TestPatterns:
    def test_child_step(self):
        query = compile_pattern("/b", ["a", "b"])
        assert query.evaluate(Tree.parse("a(b, a, b)")) == frozenset({(0,), (2,)})

    def test_nested_child_steps(self):
        query = compile_pattern("/b/a", ["a", "b"])
        tree = Tree.parse("a(b(a, b), a(a))")
        assert query.evaluate(tree) == frozenset({(0, 0)})

    def test_descendant_step(self):
        query = compile_pattern("//a", ["a", "b"])
        tree = Tree.parse("b(a(a), b(b(a)))")
        assert query.evaluate(tree) == frozenset({(0,), (0, 0), (1, 0, 0)})

    def test_wildcard(self):
        query = compile_pattern("/*", ["a", "b"])
        tree = Tree.parse("a(b, a)")
        assert query.evaluate(tree) == frozenset({(0,), (1,)})

    def test_leaf_filter(self):
        query = compile_pattern("//b[leaf]", ["a", "b"])
        tree = Tree.parse("a(b, a(b), b(a))")
        assert query.evaluate(tree) == frozenset({(0,), (1, 0)})

    def test_first_last_filters(self):
        tree = Tree.parse("a(b, b, b)")
        first = compile_pattern("/b[first]", ["a", "b"])
        last = compile_pattern("/b[last]", ["a", "b"])
        assert first.evaluate(tree) == frozenset({(0,)})
        assert last.evaluate(tree) == frozenset({(2,)})

    def test_has_filter(self):
        # ``//`` selects proper descendants of the root, so the root
        # itself (which also has a b-child here) is not matched.
        query = compile_pattern("//a[has(b)]", ["a", "b"])
        tree = Tree.parse("a(a(b), a(a))")
        assert query.evaluate(tree) == frozenset({(0,)})

    def test_agrees_with_naive_engine(self):
        from repro.trees.generators import enumerate_trees

        for pattern in ["/a", "//b", "//a[leaf]", "/a/b"]:
            fast = compile_pattern(pattern, ["a", "b"])
            slow = MSOQuery(fast.formula, fast.var, fast.alphabet, engine="naive")
            for tree in enumerate_trees(["a", "b"], 4)[:60]:
                assert fast.evaluate(tree) == slow.evaluate(tree), (
                    pattern, str(tree)
                )

    def test_errors(self):
        with pytest.raises(PatternError):
            compile_pattern("book", ["book"])
        with pytest.raises(PatternError):
            compile_pattern("//x[unknown]", ["x"])


class TestPipeline:
    def test_bibliography_authors(self):
        document = Document.from_text(
            BIBLIOGRAPHY_EXAMPLE, parse_dtd(BIBLIOGRAPHY_DTD)
        )
        authors = document.select("//author")
        assert authors == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_matches_return_subtrees(self):
        document = Document.from_text(BIBLIOGRAPHY_EXAMPLE)
        titles = document.matches("//title")
        assert len(titles) == 2
        assert all(t.label == "title" for t in titles)

    def test_element_access(self):
        document = Document.from_text(BIBLIOGRAPHY_EXAMPLE)
        book = document.element_at((0,))
        assert book.tag == "book"
        assert document.element_at((0, 3)).texts() == ["Foundations of Databases"]

    def test_validation_failure(self):
        with pytest.raises(ValidationError):
            Document.from_text(
                "<bibliography><book><title>X</title></book></bibliography>",
                parse_dtd(BIBLIOGRAPHY_DTD),
            )

    def test_run_pattern_one_shot(self):
        years = run_pattern(BIBLIOGRAPHY_EXAMPLE, "//year")
        assert len(years) == 2


class TestEditTextCoalescing:
    """Edits never leave adjacent text chunks a parser can't produce.

    Deleting (or replacing with text) an element between two text chunks
    used to leave ``["x", "y"]`` adjacent in content — the edited tree
    had two ``#text`` leaves, but serializing and reparsing merged them
    into one, so the edited document and its round-trip disagreed on
    paths.  ``with_deleted``/``with_replaced`` now coalesce.
    """

    def _roundtrips(self, document):
        from repro.trees.xml import serialize

        reparsed = Document.from_text(serialize(document.element))
        assert str(reparsed.tree) == str(document.tree)
        assert reparsed.select("//#text") == document.select("//#text")

    def test_delete_between_text_chunks(self):
        from repro import obs

        document = Document.from_text("<a>x<b/>y</a>")
        stats = obs.Stats()
        with obs.collecting(stats):
            edited = document.with_deleted((1,))
        assert edited.element.content == ["xy"]
        assert edited.tree.size == 2  # a + one merged #text leaf
        assert stats.counters["pipeline.text_merges"] == 1
        self._roundtrips(edited)

    def test_replace_with_text_between_text_chunks(self):
        document = Document.from_text("<a>x<b/>y</a>")
        edited = document.with_replaced((1,), "-mid-")
        assert edited.element.content == ["x-mid-y"]
        self._roundtrips(edited)

    def test_replace_with_element_keeps_chunks_apart(self):
        document = Document.from_text("<a>x<b/>y</a>")
        edited = document.with_replaced((1,), document.element_at((1,)))
        assert edited.element.content[0] == "x"
        assert edited.element.content[2] == "y"
        self._roundtrips(edited)

    def test_delete_with_one_sided_text(self):
        document = Document.from_text("<a>x<b/><c/></a>")
        edited = document.with_deleted((1,))
        assert edited.element.content[0] == "x"
        assert len(edited.element.content) == 2
        self._roundtrips(edited)

    def test_select_agrees_after_edit(self):
        document = Document.from_text("<a>x<b/>y<b/>z</a>")
        edited = document.with_deleted((3,))
        from repro.trees.xml import serialize

        fresh = Document.from_text(serialize(edited.element))
        for query in ("//#text", "//b", "//*"):
            assert edited.select(query) == fresh.select(query), query


def _legacy_select(pattern_steps, tree):
    """Direct evaluator of the legacy pattern semantics (the oracle).

    The context starts at the root; ``/n`` moves to children, ``//n`` to
    proper descendants; ``*`` matches any label; filters test sibling
    position, leafness, rootness, or a child's label.
    """

    def label_ok(path, name):
        return name == "*" or tree.label_at(path) == name

    def filter_ok(path, text):
        if text == "first":
            return not path or path[-1] == 0
        if text == "last":
            return not path or path[-1] == tree.arity_at(path[:-1]) - 1
        if text == "leaf":
            return tree.arity_at(path) == 0
        if text == "root":
            return not path
        name = text[len("has(") : -1]
        return any(
            label_ok(path + (index,), name) for index in range(tree.arity_at(path))
        )

    nodes = list(tree.nodes())
    context = {()}
    for axis, name, filters in pattern_steps:
        context = {
            path
            for path in nodes
            if any(
                len(path) > len(start)
                and path[: len(start)] == start
                and (axis == "//" or len(path) == len(start) + 1)
                for start in context
            )
            and label_ok(path, name)
            and all(filter_ok(path, text) for text in filters)
        }
    return frozenset(context)


def _random_legacy_pattern(rng, max_steps=3):
    """1 to ``max_steps`` steps, each ``/`` or ``//`` and a label or ``*``,
    plus up to two filters spread over the steps; returns ``(text, steps)``."""
    filters = ["first", "last", "leaf", "root", "has(a)", "has(b)", "has(*)"]
    steps = [
        (rng.choice(["/", "//"]), rng.choice(["a", "b", "*"]), [])
        for _ in range(rng.randint(1, max_steps))
    ]
    for _ in range(rng.randint(0, 2)):
        rng.choice(steps)[2].append(rng.choice(filters))
    text = "".join(
        axis + name + "".join(f"[{f}]" for f in chosen)
        for axis, name, chosen in steps
    )
    return text, steps


def _random_trees():
    from repro.trees.generators import random_tree

    return [
        random_tree(size, ["a", "b"], seed_or_rng=seed)
        for seed, size in enumerate([1, 2, 3, 4, 5, 6, 7, 9, 12] * 2)
    ]


class TestLegacyDifferential:
    """Seeded random legacy patterns against a direct Python evaluator.

    Every pattern's formula is model-checked by the logic engine (cheap
    at any step count); single-step patterns also run through the
    compiled automaton, whose compile cost grows steeply with the number
    of nested steps.
    """

    def test_pattern_formulas_match_the_oracle(self):
        import random

        rng = random.Random(2024)
        trees = _random_trees()
        for _ in range(150):
            pattern, steps = _random_legacy_pattern(rng)
            query = compile_pattern(pattern, ["a", "b"])
            oracle = MSOQuery(query.formula, query.var, query.alphabet, engine="naive")
            for tree in trees:
                assert oracle.evaluate(tree) == _legacy_select(steps, tree), (
                    pattern, str(tree)
                )

    def test_compiled_single_step_patterns_match_the_oracle(self):
        import random

        rng = random.Random(7)
        trees = _random_trees()
        for _ in range(10):
            pattern, steps = _random_legacy_pattern(rng, max_steps=1)
            query = compile_pattern(pattern, ["a", "b"])
            for tree in trees:
                assert query.evaluate(tree) == _legacy_select(steps, tree), (
                    pattern, str(tree)
                )


class TestLegacyRewrite:
    """Legacy patterns are XPath step ASTs under another spelling."""

    def test_errors_are_located_query_syntax_errors(self):
        from repro.lang import QuerySyntaxError

        cases = [("book", 0), ("  book", 2), ("//a[oops]", 4), ("/a/", 2)]
        for pattern, offset in cases:
            with pytest.raises(QuerySyntaxError) as excinfo:
                compile_pattern(pattern, ["a"])
            assert isinstance(excinfo.value, PatternError)
            assert excinfo.value.source == pattern
            assert excinfo.value.offset == offset, pattern

    def test_labels_outside_the_xpath_name_token(self):
        query = compile_pattern("//é/2x", ["a", "é", "2x"])
        tree = Tree.parse("a(é(2x, a), 2x)")
        assert query.evaluate(tree) == frozenset({(0, 0)})

    def test_rewrite_table_matches_xpath_formulas(self):
        """Each ``*``-free row of the docs table lowers to the same
        canonical formula as its ``xpath:`` rewrite."""
        import importlib.util
        from pathlib import Path

        from repro.lang import xpath_query
        from repro.perf.compile import canonical_key

        repo = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "check_docs", repo / "tools" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        rows = check_docs.rewrite_table(repo / "docs" / "QUERY_LANGUAGE.md")
        alphabet = ["book", "author", "year", "title"]
        checked = 0
        for legacy, rewrite in rows:
            if "*" in legacy:
                continue
            old = compile_pattern(legacy, alphabet)
            new = xpath_query(rewrite[len("xpath:") :], alphabet)
            assert canonical_key(old.formula, (old.var,)) == canonical_key(
                new.formula, (new.var,)
            ), (legacy, rewrite)
            checked += 1
        assert checked >= 5

    def test_filters_lower_to_the_logic_helpers(self):
        """``//a[f]`` is ∃s (root(s) ∧ Descendant(s, x) ∧ O_a(x) ∧ f(x))
        with ``f`` the :mod:`repro.logic.syntax` helper of the filter."""
        from repro.logic.syntax import (
            And,
            Descendant,
            Edge,
            Exists,
            Label,
            Var,
            first_sibling,
            fresh_var,
            last_sibling,
            leaf,
            root,
        )
        from repro.perf.compile import canonical_key

        def has_b(node):
            child = fresh_var("h")
            return Exists(child, And(Edge(node, child), Label(child, "b")))

        helpers = {
            "first": first_sibling,
            "last": last_sibling,
            "leaf": leaf,
            "root": root,
            "has(b)": has_b,
        }
        x, s = Var("x"), Var("s")
        for text, helper in helpers.items():
            expected = Exists(
                s, And(root(s), And(Descendant(s, x), And(Label(x, "a"), helper(x))))
            )
            query = compile_pattern(f"//a[{text}]", ["a", "b"])
            assert canonical_key(query.formula, (query.var,)) == canonical_key(
                expected, (x,)
            ), text
