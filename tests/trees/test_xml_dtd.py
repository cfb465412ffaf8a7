"""XML parsing and DTD validation — the Figures 1–4 pipeline."""

import pytest

from repro.trees.dtd import (
    BIBLIOGRAPHY_DTD,
    DTDError,
    parse_dtd,
)
from repro.trees.tree import Tree
from repro.trees.xml import (
    BIBLIOGRAPHY_EXAMPLE,
    XMLError,
    make_bibliography,
    parse_document,
    parse_to_structure_tree,
    parse_to_tree,
    serialize,
)


class TestXMLParsing:
    def test_figure_1_shape(self):
        element = parse_document(BIBLIOGRAPHY_EXAMPLE)
        assert element.tag == "bibliography"
        assert [child.tag for child in element.elements()] == ["book", "article"]
        book = element.elements()[0]
        assert [child.tag for child in book.elements()] == [
            "author", "author", "author", "title", "publisher", "year",
        ]

    def test_figure_3_tree_with_text(self):
        tree = parse_to_tree(BIBLIOGRAPHY_EXAMPLE)
        assert tree.label == "bibliography"
        assert tree.size == 23  # 11 elements + 10 text leaves + root... (Fig. 3)
        assert tree.label_at((0, 0)) == "author"
        assert tree.label_at((0, 0, 0)) == "#text"

    def test_figure_4_structure_tree(self):
        tree = parse_to_structure_tree(BIBLIOGRAPHY_EXAMPLE)
        assert "#text" not in tree.labels()
        assert tree.label_at((1,)) == "article"
        assert tree.arity_at((1,)) == 4

    def test_attributes_and_self_closing(self):
        element = parse_document('<a x="1"><b/><c y="z &amp; w"/></a>')
        assert element.attributes == {"x": "1"}
        assert element.elements()[1].attributes == {"y": "z & w"}

    def test_comments_skipped(self):
        element = parse_document("<a><!-- hidden --><b/></a>")
        assert [child.tag for child in element.elements()] == ["b"]

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLError):
            parse_document("<a><b></a></b>")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(XMLError):
            parse_document("<a/><b/>")

    def test_serialize_roundtrip(self):
        element = parse_document(BIBLIOGRAPHY_EXAMPLE)
        again = parse_document(serialize(element))
        assert parse_to_tree(serialize(element)) == parse_to_tree(
            BIBLIOGRAPHY_EXAMPLE
        )
        assert again.tag == "bibliography"

    def test_comment_between_text_keeps_one_chunk(self):
        # A comment does not split the text around it: two adjacent
        # chunks would serialize to one run and reparse as one leaf.
        for text in ("<a>x<!--c-->y<b/></a>", "<a>x <!--c--> y<!--d-->z</a>"):
            tree = parse_to_tree(text)
            assert parse_to_tree(serialize(parse_document(text))) == tree
        assert parse_document("<a>x<!--c-->y<b/></a>").content[0] == "xy"
        assert str(parse_to_tree("<a>x<!--c-->y<b/></a>")) == "a(#text, b)"


class TestDTD:
    def test_figure_2_validates_figure_1(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        tree = parse_to_tree(BIBLIOGRAPHY_EXAMPLE)
        assert dtd.validates(tree)
        assert dtd.violations(tree) == []

    def test_root_defaults_to_first_declaration(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        assert dtd.root == "bibliography"

    def test_missing_required_child_rejected(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        bad = Tree(
            "bibliography",
            [Tree("book", [Tree("title", [Tree("#text")])])],
        )
        assert not dtd.validates(bad)
        assert any("book" in message for _p, message in dtd.violations(bad))

    def test_wrong_root_rejected(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        assert not dtd.validates(Tree("article"))

    def test_empty_and_any(self):
        dtd = parse_dtd(
            "<!ELEMENT r (a, b)> <!ELEMENT a EMPTY> <!ELEMENT b ANY>"
        )
        good = Tree("r", [Tree("a"), Tree("b", [Tree("a"), Tree("a")])])
        assert dtd.validates(good)
        bad = Tree("r", [Tree("a", [Tree("b")]), Tree("b")])
        assert not dtd.validates(bad)

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DTDError):
            parse_dtd("<!ELEMENT a EMPTY> <!ELEMENT a ANY>")

    def test_automaton_agrees_with_diagnostics(self):
        """Tree-automaton validation ⟺ no per-node violations."""
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        samples = [
            parse_to_tree(BIBLIOGRAPHY_EXAMPLE),
            Tree("bibliography", [Tree("article", [
                Tree("author", [Tree("#text")]),
                Tree("title", [Tree("#text")]),
                Tree("journal", [Tree("#text")]),
                Tree("year", [Tree("#text")]),
            ])]),
            Tree("bibliography"),
            Tree("bibliography", [Tree("book")]),
        ]
        for tree in samples:
            assert dtd.validates(tree) == (not dtd.violations(tree)), str(tree)

    def test_generated_bibliographies_validate(self):
        dtd = parse_dtd(BIBLIOGRAPHY_DTD)
        for books, articles in [(1, 0), (0, 1), (3, 2)]:
            tree = parse_to_tree(make_bibliography(books, articles))
            assert dtd.validates(tree)
