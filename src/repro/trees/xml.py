"""A small XML parser and serializer mapping documents to Σ-trees.

The paper's motivating setting (Figures 1, 3, 4): XML documents are
abstracted as unranked labeled ordered trees.  We implement the abstraction
directly — a deliberately small parser for the element-and-text fragment of
XML that the paper's examples use (no attributes-with-namespaces, CDATA, or
processing instructions; attributes are parsed and preserved but do not
enter the tree abstraction, matching the paper).

Two abstraction levels are offered, mirroring Figures 3 and 4:

* :func:`to_tree` — element nodes become internal nodes labeled by their tag
  and text content becomes ``#text`` leaves (Figure 3's shape, where PCDATA
  is a child).
* :func:`to_structure_tree` — text is dropped entirely, leaving the pure
  element structure (Figure 4's shape, the input to DTD validation).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .tree import Tree

#: Label given to text leaves in the full abstraction.
TEXT_LABEL = "#text"


class XMLError(ValueError):
    """Raised on malformed documents."""


@dataclass
class XMLElement:
    """A parsed XML element: tag, attributes, and ordered content."""

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    content: list["XMLElement | str"] = field(default_factory=list)

    def texts(self) -> list[str]:
        """All directly contained text chunks, in order."""
        return [item for item in self.content if isinstance(item, str)]

    def elements(self) -> list["XMLElement"]:
        """All directly contained child elements, in order."""
        return [item for item in self.content if isinstance(item, XMLElement)]


class _Parser:
    """Recursive-descent parser over the document string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> XMLError:
        return XMLError(f"{message} at offset {self.pos}")

    def peek(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def expect(self, token: str) -> None:
        if not self.peek(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def skip_whitespace(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def skip_misc(self) -> None:
        """Skip whitespace, comments, XML declarations and DOCTYPE."""
        while True:
            self.skip_whitespace()
            if self.peek("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            elif self.peek("<?"):
                end = self.text.find("?>", self.pos)
                if end < 0:
                    raise self.error("unterminated processing instruction")
                self.pos = end + 2
            elif self.peek("<!DOCTYPE"):
                end = self.text.find(">", self.pos)
                if end < 0:
                    raise self.error("unterminated DOCTYPE")
                self.pos = end + 1
            else:
                return

    def parse_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_-.:"
        ):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def parse_attributes(self) -> dict[str, str]:
        attributes: dict[str, str] = {}
        while True:
            self.skip_whitespace()
            if self.pos >= len(self.text) or self.text[self.pos] in "/>":
                return attributes
            name = self.parse_name()
            self.skip_whitespace()
            self.expect("=")
            self.skip_whitespace()
            quote = self.text[self.pos : self.pos + 1]
            if quote not in ("'", '"'):
                raise self.error("expected a quoted attribute value")
            self.pos += 1
            end = self.text.find(quote, self.pos)
            if end < 0:
                raise self.error("unterminated attribute value")
            attributes[name] = _unescape(self.text[self.pos : end])
            self.pos = end + 1

    def parse_element(self) -> XMLElement:
        self.expect("<")
        tag = self.parse_name()
        attributes = self.parse_attributes()
        self.skip_whitespace()
        if self.peek("/>"):
            self.pos += 2
            return XMLElement(tag, attributes)
        self.expect(">")
        element = XMLElement(tag, attributes)
        text: list[str] = []  # since the last tag: "x<!--c-->y" is one chunk
        while True:
            if self.peek("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
                continue
            if self.peek("<"):
                if text:
                    chunk = "".join(text).strip()
                    if chunk:
                        element.content.append(chunk)
                    text = []
                if not self.peek("</"):
                    element.content.append(self.parse_element())
                    continue
                self.pos += 2
                closing = self.parse_name()
                if closing != tag:
                    raise self.error(f"mismatched closing tag {closing!r} for {tag!r}")
                self.skip_whitespace()
                self.expect(">")
                return element
            end = self.text.find("<", self.pos)
            if end < 0:
                raise self.error(f"unterminated element {tag!r}")
            text.append(_unescape(self.text[self.pos : end]))
            self.pos = end


def _unescape(text: str) -> str:
    for entity, char in (
        ("&lt;", "<"),
        ("&gt;", ">"),
        ("&quot;", '"'),
        ("&apos;", "'"),
        ("&amp;", "&"),
    ):
        text = text.replace(entity, char)
    return text


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def parse_document(text: str) -> XMLElement:
    """Parse an XML document string into its root :class:`XMLElement`."""
    parser = _Parser(text)
    parser.skip_misc()
    element = parser.parse_element()
    parser.skip_misc()
    if parser.pos != len(parser.text):
        raise parser.error("trailing content after the root element")
    return element


def to_tree(element: XMLElement) -> Tree:
    """Abstract an element as a Σ-tree keeping text as ``#text`` leaves."""
    children: list[Tree] = []
    for item in element.content:
        if isinstance(item, XMLElement):
            children.append(to_tree(item))
        else:
            children.append(Tree(TEXT_LABEL))
    return Tree(element.tag, children)


def to_structure_tree(element: XMLElement) -> Tree:
    """Abstract an element keeping only element structure (Figure 4)."""
    return Tree(
        element.tag, [to_structure_tree(child) for child in element.elements()]
    )


def parse_to_tree(text: str) -> Tree:
    """Parse a document and abstract it in one step (text kept)."""
    return to_tree(parse_document(text))


def parse_to_structure_tree(text: str) -> Tree:
    """Parse a document and abstract it in one step (text dropped)."""
    return to_structure_tree(parse_document(text))


def from_etree(element) -> XMLElement:
    """Convert an :mod:`xml.etree.ElementTree` element to :class:`XMLElement`.

    Mirrors the hand parser's text handling — chunks are stripped and
    whitespace-only chunks dropped — so a document ingested through
    ``ElementTree`` abstracts to the same Σ-tree as one parsed by
    :func:`parse_document`.
    """
    converted = XMLElement(element.tag, dict(element.attrib))
    if element.text and element.text.strip():
        converted.content.append(element.text.strip())
    for child in element:
        converted.content.append(from_etree(child))
        if child.tail and child.tail.strip():
            converted.content.append(child.tail.strip())
    return converted


def iter_corpus(source) -> Iterator[XMLElement]:
    """Stream the documents of a corpus file, one at a time.

    A *corpus file* is an XML file whose root element's children are the
    individual documents.  Parsing uses ``ElementTree.iterparse``, and
    each document element is cleared as soon as it has been yielded —
    million-node corpora never materialize in memory.  ``source`` is a
    filename or a binary file object.
    """
    import xml.etree.ElementTree as ElementTree

    depth = 0
    for event, element in ElementTree.iterparse(source, events=("start", "end")):
        if event == "start":
            depth += 1
        else:
            depth -= 1
            if depth == 1:
                yield from_etree(element)
                element.clear()


def serialize(element: XMLElement, indent: int = 0) -> str:
    """Render an :class:`XMLElement` back to XML text (pretty-printed)."""
    pad = "  " * indent
    attrs = "".join(
        f' {name}="{_escape(value)}"' for name, value in element.attributes.items()
    )
    if not element.content:
        return f"{pad}<{element.tag}{attrs}/>"
    if all(isinstance(item, str) for item in element.content):
        inner = " ".join(_escape(item) for item in element.content if isinstance(item, str))
        return f"{pad}<{element.tag}{attrs}>{inner}</{element.tag}>"
    lines = [f"{pad}<{element.tag}{attrs}>"]
    for item in element.content:
        if isinstance(item, XMLElement):
            lines.append(serialize(item, indent + 1))
        else:
            lines.append("  " * (indent + 1) + _escape(item))
    lines.append(f"{pad}</{element.tag}>")
    return "\n".join(lines)


#: The Figure 1 bibliography document, verbatim content.
BIBLIOGRAPHY_EXAMPLE = """\
<bibliography>
  <book>
    <author>S. Abiteboul</author>
    <author>R. Hull</author>
    <author>V. Vianu</author>
    <title>Foundations of Databases</title>
    <publisher>Addison-Wesley</publisher>
    <year>1995</year>
  </book>
  <article>
    <author>E. Codd</author>
    <title>A Relational Model of Data for Large Shared Data Banks</title>
    <journal>Communications of the ACM</journal>
    <year>1970</year>
  </article>
</bibliography>
"""


def make_bibliography(num_books: int, num_articles: int) -> str:
    """Generate a larger Figure 1-shaped document for scaling benchmarks."""
    parts = ["<bibliography>"]
    for i in range(num_books):
        parts.append(
            f"<book><author>A{i}</author><author>B{i}</author>"
            f"<title>T{i}</title><publisher>P{i % 7}</publisher>"
            f"<year>{1970 + i % 50}</year></book>"
        )
    for i in range(num_articles):
        parts.append(
            f"<article><author>C{i}</author><title>U{i}</title>"
            f"<journal>J{i % 5}</journal><year>{1970 + i % 50}</year></article>"
        )
    parts.append("</bibliography>")
    return "".join(parts)
