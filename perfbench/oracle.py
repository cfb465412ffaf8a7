"""Answer checking that shares no code with the program under test.

Documents are re-parsed with the standard library's expat-based
``xml.etree.ElementTree`` into flat preorder arrays, and every query shape
of ``gen.py`` has a direct reference evaluator over those arrays.  Node
ids are preorder positions, so an ascending id list is document order —
the order ``Document.select`` returns.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

TEXT = "#text"


class RefTree:
    """A Σ-tree as preorder arrays: labels, parents, children, paths."""

    def __init__(self, text: str) -> None:
        self.labels: list[str] = []
        self.parent: list[int] = []
        self.kids: list[list[int]] = []
        self.paths: list[tuple] = []
        root = ET.fromstring(text)
        # Stack items: ("el", element, parent, path) or ("text", parent, path).
        stack: list = [("el", root, -1, ())]
        while stack:
            item = stack.pop()
            node = len(self.labels)
            if item[0] == "text":
                _, parent, path = item
                self._add(TEXT, parent, path)
                continue
            _, element, parent, path = item
            self._add(element.tag, parent, path)
            content: list = []
            if element.text:
                content.append(None)
            for child in element:
                content.append(child)
                if child.tail:
                    content.append(None)
            for index in range(len(content) - 1, -1, -1):
                kid = content[index]
                if kid is None:
                    stack.append(("text", node, path + (index,)))
                else:
                    stack.append(("el", kid, node, path + (index,)))

    def _add(self, label: str, parent: int, path: tuple) -> None:
        node = len(self.labels)
        self.labels.append(label)
        self.parent.append(parent)
        self.kids.append([])
        self.paths.append(path)
        if parent >= 0:
            self.kids[parent].append(node)

    @property
    def size(self) -> int:
        return len(self.labels)

    def answer(self, spec) -> list[tuple]:
        """Document-ordered paths the query ``(template, labels)`` selects."""
        name, labels = spec
        return [self.paths[v] for v in EVALUATORS[name](self, *labels)]


def _has_child(tree: RefTree, label: str) -> list[bool]:
    return [any(tree.labels[k] == label for k in kids) for kids in tree.kids]


def _x_desc(t: RefTree, a):
    return [v for v in range(t.size) if t.labels[v] == a]


def _x_child(t: RefTree, a, b):
    lab, par = t.labels, t.parent
    return [v for v in range(t.size) if lab[v] == b and par[v] >= 0 and lab[par[v]] == a]


def _x_descdesc(t: RefTree, a, b):
    under = [False] * t.size  # has a proper ancestor labeled a
    for v in range(1, t.size):  # preorder: parents come first
        p = t.parent[v]
        under[v] = under[p] or t.labels[p] == a
    return [v for v in range(t.size) if t.labels[v] == b and under[v]]


def _x_has(t: RefTree, a, b):
    has = _has_child(t, b)
    return [v for v in range(t.size) if t.labels[v] == a and has[v]]


def _x_hasnot(t: RefTree, a, b):
    has = _has_child(t, b)
    return [v for v in range(t.size) if t.labels[v] == a and not has[v]]


def _x_parent(t: RefTree, a):
    has = _has_child(t, a)
    return [v for v in range(t.size) if has[v]]


def _x_follow(t: RefTree, a, b):
    chosen = []
    for kids in t.kids:
        seen = False
        for k in kids:
            if seen and t.labels[k] == b:
                chosen.append(k)
            seen = seen or t.labels[k] == a
    return sorted(chosen)


def _x_prec(t: RefTree, a, b):
    chosen = []
    for kids in t.kids:
        seen = False
        for k in reversed(kids):
            if seen and t.labels[k] == b:
                chosen.append(k)
            seen = seen or t.labels[k] == a
    return sorted(chosen)


def _l_desc(t: RefTree, a):
    # Legacy ``//a``: proper descendants of the root.
    return [v for v in range(1, t.size) if t.labels[v] == a]


def _l_child(t: RefTree, a):
    # Legacy ``/a``: children of the root.
    return [v for v in t.kids[0] if t.labels[v] == a]


def _m_leaf(t: RefTree, a):
    return [v for v in range(t.size) if not t.kids[v] and t.labels[v] != a]


def _m_under(t: RefTree, a):
    return [v for v in range(1, t.size) if t.labels[t.parent[v]] == a]


def _m_desc(t: RefTree, a, b):
    below = [False] * t.size  # has a proper descendant labeled b
    for v in range(t.size - 1, 0, -1):  # reverse preorder: children first
        if below[v] or t.labels[v] == b:
            below[t.parent[v]] = True
    return [v for v in range(t.size) if t.labels[v] == a and below[v]]


def _m_first(t: RefTree, a):
    # The root has no siblings, so it is a first sibling too.
    return [
        v for v in range(t.size)
        if t.labels[v] == a and (v == 0 or t.kids[t.parent[v]][0] == v)
    ]


def _m_last(t: RefTree, a):
    return [
        v for v in range(t.size)
        if t.labels[v] == a and (v == 0 or t.kids[t.parent[v]][-1] == v)
    ]


EVALUATORS = {
    "x_desc": _x_desc,
    "x_child": _x_child,
    "x_descdesc": _x_descdesc,
    "x_has": _x_has,
    "x_hasnot": _x_hasnot,
    "x_parent": _x_parent,
    "x_follow": _x_follow,
    "x_prec": _x_prec,
    "l_desc": _l_desc,
    "l_child": _l_child,
    "m_has": _x_parent,
    "m_desc": _m_desc,
    "m_first": _m_first,
    "m_last": _m_last,
    "m_leaf": _m_leaf,
    "m_under": _m_under,
}
