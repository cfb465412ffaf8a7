"""The legacy path-pattern language, rewritten into the XPath AST.

The paper's motivation — *locating subtrees satisfying some pattern* in
structured documents — deserves a front-end.  Patterns select nodes by a
path of steps from the root, with optional filters:

=====================  ==================================================
pattern                meaning
=====================  ==================================================
``/book``              children of the root labeled ``book``
``/book/author``       their ``author`` children
``//author``           all descendants labeled ``author``
``/book//year``        ``year`` descendants of root's ``book`` children
``/*``                 all children of the root
``//*[first]``         every node that is a first sibling
``//book[has(year)]``  ``book`` nodes with a ``year`` child
``//author[leaf]``     ``author`` nodes that are leaves
=====================  ==================================================

Filters: ``first``, ``last`` (sibling position), ``leaf``, ``root``,
``has(name)`` (a child labeled ``name``).  The language has no formula
builder of its own: :func:`parse_pattern` rewrites a pattern into the
:mod:`repro.lang.xpath` step AST — a leading ``child::*`` step for the
(implicit) root element, ``/n`` as a ``child`` step, ``//n`` as a
``descendant`` step, and each filter as the XPath predicate it
abbreviates — and :func:`~repro.lang.xpath.lower_xpath` lowers it, so
legacy patterns and ``xpath:`` queries meet at the same formulas.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from ..lang.errors import QuerySyntaxError
from ..lang.xpath import LocationPath, PredNot, PredPath, Step, lower_xpath
from .query import MSOQuery


class PatternError(QuerySyntaxError):
    """Raised for malformed patterns, located like any query syntax error."""


_STEP = re.compile(r"(//|/)([\w#*-]+)((?:\[[^\]]*\])*)")
_FILTER = re.compile(r"\[([^\]]*)\]")
_HAS = re.compile(r"has\(([\w#*-]+)\)")


def _relative(axis: str, test: str) -> PredPath:
    return PredPath(LocationPath(steps=(Step(axis, test),), absolute=False))


#: Each positional filter is an XPath predicate on the step node.
_FILTERS = {
    "first": PredNot(_relative("preceding-sibling", "*")),
    "last": PredNot(_relative("following-sibling", "*")),
    "leaf": PredNot(_relative("child", "*")),
    "root": PredNot(_relative("parent", "*")),
}


def _filter_predicate(text: str, source: str, offset: int):
    text = text.strip()
    if text in _FILTERS:
        return _FILTERS[text]
    match = _HAS.fullmatch(text)
    if match:
        return _relative("child", match.group(1))
    raise PatternError(f"unknown filter {text!r}", source, offset)


def parse_pattern(pattern: str) -> LocationPath:
    """Rewrite a legacy pattern into an absolute XPath :class:`LocationPath`.

    Names go into :attr:`Step.test` verbatim, so labels the XPath name
    token would reject (Unicode, a leading digit) keep working.

    >>> [(step.axis, step.test) for step in parse_pattern("//a/b").steps]
    [('child', '*'), ('descendant', 'a'), ('child', 'b')]
    """
    lead = len(pattern) - len(pattern.lstrip())
    body = pattern.strip()
    if not body.startswith("/"):
        raise PatternError("patterns must start with '/' or '//'", pattern, lead)
    steps = [Step("child", "*")]
    position = 0
    while position < len(body):
        match = _STEP.match(body, position)
        if match is None:
            raise PatternError(
                f"cannot parse step at {body[position:]!r}", pattern, lead + position
            )
        axis, name, _ = match.groups()
        predicates = tuple(
            _filter_predicate(found.group(1), pattern, lead + found.start(1))
            for found in _FILTER.finditer(body, match.start(3), match.end(3))
        )
        steps.append(
            Step(
                "child" if axis == "/" else "descendant",
                name,
                predicates,
                offset=lead + position,
            )
        )
        position = match.end()
    return LocationPath(steps=tuple(steps))


def compile_pattern(pattern: str, alphabet: Sequence[str]) -> MSOQuery:
    """Compile a pattern into an :class:`~repro.core.query.MSOQuery`.

    >>> from repro.trees.tree import Tree
    >>> q = compile_pattern("//b[leaf]", ["a", "b"])
    >>> sorted(q.evaluate(Tree.parse("a(b, a(b), b(a))")))
    [(0,), (1, 0)]
    """
    formula, var = lower_xpath(parse_pattern(pattern), alphabet)
    return MSOQuery(formula, var, tuple(alphabet))
