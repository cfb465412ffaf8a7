"""A text syntax for the paper's MSO/FO formulas over trees.

The surface maps one-to-one onto :mod:`repro.logic.syntax` (§2.3 of the
paper): lowercase names are first-order node variables, uppercase names
are set variables, ``lab_a(x)`` is the label predicate ``O_a(x)``,
``child(x, y)`` the edge relation ``E``, ``<`` the sibling order, and
``exists`` / ``forall`` quantify either kind of variable depending on
the case of the name that follows.  Connectives are ``!`` (not), ``&``
(and), ``|`` (or), ``->`` (implies, right-associative), with the usual
precedence ``!`` > ``&`` > ``|`` > ``->``; a quantifier's scope extends
as far right as possible after its ``.``.  The derived predicates the
paper uses — ``root``, ``leaf``, ``first``, ``last``,
``next_sibling`` — are built in and expand exactly like their
:mod:`repro.logic.syntax` helper counterparts.

Example — "every ``b`` node has an ``a`` ancestor"::

    forall y. lab_b(y) -> exists z. lab_a(z) & desc(z, y)

:func:`parse_mso` returns the formula; :func:`parse_mso_query`
additionally checks that exactly one node variable is free (the selected
node) and returns ``(formula, var)``; :func:`mso_query` compiles that
into an :class:`~repro.core.query.MSOQuery`.  The grammar's EBNF lives
in ``docs/QUERY_LANGUAGE.md``.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

from .. import obs
from ..logic.syntax import (
    And,
    Descendant,
    Edge,
    Equal,
    Exists,
    ExistsSet,
    Forall,
    ForallSet,
    Formula,
    Implies,
    Label,
    Less,
    Member,
    Not,
    Or,
    SetVar,
    Var,
    false_formula,
    first_sibling,
    last_sibling,
    leaf,
    next_sibling,
    root,
    true_formula,
)
from .errors import QuerySyntaxError
from .tokens import EOF, TokenStream
from .xpath import _formula_size

__all__ = ["mso_query", "parse_mso", "parse_mso_query"]

_SPEC = [
    ("arrow", re.compile(r"->")),
    ("neq", re.compile(r"!=")),
    ("bang", re.compile(r"!")),
    ("amp", re.compile(r"&")),
    ("pipe", re.compile(r"\|")),
    ("lparen", re.compile(r"\(")),
    ("rparen", re.compile(r"\)")),
    ("comma", re.compile(r",")),
    ("dot", re.compile(r"\.")),
    ("lt", re.compile(r"<")),
    ("eq", re.compile(r"=")),
    ("name", re.compile(r"[A-Za-z_][A-Za-z0-9_]*")),
]

#: Names that can never be variables.
KEYWORDS = frozenset({"exists", "forall", "in", "true", "false"})

#: Built-in predicates of one node variable (beyond ``lab_σ``).
_UNARY = ("root", "leaf", "first", "last")

#: Built-in predicates of two node variables.
_BINARY = ("child", "desc", "next_sibling")


def _is_set_name(name: str) -> bool:
    """Uppercase first letter ⇒ a set variable, per the paper's convention."""
    return name[0].isupper()


class _MSOParser:
    """Recursive descent with precedence ``-> < | < & < !``; quantifier
    bodies extend maximally right after the ``.``."""

    def __init__(self, source: str) -> None:
        self.stream = TokenStream(source, _SPEC)
        #: First occurrence offset of every variable name, for locating
        #: free-variable errors after parsing.
        self.first_seen: dict[str, int] = {}

    def parse(self) -> Formula:
        stream = self.stream
        if stream.peek(EOF):
            stream.error("empty query")
        formula = self._implies()
        if not stream.peek(EOF):
            stream.error(f"unexpected {stream.current.describe()}")
        return formula

    # -- connectives, loosest first ---------------------------------------

    def _implies(self) -> Formula:
        left = self._or()
        if self.stream.take("arrow"):
            return Implies(left, self._implies())
        return left

    def _or(self) -> Formula:
        left = self._and()
        while self.stream.take("pipe"):
            left = Or(left, self._and())
        return left

    def _and(self) -> Formula:
        left = self._unary()
        while self.stream.take("amp"):
            left = And(left, self._unary())
        return left

    def _unary(self) -> Formula:
        stream = self.stream
        if stream.take("bang"):
            stream.enter()
            inner = self._unary()
            stream.leave()
            return Not(inner)
        if stream.peek("name", "exists") or stream.peek("name", "forall"):
            return self._quantifier()
        if stream.peek("lparen"):
            opening = stream.advance()
            stream.enter()
            inner = self._implies()
            if not stream.peek("rparen"):
                stream.error(
                    f"unbalanced '(': expected ')', found {stream.current.describe()}",
                    offset=opening.offset if stream.peek(EOF) else None,
                )
            stream.advance()
            stream.leave()
            return inner
        return self._atom()

    def _quantifier(self) -> Formula:
        stream = self.stream
        word = stream.advance()  # "exists" or "forall"
        name = stream.expect("name", "a variable name")
        if name.text in KEYWORDS:
            stream.error(
                f"{name.text!r} is a keyword, not a variable name",
                offset=name.offset,
            )
        stream.expect("dot", "'.' after the quantified variable")
        stream.enter()
        body = self._implies()  # maximal right scope
        stream.leave()
        if _is_set_name(name.text):
            ctor = ExistsSet if word.text == "exists" else ForallSet
            return ctor(SetVar(name.text), body)
        ctor = Exists if word.text == "exists" else Forall
        return ctor(Var(name.text), body)

    # -- atoms -------------------------------------------------------------

    def _atom(self) -> Formula:
        stream = self.stream
        name = stream.expect("name", "an atom")
        if name.text == "true":
            return true_formula()
        if name.text == "false":
            return false_formula()
        if stream.peek("lparen"):
            return self._predicate(name)
        return self._relation(name)

    def _predicate(self, name) -> Formula:
        stream = self.stream
        stream.advance()  # the '('
        if name.text.startswith("lab_"):
            label = name.text[len("lab_") :]
            if not label:
                stream.error("'lab_' needs a label, e.g. lab_a(x)", offset=name.offset)
            arg = self._node_var()
            stream.expect("rparen", "')'")
            return Label(arg, label)
        if name.text in _UNARY:
            arg = self._node_var()
            stream.expect("rparen", "')'")
            builder = {
                "root": root,
                "leaf": leaf,
                "first": first_sibling,
                "last": last_sibling,
            }[name.text]
            return builder(arg)
        if name.text in _BINARY:
            left = self._node_var()
            stream.expect("comma", "','")
            right = self._node_var()
            stream.expect("rparen", "')'")
            if name.text == "child":
                return Edge(left, right)
            if name.text == "desc":
                return Descendant(left, right)
            return next_sibling(left, right)
        stream.error(
            f"unknown predicate {name.text!r} (predicates: lab_<label>, "
            f"{', '.join(_UNARY + _BINARY)})",
            offset=name.offset,
        )

    def _relation(self, name) -> Formula:
        """``x = y``, ``x != y``, ``x < y``, or ``x in X``."""
        stream = self.stream
        left = self._as_node_var(name)
        if stream.take("eq"):
            return Equal(left, self._node_var())
        if stream.take("neq"):
            return Not(Equal(left, self._node_var()))
        if stream.take("lt"):
            return Less(left, self._node_var())
        if stream.take("name", "in"):
            member = stream.expect("name", "a set variable")
            if not _is_set_name(member.text):
                stream.error(
                    f"{member.text!r} is not a set variable (set variables "
                    "start with an uppercase letter)",
                    offset=member.offset,
                )
            self.first_seen.setdefault(member.text, member.offset)
            return Member(left, SetVar(member.text))
        stream.error(
            f"expected a relation ('=', '!=', '<', 'in') after {name.text!r}"
        )

    def _node_var(self) -> Var:
        token = self.stream.expect("name", "a node variable")
        return self._as_node_var(token)

    def _as_node_var(self, token) -> Var:
        if token.text in KEYWORDS:
            self.stream.error(
                f"{token.text!r} is a keyword, not a variable name",
                offset=token.offset,
            )
        if _is_set_name(token.text):
            self.stream.error(
                f"{token.text!r} is a set variable; a node variable "
                "(lowercase) is required here",
                offset=token.offset,
            )
        self.first_seen.setdefault(token.text, token.offset)
        return Var(token.text)


def parse_mso(source: str) -> Formula:
    """Parse an MSO surface-syntax string into a :class:`Formula`.

    Raises :class:`~repro.lang.errors.QuerySyntaxError` with the exact
    character offset on malformed input.
    """
    formula = _MSOParser(source).parse()
    obs.SINK.incr("lang.mso_parses")
    return formula


def parse_mso_query(source: str) -> tuple[Formula, Var]:
    """Parse a *unary query*: a formula with exactly one free node variable.

    Returns ``(formula, var)`` where ``var`` is the selected-node
    variable.  Sentences (no free variables), formulas with several free
    node variables, and formulas with free set variables all raise a
    located :class:`~repro.lang.errors.QuerySyntaxError` — a unary query
    φ(x) is what the paper's query automata compute (§5).
    """
    parser = _MSOParser(source)
    formula = parser.parse()
    obs.SINK.incr("lang.mso_parses")
    free_sets = formula.free_set_vars()
    if free_sets:
        worst = min(free_sets, key=lambda s: parser.first_seen.get(s.name, 0))
        raise QuerySyntaxError(
            f"free set variable {worst.name!r}: quantify it with "
            "'exists {0}.' or 'forall {0}.'".format(worst.name),
            source,
            parser.first_seen.get(worst.name, 0),
        )
    free = formula.free_vars()
    if len(free) != 1:
        if not free:
            raise QuerySyntaxError(
                "a query needs exactly one free node variable (the selected "
                "node); this formula is a sentence with none",
                source,
                0,
            )
        names = sorted(v.name for v in free)
        second = names[1]
        raise QuerySyntaxError(
            f"a query needs exactly one free node variable, found "
            f"{len(names)}: {', '.join(names)}",
            source,
            parser.first_seen.get(second, 0),
        )
    (var,) = free
    sink = obs.SINK
    if sink.enabled:
        sink.incr("lang.lowered_nodes", _formula_size(formula))
    return formula, var


def mso_query(source: str, alphabet: Sequence[str]):
    """Compile an MSO query string into an :class:`~repro.core.query.MSOQuery`.

    >>> from repro.trees.tree import Tree
    >>> q = mso_query("lab_b(x) & !exists y. child(x, y)", ["a", "b"])
    >>> sorted(q.evaluate(Tree.parse("a(b(a), b)")))
    [(1,)]
    """
    from ..core.query import MSOQuery

    formula, var = parse_mso_query(source)
    return MSOQuery(formula, var, tuple(alphabet))
