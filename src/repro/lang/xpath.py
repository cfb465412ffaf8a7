"""An XPath fragment compiled to the paper's MSO queries.

The practical core of XPath 1.0 over the label-only tree abstraction of
this library (no attributes, no text functions, no positions): location
paths built from seven axes — ``child``, ``descendant``, ``self``,
``parent``, ``ancestor``, ``following-sibling``, ``preceding-sibling`` —
with the abbreviated forms ``/`` (child), ``//`` (descendant), ``.``
(self), ``..`` (parent); label and ``*`` node tests; and bracketed
predicates combining relative paths (existence tests) with ``and`` /
``or`` / ``not(...)``.

The pipeline is tokenize → parse (:func:`parse_xpath`, producing the
small :class:`Step` AST) → lower (:func:`lower_xpath`, producing a
:mod:`repro.logic.syntax` formula φ(x) with ``x`` the selected node) →
compile (:func:`xpath_query`, through the Theorem 5.4 machinery of
:func:`repro.logic.compile_trees.compile_tree_query` with its
minimization and compile cache).  The axis↔logic correspondence follows
the FO/MSO translations surveyed by Libkin (*Logics for Unranked Trees*,
§XPath): ``child`` is the edge relation ``E``, ``descendant`` the
transitive closure (the constant-size :class:`Descendant` atom here),
and the sibling axes are the sibling order ``<``.  The grammar, the full
lowering table, and the supported-vs-unsupported feature matrix live in
``docs/QUERY_LANGUAGE.md``.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from .. import obs
from ..logic.syntax import (
    And,
    Descendant,
    Edge,
    Equal,
    Exists,
    Formula,
    Label,
    Less,
    Not,
    Or,
    Var,
    false_formula,
    fresh_var,
    root,
    true_formula,
)
from .errors import QuerySyntaxError
from .tokens import EOF, TokenStream

__all__ = [
    "AXES",
    "LocationPath",
    "PredAnd",
    "PredNot",
    "PredOr",
    "PredPath",
    "Step",
    "lower_xpath",
    "parse_xpath",
    "xpath_query",
]

#: The supported axes, in the order error messages list them.
AXES = (
    "child",
    "descendant",
    "self",
    "parent",
    "ancestor",
    "following-sibling",
    "preceding-sibling",
)

_SPEC = [
    ("dslash", re.compile(r"//")),
    ("slash", re.compile(r"/")),
    ("axis", re.compile(r"::")),
    ("lbracket", re.compile(r"\[")),
    ("rbracket", re.compile(r"\]")),
    ("lparen", re.compile(r"\(")),
    ("rparen", re.compile(r"\)")),
    ("dotdot", re.compile(r"\.\.")),
    ("dot", re.compile(r"\.")),
    ("star", re.compile(r"\*")),
    ("name", re.compile(r"[A-Za-z_#][A-Za-z0-9_#-]*")),
]


# ----------------------------------------------------------------------
# The parsed AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One location step: an axis, a node test, and its predicates."""

    axis: str
    test: str  # a label, or "*" for any label
    predicates: tuple = ()
    offset: int = 0


@dataclass(frozen=True)
class LocationPath:
    """A sequence of steps; top-level query paths are absolute (rooted)."""

    steps: tuple[Step, ...]
    absolute: bool = True


@dataclass(frozen=True)
class PredPath:
    """A relative path used as an existence predicate."""

    path: LocationPath


@dataclass(frozen=True)
class PredNot:
    """``not(expr)``."""

    inner: object


@dataclass(frozen=True)
class PredAnd:
    """``left and right``."""

    left: object
    right: object


@dataclass(frozen=True)
class PredOr:
    """``left or right``."""

    left: object
    right: object


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class _XPathParser:
    """Recursive descent over the grammar in ``docs/QUERY_LANGUAGE.md``."""

    def __init__(self, source: str) -> None:
        self.stream = TokenStream(source, _SPEC)

    def parse(self) -> LocationPath:
        stream = self.stream
        if stream.peek(EOF):
            stream.error("empty query")
        if not (stream.peek("slash") or stream.peek("dslash")):
            stream.error("query paths must start with '/' or '//'")
        if stream.peek("slash") and stream.tokens[stream.index + 1].kind == EOF:
            stream.advance()
            return LocationPath(steps=())  # "/" alone selects the root
        steps = self._steps(absolute=True)
        if not stream.peek(EOF):
            stream.error(f"unexpected {stream.current.describe()}")
        return LocationPath(steps=tuple(steps))

    def _steps(self, absolute: bool) -> list[Step]:
        """``("/" | "//") step`` repetitions; the leading separator of an
        absolute path has already been checked to exist by the caller."""
        stream = self.stream
        steps = [self._separated_step()]
        while stream.peek("slash") or stream.peek("dslash"):
            steps.append(self._separated_step())
        return steps

    def _separated_step(self) -> Step:
        stream = self.stream
        if stream.take("dslash"):
            return self._step(default_axis="descendant", after_dslash=True)
        stream.expect("slash", "'/'")
        return self._step(default_axis="child", after_dslash=False)

    def _step(self, default_axis: str, after_dslash: bool) -> Step:
        stream = self.stream
        offset = stream.current.offset
        if stream.take("dot"):
            axis, test = "self", "*"
        elif stream.take("dotdot"):
            axis, test = "parent", "*"
        elif stream.peek("name") and stream.tokens[stream.index + 1].kind == "axis":
            name = stream.advance()
            if name.text not in AXES:
                stream.error(
                    f"unknown axis {name.text!r} (axes: {', '.join(AXES)})",
                    offset=name.offset,
                )
            if after_dslash:
                stream.error(
                    "an explicit axis after '//' is unsupported; write "
                    f"'/descendant::*/{name.text}::...' instead",
                    offset=name.offset,
                )
            stream.advance()  # the '::'
            axis = name.text
            test = self._node_test()
        elif stream.peek("name") or stream.peek("star"):
            axis = default_axis
            test = self._node_test()
        else:
            stream.error(f"expected a step, found {stream.current.describe()}")
        predicates = []
        while stream.peek("lbracket"):
            predicates.append(self._predicate())
        return Step(axis=axis, test=test, predicates=tuple(predicates), offset=offset)

    def _node_test(self) -> str:
        stream = self.stream
        if stream.take("star"):
            return "*"
        return stream.expect("name", "a label or '*'").text

    def _predicate(self):
        stream = self.stream
        stream.enter()
        opening = stream.expect("lbracket", "'['")
        if stream.peek("rbracket"):
            stream.error("empty predicate")
        expr = self._or_expr()
        if not stream.peek("rbracket"):
            stream.error(
                f"unbalanced '[': expected ']', found {stream.current.describe()}",
                offset=opening.offset if stream.peek(EOF) else None,
            )
        stream.advance()
        stream.leave()
        return expr

    def _or_expr(self):
        left = self._and_expr()
        while self.stream.take("name", "or"):
            left = PredOr(left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self.stream.take("name", "and"):
            left = PredAnd(left, self._not_expr())
        return left

    def _not_expr(self):
        stream = self.stream
        # "not" is only the boolean function when followed by '(' — as a
        # bare name it is an ordinary label test ("labels may collide
        # with keywords").
        if stream.peek("name", "not") and stream.tokens[stream.index + 1].kind == "lparen":
            stream.advance()
            opening = stream.expect("lparen", "'('")
            stream.enter()
            inner = self._or_expr()
            if not stream.peek("rparen"):
                stream.error(
                    f"unbalanced '(': expected ')', found {stream.current.describe()}",
                    offset=opening.offset if stream.peek(EOF) else None,
                )
            stream.advance()
            stream.leave()
            return PredNot(inner)
        if stream.peek("lparen"):
            opening = stream.advance()
            stream.enter()
            inner = self._or_expr()
            if not stream.peek("rparen"):
                stream.error(
                    f"unbalanced '(': expected ')', found {stream.current.describe()}",
                    offset=opening.offset if stream.peek(EOF) else None,
                )
            stream.advance()
            stream.leave()
            return inner
        return PredPath(self._relative_path())

    def _relative_path(self) -> LocationPath:
        stream = self.stream
        if stream.peek("slash") or stream.peek("dslash"):
            stream.error("absolute paths are not allowed inside predicates")
        steps = [self._step(default_axis="child", after_dslash=False)]
        while stream.peek("slash") or stream.peek("dslash"):
            steps.append(self._separated_step())
        return LocationPath(steps=tuple(steps), absolute=False)


def parse_xpath(source: str) -> LocationPath:
    """Parse a query string of the XPath fragment into its step AST.

    Raises :class:`~repro.lang.errors.QuerySyntaxError` (with the exact
    character offset) on any malformed input, including empty or
    whitespace-only queries.
    """
    path = _XPathParser(source).parse()
    obs.SINK.incr("lang.xpath_parses")
    return path


# ----------------------------------------------------------------------
# Lowering to logic.syntax
# ----------------------------------------------------------------------


def _label_test(var: Var, test: str, alphabet: Sequence[str]) -> Formula | None:
    """The node-test conjunct, or None for ``*`` (no constraint)."""
    if test == "*":
        return None
    return Label(var, test)


def _conjoin(*parts: Formula | None) -> Formula | None:
    """And-fold, skipping absent conjuncts."""
    out: Formula | None = None
    for part in parts:
        if part is None:
            continue
        out = part if out is None else And(out, part)
    return out


def _link(axis: str, context: Var, node: Var) -> Formula:
    """The axis relation between a context node and the step node."""
    if axis == "child":
        return Edge(context, node)
    if axis == "descendant":
        return Descendant(context, node)
    if axis == "parent":
        return Edge(node, context)
    if axis == "ancestor":
        return Descendant(node, context)
    if axis == "following-sibling":
        return Less(context, node)
    if axis == "preceding-sibling":
        return Less(node, context)
    raise AssertionError(f"unlowerable axis {axis!r}")


def _normalize(steps: Sequence[Step]):
    """Fold ``self``-axis steps into constraints on their neighbor node.

    Returns ``(context_constraints, chain)`` where each constraint is a
    ``(test, predicates)`` pair on the *context* node (produced by
    leading ``self`` steps) and ``chain`` is a list of
    ``(axis, [constraints])`` entries with no ``self`` axes left.
    """
    context_constraints: list[tuple[str, tuple]] = []
    chain: list[tuple[str, list[tuple[str, tuple]]]] = []
    for step in steps:
        constraint = (step.test, step.predicates)
        if step.axis == "self":
            if chain:
                chain[-1][1].append(constraint)
            else:
                context_constraints.append(constraint)
        else:
            chain.append((step.axis, [constraint]))
    return context_constraints, chain


def _constraints_formula(
    var: Var, constraints: Sequence[tuple[str, tuple]], alphabet: Sequence[str]
) -> Formula | None:
    parts: list[Formula | None] = []
    for test, predicates in constraints:
        parts.append(_label_test(var, test, alphabet))
        for predicate in predicates:
            parts.append(_predicate_formula(var, predicate, alphabet))
    return _conjoin(*parts)


def _predicate_formula(
    var: Var, predicate, alphabet: Sequence[str]
) -> Formula | None:
    if isinstance(predicate, PredOr):
        left = _predicate_formula(var, predicate.left, alphabet)
        right = _predicate_formula(var, predicate.right, alphabet)
        if left is None or right is None:
            return None  # a vacuously true disjunct absorbs the whole Or
        return Or(left, right)
    if isinstance(predicate, PredAnd):
        return _conjoin(
            _predicate_formula(var, predicate.left, alphabet),
            _predicate_formula(var, predicate.right, alphabet),
        )
    if isinstance(predicate, PredNot):
        inner = _predicate_formula(var, predicate.inner, alphabet)
        return Not(true_formula() if inner is None else inner)
    if isinstance(predicate, PredPath):
        context_constraints, chain = _normalize(predicate.path.steps)
        return _conjoin(
            _constraints_formula(var, context_constraints, alphabet),
            _chain_formula(chain, var, None, alphabet),
        )
    raise AssertionError(f"unlowerable predicate {predicate!r}")


def _chain_formula(
    chain, context: Var, select: Var | None, alphabet: Sequence[str]
) -> Formula | None:
    """Formula for following ``chain`` from ``context``.

    With ``select`` given, the final node is bound to it (left free);
    otherwise the whole chain is existentially closed (predicate use).
    Built back-to-front so every intermediate node gets one ∃.
    """
    if not chain:
        return None
    formula: Formula | None = None
    current = select if select is not None else fresh_var("n")
    for index in range(len(chain) - 1, -1, -1):
        axis, constraints = chain[index]
        parent = context if index == 0 else fresh_var("s")
        formula = _conjoin(
            _link(axis, parent, current),
            _constraints_formula(current, constraints, alphabet),
            formula,
        )
        if current is not select:
            formula = Exists(current, formula)
        current = parent
    return formula


def _formula_size(formula: Formula) -> int:
    """Node count of a lowered formula (for the ``lang.lowered_nodes`` counter)."""
    count = 1
    for name in ("inner", "left", "right"):
        child = getattr(formula, name, None)
        if isinstance(child, Formula):
            count += _formula_size(child)
    return count


def lower_xpath(
    path: LocationPath, alphabet: Sequence[str]
) -> tuple[Formula, Var]:
    """Lower a parsed path to an MSO formula φ(x); returns ``(φ, x)``.

    ``x`` is free in φ and ranges over the selected nodes; every other
    step node is existentially quantified.  ``descendant`` lowers to the
    constant-size :class:`~repro.logic.syntax.Descendant` atom rather
    than its MSO set-quantifier definition, so ``//`` stays cheap to
    compile.

    Absolute paths follow XPath's document-root semantics, with the
    tree root standing in for the document node: ``/`` and a leading
    ``.`` denote the root element, ``/a`` selects the root element when
    it is labeled ``a``, and ``//a`` selects *every* node labeled ``a``
    (the root included).  A first step on the ``parent``, ``ancestor``,
    or sibling axes selects nothing — the document root has neither.
    """
    x = Var("x")
    context_constraints, chain = _normalize(path.steps)
    if context_constraints or not chain:
        # "/", or a path led by self steps: the context is the root
        # element, and the chain walks down from it.
        root_var = x if not chain else fresh_var("r")
        formula = _conjoin(
            root(root_var),
            _constraints_formula(root_var, context_constraints, alphabet),
            _chain_formula(chain, root_var, x, alphabet),
        )
        assert formula is not None  # root() is always a conjunct
        if root_var is not x:
            formula = Exists(root_var, formula)
    else:
        # The first step is taken from the virtual document root:
        # child:: pins its node to the root element, descendant:: (the
        # usual "//" lead) reaches every node, and the remaining axes
        # have nowhere to go.
        first_axis, first_constraints = chain[0]
        rest = chain[1:]
        if first_axis in ("child", "descendant"):
            node = x if not rest else fresh_var("r")
            anchor = root(node) if first_axis == "child" else None
            formula = _conjoin(
                anchor,
                _constraints_formula(node, first_constraints, alphabet),
                _chain_formula(rest, node, x, alphabet),
            )
            if formula is None:  # "//*": every node
                formula = Equal(x, x)
            elif node is not x:
                formula = Exists(node, formula)
        else:
            formula = And(false_formula(), Equal(x, x))
    sink = obs.SINK
    if sink.enabled:
        sink.incr("lang.lowered_nodes", _formula_size(formula))
    return formula, x


def xpath_query(source: str, alphabet: Sequence[str]):
    """Compile an XPath query string into an :class:`~repro.core.query.MSOQuery`.

    The formula compiles through
    :func:`repro.logic.compile_trees.compile_tree_query` on first
    evaluation — per-connective minimization, the hash-consed compile
    cache, and ``engine={naive,table,numpy}`` selection at evaluation
    time all apply exactly as for hand-assembled formulas.

    >>> from repro.trees.tree import Tree
    >>> q = xpath_query("//b[not(c)]", ["a", "b", "c"])
    >>> sorted(q.evaluate(Tree.parse("a(b(c), a(b), b)")))
    [(1, 0), (2,)]
    """
    from ..core.query import MSOQuery

    formula, var = lower_xpath(parse_xpath(source), alphabet)
    return MSOQuery(formula, var, tuple(alphabet))
