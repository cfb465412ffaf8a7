"""Query-string frontend: XPath and MSO surface syntaxes.

This package turns strings into the compiled unary MSO queries the rest
of the library evaluates, in four stages shared by every syntax::

    tokenize ─→ parse ─→ lower ─→ compile
    (tokens)   (xpath/mso)  (logic.syntax)  (compile_trees / mso_to_sqa)

Three surface syntaxes are dispatched by prefix in one place,
:func:`lower_query_string`, behind both :func:`compile_query_string`
(``Document.select`` / ``Corpus.select``) and :func:`compile_query_sqa`:

* ``"xpath:..."`` — the XPath fragment of :mod:`repro.lang.xpath`
  (axes, ``//``, predicates with ``and``/``or``/``not()``).
* ``"mso:..."`` — the MSO formula syntax of :mod:`repro.lang.mso`
  (quantifiers, set variables, ``lab_a(x)``, ``child``/``desc``).
* anything else — the legacy path-pattern language of
  :mod:`repro.core.patterns`, which parses into the XPath step AST
  (``/book`` is ``xpath:/*/book``) and lowers through
  :func:`lower_xpath`.

All three meet at a formula φ(x), so the compile cache, minimization,
and every evaluation engine apply identically.  Errors raise
:class:`QuerySyntaxError` with the character offset of the problem
(relative to the query body, after any ``xpath:`` / ``mso:`` prefix).
The grammar reference is ``docs/QUERY_LANGUAGE.md``; the ``lang.*``
counters are listed in ``DESIGN.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import QuerySyntaxError
from .mso import mso_query, parse_mso, parse_mso_query
from .xpath import lower_xpath, parse_xpath, xpath_query

__all__ = [
    "QuerySyntaxError",
    "compile_query_sqa",
    "compile_query_string",
    "lower_query_string",
    "lower_xpath",
    "mso_query",
    "parse_mso",
    "parse_mso_query",
    "parse_xpath",
    "xpath_query",
]

#: Prefixes routing a query string to the new frontend.
PREFIXES = ("xpath:", "mso:")


def split_prefix(pattern: str) -> tuple[str | None, str]:
    """``("xpath"|"mso"|None, body)`` — which frontend a string targets."""
    for prefix in PREFIXES:
        if pattern.startswith(prefix):
            return prefix[:-1], pattern[len(prefix) :]
    return None, pattern


def lower_query_string(pattern: str, alphabet: Sequence[str]):
    """Lower any supported query string to ``(φ, x)``, dispatching on prefix.

    ``"xpath:"`` → :func:`parse_xpath`, ``"mso:"`` →
    :func:`parse_mso_query`, no prefix → the legacy
    :func:`repro.core.patterns.parse_pattern`; the XPath and legacy
    paths both lower through :func:`lower_xpath`.
    """
    kind, body = split_prefix(pattern)
    if kind == "mso":
        return parse_mso_query(body)
    if kind == "xpath":
        path = parse_xpath(body)
    else:
        from ..core.patterns import parse_pattern

        path = parse_pattern(pattern)
    return lower_xpath(path, alphabet)


def compile_query_string(pattern: str, alphabet: Sequence[str]):
    """:func:`lower_query_string`'s formula as an :class:`~repro.core.query.MSOQuery`
    (compiled to the Theorem 5.4 automaton on first evaluation)."""
    from ..core.query import MSOQuery

    formula, var = lower_query_string(pattern, alphabet)
    return MSOQuery(formula, var, tuple(alphabet))


def compile_query_sqa(pattern: str, alphabet: Sequence[str], engine: str = "optimized"):
    """Compile a query string straight to a strong query automaton (§5).

    The same prefix dispatch as :func:`compile_query_string`, but routed
    through :func:`repro.unranked.mso_to_sqa.build_query_sqa` (Theorem
    5.17) instead of the marked-alphabet evaluator, returning the SQA^u.
    """
    from ..unranked.mso_to_sqa import build_query_sqa

    formula, var = lower_query_string(pattern, alphabet)
    return build_query_sqa(formula, var, tuple(alphabet), engine=engine)
