"""Query-string decisions over a DTD go through the one query front door."""

from repro.decision.patterns import (
    pattern_queries_contained,
    pattern_query_witness,
)
from repro.lang import compile_query_string
from repro.trees.dtd import BIBLIOGRAPHY_DTD, parse_dtd


def test_xpath_and_legacy_witnesses_agree():
    dtd = parse_dtd(BIBLIOGRAPHY_DTD)
    legacy = pattern_query_witness("//author", dtd)
    rewrite = pattern_query_witness("xpath:/*//author", dtd)
    assert legacy is not None and legacy == rewrite
    tree, path = legacy
    assert path in compile_query_string("xpath://author", sorted(tree.labels())).evaluate(tree)


def test_decisions_accept_every_syntax():
    dtd = parse_dtd(BIBLIOGRAPHY_DTD)
    assert pattern_query_witness("xpath:/*/author", dtd) is None
    assert pattern_query_witness("mso:lab_author(x)", dtd) is not None
    assert pattern_queries_contained("xpath:/*/book/author", "//author", dtd)
    assert not pattern_queries_contained("mso:lab_author(x)", "/book/author", dtd)
