"""Unknown ``engine=`` names fail uniformly at every entry point.

One ``ValueError`` format — ``unknown engine <name>: valid engines are
...`` — regardless of whether the bad name reaches a pipeline entry
point, the batch dispatcher, or a kernel resolver, and regardless of
``jobs=`` sharding (validation happens in the parent, up front).
"""

import pytest

from repro.core.pipeline import Corpus, Document, batch_select
from repro.perf.batch import _engine_call, batch_evaluate, evaluate_one
from repro.perf.nptrees import tree_kernel
from repro.perf.registry import (
    VALID_ENGINES,
    unknown_engine,
    validate_engine,
)
from repro.perf.strings import numpy_kernel
from repro.strings.examples import odd_ones_query_automaton

DOC = "<a><b><c/></b><b/></a>"

MESSAGE = "unknown engine 'bogus': valid engines are 'naive', 'table', 'numpy'"


def document():
    return Document.from_text(DOC)


class TestUniformMessage:
    def test_helper_renders_the_one_format(self):
        assert str(unknown_engine("bogus")) == MESSAGE

    def test_validate_engine_accepts_all_valid_names(self):
        for name in (None,) + VALID_ENGINES:
            assert validate_engine(name) == name

    def test_document_select(self):
        with pytest.raises(ValueError) as excinfo:
            document().select("//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_select(self):
        with pytest.raises(ValueError) as excinfo:
            batch_select([document()], "//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_select_sharded_fails_in_parent(self):
        with pytest.raises(ValueError) as excinfo:
            batch_select([document()] * 2, "//b", jobs=2, engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_corpus_select(self):
        corpus = Corpus([document()])
        with pytest.raises(ValueError) as excinfo:
            corpus.select("//b", engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_engine_call_validates_up_front(self):
        qa = odd_ones_query_automaton()
        with pytest.raises(ValueError) as excinfo:
            _engine_call(qa, engine="bogus")
        assert str(excinfo.value) == MESSAGE

    def test_batch_evaluate_and_evaluate_one(self):
        qa = odd_ones_query_automaton()
        for call in (
            lambda: batch_evaluate(qa, ["01"], engine="bogus"),
            lambda: evaluate_one(qa, "01", engine="bogus"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == MESSAGE

    def test_kernel_resolvers_list_their_engines(self):
        expected = "unknown engine 'bogus': valid engines are 'table', 'numpy'"
        for resolver in (numpy_kernel, tree_kernel):
            with pytest.raises(ValueError) as excinfo:
                resolver("bogus")
            assert str(excinfo.value) == expected

    def test_every_entry_point_agrees(self):
        doc = document()
        messages = set()
        for call in (
            lambda: doc.select("//b", engine="bogus"),
            lambda: batch_select([doc], "//b", engine="bogus"),
            lambda: Corpus([doc]).select("//b", engine="bogus"),
            lambda: evaluate_one(
                odd_ones_query_automaton(), "01", engine="bogus"
            ),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            messages.add(str(excinfo.value))
        assert messages == {MESSAGE}


class TestQueryObjects:
    """The query classes reject unknown engines when constructed."""

    def test_each_class_lists_its_documented_engines(self):
        from repro.core.query import (
            CompiledQuery,
            MSOQuery,
            RankedAutomatonQuery,
            UnrankedAutomatonQuery,
        )
        from repro.logic.syntax import Label, Var

        x = Var("x")
        cases = [
            (
                lambda: MSOQuery(Label(x, "a"), x, ("a",), engine="numpy"),
                "unknown engine 'numpy': valid engines are "
                "'naive', 'automaton', 'fast'",
            ),
            (
                lambda: RankedAutomatonQuery(None, engine="numpy"),
                "unknown engine 'numpy': valid engines are "
                "'simulate', 'behavior'",
            ),
            (
                lambda: UnrankedAutomatonQuery(None, engine="numpy"),
                "unknown engine 'numpy': valid engines are "
                "'simulate', 'behavior', 'fast'",
            ),
            (
                lambda: CompiledQuery(None, engine="numpy"),
                "unknown engine 'numpy': valid engines are 'two_pass', 'fast'",
            ),
        ]
        for build, message in cases:
            with pytest.raises(ValueError) as excinfo:
                build()
            assert str(excinfo.value) == message

    def test_documented_engines_construct(self):
        from repro.core.query import MSOQuery
        from repro.logic.syntax import Label, Var

        x = Var("x")
        for engine in MSOQuery.ENGINES:
            assert MSOQuery(Label(x, "a"), x, ("a",), engine=engine).engine == engine
