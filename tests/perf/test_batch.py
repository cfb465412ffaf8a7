"""The batch API: dispatch, amortization, and the pipeline routing."""

import random

import pytest

from repro.core.patterns import compile_pattern
from repro.core.pipeline import Document, batch_select, cached_pattern
from repro.core.query import CompiledQuery, MSOQuery, UnrankedAutomatonQuery
from repro.perf import batch_evaluate, evaluate_one
from repro.strings.examples import odd_ones_gsqa, odd_ones_query_automaton
from repro.trees.generators import random_tree
from repro.unranked.examples import circuit_query_automaton


class TestDispatch:
    def test_string_query_automaton(self):
        qa = odd_ones_query_automaton()
        words = ["0110", "111", "", "10101"]
        assert batch_evaluate(qa, words) == [qa.evaluate(word) for word in words]

    def test_gsqa(self):
        gsqa = odd_ones_gsqa()
        words = ["0110", "111", "1"]
        assert batch_evaluate(gsqa, words) == [
            gsqa.transduce(word) for word in words
        ]

    def test_unranked_query_automaton(self):
        qa = circuit_query_automaton()
        from repro.trees.generators import random_unranked_circuit

        trees = [random_unranked_circuit(2, seed_or_rng=seed) for seed in range(6)]
        assert batch_evaluate(qa, trees) == [qa.evaluate(tree) for tree in trees]

    def test_mso_query_and_compiled_forms(self):
        labels = ("a", "b")
        query = compile_pattern("//a", labels)
        trees = [
            random_tree(size, list(labels), seed_or_rng=size) for size in range(1, 8)
        ]
        expected = [query.evaluate(tree) for tree in trees]
        assert batch_evaluate(query, trees) == expected
        assert batch_evaluate(query.compiled(), trees) == expected
        assert batch_evaluate(CompiledQuery(query.compiled()), trees) == expected

    def test_fast_engine_flags_agree(self):
        labels = ("a", "b")
        tree = random_tree(9, list(labels), seed_or_rng=5)
        query = compile_pattern("//a", labels)
        fast = MSOQuery(query.formula, query.var, query.alphabet, engine="fast")
        assert fast.evaluate(tree) == query.evaluate(tree)
        qa = circuit_query_automaton()
        from repro.trees.generators import random_unranked_circuit

        circuit = random_unranked_circuit(2, seed_or_rng=9)
        assert (
            UnrankedAutomatonQuery(qa, engine="fast").evaluate(circuit)
            == UnrankedAutomatonQuery(qa, engine="simulate").evaluate(circuit)
            == UnrankedAutomatonQuery(qa, engine="behavior").evaluate(circuit)
        )

    def test_evaluate_one_matches_batch(self):
        qa = odd_ones_query_automaton()
        assert evaluate_one(qa, "0110") == batch_evaluate(qa, ["0110"])[0]

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError):
            batch_evaluate(object(), ["x"])


BIB = """<bib>
  <book><author>abiteboul</author><title>foundations</title></book>
  <book><author>vianu</author><title>queries</title></book>
</bib>"""


class TestPipelineRouting:
    def test_select_uses_cached_pattern(self):
        document = Document.from_text(BIB)
        first = document.select("//author")
        second = document.select("//author")
        assert first == second
        key = ("//author", document.alphabet)
        assert cached_pattern(*key) is cached_pattern(*key)

    def test_select_matches_direct_evaluation(self):
        document = Document.from_text(BIB)
        query = compile_pattern("//author", document.alphabet)
        assert document.select("//author") == sorted(query.evaluate(document.tree))
        assert document.select(query) == sorted(query.evaluate(document.tree))

    def test_batch_select_matches_per_document_select(self):
        texts = [
            BIB,
            "<bib><book><author>neven</author></book></bib>",
            "<bib></bib>",
        ]
        documents = [Document.from_text(text) for text in texts]
        batched = batch_select(documents, "//author")
        assert batched == [document.select("//author") for document in documents]

    def test_batch_select_accepts_query_objects(self):
        documents = [Document.from_text(BIB)]
        query = compile_pattern("//title", documents[0].alphabet)
        assert batch_select(documents, query) == [documents[0].select(query)]

    def test_batch_select_empty(self):
        assert batch_select([], "//author") == []


class TestCrossCallCaching:
    def test_engines_survive_across_batches(self):
        from repro.perf.strings import _QUERY_ENGINES

        qa = odd_ones_query_automaton()
        batch_evaluate(qa, ["01"])
        engine = _QUERY_ENGINES.get(qa)
        batch_evaluate(qa, ["0110", "10"])
        assert _QUERY_ENGINES.get(qa) is engine

    def test_random_batches_agree_with_naive(self):
        qa = odd_ones_query_automaton()
        rng = random.Random(0xE1)
        words = [
            "".join(rng.choice("01") for _ in range(rng.randrange(12)))
            for _ in range(100)
        ]
        assert batch_evaluate(qa, words) == [qa.evaluate(word) for word in words]
