"""Protocol unit tests: framing, structured errors, budgets, ops.

Everything here drives :meth:`QueryServer.handle_frame` /
``handle_line`` directly (no sockets): malformed frames and bad requests
must come back as structured error responses — never exceptions — and
budget trips must carry a counter snapshot.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import DocumentStore, ProtocolError, QueryServer
from repro.serve.protocol import (
    budget_field,
    decode_frame,
    encode_frame,
    error_response,
    ok_response,
    path_field,
    request_id,
)
from repro.trees.xml import make_bibliography


def run(coro):
    return asyncio.run(coro)


def rpc(server: QueryServer, frame: dict) -> dict:
    """One request through the server inside a fresh event loop."""
    return run(server.handle_frame(frame))


@pytest.fixture()
def server() -> QueryServer:
    store = DocumentStore()
    store.load("bib", make_bibliography(3, 3))
    return QueryServer(store)


# -- framing ------------------------------------------------------------


def test_decode_rejects_non_json():
    with pytest.raises(ProtocolError) as info:
        decode_frame(b"{nope")
    assert info.value.kind == "malformed-frame"
    assert "offset" in info.value.payload()


def test_decode_rejects_non_object():
    with pytest.raises(ProtocolError) as info:
        decode_frame(b"[1, 2]")
    assert info.value.kind == "malformed-frame"


def test_decode_rejects_bad_utf8():
    with pytest.raises(ProtocolError) as info:
        decode_frame(b'{"op": "\xff"}')
    assert info.value.kind == "malformed-frame"


def test_encode_frame_is_one_line():
    line = encode_frame(ok_response(7, {"pong": True}))
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert json.loads(line) == {"id": 7, "ok": True, "result": {"pong": True}}


def test_handle_line_never_raises(server):
    response = json.loads(run(server.handle_line(b"{malformed\n")))
    assert response == {
        "id": None,
        "ok": False,
        "error": response["error"],
    }
    assert response["error"]["kind"] == "malformed-frame"
    # The server is still usable afterwards.
    assert rpc(server, {"op": "ping"})["ok"]


# -- request validation -------------------------------------------------


def test_missing_op_is_bad_request(server):
    response = rpc(server, {"id": 1})
    assert not response["ok"]
    assert response["error"]["kind"] == "bad-request"
    assert response["id"] == 1


def test_unknown_op_lists_known_ops(server):
    response = rpc(server, {"op": "frobnicate"})
    assert response["error"]["kind"] == "bad-request"
    assert "query" in response["error"]["known"]


def test_structured_id_is_rejected():
    with pytest.raises(ProtocolError):
        request_id({"id": {"nested": 1}})


def test_path_field_validation():
    assert path_field({"path": [0, 2, 1]}) == (0, 2, 1)
    for bad in (None, "0/1", [0, -1], [0, True], [0.5]):
        with pytest.raises(ProtocolError):
            path_field({"path": bad})


def test_budget_field_validation():
    assert budget_field({"b": 0}, "b") == 0
    assert budget_field({}, "b", 9) == 9
    for bad in (-1, "10", True):
        with pytest.raises(ProtocolError):
            budget_field({"b": bad}, "b")


def test_query_needs_exactly_one_document_source(server):
    both = rpc(
        server,
        {"op": "query", "doc": "bib", "text": "<a/>", "query": "//a"},
    )
    neither = rpc(server, {"op": "query", "query": "//a"})
    assert both["error"]["kind"] == "bad-request"
    assert neither["error"]["kind"] == "bad-request"


# -- per-op errors ------------------------------------------------------


def test_unknown_document_is_not_found(server):
    response = rpc(server, {"op": "query", "doc": "nope", "query": "//a"})
    assert response["error"]["kind"] == "not-found"
    assert "bib" in response["error"]["message"]


def test_query_syntax_error_carries_offset(server):
    response = rpc(
        server, {"op": "query", "doc": "bib", "query": "xpath://["}
    )
    error = response["error"]
    assert error["kind"] == "query-syntax"
    assert 0 <= error["offset"] <= len("//[")
    assert error["line"] >= 1 and error["column"] >= 1


def test_legacy_pattern_error_is_query_syntax(server):
    response = rpc(server, {"op": "query", "doc": "bib", "query": "book"})
    error = response["error"]
    assert error["kind"] == "query-syntax"
    assert (error["offset"], error["line"], error["column"]) == (0, 1, 1)
    bad_filter = rpc(
        server, {"op": "query", "doc": "bib", "query": "//book[oops]"}
    )["error"]
    assert bad_filter["kind"] == "query-syntax"
    assert bad_filter["offset"] == len("//book[")
    assert bad_filter["column"] == len("//book[") + 1


def test_unknown_engine_is_structured(server):
    response = rpc(
        server,
        {"op": "query", "doc": "bib", "query": "//author", "engine": "gpu"},
    )
    assert not response["ok"]
    assert response["error"]["kind"] in ("engine", "bad-request")


def test_load_validation_failure(server):
    response = rpc(
        server,
        {
            "op": "load",
            "doc": "bad",
            "text": "<a><b/></a>",
            "dtd": "<!ELEMENT a (c)><!ELEMENT c EMPTY>",
        },
    )
    assert response["error"]["kind"] == "validation"
    assert "bad" not in server.store


def test_load_malformed_xml(server):
    response = rpc(server, {"op": "load", "doc": "bad", "text": "<a><b></a>"})
    assert response["error"]["kind"] == "validation"


def test_edit_errors(server):
    root = rpc(server, {"op": "delete", "doc": "bib", "path": []})
    assert root["error"]["kind"] == "bad-request"
    missing = rpc(server, {"op": "delete", "doc": "bib", "path": [99]})
    assert missing["error"]["kind"] == "not-found"
    bad_fragment = rpc(
        server,
        {"op": "replace", "doc": "bib", "path": [0], "fragment": "<a><b>"},
    )
    assert bad_fragment["error"]["kind"] == "validation"


# -- budgets ------------------------------------------------------------


def test_step_budget_trips_with_counter_snapshot(server):
    nodes = server.store.get("bib").tree.size
    response = rpc(
        server,
        {
            "op": "query",
            "doc": "bib",
            "query": "//author",
            "budget_steps": nodes - 1,
        },
    )
    error = response["error"]
    assert error["kind"] == "budget-exceeded"
    assert error["nodes"] == nodes
    assert error["budget_steps"] == nodes - 1
    assert isinstance(error["counters"], dict)
    assert server.lifetime.counters["serve.budget_steps_trips"] == 1


def test_step_budget_admits_at_the_node_count(server):
    nodes = server.store.get("bib").tree.size
    response = rpc(
        server,
        {
            "op": "query",
            "doc": "bib",
            "query": "//author",
            "budget_steps": nodes,
        },
    )
    assert response["ok"], response


def test_time_budget_zero_always_trips(server):
    response = rpc(
        server,
        {"op": "query", "doc": "bib", "query": "//author", "budget_ms": 0},
    )
    error = response["error"]
    assert error["kind"] == "budget-exceeded"
    assert error["budget_ms"] == 0
    assert isinstance(error["counters"], dict)
    assert error["counters"]  # the work ran before the deadline check
    assert server.lifetime.counters["serve.budget_ms_trips"] == 1


def test_server_default_budgets_apply(server):
    server.budget_steps = 1
    response = rpc(server, {"op": "query", "doc": "bib", "query": "//author"})
    assert response["error"]["kind"] == "budget-exceeded"
    # A per-request budget overrides the server default.
    response = rpc(
        server,
        {
            "op": "query",
            "doc": "bib",
            "query": "//author",
            "budget_steps": 10_000,
        },
    )
    assert response["ok"]


# -- happy paths / stats ------------------------------------------------


def test_query_response_shape(server):
    response = rpc(server, {"id": "q1", "op": "query", "doc": "bib", "query": "//author"})
    assert response["id"] == "q1" and response["ok"]
    result = response["result"]
    assert result["doc"] == "bib" and result["revision"] == 0
    assert result["count"] == len(result["paths"])
    assert all(isinstance(p, list) for p in result["paths"])
    stats = response["stats"]
    assert stats["batch"] == 1
    assert stats["counters"]["serve.selects"] == 1
    assert stats["elapsed_ms"] >= 0


def test_edit_then_query_bumps_revision(server):
    rpc(
        server,
        {
            "op": "replace",
            "doc": "bib",
            "path": [0],
            "fragment": "<book><author>X</author><title>T</title>"
            "<year>1999</year></book>",
        },
    )
    response = rpc(
        server,
        {"op": "query", "doc": "bib", "query": "//author", "verify": True},
    )
    assert response["ok"]
    assert response["result"]["revision"] == 1


def test_replace_with_text_chunk(server):
    response = rpc(
        server,
        {"op": "replace", "doc": "bib", "path": [0, 0, 0], "text": "New"},
    )
    assert response["ok"], response


def test_stats_report_shape(server):
    rpc(server, {"op": "query", "doc": "bib", "query": "//author"})
    response = rpc(server, {"op": "stats"})
    result = response["result"]
    assert result["requests"] >= 1
    latency = result["latency_ms"]
    assert latency["count"] >= 1
    assert latency["p50"] <= latency["p99"] <= latency["max"]
    assert result["report"]["counters"]["serve.selects"] == 1
    assert "caches" in result["report"]
    assert result["documents"][0]["doc"] == "bib"


def test_docs_and_unload(server):
    docs = rpc(server, {"op": "docs"})
    assert [d["doc"] for d in docs["result"]["documents"]] == ["bib"]
    assert rpc(server, {"op": "unload", "doc": "bib"})["ok"]
    assert rpc(server, {"op": "docs"})["result"]["documents"] == []
    assert (
        rpc(server, {"op": "unload", "doc": "bib"})["error"]["kind"]
        == "not-found"
    )


def test_error_response_echoes_id():
    error = ProtocolError("bad-request", "nope", hint="x")
    response = error_response("r9", error)
    assert response["id"] == "r9"
    assert response["error"] == {
        "kind": "bad-request",
        "message": "nope",
        "hint": "x",
    }
