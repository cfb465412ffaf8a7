"""``resident_mix``: a ``repro serve --tcp`` process under two closed-loop
clients, plus the in-process ``handle_line`` replay the traced run uses.

Each client owns two of the four documents, so its cursors are never
invalidated by the other client's edits and every revision a response
names is reproducible from the client's own edit log.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import socket
import subprocess
import sys
import threading
import time

import gen
import oracle
from measure import median, peak_rss_mb, percentile

KINDS = ("query", "edit", "open", "page", "close")
SERVER_START_TIMEOUT = 60.0


class Docs:
    """The four resident documents and their edit sites (seeded)."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"resident_mix/{seed}")
        self.roots = gen.resident_docs(rng)
        self.texts = [gen.render(root) for root in self.roots]
        self.names = [f"d{index}" for index in range(len(self.roots))]
        self.sites = {
            index: gen.edit_sites(rng, root) for index, root in enumerate(self.roots)
        }
        self.seed = seed

    def streams(self) -> list[gen.OpStream]:
        """One fresh op schedule per client (the same on every call)."""
        return [
            gen.OpStream(random.Random(f"resident_mix/{self.seed}/client{c}"),
                         gen.OWNERS[c], self.sites)
            for c in range(len(gen.OWNERS))
        ]

    def frame(self, op) -> dict:
        """The (first) request frame of one op."""
        kind, doc = op[0], op[1]
        name = self.names[doc]
        if kind == "query":
            return {"op": "query", "doc": name, "query": gen.query_text(op[2])}
        if kind == "edit":
            action, site, serial = op[2]
            node = gen.element_at(self.roots[doc], site)
            if action == "grow":
                fragment = gen.render(gen.grown(node, serial))
                return {"op": "replace", "doc": name, "path": list(site),
                        "fragment": fragment}
            return {"op": "delete", "doc": name, "path": list(site) + [len(node.kids)]}
        return {"op": "open_cursor", "doc": name, "query": gen.query_text(op[2]),
                "page_size": gen.PAGE_SIZE}


class Session:
    """Runs ops through ``send(frame) -> (raw response line, seconds)``.

    An op is a query, an edit, or a whole cursor session.  ``log`` keeps
    what the answer check needs; ``latencies`` holds ``(kind, seconds)``
    per request, ``ops`` ``(kind, seconds)`` per op; ``failures`` holds
    error responses and ``failed_ops`` counts the ops that got one.
    Query responses (the large ones) are only decoded by ``finish()``,
    after the run, so the clients stay light next to the server.
    """

    def __init__(self, docs: Docs, send) -> None:
        self.docs = docs
        self.send = send
        self.log: list[tuple] = []
        self.latencies: list[tuple[str, float]] = []
        self.ops: list[tuple[str, float]] = []
        self.batches: list[int] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        self._queries: list[tuple] = []

    def _request(self, kind: str, frame: dict):
        raw, seconds = self.send(frame)
        self.latencies.append((kind, seconds))
        return self._result(json.loads(raw))

    def _result(self, response: dict):
        if not response.get("ok"):
            self.failures.append(json.dumps(response)[:200])
            return None
        return response["result"]

    def run(self, op) -> None:
        mark = len(self.latencies)
        failures = len(self.failures)
        self._run(op)
        self.ops.append((op[0], sum(s for _, s in self.latencies[mark:])))
        self.failed_ops += len(self.failures) > failures

    def _run(self, op) -> None:
        frame = self.docs.frame(op)
        kind, doc = op[0], op[1]
        if kind == "query":
            raw, seconds = self.send(frame)
            self.latencies.append(("query", seconds))
            self._queries.append((doc, op[2], raw))
        elif kind == "edit":
            result = self._request("edit", frame)
            if result is not None:
                self.log.append(("edit", doc, result["revision"], op[2],
                                 result["nodes"]))
        else:
            opened = self._request("open", frame)
            if opened is None:
                return
            paths: list = []
            done = False
            for _ in range(op[3]):
                page = self._request("page", {"op": "next_page",
                                              "cursor": opened["cursor"]})
                if page is None:
                    return
                paths.extend(tuple(p) for p in page["paths"])
                done = page["done"]
                if done:
                    break
            if not done:
                self._request("close", {"op": "close_cursor",
                                        "cursor": opened["cursor"]})
            self.log.append(("cursor", doc, opened["revision"], op[2], paths, done))

    def finish(self) -> None:
        """Decode the deferred query responses into the log."""
        for doc, spec, raw in self._queries:
            response = json.loads(raw)
            result = self._result(response)
            if result is None:
                self.failed_ops += 1
                continue
            self.batches.append(response.get("stats", {}).get("batch", 1))
            self.log.append(("query", doc, result["revision"], spec,
                             [tuple(p) for p in result["paths"]]))
        self._queries.clear()


# -- the server process ----------------------------------------------------

class Connection:
    """One NDJSON-over-TCP client connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def send(self, frame: dict) -> dict:
        return json.loads(self.timed_send(frame)[0])

    def timed_send(self, frame: dict) -> tuple[bytes, float]:
        """The raw response line and the client-side round-trip time."""
        self.next_id += 1
        payload = json.dumps(dict(frame, id=self.next_id)).encode() + b"\n"
        start = time.perf_counter()
        self.sock.sendall(payload)
        line = self.reader.readline()
        seconds = time.perf_counter() - start
        if not line:
            raise ConnectionError("server closed the connection")
        return line, seconds

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """``python -m repro.cli serve --tcp 0`` with default settings."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--tcp", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, env=env,
        )
        self.port = None
        watchdog = threading.Timer(SERVER_START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            for raw in self.proc.stderr:
                line = raw.decode(errors="replace")
                if line.startswith("serving on "):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
        finally:
            watchdog.cancel()
        if self.port is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("repro serve did not start")
        # Keep draining stderr so the server can never block on it.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def stop(self) -> None:
        """Ask for shutdown, then make sure the process has ended."""
        try:
            conn = Connection(self.port)
            conn.send({"op": "shutdown"})
            conn.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(timeout=5)


def http_post(port: int, frame: dict) -> dict:
    """One frame as an HTTP ``POST /`` body.

    Loads go this way: the NDJSON transport reads a request line with
    asyncio's 64 KiB line limit, and the larger documents exceed it.
    """
    body = json.dumps(frame).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(
            b"POST / HTTP/1.1\r\nContent-Type: application/x-ndjson\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return json.loads(b"".join(chunks).split(b"\r\n\r\n", 1)[1])


def load_and_warm(docs: Docs, send, load) -> None:
    """Load every document, then run each fixed query and a cursor on it."""
    for name, text in zip(docs.names, docs.texts):
        response = load({"op": "load", "doc": name, "text": text})
        if not response.get("ok"):
            raise RuntimeError(f"load failed: {response}")
    for name in docs.names:
        for spec in gen.RESIDENT_QUERIES:
            send({"op": "query", "doc": name, "query": gen.query_text(spec)})
        for spec in gen.RESIDENT_QUERIES[:2]:
            opened = send({"op": "open_cursor", "doc": name,
                           "query": gen.query_text(spec), "page_size": gen.PAGE_SIZE})
            send({"op": "close_cursor", "cursor": opened["result"]["cursor"]})


def start_server(docs: Docs) -> tuple[Server, float]:
    """A loaded, warm server and its set-up time (spawn → ready)."""
    start = time.perf_counter()
    server = Server()
    conn = Connection(server.port)
    try:
        load_and_warm(docs, conn.send, lambda frame: http_post(server.port, frame))
    finally:
        conn.close()
    return server, time.perf_counter() - start


def drive(docs: Docs, port: int, seconds: float) -> tuple[list[Session], float]:
    """Two closed-loop clients for ``seconds``; returns sessions, wall time."""
    sessions = []
    threads = []
    deadline = time.perf_counter() + seconds
    errors: list[Exception] = []

    def client(stream: gen.OpStream, session: Session, conn: Connection) -> None:
        try:
            while time.perf_counter() < deadline:
                session.run(stream.next())
        except Exception as error:  # noqa: BLE001 — re-raised after the join
            errors.append(error)
        finally:
            conn.close()

    start = time.perf_counter()
    for stream in docs.streams():
        conn = Connection(port)
        session = Session(docs, conn.timed_send)
        sessions.append(session)
        threads.append(threading.Thread(target=client, args=(stream, session, conn)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    for session in sessions:
        session.finish()
    return sessions, wall


# -- the answer check ------------------------------------------------------

def check(docs: Docs, sessions: list[Session]) -> int:
    """Count logged results that disagree with a client-side replica.

    Each document's logged edits are replayed in revision order on a
    ``Document`` replica (``with_replaced``/``with_deleted``); after every
    edit the replica's size must match the size the server reported.
    Every query result and every concatenated cursor page list is then
    compared with the answer on the replica's state at the revision the
    server named.  Answers come from the reference evaluator of
    ``oracle.py`` on that state, once the replica's tree is checked equal
    to it, so they are computed once per distinct state: grow/shrink
    pairs return a document to its loaded structure.
    """
    from repro.core.pipeline import Document
    from repro.trees.xml import parse_document

    wrong = 0
    records = [record for session in sessions for record in session.log]
    for doc in range(len(docs.roots)):
        mine = [r for r in records if r[1] == doc]
        edits = {r[2]: r for r in mine if r[0] == "edit"}
        by_revision: dict[int, list] = {}
        for record in mine:
            if record[0] != "edit":
                by_revision.setdefault(record[2], []).append(record)
        replica = Document.from_text(docs.texts[doc])
        loaded = oracle.RefTree(docs.texts[doc])
        references: dict = {None: loaded if same_tree(replica.tree, loaded) else None}
        answers: dict = {}
        grown_at = None  # the edit site currently holding an extra child
        last = max([0] + list(edits) + list(by_revision))
        for revision in range(last + 1):
            edit = edits.get(revision)
            if revision and edit is None:  # an edit response went missing
                wrong += sum(len(v) for k, v in by_revision.items() if k >= revision)
                break
            if revision:
                action, site, serial = edit[3]
                node = gen.element_at(docs.roots[doc], site)
                if action == "grow":
                    fragment = parse_document(gen.render(gen.grown(node, serial)))
                    replica = replica.with_replaced(site, fragment)
                    grown_at = site
                else:
                    replica = replica.with_deleted(site + (len(node.kids),))
                    grown_at = None
                wrong += replica.tree.size != edit[4]
            if grown_at not in references:
                reference = oracle.RefTree(
                    gen.render(_with_grown(docs.roots[doc], grown_at, 0))
                )
                references[grown_at] = (
                    reference if same_tree(replica.tree, reference) else None
                )
            for record in by_revision.get(revision, ()):
                reference = references[grown_at]
                if reference is None:
                    wrong += 1
                    continue
                key = (grown_at, record[3])
                if key not in answers:
                    answers[key] = reference.answer(record[3])
                expected = answers[key]
                if record[0] == "query":
                    wrong += record[4] != expected
                else:
                    paths, done = record[4], record[5]
                    wrong += paths != expected[: len(paths)] or (
                        done and len(paths) != len(expected)
                    )
    return wrong


def same_tree(tree, reference: oracle.RefTree) -> bool:
    """Does a ``repro`` ``Tree`` have the reference's labels and shape?"""
    stack = [tree]
    node = 0
    while stack:
        current = stack.pop()
        if (node >= reference.size or current.label != reference.labels[node]
                or len(current.children) != len(reference.kids[node])):
            return False
        stack.extend(reversed(current.children))
        node += 1
    return node == reference.size


def _with_grown(root: gen.El, site: tuple, serial: int) -> gen.El:
    """A copy of ``root`` whose node at ``site`` has grown (spine copied)."""
    if not site:
        return gen.grown(root, serial)
    kids = list(root.kids)
    kids[site[0]] = _with_grown(kids[site[0]], site[1:], serial)
    return gen.El(root.tag, kids)


# -- the two runs ----------------------------------------------------------

def summarize(sessions: list[Session]) -> dict:
    """Request latencies per kind and op latencies, in ms."""
    by_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for session in sessions:
        for kind, seconds in session.latencies:
            by_kind[kind].append(seconds * 1000.0)
    ops = [seconds * 1000.0 for session in sessions for _, seconds in session.ops]
    return {"by_kind": by_kind, "ops": ops}


def measure(seed: int, seconds: float, setups: int) -> dict:
    """The untraced run.  ``setups`` servers are started; the last one
    serves the timed clients and every start is one ``setup_s`` sample."""
    docs = Docs(seed)
    setup_times = []
    for attempt in range(setups):
        server, elapsed = start_server(docs)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            server.stop()
    try:
        sessions, wall = drive(docs, server.port, seconds)
    finally:
        server.stop()
    summary = summarize(sessions)
    attempted = len(summary["ops"])
    failures = [f for s in sessions for f in s.failures]
    check_start = time.perf_counter()
    wrong = check(docs, sessions)
    failed = sum(s.failed_ops for s in sessions) + wrong
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "errors": failures[:5],
        "tail_q": 99,
        "setup_times": setup_times,
        "check_s": time.perf_counter() - check_start,
        "by_kind": {
            kind: {"n": len(values), "p50_ms": median(values)}
            for kind, values in summary["by_kind"].items()
        },
        "metrics": {
            "ops_per_s": attempted / wall,
            "latency_p50_ms": median(summary["ops"]),
            "latency_tail_ms": percentile(summary["ops"], 99),
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "setup_s": median(setup_times),
        },
    }


def traced(seed: int, seconds: float) -> dict:
    """The traced run: a TCP phase, then the in-process replay.

    The TCP phase (untraced, half the time) gives the client-side view:
    per-kind p50s, batch sizes, and the query p50 that ``serve.wire_ms``
    compares with.  The replay drives an in-process ``QueryServer`` with
    default settings through ``handle_line``, one op at a time, alternating
    traced and untraced ops of the same schedule.
    """
    from spans import layer_metrics

    docs = Docs(seed)
    server, _ = start_server(docs)
    try:
        sessions, _ = drive(docs, server.port, seconds / 2)
    finally:
        server.stop()
    tcp = summarize(sessions)
    batches = [b for s in sessions for b in s.batches]
    wrong = check(docs, sessions)
    failures = sum(s.failed_ops for s in sessions)

    replay = _replay(docs, seconds / 2)
    wrong += check(docs, replay["sessions"])
    failures += sum(s.failed_ops for s in replay["sessions"])
    layers = layer_metrics(replay["analysis"], replay["counters"], replay["traced_ops"])
    plain_query = median(replay["plain"]["query"])
    layers.update({
        "obs.trace_overhead": replay["overhead"],
        "trees.deep_doc_failures": 0,
        "serve.wire_ms": median(tcp["by_kind"]["query"]) - plain_query,
        "serve.batch_size": sum(batches) / len(batches) if batches else 0.0,
        "serve.query_p50_ms": median(tcp["by_kind"]["query"]),
        "serve.edit_p50_ms": median(tcp["by_kind"]["edit"]),
        "serve.page_p50_ms": median(tcp["by_kind"]["page"]),
    })
    attempted = len(tcp["ops"]) + replay["ops"]
    return {"attempted": attempted, "failed": failures + wrong, "metrics": layers,
            "spans": replay["spans"]}


def _replay(docs: Docs, seconds: float) -> dict:
    """Feed the op schedule to an in-process server, one request at a time."""
    from repro.serve import DocumentStore, QueryServer
    from spans import Tracer

    server = QueryServer(DocumentStore())
    tracer = Tracer()
    loop = asyncio.new_event_loop()
    unit = 0
    traced = False

    def timed_send(frame: dict) -> tuple[bytes, float]:
        """One ``handle_line`` call, timed (and traced) alone."""
        line = json.dumps(frame)
        start = time.perf_counter()
        if traced:
            with tracer.op(unit):
                raw = loop.run_until_complete(server.handle_line(line))
        else:
            raw = loop.run_until_complete(server.handle_line(line))
        return raw, time.perf_counter() - start

    def send(frame: dict) -> dict:
        return json.loads(timed_send(frame)[0])

    try:
        load_and_warm(docs, send, send)
        before = send({"op": "stats"})["result"]["report"]["counters"]
        streams = docs.streams()
        sessions = [Session(docs, timed_send) for _ in streams]
        plain: dict[str, list[float]] = {kind: [] for kind in KINDS}
        spanned: dict[str, list[float]] = {kind: [] for kind in KINDS}
        elapsed = 0.0
        traced_ops = 0
        while elapsed < seconds:
            # Clients take turns; ops alternate in pairs: untraced, traced.
            client = unit % len(streams)
            session = sessions[client]
            op = streams[client].next()
            mark = len(session.latencies)
            traced = (unit // 2) % 2 == 1
            if traced:
                tracer.install()
                traced_ops += 1
                try:
                    session.run(op)
                finally:
                    tracer.uninstall()
            else:
                session.run(op)
            for kind, secs in session.latencies[mark:]:
                (spanned if traced else plain)[kind].append(secs * 1000.0)
                elapsed += secs
            unit += 1
        traced = False
        after = send({"op": "stats"})["result"]["report"]["counters"]
        for session in sessions:
            session.finish()
    finally:
        loop.close()
    counters = {key: value - before.get(key, 0) for key, value in after.items()}
    # Overhead: per-kind mean ratio, weighted by each kind's untraced time.
    total_plain = sum(sum(values) for values in plain.values())
    overhead = 0.0
    for kind in KINDS:
        if plain[kind] and spanned[kind]:
            mean_traced = sum(spanned[kind]) / len(spanned[kind])
            mean_plain = sum(plain[kind]) / len(plain[kind])
            overhead += sum(plain[kind]) / total_plain * (mean_traced / mean_plain - 1.0)
    return {
        "sessions": sessions,
        "analysis": tracer.analyse(),
        "spans": tracer.spans,
        "counters": counters,
        "traced_ops": traced_ops,
        "plain": plain,
        "overhead": overhead,
        "ops": sum(len(s.ops) for s in sessions),
    }
