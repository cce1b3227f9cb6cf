"""Shared fixtures: bundled tagset/mappings, reference corpus snippets, the
synthetic splits, and a scriptable local chat-completions endpoint."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import socket
import sys
import threading
import warnings
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from neogate import load_builtin_mapping, load_builtin_tagset, load_corpus

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# a socket or file that a test leaves open fails it: its finalizer's
# ResourceWarning reaches pytest as an unraisable exception
LEAK_CHECKS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
)


def _checked(item) -> bool:
    return item.path.is_relative_to(Path(__file__).resolve().parent)


def pytest_collection_modifyitems(items):
    for item in items:
        if _checked(item):
            for mark in LEAK_CHECKS:
                item.add_marker(mark)
    # what collection built lives to the end of the session; frozen, it
    # keeps the collection after each item below cheap
    gc.freeze()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    """Fail the teardown of an item that leaked a socket or file.

    pytest drops an item's fixture values only after its teardown phase,
    so an object leaked through one, or held in a reference cycle, would
    be finalized outside every item, and after the last item it would
    only warn. Drop them here and collect, under the error filter."""
    result = yield
    if _checked(item):
        leaks = []
        hook, sys.unraisablehook = sys.unraisablehook, leaks.append
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                item.funcargs.clear()
                gc.collect()
        finally:
            sys.unraisablehook = hook
        if leaks:
            pytest.fail(
                "leaked: " + "; ".join(f"{u.object!r}: {u.exc_value}" for u in leaks),
                pytrace=False,
            )
    return result


# The running example entry used across the module tests: a department
# chair hiring professors, with a tagged reference and an anchor-less
# annotation (function-word anchors are exercised separately).
EXAMPLE_SOURCE = "The department chair said they might hire new professors"
EXAMPLE_REF_M = "Il direttore del dipartimento ha detto che potrebbero assumere nuovi professori"
EXAMPLE_REF_F = "La direttrice del dipartimento ha detto che potrebbero assumere nuove professoresse"
EXAMPLE_REF_TAGGED = (
    "<DARTS> direttor<ENDS> del dipartimento ha detto che potrebbero assumere "
    "nuov<ENDP> professor<ENDP>"
)
EXAMPLE_ANNOTATION = (
    "il la <DARTS>; direttore direttrice direttor<ENDS>; nuovi nuove nuov<ENDP>; "
    "professori professoresse professor<ENDP>;"
)

HEADER_LINE = "ID\tSOURCE\tREF-M\tREF-F\tREF-TAGGED\tANNOTATION"

EXAMPLE_CORPUS_TEXT = (
    HEADER_LINE
    + "\n"
    + "\t".join(
        (
            "0001",
            EXAMPLE_SOURCE,
            EXAMPLE_REF_M,
            EXAMPLE_REF_F,
            EXAMPLE_REF_TAGGED,
            EXAMPLE_ANNOTATION,
        )
    )
    + "\n"
)


@pytest.fixture(scope="session")
def tagset():
    return load_builtin_tagset()


@pytest.fixture(scope="session")
def asterisk(tagset):
    return load_builtin_mapping("asterisk", tagset)


@pytest.fixture(scope="session")
def schwa(tagset):
    return load_builtin_mapping("schwa", tagset)


@pytest.fixture(scope="session")
def example_corpus(tagset):
    from neogate import parse_corpus

    return parse_corpus(EXAMPLE_CORPUS_TEXT, tagset)


def exact_cwa(counts) -> Fraction:
    """COV * ACC / 100 in exact arithmetic; ACC is 0 when nothing matched."""
    cov = Fraction(100 * counts.matched, counts.annotations)
    acc = Fraction(100 * counts.correct, counts.matched) if counts.matched else 0
    return cov * acc / 100


def split_path(name: str) -> Path:
    env = os.environ.get(f"NEOGATE_{name.upper()}_CORPUS")
    return Path(env) if env else DATA_DIR / f"synthetic-{name}.tsv"


@pytest.fixture(scope="session")
def test_split(tagset):
    return load_corpus(split_path("test"), tagset)


@pytest.fixture(scope="session")
def dev_split(tagset):
    return load_corpus(split_path("dev"), tagset)


class _EchoHandler(BaseHTTPRequestHandler):
    """Replies with the bracketed English source of the last user message.

    It speaks HTTP/1.1 keep-alive with a ``Content-Length`` on every reply,
    as real endpoints do, so a client reuses its connections here as in use.
    Each reply goes out in one send (``wbufsize = -1`` buffers it up to the
    flush that ends the request): headers sent apart from the body meet
    Nagle's algorithm and the delayed ACK, and stall each request by ~40 ms.
    As a proxy it refuses every ``CONNECT`` tunnel with 502.

    ``server.script`` can hold a list of HTTP status codes to emit before
    behaving normally, with ``"garbage"`` for a body that is not JSON and
    ``"null"`` for a null ``content``; every request increments
    ``server.calls`` and appends its raw body to ``server.bodies`` and its
    ``(path, headers)`` to ``server.requests``. A request cut off before its
    whole body arrived is neither counted nor answered. With
    ``server.hold_after`` set to N, every reply after the Nth waits until
    ``server.release`` is set. With ``server.drop``, each connection is
    closed after its reply, without a ``Connection: close``.

    Each connection runs on its own thread, so the counts are kept under
    ``server.lock``; ``server.connections`` counts the accepted ones, and
    ``server.closed`` is released as each one closes. A keep-alive
    connection's thread lives until its client closes it, so the threads
    are not daemons and ``server_close()`` joins them at teardown: none
    outlives its test, where a later test counts live threads. A connection
    that the test left open is shut then, and fails the teardown.
    """

    protocol_version = "HTTP/1.1"
    wbufsize = -1

    def _send(self, status: int, payload: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection |= self.server.drop

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client went away mid-request
            self.close_connection = True
            return
        with server.lock:
            server.calls += 1
            server.bodies.append(raw)
            server.requests.append((self.path, dict(self.headers)))
            held = server.hold_after is not None and server.calls > server.hold_after
            status = server.script.pop(0) if server.script else 200
        if held:
            server.release.wait(30)
        if status == "garbage":
            return self._send(200, b"not json at all")
        if status == "null":
            return self._send(200, b'{"choices": [{"message": {"content": null}}]}')
        if status != 200:
            return self._send(status)
        source = ""
        for message in reversed(json.loads(raw).get("messages", []) if length else []):
            if message.get("role") == "user":
                found = re.search(r"\[English\] <(.*?)>", message.get("content", ""), re.S)
                if found:
                    source = found.group(1)
                break
        payload = json.dumps({"choices": [{"message": {"content": f"<{source}>"}}]})
        self._send(200, payload.encode("utf-8"))

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        self.server.requests.append((self.path, dict(self.headers)))
        self.send_error(502)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class _EchoServer(ThreadingHTTPServer):
    daemon_threads = False  # see _EchoHandler

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _EchoHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"
        self.lock = threading.Condition()
        self.calls = self.connections = 0
        self.bodies, self.requests, self.script = [], [], []
        self.hold_after, self.release = None, threading.Event()
        self.drop = False
        self.open = set()  # the sockets of the connections not yet closed
        self.closed = threading.Semaphore(0)

    def verify_request(self, request, client_address):
        with self.lock:
            self.connections += 1
            self.open.add(request)
        return True

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.open.discard(request)
            self.lock.notify_all()
        self.closed.release()


@pytest.fixture
def echo_server():
    server = _EchoServer()
    # a short poll, so shutdown() does not wait out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        thread.join(timeout=5)
        with server.lock:  # a connection that its client closed ends at once
            server.lock.wait_for(lambda: not server.open, timeout=2)
            left = list(server.open)
        for sock in left:  # ends its thread, so that server_close() cannot hang
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        server.server_close()
        assert not left, "the test left a connection open"
