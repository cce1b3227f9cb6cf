"""Shared fixtures: bundled tagset/mappings, reference corpus snippets, the
synthetic splits, and a scriptable local chat-completions endpoint."""

from __future__ import annotations

import json
import os
import re
import threading
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


def pytest_collection_modifyitems(items):
    here = Path(__file__).resolve().parent
    for item in items:
        if item.path.is_relative_to(here):
            for mark in LEAK_CHECKS:
                item.add_marker(mark)

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

    ``server.script`` can hold a list of HTTP status codes to emit before
    behaving normally; every request increments ``server.calls``. Each
    request runs on its own thread, so the count is kept under a lock.
    """

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        with server.lock:
            server.calls += 1
        server.last_auth = self.headers.get("Authorization")
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        if server.script:
            status = server.script.pop(0)
            if status == "garbage":
                self.send_response(200)
                self.end_headers()
                self.wfile.write(b"not json at all")
                return
            if status != 200:
                self.send_response(status)
                self.end_headers()
                return
        source = ""
        for message in reversed(body.get("messages", [])):
            if message.get("role") == "user":
                found = re.search(r"\[English\] <(.*?)>", message.get("content", ""), re.S)
                if found:
                    source = found.group(1)
                break
        payload = json.dumps({"choices": [{"message": {"content": f"<{source}>"}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode("utf-8"))

    def log_message(self, *args):  # silence per-request stderr noise
        pass


@pytest.fixture
def echo_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    server.calls = 0
    server.lock = threading.Lock()
    server.script = []
    server.last_auth = None
    # a short poll, so shutdown() does not wait out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
