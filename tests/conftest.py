"""Shared fixtures: bundled tagset/mappings, reference corpus snippets, the
synthetic splits, and a scriptable local chat-completions endpoint."""

from __future__ import annotations

import gc
import json
import os
import re
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

    ``server.script`` can hold a list of HTTP status codes to emit before
    behaving normally, with ``"garbage"`` for a body that is not JSON and
    ``"null"`` for a null ``content``; every request increments
    ``server.calls`` and appends its raw body to ``server.bodies``. A
    request cut off before its whole body arrived is neither counted nor
    answered. Each request runs on its own thread, so the count is kept
    under a lock. With ``server.hold_after`` set to N, every reply after
    the Nth waits until ``server.release`` is set.
    """

    def do_POST(self):  # noqa: N802 (http.server API)
        server = self.server
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        if len(raw) < length:  # the client went away mid-request
            return
        with server.lock:
            server.calls += 1
            server.bodies.append(raw)
            held = server.hold_after is not None and server.calls > server.hold_after
        if held:
            server.release.wait(30)
        server.last_auth = self.headers.get("Authorization")
        body = json.loads(raw) if length else {}
        if server.script:
            status = server.script.pop(0)
            if status in ("garbage", "null"):
                self.send_response(200)
                self.end_headers()
                if status == "garbage":
                    self.wfile.write(b"not json at all")
                else:
                    self.wfile.write(b'{"choices": [{"message": {"content": null}}]}')
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
    server.bodies = []
    server.lock = threading.Lock()
    server.script = []
    server.last_auth = None
    server.hold_after = None
    server.release = threading.Event()
    # a short poll, so shutdown() does not wait out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
