"""Shared fixtures: bundled tagset/mappings, reference corpus snippets, the
synthetic splits, and a scriptable local chat-completions endpoint."""

from __future__ import annotations

import contextlib
import gc
import json
import os
import re
import socket
import ssl
import sys
import threading
import time
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
    As a proxy it refuses every ``CONNECT`` tunnel with 502, unless
    ``server.tunnel`` holds a TLS context: then it answers 200 and serves the
    tunnel itself, over TLS.

    ``server.script`` can hold a list of HTTP status codes to emit before
    behaving normally, with ``"garbage"`` for a body that is not JSON and
    ``"null"`` for a null ``content``. Other values send the usual reply in
    another shape: ``"chunked"`` in two chunks, the first with an extension,
    then a trailer; ``"close"`` with ``Connection: close``; ``"continue"``
    after a ``100 Continue``; ``"trickle"`` a few bytes per send;
    ``("headers", N)`` with N header lines; ``"long line"`` with a header
    line over 64 KiB; ``"cut"`` with half its body, and then the connection
    is closed; ``"folded length"`` with its ``Content-Length`` value on a
    folded line (an obs-fold); ``"folded close"`` with ``Connection:
    keep-alive,`` and then ``close`` on a folded line; ``"half emoji"`` with
    the first half of a surrogate pair at the end of its content, as of an
    emoji cut in two. ``server.model_in_reply`` puts the request's ``model`` before
    the source, as ``<model source>``. Every request increments
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

    def _send(self, status: int, payload: bytes = b"", *headers: tuple[str, str]) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection |= self.server.drop

    def _send_shaped(self, shape, payload: bytes) -> None:
        """Send a 200 with ``payload`` in the ``shape`` that ``script`` names."""
        if shape == "close":
            return self._send(200, payload, ("Connection", "close"))
        if shape == "continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            return self._send(200, payload)
        if shape == "chunked":
            half = len(payload) // 2
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"%x;name=value\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n"
                % (half, payload[:half], len(payload) - half, payload[half:])
            )
            return
        if shape == "long line":
            return self._send(200, payload, ("X-Filler", "x" * 65536))
        if shape in ("folded length", "folded close"):  # an obs-fold in the head
            fields = {
                "folded length": b"Content-Length:\r\n %d",
                "folded close": b"Connection: keep-alive,\r\n close\r\nContent-Length: %d",
            }[shape]
            self.wfile.write(b"HTTP/1.1 200 OK\r\n%s\r\n\r\n%s" % (fields % len(payload), payload))
            return
        if shape == "cut":
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(payload)
                + payload[: len(payload) // 2]
            )
            self.close_connection = True
            return
        if isinstance(shape, tuple):  # ("headers", N)
            fillers = [b"X-Filler-%d: x\r\n" % i for i in range(shape[1] - 1)]
            self.wfile.write(
                b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s"
                % (b"".join(fillers), len(payload), payload)
            )
            return
        assert shape == "trickle", shape
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload)
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start in range(0, len(reply), 7):
            self.connection.sendall(reply[start : start + 7])
            time.sleep(0.001)

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
        if isinstance(status, int) and status != 200:
            return self._send(status)
        request = json.loads(raw) if length else {}
        source = ""
        for message in reversed(request.get("messages", [])):
            if message.get("role") == "user":
                found = re.search(r"\[English\] <(.*?)>", message.get("content", ""), re.S)
                if found:
                    source = found.group(1)
                break
        if server.model_in_reply:
            source = f"{request.get('model')} {source}"
        if status == "half emoji":
            source, status = source + " \ud83d", 200
        payload = json.dumps({"choices": [{"message": {"content": f"<{source}>"}}]})
        if status == 200:
            self._send(200, payload.encode("utf-8"))
        else:
            self._send_shaped(status, payload.encode("utf-8"))

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        self.server.requests.append((self.path, dict(self.headers)))
        if self.server.tunnel is None:
            return self.send_error(502)
        # the tunnel ends here: this connection goes on over TLS
        self.send_response(200)
        self.end_headers()
        self.wfile.flush()
        self.rfile.close()
        self.wfile.close()
        self.connection = self.server.tunnel.wrap_socket(self.connection, server_side=True)
        self.rfile = self.connection.makefile("rb", self.rbufsize)
        self.wfile = self.connection.makefile("wb", self.wbufsize)
        self.close_connection = False  # a CONNECT may be HTTP/1.0

    def finish(self):
        super().finish()
        if self.connection is not self.request:  # the TLS socket of a tunnel
            self.connection.close()

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class _EchoServer(ThreadingHTTPServer):
    daemon_threads = False  # see _EchoHandler

    def __init__(self, host: str = "127.0.0.1", tls: ssl.SSLContext | None = None):
        if ":" in host:
            self.address_family = socket.AF_INET6
        super().__init__((host, 0), _EchoHandler)
        authority = f"[{host}]" if ":" in host else host
        scheme = "https" if tls else "http"
        self.url = f"{scheme}://{authority}:{self.server_address[1]}/v1/chat/completions"
        self.tls = tls  # what each accepted connection is wrapped in
        self.tunnel = None  # with a TLS context, what each CONNECT tunnel is wrapped in
        self.lock = threading.Condition()
        self.calls = self.connections = 0
        self.bodies, self.requests, self.script = [], [], []
        self.hold_after, self.release = None, threading.Event()
        self.drop = self.model_in_reply = False
        self.open = set()  # the sockets of the connections not yet closed
        self.closed = threading.Semaphore(0)

    def get_request(self):
        sock, address = super().get_request()
        return (self.tls.wrap_socket(sock, server_side=True) if self.tls else sock), address

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
    yield from _serve(_EchoServer())


@pytest.fixture
def echo_server_ipv6():
    """The echo server on ``::1``; the test is skipped where that cannot be bound."""
    try:
        server = _EchoServer("::1")
    except OSError as exc:
        pytest.skip(f"no IPv6 loopback: {exc}")
    yield from _serve(server)


@pytest.fixture(scope="session")
def tls_certificates(tmp_path_factory):
    """A CA certificate, and the certificate and key that it issued to a
    server named localhost, 127.0.0.1 and neogate.invalid; needs the
    ``cryptography`` package, or the test is skipped."""
    import datetime
    import ipaddress

    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    def issue(subject, key, issuer, issuer_key, ca: bool, *extensions):
        now = datetime.datetime.now(datetime.timezone.utc)
        builder = (
            x509.CertificateBuilder()
            .subject_name(x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, subject)]))
            .issuer_name(x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, issuer)]))
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=1))
            .not_valid_after(now + datetime.timedelta(days=1))
            .add_extension(x509.BasicConstraints(ca=ca, path_length=None), critical=True)
            .add_extension(x509.SubjectKeyIdentifier.from_public_key(key.public_key()), False)
            .add_extension(
                x509.AuthorityKeyIdentifier.from_issuer_public_key(issuer_key.public_key()), False
            )
        )
        for extension in extensions:
            builder = builder.add_extension(extension, critical=False)
        return builder.sign(issuer_key, hashes.SHA256())

    ca_key, key = ec.generate_private_key(ec.SECP256R1()), ec.generate_private_key(ec.SECP256R1())
    ca = issue("neogate test CA", ca_key, "neogate test CA", ca_key, True,
               x509.KeyUsage(False, False, False, False, False, True, True, False, False))
    names = [x509.DNSName("localhost"), x509.DNSName("neogate.invalid"),
             x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]
    cert = issue("localhost", key, "neogate test CA", ca_key, False,
                 x509.SubjectAlternativeName(names),
                 x509.ExtendedKeyUsage([x509.ExtendedKeyUsageOID.SERVER_AUTH]))
    directory = tmp_path_factory.mktemp("tls")
    pem = serialization.Encoding.PEM
    (directory / "ca.pem").write_bytes(ca.public_bytes(pem))
    (directory / "cert.pem").write_bytes(cert.public_bytes(pem))
    (directory / "key.pem").write_bytes(
        key.private_bytes(pem, serialization.PrivateFormat.PKCS8, serialization.NoEncryption())
    )
    return directory / "ca.pem", directory / "cert.pem", directory / "key.pem"


@pytest.fixture
def tls_context(tls_certificates, monkeypatch):
    """A server context with the test certificate; a client's default
    context trusts its CA, through ``SSL_CERT_FILE``."""
    ca, cert, key = tls_certificates
    monkeypatch.setenv("SSL_CERT_FILE", str(ca))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    return context


@pytest.fixture
def echo_server_tls(tls_context):
    """The echo server over TLS, with the test certificate."""
    yield from _serve(_EchoServer(tls=tls_context))


def _serve(server: _EchoServer):
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
