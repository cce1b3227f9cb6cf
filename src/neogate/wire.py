"""The endpoint client ``ChatClient``, and HTTP/1.1 on a socket under it:
the ``Host`` of an endpoint, a connection to it, directly or through a
``CONNECT`` tunnel, and one reply read into one buffer. The first client
loads this module, so a run whose prompts are all cached never compiles it.

The client speaks keep-alive HTTP/1.1 on one socket per thread: each
request goes out in one ``sendall``, and ``read_reply`` reads each reply.
A reply is framed by its ``Content-Length``, by chunks, or by the end of
the connection, and an interim (1xx) reply before it is skipped. Its
header block is bounded as ``http.client`` bounds it: at most
``MAX_HEADERS`` lines of at most ``MAX_LINE`` bytes each. A reply cut off,
or one that breaks the framing or the bounds, raises ``NetworkError``.
"""

from __future__ import annotations

import json
import os
import re
import socket
import sys
import threading
import time
from typing import Sequence
from urllib.parse import unquote, urlunsplit

from .errors import NeoGateError, NetworkError
from .promptkit import ChatMessage
from .runner import API_KEY_ENV, ClientConfig, _closing, _logger, _opening, _rest, _split_url

MAX_LINE = 65536  # the longest reply line, with its line break
MAX_HEADERS = 100  # the most lines in a reply's header block
_RECV_SIZE = 65536


def authority(host: str, port: int, default_port: int = 0) -> str:
    """``host:port`` as a ``Host`` header or a ``CONNECT`` target names it:
    an IPv6 address in brackets without its zone, a non-ASCII name in IDNA,
    and no port when it is ``default_port``."""
    if ":" in host:
        host = f"[{host.partition('%')[0]}]"
    elif not host.isascii():
        try:
            host = host.encode("idna").decode("ascii")
        except UnicodeError:
            raise NeoGateError(f"endpoint host is not a valid IDNA name: {host!r}") from None
    return host if port == default_port else f"{host}:{port}"


class ChatClient:
    """Minimal chat-completions client with bounded retries.

    The proxy that ``HTTP(S)_PROXY``/``NO_PROXY`` name, the request head
    with the ``NEOGATE_API_KEY`` credential, and the TLS context are settled
    once, here, from one ``Host`` value without the URL's userinfo. The
    encoded head of the last prompt is kept, so prompts that share their
    messages but the last encode them once. Each
    calling thread keeps one keep-alive connection to the endpoint or proxy,
    idle between requests in one table by thread id, writes each request to
    it in one ``sendall`` and reads the reply with ``read_reply``; no
    redirects.
    """

    def __init__(self, config: ClientConfig):
        self.config = config
        url, port = _split_url(config.endpoint, ("http", "https"), "endpoint")
        https = url.scheme == "https"
        self._address = (url.hostname, port)
        target = urlunsplit(("", "", url.path or "/", url.query, ""))
        host = authority(url.hostname, port, 443 if https else 80)
        headers = ["Accept-Encoding: identity", "Content-Type: application/json"]
        self._tunnel = b""  # the CONNECT request that opens each connection
        proxy = None
        # outside macOS and Windows, urllib.request reads proxies from the
        # environment alone, and finds none without a *_proxy variable
        if sys.platform == "darwin" or os.name == "nt" or any(
            name.lower().endswith("_proxy") for name in os.environ
        ):
            from urllib.request import getproxies, proxy_bypass

            proxy = None if proxy_bypass(host) else getproxies().get(url.scheme)
        if proxy:
            if "://" not in proxy:
                proxy = "http://" + proxy
            parsed, proxy_port = _split_url(proxy, ("http",), "proxy")
            auth = []
            if parsed.username:
                import base64

                userinfo = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}"
                credential = base64.b64encode(userinfo.encode()).decode()
                auth.append(f"Proxy-Authorization: Basic {credential}")
            if https:
                connect = f"CONNECT {authority(url.hostname, port)} HTTP/1.0"
                self._tunnel = "\r\n".join([connect, *auth, "", ""]).encode("latin-1")
            else:
                target = f"http://{host}{target}"  # a forward proxy takes the absolute URI
                headers += auth
            self._address = (parsed.hostname, proxy_port)
        # what would not go on the wire as it is fails here, before any request
        for what, text in (("request target", target), ("host", host)):
            if not text.isascii():
                raise NeoGateError(f"endpoint {what} is not ASCII: {text!r}")
            if " " in text or not text.isprintable():
                raise NeoGateError(
                    f"endpoint {what} holds a space or a control character: {text!r}"
                )
        if api_key := os.environ.get(API_KEY_ENV):
            if "\r" in api_key or "\n" in api_key or max(api_key) > "\xff":
                raise NeoGateError(f"{API_KEY_ENV} holds a line break or a non-Latin-1 character")
            headers.append(f"Authorization: Bearer {api_key}")
        # each request appends its length, a blank line and its body
        self._head = "\r\n".join(
            [f"POST {target} HTTP/1.1", f"Host: {host}", *headers, "Content-Length: "]
        ).encode("latin-1")
        self._hostname = url.hostname  # the name that TLS checks
        self._tls = None
        if https:
            import ssl

            self._tls = ssl.create_default_context()
        self._idle: dict = {}  # thread id -> its open connection, while no request uses it
        self._closing = _closing(config.model, config.temperature)
        # (the messages but the last of the last prompt, their _opening),
        # replaced whole, so no thread pairs one head with another's bytes
        self._last_head: tuple = (None, b"")

    def _connect(self) -> socket.socket:
        """A new connection with ``TCP_NODELAY`` and the client's timeout on
        each blocking call: through the ``CONNECT`` tunnel, if any, where a
        reply but 200 raises ``OSError``, then wrapped in TLS, if any."""
        sock = socket.create_connection(self._address, self.config.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                _, status, reason, _ = _Reader(sock, b"").head()
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} {reason.strip()}")
            if self._tls:
                sock = self._tls.wrap_socket(sock, server_hostname=self._hostname)
        except BaseException:
            sock.close()
            raise
        return sock

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` on this thread's connection, in one ``sendall``, and
        read the reply. When a reused connection is closed or reset before
        the reply's first byte, the request is sent once more on a new one.
        After any other failure, or a reply that ends the connection, the
        next request opens a new one."""
        request = b"".join((self._head, b"%d\r\n\r\n" % len(body), body))
        thread = threading.get_ident()
        sock = self._idle.pop(thread, None)
        reused = sock is not None
        while True:
            sock = sock or self._connect()
            first = b""
            try:
                sock.sendall(request)
                if not (first := sock.recv(65536)):
                    raise ConnectionResetError("the connection closed before the reply")
                status, data, keep = read_reply(sock, first)
            except BaseException as exc:
                sock.close()
                if not (reused and not first and isinstance(exc, ConnectionError)):
                    raise
                sock, reused = None, False
                continue
            if keep:
                self._idle[thread] = sock
            else:
                sock.close()
            return status, data

    def close(self) -> None:
        """Close every idle connection; call when no request is in flight."""
        while self._idle:
            self._idle.popitem()[1].close()

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        """The reply's content. A failed attempt (network error, malformed
        reply, status other than 200, no string content) is logged and
        retried ``max_retries`` times, then ``NetworkError`` is raised; a
        401/403 raises at once."""
        head = messages[:-1]
        last, opening = self._last_head
        if head != last:
            opening = _opening(head)
            self._last_head = (head, opening)
        body = opening + _rest(messages[-1:], self._closing)  # request_body(messages, ...)
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(2.0, 0.1 * 2 ** attempt))
            try:
                status, data = self._post(body)
                if status in (401, 403):
                    raise NeoGateError(f"endpoint rejected credentials ({status})")
                if status != 200:
                    raise NetworkError(f"HTTP {status}")
                content = json.loads(data)["choices"][0]["message"]["content"]
                if not isinstance(content, str):  # null for a refusal or a tool call
                    raise TypeError(f"content is {type(content).__name__}, not a string")
                # a lone surrogate, as of an emoji cut in two, has no UTF-8
                return re.sub("[\ud800-\udfff]", "\ufffd", content)
            except (OSError, NetworkError, ValueError, LookupError, TypeError) as exc:
                last_error = exc
                _logger().warning("attempt %d failed: %r", attempt + 1, exc)
        raise NetworkError(f"retries exhausted: {last_error}")


def read_reply(sock: socket.socket, data: bytes) -> tuple[int, bytes, bool]:
    """The status and body of the reply on ``sock`` that begins with
    ``data``, and whether the connection can carry the next request."""
    reader = _Reader(sock, data)
    version, status, _, fields = reader.head()
    return (status, *reader.body(version, status, fields))


class _Reader:
    """One reply read from ``sock`` into one buffer that starts with ``data``."""

    def __init__(self, sock: socket.socket, data: bytes):
        self.sock = sock
        self.buf = bytearray(data)
        self.pos = 0  # the start of the bytes not read yet

    def _more(self) -> None:
        data = self.sock.recv(_RECV_SIZE)
        if not data:
            raise NetworkError("the connection closed mid-reply")
        self.buf += data

    def line(self) -> str:
        """The next line, without its line break."""
        buf, pos = self.buf, self.pos
        while (end := buf.find(b"\n", pos)) < 0 and len(buf) - pos < MAX_LINE:
            self._more()
        if not 0 <= end - pos < MAX_LINE:
            raise NetworkError(f"a reply line is over {MAX_LINE} bytes")
        self.pos = end + 1
        return buf[pos:end].decode("latin-1").removesuffix("\r")

    def take(self, size: int) -> bytes:
        """The next ``size`` bytes."""
        start, end = self.pos, self.pos + size
        while len(self.buf) < end:
            self._more()
        self.pos = end
        return bytes(self.buf[start:end])

    def head(self) -> tuple[str, int, str, dict[str, str]]:
        """The version, status and reason of the reply after any interim
        (1xx) one, and its header fields: each name lower-cased, with the
        value of its first line. An obs-fold, a line that starts with a space
        or a tab, is unfolded into the line above it with one space."""
        while True:
            line = self.line()
            version, status, reason = (line.split(None, 2) + ["", ""])[:3]
            if not (version.startswith("HTTP/1.") and len(status) == 3 and status.isdecimal()):
                raise NetworkError(f"bad status line: {line!r}")
            lines: list[str] = []
            for _ in range(MAX_HEADERS + 1):
                if not (line := self.line()):
                    break
                if line[0] not in " \t":
                    lines.append(line)
                elif lines:  # with no line above, it is dropped (RFC 9112 §2.2)
                    lines[-1] += " " + line.strip()
            else:
                raise NetworkError(f"more than {MAX_HEADERS} header lines in a reply")
            fields: dict[str, str] = {}
            for name, _, value in (line.partition(":") for line in lines):
                fields.setdefault(name.strip().lower(), value.strip())
            if int(status) >= 200:
                return version, int(status), reason, fields

    def body(self, version: str, status: int, fields: dict[str, str]) -> tuple[bytes, bool]:
        """The body of the reply whose head is given, and whether the
        connection can carry the next request."""
        connection = fields.get("connection", "").lower()
        if version == "HTTP/1.0":
            keep = "keep-alive" in connection or "keep-alive" in fields
        else:
            keep = "close" not in connection
        try:
            length = int(fields["content-length"])
        except (KeyError, ValueError):
            length = -1
        if status in (204, 304):
            body = b""
        elif fields.get("transfer-encoding", "").lower() == "chunked":
            body = self.chunked()
        elif length >= 0:
            body = self.take(length)
        else:  # the body runs to the end of the connection
            while data := self.sock.recv(_RECV_SIZE):
                self.buf += data
            body, keep = self.take(len(self.buf) - self.pos), False
        # bytes past the reply would be taken for the next one
        return body, keep and self.pos == len(self.buf)

    def chunked(self) -> bytes:
        """A body in chunks, each of a hexadecimal size line (extensions after
        ``;`` ignored) and its bytes, then a zero size and the trailer."""
        body = bytearray()
        while size := int(self.line().partition(";")[0], 16):
            if size < 0:
                raise NetworkError(f"a negative chunk size: {size}")
            body += self.take(size)
            if self.line():
                raise NetworkError("a chunk is longer than its size")
        while self.line():  # the trailer's fields are not used
            pass
        return bytes(body)
