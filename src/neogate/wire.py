"""HTTP/1.1 on a socket for ``runner.ChatClient``: the ``Host`` of an
endpoint, a connection to it, directly or through a ``CONNECT`` tunnel,
and one reply read into one buffer. The first client loads this module,
so a run whose prompts are all cached never compiles it.

A reply is framed by its ``Content-Length``, by chunks, or by the end of
the connection, and an interim (1xx) reply before it is skipped. Its
header block is bounded as ``http.client`` bounds it: at most
``MAX_HEADERS`` lines of at most ``MAX_LINE`` bytes each. A reply cut off,
or one that breaks the framing or the bounds, raises ``NetworkError``.
"""

from __future__ import annotations

import socket

from .errors import NeoGateError, NetworkError

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


def connect(
    address: tuple[str, int], timeout: float, tunnel: bytes, tls, server_hostname: str
) -> socket.socket:
    """A new connection to ``address`` with ``TCP_NODELAY`` set and
    ``timeout`` on the connect and each later blocking call. A ``tunnel``
    request is sent first, and any reply but 200 raises ``OSError``; then
    the ``tls`` context (an ``ssl.SSLContext``), if any, wraps the
    connection for ``server_hostname``."""
    sock = socket.create_connection(address, timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if tunnel:
            sock.sendall(tunnel)
            _, status, reason, _ = _Reader(sock, b"").head()
            if status != 200:
                raise OSError(f"Tunnel connection failed: {status} {reason.strip()}")
        if tls:
            sock = tls.wrap_socket(sock, server_hostname=server_hostname)
    except BaseException:
        sock.close()
        raise
    return sock


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
