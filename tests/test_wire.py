"""``wire.read_reply`` against a fake socket: every framing read back
exactly, in any split into ``recv`` results, and any bytes refused
cleanly. No network."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neogate import wire
from neogate.errors import NetworkError


class FakeSocket:
    """Serves ``pieces`` to ``recv`` one at a time, then ``b""`` (the peer closed)."""

    def __init__(self, pieces: list[bytes]):
        self.pieces = pieces

    def recv(self, size: int) -> bytes:
        return self.pieces.pop(0) if self.pieces else b""


def split(data: bytes, sizes: list[int]) -> list[bytes]:
    """``data`` cut into pieces of ``sizes``, taken in turn; the last piece
    takes what is left."""
    pieces, at = [], 0
    while at < len(data):
        size = sizes[len(pieces) % len(sizes)]
        pieces.append(data[at : at + size])
        at += size
    return pieces


def read(pieces: list[bytes]) -> tuple[int, bytes, bool]:
    """``read_reply`` as ``ChatClient`` calls it: after one first ``recv``."""
    sock = FakeSocket(pieces)
    return wire.read_reply(sock, sock.recv(65536))


SIZES = st.lists(st.integers(1, 64), min_size=1, max_size=8)


@st.composite
def chunked(draw, body: bytes, eol: bytes) -> bytes:
    """``body`` in chunks of random sizes, each size in hexadecimal of
    either case, perhaps with leading zeros and an ``;ext``, then a last
    chunk and a trailer of random lines."""
    pieces, rest = [], body
    while rest:
        size = draw(st.integers(1, len(rest)))
        pieces.append(rest[:size])
        rest = rest[size:]

    def size_line(n: int) -> bytes:
        digits = draw(st.sampled_from(["x", "X", "03x"]))
        ext = draw(st.sampled_from(["", ";ext", ";name=value", ' ; q="a;b"']))
        return (format(n, digits) + ext).encode() + eol

    out = b"".join(size_line(len(p)) + p + eol for p in pieces) + size_line(0)
    trailer = draw(st.lists(st.sampled_from([b"X-Checksum: 1", b"Expires: 0"]), max_size=2))
    return out + b"".join(line + eol for line in trailer) + eol


@st.composite
def replies(draw) -> tuple[bytes, bytes, tuple[int, bytes, bool]]:
    """The bytes of one reply, perhaps after interim (1xx) ones; the bytes
    that follow it, if any; and what ``read_reply`` must return."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    version = draw(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]))
    framing = draw(st.sampled_from(["length", "chunked", "close", "no body"]))
    if framing == "no body":
        status, body = draw(st.sampled_from([204, 304])), b""
    else:
        status = draw(st.integers(200, 599).filter(lambda s: s not in (204, 304)))
        body = draw(st.binary(max_size=200))
    connection = draw(st.sampled_from([None, "close", "Close", "keep-alive", "Keep-Alive",
                                       "upgrade, close"]))
    fields = [("X-Filler", "v")]
    if connection:
        fields.append(("Connection", connection))
    if framing == "length":
        fields.append((draw(st.sampled_from(["Content-Length", "content-length"])), str(len(body))))
    elif framing == "chunked":
        fields.append(("Transfer-Encoding", draw(st.sampled_from(["chunked", "Chunked"]))))
    fields = draw(st.permutations(fields))
    reason = draw(st.sampled_from(["", " OK", " Some reason"]))

    def head(code: int, fields, reason: str) -> bytes:
        lines = [f"{version} {code}{reason}", *(f"{k}: {v}" for k, v in fields), ""]
        return b"".join(line.encode() + eol for line in lines)

    interim = draw(st.lists(st.sampled_from([100, 102, 103]), max_size=2))
    data = b"".join(head(code, [("Link", "</a>")] * (code == 103), " Info") for code in interim)
    data += head(status, fields, reason)
    data += draw(chunked(body, eol)) if framing == "chunked" else body
    conn = (connection or "").lower()
    keep = "keep-alive" in conn if version == "HTTP/1.0" else "close" not in conn
    after = b"" if framing == "close" else draw(st.sampled_from([b"", b"HTTP/1.1 200 OK\r\n"]))
    return data, after, (status, body, keep and framing != "close" and not after)


@given(replies(), SIZES)
def test_a_reply_in_any_framing_and_any_split_is_read_back(reply, sizes):
    data, after, expected = reply
    pieces = split(data, sizes)
    pieces[-1] += after  # in the reply's last segment, so it is seen
    assert read(pieces) == expected


def mutated(data: bytes, edits: list[tuple[int, int, bytes]]) -> bytes:
    """``data`` with each (position, cut length, insert) edit applied."""
    for at, cut, insert in edits:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + cut :]
    return data


EDITS = st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 4), st.binary(max_size=4)),
                 max_size=3)
ANY_BYTES = st.one_of(
    st.binary(max_size=300),
    st.builds(lambda reply, edits: mutated(reply[0] + reply[1], edits), replies(), EDITS),
)


@given(ANY_BYTES, SIZES)
def test_any_bytes_give_a_reply_or_a_clean_error(data, sizes):
    try:
        status, body, keep = read(split(data, sizes))
    except (NetworkError, ValueError):
        return
    assert 200 <= status <= 999 and isinstance(body, bytes) and isinstance(keep, bool)


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"HTTP/1.1 200 OK\r\n\r\nup to the end", (200, b"up to the end", False)),
        (b"HTTP/1.1 204 No Content\r\n\r\n", (204, b"", True)),
        (b"HTTP/1.1 304 Not Modified\r\nContent-Length: 5\r\n\r\n", (304, b"", True)),
        (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\nok",
         (200, b"ok", True)),
        (b"HTTP/1.0 200 OK\r\nKeep-Alive: timeout=5\r\nContent-Length: 2\r\n\r\nok",
         (200, b"ok", True)),
        (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", (200, b"ok", False)),
    ],
    ids=["read-to-close", "204", "304", "http-1.0-connection-keep-alive",
         "http-1.0-keep-alive-field", "http-1.0-default-close"],
)
def test_scripted_replies(data, expected):
    assert read([data]) == expected


@pytest.mark.parametrize(
    "data, message",
    [
        (b"HTTP/2 200 OK\r\n\r\n", "bad status line: 'HTTP/2 200 OK'"),
        (b"HTTP/1.1 2000 OK\r\n\r\n", "bad status line: 'HTTP/1.1 2000 OK'"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n-5\r\nabcde\r\n0\r\n\r\n",
         "a negative chunk size: -5"),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabc\r\n0\r\n\r\n",
         "a chunk is longer than its size"),
    ],
    ids=["bad-version", "bad-status", "negative-chunk-size", "chunk-longer-than-its-size"],
)
def test_scripted_broken_replies(data, message):
    with pytest.raises(NetworkError) as raised:
        read([data])
    assert str(raised.value) == message
