"""Chat-completions endpoint stub for the benchmark, run as its own process.

It plays an oracle: for the source sentence in the last user message it
answers with the bracketed references in the shape the stage label asks
for, so extraction takes the same paths as with a real model. The
paradigm is read from the marker named in the prompt's instruction.

The server speaks HTTP/1.1 keep-alive and writes every response, headers
and body, in one send: a separate header write meets Nagle's algorithm and
the peer's delayed ACK and stalls each request by about 40 ms. Its listen
backlog is well above the client concurrency, so connections are not reset.

``GET /stats`` returns, and clears, the requests seen since the last call:
their count, arrival times (``time.monotonic``, comparable with the
caller's clock on Linux), service times and sources.

Every reply is held until ``DELAY_MS`` after the request arrived, so a
client sees a fixed endpoint latency.

Run: ``python3 perfbench/stub.py --refs refs.json --port-file port.txt``.
It exits on SIGTERM or when its parent process ends.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DELAY_MS = 10.0
_LAST_USER_RE = re.compile(r"\[English\] <(.*)>\n(\[[^\]\n]*\])\s*\Z", re.S)
_MARKER_RE = re.compile(r"neomorphemes? '([^']+)'")


class Oracle:
    """Answers a prompt with the references of its source sentence.

    ``refs`` maps a paradigm's singular marker to ``{source: [masculine,
    feminine, adapted]}``.
    """

    def __init__(self, refs: dict[str, dict[str, list[str]]]):
        self.refs = refs

    def answer(self, messages: list[dict]) -> tuple[str, str]:
        """Return (source, reply); raise KeyError for an unknown prompt."""
        users = [m["content"] for m in messages if m["role"] == "user"]
        marker = _MARKER_RE.search(users[0])
        last = _LAST_USER_RE.search(users[-1])
        if marker is None or last is None:
            raise KeyError("prompt without instruction or stage label")
        source, label = last.groups()
        masc, fem, adapted = self.refs[marker.group(1)][source]
        if label == "[Italian, masculine]":
            reply = f"<{masc}>\n[Italian, feminine] <{fem}>\n[Italian, neomorpheme] <{adapted}>"
        elif label == "[Italian, gendered]":
            reply = f"<{masc}>\n[Italian, neomorpheme] <{adapted}>"
        else:
            reply = f"<{adapted}>"
        return source, reply

    def complete(self, messages) -> str:
        """In-process stand-in for ``neogate.runner.ChatClient.complete``."""
        return self.answer([{"role": m.role, "content": m.content} for m in messages])[1]


class StubServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, address, oracle: Oracle):
        super().__init__(address, _Handler)
        self.oracle = oracle
        self.lock = threading.Lock()
        self.log: list[tuple[float, float, str]] = []  # arrival, service, source

    def take_stats(self) -> dict:
        with self.lock:
            log, self.log = self.log, []
        return {
            "requests": len(log),
            "arrivals": [a for a, _, _ in log],
            "service_s": [s for _, s, _ in log],
            "sources": [src for _, _, src in log],
        }


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _send(self, status: int, payload: bytes) -> None:
        reason = self.responses.get(status, ("",))[0]
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)

    def do_POST(self):  # noqa: N802 (http.server API)
        arrival = time.monotonic()
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
        try:
            source, reply = server.oracle.answer(body["messages"])
        except (KeyError, IndexError, TypeError) as exc:
            source, status = "", 500
            payload = json.dumps({"error": f"unknown prompt: {exc}"}).encode("utf-8")
        else:
            status = 200
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": reply}}]},
                ensure_ascii=False,
            ).encode("utf-8")
        wait = DELAY_MS / 1000 - (time.monotonic() - arrival)
        if wait > 0:
            time.sleep(wait)
        self._send(status, payload)
        with server.lock:
            server.log.append((arrival, time.monotonic() - arrival, source))

    def do_GET(self):  # noqa: N802 (http.server API)
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        self._send(200, json.dumps(self.server.take_stats()).encode("utf-8"))

    def log_message(self, *args):  # no per-request stderr noise
        pass


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--refs", required=True, help="JSON written by gen.write_refs")
    parser.add_argument("--port-file", required=True, help="the port is written here once listening")
    args = parser.parse_args()
    with open(args.refs, encoding="utf-8") as fh:
        oracle = Oracle(json.load(fh))
    server = StubServer(("127.0.0.1", 0), oracle)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    parent = os.getppid()
    while not stop.wait(0.2) and os.getppid() == parent:
        pass
    server.shutdown()
    thread.join(timeout=5)
    server.server_close()


if __name__ == "__main__":
    main()
