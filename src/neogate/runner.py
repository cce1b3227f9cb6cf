"""Execute prompts against a chat-completion HTTP endpoint with an
append-only JSONL response cache, bounded retries, and corpus-ordered
hypothesis export.

The wire format is a chat-completions-style JSON body (``model``,
``messages``, ``temperature``); the reply must carry the completion text
at ``choices[0].message.content``. Cache entries are keyed by a digest of
the serialized messages plus model name and temperature, so re-running an
unchanged configuration never touches the network. A run looks every
prompt up first; the HTTP client, its thread pool and the stdlib network
modules are loaded only when some prompt is missing from the cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import unquote, urlsplit, urlunsplit

from .corpus import Entry
from .errors import NeoGateError
from .promptkit import (
    ChatMessage,
    Exemplar,
    PromptSpec,
    extract_translation,
    final_message,
    prompt_head,
)

logger = logging.getLogger(__name__)

API_KEY_ENV = "NEOGATE_API_KEY"


class NetworkError(NeoGateError):
    """The endpoint stayed unreachable after all retries."""


class AuthError(NeoGateError):
    """The endpoint rejected the credential; the run is aborted."""


class CacheCorruption(NeoGateError):
    """The cache file contains an unreadable record."""


class MissingEntry(NeoGateError):
    """The run records do not cover the corpus."""


@dataclass(frozen=True)
class ClientConfig:
    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 2
    rate_limit: float = 0.0  # requests per second; 0 disables throttling
    concurrency: int = 1


@dataclass(frozen=True)
class RunRecord:
    entry_id: str
    prompt_hash: str
    raw: str
    outcome: str  # "ok" | "unparseable" | "failed"
    translation: str | None
    model: str
    requested_at: str
    completed_at: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


_RECORD_FIELDS = frozenset(RunRecord.__dataclass_fields__)


def _message_json(m: ChatMessage) -> str:
    # json.dumps({"role": ..., "content": ...}, ensure_ascii=False, sort_keys=True)
    return f'{{"content": {encode_basestring(m.content)}, "role": {encode_basestring(m.role)}}}'


def prompt_hasher(
    head: Sequence[ChatMessage], model: str, temperature: float
) -> Callable[[Sequence[ChatMessage]], str]:
    """The ``prompt_hash`` of ``head + rest`` as a function of ``rest``,
    with ``head`` hashed once; ``rest`` must not be empty unless ``head`` is.

    The digest is the SHA-256 of ``json.dumps({"model": model,
    "temperature": temperature, "messages": [{"role": ..., "content":
    ...}, ...]}, ensure_ascii=False, sort_keys=True)``.
    """
    opening = hashlib.sha256(
        "".join(['{"messages": [', *(_message_json(m) + ", " for m in head)]).encode("utf-8")
    )
    closing = (
        f'], "model": {json.dumps(model, ensure_ascii=False)}, '
        f'"temperature": {json.dumps(temperature)}}}'
    )

    def digest(rest: Sequence[ChatMessage]) -> str:
        h = opening.copy()
        h.update((", ".join(map(_message_json, rest)) + closing).encode("utf-8"))
        return h.hexdigest()

    return digest


def prompt_hash(messages: Sequence[ChatMessage], model: str, temperature: float) -> str:
    """Stable digest of a prompt: message list plus model and temperature."""
    return prompt_hasher((), model, temperature)(messages)


_INDEX_VERSION = 2


def _line_text(data: bytearray, start: int, end: int) -> str:
    return data[start:end].decode("utf-8", errors="replace").strip()


class JsonlCache:
    """Append-only JSONL store of run records indexed by prompt hash.

    Every line is checked once. The sidecar ``<path>.idx`` holds the length
    of a prefix that a load has checked, the byte span of each hash's last
    record in it, and one SHA-256 over that prefix and those spans. A load
    whose sidecar digest matches checks only the lines after that prefix;
    any other load checks the whole file. Only ``save_index`` writes the
    sidecar. A ``RunRecord`` is decoded from its line only when it is read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.index_path = self.path.with_name(self.path.name + ".idx")
        self._lock = threading.Lock()
        # the checked file content, then this instance's appends
        self._data = bytearray()
        # prompt hash -> (start, end) of its last record in _data
        self._index: dict[str, Sequence[int]] = {}
        self._indexed = 0  # the length of _data that the sidecar covers
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            # read into one buffer: the file is held, not also copied
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
            data += fh.read()
        self._data = data
        self._indexed = self._checked_prefix()
        end = self._check(self._indexed)
        if end < len(data):
            # a crash cut the last append short: cut the fragment off, or
            # the next put would join it
            logger.warning("%s: dropping torn last record at byte offset %d", self.path, end)
            os.truncate(self.path, end)
            del data[end:]

    def _checked_prefix(self) -> int:
        """The length of the prefix that the sidecar vouches for, taking
        its index; 0 when the sidecar is missing, unreadable or malformed,
        or its digest does not match the file and the index."""
        data = self._data
        try:
            header, _, body = self.index_path.read_bytes().partition(b"\n")
            saved = json.loads(header)
            length = saved["length"]
            if not (
                saved["version"] == _INDEX_VERSION
                and type(length) is int
                and 0 < length <= len(data)
                and data[length - 1] == 0x0A  # a line boundary
            ):
                return 0
            with memoryview(data) as view:
                digest = hashlib.sha256(view[:length])
            digest.update(body)
            if digest.hexdigest() != saved["sha256"]:
                return 0
            index = json.loads(body)
        except (OSError, ValueError, LookupError, TypeError):
            return 0
        if not isinstance(index, dict):
            return 0
        self._index = index
        return length

    def _check(self, offset: int) -> int:
        """Check and index every whole line from ``offset``; returns the
        end of the last one."""
        data, index = self._data, self._index
        while end := data.find(b"\n", offset) + 1:
            line = _line_text(data, offset, end)
            if line:
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or not _RECORD_FIELDS <= record.keys():
                        raise ValueError("not an object with every run record field")
                    if not isinstance(record["prompt_hash"], str):
                        raise ValueError("prompt_hash is not a string")
                except ValueError as exc:  # JSONDecodeError included
                    raise CacheCorruption(
                        f"{self.path}: bad record at byte offset {offset}: {exc}"
                    ) from exc
                index[record["prompt_hash"]] = (offset, end)
            offset = end
        return offset

    def save_index(self) -> None:
        """Write the sidecar for the records this instance holds, unless it
        covers them already: a header line with the length and digest, then
        the index. The sidecar is replaced atomically. One that cannot be
        written only costs the next load a full check, and a torn one is
        never trusted, so it is neither synced nor reported."""
        with self._lock:
            length = len(self._data)
            if length <= self._indexed:
                return
            body = json.dumps(self._index).encode("ascii")
            with memoryview(self._data) as view:
                digest = hashlib.sha256(view[:length])
            digest.update(body)
            self._indexed = length
        header = {"version": _INDEX_VERSION, "length": length, "sha256": digest.hexdigest()}
        tmp = self.index_path.with_name(
            f"{self.index_path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
        )
        try:
            with open(tmp, "wb") as fh:
                fh.write(json.dumps(header).encode("ascii") + b"\n")
                fh.write(body)
            os.replace(tmp, self.index_path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()

    def _record(self, key: str, span: Sequence[int]) -> RunRecord:
        try:
            fields = json.loads(_line_text(self._data, *span))
            if fields["prompt_hash"] == key:
                return RunRecord.from_json(fields)
        except (ValueError, LookupError, TypeError):
            pass
        # every checked span holds its own hash's record, so the sidecar
        # is wrong: drop it, and the next load checks the whole file
        with contextlib.suppress(OSError):
            self.index_path.unlink()
        raise CacheCorruption(
            f"{self.index_path}: no record of {key} where the index points; "
            "the index was removed, run again"
        )

    def get(self, key: str) -> RunRecord | None:
        with self._lock:
            span = self._index.get(key)
            return None if span is None else self._record(key, span)

    def records(self) -> list[RunRecord]:
        with self._lock:
            return [self._record(key, span) for key, span in self._index.items()]

    def put(self, record: RunRecord) -> None:
        line = (record.to_json() + "\n").encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as fh:
                fh.write(line)
            start = len(self._data)
            self._data += line
            self._index[record.prompt_hash] = (start, len(self._data))

    def __len__(self) -> int:
        return len(self._index)


class _Throttle:
    def __init__(self, rate: float):
        self.interval = 1.0 / rate if rate > 0 else 0.0
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        if not self.interval:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self.interval
        if delay > 0:
            time.sleep(delay)


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _split_url(url: str, schemes: tuple[str, ...], what: str):
    """The parts and port of an absolute URL with one of ``schemes``.

    The port is explicit even when the URL has none: from a bare
    ``"::1"``, ``http.client`` would take port 1.
    """
    try:
        parts = urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
    except ValueError:  # a bracket or port that does not parse
        parts = None
    if parts is None or parts.scheme not in schemes or not parts.hostname:
        raise NeoGateError(f"{what} is not an {' or '.join(schemes)} URL: {url!r}")
    return parts, port


class ChatClient:
    """Minimal chat-completions client with bounded retries.

    Each thread that calls ``complete`` keeps one persistent connection to
    the endpoint, or to the proxy that ``HTTP(S)_PROXY``/``NO_PROXY`` name
    for it; the proxy is resolved once, here. Redirects are not followed.
    """

    def __init__(self, config: ClientConfig):
        # loaded by the first client, not with the module: a run whose
        # prompts are all cached never needs them
        import base64
        import http.client
        import ssl
        from urllib.request import getproxies, proxy_bypass

        self.config = config
        url, port = _split_url(config.endpoint, ("http", "https"), "endpoint")
        https = url.scheme == "https"
        address = (url.hostname, port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        self._tunnel = None
        proxy = None if proxy_bypass(url.netloc) else getproxies().get(url.scheme)
        if proxy:
            if "://" not in proxy:
                proxy = "http://" + proxy
            parsed, proxy_port = _split_url(proxy, ("http",), "proxy")
            proxy_headers = {}
            if parsed.username:
                userinfo = f"{unquote(parsed.username)}:{unquote(parsed.password or '')}"
                proxy_headers["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(userinfo.encode()).decode()
                )
            if https:
                self._tunnel = (*address, proxy_headers)
            else:
                # a forward proxy takes the absolute URI
                self._target = urlunsplit(url._replace(fragment=""))
                self._headers.update(proxy_headers)
            address = (parsed.hostname, proxy_port)
        if https:
            self._new_connection = partial(
                http.client.HTTPSConnection,
                *address,
                timeout=config.timeout,
                context=ssl.create_default_context(),
            )
        else:
            self._new_connection = partial(
                http.client.HTTPConnection, *address, timeout=config.timeout
            )
        self._errors = (OSError, http.client.HTTPException)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._new_connection()
            if self._tunnel:
                conn.set_tunnel(*self._tunnel)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    def _post(self, body: bytes, headers: dict[str, str]) -> tuple[int, bytes]:
        """POST on this thread's connection (``connect`` sets TCP_NODELAY).
        When the server has closed a reused keep-alive connection, the
        request is sent once more on a new one."""
        conn = self._connection()
        reused = conn.sock is not None
        while True:
            try:
                conn.request("POST", self._target, body, headers)
                response = conn.getresponse()
                return response.status, response.read()
            except self._errors as exc:
                conn.close()  # the next request opens a new connection
                if not (reused and isinstance(exc, ConnectionError)):
                    raise
                reused = False

    def close(self) -> None:
        """Close every thread's connection; call when no request is in flight."""
        with self._lock:
            for conn in self._connections:
                conn.close()

    def complete(self, messages: Sequence[ChatMessage]) -> str:
        body = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.config.temperature,
        }
        payload = json.dumps(body).encode("utf-8")
        headers = dict(self._headers)
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(2.0, 0.1 * 2 ** attempt))
            try:
                status, data = self._post(payload, headers)
            except self._errors as exc:
                last_error = exc
                logger.warning("request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({status})")
            if status != 200:
                last_error = NetworkError(f"HTTP {status}")
                logger.warning("HTTP %d (attempt %d)", status, attempt + 1)
                continue
            try:
                return json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                last_error = exc
                logger.warning("malformed response body (attempt %d): %s", attempt + 1, exc)
                continue
        raise NetworkError(f"retries exhausted: {last_error}")


def run_corpus(
    corpus: Sequence[Entry],
    spec: PromptSpec,
    config: ClientConfig,
    cache_path: str | Path,
    exemplars: tuple[Exemplar, ...] | list[Exemplar] = (),
    client: ChatClient | None = None,
) -> list[RunRecord]:
    """Obtain one completion per entry, consulting the cache first.

    Every prompt is looked up before any request; each distinct missing
    prompt is then requested once, in corpus order, and entries that share
    it share its record. Responses are appended to the cache as they
    arrive, so an interrupted run resumes where it stopped. Entries whose
    request keeps failing are marked ``failed`` and the run continues; an
    authentication failure aborts the whole run.
    """
    _split_url(config.endpoint, ("http", "https"), "endpoint")
    cache = JsonlCache(cache_path)
    hashes, records, missing = lookup_prompts(
        corpus, spec, exemplars, config.model, config.temperature, cache
    )
    if missing:
        fetched = _request(missing, spec, config, cache, client)
        records.update((r.prompt_hash, r) for r in fetched)
    return [
        record if record.entry_id == entry.entry_id else replace(record, entry_id=entry.entry_id)
        for entry, record in zip(corpus, map(records.__getitem__, hashes))
    ]


def lookup_prompts(
    corpus: Sequence[Entry],
    spec: PromptSpec,
    exemplars: Sequence[Exemplar],
    model: str,
    temperature: float,
    cache: JsonlCache,
) -> tuple[list[str], dict[str, RunRecord], list[tuple[str, str, list[ChatMessage]]]]:
    """Look every entry's prompt up in the cache.

    Returns each entry's prompt hash, the cached record of each hash found,
    and the (prompt hash, entry id, messages) of each missing hash's first
    entry, in corpus order. When every prompt was found, the cache's
    sidecar is saved: a run with misses goes on to append, so a sidecar
    written before its requests would not cover the file it leaves.
    """
    head = prompt_head(spec, exemplars)
    finals = [final_message(e.source, spec, not head) for e in corpus]
    digest = prompt_hasher(head, model, temperature)
    hashes = [digest([m]) for m in finals]
    first: dict[str, int] = {}  # each prompt's first entry, in corpus order
    for i, key in enumerate(hashes):
        first.setdefault(key, i)
    records, missing = {}, []
    for key, i in first.items():
        record = cache.get(key)
        if record is None:
            missing.append((key, corpus[i].entry_id, head + [finals[i]]))
        else:
            records[key] = record
    if not missing:
        cache.save_index()
    return hashes, records, missing


def _request(
    prompts: list[tuple[str, str, list[ChatMessage]]],
    spec: PromptSpec,
    config: ClientConfig,
    cache: JsonlCache,
    client: ChatClient | None,
) -> list[RunRecord]:
    """Request each (prompt hash, entry id, messages) once and cache the
    replies; builds and closes a client when none is given."""
    owned = client is None
    client = client or ChatClient(config)
    throttle = _Throttle(config.rate_limit)

    def fetch(prompt: tuple[str, str, list[ChatMessage]]) -> RunRecord:
        key, entry_id, messages = prompt
        requested_at = _utcnow()
        throttle.wait()
        try:
            raw = client.complete(messages)
        except NetworkError as exc:
            logger.error("entry %s failed: %s", entry_id, exc)
            # not cached: a failed entry is retried by the next run
            return RunRecord(
                entry_id=entry_id,
                prompt_hash=key,
                raw="",
                outcome="failed",
                translation=None,
                model=config.model,
                requested_at=requested_at,
                completed_at=_utcnow(),
            )
        translation = extract_translation(raw, spec)
        record = RunRecord(
            entry_id=entry_id,
            prompt_hash=key,
            raw=raw,
            outcome="unparseable" if translation is None else "ok",
            translation=translation,
            model=config.model,
            requested_at=requested_at,
            completed_at=_utcnow(),
        )
        cache.put(record)
        return record

    try:
        if config.concurrency <= 1:
            return [fetch(p) for p in prompts]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.concurrency) as pool:
            return list(pool.map(fetch, prompts))
    finally:
        if owned:
            client.close()


def export_hypotheses(records: Sequence[RunRecord], corpus_order: Sequence[str]) -> str:
    """Render records as a hypothesis file: one line per entry, in corpus
    order, blank for failed or unparseable entries."""
    by_id = {r.entry_id: r for r in records}
    lines = []
    for entry_id in corpus_order:
        record = by_id.get(entry_id)
        if record is None:
            raise MissingEntry(f"no run record for entry {entry_id}")
        text = record.translation if record.outcome == "ok" else None
        lines.append((text or "").replace("\n", " "))
    return "\n".join(lines) + "\n"
