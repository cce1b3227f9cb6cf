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


class JsonlCache:
    """Append-only JSONL store of run records indexed by prompt hash.

    Every line is checked when the file is loaded; the index keeps the
    line, and a ``RunRecord`` is built from it only when it is read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._index: dict[str, str] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        offset = 0
        torn = False
        with open(self.path, "rb") as fh:
            for raw_line in fh:
                if not raw_line.endswith(b"\n"):
                    torn = True  # a crash cut the last append short
                    break
                line = raw_line.decode("utf-8", errors="replace").strip()
                if line:
                    try:
                        data = json.loads(line)
                        if not isinstance(data, dict) or not _RECORD_FIELDS <= data.keys():
                            raise ValueError("not an object with every run record field")
                    except ValueError as exc:  # JSONDecodeError included
                        raise CacheCorruption(
                            f"{self.path}: bad record at byte offset {offset}: {exc}"
                        ) from exc
                    self._index[data["prompt_hash"]] = line
                offset += len(raw_line)
        if torn:
            # cut the fragment off, or the next put would join it
            logger.warning(
                "%s: dropping torn last record at byte offset %d", self.path, offset
            )
            os.truncate(self.path, offset)

    def get(self, key: str) -> RunRecord | None:
        with self._lock:
            line = self._index.get(key)
        return None if line is None else RunRecord.from_json(json.loads(line))

    def records(self) -> list[RunRecord]:
        with self._lock:
            lines = list(self._index.values())
        return [RunRecord.from_json(json.loads(line)) for line in lines]

    def put(self, record: RunRecord) -> None:
        line = record.to_json()
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
            self._index[record.prompt_hash] = line

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
    head = prompt_head(spec, exemplars)
    finals = [final_message(e.source, spec, not head) for e in corpus]
    digest = prompt_hasher(head, config.model, config.temperature)
    hashes = [digest([m]) for m in finals]
    first: dict[str, int] = {}  # each prompt's first entry, in corpus order
    for i, key in enumerate(hashes):
        first.setdefault(key, i)
    records = {key: cache.get(key) for key in first}
    missing = [i for key, i in first.items() if records[key] is None]
    if missing:
        prompts = [(hashes[i], corpus[i].entry_id, head + [finals[i]]) for i in missing]
        fetched = _request(prompts, spec, config, cache, client)
        records.update((r.prompt_hash, r) for r in fetched)
    return [
        record if record.entry_id == entry.entry_id else replace(record, entry_id=entry.entry_id)
        for entry, record in zip(corpus, map(records.__getitem__, hashes))
    ]


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
