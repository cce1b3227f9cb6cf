"""Run prompts through an append-only JSONL response cache, and export
corpus-ordered hypotheses.

The wire format is a chat-completions-style JSON body (``messages``,
``model``, ``temperature``); the reply must carry the completion text
at ``choices[0].message.content``. Cache entries are keyed by the SHA-256
of that body, so re-running an unchanged configuration never touches the
network. A run looks every prompt up first; the client, ``wire.ChatClient``,
and the stdlib network modules are loaded only when some prompt is missing
from the cache, ``urllib.request`` only when a proxy may apply, and
``logging`` only when something is logged.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass, replace
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence
from urllib.parse import urlsplit

from .corpus import Entry
from .errors import NeoGateError, NetworkError
from .promptkit import (
    ChatMessage,
    PromptSpec,
    extract_translation,
    final_message,
    prompt_head,
)

if TYPE_CHECKING:
    from .wire import ChatClient

try:
    from fcntl import LOCK_EX, LOCK_SH, LOCK_UN, flock
    from os import pread
except ImportError:  # no advisory locks here: give each run its own cache
    LOCK_EX = LOCK_SH = LOCK_UN = 0

    def flock(fd: int, operation: int) -> None:
        pass

    def pread(fd: int, size: int, offset: int) -> bytes:
        os.lseek(fd, offset, os.SEEK_SET)  # appends still go to the end
        return os.read(fd, size)

API_KEY_ENV = "NEOGATE_API_KEY"


def _logger():
    """The ``neogate.runner`` logger; ``logging`` is loaded by the first
    warning, not with the module."""
    import logging

    return logging.getLogger(__name__)


class _ClientConfigFields(NamedTuple):
    endpoint: str
    model: str
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 2
    rate_limit: float = 0.0  # requests per second; 0 disables throttling
    concurrency: int = 1


class ClientConfig(_ClientConfigFields):
    """How ``run_corpus`` reaches the endpoint; checked on construction.

    A value out of range raises ``ValueError`` whose message starts with
    the field's name.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ClientConfig:
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be 0 or more and finite, not {self.temperature}")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"timeout must be positive and finite, not {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be 0 or more, not {self.max_retries}")
        if not 0 <= self.rate_limit < math.inf:
            raise ValueError(f"rate_limit must be 0 or more and finite, not {self.rate_limit}")
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be 1 or more, not {self.concurrency}")
        return self

    @classmethod
    def _make(cls, iterable) -> ClientConfig:  # ``_replace`` checks too
        return cls(*iterable)


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
        """``json.dumps(self.__dict__, ensure_ascii=False, sort_keys=True)``
        for text fields and a text or None ``translation``, without a new
        encoder per call."""
        q = encode_basestring
        translation = "null" if self.translation is None else q(self.translation)
        return (
            f'{{"completed_at": {q(self.completed_at)}, "entry_id": {q(self.entry_id)}, '
            f'"model": {q(self.model)}, "outcome": {q(self.outcome)}, '
            f'"prompt_hash": {q(self.prompt_hash)}, "raw": {q(self.raw)}, '
            f'"requested_at": {q(self.requested_at)}, "translation": {translation}}}'
        )

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


_RECORD_FIELDS = frozenset(RunRecord.__dataclass_fields__)


def _message_json(m: ChatMessage) -> str:
    # json.dumps({"role": ..., "content": ...}, ensure_ascii=False, sort_keys=True)
    return f'{{"content": {encode_basestring(m.content)}, "role": {encode_basestring(m.role)}}}'


def _closing(model: str, temperature: float) -> str:
    """The request body after its last message."""
    return (
        f'], "model": {json.dumps(model, ensure_ascii=False)}, '
        f'"temperature": {json.dumps(temperature)}}}'
    )


def _opening(head: Sequence[ChatMessage]) -> bytes:
    """The request body of ``head + rest`` up to ``rest``, which must not be
    empty unless ``head`` is: encoded once, it serves every ``rest``."""
    return "".join(['{"messages": [', *(_message_json(m) + ", " for m in head)]).encode("utf-8")


def _rest(rest: Sequence[ChatMessage], closing: str) -> bytes:
    """The request body after ``_opening``."""
    return (", ".join(map(_message_json, rest)) + closing).encode("utf-8")


def request_body(messages: Sequence[ChatMessage], model: str, temperature: float) -> bytes:
    """The chat-completions request for ``messages``: the UTF-8 of
    ``json.dumps({"model": model, "temperature": temperature, "messages":
    [{"role": ..., "content": ...}, ...]}, ensure_ascii=False,
    sort_keys=True)``. Its SHA-256 is the prompt's ``prompt_hash``."""
    return _opening(messages[:-1]) + _rest(messages[-1:], _closing(model, temperature))


def prompt_hasher(
    head: Sequence[ChatMessage], model: str, temperature: float
) -> Callable[[Sequence[ChatMessage]], str]:
    """The ``prompt_hash`` of ``head + rest`` as a function of ``rest``,
    with ``head`` hashed once; ``rest`` must not be empty unless ``head`` is.
    """
    opening = hashlib.sha256(_opening(head))
    closing = _closing(model, temperature)

    def digest(rest: Sequence[ChatMessage]) -> str:
        h = opening.copy()
        h.update(_rest(rest, closing))
        return h.hexdigest()

    return digest


def prompt_hash(messages: Sequence[ChatMessage], model: str, temperature: float) -> str:
    """Stable digest of a prompt: the SHA-256 of its ``request_body``."""
    return hashlib.sha256(request_body(messages, model, temperature)).hexdigest()


_INDEX_VERSION = 4


def _line_text(data: bytearray, start: int, end: int) -> str:
    return data[start:end].decode("utf-8", errors="replace").strip()


class JsonlCache:
    """Append-only JSONL store of run records indexed by prompt hash.

    Every line is checked once. The sidecar ``<path>.idx`` holds the length
    of a prefix that a load has checked, the start offset of each hash's
    last record in it (the record ends at the next newline), and one SHA-256
    over that prefix and that index. A load whose sidecar digest matches
    checks only the lines after that prefix; any other load checks the
    whole file. Only ``save_index`` writes the sidecar, and a ``with``
    block that puts nothing and raises nothing calls it as it ends: after a
    put the sidecar would be behind the file at once, and a block that
    raised may have found it wrong. A ``RunRecord`` is decoded from its
    line only when it is read. Appends go through one handle, so close the
    cache, or use it in ``with``, once it has put.
    A load only reads, under the file's ``flock`` held shared; each append
    and each sidecar replace hold it alone, so a load sees no append in
    progress.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.index_path = self.path.with_name(self.path.name + ".idx")
        self._lock = threading.Lock()
        # the checked file content, then this instance's appends
        self._data = bytearray()
        # prompt hash -> start offset of its last record in _data
        self._index: dict[str, int] = {}
        self._indexed = 0  # the length of _data that the sidecar covers
        self._file = None  # the append handle, from the first put to close
        self._end = 0  # the file's size after this instance's last append, if known
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            # puts hold this lock alone, so a last line without its newline
            # is a dead writer's fragment: it is left for the next put to cut
            flock(fh.fileno(), LOCK_SH)
            # read into one buffer: the file is held, not also copied
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
            data += fh.read()
            self._data = data
            self._indexed = self._checked_prefix()
            del data[self._check(self._indexed):]

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
                    if not isinstance(record["raw"], str):
                        raise ValueError("raw is not a string")
                except ValueError as exc:  # JSONDecodeError included
                    raise NeoGateError(
                        f"{self.path}: bad record at byte offset {offset}: {exc}"
                    ) from exc
                index[record["prompt_hash"]] = offset
            offset = end
        return offset

    def save_index(self) -> None:
        """Write the sidecar for the records this instance holds, unless it
        covers them already: a header line with the length and digest, then
        the index. It is written to ``<path>.idx.tmp`` and renamed over the
        sidecar under the cache's ``flock``. One that cannot be
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
        tmp = self.index_path.with_name(self.index_path.name + ".tmp")
        with contextlib.suppress(OSError), open(self.path, "rb") as cache:
            # one writer at a time replaces the sidecar, so one temp name
            # serves them all, and a failed replace unlinks only its own
            flock(cache.fileno(), LOCK_EX)
            try:
                with open(tmp, "wb") as fh:
                    fh.write(json.dumps(header).encode("ascii") + b"\n")
                    fh.write(body)
                os.replace(tmp, self.index_path)
            except OSError:
                tmp.unlink()

    def _record(self, key: str, start: int) -> RunRecord:
        try:
            fields = json.loads(_line_text(self._data, start, self._data.find(b"\n", start) + 1))
            if fields["prompt_hash"] == key:
                return RunRecord.from_json(fields)
        except (ValueError, LookupError, TypeError):
            pass
        # every indexed offset starts its own hash's checked record, so the
        # sidecar is wrong: drop it, and the next load checks the whole file
        with contextlib.suppress(OSError):
            self.index_path.unlink()
        raise NeoGateError(
            f"{self.index_path}: no record of {key} where the index points; "
            "the index was removed, run again"
        )

    def get_many(self, keys: Iterable[str]) -> dict[str, RunRecord]:
        """The record of each of ``keys`` that the cache holds, in the order
        of ``keys``, all decoded by one ``json.loads``. When some line is not
        its hash's record, each line is decoded alone, and the first such
        line raises ``NeoGateError`` and removes the sidecar."""
        with self._lock:
            data, index = self._data, self._index
            starts = {key: index[key] for key in keys if key in index}
            try:
                # every line ends with its newline, so the lines decode as
                # they do one by one
                lines = b",".join([data[s : data.find(b"\n", s) + 1] for s in starts.values()])
                decoded = json.loads("[" + lines.decode("utf-8", errors="replace") + "]")
                records = {}
                for key, fields in zip(starts, decoded, strict=True):
                    if fields["prompt_hash"] != key:
                        raise ValueError("not the record of its hash")
                    records[key] = RunRecord.from_json(fields)
                return records
            except (ValueError, LookupError, TypeError):
                return {key: self._record(key, start) for key, start in starts.items()}

    def records(self) -> list[RunRecord]:
        # one line at a time: a decode of every line at once would hold
        # all of their fields at the same time
        with self._lock:
            return [self._record(key, start) for key, start in self._index.items()]

    def put(self, record: RunRecord) -> None:
        """Append ``record`` in one ``write`` that reaches the file before
        ``put`` returns, after cutting off a dead writer's fragment. A write
        cut short, as on a full disk, is cut off too, and raises
        ``NeoGateError``. The first ``put`` opens the file, and ``close``
        closes it."""
        line = (record.to_json() + "\n").encode("utf-8")
        with self._lock:
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "a+b", buffering=0)  # read by _cut_fragment
            fd = self._file.fileno()
            flock(fd, LOCK_EX)
            try:
                size = self._cut_fragment(fd)
                written = self._file.write(line)
                if written != len(line):
                    os.ftruncate(fd, size)
                    raise NeoGateError(
                        f"{self.path}: wrote {written} of a record's {len(line)} bytes;"
                        " the part written was cut off"
                    )
                self._end = size + len(line)
            finally:
                flock(fd, LOCK_UN)
            self._index[record.prompt_hash] = len(self._data)
            self._data += line

    def _cut_fragment(self, fd: int) -> int:
        """Cut off a last line without its newline, which under the ``flock``
        is a dead writer's fragment, with a warning: an append after it
        would join it. Returns the file's size. A file of the size that this
        instance's last append left has had nothing appended since, so its
        last byte is not read."""
        size = os.fstat(fd).st_size
        if size not in (0, self._end) and pread(fd, 1, size - 1) != b"\n":
            size = pread(fd, size, 0).rfind(b"\n") + 1
            _logger().warning("%s: dropping torn last record at byte offset %d", self.path, size)
            os.ftruncate(fd, size)
        return size

    def close(self) -> None:
        """Close the file that a ``put`` opened; a later ``put`` opens it
        again."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> JsonlCache:
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close()
        if exc_type is None and not self._end:
            self.save_index()

    def __len__(self) -> int:
        return len(self._index)


def _utcnow() -> str:
    # datetime.now(timezone.utc).isoformat(timespec="seconds"), without datetime
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _split_url(url: str, schemes: tuple[str, ...], what: str):
    """The parts and port of an absolute URL with one of ``schemes``; the
    port is the scheme's default when the URL has none."""
    try:
        parts = urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
    except ValueError:  # a bracket or port that does not parse
        parts = None
    if parts is None or parts.scheme not in schemes or not parts.hostname:
        raise NeoGateError(f"{what} is not an {' or '.join(schemes)} URL: {url!r}")
    return parts, port


def __getattr__(name: str):
    # ``runner.ChatClient``, for callers of the client's old home (PEP 562)
    if name == "ChatClient":
        from .wire import ChatClient

        return ChatClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_corpus(
    corpus: Sequence[Entry],
    spec: PromptSpec,
    config: ClientConfig,
    cache_path: str | Path,
    exemplars: Sequence[Entry] = (),
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
    with JsonlCache(cache_path) as cache:
        hashes, records, missing = lookup_prompts(
            corpus, spec, exemplars, config.model, config.temperature, cache
        )
        if missing:
            records.update(_request(missing, spec, config, cache, client))
    return [
        record if record.entry_id == entry.entry_id else replace(record, entry_id=entry.entry_id)
        for entry, record in zip(corpus, map(records.__getitem__, hashes))
    ]


def lookup_prompts(
    corpus: Sequence[Entry],
    spec: PromptSpec,
    exemplars: Sequence[Entry],
    model: str,
    temperature: float,
    cache: JsonlCache,
) -> tuple[list[str], dict[str, RunRecord], list[tuple[str, str, list[ChatMessage]]]]:
    """Look every entry's prompt up in the cache.

    Returns each entry's prompt hash, the cached record of each hash found,
    and the (prompt hash, entry id, messages) of each missing hash's first
    entry, in corpus order. Each record found carries ``derive_outcome`` of
    its ``raw``, since a cache outlives its extractor.
    """
    head = prompt_head(spec, exemplars)
    finals = [final_message(e.source, spec, not head) for e in corpus]
    digest = prompt_hasher(head, model, temperature)
    hashes = [digest([m]) for m in finals]
    first: dict[str, int] = {}  # each prompt's first entry, in corpus order
    for i, key in enumerate(hashes):
        first.setdefault(key, i)
    records = cache.get_many(first)
    for key, record in records.items():
        translation, outcome = derive_outcome(record.raw, spec)
        if record.translation != translation or record.outcome != outcome:
            records[key] = replace(record, translation=translation, outcome=outcome)
    missing = [
        (key, corpus[i].entry_id, head + [finals[i]])
        for key, i in first.items()
        if key not in records
    ]
    return hashes, records, missing


def derive_outcome(raw: str, spec: PromptSpec) -> tuple[str | None, str]:
    """The ``translation`` and ``outcome`` of a fetched or cached reply; a
    blank translation, as of ``<>``, is unparseable."""
    translation = extract_translation(raw, spec) or None
    return translation, "unparseable" if translation is None else "ok"


def _request(
    prompts: list[tuple[str, str, list[ChatMessage]]],
    spec: PromptSpec,
    config: ClientConfig,
    cache: JsonlCache,
    client: ChatClient | None,
) -> dict[str, RunRecord]:
    """The record of each (prompt hash, entry id, messages), requested once
    and cached, by its hash; builds and closes a client when none is given.

    The calling thread and up to ``concurrency - 1`` helper threads, one
    thread per prompt at most, each take the next prompt in turn. With a
    ``rate_limit``, each prompt comes with its send time: the first at once,
    each later one ``1 / rate_limit`` s after the last one's. The first
    exception on any of them, such as a 401/403 or an interrupt, stops every
    thread from taking or sending another; the helpers are joined, and then it
    is raised.
    """
    owned = client is None
    if owned:
        from .wire import ChatClient  # here, so a run without a miss never compiles it

        client = ChatClient(config)
    interval = 1 / config.rate_limit if config.rate_limit else 0.0
    next_at = 0.0  # the send time of the next prompt, when paced
    records: dict[str, RunRecord] = {}
    todo = iter(prompts)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def fetch(key: str, entry_id: str, messages: list[ChatMessage]) -> RunRecord:
        requested_at = _utcnow()
        try:
            raw = client.complete(messages)
            translation, outcome = derive_outcome(raw, spec)
        except NetworkError as exc:
            _logger().error("entry %s failed: %s", entry_id, exc)
            raw, translation, outcome = "", None, "failed"
        record = RunRecord(
            entry_id=entry_id,
            prompt_hash=key,
            raw=raw,
            outcome=outcome,
            translation=translation,
            model=config.model,
            requested_at=requested_at,
            completed_at=_utcnow(),
        )
        if outcome != "failed":  # a failed entry is retried by the next run
            cache.put(record)
        return record

    def take() -> tuple[str, str, list[ChatMessage]] | None:
        nonlocal next_at
        delay = 0.0
        with lock:
            prompt = None if failures else next(todo, None)
            if prompt and interval:  # the prompt comes with its send time
                now = time.monotonic()
                delay, next_at = next_at - now, max(now, next_at) + interval
        if delay > 0:
            time.sleep(delay)
        return None if failures else prompt  # a failure while it slept drops it

    def work() -> None:
        try:
            while prompt := take():
                records[prompt[0]] = fetch(*prompt)
        except BaseException as exc:
            with lock:
                failures.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for _ in range(min(config.concurrency, len(prompts)) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    except BaseException as exc:  # an interrupt, or a helper that did not start
        with lock:
            failures.append(exc)
    finally:
        for helper in helpers:
            helper.join()
        if owned:
            client.close()
    if failures:
        raise failures[0]
    return records


def export_hypotheses(records: Sequence[RunRecord], corpus_order: Sequence[str]) -> str:
    """Render records as a hypothesis file, blank for failed or unparseable
    entries. The i-th record must be the i-th entry's, as ``run_corpus``
    returns them."""
    for i, entry_id in enumerate(corpus_order):
        if i == len(records) or records[i].entry_id != entry_id:
            raise NeoGateError(f"no run record for entry {entry_id} at position {i + 1}")
    if len(records) != len(corpus_order):
        raise NeoGateError(f"{len(records)} run records for {len(corpus_order)} entries")
    return hypothesis_file(r.translation if r.outcome == "ok" else None for r in records)


def hypothesis_file(translations: Iterable[str | None]) -> str:
    """The hypothesis file of ``translations``: one line each, ending in
    ``\\n``, blank for None. A translation's own lines are joined by
    spaces, so that no line break ``str.splitlines`` knows (``\\r``,
    ``\\u2028``, ...) splits it when the file is read back."""
    return "".join(" ".join((t or "").splitlines()) + "\n" for t in translations)
