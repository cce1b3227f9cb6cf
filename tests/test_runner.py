"""Endpoint runner: caching, retries, resumability, and hypothesis export."""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import logging
import math
import socket
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neogate import (
    NeoGateError,
    adapt_corpus,
    build_prompt,
    parse_corpus,
    prompt_hash,
    rank_exemplar_candidates,
)
from neogate import runner
from neogate.promptkit import (
    ChatMessage,
    PromptFormat,
    PromptSpec,
    exemplars_from_corpus,
    final_message,
    prompt_head,
)
from neogate.runner import (
    AuthError,
    CacheCorruption,
    ChatClient,
    ClientConfig,
    JsonlCache,
    MissingEntry,
    NetworkError,
    RunRecord,
    export_hypotheses,
    prompt_hasher,
    run_corpus,
)

from .conftest import HEADER_LINE

SMALL_CORPUS = (
    HEADER_LINE
    + "\n"
    + "\n".join(
        "\t".join(
            (
                f"e{i}",
                f"Source sentence {i}.",
                "Il maestro dorme.",
                "La maestra dorme.",
                "<DARTS> maestr<ENDS> dorme.",
                "il la <DARTS> maestr=1; maestro maestra maestr<ENDS>;",
            )
        )
        for i in range(1, 4)
    )
    + "\n"
)


@pytest.fixture
def small_corpus(tagset):
    return parse_corpus(SMALL_CORPUS, tagset)


@pytest.fixture
def zero_spec(asterisk):
    return PromptSpec(PromptFormat.ZERO_SHOT, 0, asterisk)


def make_record(entry_id="e1", key="k1", raw="<x>") -> RunRecord:
    return RunRecord(
        entry_id=entry_id,
        prompt_hash=key,
        raw=raw,
        outcome="ok",
        translation=raw.strip("<>"),
        model="m",
        requested_at="2024-01-01T00:00:00+00:00",
        completed_at="2024-01-01T00:00:01+00:00",
    )


def test_prompt_hash_stability_and_sensitivity():
    messages = [ChatMessage("user", "ciao")]
    first = prompt_hash(messages, "model-x", 0.0)
    assert first == prompt_hash([ChatMessage("user", "ciao")], "model-x", 0.0)
    assert first != prompt_hash([ChatMessage("user", "ciao!")], "model-x", 0.0)
    assert first != prompt_hash(messages, "model-y", 0.0)
    assert first != prompt_hash(messages, "model-x", 0.7)


def old_prompt_hash(messages, model, temperature) -> str:
    """The digest formula the cache files on disk were keyed with."""
    payload = json.dumps(
        {
            "model": model,
            "temperature": temperature,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
        },
        ensure_ascii=False,
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


MESSAGE_LISTS = st.lists(
    st.builds(ChatMessage, st.sampled_from(["user", "assistant"]) | st.text(), st.text()),
    max_size=6,
)
TEMPERATURES = st.floats() | st.integers(-(2**70), 2**70)


@given(MESSAGE_LISTS, st.text(), TEMPERATURES)
@example([ChatMessage("user", "ciao \"<x>\"\n\u2028é")], "m", -0.0)
@example([], "", 1e300)
@example([ChatMessage("user", "")], "modèle", math.nan)
@example([ChatMessage("user", "")], "m", -math.inf)
def test_prompt_hash_matches_the_json_dumps_formula(messages, model, temperature):
    expected = old_prompt_hash(messages, model, temperature)
    assert prompt_hash(messages, model, temperature) == expected
    if messages:
        # what run_corpus does: the head hashed once, then each final message
        *head, last = messages
        assert prompt_hasher(head, model, temperature)([last]) == expected


# SHA-256 of the newline-joined prompt digests of the full test split, for
# every format/shots configuration of the benchmark, per paradigm; the
# values were recorded from `json.dumps` prompt digests before the prompt
# head was hashed once per run
PROMPT_CONFIGS = (
    ("zero_shot", 0), ("direct", 1), ("direct", 4), ("direct", 8),
    ("binary", 4), ("binary", 8), ("ternary", 4), ("ternary", 8),
)
GOLDEN_PROMPT_DIGESTS = {
    "asterisk": "3cd80b604a6b52bf1b06f9754bf9d83c4bc9e79b1462e0fbcf91c0549c8d1bcc",
    "schwa": "c38d54d72170b5f1a315f5eae0b6b1a7193f8a83dbe6b99a6d2a38ea7e899cfa",
}


@pytest.mark.parametrize("paradigm", sorted(GOLDEN_PROMPT_DIGESTS))
def test_full_split_prompt_digests(paradigm, request, test_split, dev_split):
    mapping = request.getfixturevalue(paradigm)
    ranked = rank_exemplar_candidates(dev_split)
    adapted = {a.entry_id: a.ref_adapted for a in adapt_corpus(dev_split, mapping)}
    public, shared = [], []
    for fmt, shots in PROMPT_CONFIGS:
        ids = tuple(ranked[:shots])
        spec = PromptSpec(PromptFormat(fmt), shots, mapping, ids)
        exemplars = exemplars_from_corpus(dev_split, adapted, ids)
        head = prompt_head(spec, exemplars)
        digest = prompt_hasher(head, "golden-model", 0.0)
        for e in test_split:
            public.append(prompt_hash(build_prompt(e.source, spec, exemplars), "golden-model", 0.0))
            shared.append(digest([final_message(e.source, spec, not head)]))
    assert shared == public
    joined = hashlib.sha256("\n".join(public).encode()).hexdigest()
    assert joined == GOLDEN_PROMPT_DIGESTS[paradigm]


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = JsonlCache(path)
    record = make_record()
    cache.put(record)
    assert cache.get("k1") == record
    # a fresh instance reads the same record back from disk
    assert JsonlCache(path).get("k1") == record


def test_cache_corruption_reports_offset(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = make_record().to_json() + "\n"
    path.write_text(good + "{not json\n", encoding="utf-8")
    with pytest.raises(CacheCorruption, match=str(len(good.encode()))):
        JsonlCache(path)


@pytest.mark.parametrize(
    "line",
    ["{not json", "5", "[]", '"text"', "null", make_record().to_json().replace("outcome", "result")],
    ids=["not-json", "number", "list", "string", "null", "missing-field"],
)
def test_cache_checks_every_line_at_load(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    first = make_record(key="k1").to_json() + "\n"
    # the bad line is not the last one, and no record is ever read
    path.write_text(first + line + "\n" + make_record(key="k2").to_json() + "\n")
    with pytest.raises(CacheCorruption, match=f"offset {len(first.encode())}:"):
        JsonlCache(path)


def test_cache_last_record_of_a_hash_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    old, new = make_record("e1", "k1", "<old>"), make_record("e2", "k1", "<new>")
    path.write_text(old.to_json() + "\n" + new.to_json() + "\n", encoding="utf-8")
    cache = JsonlCache(path)
    assert len(cache) == 1
    assert cache.get("k1") == new
    assert cache.records() == [new]


def write_lines(path, *records) -> list[int]:
    """Append one line per record (a RunRecord or raw text); returns the
    byte offset of each."""
    offsets = []
    with open(path, "ab") as fh:
        for record in records:
            offsets.append(fh.tell())
            text = record if isinstance(record, str) else record.to_json()
            fh.write((text + "\n").encode("utf-8"))
    return offsets


def save_sidecar(path) -> Path:
    JsonlCache(path).save_index()
    return path.with_name(path.name + ".idx")


def test_sidecar_checks_a_changed_prefix_in_full(tmp_path):
    path = tmp_path / "cache.jsonl"
    offsets = write_lines(path, *(make_record(key=f"k{i}") for i in range(3)))
    assert save_sidecar(path).exists()
    # same length, one byte flipped inside the checked prefix
    data = bytearray(path.read_bytes())
    data[offsets[1]] = ord("x")
    path.write_bytes(data)
    with pytest.raises(CacheCorruption, match=f"offset {offsets[1]}:"):
        JsonlCache(path)


def test_sidecar_checks_appended_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_lines(path, make_record(key="k1"))
    save_sidecar(path)
    [bad] = write_lines(path, "[]")
    write_lines(path, make_record(key="k2"))
    with pytest.raises(CacheCorruption, match=f"offset {bad}:"):
        JsonlCache(path)


def test_last_record_wins_across_the_checked_prefix(tmp_path):
    path = tmp_path / "cache.jsonl"
    old, new = make_record("e1", "k1", "<old>"), make_record("e2", "k1", "<new>")
    write_lines(path, old, make_record(key="k2"))
    cache = JsonlCache(path)
    assert cache.get("k1") == old
    cache.save_index()
    write_lines(path, new)
    for _ in range(2):  # the tail checked against the sidecar, then the sidecar alone
        cache = JsonlCache(path)
        assert len(cache) == 2
        assert cache.get("k1") == new
        assert cache.records() == [new, make_record(key="k2")]
        cache.save_index()


def test_a_load_leaves_the_sidecar_alone(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_lines(path, make_record(key="k1"))
    cache = JsonlCache(path)
    assert cache.records() == [make_record(key="k1")]
    cache.put(make_record(key="k2"))
    assert not path.with_name("cache.jsonl.idx").exists()


def rewrite_sidecar(sidecar: Path, edit) -> None:
    """Apply ``edit`` to the sidecar's index, keeping its digest valid."""
    header, _, body = sidecar.read_bytes().partition(b"\n")
    saved, index = json.loads(header), json.loads(body)
    edit(index)
    body = json.dumps(index).encode()
    cache = sidecar.with_name(sidecar.name.removesuffix(".idx")).read_bytes()
    saved["sha256"] = hashlib.sha256(cache[: saved["length"]] + body).hexdigest()
    sidecar.write_bytes(json.dumps(saved).encode() + b"\n" + body)


def test_sidecar_whose_index_was_changed_is_not_used(tmp_path):
    path = tmp_path / "cache.jsonl"
    old, new = make_record("e1", "k1", "<old>"), make_record("e2", "k1", "<new>")
    [old_at, _, new_at] = write_lines(path, old, make_record(key="k2"), new)
    sidecar = save_sidecar(path)
    header, _, body = sidecar.read_bytes().partition(b"\n")
    index = json.loads(body)
    assert index["k1"][0] == new_at
    # point k1 at its older record; the digest no longer matches
    index["k1"] = [old_at, new_at - old_at]
    sidecar.write_bytes(header + b"\n" + json.dumps(index).encode())
    cache = JsonlCache(path)
    assert cache.get("k1") == new
    assert len(cache) == 2


def test_sidecar_pointing_a_hash_at_another_record_is_caught(tmp_path):
    path = tmp_path / "cache.jsonl"
    first, second = make_record(key="k1"), make_record("e2", "k2", "<two>")
    write_lines(path, first, second)
    sidecar = save_sidecar(path)

    def swap(index):
        index["k1"], index["k2"] = index["k2"], index["k1"]

    rewrite_sidecar(sidecar, swap)
    with pytest.raises(CacheCorruption, match="no record of k1 where the index points"):
        JsonlCache(path).get("k1")
    assert not sidecar.exists()
    assert JsonlCache(path).records() == [first, second]


def test_unwritable_sidecar_still_loads(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_lines(path, make_record(key="k1"))
    path.with_name("cache.jsonl.idx").mkdir()  # can be neither read nor replaced
    for _ in range(2):
        cache = JsonlCache(path)
        assert cache.get("k1") == make_record(key="k1")
        cache.save_index()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.jsonl", "cache.jsonl.idx"]


def test_only_a_fully_warm_lookup_saves_the_sidecar(
    echo_server, small_corpus, zero_spec, tmp_path
):
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    path = tmp_path / "c.jsonl"
    sidecar = path.with_name("c.jsonl.idx")
    run_corpus(small_corpus[:2], zero_spec, config, path)
    assert not sidecar.exists()
    run_corpus(small_corpus, zero_spec, config, path)  # one miss
    assert not sidecar.exists()
    first = run_corpus(small_corpus, zero_spec, config, path)
    saved = sidecar.read_bytes()
    assert json.loads(saved.partition(b"\n")[0])["length"] == path.stat().st_size
    assert run_corpus(small_corpus, zero_spec, config, path) == first
    assert sidecar.read_bytes() == saved  # it already covers the file
    assert echo_server.calls == 3


def test_warm_load_decodes_only_the_lines_it_reads(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    records = [make_record(key=f"k{i}", raw=f"<{i}>") for i in range(5)]
    write_lines(path, *records)
    save_sidecar(path)
    lines = set(path.read_text(encoding="utf-8").splitlines())
    decoded = []
    loads = json.loads

    def counting_loads(text, *args, **kwargs):
        if text in lines:
            decoded.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    cache = JsonlCache(path)
    assert decoded == []
    assert cache.get("k3") == records[3]
    assert cache.get("k1") == records[1]
    assert len(decoded) == 2


CACHE_KEYS = ["k0", "k1", "k2"]
CACHE_STEPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(CACHE_KEYS), st.text(max_size=8)),
    st.tuples(st.just("append"), st.sampled_from(CACHE_KEYS), st.text(max_size=8)),
    st.tuples(st.just("bad"), st.sampled_from(["{not json", "5", "[]", "null", "   "])),
    st.tuples(st.just("torn"), st.integers(1, 40)),
    st.tuples(st.just("rewrite"), st.randoms(use_true_random=False)),
    st.tuples(st.just("load")),
)


def cache_view(path):
    """What a load of ``path`` shows: its records, or where it is corrupt.
    The load then saves its sidecar."""
    try:
        cache = JsonlCache(path)
    except CacheCorruption as exc:
        return str(exc).split(": ")[1]  # "bad record at byte offset N"
    view = len(cache), [cache.get(key) for key in CACHE_KEYS], cache.records()
    cache.save_index()
    return view


@given(st.lists(CACHE_STEPS, max_size=12))
def test_sidecar_loads_agree_with_full_checks(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp, "cache.jsonl"), Path(tmp, "plain", "cache.jsonl")
        plain.parent.mkdir()
        for step in steps:
            kind = step[0]
            if kind == "put":  # the sidecar then covers the put line too
                with contextlib.suppress(CacheCorruption):
                    cache = JsonlCache(path)
                    cache.put(make_record(raw=step[2], key=step[1]))
                    cache.save_index()
            elif kind == "append":
                write_lines(path, make_record(raw=step[2], key=step[1]))
            elif kind == "bad":
                write_lines(path, step[1])
            elif kind == "torn":
                with open(path, "ab") as fh:
                    fh.write(make_record().to_json().encode()[: step[1]])
            elif kind == "rewrite" and path.exists():
                lines = path.read_bytes().splitlines(keepends=True)
                step[1].shuffle(lines)
                path.write_bytes(b"".join(lines[: step[1].randint(0, len(lines))]))
            if path.exists():
                # a load with no sidecar checks the whole file
                plain.write_bytes(path.read_bytes())
                assert cache_view(path) == cache_view(plain)
                assert path.read_bytes() == plain.read_bytes()  # the same torn tail cut
                plain.with_name("cache.jsonl.idx").unlink(missing_ok=True)


def test_torn_last_line_is_truncated_and_run_resumes(
    echo_server, small_corpus, zero_spec, tmp_path
):
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    cache_path = tmp_path / "c.jsonl"
    run_corpus(small_corpus[:2], zero_spec, config, cache_path)
    whole = cache_path.read_bytes()
    torn = make_record(key="torn").to_json().encode()
    cache_path.write_bytes(whole + torn[: len(torn) // 2])
    records = run_corpus(small_corpus, zero_spec, config, cache_path)
    assert echo_server.calls == 3
    assert [r.outcome for r in records] == ["ok", "ok", "ok"]
    reloaded = JsonlCache(cache_path)
    assert {r.prompt_hash for r in reloaded.records()} == {r.prompt_hash for r in records}
    assert cache_path.read_bytes().startswith(whole)


def test_run_corpus_against_echo(echo_server, small_corpus, zero_spec, tmp_path):
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    records = run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")
    assert [r.entry_id for r in records] == ["e1", "e2", "e3"]
    assert all(r.outcome == "ok" for r in records)
    assert records[0].translation == "Source sentence 1."
    assert echo_server.calls == 3


def test_warm_cache_skips_network(echo_server, small_corpus, zero_spec, tmp_path):
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    cache_path = tmp_path / "c.jsonl"
    first = run_corpus(small_corpus, zero_spec, config, cache_path)
    calls_after_first = echo_server.calls
    second = run_corpus(small_corpus, zero_spec, config, cache_path)
    assert echo_server.calls == calls_after_first
    order = [e.entry_id for e in small_corpus]
    assert export_hypotheses(first, order) == export_hypotheses(second, order)


def test_interrupted_run_resumes(echo_server, small_corpus, zero_spec, tmp_path):
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    cache_path = tmp_path / "c.jsonl"
    run_corpus(small_corpus[:2], zero_spec, config, cache_path)
    assert echo_server.calls == 2
    records = run_corpus(small_corpus, zero_spec, config, cache_path)
    assert echo_server.calls == 3  # only the missing entry was fetched
    assert len(records) == 3
    # the cache holds exactly one record per prompt
    lines = (tmp_path / "c.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_retries_then_failure_continues(echo_server, small_corpus, zero_spec, tmp_path):
    echo_server.script = [500, 500, 500]  # exhausts max_retries=2 for entry 1
    config = ClientConfig(endpoint=echo_server.url, model="echo", max_retries=2)
    records = run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")
    assert records[0].outcome == "failed"
    assert records[0].raw == ""
    assert [r.outcome for r in records[1:]] == ["ok", "ok"]
    # the failure was not cached, so a fresh run retries just that entry
    retried = run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")
    assert [r.outcome for r in retried] == ["ok", "ok", "ok"]


def test_retry_recovers_within_budget(echo_server, small_corpus, zero_spec, tmp_path):
    echo_server.script = [500]
    config = ClientConfig(endpoint=echo_server.url, model="echo", max_retries=2)
    records = run_corpus(small_corpus[:1], zero_spec, config, tmp_path / "c.jsonl")
    assert records[0].outcome == "ok"
    assert echo_server.calls == 2


def test_malformed_body_is_retried(echo_server, small_corpus, zero_spec, tmp_path):
    echo_server.script = ["garbage"]
    config = ClientConfig(endpoint=echo_server.url, model="echo", max_retries=1)
    records = run_corpus(small_corpus[:1], zero_spec, config, tmp_path / "c.jsonl")
    assert records[0].outcome == "ok"
    assert echo_server.calls == 2


def test_auth_error_aborts(echo_server, small_corpus, zero_spec, tmp_path):
    echo_server.script = [401]
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    with pytest.raises(AuthError):
        run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")


def test_concurrent_run_is_complete(echo_server, small_corpus, zero_spec, tmp_path):
    config = ClientConfig(endpoint=echo_server.url, model="echo", concurrency=3)
    records = run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")
    assert [r.entry_id for r in records] == ["e1", "e2", "e3"]
    assert all(r.outcome == "ok" for r in records)


def test_duplicate_prompts_are_requested_once(echo_server, small_corpus, zero_spec, tmp_path):
    # e1, e2, e3, then the sources of e1, e2 and e1 again under new ids
    corpus = small_corpus + [
        replace(small_corpus[i], entry_id=f"d{n}") for n, i in enumerate((0, 1, 0))
    ]
    config = ClientConfig(endpoint=echo_server.url, model="echo", concurrency=4)
    records = run_corpus(corpus, zero_spec, config, tmp_path / "c.jsonl")
    assert echo_server.calls == 3
    assert [r.entry_id for r in records] == ["e1", "e2", "e3", "d0", "d1", "d2"]
    assert [r.translation for r in records[3:]] == [records[i].translation for i in (0, 1, 0)]
    assert all(r.outcome == "ok" for r in records)
    assert len(JsonlCache(tmp_path / "c.jsonl")) == 3


def test_empty_corpus_builds_no_client(zero_spec, tmp_path, monkeypatch):
    def no_client(config):
        raise AssertionError("a client was built")

    monkeypatch.setattr(runner, "ChatClient", no_client)
    config = ClientConfig(endpoint="http://127.0.0.1:9/v1", model="m")
    assert run_corpus([], zero_spec, config, tmp_path / "c.jsonl") == []
    with pytest.raises(NeoGateError, match="endpoint is not an http"):
        run_corpus([], zero_spec, ClientConfig(endpoint="localhost:9", model="m"), tmp_path / "c.jsonl")


def test_export_conventions():
    records = [make_record("e1", "k1"), make_record("e2", "k2")]
    assert export_hypotheses(records, ["e1", "e2"]) == "x\nx\n"
    unparseable = RunRecord(
        entry_id="e3",
        prompt_hash="k3",
        raw="no brackets",
        outcome="unparseable",
        translation=None,
        model="m",
        requested_at="t",
        completed_at="t",
    )
    text = export_hypotheses(records + [unparseable], ["e1", "e2", "e3"])
    assert text == "x\nx\n\n"
    with pytest.raises(MissingEntry):
        export_hypotheses(records, ["e1", "e2", "e3"])


def test_export_flattens_newlines():
    record = make_record("e1", "k1", raw="<due\nrighe>")
    assert export_hypotheses([record], ["e1"]) == "due righe\n"


def test_record_json_round_trip():
    record = make_record()
    assert RunRecord.from_json(json.loads(record.to_json())) == record


def test_temperature_defaults_to_zero():
    config = ClientConfig(endpoint="http://x", model="m")
    assert config.temperature == 0.0
    assert config.concurrency == 1


def test_api_key_header(echo_server, small_corpus, zero_spec, tmp_path, monkeypatch):
    monkeypatch.setenv("NEOGATE_API_KEY", "sekret")
    config = ClientConfig(endpoint=echo_server.url, model="echo")
    run_corpus(small_corpus[:1], zero_spec, config, tmp_path / "c.jsonl")
    assert echo_server.last_auth == "Bearer sekret"


def test_rate_limit_spaces_requests(echo_server, small_corpus, zero_spec, tmp_path):
    import time

    config = ClientConfig(endpoint=echo_server.url, model="echo", rate_limit=25.0)
    started = time.monotonic()
    run_corpus(small_corpus, zero_spec, config, tmp_path / "c.jsonl")
    # three requests at 25 req/s cannot finish faster than two intervals
    assert time.monotonic() - started >= 2 / 25


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive chat endpoint that answers ``<ok>`` with a
    ``Content-Length``; with ``server.drop`` it closes each connection after
    its response without sending ``Connection: close``. As a proxy it
    refuses every ``CONNECT`` tunnel with 502."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.path, dict(self.headers)))
        payload = json.dumps({"choices": [{"message": {"content": "<ok>"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.close_connection = self.server.drop

    def do_CONNECT(self):  # noqa: N802 (http.server API)
        self.server.requests.append((self.path, dict(self.headers)))
        self.send_error(502)

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.connections = 0
        self.requests = []
        self.drop = False
        self.closed = threading.Semaphore(0)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat"

    def verify_request(self, request, client_address):
        self.connections += 1  # runs in the accepting thread only
        return True

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()


@pytest.fixture
def keepalive_server():
    server = _KeepAliveServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def new_client():
    """Build ``ChatClient``s from ``ClientConfig`` fields; closed at teardown."""
    clients = []

    def new(**fields) -> ChatClient:
        clients.append(ChatClient(ClientConfig(model="m", **fields)))
        return clients[-1]

    yield new
    for client in clients:
        client.close()


@pytest.fixture
def no_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


MESSAGES = [ChatMessage("user", "ciao")]


def test_sequential_calls_share_one_connection(keepalive_server, no_proxy_env, new_client):
    client = new_client(endpoint=keepalive_server.url)
    assert [client.complete(MESSAGES) for _ in range(5)] == ["<ok>"] * 5
    assert keepalive_server.connections == 1


def test_concurrent_calls_keep_one_connection_per_worker(keepalive_server, no_proxy_env, new_client):
    client = new_client(endpoint=keepalive_server.url, concurrency=3)
    with ThreadPoolExecutor(max_workers=3) as pool:
        replies = list(pool.map(lambda _: client.complete(MESSAGES), range(30)))
    assert replies == ["<ok>"] * 30
    assert len(keepalive_server.requests) == 30
    assert keepalive_server.connections <= 3


def test_server_closed_keepalive_is_not_a_failed_attempt(
    keepalive_server, no_proxy_env, new_client, caplog
):
    keepalive_server.drop = True
    client = new_client(endpoint=keepalive_server.url, max_retries=0)
    with caplog.at_level(logging.WARNING, logger="neogate.runner"):
        for _ in range(3):
            assert client.complete(MESSAGES) == "<ok>"
            # the server has closed the connection before the next call
            assert keepalive_server.closed.acquire(timeout=5)
    assert caplog.records == []
    assert keepalive_server.connections == 3


def test_http_proxy_gets_absolute_uri(keepalive_server, no_proxy_env, new_client):
    port = keepalive_server.server_address[1]
    no_proxy_env.setenv("http_proxy", f"http://user:pw@127.0.0.1:{port}")
    client = new_client(endpoint="http://neogate.invalid/v1/chat")
    assert client.complete(MESSAGES) == "<ok>"
    [(path, headers)] = keepalive_server.requests
    assert path == "http://neogate.invalid/v1/chat"
    assert headers["Host"] == "neogate.invalid"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_https_proxy_gets_connect(keepalive_server, no_proxy_env, new_client):
    port = keepalive_server.server_address[1]
    no_proxy_env.setenv("https_proxy", f"http://user:pw@127.0.0.1:{port}")
    client = new_client(endpoint="https://neogate.invalid/v1/chat", max_retries=0)
    with pytest.raises(NetworkError):  # the proxy refuses the tunnel
        client.complete(MESSAGES)
    [(path, headers)] = keepalive_server.requests
    assert path == "neogate.invalid:443"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def test_no_proxy_host_goes_direct(keepalive_server, no_proxy_env, new_client):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    no_proxy_env.setenv("http_proxy", f"http://127.0.0.1:{dead_port}")
    no_proxy_env.setenv("no_proxy", "127.0.0.1")
    client = new_client(endpoint=keepalive_server.url, max_retries=0)
    assert client.complete(MESSAGES) == "<ok>"
    [(path, _)] = keepalive_server.requests
    assert path == "/v1/chat"


def test_endpoint_and_proxy_must_be_http_urls(no_proxy_env):
    bad = ("localhost:8000/v1/chat", "ftp://host/v1/chat", "http:///v1", "http://h:x/v1")
    for endpoint in bad:
        with pytest.raises(NeoGateError, match="endpoint is not an http"):
            ChatClient(ClientConfig(endpoint=endpoint, model="m"))
    no_proxy_env.setenv("http_proxy", "socks5://127.0.0.1:1080")
    with pytest.raises(NeoGateError, match="proxy is not an http URL"):
        ChatClient(ClientConfig(endpoint="http://host/v1", model="m"))
