"""Self-checks for the benchmark's own parts.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from stub import DELAY_MS, Oracle  # noqa: E402

SOURCE = "The nurse is here."
REFS = {"*": {SOURCE: ["L'infermiere è qui.", "L'infermiera è qui.", "L'infermier* è qui."]}}


def _post(conn: http.client.HTTPConnection, content: str) -> str:
    body = json.dumps({"model": "m", "messages": [{"role": "user", "content": content}]})
    conn.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 200
    return json.loads(response.read())["choices"][0]["message"]["content"]


def test_stub_keeps_one_connection_without_stall(tmp_path):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps(REFS), encoding="utf-8")
    stub = run.Stub(refs, tmp_path)
    n = 50
    try:
        conn = http.client.HTTPConnection("127.0.0.1", stub.port, timeout=10)
        prompt = f"using the neomorpheme '*'.\n[English] <{SOURCE}>\n[Italian]"
        _post(conn, prompt)
        sock = conn.sock
        start = time.monotonic()
        for _ in range(n - 1):
            assert _post(conn, prompt) == "<L'infermier* è qui.>"
        elapsed = time.monotonic() - start
        assert conn.sock is sock  # every request reused the first connection
        conn.close()
        stats = stub.stats()
    finally:
        stub.stop()
    assert stats["requests"] == n
    assert min(stats["service_s"]) >= DELAY_MS / 1000
    # a header write apart from the body stalls each request by ~40 ms
    assert elapsed < (n - 1) * (DELAY_MS + 20) / 1000


def test_oracle_answers_in_the_stage_label_shape():
    oracle = Oracle(REFS)
    head = f"Use the neomorpheme '*'.\n[English] <{SOURCE}>\n"
    masc, fem, adapted = REFS["*"][SOURCE]
    replies = {
        label: oracle.answer([{"role": "user", "content": head + label}])[1]
        for label in ("[Italian]", "[Italian, gendered]", "[Italian, masculine]")
    }
    assert replies["[Italian]"] == f"<{adapted}>"
    assert replies["[Italian, gendered]"] == f"<{masc}>\n[Italian, neomorpheme] <{adapted}>"
    assert replies["[Italian, masculine]"] == (
        f"<{masc}>\n[Italian, feminine] <{fem}>\n[Italian, neomorpheme] <{adapted}>"
    )


def _inputs(directory: Path, seed: int, bundle) -> dict[str, bytes]:
    gen.write_refs(directory / "refs.json", bundle)
    gen.prefill_cache(directory / "cache.jsonl", seed, bundle)
    for paradigm in gen.PARADIGMS:
        for k, text in enumerate(gen.hypothesis_files(seed, bundle, paradigm)):
            (directory / f"hyp-{paradigm}-{k}.txt").write_text(text, encoding="utf-8")
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    bundle = gen.load_bundle(ROOT)
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(dirs[0], 7, bundle)
    assert _inputs(dirs[1], 7, bundle) == first
    other = _inputs(dirs[2], 8, bundle)
    assert other["hyp-schwa-0.txt"] == first["hyp-schwa-0.txt"]  # the adapted references
    assert other["hyp-schwa-1.txt"] != first["hyp-schwa-1.txt"]
    assert other["cache.jsonl"] != first["cache.jsonl"]
    assert sorted(other["cache.jsonl"].splitlines()) == sorted(first["cache.jsonl"].splitlines())


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_every_metric_is_emitted_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }
        meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
        assert {"commit", "python", "nproc"} <= meta.keys()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
