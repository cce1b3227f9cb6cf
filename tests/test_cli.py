"""End-to-end subcommand tests through dispatch()."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import types
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neogate import __version__, build_prompt, extract_translation, prompt_hash, runner
from neogate.cli import (
    REPORT_KV,
    REPORT_TXT,
    TRACE_TSV,
    RunManifest,
    _build_spec,
    _load_inputs,
    build_parser,
    dispatch,
    parse_kv,
    render_report,
)
from neogate.evaluator import EvalCounts, MetricReport
from neogate.runner import JsonlCache, RunRecord, hypothesis_file

from .conftest import DATA_DIR, EXAMPLE_CORPUS_TEXT, EXAMPLE_SOURCE, HEADER_LINE, split_path

# SHA-256 of `neogate adapt` on the bundled test split, and of the report.kv
# and trace.tsv of `neogate evaluate` scoring those adapted references
GOLDEN_ADAPT = {
    "asterisk": "8b454ee09640ca2c001411c6e70357c5cc257112c7b13e5ad0f10f8aefeb8de6",
    "schwa": "8ee7503774b583c24d4d16891b0dcc1f926fda71d775e609a211463577b05084",
}
GOLDEN_SELF_REPORT_KV = "b9c7205ee1f9a36e9ffbb05c82e7135e821b49f4acc1c2af958954192dac0272"
GOLDEN_SELF_TRACE_TSV = "2420c841d31694347082395e830ffb9ca4d0ac73de966b195f54ea79b69f7236"
# and of the rest of that evaluation's output, of `neogate stats` on the
# split, of its ternary 8-shot prompt dump, and of a ternary 8-shot `run`
GOLDEN_SELF_REPORT_TXT = (
    "COV     ACC     CWA     MIS\n100.00  100.00  100.00  0.00\n\nunparseable_rate=0.00\n"
    "annotations=2479\nmatched=2479\ncorrect=2479\nfound=2479\n"
)
GOLDEN_EVALUATE_MANIFEST = (
    "# neogate {1}\ncorpus=<data>/synthetic-test.tsv\nparadigm={0}\nhyp=<tmp>/hyp.txt\n"
    "out=<tmp>/report\n"
)
GOLDEN_STATS = "entries=841\ntags=2479\ncontent=1539\nfunction=940\nsingular=1316\nplural=1163\n"
GOLDEN_TERNARY_8_PROMPTS = {
    "asterisk": "6a0dff77969f085c1725b2c429f6f3df27358e69a8132906f57d9460c648f005",
    "schwa": "9dbb9b8e5a32418ea2a19206bf1bd0f2fa751ac45973dd485661250e55750802",
}
GOLDEN_RUN_MANIFEST = (
    "# neogate {1}\ncorpus=<data>/synthetic-test.tsv\nparadigm={0}\nmapping=<tmp>/paradigm.map\n"
    "format=ternary\nshots=8\ndev-corpus=<data>/synthetic-dev.tsv\n"
    "exemplars=0015,0021,0023,0024,0027,0028,0030,0032\nendpoint=http://127.0.0.1:9/v1\n"
    "model=m\ntemperature=0.0\ntimeout=60.0\nretries=2\nrate-limit=0.0\nconcurrency=1\n"
    "cache=<tmp>/run/cache.jsonl\nout=<tmp>/run\n"
)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(EXAMPLE_CORPUS_TEXT, encoding="utf-8")
    return path


def test_validate_ok_with_warnings(corpus_file, capsys):
    assert dispatch(["validate", "--corpus", str(corpus_file)]) == 0
    out = capsys.readouterr()
    assert "warning\t0001" in out.out
    assert out.err == ""


def test_validate_reports_errors_on_stderr(tmp_path, capsys):
    bad = EXAMPLE_CORPUS_TEXT.replace("nuovi nuove", "sbagliato nuove")
    path = tmp_path / "bad.tsv"
    path.write_text(bad, encoding="utf-8")
    assert dispatch(["validate", "--corpus", str(path)]) == 1
    assert "error\t0001" in capsys.readouterr().err


def test_validate_reports_a_non_ascii_anchor_distance(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text(EXAMPLE_CORPUS_TEXT.replace("<DARTS>;", "<DARTS> dirett=\u00b2;"), "utf-8")
    assert dispatch(["validate", "--corpus", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error\t-\t-\tline 2 (entry 0001): anchor distance '\u00b2' in "
        "'il la <DARTS> dirett=\u00b2' is not a positive integer\n"
    )


def test_validate_structural_failure(tmp_path, capsys):
    path = tmp_path / "broken.tsv"
    path.write_text("BAD\tHEADER\n", encoding="utf-8")
    assert dispatch(["validate", "--corpus", str(path)]) == 1
    assert "header" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert dispatch(["stats"]) == 2
    assert dispatch(["no-such-command"]) == 2


def test_missing_file_exits_1(capsys):
    assert dispatch(["stats", "--corpus", "/nonexistent/x.tsv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nonexistent.conf")
    assert dispatch(["--config", missing, "stats", "--corpus", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nonexistent.conf" in err


@pytest.mark.parametrize(
    "flag", ["hyp", "mapping", "config", "labels-a", "labels-b", "corpus", "dev-corpus"]
)
def test_non_utf8_input_file_exits_1(flag, corpus_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"caf\xe9\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("A\n", encoding="utf-8")
    argv = {
        "hyp": ["evaluate", f"--corpus={corpus_file}", f"--hyp={latin1}"],
        "mapping": ["adapt", f"--corpus={corpus_file}", f"--mapping={latin1}"],
        "config": [f"--config={latin1}", "stats", f"--corpus={corpus_file}"],
        "labels-a": ["kappa", f"--labels-a={latin1}", f"--labels-b={labels}"],
        "labels-b": ["kappa", f"--labels-a={labels}", f"--labels-b={latin1}"],
        "corpus": ["stats", f"--corpus={latin1}"],
        "dev-corpus": ["prompt", f"--corpus={corpus_file}", "--format=direct", "--shots=1",
                       f"--dev-corpus={latin1}"],
    }[flag]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(latin1) in err  # the line says which file it was


@pytest.mark.parametrize("command", ["kappa", "mapping", "config"])
def test_a_leading_bom_is_ignored_in_every_input_file(command, corpus_file, tmp_path, capsys):
    def with_bom(name: str, text: str) -> Path:
        path = tmp_path / name
        path.write_text("\ufeff" + text, encoding="utf-8")
        return path

    if command == "kappa":
        labels = tmp_path / "labels.txt"
        labels.write_text("A\nB\n", encoding="utf-8")
        bom = with_bom("bom.txt", "A\nB\n")
        assert dispatch(["kappa", f"--labels-a={labels}", f"--labels-b={bom}"]) == 0
        assert capsys.readouterr().out == "kappa=1.000000\n"
        return
    if command == "mapping":
        schwa = resources.files("neogate.data").joinpath("schwa.map").read_text("utf-8")
        argv = ["adapt", f"--corpus={corpus_file}", f"--mapping={with_bom('schwa.map', schwa)}"]
    else:
        argv = [f"--config={with_bom('run.conf', 'paradigm=schwa')}", "adapt",
                f"--corpus={corpus_file}"]
    assert dispatch(["adapt", f"--corpus={corpus_file}", "--paradigm=schwa"]) == 0
    expected = capsys.readouterr().out
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected


def failure_case(case, corpus_file, tmp_path, request) -> tuple[list[str], str]:
    """The argv of one way a command fails on its input, and its ``error:`` line."""
    row = EXAMPLE_CORPUS_TEXT.splitlines()[1]
    bad = tmp_path / "bad.tsv"
    rows = {
        "malformed-row": row.rpartition("\t")[0],
        "unknown-tag": row.replace("<DARTS>;", "<XYZ>;"),
        "bad-anchor": row.replace("<DARTS>;", "<DARTS> direttore=x;"),
        "unmapped-reference-tag": row.replace("<DARTS> direttor", "<XYZ> direttor"),
    }
    if case in rows:
        bad.write_text(f"{HEADER_LINE}\n{rows[case]}\n", encoding="utf-8")
        # parsing checks the annotation's tags only; adapting the
        # reference finds the other one
        command = "adapt" if case == "unmapped-reference-tag" else "stats"
        return [command, f"--corpus={bad}"], {
            "malformed-row": "line 2: expected 6 columns, got 5",
            "unknown-tag": "line 2 (entry 0001): tag <XYZ> is not in the tagset",
            "bad-anchor": "line 2 (entry 0001): anchor distance 'x' in "
            "'il la <DARTS> direttore=x' is not a positive integer",
            "unmapped-reference-tag": "entry 0001: tag <XYZ> has no replacement in paradigm "
            "'asterisk'",
        }[case]
    if case == "unknown-paradigm":
        return ["adapt", f"--corpus={corpus_file}", "--paradigm=bogus"], (
            "unknown built-in paradigm 'bogus'; available: asterisk, schwa"
        )
    asterisk = resources.files("neogate.data").joinpath("asterisk.map").read_text("utf-8")
    if case == "mapping-lacks-tag":
        bad.write_text(asterisk.replace("PREPsuP\tsull*\n", ""), encoding="utf-8")
        return ["adapt", f"--corpus={corpus_file}", f"--mapping={bad}"], (
            "mapping lacks replacements for: PREPsuP"
        )
    if case == "italian-marker":
        bad.write_text(asterisk.replace("!marker-singular *", "!marker-singular a"), encoding="utf-8")
        return ["adapt", f"--corpus={corpus_file}", f"--mapping={bad}"], (
            "marker 'a' is an Italian-alphabet letter"
        )
    few_shot = ["prompt", f"--corpus={corpus_file}", "--format=direct", "--shots=1"]
    if case == "empty-dev-corpus":
        bad.write_text(HEADER_LINE + "\n", encoding="utf-8")
        return [*few_shot, f"--dev-corpus={bad}"], "cannot rank exemplars over an empty corpus"
    if case == "corrupt-cache-line":
        good = RunRecord("0001", "k1", "<x>", "ok", "x", "m", "t", "t").to_json() + "\n"
        bad.write_text(good + "{not json\n" + good, encoding="utf-8")
        return ["extract", f"--corpus={corpus_file}", "--model=m", f"--cache={bad}"], (
            f"{bad}: bad record at byte offset {len(good.encode())}: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        )
    if case == "missing-cache":
        argv = ["extract", f"--corpus={corpus_file}", "--model=m", f"--cache={bad}"]
        key = prompt_key(argv, EXAMPLE_SOURCE)
        return argv, f"no cached record for entry 0001 (prompt hash {key}): {bad} does not exist"
    assert case == "rejected-credentials"
    server = request.getfixturevalue("echo_server")
    server.script = [401]
    return ["run", f"--corpus={corpus_file}", "--model=m", f"--endpoint={server.url}",
            f"--out={tmp_path / 'out'}"], "endpoint rejected credentials (401)"


@pytest.mark.parametrize(
    "case",
    ["malformed-row", "unknown-tag", "bad-anchor", "unmapped-reference-tag", "unknown-paradigm",
     "mapping-lacks-tag", "italian-marker", "empty-dev-corpus", "corrupt-cache-line",
     "missing-cache", "rejected-credentials"],
)
def test_input_failures_exit_1_with_one_error_line(case, corpus_file, tmp_path, request, capsys):
    argv, message = failure_case(case, corpus_file, tmp_path, request)
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: {message}\n"


def test_stats_output(capsys):
    assert dispatch(["stats", "--corpus", str(split_path("test"))]) == 0
    out = capsys.readouterr().out
    assert "entries=841" in out
    assert "tags=2479" in out


def test_adapt_schwa_golden_line(corpus_file, capsys):
    assert dispatch(["adapt", "--corpus", str(corpus_file), "--paradigm", "schwa"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ID\tSOURCE\tREF-M\tREF-F\tREF-ADAPTED\tANNOTATION\n")
    assert "Lə direttorə" in out
    assert "il la lə; direttore direttrice direttorə;" in out


def test_adapt_out_file(corpus_file, tmp_path):
    target = tmp_path / "adapted.tsv"
    assert (
        dispatch(
            ["adapt", "--corpus", str(corpus_file), "--paradigm", "asterisk",
             "--out-file", str(target)]
        )
        == 0
    )
    assert "L* direttor*" in target.read_text(encoding="utf-8")


def test_prompt_dump_zero_shot(corpus_file, capsys):
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--paradigm", "asterisk",
             "--format", "zero_shot"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("=== entry 0001 ===\n[user]\n")
    assert "neomorpheme '*'" in out
    assert "[English] <The department chair" in out


def test_prompt_few_shot_uses_dev_exemplars(corpus_file, tmp_path, capsys):
    dev = tmp_path / "dev.tsv"
    dev.write_text(EXAMPLE_CORPUS_TEXT, encoding="utf-8")
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--paradigm", "asterisk",
             "--format", "binary", "--shots", "1", "--dev-corpus", str(dev)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "[assistant]" in out
    assert "[Italian, neomorpheme] <L* direttor*" in out


def test_prompt_entry_filter(corpus_file, capsys):
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--entry", "0001"]
        )
        == 0
    )
    assert "=== entry 0001 ===" in capsys.readouterr().out
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--entry", "zzz"]
        )
        == 1
    )
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--format", "direct"], "n_shots is 0 exactly for the zero-shot format"),
        (["--shots", "3"], "n_shots must be one of (0, 1, 4, 8)"),
        (["--format", "direct", "--exemplars", "a,b", "--shots", "1"], "2 exemplar ids for 1 shots"),
        (["--format", "direct", "--shots", "1", "--exemplars", "zzz"],
         "exemplar id 'zzz' not found in dev corpus"),
    ],
    ids=["direct-0-shots", "3-shots", "2-exemplars-1-shot", "unknown-exemplar"],
)
def test_prompt_rejected_spec_flags_are_usage_errors(corpus_file, flags, message, capsys):
    argv = ["prompt", "--corpus", str(corpus_file), "--dev-corpus", str(corpus_file)]
    assert dispatch(argv + flags) == 2
    assert capsys.readouterr().err == f"usage error: --format/--shots/--exemplars: {message}\n"


def test_prompt_few_shot_requires_dev(corpus_file, capsys):
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--format", "direct", "--shots", "1"]
        )
        == 2
    )
    assert capsys.readouterr().err == "usage error: missing --dev-corpus\n"


def test_evaluate_self_adapted_reference(corpus_file, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("L* direttor* del dipartimento ha detto che potrebbero assumere nuov* professor*\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    code = dispatch(
        ["evaluate", "--corpus", str(corpus_file), "--paradigm", "asterisk",
         "--hyp", str(hyp), "--out", str(out_dir)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "100.00  100.00  100.00  0.00" in table
    for name in ("report.txt", "report.kv", "trace.tsv", "manifest.kv"):
        assert (out_dir / name).exists()
    kv = parse_kv((out_dir / "report.kv").read_text(encoding="utf-8"))
    assert kv["cov"] == "100.00" and kv["mis"] == "0.00"
    assert kv["annotations"] == "4"
    trace = (out_dir / "trace.tsv").read_text(encoding="utf-8").splitlines()
    assert trace[0].startswith("entry_id\t")
    assert trace[1].split("\t")[:5] == ["0001", "4", "4", "4", "4"]
    manifest = (out_dir / "manifest.kv").read_text(encoding="utf-8")
    assert parse_kv(manifest)["paradigm"] == "asterisk"
    assert manifest.splitlines()[0] == f"# neogate {__version__}"


def test_evaluate_pads_missing_hypotheses(corpus_file, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("", encoding="utf-8")
    assert (
        dispatch(
            ["evaluate", "--corpus", str(corpus_file), "--paradigm", "asterisk",
             "--hyp", str(hyp)]
        )
        == 0
    )
    captured = capsys.readouterr()
    out = captured.out
    assert "unparseable_rate=100.00" in out
    assert captured.err == (
        f"warning: {hyp}: 0 hypothesis lines for 1 entries; padded with 1 blank lines\n"
    )


def test_report_rendering_and_kv_round_trip():
    report = MetricReport(cov=57.08, acc=74.63, cwa=42.60, mis=45.78, unparseable_rate=1.25)
    table = render_report(report, "table")
    assert "57.08  74.63  42.60  45.78" in table
    zero = MetricReport(0.0, 0.0, 0.0, 0.0)
    assert "0.00  0.00  0.00  0.00" in render_report(zero, "table")
    counts = EvalCounts(annotations=10, matched=5, correct=3, found=4)
    kv_text = render_report(report, "kv", counts)
    values = parse_kv(kv_text)
    assert MetricReport(*(float(values[key]) for key in MetricReport._fields)) == report
    assert values["matched"] == "5"


def test_kappa_labels_files(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("A\nA\nB\nB\n", encoding="utf-8")
    b.write_text("A\nB\nA\nB\n", encoding="utf-8")
    assert dispatch(["kappa", "--labels-a", str(a), "--labels-b", str(b)]) == 0
    assert "kappa=0.000000" in capsys.readouterr().out


def test_kappa_corpora(corpus_file, capsys):
    assert (
        dispatch(
            ["kappa", "--corpus-a", str(corpus_file), "--corpus-b", str(corpus_file)]
        )
        == 0
    )
    assert "kappa=1.000000" in capsys.readouterr().out


def test_kappa_requires_inputs(capsys):
    assert dispatch(["kappa"]) == 2


def prompt_key(argv: list[str], source: str) -> str:
    """The prompt hash that ``neogate argv`` looks ``source`` up under."""
    args = build_parser().parse_args(argv)
    tagset, _, mapping = _load_inputs(args)
    spec, exemplars = _build_spec(args, mapping, tagset)
    return prompt_hash(build_prompt(source, spec, exemplars), args.model, args.temperature)


def test_extract_from_cache(corpus_file, tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    out_file = tmp_path / "hyp.txt"
    argv = ["extract", "--corpus", str(corpus_file), "--cache", str(cache),
            "--format", "binary", "--shots", "1", "--dev-corpus", str(split_path("dev")),
            "--model", "m", "--out-file", str(out_file)]
    record = RunRecord(
        entry_id="0001",
        prompt_hash=prompt_key(argv, EXAMPLE_SOURCE),
        raw="[Italian, neomorpheme] <L* direttor* qui.>",
        outcome="ok",
        translation="ignored",
        model="m",
        requested_at="t",
        completed_at="t",
    )
    cache.write_text(record.to_json() + "\n", encoding="utf-8")
    code = dispatch(argv)
    assert code == 0
    assert out_file.read_text(encoding="utf-8") == "L* direttor* qui.\n"


class FakeClient:
    """In-process ``ChatClient``: replies with the model name and the
    source, then a neomorpheme-labelled reversed source."""

    def __init__(self, config):
        self.model = config.model

    def complete(self, messages) -> str:
        source = re.search(r"\[English\] <(.*?)>", messages[-1].content, re.S).group(1)
        return f"<{self.model}: {source}>\n[Italian, neomorpheme] <{source[::-1]}>"

    def close(self) -> None:
        pass


UNUSED_ENDPOINT = "--endpoint=http://127.0.0.1:9/v1"


@pytest.mark.parametrize("fmt, shots", [("zero_shot", 0), ("direct", 1), ("binary", 4), ("ternary", 8)])
def test_extract_after_a_full_split_run_gives_its_hypotheses(fmt, shots, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "ChatClient", FakeClient)
    out = tmp_path / "out"
    spec = [f"--corpus={split_path('test')}", "--paradigm=schwa", f"--format={fmt}",
            f"--shots={shots}", f"--dev-corpus={split_path('dev')}", "--model=m",
            "--temperature=0.5"]
    assert dispatch(["run", *spec, UNUSED_ENDPOINT, f"--out={out}"]) == 0
    extracted = tmp_path / "extracted.txt"
    argv = ["extract", *spec, f"--cache={out / 'cache.jsonl'}", f"--out-file={extracted}"]
    assert dispatch(argv) == 0
    assert extracted.read_bytes() == (out / "hypotheses.txt").read_bytes()


def test_extract_uses_the_records_of_its_model(corpus_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "ChatClient", FakeClient)
    cache = tmp_path / "cache.jsonl"
    for model in ("a", "b"):
        run = ["run", f"--corpus={corpus_file}", f"--model={model}", f"--cache={cache}"]
        assert dispatch(run + [UNUSED_ENDPOINT, f"--out={tmp_path / model}"]) == 0
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 2
    capsys.readouterr()
    for model in ("b", "a"):
        extract = ["extract", f"--corpus={corpus_file}", f"--model={model}", f"--cache={cache}"]
        assert dispatch(extract) == 0
        assert capsys.readouterr().out == f"{model}: {EXAMPLE_SOURCE}\n"
    argv = ["extract", f"--corpus={corpus_file}", "--model=c", f"--cache={cache}"]
    assert dispatch(argv) == 1
    assert f"entry 0001 (prompt hash {prompt_key(argv, EXAMPLE_SOURCE)})" in capsys.readouterr().err


class ReplyClient(FakeClient):
    """Replies ``<la traduzione>`` to every prompt."""

    def complete(self, messages) -> str:
        return "<la traduzione>"


def rewrite_records(cache: Path, change) -> None:
    """Replace each record in ``cache`` with ``change(fields)`` and delete
    the sidecar, as in a cache that an older extractor wrote."""
    lines = cache.read_text(encoding="utf-8").splitlines()
    cache.write_text(
        "".join(json.dumps(change(json.loads(line)), sort_keys=True) + "\n" for line in lines),
        encoding="utf-8",
    )
    cache.with_name(cache.name + ".idx").unlink(missing_ok=True)


def warm_run_and_extract(tmp_path, flags, cache: Path) -> tuple[str, str, str]:
    """The ``hypotheses.txt`` and stdout of a ``run`` with ``flags`` that
    finds every prompt in ``cache``, and what ``extract`` writes with them."""
    before = cache.read_bytes()
    out, extracted = tmp_path / "warm", tmp_path / "extracted.txt"
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert dispatch(["run", *flags, UNUSED_ENDPOINT, f"--out={out}"]) == 0
    assert cache.read_bytes() == before  # nothing was fetched
    assert dispatch(["extract", *flags, f"--out-file={extracted}"]) == 0
    hyp = (out / "hypotheses.txt").read_text(encoding="utf-8")
    return hyp, extracted.read_text(encoding="utf-8"), stdout.getvalue()


def test_a_warm_run_takes_its_lines_from_raw_as_extract_does(tmp_path, monkeypatch):
    """A cache outlives the extractor that wrote it: each line comes from
    the record's ``raw``, not from its stored ``translation``."""
    monkeypatch.setattr(runner, "ChatClient", ReplyClient)
    cache = tmp_path / "cache.jsonl"
    flags = [f"--corpus={head_of_test_split(tmp_path, 5)}", "--model=m", f"--cache={cache}"]
    assert dispatch(["run", *flags, UNUSED_ENDPOINT, f"--out={tmp_path / 'cold'}"]) == 0
    rewrite_records(cache, lambda r: {**r, "translation": "OLD " + r["translation"]})
    warm, extracted, _ = warm_run_and_extract(tmp_path, flags, cache)
    assert warm == extracted == "la traduzione\n" * 5


@pytest.mark.parametrize(
    "stored, raw, line",
    [("unparseable", "<ciao>", "ciao"), ("failed", "", "")],
    ids=["unparseable-that-parses-now", "failed"],
)
def test_a_stored_outcome_gives_way_to_the_extraction_of_raw(
    stored, raw, line, tmp_path, monkeypatch
):
    """A record's stored ``outcome`` is not read back: ``raw`` decides it,
    and a cached record is never ``failed``."""
    monkeypatch.setattr(runner, "ChatClient", ReplyClient)
    cache = tmp_path / "cache.jsonl"
    flags = [f"--corpus={head_of_test_split(tmp_path, 5)}", "--model=m", f"--cache={cache}"]
    assert dispatch(["run", *flags, UNUSED_ENDPOINT, f"--out={tmp_path / 'cold'}"]) == 0
    rewrite_records(cache, lambda r: {**r, "raw": raw, "outcome": stored, "translation": None})
    warm, extracted, stdout = warm_run_and_extract(tmp_path, flags, cache)
    assert warm == extracted == f"{line}\n" * 5
    assert f"records=5 failed=0 cache={cache}\n" == stdout


# replies built from the pieces extraction looks for, or any text
REPLIES = st.lists(
    st.sampled_from(["<", ">", "[Italian, neomorpheme] ", "[italian, NEOMORPHEME]", "a", " "]),
    max_size=8,
).map("".join) | st.text(max_size=8)
STORED = st.tuples(
    REPLIES,
    st.none() | st.text(max_size=8),
    st.sampled_from(["ok", "unparseable", "failed"]) | st.text(max_size=4),
)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["zero_shot", "ternary"]), st.lists(STORED, min_size=3, max_size=3))
def test_for_any_cache_contents_a_warm_run_writes_what_extract_does(fmt, stored):
    """Whatever a cache holds for each prompt, a warm ``run`` and ``extract``
    write the extraction of each ``raw`` with the current extractor."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        cache = tmp_path / "cache.jsonl"
        flags = [f"--corpus={head_of_test_split(tmp_path, 3)}", f"--format={fmt}",
                 f"--shots={int(fmt != 'zero_shot')}", f"--dev-corpus={split_path('dev')}",
                 "--model=m", f"--cache={cache}"]
        args = build_parser().parse_args(["extract", *flags])
        tagset, corpus, mapping = _load_inputs(args)
        spec, exemplars = _build_spec(args, mapping, tagset)
        records = [
            RunRecord(
                entry_id=entry.entry_id,
                prompt_hash=prompt_hash(build_prompt(entry.source, spec, exemplars), "m", 0.0),
                raw=raw,
                outcome=outcome,
                translation=translation,
                model="m",
                requested_at="t",
                completed_at="t",
            )
            for entry, (raw, translation, outcome) in zip(corpus, stored)
        ]
        cache.write_text("".join(r.to_json() + "\n" for r in records), encoding="utf-8")
        warm, extracted, _ = warm_run_and_extract(tmp_path, flags, cache)
    assert warm == extracted == hypothesis_file(extract_translation(r, spec) for r, _, _ in stored)


def config_spellings(path) -> list[list[str]]:
    """``--config`` and the abbreviations argparse takes for it."""
    return [["--config", str(path)], ["--conf", str(path)], [f"--c={path}"]]


def test_run_and_config_precedence(corpus_file, tmp_path, echo_server, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        f"# shared settings\n\nendpoint={echo_server.url}\n  # the model\nmodel=config-model\n"
        "temperature=0.5\nhyp=h.txt\n",
        encoding="utf-8",
    )
    for i, spelling in enumerate(config_spellings(config)):
        out_dir = tmp_path / f"run-out-{i}"
        code = dispatch(
            [*spelling, "run", "--corpus", str(corpus_file),
             "--paradigm", "asterisk", "--model", "flag-model", "--out", str(out_dir)]
        )
        assert code == 0
        hyp = (out_dir / "hypotheses.txt").read_text(encoding="utf-8")
        assert hyp == "The department chair said they might hire new professors\n"
        manifest = parse_kv((out_dir / "manifest.kv").read_text(encoding="utf-8"))
        assert manifest["model"] == "flag-model"  # flag beats config
        assert manifest["temperature"] == "0.5"  # config beats default
        assert "hyp" not in manifest  # an evaluate flag
        cache_lines = (out_dir / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(cache_lines) == 1
        assert json.loads(cache_lines[0])["model"] == "flag-model"


@pytest.mark.parametrize(
    "key, path, message",
    [
        ("ab\ncd", "/v1", "NEOGATE_API_KEY holds a line break or a non-Latin-1 character"),
        ("key€", "/v1", "NEOGATE_API_KEY holds a line break or a non-Latin-1 character"),
        ("k", "/v1/modèle", "endpoint request target is not ASCII: '/v1/modèle'"),
        ("k", "/v1 chat", "endpoint request target holds a space or a control character: '/v1 chat'"),
        ("k", "/v1\x00", "endpoint request target holds a space or a control character: '/v1\\x00'"),
    ],
    ids=["key-line-break", "key-not-latin-1", "target-not-ascii", "target-space", "target-control"],
)
def test_what_cannot_go_on_the_wire_stops_the_run_before_any_request(
    key, path, message, corpus_file, tmp_path, echo_server, monkeypatch, capsys
):
    monkeypatch.setenv("NEOGATE_API_KEY", key)
    endpoint = echo_server.url.replace("/v1/chat/completions", path)
    argv = ["run", f"--corpus={corpus_file}", "--model=m", f"--endpoint={endpoint}",
            f"--out={tmp_path / 'out'}"]
    assert dispatch(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert echo_server.calls == 0


def test_reply_without_string_content_fails_uncached(corpus_file, tmp_path, echo_server, capsys):
    out = tmp_path / "out"
    argv = ["run", f"--corpus={corpus_file}", "--model=m", f"--endpoint={echo_server.url}",
            f"--out={out}"]
    echo_server.script = ["null"]  # {"choices": [{"message": {"content": null}}]}
    assert dispatch([*argv, "--retries=0"]) == 0
    assert "records=1 failed=1 " in capsys.readouterr().out
    assert not (out / "cache.jsonl").exists()
    assert (out / "hypotheses.txt").read_text(encoding="utf-8") == "\n"
    # retried like any malformed body; the good reply is fetched and cached
    echo_server.script = ["null"]
    assert dispatch(argv) == 0
    assert "records=1 failed=0 " in capsys.readouterr().out
    assert echo_server.calls == 3
    assert len((out / "cache.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert (out / "hypotheses.txt").read_text(encoding="utf-8") == EXAMPLE_SOURCE + "\n"


def test_a_reply_with_half_a_surrogate_pair_is_cached_and_replayed(
    corpus_file, tmp_path, echo_server, capsys
):
    out = tmp_path / "out"
    argv = ["run", f"--corpus={corpus_file}", "--model=m", f"--endpoint={echo_server.url}",
            f"--out={out}"]
    echo_server.script = ["half emoji"]  # {"content": "<... \\ud83d>"}
    assert dispatch(argv) == 0
    assert "records=1 failed=0 " in capsys.readouterr().out
    hyp = (out / "hypotheses.txt").read_bytes()
    assert hyp.decode() == f"{EXAMPLE_SOURCE} \ufffd\n"  # a lone surrogate has no UTF-8
    [line] = (out / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["raw"] == f"<{EXAMPLE_SOURCE} \ufffd>"
    assert dispatch(argv) == 0
    assert echo_server.calls == 1
    assert (out / "hypotheses.txt").read_bytes() == hyp


@pytest.mark.parametrize("command", ["run", "extract"])
def test_a_model_that_argv_could_not_decode_is_a_usage_error(command, corpus_file, tmp_path):
    argv = [command, f"--corpus={corpus_file}", f"--cache={tmp_path / 'cache.jsonl'}"]
    if command == "run":
        argv += [UNUSED_ENDPOINT, f"--out={tmp_path / 'out'}"]
    src = Path(__file__).resolve().parent.parent / "src"
    # in UTF-8 mode, argv's byte 0xff becomes the lone surrogate U+DCFF
    result = subprocess.run(
        [sys.executable, "-m", "neogate", *argv, b"--model=m\xff"],
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONUTF8": "1"},
        capture_output=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"usage error: --model holds a byte that is not text: 'm\\udcff'\n"


def neogate_with_a_byte_of_argv(argv: list[str], flag: str, path: Path):
    """``python -m neogate argv --flag=path`` with byte 0xff after ``path``,
    in UTF-8 mode, which decodes that byte to the lone surrogate U+DCFF."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-m", "neogate", *argv, os.fsencode(f"--{flag}={path}") + b"\xff"],
        env={**NO_PROXY_ENV, "PYTHONPATH": str(src), "PYTHONUTF8": "1"},
        capture_output=True,
        timeout=60,
    )


def test_a_run_whose_cache_path_is_not_text_stops_before_any_request(
    corpus_file, tmp_path, echo_server
):
    out = tmp_path / "out"
    argv = ["run", f"--corpus={corpus_file}", "--model=m", f"--endpoint={echo_server.url}",
            f"--out={out}"]
    result = neogate_with_a_byte_of_argv(argv, "cache", tmp_path / "c")
    assert (result.returncode, result.stdout) == (2, b"")
    cache = repr(f"{tmp_path / 'c'}\udcff")
    assert result.stderr == f"usage error: --cache holds a byte that is not text: {cache}\n".encode()
    assert echo_server.calls == 0
    assert not out.exists()


def test_an_evaluate_whose_out_path_is_not_text_writes_nothing(corpus_file, tmp_path):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"{EXAMPLE_SOURCE}\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    argv = ["evaluate", f"--corpus={corpus_file}", f"--hyp={hyp}"]
    result = neogate_with_a_byte_of_argv(argv, "out", tmp_path / "o")
    assert (result.returncode, result.stdout) == (2, b"")
    out = repr(f"{tmp_path / 'o'}\udcff")
    assert result.stderr == f"usage error: --out holds a byte that is not text: {out}\n".encode()
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--corpus=c\udcff.tsv"],
        ["--config=k\udcff.kv", "stats", "--corpus=c.tsv"],
        ["run", "--corpus=c.tsv", "--model=m", "--cache=c\udcff.jsonl"],
        ["extract", "--dev-corpus=d\udcff.tsv"],
        ["prompt", "--out-file=\udcff"],
        ["kappa", "--labels-a=a.txt", "--labels-b=\udcffb.txt"],
    ],
    ids=["validate-corpus", "config", "run-cache", "extract-dev-corpus", "prompt-out-file",
         "kappa-labels-b"],
)
def test_any_flag_value_that_argv_could_not_decode_is_a_usage_error(
    argv, tmp_path, monkeypatch, capsys
):
    [(flag, value)] = [arg.split("=") for arg in argv if "\udcff" in arg]
    monkeypatch.chdir(tmp_path)  # where no file that argv names exists
    assert dispatch(argv) == 2
    assert capsys.readouterr() == (
        "", f"usage error: {flag} holds a byte that is not text: {value!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_repeated_entry_id_keeps_each_entry_on_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "ChatClient", FakeClient)
    corpus = tmp_path / "corpus.tsv"
    second = EXAMPLE_CORPUS_TEXT.splitlines()[1].replace(EXAMPLE_SOURCE, "They said it again")
    corpus.write_text(EXAMPLE_CORPUS_TEXT + second + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [f"--corpus={corpus}", "--model=m"]
    assert dispatch(["run", *argv, UNUSED_ENDPOINT, f"--out={out}"]) == 0
    hyp = (out / "hypotheses.txt").read_bytes()
    assert hyp.decode() == f"m: {EXAMPLE_SOURCE}\nm: They said it again\n"
    extracted = tmp_path / "extracted.txt"
    assert dispatch(["extract", *argv, f"--cache={out / 'cache.jsonl'}", f"--out-file={extracted}"]) == 0
    assert extracted.read_bytes() == hyp


def test_header_only_corpus_gives_an_empty_hypothesis_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "ChatClient", FakeClient)
    corpus = tmp_path / "empty.tsv"
    corpus.write_text(HEADER_LINE + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [f"--corpus={corpus}", "--model=m"]
    assert dispatch(["run", *argv, UNUSED_ENDPOINT, f"--out={out}"]) == 0
    assert (out / "hypotheses.txt").read_bytes() == b""
    extracted = tmp_path / "extracted.txt"
    cache = f"--cache={out / 'cache.jsonl'}"
    assert dispatch(["extract", *argv, cache, f"--out-file={extracted}"]) == 0
    assert extracted.read_bytes() == b""
    capsys.readouterr()
    assert dispatch(["evaluate", f"--corpus={corpus}", f"--hyp={extracted}"]) == 1
    assert capsys.readouterr().err == "error: cannot compute metrics over zero annotations\n"


def test_config_bad_value_is_usage_error(corpus_file, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    for line, named in (
        ("retries=abc", "--retries"),
        ("format=bogus", "--format"),
        ("paradigm schwa", "usage error: config line 2 is not key=value: 'paradigm schwa'"),
    ):
        config.write_text("# a comment\n" + line + "\n", encoding="utf-8")
        assert dispatch(["--config", str(config), "run", "--corpus", str(corpus_file)]) == 2
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "setting",
    ["retries=-1", "timeout=-1", "timeout=0", "timeout=inf", "timeout=nan", "concurrency=0",
     "concurrency=-3", "rate-limit=-1", "rate-limit=inf", "rate-limit=nan", "temperature=nan",
     "temperature=inf", "temperature=-1"],
)
def test_run_rejects_out_of_range_retries_and_timeout(setting, source, corpus_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", f"--corpus={corpus_file}", "--model=m", UNUSED_ENDPOINT, f"--out={out}"]
    if source == "flag":
        argv.append(f"--{setting}")
    else:
        config = tmp_path / "run.conf"
        config.write_text(setting + "\n", encoding="utf-8")
        argv.insert(0, f"--config={config}")
    assert dispatch(argv) == 2
    flag = "--" + setting.partition("=")[0]
    assert capsys.readouterr().err.startswith(f"usage error: {flag} ")
    assert not out.exists()  # nothing was written and no request was sent


def test_config_unknown_key_is_usage_error(corpus_file, tmp_path, capsys):
    config = tmp_path / "typo.conf"
    config.write_text("modle=x\n", encoding="utf-8")
    for spelling in config_spellings(config):
        assert dispatch([*spelling, "stats", "--corpus", str(corpus_file)]) == 2
        assert "usage error: unknown config key modle" in capsys.readouterr().err


def test_argv_errors_come_before_config_file_errors(tmp_path, capsys):
    config = tmp_path / "typo.conf"
    config.write_text("modle=x\n", encoding="utf-8")
    assert dispatch(["--config", str(config), "stats", "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    missing = tmp_path / "nonexistent.conf"
    assert dispatch(["--config", str(missing), "stats", "--bogus"]) == 2


def test_config_keys_of_other_subcommands_allowed(corpus_file, tmp_path, capsys):
    config = tmp_path / "shared.conf"
    config.write_text("endpoint=http://x\nconcurrency=4\nhyp=h.txt\n", encoding="utf-8")
    assert dispatch(["--config", str(config), "stats", "--corpus", str(corpus_file)]) == 0


@pytest.mark.parametrize("setting", ["format=bogus", "shots=x"])
def test_a_bad_config_value_fails_as_the_same_bad_flag(setting, corpus_file, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text(setting + "\n", encoding="utf-8")
    argv = ["run", f"--corpus={corpus_file}"]
    assert dispatch([f"--config={config}", *argv]) == 2
    from_config = capsys.readouterr().err
    key, _, value = setting.partition("=")
    assert dispatch([*argv, f"--{key}", value]) == 2
    assert from_config == capsys.readouterr().err


def test_a_bad_value_of_another_commands_key_does_not_stop_evaluate(tmp_path, capsys):
    corpus = head_of_test_split(tmp_path, 30)
    rows = corpus.read_text(encoding="utf-8").splitlines()[1:]
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(row.split("\t")[3] + "\n" for row in rows), encoding="utf-8")
    shared = tmp_path / "shared.conf"
    shared.write_text(f"format=bogus\nhyp={hyp}\n", encoding="utf-8")
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    argv = ["evaluate", f"--corpus={corpus}"]
    assert dispatch([*argv, f"--hyp={hyp}", f"--out={plain}"]) == 0
    assert dispatch([f"--config={shared}", *argv, f"--out={configured}"]) == 0
    assert (configured / REPORT_KV).read_bytes() == (plain / REPORT_KV).read_bytes()
    assert "format" not in parse_kv((configured / "manifest.kv").read_text(encoding="utf-8"))
    # the command that owns the key still checks it
    assert dispatch([f"--config={shared}", "run", f"--corpus={corpus}"]) == 2
    assert "argument --format: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("paradigm", sorted(GOLDEN_ADAPT))
def test_full_split_golden_digests(paradigm, tmp_path, capsys, monkeypatch):
    corpus = str(DATA_DIR / "synthetic-test.tsv")
    adapted = tmp_path / "adapted.tsv"
    assert dispatch(
        ["adapt", "--corpus", corpus, "--paradigm", paradigm, "--out-file", str(adapted)]
    ) == 0
    rows = adapted.read_text(encoding="utf-8").splitlines()[1:]
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(row.split("\t")[4] + "\n" for row in rows), encoding="utf-8")
    out = tmp_path / "report"
    assert dispatch(
        ["evaluate", "--corpus", corpus, "--paradigm", paradigm, "--hyp", str(hyp),
         "--out", str(out)]
    ) == 0
    table = capsys.readouterr().out
    assert dispatch(["stats", "--corpus", corpus]) == 0
    assert capsys.readouterr().out == GOLDEN_STATS
    ternary = ["--format=ternary", "--shots=8", f"--dev-corpus={DATA_DIR / 'synthetic-dev.tsv'}"]
    prompts = tmp_path / "prompts.txt"
    assert dispatch(
        ["prompt", f"--corpus={corpus}", f"--paradigm={paradigm}", *ternary,
         f"--out-file={prompts}"]
    ) == 0
    # the same paradigm through --mapping, so the manifest names its file
    mapping = tmp_path / "paradigm.map"
    mapping.write_bytes((DATA_DIR.parent / "src/neogate/data" / f"{paradigm}.map").read_bytes())
    monkeypatch.setattr(runner, "ChatClient", FakeClient)
    assert dispatch(
        ["run", f"--corpus={corpus}", f"--mapping={mapping}", *ternary, "--model=m",
         UNUSED_ENDPOINT, f"--out={tmp_path / 'run'}"]
    ) == 0
    capsys.readouterr()

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def manifest(path):
        text = path.read_text(encoding="utf-8")
        return text.replace(str(tmp_path), "<tmp>").replace(str(DATA_DIR), "<data>")

    assert digest(adapted) == GOLDEN_ADAPT[paradigm]
    assert digest(out / "report.kv") == GOLDEN_SELF_REPORT_KV
    assert digest(out / "trace.tsv") == GOLDEN_SELF_TRACE_TSV
    assert (out / "report.txt").read_text(encoding="utf-8") == table == GOLDEN_SELF_REPORT_TXT
    assert manifest(out / "manifest.kv") == GOLDEN_EVALUATE_MANIFEST.format(paradigm, __version__)
    assert digest(prompts) == GOLDEN_TERNARY_8_PROMPTS[paradigm]
    assert manifest(tmp_path / "run/manifest.kv") == GOLDEN_RUN_MANIFEST.format(paradigm, __version__)


def python_in_subprocess(check: str, *argv: str, env=os.environ) -> str:
    """Run ``check`` with ``argv`` in a fresh interpreter without site
    packages, in ``env`` with ``src`` on its path; return its standard
    output."""
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", check, *argv],
        env={**env, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_imports_with_the_standard_library_only():
    check = "import sys, neogate.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    assert python_in_subprocess(check) == "[]\n"


def test_perfbench_imports_from_neogate_resolve():
    """The benchmark under ``perfbench/`` imports names from ``neogate`` but
    runs outside this suite; each of those names must still exist."""
    imported = []
    for path in sorted((DATA_DIR.parent / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "neogate":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "neogate"
                ]
    assert {module for _, module, _ in imported} >= {"neogate", "neogate.cli"}
    unresolved = []
    for file, module, name in imported:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            unresolved.append(f"{file}: {module}.{name}")
    assert unresolved == []


def test_package_exports_names_not_modules():
    import neogate

    exported = {name: getattr(neogate, name) for name in neogate.__all__}
    assert len(exported) == len(neogate.__all__)
    assert [n for n, v in exported.items() if isinstance(v, types.ModuleType)] == []


def test_import_neogate_loads_no_submodule():
    check = "import sys, neogate; print(sorted(m for m in sys.modules if m.startswith('neogate.')))"
    assert python_in_subprocess(check) == "[]\n"


@pytest.mark.parametrize("module", ["neogate", "neogate.cli"])
def test_python_m_runs_the_cli(module, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"

    def python_m(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )

    stats = python_m("stats", f"--corpus={DATA_DIR / 'synthetic-test.tsv'}")
    assert (stats.returncode, stats.stdout) == (0, GOLDEN_STATS)
    missing = python_m("stats", f"--corpus={tmp_path / 'missing.tsv'}")
    assert (missing.returncode, missing.stdout) == (1, "")
    assert missing.stderr.startswith("error: ")


NETWORK_MODULES = ("concurrent.futures", "http.client", "ssl", "urllib.request")


def cli_in_subprocess(
    argv: list[str], watched=NETWORK_MODULES, env=os.environ
) -> tuple[int, list[str]]:
    """Run ``neogate argv`` in a fresh interpreter in ``env``; return its
    exit code and the ``watched`` modules it loaded."""
    check = (
        "import sys; from neogate.cli import dispatch; code = dispatch(sys.argv[1:]); "
        f"print(code, *sorted(set({tuple(watched)!r}) & set(sys.modules)))"
    )
    code, *modules = python_in_subprocess(check, *argv, env=env).splitlines()[-1].split()
    return int(code), modules


# the environment without a variable that names a proxy or an exception to one
NO_PROXY_ENV = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}


def test_warm_run_and_evaluate_load_no_network_modules(corpus_file, tmp_path, echo_server):
    out = tmp_path / "out"
    run = ["run", f"--corpus={corpus_file}", "--model=m", f"--out={out}", "--concurrency=2"]
    # a cold run requests on its own threads, with no executor; with no
    # proxy variable it reads no proxy table, and over http it needs no TLS
    cold = cli_in_subprocess(run + [f"--endpoint={echo_server.url}"], env=NO_PROXY_ENV)
    assert cold == (0, [])
    assert echo_server.calls == 1
    assert cli_in_subprocess(run + [f"--endpoint={echo_server.url}"]) == (0, [])
    assert echo_server.calls == 1
    # the endpoint is still checked when every prompt is cached
    assert cli_in_subprocess(run + ["--endpoint=localhost:9/v1"]) == (1, [])
    hyp = str(out / "hypotheses.txt")
    assert cli_in_subprocess(["evaluate", f"--corpus={corpus_file}", f"--hyp={hyp}"]) == (0, [])
    extracted = tmp_path / "extracted.txt"
    extract = ["extract", f"--corpus={corpus_file}", "--model=m", f"--cache={out / 'cache.jsonl'}"]
    assert cli_in_subprocess(extract + [f"--out-file={extracted}"]) == (0, [])
    assert extracted.read_bytes() == (out / "hypotheses.txt").read_bytes()


@pytest.mark.parametrize("name", ["http_proxy", "NO_PROXY"])
def test_a_cold_run_with_a_proxy_variable_reads_the_proxy_table(
    name, corpus_file, tmp_path, echo_server
):
    # the echo server serves as its own forward proxy; 127.0.0.1 needs none
    proxy = f"http://127.0.0.1:{echo_server.server_address[1]}"
    env = {**NO_PROXY_ENV, name: proxy if name == "http_proxy" else "127.0.0.1"}
    run = ["run", f"--corpus={corpus_file}", "--model=m", f"--out={tmp_path}",
           f"--endpoint={echo_server.url}"]
    assert cli_in_subprocess(run, ("urllib.request",), env) == (0, ["urllib.request"])
    [(path, _)] = echo_server.requests
    assert path == (echo_server.url if name == "http_proxy" else "/v1/chat/completions")


# what only ``run`` and ``extract`` need: the runner and its stdlib modules
RUNNER_MODULES = ("neogate.runner", "dataclasses", "datetime", "hashlib", "json", "logging")


@pytest.mark.parametrize(
    "command",
    [
        ["validate", "--corpus={corpus}"],
        ["stats", "--corpus={corpus}"],
        ["adapt", "--corpus={corpus}", "--out-file={tmp}/adapted.tsv"],
        ["kappa", "--corpus-a={corpus}", "--corpus-b={corpus}"],
        ["evaluate", "--corpus={corpus}", "--hyp={tmp}/hyp.txt", "--out={tmp}/report"],
    ],
    ids=lambda command: command[0],
)
def test_commands_without_a_network_load_no_runner(command, corpus_file, tmp_path):
    (tmp_path / "hyp.txt").write_text(EXAMPLE_SOURCE + "\n", encoding="utf-8")
    argv = [arg.format(corpus=corpus_file, tmp=tmp_path) for arg in command]
    assert cli_in_subprocess(argv, RUNNER_MODULES) == (0, [])


# what reading the bundled data through ``importlib.resources`` would load
RESOURCE_MODULES = ("importlib.resources", "tempfile", "zipfile")


def test_warm_run_loads_no_evaluator(corpus_file, tmp_path, echo_server):
    run = ["run", f"--corpus={corpus_file}", "--model=m", f"--out={tmp_path}",
           f"--endpoint={echo_server.url}"]
    watched = ("neogate.evaluator",)
    assert cli_in_subprocess(run, watched) == (0, [])
    # nor what only requests and warnings use, nor a resource reader
    assert cli_in_subprocess(run, (*watched, "logging", "datetime", *RESOURCE_MODULES)) == (0, [])
    assert echo_server.calls == 1
    evaluate = ["evaluate", f"--corpus={corpus_file}", f"--hyp={tmp_path / 'hypotheses.txt'}"]
    assert cli_in_subprocess(evaluate, RESOURCE_MODULES) == (0, [])


def test_only_a_run_with_a_cache_miss_loads_the_wire_module(corpus_file, tmp_path, echo_server):
    run = ["run", f"--corpus={corpus_file}", "--model=m", f"--out={tmp_path}",
           f"--endpoint={echo_server.url}"]
    assert cli_in_subprocess(run, ("neogate.wire",)) == (0, ["neogate.wire"])
    assert cli_in_subprocess(run, ("neogate.wire",)) == (0, [])
    assert echo_server.calls == 1


class LineBreakClient(FakeClient):
    """Replies with the source broken by a CR LF, then by a U+2028."""

    def complete(self, messages) -> str:
        source = re.search(r"\[English\] <(.*?)>", messages[-1].content, re.S).group(1)
        return "<" + source.replace(" ", "\r\n", 1).replace(" ", "\u2028", 1) + ">"


def test_replies_with_any_line_break_stay_on_their_line(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "ChatClient", LineBreakClient)
    corpus = tmp_path / "corpus.tsv"
    second = EXAMPLE_CORPUS_TEXT.splitlines()[1].replace("0001", "0002", 1)
    second = second.replace(EXAMPLE_SOURCE, "They said it again")
    corpus.write_text(EXAMPLE_CORPUS_TEXT + second + "\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = [f"--corpus={corpus}", "--model=m"]
    assert dispatch(["run", *argv, UNUSED_ENDPOINT, f"--out={out}"]) == 0
    hyp = out / "hypotheses.txt"
    assert hyp.read_text(encoding="utf-8") == f"{EXAMPLE_SOURCE}\nThey said it again\n"
    extracted = tmp_path / "extracted.txt"
    assert dispatch(["extract", *argv, f"--cache={out / 'cache.jsonl'}", f"--out-file={extracted}"]) == 0
    assert extracted.read_bytes() == hyp.read_bytes()
    assert dispatch(["evaluate", f"--corpus={corpus}", f"--hyp={hyp}", f"--out={tmp_path}"]) == 0
    assert parse_kv((tmp_path / "report.kv").read_text(encoding="utf-8"))["entries"] == "2"


def head_of_test_split(tmp_path, entries: int) -> Path:
    """A corpus of the header and the first ``entries`` rows of the test split."""
    lines = split_path("test").read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "head.tsv"
    path.write_text("".join(lines[: entries + 1]), encoding="utf-8")
    return path


def without_out(manifest: Path) -> list[str]:
    lines = manifest.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if not line.startswith("out=")]


@pytest.mark.parametrize(
    "flags",
    [
        ["--paradigm=schwa", "--format=ternary", "--shots=4", "--concurrency=2"],
        [f"--mapping={DATA_DIR.parent / 'src/neogate/data/schwa.map'}", "--format=direct",
         "--shots=1"],
    ],
    ids=["ranked-exemplars", "mapping"],
)
def test_a_run_replays_from_its_manifest(flags, tmp_path, echo_server, capsys):
    corpus = head_of_test_split(tmp_path, 30)
    dev = f"--dev-corpus={DATA_DIR / 'synthetic-dev.tsv'}"
    argv = ["run", f"--corpus={corpus}", dev, f"--endpoint={echo_server.url}", "--model=m", *flags]
    out, again = tmp_path / "out", tmp_path / "again"
    assert dispatch([*argv, f"--out={out}"]) == 0
    sent = echo_server.calls
    manifest = parse_kv((out / "manifest.kv").read_text(encoding="utf-8"))
    assert manifest["paradigm"] == "schwa"
    assert manifest["exemplars"] and manifest["cache"] == str(out / "cache.jsonl")
    assert dispatch(["--config", str(out / "manifest.kv"), "run", f"--out={again}"]) == 0
    assert echo_server.calls == sent
    assert (again / "hypotheses.txt").read_bytes() == (out / "hypotheses.txt").read_bytes()
    assert without_out(again / "manifest.kv") == without_out(out / "manifest.kv")
    assert parse_kv((again / "manifest.kv").read_text(encoding="utf-8"))["out"] == str(again)


def test_an_evaluation_replays_from_its_manifest(tmp_path, capsys):
    corpus = head_of_test_split(tmp_path, 100)
    rows = corpus.read_text(encoding="utf-8").splitlines()[1:]
    hyp = tmp_path / "hyp.txt"
    # masculine and feminine references in turn: neither all hits nor all misses
    refs = (row.split("\t")[2 + i % 2] for i, row in enumerate(rows))
    hyp.write_text("".join(ref + "\n" for ref in refs), encoding="utf-8")
    out, again = tmp_path / "out", tmp_path / "again"
    argv = ["evaluate", f"--corpus={corpus}", "--paradigm=schwa", f"--hyp={hyp}"]
    assert dispatch([*argv, f"--out={out}"]) == 0
    assert dispatch(["--config", str(out / "manifest.kv"), "evaluate", f"--out={again}"]) == 0
    for name in (REPORT_TXT, REPORT_KV, TRACE_TSV):
        assert (again / name).read_bytes() == (out / name).read_bytes()
    assert without_out(again / "manifest.kv") == without_out(out / "manifest.kv")


FLAG_DESTS = sorted(
    {
        action.dest
        for sub in build_parser().sub_commands.values()
        for action in sub._actions
        if action.option_strings and action.dest != "help"
    }
)


# a value that the config reader gives back as written: one line, with
# no whitespace at either end
@given(
    st.dictionaries(
        st.sampled_from(FLAG_DESTS),
        st.text().filter(lambda v: v == v.strip() and "".join(v.splitlines()) == v),
    )
)
def test_a_manifest_reads_back_as_its_values_under_the_flag_names(values):
    text = RunManifest(values).to_kv()
    assert text.splitlines()[0] == f"# neogate {__version__}"
    assert parse_kv(text) == {key.replace("_", "-"): v for key, v in values.items() if v}


def assert_the_traced_pass_writes_what_neogate_writes(tmp_path, capsys, argv, names):
    """``perfbench/traced_call.py`` on ``argv`` exits 0 and prints and writes
    the files ``names`` under ``--out`` as ``neogate`` does."""
    root = DATA_DIR.parent
    assert dispatch([*argv, f"--out={tmp_path / 'plain'}"]) == 0
    traced = subprocess.run(
        [sys.executable, str(root / "perfbench/traced_call.py"), str(tmp_path / "spans.json"),
         str(tmp_path / "probe.jsonl"), *argv, f"--out={tmp_path / 'traced'}"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == capsys.readouterr().out
    for name in names:
        traced_file, plain_file = tmp_path / "traced" / name, tmp_path / "plain" / name
        assert traced_file.read_bytes() == plain_file.read_bytes()


def test_the_traced_pass_writes_what_evaluate_writes(tmp_path, capsys):
    corpus = str(DATA_DIR / "synthetic-test.tsv")
    adapted = tmp_path / "adapted.tsv"
    assert dispatch(["adapt", f"--corpus={corpus}", f"--out-file={adapted}"]) == 0
    rows = adapted.read_text(encoding="utf-8").splitlines()[1:]
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(row.split("\t")[4] + "\n" for row in rows), encoding="utf-8")
    argv = ["evaluate", f"--corpus={corpus}", f"--hyp={hyp}"]
    assert_the_traced_pass_writes_what_neogate_writes(tmp_path, capsys, argv, (REPORT_KV, TRACE_TSV))


def test_the_traced_pass_writes_what_run_writes(tmp_path, echo_server, capsys):
    # the plain run fills the cache that the traced pass then reads
    argv = ["run", f"--corpus={head_of_test_split(tmp_path, 40)}", "--model=m",
            f"--endpoint={echo_server.url}", f"--cache={tmp_path / 'cache.jsonl'}",
            "--format=ternary", "--shots=4", f"--dev-corpus={DATA_DIR / 'synthetic-dev.tsv'}"]
    assert_the_traced_pass_writes_what_neogate_writes(tmp_path, capsys, argv, ("hypotheses.txt",))
    assert echo_server.calls == 40


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL], ids=["SIGINT", "SIGKILL"])
def test_a_run_process_stopped_midway_resumes(sig, tmp_path, echo_server):
    """A real ``neogate run`` stopped once some replies are cached: a rerun
    of the same command ends with an uninterrupted run's hypotheses."""
    corpus = head_of_test_split(tmp_path, 120)
    argv = ["run", f"--corpus={corpus}", f"--endpoint={echo_server.url}", "--model=m",
            "--concurrency=2"]
    assert dispatch([*argv, f"--out={tmp_path / 'whole'}"]) == 0
    whole = (tmp_path / "whole/hypotheses.txt").read_bytes()
    prompts = set(echo_server.bodies)
    # the 11th reply on waits for the signal, so the run cannot end first
    echo_server.calls, echo_server.bodies, echo_server.hold_after = 0, [], 10

    out = tmp_path / "out"
    command = [sys.executable, "-m", "neogate", *argv, f"--out={out}"]
    env = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent / "src")}
    cache = out / "cache.jsonl"
    with subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as run:
        deadline = time.monotonic() + 30
        while not (cache.exists() and cache.read_bytes().count(b"\n") >= 10):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        run.send_signal(sig)
        echo_server.release.set()
        stdout, stderr = run.communicate(timeout=30)
    if sig == signal.SIGINT:
        assert run.returncode == 130
        assert stderr.startswith("interrupted") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
    else:
        assert run.returncode == -sig
    assert stdout == ""
    assert not (out / "hypotheses.txt").exists()
    assert 0 < len(JsonlCache(cache)) < len(prompts)

    rerun = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert rerun.returncode == 0, rerun.stderr
    assert (out / "hypotheses.txt").read_bytes() == whole
    assert set(echo_server.bodies) == prompts
    assert echo_server.calls <= len(prompts) + 2  # plus what was in flight


# the paper's grid in small: four models, each in two formats and paradigms
GRID = [
    (model, fmt, shots, paradigm)
    for model in ("alpha", "beta", "gamma", "delta")
    for fmt, shots, paradigm in (("zero_shot", 0, "asterisk"), ("ternary", 4, "schwa"))
]


def test_a_grid_of_run_processes_shares_one_cache(tmp_path, echo_server):
    """Every cell's ``neogate run`` at once, as real processes on one
    ``--cache``; then again, with nothing left to request."""
    corpus = head_of_test_split(tmp_path, 20)
    sources = [row.split("\t")[1] for row in corpus.read_text(encoding="utf-8").splitlines()[1:]]
    cache = tmp_path / "cache.jsonl"
    echo_server.model_in_reply = True  # so a record crossed into another model's cell shows
    env = {**os.environ, "PYTHONPATH": str(DATA_DIR.parent / "src")}

    def cell_flags(model, fmt, shots, paradigm) -> list[str]:
        return [f"--corpus={corpus}", f"--model={model}", f"--format={fmt}", f"--shots={shots}",
                f"--paradigm={paradigm}", f"--dev-corpus={DATA_DIR / 'synthetic-dev.tsv'}",
                f"--cache={cache}"]

    for _ in range(2):
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "neogate", "run", *cell_flags(*cell), "--concurrency=2",
                 f"--endpoint={echo_server.url}", f"--out={tmp_path / str(i)}"],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i, cell in enumerate(GRID)
        ]
        for run in runs:
            stdout, stderr = run.communicate(timeout=60)
            assert (run.returncode, stderr) == (0, "")
            assert stdout.startswith("records=20 failed=0 ")
        # the second round finds every prompt cached and sends none
        assert echo_server.calls == len(GRID) * 20
    assert len(JsonlCache(cache)) == len(GRID) * 20
    for i, cell in enumerate(GRID):
        hyp = (tmp_path / str(i) / "hypotheses.txt").read_text(encoding="utf-8")
        assert hyp == "".join(f"{cell[0]} {source}\n" for source in sources)
        extracted = tmp_path / f"extracted-{i}.txt"
        assert dispatch(["extract", *cell_flags(*cell), f"--out-file={extracted}"]) == 0
        assert extracted.read_text(encoding="utf-8") == hyp
