"""End-to-end subcommand tests through dispatch()."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from neogate import build_prompt, load_builtin_tagset, prompt_hash, runner
from neogate.cli import (
    _build_spec,
    _load_mapping,
    build_parser,
    dispatch,
    metric_report_from_kv,
    parse_kv,
    render_report,
)
from neogate.evaluator import EvalCounts, MetricReport
from neogate.runner import RunRecord

from .conftest import DATA_DIR, EXAMPLE_CORPUS_TEXT, EXAMPLE_SOURCE, split_path

# SHA-256 of `neogate adapt` on the bundled test split, and of the report.kv
# and trace.tsv of `neogate evaluate` scoring those adapted references
GOLDEN_ADAPT = {
    "asterisk": "8b454ee09640ca2c001411c6e70357c5cc257112c7b13e5ad0f10f8aefeb8de6",
    "schwa": "8ee7503774b583c24d4d16891b0dcc1f926fda71d775e609a211463577b05084",
}
GOLDEN_SELF_REPORT_KV = "b9c7205ee1f9a36e9ffbb05c82e7135e821b49f4acc1c2af958954192dac0272"
GOLDEN_SELF_TRACE_TSV = "2420c841d31694347082395e830ffb9ca4d0ac73de966b195f54ea79b69f7236"


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
    "flags",
    [
        ["--format", "direct"],
        ["--shots", "3"],
        ["--format", "direct", "--exemplars", "a,b", "--shots", "1"],
    ],
    ids=["direct-0-shots", "3-shots", "2-exemplars-1-shot"],
)
def test_prompt_rejected_spec_flags_are_usage_errors(corpus_file, flags, capsys):
    argv = ["prompt", "--corpus", str(corpus_file), "--dev-corpus", str(corpus_file)]
    assert dispatch(argv + flags) == 2
    assert capsys.readouterr().err.startswith("usage error: ")


def test_prompt_few_shot_requires_dev(corpus_file, capsys):
    assert (
        dispatch(
            ["prompt", "--corpus", str(corpus_file), "--format", "direct", "--shots", "1"]
        )
        == 1
    )
    assert "dev-corpus" in capsys.readouterr().err


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
    manifest = parse_kv((out_dir / "manifest.kv").read_text(encoding="utf-8"))
    assert manifest["paradigm"] == "asterisk"
    assert manifest["tool_version"]


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
    out = capsys.readouterr().out
    assert "unparseable_rate=100.00" in out


def test_report_rendering_and_kv_round_trip():
    report = MetricReport(cov=57.08, acc=74.63, cwa=42.60, mis=45.78, unparseable_rate=1.25)
    table = render_report(report, "table")
    assert "57.08  74.63  42.60  45.78" in table
    zero = MetricReport(0.0, 0.0, 0.0, 0.0)
    assert "0.00  0.00  0.00  0.00" in render_report(zero, "table")
    counts = EvalCounts(annotations=10, matched=5, correct=3, found=4)
    kv_text = render_report(report, "kv", counts)
    values = parse_kv(kv_text)
    assert metric_report_from_kv(values) == report
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
    tagset = load_builtin_tagset()
    spec, exemplars = _build_spec(args, _load_mapping(args, tagset), tagset)
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


def test_run_and_config_precedence(corpus_file, tmp_path, echo_server, capsys):
    config = tmp_path / "run.conf"
    config.write_text(
        f"endpoint={echo_server.url}\nmodel=config-model\ntemperature=0.5\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "run-out"
    code = dispatch(
        ["--config", str(config), "run", "--corpus", str(corpus_file),
         "--paradigm", "asterisk", "--model", "flag-model", "--out", str(out_dir)]
    )
    assert code == 0
    hyp = (out_dir / "hypotheses.txt").read_text(encoding="utf-8")
    assert hyp == "The department chair said they might hire new professors\n"
    manifest = parse_kv((out_dir / "manifest.kv").read_text(encoding="utf-8"))
    assert manifest["model"] == "flag-model"  # flag beats config
    assert manifest["temperature"] == "0.5"  # config beats default
    cache_lines = (out_dir / "cache.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(cache_lines) == 1
    assert json.loads(cache_lines[0])["model"] == "flag-model"


def test_config_bad_value_is_usage_error(corpus_file, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    for line, flag in (("retries=abc", "--retries"), ("format=bogus", "--format")):
        config.write_text(line + "\n", encoding="utf-8")
        assert dispatch(["--config", str(config), "run", "--corpus", str(corpus_file)]) == 2
        assert flag in capsys.readouterr().err


def test_config_unknown_key_is_usage_error(corpus_file, tmp_path, capsys):
    config = tmp_path / "typo.conf"
    config.write_text("modle=x\n", encoding="utf-8")
    assert dispatch(["--config", str(config), "stats", "--corpus", str(corpus_file)]) == 2
    assert "usage error: unknown config key modle" in capsys.readouterr().err


def test_config_keys_of_other_subcommands_allowed(corpus_file, tmp_path, capsys):
    config = tmp_path / "shared.conf"
    config.write_text("endpoint=http://x\nconcurrency=4\nhyp=h.txt\n", encoding="utf-8")
    assert dispatch(["--config", str(config), "stats", "--corpus", str(corpus_file)]) == 0


@pytest.mark.parametrize("paradigm", sorted(GOLDEN_ADAPT))
def test_full_split_golden_digests(paradigm, tmp_path, capsys):
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

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert digest(adapted) == GOLDEN_ADAPT[paradigm]
    assert digest(out / "report.kv") == GOLDEN_SELF_REPORT_KV
    assert digest(out / "trace.tsv") == GOLDEN_SELF_TRACE_TSV


def test_cli_imports_with_the_standard_library_only():
    src = Path(__file__).resolve().parent.parent / "src"
    check = "import sys, neogate.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", check],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_package_exports_names_not_modules():
    import neogate

    exported = {name: getattr(neogate, name) for name in neogate.__all__}
    assert len(exported) == len(neogate.__all__)
    assert [n for n, v in exported.items() if isinstance(v, types.ModuleType)] == []


NETWORK_MODULES = ("concurrent.futures", "http.client", "ssl", "urllib.request")


def cli_in_subprocess(argv: list[str]) -> tuple[int, list[str]]:
    """Run ``neogate argv`` in a fresh interpreter; return its exit code and
    the ``NETWORK_MODULES`` it loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    check = (
        "import sys; from neogate.cli import dispatch; code = dispatch(sys.argv[1:]); "
        f"print(code, *sorted(set({NETWORK_MODULES!r}) & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", check, *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    code, *modules = result.stdout.splitlines()[-1].split()
    return int(code), modules


def test_warm_run_and_evaluate_load_no_network_modules(corpus_file, tmp_path, echo_server):
    out = tmp_path / "out"
    run = ["run", f"--corpus={corpus_file}", "--model=m", f"--out={out}", "--concurrency=2"]
    assert cli_in_subprocess(run + [f"--endpoint={echo_server.url}"]) == (0, list(NETWORK_MODULES))
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
