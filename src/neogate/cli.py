"""Command-line entry point: validate, stats, adapt, prompt, run, extract,
evaluate, and kappa subcommands over a shared reproducible configuration.

Exit codes: 0 success, 1 data error, 2 usage error. Evaluation artifacts
are written under ``--out`` with fixed names (``report.txt``,
``report.kv``, ``trace.tsv``, ``manifest.kv``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .corpus import (
    ValidationIssue,
    aligned_tag_labels,
    cohen_kappa,
    corpus_stats,
    load_corpus,
    serialize_annotation,
    validate_corpus,
)
from .errors import NeoGateError
from .evaluator import (
    EvalCounts,
    EntryEval,
    MetricReport,
    aggregate,
    compute_metrics,
    evaluate_hypotheses,
)
from .paradigm import (
    TagsetDefinition,
    TagsetMapping,
    adapt_corpus,
    load_builtin_mapping,
    load_builtin_tagset,
    parse_mapping,
)
from .promptkit import (
    Exemplar,
    PromptFormat,
    PromptSpec,
    SpecMismatch,
    build_prompt,
    exemplars_from_corpus,
    extract_translation,
    rank_exemplar_candidates,
    render_prompt_dump,
)
from .runner import ClientConfig, JsonlCache, export_hypotheses, lookup_prompts, run_corpus

ADAPTED_HEADER = ("ID", "SOURCE", "REF-M", "REF-F", "REF-ADAPTED", "ANNOTATION")

REPORT_TXT = "report.txt"
REPORT_KV = "report.kv"
TRACE_TSV = "trace.tsv"
MANIFEST_KV = "manifest.kv"


class UsageError(Exception):
    """A flag or config value the command cannot use; exit code 2."""


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce an evaluation or a run."""

    corpus: str = ""
    paradigm: str = ""
    mapping_path: str = ""
    prompt_format: str = ""
    n_shots: str = ""
    exemplar_ids: str = ""
    endpoint: str = ""
    model: str = ""
    temperature: str = ""
    out_dir: str = ""
    tool_version: str = __version__

    def to_kv(self) -> str:
        lines = [f"{key}={value}" for key, value in self.__dict__.items()]
        return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse a flat key=value document (used by report.kv and manifest.kv)."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if sep:
            values[key.strip()] = value.strip()
    return values


def metric_report_from_kv(values: dict[str, str]) -> MetricReport:
    return MetricReport(
        cov=float(values["cov"]),
        acc=float(values["acc"]),
        cwa=float(values["cwa"]),
        mis=float(values["mis"]),
        unparseable_rate=float(values["unparseable_rate"]),
    )


def render_report(report: MetricReport, fmt: str = "table", counts: EvalCounts | None = None) -> str:
    """Render a metric report as a plain-text table or as key=value lines."""
    if fmt == "kv":
        lines = [
            f"cov={report.cov:.2f}",
            f"acc={report.acc:.2f}",
            f"cwa={report.cwa:.2f}",
            f"mis={report.mis:.2f}",
            f"unparseable_rate={report.unparseable_rate:.2f}",
        ]
        if counts is not None:
            lines += [
                f"annotations={counts.annotations}",
                f"matched={counts.matched}",
                f"correct={counts.correct}",
                f"found={counts.found}",
                f"entries={counts.entries}",
                f"unparseable_entries={counts.unparseable_entries}",
            ]
            for (kind, number), b in counts.breakdowns.items():
                prefix = f"{kind}.{number}"
                lines.append(f"annotations.{prefix}={b.annotations}")
                lines.append(f"matched.{prefix}={b.matched}")
                lines.append(f"correct.{prefix}={b.correct}")
        return "\n".join(lines) + "\n"

    values = [f"{report.cov:.2f}", f"{report.acc:.2f}", f"{report.cwa:.2f}", f"{report.mis:.2f}"]
    names = ("COV", "ACC", "CWA", "MIS")
    header = "  ".join(name.ljust(len(value)) for name, value in zip(names, values))
    lines = [header.rstrip(), "  ".join(values)]
    lines.append("")
    lines.append(f"unparseable_rate={report.unparseable_rate:.2f}")
    if counts is not None:
        lines += [
            f"annotations={counts.annotations}",
            f"matched={counts.matched}",
            f"correct={counts.correct}",
            f"found={counts.found}",
        ]
    return "\n".join(lines) + "\n"


def render_trace(entry_evals: list[EntryEval]) -> str:
    lines = ["\t".join(("entry_id", "annotations", "matched", "correct", "found", "per_triplet_outcomes"))]
    for ev in entry_evals:
        outcomes = ",".join(o.value for o in ev.per_triplet)
        lines.append(
            f"{ev.entry_id}\t{ev.annotations}\t{ev.matched}\t{ev.correct}\t{ev.found}\t{outcomes}"
        )
    return "\n".join(lines) + "\n"


def _load_mapping(args: argparse.Namespace, tagset: TagsetDefinition) -> TagsetMapping:
    if getattr(args, "mapping", None):
        with open(args.mapping, "rb") as fh:
            return parse_mapping(fh.read(), tagset)
    return load_builtin_mapping(args.paradigm, tagset)


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _build_spec(
    args: argparse.Namespace, mapping: TagsetMapping, tagset: TagsetDefinition
) -> tuple[PromptSpec, tuple[Exemplar, ...]]:
    fmt = PromptFormat(args.format)
    ids = tuple(x for x in args.exemplars.split(",") if x)
    dev = None
    if fmt is not PromptFormat.ZERO_SHOT:
        if not args.dev_corpus:
            raise NeoGateError("few-shot formats require --dev-corpus for exemplars")
        dev = load_corpus(args.dev_corpus, tagset)
        ids = ids or tuple(rank_exemplar_candidates(dev)[: args.shots])
    try:
        spec = PromptSpec(fmt, args.shots, mapping, ids)
    except SpecMismatch as exc:
        raise UsageError(f"--format/--shots/--exemplars: {exc}") from exc
    if dev is None:
        return spec, ()
    adapted = {a.entry_id: a.ref_adapted for a in adapt_corpus(dev, mapping)}
    return spec, exemplars_from_corpus(dev, adapted, ids)


def _print_issues(issues: list[ValidationIssue], stream) -> None:
    for issue in issues:
        print(issue.render(), file=stream)


def _require(args: argparse.Namespace, *names: str) -> None:
    """Reject absent required values (flag or config) as a usage error."""
    missing = [name for name in names if not getattr(args, name.replace("-", "_"))]
    if missing:
        raise UsageError(f"missing {', '.join(f'--{name}' for name in missing)}")


def cmd_validate(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    tagset = load_builtin_tagset()
    try:
        corpus = load_corpus(args.corpus, tagset)
    except NeoGateError as exc:
        print(f"error\t-\t-\t{exc}", file=sys.stderr)
        return 1
    issues = validate_corpus(corpus)
    errors = [i for i in issues if i.severity == "error"]
    _print_issues(issues, sys.stderr if errors else sys.stdout)
    return 1 if errors else 0


def cmd_stats(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    corpus = load_corpus(args.corpus, load_builtin_tagset())
    stats = corpus_stats(corpus)
    for key in ("entries", "tags", "content", "function", "singular", "plural"):
        print(f"{key}={getattr(stats, key)}")
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    mapping = _load_mapping(args, tagset)
    adapted = adapt_corpus(corpus, mapping)
    lines = ["\t".join(ADAPTED_HEADER)]
    for entry, a in zip(corpus, adapted):
        lines.append(
            "\t".join(
                (
                    entry.entry_id,
                    entry.source,
                    entry.ref_masc,
                    entry.ref_fem,
                    a.ref_adapted,
                    serialize_annotation(a.triplets),
                )
            )
        )
    text = "\n".join(lines) + "\n"
    if args.out_file:
        Path(args.out_file).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_prompt(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    mapping = _load_mapping(args, tagset)
    spec, exemplars = _build_spec(args, mapping, tagset)
    if args.entry:
        corpus = [e for e in corpus if e.entry_id == args.entry]
        if not corpus:
            raise NeoGateError(f"entry {args.entry!r} not found in corpus")
    chunks = [
        render_prompt_dump(e.entry_id, build_prompt(e.source, spec, exemplars))
        for e in corpus
    ]
    text = "\n".join(chunks)
    if args.out_file:
        Path(args.out_file).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    _require(args, "corpus", "endpoint", "model", "out")
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    mapping = _load_mapping(args, tagset)
    spec, exemplars = _build_spec(args, mapping, tagset)
    config = ClientConfig(
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        timeout=args.timeout,
        max_retries=args.retries,
        rate_limit=args.rate_limit,
        concurrency=args.concurrency,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = args.cache or str(out_dir / "cache.jsonl")
    records = run_corpus(corpus, spec, config, cache_path, exemplars)
    hyp = export_hypotheses(records, [e.entry_id for e in corpus])
    (out_dir / "hypotheses.txt").write_text(hyp, encoding="utf-8")
    manifest = RunManifest(
        corpus=str(args.corpus),
        paradigm=mapping.paradigm_name,
        mapping_path=args.mapping or "",
        prompt_format=spec.format.value,
        n_shots=str(spec.n_shots),
        exemplar_ids=",".join(spec.exemplar_ids),
        endpoint=config.endpoint,
        model=config.model,
        temperature=str(config.temperature),
        out_dir=str(out_dir),
    )
    (out_dir / MANIFEST_KV).write_text(manifest.to_kv(), encoding="utf-8")
    failed = sum(r.outcome == "failed" for r in records)
    print(f"records={len(records)} failed={failed} cache={cache_path}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    _require(args, "corpus", "cache", "model")
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    spec, exemplars = _build_spec(args, _load_mapping(args, tagset), tagset)
    hashes, records, missing = lookup_prompts(
        corpus, spec, exemplars, args.model, args.temperature, JsonlCache(args.cache)
    )
    if missing:
        key, entry_id, _ = missing[0]
        raise NeoGateError(f"no cached record for entry {entry_id} (prompt hash {key})")
    lines = [
        (extract_translation(records[key].raw, spec) or "").replace("\n", " ") for key in hashes
    ]
    text = "\n".join(lines) + "\n"
    if args.out_file:
        Path(args.out_file).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _require(args, "corpus", "hyp")
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    mapping = _load_mapping(args, tagset)
    adapted = adapt_corpus(corpus, mapping)
    hypotheses = _read_lines(args.hyp)
    if len(hypotheses) < len(adapted):
        hypotheses += [""] * (len(adapted) - len(hypotheses))
    entry_evals = evaluate_hypotheses(adapted, hypotheses, mapping.markers)
    counts = aggregate(entry_evals)
    report = compute_metrics(counts)
    table = render_report(report, "table", counts)
    sys.stdout.write(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / REPORT_TXT).write_text(table, encoding="utf-8")
        (out_dir / REPORT_KV).write_text(render_report(report, "kv", counts), encoding="utf-8")
        (out_dir / TRACE_TSV).write_text(render_trace(entry_evals), encoding="utf-8")
        manifest = RunManifest(
            corpus=str(args.corpus),
            paradigm=mapping.paradigm_name,
            mapping_path=args.mapping or "",
            out_dir=str(out_dir),
        )
        (out_dir / MANIFEST_KV).write_text(manifest.to_kv(), encoding="utf-8")
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    if args.labels_a and args.labels_b:
        labels_a = _read_lines(args.labels_a)
        labels_b = _read_lines(args.labels_b)
    elif args.corpus_a and args.corpus_b:
        tagset = load_builtin_tagset()
        labels_a, labels_b = aligned_tag_labels(
            load_corpus(args.corpus_a, tagset), load_corpus(args.corpus_b, tagset)
        )
    else:
        raise UsageError("kappa needs --labels-a/--labels-b or --corpus-a/--corpus-b")
    value = cohen_kappa(labels_a, labels_b)
    print(f"kappa={value:.6f}")
    return 0


def _add_paradigm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--paradigm", default="asterisk", help="built-in paradigm name")
    parser.add_argument("--mapping", default="", help="path to a mapping file (overrides --paradigm)")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        default="zero_shot",
        choices=[f.value for f in PromptFormat],
        help="prompt format",
    )
    parser.add_argument("--shots", type=int, default=0, help="demonstrations: 0, 1, 4, or 8")
    parser.add_argument("--dev-corpus", default="", help="dev split used for exemplars")
    parser.add_argument(
        "--exemplars",
        default="",
        help="comma-separated dev entry ids (default: top-ranked candidates)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neogate",
        description="Adapt, prompt, run, and score neomorpheme translation benchmarks.",
    )
    parser.add_argument("--config", default="", help="key=value config file; flags win")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.sub_commands = {}

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        parser.sub_commands[name] = p
        return p

    # every value below is also settable through --config, so nothing is
    # argparse-required; the handlers enforce what they need (exit 2)
    p = command("validate", cmd_validate, "check a corpus and report issues")
    p.add_argument("--corpus", default="")

    p = command("stats", cmd_stats, "print corpus statistics")
    p.add_argument("--corpus", default="")

    p = command("adapt", cmd_adapt, "adapt a corpus to a paradigm")
    p.add_argument("--corpus", default="")
    _add_paradigm_flags(p)
    p.add_argument("--out-file", default="", help="write TSV here instead of stdout")

    p = command("prompt", cmd_prompt, "dump the prompts for a corpus")
    p.add_argument("--corpus", default="")
    _add_paradigm_flags(p)
    _add_spec_flags(p)
    p.add_argument("--entry", default="", help="only this entry id")
    p.add_argument("--out-file", default="")

    p = command("run", cmd_run, "query an endpoint for every entry")
    p.add_argument("--corpus", default="")
    _add_paradigm_flags(p)
    _add_spec_flags(p)
    p.add_argument("--endpoint", default="")
    p.add_argument("--model", default="")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--rate-limit", type=float, default=0.0, dest="rate_limit")
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--cache", default="", help="cache path (default: <out>/cache.jsonl)")
    p.add_argument("--out", default="", help="output directory")

    p = command("extract", cmd_extract, "re-extract hypotheses from a run cache")
    p.add_argument("--corpus", default="")
    _add_paradigm_flags(p)
    _add_spec_flags(p)
    p.add_argument("--model", default="")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--cache", default="")
    p.add_argument("--out-file", default="")

    p = command("evaluate", cmd_evaluate, "score a hypothesis file")
    p.add_argument("--corpus", default="")
    _add_paradigm_flags(p)
    p.add_argument("--hyp", default="", help="hypothesis file, one line per entry")
    p.add_argument("--out", default="", help="directory for report/trace/manifest files")

    p = command("kappa", cmd_kappa, "inter-annotator agreement")
    p.add_argument("--labels-a", default="")
    p.add_argument("--labels-b", default="")
    p.add_argument("--corpus-a", default="")
    p.add_argument("--corpus-b", default="")

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    path = ""
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.partition("=")[2]
    if not path:
        return
    values = {
        key.replace("-", "_"): value
        for key, value in parse_kv(Path(path).read_text(encoding="utf-8")).items()
    }
    # a key may belong to any subcommand, so one file serves run and evaluate
    flags = {
        action.dest: action
        for sub in parser.sub_commands.values()
        for action in sub._actions
        if action.option_strings and action.default is not argparse.SUPPRESS
    }
    unknown = sorted(values.keys() - flags.keys())
    if unknown:
        raise UsageError(f"unknown config key {', '.join(unknown)}")
    # argparse checks choices on command-line values only
    for key, value in values.items():
        choices = flags[key].choices
        if choices is not None and value not in choices:
            raise UsageError(
                f"argument {flags[key].option_strings[0]}: invalid choice: {value!r} "
                f"(choose from {', '.join(choices)})"
            )
    # argparse runs each flag's type on a string default, so a bad value
    # is a usage error; subparsers parse into a fresh namespace, so the
    # defaults must be set on each of them
    for sub in parser.sub_commands.values():
        sub.set_defaults(**values)


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and execute a subcommand; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NeoGateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())
