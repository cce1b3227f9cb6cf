"""Command-line entry point: validate, stats, adapt, prompt, run, extract,
evaluate, and kappa subcommands over a shared reproducible configuration.

Exit codes: 0 success, 1 data error, 2 usage error, 130 interrupted
(Ctrl-C). Evaluation artifacts are written under ``--out`` with fixed
names (``report.txt``, ``report.kv``, ``trace.tsv``, ``manifest.kv``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .corpus import (
    Entry,
    ValidationIssue,
    _read_text,
    aligned_tag_labels,
    cohen_kappa,
    corpus_stats,
    load_corpus,
    serialize_corpus,
    validate_corpus,
)
from .errors import NeoGateError
from .paradigm import (
    TagsetDefinition,
    TagsetMapping,
    adapt_corpus,
    load_builtin_mapping,
    load_builtin_tagset,
    parse_mapping,
)
from .promptkit import (
    PromptFormat,
    PromptSpec,
    SpecMismatch,
    build_prompt,
    exemplars_from_corpus,
    rank_exemplar_candidates,
    render_prompt_dump,
)

# each command imports the evaluator or the runner itself, so a call
# loads only the modules its command uses
if TYPE_CHECKING:
    from .evaluator import EntryEval, EvalCounts, MetricReport

ADAPTED_HEADER = ("ID", "SOURCE", "REF-M", "REF-F", "REF-ADAPTED", "ANNOTATION")

REPORT_TXT = "report.txt"
REPORT_KV = "report.kv"
TRACE_TSV = "trace.tsv"
MANIFEST_KV = "manifest.kv"


class UsageError(Exception):
    """A flag or config value the command cannot use; exit code 2."""


class RunManifest(dict):
    """The option values a command used, keyed by their flags' dests."""

    def to_kv(self) -> str:
        """A ``--config`` file of the non-blank values, under the flags'
        names, after a ``# neogate <version>`` line."""
        lines = [f"# neogate {__version__}"]
        lines += [
            f"{key.replace('_', '-')}={value}" for key, value in self.items() if str(value).strip()
        ]
        return "\n".join(lines) + "\n"


def parse_kv(text: str) -> dict[str, str]:
    """Parse a flat key=value document, such as a ``--config`` file; a line
    that is not blank, a ``#`` comment or key=value is a ``UsageError``."""
    values: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {number} is not key=value: {line!r}")
        values[key.strip()] = value.strip()
    return values


def render_report(report: MetricReport, fmt: str = "table", counts: EvalCounts | None = None) -> str:
    """Render a metric report as a plain-text table or as key=value lines."""
    rates = {key: f"{value:.2f}" for key, value in report._asdict().items()}
    unparseable_rate = rates.pop("unparseable_rate")
    count_keys = ["annotations", "matched", "correct", "found"]
    if fmt == "kv":
        lines = [f"{key}={value}" for key, value in rates.items()]
        count_keys += ["entries", "unparseable_entries"]
    else:
        header = "  ".join(key.upper().ljust(len(value)) for key, value in rates.items())
        lines = [header.rstrip(), "  ".join(rates.values()), ""]
    lines.append(f"unparseable_rate={unparseable_rate}")
    if counts is not None:
        lines += [f"{key}={getattr(counts, key)}" for key in count_keys]
        if fmt == "kv":
            for (kind, number), breakdown in counts.breakdowns.items():
                lines += [f"{key}.{kind}.{number}={n}" for key, n in breakdown._asdict().items()]
    return "\n".join(lines) + "\n"


def render_trace(entry_evals: list[EntryEval]) -> str:
    lines = ["\t".join(("entry_id", "annotations", "matched", "correct", "found", "per_triplet_outcomes"))]
    for ev in entry_evals:
        outcomes = ",".join(o.value for o in ev.per_triplet)
        lines.append(
            f"{ev.entry_id}\t{ev.annotations}\t{ev.matched}\t{ev.correct}\t{ev.found}\t{outcomes}"
        )
    return "\n".join(lines) + "\n"


def _load_inputs(
    args: argparse.Namespace,
) -> tuple[TagsetDefinition, list[Entry], TagsetMapping]:
    """The builtin tagset, the ``--corpus`` entries, and the paradigm of
    ``--mapping``, or else of ``--paradigm``."""
    tagset = load_builtin_tagset()
    corpus = load_corpus(args.corpus, tagset)
    if args.mapping:
        return tagset, corpus, parse_mapping(_read_text(args.mapping), tagset)
    return tagset, corpus, load_builtin_mapping(args.paradigm, tagset)


def _emit(path: str, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_manifest(args: argparse.Namespace, mapping: TagsetMapping, **used: str) -> None:
    """Write ``manifest.kv`` under ``--out``, so that ``neogate --config
    OUT/manifest.kv <command>`` replays the command. ``paradigm`` is the
    mapping's name, which ``--mapping`` overrides on replay; ``used`` holds
    the values the command resolved from blank flags."""
    values = {k: v for k, v in vars(args).items() if k not in ("command", "func", "config")}
    manifest = RunManifest(values, paradigm=mapping.paradigm_name, **used)
    (Path(args.out) / MANIFEST_KV).write_text(manifest.to_kv(), encoding="utf-8")


def _build_spec(
    args: argparse.Namespace, mapping: TagsetMapping, tagset: TagsetDefinition
) -> tuple[PromptSpec, tuple[Entry, ...]]:
    fmt = PromptFormat(args.format)
    ids = tuple(x for x in args.exemplars.split(",") if x)
    dev = None
    if fmt is not PromptFormat.ZERO_SHOT:
        _require(args, "dev-corpus")
        dev = load_corpus(args.dev_corpus, tagset)
        ids = ids or tuple(rank_exemplar_candidates(dev)[: args.shots])
    try:
        spec = PromptSpec(fmt, args.shots, mapping, ids)
        if dev is None:
            return spec, ()
        chosen = [e for e in dev if e.entry_id in ids]
        adapted = {a.entry_id: a.ref_adapted for a in adapt_corpus(chosen, mapping)}
        return spec, exemplars_from_corpus(dev, adapted, ids)
    except SpecMismatch as exc:
        raise UsageError(f"--format/--shots/--exemplars: {exc}") from exc


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
        print(ValidationIssue("-", "error", str(exc), "-").render(), file=sys.stderr)
        return 1
    issues = validate_corpus(corpus)
    errors = [i for i in issues if i.severity == "error"]
    for issue in issues:
        print(issue.render(), file=sys.stderr if errors else sys.stdout)
    return 1 if errors else 0


def cmd_stats(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    stats = corpus_stats(load_corpus(args.corpus, load_builtin_tagset()))
    for key, value in stats._asdict().items():
        print(f"{key}={value}")
    return 0


def cmd_adapt(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    _, corpus, mapping = _load_inputs(args)
    # the adapted reference takes the tagged one's column
    adapted = [a._replace(ref_tagged=a.ref_adapted) for a in adapt_corpus(corpus, mapping)]
    _emit(args.out_file, serialize_corpus(adapted, ADAPTED_HEADER))
    return 0


def cmd_prompt(args: argparse.Namespace) -> int:
    _require(args, "corpus")
    tagset, corpus, mapping = _load_inputs(args)
    spec, exemplars = _build_spec(args, mapping, tagset)
    if args.entry:
        corpus = [e for e in corpus if e.entry_id == args.entry]
        if not corpus:
            raise NeoGateError(f"entry {args.entry!r} not found in corpus")
    chunks = [
        render_prompt_dump(e.entry_id, build_prompt(e.source, spec, exemplars))
        for e in corpus
    ]
    _emit(args.out_file, "\n".join(chunks))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from .runner import ClientConfig, export_hypotheses, run_corpus

    _require(args, "corpus", "endpoint", "model", "out")
    # the option dest of each ClientConfig field, which names its flag too
    dests = {field: field for field in ClientConfig._fields} | {"max_retries": "retries"}
    try:
        config = ClientConfig(**{field: getattr(args, dest) for field, dest in dests.items()})
    except ValueError as exc:  # its message starts with the field's name
        field, _, reason = str(exc).partition(" ")
        raise UsageError(f"--{dests[field].replace('_', '-')} {reason}") from exc
    tagset, corpus, mapping = _load_inputs(args)
    spec, exemplars = _build_spec(args, mapping, tagset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = args.cache or str(out_dir / "cache.jsonl")
    records = run_corpus(corpus, spec, config, cache_path, exemplars)
    hyp = export_hypotheses(records, [e.entry_id for e in corpus])
    (out_dir / "hypotheses.txt").write_text(hyp, encoding="utf-8")
    _write_manifest(args, mapping, cache=cache_path, exemplars=",".join(spec.exemplar_ids))
    failed = sum(r.outcome == "failed" for r in records)
    print(f"records={len(records)} failed={failed} cache={cache_path}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    from .runner import JsonlCache, hypothesis_file, lookup_prompts

    _require(args, "corpus", "cache", "model")
    tagset, corpus, mapping = _load_inputs(args)
    spec, exemplars = _build_spec(args, mapping, tagset)
    with JsonlCache(args.cache) as cache:  # saves its sidecar unless this raises
        hashes, records, missing = lookup_prompts(
            corpus, spec, exemplars, args.model, args.temperature, cache
        )
        if missing:
            key, entry_id, _ = missing[0]
            absent = "" if Path(args.cache).exists() else f": {args.cache} does not exist"
            raise NeoGateError(f"no cached record for entry {entry_id} (prompt hash {key}){absent}")
    _emit(args.out_file, hypothesis_file(records[key].translation for key in hashes))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluator import aggregate, compute_metrics, evaluate_hypotheses

    _require(args, "corpus", "hyp")
    _, corpus, mapping = _load_inputs(args)
    adapted = adapt_corpus(corpus, mapping)
    hypotheses = _read_text(args.hyp).splitlines()
    if len(hypotheses) < len(adapted):
        blanks = len(adapted) - len(hypotheses)
        print(
            f"warning: {args.hyp}: {len(hypotheses)} hypothesis lines for "
            f"{len(adapted)} entries; padded with {blanks} blank lines",
            file=sys.stderr,
        )
        hypotheses += [""] * blanks
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
        _write_manifest(args, mapping)
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    if args.labels_a and args.labels_b:
        labels_a = _read_text(args.labels_a).splitlines()
        labels_b = _read_text(args.labels_b).splitlines()
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


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    """The flags ``_load_inputs`` reads."""
    parser.add_argument("--corpus", default="")
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
    parser.sub_commands = sub.choices  # each command's parser by name

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    # every value below is also settable through --config, so nothing is
    # argparse-required; the handlers enforce what they need (exit 2)
    p = command("validate", cmd_validate, "check a corpus and report issues")
    p.add_argument("--corpus", default="")

    p = command("stats", cmd_stats, "print corpus statistics")
    p.add_argument("--corpus", default="")

    p = command("adapt", cmd_adapt, "adapt a corpus to a paradigm")
    _add_input_flags(p)
    p.add_argument("--out-file", default="", help="write TSV here instead of stdout")

    p = command("prompt", cmd_prompt, "dump the prompts for a corpus")
    _add_input_flags(p)
    _add_spec_flags(p)
    p.add_argument("--entry", default="", help="only this entry id")
    p.add_argument("--out-file", default="")

    p = command("run", cmd_run, "query an endpoint for every entry")
    _add_input_flags(p)
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
    _add_input_flags(p)
    _add_spec_flags(p)
    p.add_argument("--model", default="")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--cache", default="")
    p.add_argument("--out-file", default="")

    p = command("evaluate", cmd_evaluate, "score a hypothesis file")
    _add_input_flags(p)
    p.add_argument("--hyp", default="", help="hypothesis file, one line per entry")
    p.add_argument("--out", default="", help="directory for report/trace/manifest files")

    p = command("kappa", cmd_kappa, "inter-annotator agreement")
    p.add_argument("--labels-a", default="")
    p.add_argument("--labels-b", default="")
    p.add_argument("--corpus-a", default="")
    p.add_argument("--corpus-b", default="")

    return parser


def _apply_config(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make the key=value lines of the file at ``path`` defaults of
    ``command``, so that flags still win. A key may belong to any
    subcommand, so one file serves run and evaluate; ``command`` parses its
    own keys as its ``--key=value`` flags, so argparse checks their types
    and choices as it does a flag's, and the others go unchecked."""
    values = {
        key.replace("-", "_"): value
        for key, value in parse_kv(_read_text(path)).items()
    }
    dests = {
        action.dest
        for sub in parser.sub_commands.values()
        for action in sub._actions
        if action.option_strings and action.default is not argparse.SUPPRESS
    }
    unknown = sorted(values.keys() - dests)
    if unknown:
        raise UsageError(f"unknown config key {', '.join(unknown)}")
    sub = parser.sub_commands[command]
    own = {a.dest: a.option_strings[0] for a in sub._actions if a.dest in values}
    parsed = sub.parse_args([f"{flag}={values[dest]}" for dest, flag in own.items()])
    # subparsers parse into a fresh namespace, so the defaults go on the
    # command's own parser, and its manifest holds only its own flags
    sub.set_defaults(**{dest: getattr(parsed, dest) for dest in own})


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and execute a subcommand; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a lone surrogate is a byte of argv that the locale could not decode
        for dest, value in vars(args).items():
            if isinstance(value, str) and not value.isascii():
                if any("\ud800" <= c <= "\udfff" for c in value):
                    flag = dest.replace("_", "-")
                    raise UsageError(f"--{flag} holds a byte that is not text: {value!r}")
        if args.config:
            _apply_config(parser, args.command, args.config)
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
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
