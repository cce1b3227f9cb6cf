"""One ``neogate`` CLI call, replayed with spans around the package's
public functions. Used by the benchmark's traced pass only.

The call's argv is the one the untraced pass gives ``neogate``, parsed by
``neogate.cli.build_parser()``, so flags and their defaults stay the
CLI's. The replay then does what ``neogate.cli`` does for ``run``,
``validate`` and ``evaluate``, through the same public functions, and
writes the same files. Each call into a layer gets a span (id, parent,
name, start, end, work count). The functions the CLI calls directly run
for real. The layers inside ``run_corpus`` and ``evaluate_hypotheses``
cannot be timed from outside, so they are also called once more per item
on the same inputs, as sibling "probe" spans: ``build_prompt``,
``prompt_hash``, ``JsonlCache`` load and ``put`` (into PROBE_CACHE), and
``extract_translation``; ``tokenize`` and ``match_entry``. The real
``ChatClient`` is wrapped and passed through ``run_corpus(client=...)``,
so nothing inside the package is patched.

Run: ``python3 perfbench/traced_call.py SPANS.json PROBE_CACHE.jsonl
COMMAND [FLAGS...]``, where ``COMMAND [FLAGS...]`` is a ``neogate`` argv.
Spans are kept in memory and written to SPANS.json when the call ends.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

_SOURCE_RE = re.compile(r"\[English\] <(.*)>\n", re.S)


class Tracer:
    """In-memory span recorder; span 0 is the call itself, timed by the caller."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, count, key]
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, count: int = 1, parent: int | None = None, key: str = ""):
        stack = self._local.__dict__.setdefault("stack", [0])
        record = [next(self._ids), stack[-1] if parent is None else parent, name, 0.0, 0.0, count, key]
        stack.append(record[0])
        record[3] = time.monotonic()
        try:
            yield record
        finally:
            record[4] = time.monotonic()
            stack.pop()
            self.spans.append(record)


class TracedClient:
    """Wraps a real ``ChatClient``; one span per ``complete`` call."""

    def __init__(self, inner, tracer: Tracer, parent: int):
        self.inner = inner
        self.tracer = tracer
        self.parent = parent  # calls come from pool threads, outside the caller's span stack

    def complete(self, messages) -> str:
        source = _SOURCE_RE.search(messages[-1].content)
        key = source.group(1) if source else ""
        with self.tracer.span("runner.ChatClient.complete", parent=self.parent, key=key):
            return self.inner.complete(messages)


def load_mapping(args, tracer: Tracer):
    """The mapping ``neogate.cli`` loads for ``--paradigm``; the benchmark
    passes no ``--mapping``."""
    from neogate import load_builtin_mapping

    tagset = _tagset(tracer)
    with tracer.span("paradigm.load_builtin_mapping"):
        return load_builtin_mapping(args.paradigm, tagset)


def build_spec(args, mapping, tracer: Tracer):
    """The prompt spec and exemplars ``neogate run`` builds from its flags;
    the benchmark passes no ``--exemplars``."""
    from neogate import (
        PromptFormat,
        PromptSpec,
        adapt_corpus,
        rank_exemplar_candidates,
    )
    from neogate.promptkit import exemplars_from_corpus

    fmt = PromptFormat(args.format)
    if fmt is PromptFormat.ZERO_SHOT:
        return PromptSpec(fmt, 0, mapping), ()
    dev = _parse(args.dev_corpus, _tagset(tracer), tracer)
    with tracer.span("promptkit.rank_exemplar_candidates", len(dev)):
        ids = tuple(rank_exemplar_candidates(dev)[: args.shots])
    with tracer.span("paradigm.adapt_corpus", len(dev)):
        adapted = {a.entry_id: a.ref_adapted for a in adapt_corpus(dev, mapping)}
    with tracer.span("promptkit.exemplars_from_corpus", len(ids)):
        exemplars = exemplars_from_corpus(dev, adapted, ids)
    return PromptSpec(fmt, args.shots, mapping, ids), exemplars


def client_config(args):
    """The ``ClientConfig`` ``neogate run`` builds from its flags."""
    from neogate import ClientConfig

    return ClientConfig(
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        timeout=args.timeout,
        max_retries=args.retries,
        rate_limit=args.rate_limit,
        concurrency=args.concurrency,
    )


def _parse(path: str, tagset, tracer: Tracer):
    from neogate import parse_corpus

    raw = Path(path).read_bytes()
    with tracer.span("corpus.parse_corpus") as s:
        corpus = parse_corpus(raw, tagset)
        s[5] = len(corpus)
    return corpus


def _tagset(tracer: Tracer):
    from neogate import load_builtin_tagset

    with tracer.span("paradigm.load_builtin_tagset"):
        return load_builtin_tagset()


def replay_run(args, probe_cache: str, tracer: Tracer) -> int:
    from neogate import (
        JsonlCache,
        build_prompt,
        export_hypotheses,
        extract_translation,
        prompt_hash,
        run_corpus,
    )
    from neogate.cli import MANIFEST_KV, RunManifest
    from neogate.runner import ChatClient

    corpus = _parse(args.corpus, _tagset(tracer), tracer)
    mapping = load_mapping(args, tracer)
    spec, exemplars = build_spec(args, mapping, tracer)
    config = client_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = args.cache or str(out_dir / "cache.jsonl")

    prompts = []
    for e in corpus:
        with tracer.span("promptkit.build_prompt"):
            prompts.append(build_prompt(e.source, spec, exemplars))
    for p in prompts:
        with tracer.span("runner.prompt_hash"):
            prompt_hash(p, config.model, config.temperature)
    with tracer.span("runner.JsonlCache.load") as s:
        known = {r.prompt_hash for r in JsonlCache(cache_path).records()}
        s[5] = len(known)

    with tracer.span("runner.run_corpus", len(corpus)) as s:
        client = TracedClient(ChatClient(config), tracer, parent=s[0])
        records = run_corpus(corpus, spec, config, cache_path, exemplars, client=client)

    fresh = {r.prompt_hash: r for r in records if r.prompt_hash not in known and r.raw}
    probe = JsonlCache(probe_cache)
    for r in fresh.values():
        with tracer.span("promptkit.extract_translation"):
            extract_translation(r.raw, spec)
        with tracer.span("runner.JsonlCache.put"):
            probe.put(r)

    with tracer.span("runner.export_hypotheses", len(corpus)):
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


def replay_validate(args, probe_cache: str, tracer: Tracer) -> int:
    from neogate import validate_corpus

    corpus = _parse(args.corpus, _tagset(tracer), tracer)
    with tracer.span("corpus.validate_corpus", len(corpus)):
        issues = validate_corpus(corpus)
    errors = [i for i in issues if i.severity == "error"]
    for issue in issues:
        print(issue.render(), file=sys.stderr if errors else sys.stdout)
    return 1 if errors else 0


def replay_evaluate(args, probe_cache: str, tracer: Tracer) -> int:
    from neogate import (
        adapt_corpus,
        aggregate,
        compute_metrics,
        evaluate_hypotheses,
        match_entry,
        tokenize,
    )
    from neogate.cli import (
        MANIFEST_KV,
        REPORT_KV,
        REPORT_TXT,
        TRACE_TSV,
        RunManifest,
        render_report,
        render_trace,
    )

    corpus = _parse(args.corpus, _tagset(tracer), tracer)
    mapping = load_mapping(args, tracer)
    with tracer.span("paradigm.adapt_corpus", len(corpus)):
        adapted = adapt_corpus(corpus, mapping)
    hypotheses = Path(args.hyp).read_text(encoding="utf-8").splitlines()
    hypotheses += [""] * (len(adapted) - len(hypotheses))

    markers = frozenset(mapping.markers)
    for entry, hyp in zip(adapted, hypotheses):
        blank = not hyp.strip()
        tokens = []
        if not blank:
            with tracer.span("evaluator.tokenize"):
                tokens = tokenize(hyp, markers)
        with tracer.span("evaluator.match_entry"):
            match_entry(tokens, entry.triplets, markers, entry.entry_id, blank)

    with tracer.span("evaluator.evaluate_hypotheses", len(adapted)):
        entry_evals = evaluate_hypotheses(adapted, hypotheses, mapping.markers)
    with tracer.span("evaluator.aggregate", len(entry_evals)):
        counts = aggregate(entry_evals)
    with tracer.span("evaluator.compute_metrics"):
        report = compute_metrics(counts)
    with tracer.span("cli.render_report"):
        table = render_report(report, "table", counts)
    sys.stdout.write(table)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("cli.render_report"):
            kv = render_report(report, "kv", counts)
        with tracer.span("cli.render_trace", len(entry_evals)):
            trace = render_trace(entry_evals)
        (out_dir / REPORT_TXT).write_text(table, encoding="utf-8")
        (out_dir / REPORT_KV).write_text(kv, encoding="utf-8")
        (out_dir / TRACE_TSV).write_text(trace, encoding="utf-8")
        manifest = RunManifest(
            corpus=str(args.corpus),
            paradigm=mapping.paradigm_name,
            mapping_path=args.mapping or "",
            out_dir=str(out_dir),
        )
        (out_dir / MANIFEST_KV).write_text(manifest.to_kv(), encoding="utf-8")
    return 0


REPLAYS = {"run": replay_run, "validate": replay_validate, "evaluate": replay_evaluate}


def main() -> None:
    spans_path, probe_cache, *argv = sys.argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import neogate.cli
    args = neogate.cli.build_parser().parse_args(argv)
    try:
        code = REPLAYS[args.command](args, probe_cache, tracer)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans), encoding="utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main()
