"""Seeded inputs for the benchmark's workloads.

The program only ever sees the files written here:

- ``refs.json``: what the endpoint stub answers, per paradigm marker and
  source sentence (masculine, feminine and adapted reference);
- the ``replay`` cache, filled through ``neogate.run_corpus`` with the
  in-process oracle for every replay configuration, then rewritten with
  fixed timestamps in a seeded record order;
- the ``score`` hypothesis files: per paradigm, one all-adapted file and
  seven mixes of adapted, masculine and feminine references, per-word
  mixed forms with dropped words, echoed English sources and 5% blank
  lines. Adapted lines end the matcher's scan early; English echoes and
  dropped words make it scan every token. The share of each kind is
  fixed, so every seed gives the evaluator the same amount of work; the
  seed only chooses which entries get which kind.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from neogate import (
    JsonlCache,
    adapt_corpus,
    export_hypotheses,
    load_builtin_mapping,
    load_builtin_tagset,
    load_corpus,
    run_corpus,
)
from neogate.cli import build_parser

from stub import Oracle
from traced_call import Tracer, build_spec, client_config

TEST_CORPUS = "data/synthetic-test.tsv"
DEV_CORPUS = "data/synthetic-dev.tsv"
PARADIGMS = ("asterisk", "schwa")
# (format, shots) of the replay configurations, run for every paradigm
FORMATS = (
    ("zero_shot", 0),
    ("direct", 1),
    ("direct", 4),
    ("direct", 8),
    ("binary", 4),
    ("binary", 8),
    ("ternary", 4),
    ("ternary", 8),
)
MODEL = "bench-model"
CONCURRENCY = 2  # client threads; the benchmark machine has 2 CPUs
HYP_FILES = 8
BLANK_SHARE = 0.05
# shares of the non-blank lines of a mixed file, in the order of the kinds
# in hypothesis_files: adapted, masculine, feminine, echoed source, mixed
KIND_SHARES = (0.3, 0.15, 0.15, 0.15, 0.25)
DROP_SHARE = 0.15
FIXED_TIME = "2024-01-01T00:00:00+00:00"


@dataclass(frozen=True)
class Bundle:
    """The bundled splits, parsed and adapted to every paradigm."""

    corpus: list
    mappings: dict
    adapted: dict  # paradigm -> list of adapted references, corpus order

    def adapted_lines(self, paradigm: str) -> str:
        return "\n".join(self.adapted[paradigm]) + "\n"


def load_bundle(root: Path) -> Bundle:
    tagset = load_builtin_tagset()
    corpus = load_corpus(root / TEST_CORPUS, tagset)
    mappings = {p: load_builtin_mapping(p, tagset) for p in PARADIGMS}
    adapted = {
        p: [a.ref_adapted for a in adapt_corpus(corpus, m)] for p, m in mappings.items()
    }
    return Bundle(corpus, mappings, adapted)


def stub_refs(bundle: Bundle) -> dict[str, dict[str, list[str]]]:
    return {
        bundle.mappings[p].marker_singular: {
            e.source: [e.ref_masc, e.ref_fem, a]
            for e, a in zip(bundle.corpus, bundle.adapted[p])
        }
        for p in PARADIGMS
    }


def write_refs(path: Path, bundle: Bundle) -> None:
    path.write_text(
        json.dumps(stub_refs(bundle), ensure_ascii=False, sort_keys=True), encoding="utf-8"
    )


def replay_configs() -> list[tuple[str, str, int]]:
    return [(p, fmt, shots) for p in PARADIGMS for fmt, shots in FORMATS]


def run_argv(paradigm: str, fmt: str, shots: int, endpoint: str, cache: Path, out: Path) -> list[str]:
    """The ``neogate`` argv of one ``run`` configuration, with paths
    relative to the repository root."""
    return [
        "run", f"--corpus={TEST_CORPUS}", f"--dev-corpus={DEV_CORPUS}",
        f"--paradigm={paradigm}", f"--format={fmt}", f"--shots={shots}",
        f"--endpoint={endpoint}", f"--model={MODEL}", f"--concurrency={CONCURRENCY}",
        f"--cache={cache}", f"--out={out}",
    ]


def prefill_cache(path: Path, seed: int, bundle: Bundle) -> dict[tuple[str, str, int], str]:
    """Fill one cache for every replay configuration without a network,
    from the same argv as the replay's ``run`` calls.

    Returns the hypothesis file text of each configuration.
    """
    oracle = Oracle(stub_refs(bundle))
    parser = build_parser()
    ids = [e.entry_id for e in bundle.corpus]
    hypotheses = {}
    for paradigm, fmt, shots in replay_configs():
        args = parser.parse_args(
            run_argv(paradigm, fmt, shots, "http://127.0.0.1:9/unused", path, path.parent)
        )
        spec, exemplars = build_spec(args, bundle.mappings[paradigm], Tracer())
        records = run_corpus(
            bundle.corpus, spec, client_config(args), args.cache, exemplars, client=oracle
        )
        hypotheses[(paradigm, fmt, shots)] = export_hypotheses(records, ids)
    # sorted first: with 2 client threads the records arrive in any order
    lines = sorted(
        replace(r, requested_at=FIXED_TIME, completed_at=FIXED_TIME).to_json() + "\n"
        for r in JsonlCache(path).records()
    )
    random.Random(f"replay/{seed}").shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")
    return hypotheses


def _mixed(rng: random.Random, masc: str, fem: str, adapted: str) -> str:
    versions = [masc.split(), fem.split(), adapted.split()]
    if len({len(v) for v in versions}) != 1:
        versions = [versions[2]]
    words = [rng.choice(forms) for forms in zip(*versions)]
    return " ".join(w for w in words if rng.random() >= DROP_SHARE)


def _kinds(rng: random.Random, n: int) -> list[int | None]:
    """Kind of each of ``n`` lines in fixed shares and seeded order; None is blank."""
    blanks = round(n * BLANK_SHARE)
    counts = [round((n - blanks) * share) for share in KIND_SHARES]
    counts[0] += n - blanks - sum(counts)
    kinds = [None] * blanks + [k for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(kinds)
    return kinds


def hypothesis_files(seed: int, bundle: Bundle, paradigm: str) -> list[str]:
    """``HYP_FILES`` hypothesis texts; the first is the adapted references."""
    adapted = bundle.adapted[paradigm]
    texts = [bundle.adapted_lines(paradigm)]
    for k in range(1, HYP_FILES):
        rng = random.Random(f"score/{seed}/{paradigm}/{k}")
        lines = []
        for entry, adapted_ref, kind in zip(bundle.corpus, adapted, _kinds(rng, len(adapted))):
            if kind is None:
                lines.append("")
                continue
            lines.append(
                (
                    adapted_ref,
                    entry.ref_masc,
                    entry.ref_fem,
                    entry.source,
                    _mixed(rng, entry.ref_masc, entry.ref_fem, adapted_ref),
                )[kind]
            )
        texts.append("\n".join(lines) + "\n")
    return texts
