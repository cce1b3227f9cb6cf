"""Toolkit for neomorpheme-based gender-inclusive en->it translation
benchmarks: corpus parsing, paradigm adaptation, prompt building, endpoint
runs, and word-level scoring."""

__version__ = "0.1.0"

from .corpus import (
    Anchor,
    CorpusStats,
    Entry,
    Triplet,
    ValidationIssue,
    cohen_kappa,
    corpus_stats,
    load_corpus,
    parse_annotation,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)
from .errors import NeoGateError
from .evaluator import (
    EntryEval,
    EvalCounts,
    MetricReport,
    Outcome,
    aggregate,
    compute_metrics,
    count_neomorphemes,
    evaluate_hypotheses,
    match_entry,
    metric_ratios,
    tokenize,
)
from .paradigm import (
    AdaptedEntry,
    TagsetDefinition,
    TagsetMapping,
    adapt_corpus,
    adapt_reference,
    load_builtin_mapping,
    load_builtin_tagset,
    parse_mapping,
)
from .promptkit import (
    ChatMessage,
    Exemplar,
    PromptFormat,
    PromptSpec,
    build_prompt,
    extract_translation,
    rank_exemplar_candidates,
)
from .runner import (
    ClientConfig,
    JsonlCache,
    RunRecord,
    export_hypotheses,
    prompt_hash,
    run_corpus,
)

__all__ = [
    # corpus
    "Anchor", "CorpusStats", "Entry", "Triplet", "ValidationIssue", "cohen_kappa",
    "corpus_stats", "load_corpus", "parse_annotation", "parse_corpus",
    "serialize_corpus", "validate_corpus",
    # errors
    "NeoGateError",
    # evaluator
    "EntryEval", "EvalCounts", "MetricReport", "Outcome", "aggregate",
    "compute_metrics", "count_neomorphemes", "evaluate_hypotheses", "match_entry",
    "metric_ratios", "tokenize",
    # paradigm
    "AdaptedEntry", "TagsetDefinition", "TagsetMapping", "adapt_corpus",
    "adapt_reference", "load_builtin_mapping", "load_builtin_tagset", "parse_mapping",
    # promptkit
    "ChatMessage", "Exemplar", "PromptFormat", "PromptSpec", "build_prompt",
    "extract_translation", "rank_exemplar_candidates",
    # runner
    "ClientConfig", "JsonlCache", "RunRecord", "export_hypotheses", "prompt_hash",
    "run_corpus",
]
