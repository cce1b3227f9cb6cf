"""Toolkit for neomorpheme-based gender-inclusive en->it translation
benchmarks: corpus parsing, paradigm adaptation, prompt building, endpoint
runs, and word-level scoring.

Every name in ``__all__`` is imported from its module on first use
(PEP 562), so ``import neogate`` loads no submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "Anchor", "CorpusStats", "Entry", "Triplet", "ValidationIssue", "cohen_kappa",
        "corpus_stats", "load_corpus", "parse_annotation", "parse_corpus",
        "serialize_corpus", "validate_corpus",
    ),
    "errors": ("NeoGateError",),
    "evaluator": (
        "EntryEval", "EvalCounts", "MetricReport", "Outcome", "aggregate",
        "compute_metrics", "count_neomorphemes", "evaluate_hypotheses", "match_entry",
        "tokenize",
    ),
    "paradigm": (
        "TagsetDefinition", "TagsetMapping", "adapt_corpus", "adapt_reference",
        "load_builtin_mapping", "load_builtin_tagset", "parse_mapping",
    ),
    "promptkit": (
        "ChatMessage", "PromptFormat", "PromptSpec", "build_prompt", "extract_translation",
        "rank_exemplar_candidates",
    ),
    "runner": (
        "ClientConfig", "JsonlCache", "RunRecord", "export_hypotheses", "prompt_hash",
        "run_corpus",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
