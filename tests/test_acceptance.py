"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The corpus-level
criteria run against the bundled synthetic splits, whose marginal
statistics match the published ones exactly; point NEOGATE_TEST_CORPUS /
NEOGATE_DEV_CORPUS at the official files to rerun against the release.
"""

from __future__ import annotations

import random
import string
import time
from contextlib import contextmanager

from neogate import (
    Entry,
    adapt_corpus,
    aggregate,
    build_prompt,
    cohen_kappa,
    compute_metrics,
    corpus_stats,
    evaluate_hypotheses,
    extract_translation,
    load_corpus,
    parse_corpus,
    parse_mapping,
)
from neogate.cli import render_trace
from neogate.evaluator import EvalCounts, round_half_up
from neogate.corpus import serialize_annotation
from neogate.paradigm import adapt_triplets
from neogate.promptkit import PromptFormat, PromptSpec
from neogate.runner import ClientConfig, export_hypotheses, run_corpus

from .conftest import EXAMPLE_CORPUS_TEXT, exact_cwa, split_path


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[acceptance] FAIL {number:2d}: {description}")
        raise
    print(f"[acceptance] PASS {number:2d}: {description}")


def test_criterion_01_corpus_statistics(tagset):
    with criterion(1, "corpus statistics reproduce the published table exactly"):
        started = time.perf_counter()
        test_stats = corpus_stats(load_corpus(split_path("test"), tagset))
        dev_stats = corpus_stats(load_corpus(split_path("dev"), tagset))
        elapsed = time.perf_counter() - started
        assert (
            test_stats.entries,
            test_stats.tags,
            test_stats.content,
            test_stats.function,
            test_stats.singular,
            test_stats.plural,
        ) == (841, 2479, 1539, 940, 1316, 1163)
        assert (
            dev_stats.entries,
            dev_stats.tags,
            dev_stats.content,
            dev_stats.function,
            dev_stats.singular,
            dev_stats.plural,
        ) == (100, 345, 211, 134, 184, 161)
        assert elapsed < 1.0


def test_criterion_02_golden_adaptation(tagset, asterisk, schwa):
    with criterion(2, "adapting the example entry is byte-exact in both paradigms"):
        (entry,) = parse_corpus(EXAMPLE_CORPUS_TEXT, tagset)
        adapted_star = adapt_corpus([entry], asterisk)[0]
        assert adapted_star.ref_adapted == (
            "L* direttor* del dipartimento ha detto che potrebbero assumere "
            "nuov* professor*"
        )
        assert serialize_annotation(adapted_star.triplets) == (
            "il la l*; direttore direttrice direttor*; nuovi nuove nuov*; "
            "professori professoresse professor*;"
        )
        adapted_schwa = adapt_corpus([entry], schwa)[0]
        assert adapted_schwa.ref_adapted == (
            "Lə direttorə del dipartimento ha detto che potrebbero assumere "
            "nuovɜ professorɜ"
        )
        assert serialize_annotation(adapted_schwa.triplets) == (
            "il la lə; direttore direttrice direttorə; nuovi nuove nuovɜ; "
            "professori professoresse professorɜ;"
        )


def test_criterion_03_self_evaluation(tagset, asterisk, schwa, test_split):
    with criterion(3, "adapted references score COV=ACC=100.00, MIS=0.00 on themselves"):
        started = time.perf_counter()
        for mapping in (asterisk, schwa):
            adapted = adapt_corpus(test_split, mapping)
            evals = evaluate_hypotheses(
                adapted, [a.ref_adapted for a in adapted], mapping.markers
            )
            report = compute_metrics(aggregate(evals))
            assert report.cov == 100.00
            assert report.acc == 100.00
            assert report.mis == 0.00
        assert time.perf_counter() - started < 5.0


def test_criterion_04_gendered_baseline(tagset, asterisk, test_split):
    with criterion(4, "masculine references score ACC=0.00, MIS=0.00, COV>=99"):
        started = time.perf_counter()
        adapted = adapt_corpus(test_split, asterisk)
        evals = evaluate_hypotheses(
            adapted, [e.ref_masc for e in test_split], asterisk.markers
        )
        report = compute_metrics(aggregate(evals))
        trace = render_trace(evals)  # shortfalls, if any, are visible here
        assert report.acc == 0.00
        assert report.mis == 0.00
        assert report.cov >= 99.0, f"coverage {report.cov}; see trace:\n{trace[:2000]}"
        assert time.perf_counter() - started < 5.0


def test_criterion_05_metric_identity():
    with criterion(5, "CWA equals COV*ACC/100 before rounding; table row rounds to 42.60"):
        rng = random.Random(1905)
        for _ in range(1000):
            annotations = rng.randint(1, 3000)
            matched = rng.randint(0, annotations)
            correct = rng.randint(0, matched) if matched else 0
            found = correct + rng.randint(0, 500)
            counts = EvalCounts(
                annotations=annotations, matched=matched, correct=correct, found=found
            )
            report = compute_metrics(counts)
            exact = exact_cwa(counts)
            assert report.cwa == round_half_up(exact.numerator, exact.denominator)
            assert report.mis >= 0.0
        assert round_half_up(57.08 * 74.63 / 100.0) == 42.60


def test_criterion_06_matcher_oracles(tagset, asterisk, schwa):
    from neogate import match_entry, parse_annotation, tokenize

    with criterion(6, "hand-traced matcher fixtures score exactly"):
        anchored = adapt_triplets(
            parse_annotation(
                "lo la <DARTS> student=1; studente studentessa student<ENDS>; "
                "preoccupato preoccupata preoccupat<ENDS>;",
                tagset,
            ),
            asterisk,
        )
        tokens = tokenize(
            "L* student* era preoccupat* di andare fuori tema.", asterisk.markers
        )
        ev = match_entry(tokens, anchored, asterisk.markers, "t8")
        assert (ev.annotations, ev.matched, ev.correct, ev.found) == (3, 3, 3, 3)

        shaman = adapt_triplets(
            parse_annotation("lo la <DARTS>; sciamano sciamana sciaman<ENDS>;", tagset),
            schwa,
        )
        tokens = tokenize("Sperə che lə sciamanə possa aiutarci.", schwa.markers)
        ev = match_entry(tokens, shaman, schwa.markers, "t6")
        assert (ev.annotations, ev.matched, ev.correct, ev.found) == (2, 2, 2, 3)
        report = compute_metrics(aggregate([ev]))
        assert report.mis == 50.00


def test_criterion_07_prompt_goldens(asterisk):
    with criterion(7, "prompt formats reproduce the documented message structure"):
        flowers = Entry(
            entry_id="0001",
            source="I never buy flowers for my friends.",
            ref_masc="Non compro mai fiori per i miei amici.",
            ref_fem="Non compro mai fiori per le mie amiche.",
            ref_tagged="",
            triplets=(),
            ref_adapted="Non compro mai fiori per l* mi* amic*.",
        )
        instruction = (
            "Translate the following English sentence into Italian using the "
            "neomorpheme '*'. To do so, the neomorpheme '*' should be used as "
            "a substitute for masculine and feminine morphemes in words that "
            "refer to human beings."
        )
        source = "The student was worried about going off topic."

        zero = build_prompt(source, PromptSpec(PromptFormat.ZERO_SHOT, 0, asterisk))
        assert [(m.role, m.content) for m in zero] == [
            ("user", f"{instruction}\n[English] <{source}>\n[Italian]")
        ]

        direct = build_prompt(
            source, PromptSpec(PromptFormat.DIRECT, 1, asterisk, ("0001",)), [flowers]
        )
        assert [(m.role, m.content) for m in direct] == [
            ("user", f"{instruction}\n[English] <I never buy flowers for my friends.>\n[Italian]"),
            ("assistant", "<Non compro mai fiori per l* mi* amic*.>"),
            ("user", f"[English] <{source}>\n[Italian]"),
        ]

        binary = build_prompt(
            source, PromptSpec(PromptFormat.BINARY, 1, asterisk, ("0001",)), [flowers]
        )
        assert [(m.role, m.content) for m in binary] == [
            ("user", f"{instruction}\n[English] <I never buy flowers for my friends.>\n[Italian, gendered]"),
            ("assistant", "<Non compro mai fiori per i miei amici.>\n[Italian, neomorpheme] <Non compro mai fiori per l* mi* amic*.>"),
            ("user", f"[English] <{source}>\n[Italian, gendered]"),
        ]

        ternary = build_prompt(
            source, PromptSpec(PromptFormat.TERNARY, 1, asterisk, ("0001",)), [flowers]
        )
        assert [(m.role, m.content) for m in ternary] == [
            ("user", f"{instruction}\n[English] <I never buy flowers for my friends.>\n[Italian, masculine]"),
            ("assistant", "<Non compro mai fiori per i miei amici.>\n[Italian, feminine] <Non compro mai fiori per le mie amiche.>\n[Italian, neomorpheme] <Non compro mai fiori per l* mi* amic*.>"),
            ("user", f"[English] <{source}>\n[Italian, masculine]"),
        ]


def test_criterion_08_extraction_properties():
    with criterion(8, "wrap/extract round trip, unparseable detection, label scoping"):
        rng = random.Random(77)
        alphabet = string.ascii_letters + string.digits + " ²àèəɜ*@%.,!?-"
        for _ in range(1000):
            text = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 60))
            ).strip()
            assert extract_translation(f"<{text}>", PromptFormat.DIRECT) == text
        assert extract_translation("nothing to see here", PromptFormat.DIRECT) is None
        raw = "<I maschile.>\n[Italian, neomorpheme] <L* version*.>"
        assert extract_translation(raw, PromptFormat.BINARY) == "L* version*."
        assert extract_translation(raw, PromptFormat.TERNARY) == "L* version*."


def test_criterion_09_marker_bijection(tagset, asterisk, schwa, test_split):
    with criterion(9, "marker bijection leaves all four counters unchanged (50 entries)"):
        sample = test_split[:50]
        star = adapt_corpus(sample, asterisk)
        star_evals = evaluate_hypotheses(
            star, [a.ref_adapted for a in star], asterisk.markers
        )
        # the schwa mapping is the asterisk one with '*' consistently
        # replaced by 'ə' in singular forms and 'ɜ' in plural forms
        schwa_adapted = adapt_corpus(sample, schwa)
        schwa_evals = evaluate_hypotheses(
            schwa_adapted, [a.ref_adapted for a in schwa_adapted], schwa.markers
        )
        for left, right in zip(star_evals, schwa_evals):
            assert (left.annotations, left.matched, left.correct, left.found) == (
                right.annotations,
                right.matched,
                right.correct,
                right.found,
            )
        # a strict single-character bijection: '*' -> '@' in mapping and text
        at_text = (
            "!name at\n!marker-singular @\n!marker-plural @\n"
            + "\n".join(
                f"{t.name}\t{asterisk.replacement(t.name).replace('*', '@')}"
                for t in tagset.tags
            )
        )
        at_mapping = parse_mapping(at_text, tagset)
        at_evals = evaluate_hypotheses(
            adapt_corpus(sample, at_mapping),
            [a.ref_adapted.replace("*", "@") for a in star],
            at_mapping.markers,
        )
        for left, right in zip(star_evals, at_evals):
            assert (left.annotations, left.matched, left.correct, left.found) == (
                right.annotations,
                right.matched,
                right.correct,
                right.found,
            )


def test_criterion_10_kappa():
    with criterion(10, "kappa fixtures are exact and kappa is symmetric"):
        assert cohen_kappa(["A", "B", "A"], ["A", "B", "A"]) == 1.0
        assert cohen_kappa(["A", "A", "B", "B"], ["A", "B", "A", "B"]) == 0.0
        assert cohen_kappa(["A", "B"], ["B", "A"]) == -1.0
        rng = random.Random(42)
        for _ in range(100):
            size = rng.randint(1, 40)
            a = [rng.choice("ABC") for _ in range(size)]
            b = [rng.choice("ABC") for _ in range(size)]
            assert cohen_kappa(a, b) == cohen_kappa(b, a)


def test_criterion_11_runner_determinism(echo_server, tagset, asterisk, test_split, tmp_path):
    with criterion(11, "warm-cache reruns are byte-identical with zero network calls"):
        corpus = test_split[:10]
        spec = PromptSpec(PromptFormat.ZERO_SHOT, 0, asterisk)
        config = ClientConfig(endpoint=echo_server.url, model="echo")
        cache_path = tmp_path / "cache.jsonl"
        order = [e.entry_id for e in corpus]

        first = run_corpus(corpus, spec, config, cache_path)
        first_calls = echo_server.calls
        first_file = export_hypotheses(first, order).encode("utf-8")

        second = run_corpus(corpus, spec, config, cache_path)
        second_file = export_hypotheses(second, order).encode("utf-8")

        assert echo_server.calls == first_calls  # zero second-run network calls
        assert first_file == second_file
        assert first_calls == len(corpus)
