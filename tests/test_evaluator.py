"""Tokenizer, matcher, aggregation, and metric computation."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neogate import (
    aggregate,
    compute_metrics,
    count_neomorphemes,
    evaluate_hypotheses,
    match_entry,
    parse_annotation,
    tokenize,
)
from neogate.corpus import Anchor, Entry, Triplet
from neogate.evaluator import (
    Breakdown,
    EntryEval,
    EvalCounts,
    Outcome,
    round_half_up,
    tokenizer,
)
from neogate.errors import NeoGateError
from neogate.paradigm import adapt_triplets

from .conftest import exact_cwa


@pytest.fixture
def table_triplets(tagset, asterisk):
    ann = (
        "lo la <DARTS> student=1; studente studentessa student<ENDS>; "
        "preoccupato preoccupata preoccupat<ENDS>;"
    )
    return adapt_triplets(parse_annotation(ann, tagset), asterisk)


def test_tokenize_keeps_markers():
    tokens = tokenize("Non compro mai fiori per l* mi* amic*.", {"*"})
    assert tokens == ["Non", "compro", "mai", "fiori", "per", "l*", "mi*", "amic*"]


def test_tokenize_splits_after_apostrophe():
    assert tokenize("dell'amico.") == ["dell'", "amico"]
    assert tokenize("un po' sventato") == ["un", "po'", "sventato"]


def test_tokenize_empty_and_positions():
    assert tokenize("") == []
    assert tokenize("a  b\tc") == ["a", "b", "c"]


def test_tokenize_normalizes_curly_apostrophe():
    assert tokenize("dell’amico") == ["dell'", "amico"]


def test_tokenize_drops_bare_punctuation():
    assert tokenize("ciao — mondo ...") == ["ciao", "mondo"]


def test_tokenize_strips_edges_but_keeps_inner():
    assert tokenize("«borghese»?!") == ["borghese"]
    assert tokenize("amic*,", {"*"}) == ["amic*"]
    assert tokenize("amic*,") == ["amic"]


def test_count_neomorphemes_cases():
    schwa_tokens = tokenize("Sperə che lə sciamanə possa aiutarci", {"ə", "ɜ"})
    assert count_neomorphemes(schwa_tokens, {"ə", "ɜ"}) == 3
    plain = tokenize("Lo studente era preoccupato", {"*"})
    assert count_neomorphemes(plain, {"*"}) == 0
    assert count_neomorphemes(tokenize("l* mi* amic*", {"*"}), {"*"}) == 3


def test_match_entry_anchor_trace(table_triplets, asterisk):
    tokens = tokenize("L* student* era preoccupat* di andare fuori tema.", asterisk.markers)
    ev = match_entry(tokens, table_triplets, asterisk.markers, "t8")
    assert (ev.annotations, ev.matched, ev.correct, ev.found) == (3, 3, 3, 3)
    assert all(o is Outcome.MATCHED_NEO for o in ev.per_triplet)


def test_match_entry_shaman_trace(tagset, schwa):
    triplets = adapt_triplets(
        parse_annotation("lo la <DARTS>; sciamano sciamana sciaman<ENDS>;", tagset), schwa
    )
    tokens = tokenize("Sperə che lə sciamanə possa aiutarci.", schwa.markers)
    ev = match_entry(tokens, triplets, schwa.markers, "t6")
    assert (ev.annotations, ev.matched, ev.correct, ev.found) == (2, 2, 2, 3)


def test_match_entry_overgeneration_trace(tagset, schwa):
    # a single annotated word, three neomorpheme tokens in the output:
    # per-entry mis-generation exceeds 100%
    triplets = adapt_triplets(parse_annotation("tutti tutte tutt<ENDP>;", tagset), schwa)
    tokens = tokenize("Hanno chiesto a tɜ di rimanerə in silenziə.", schwa.markers)
    ev = match_entry(tokens, triplets, schwa.markers)
    assert (ev.annotations, ev.matched, ev.correct, ev.found) == (1, 0, 0, 3)
    report = compute_metrics(aggregate([ev]))
    assert report.mis == 300.0 and report.cov == 0.0


def test_match_entry_masculine_reference(table_triplets, asterisk):
    tokens = tokenize("Lo studente era preoccupato di andare fuori tema.", asterisk.markers)
    ev = match_entry(tokens, table_triplets, asterisk.markers)
    assert (ev.annotations, ev.matched, ev.correct, ev.found) == (3, 3, 0, 0)
    assert ev.per_triplet[0] is Outcome.MATCHED_MASC


def test_match_entry_feminine_forms(table_triplets, asterisk):
    tokens = tokenize("La studentessa era preoccupata.", asterisk.markers)
    ev = match_entry(tokens, table_triplets, asterisk.markers)
    assert ev.per_triplet[0] is Outcome.MATCHED_FEM
    assert (ev.matched, ev.correct) == (3, 0)


def test_match_entry_unsatisfied_anchor_keeps_scanning(tagset, asterisk):
    triplets = adapt_triplets(
        parse_annotation("il la <DARTS> maestr=1; maestro maestra maestr<ENDS>;", tagset),
        asterisk,
    )
    # first "la" is followed by "casa": anchor fails, matcher moves on
    tokens = tokenize("Vedo la casa e la maestra.", asterisk.markers)
    ev = match_entry(tokens, triplets, asterisk.markers)
    assert ev.matched == 2
    assert ev.per_triplet[0] is Outcome.MATCHED_FEM


def test_match_entry_anchor_out_of_range(tagset, asterisk):
    triplets = adapt_triplets(
        parse_annotation("il la <DARTS> maestr=1;", tagset), asterisk
    )
    ev = match_entry(tokenize("Arriva il.", asterisk.markers), triplets, asterisk.markers)
    assert ev.matched == 0
    assert ev.per_triplet == (Outcome.UNMATCHED,)


def test_match_entry_consumes_tokens_once(tagset, asterisk):
    ann = "il la <DARTS> maestr=1; il la <DARTS> sart=1; maestro maestra maestr<ENDS>; sarto sarta sart<ENDS>;"
    triplets = adapt_triplets(parse_annotation(ann, tagset), asterisk)
    tokens = tokenize("il maestro saluta il sarto", asterisk.markers)
    ev = match_entry(tokens, triplets, asterisk.markers)
    assert ev.matched == 4
    # the two articles were matched at distinct positions
    assert ev.per_triplet == (
        Outcome.MATCHED_MASC,
        Outcome.MATCHED_MASC,
        Outcome.MATCHED_MASC,
        Outcome.MATCHED_MASC,
    )


def test_match_entry_case_insensitive(tagset, asterisk):
    triplets = adapt_triplets(
        parse_annotation("il la <DARTS> maestr=1; maestro maestra maestr<ENDS>;", tagset),
        asterisk,
    )
    ev = match_entry(tokenize("IL MAESTRO URLA", asterisk.markers), triplets, asterisk.markers)
    assert ev.matched == 2


def of_class(kind, number):
    return Triplet("m", "f", "t", "T", kind, number)


def test_aggregate_additivity():
    e1 = EntryEval("a", 3, 3, 3, 3, (Outcome.MATCHED_NEO,) * 3, (of_class("content", "singular"),) * 3)
    e2 = EntryEval("b", 2, 2, 2, 3, (Outcome.MATCHED_NEO,) * 2, (of_class("function", "plural"),) * 2)
    counts = aggregate([e1, e2])
    assert (counts.annotations, counts.matched, counts.correct, counts.found) == (5, 5, 5, 6)
    assert counts.breakdowns[("content", "singular")] == Breakdown(3, 3, 3)
    assert counts.breakdowns[("function", "plural")] == Breakdown(2, 2, 2)


def test_aggregate_empty_and_identity():
    empty = aggregate([])
    assert (empty.annotations, empty.matched, empty.correct, empty.found) == (0, 0, 0, 0)
    single = EntryEval("a", 4, 2, 1, 2, (Outcome.UNMATCHED,) * 4, (of_class("content", "plural"),) * 4)
    counts = aggregate([single])
    assert (counts.annotations, counts.matched, counts.correct, counts.found) == (4, 2, 1, 2)


def test_breakdowns_sum_to_totals(test_split, asterisk):
    from neogate import adapt_corpus

    adapted = adapt_corpus(test_split[:120], asterisk)
    evals = evaluate_hypotheses(adapted, [a.ref_adapted for a in adapted], asterisk.markers)
    # each entry's own triplets, not a copy
    assert all(ev.triplets is entry.triplets for ev, entry in zip(evals, adapted))
    counts = aggregate(evals)
    assert sum(b.annotations for b in counts.breakdowns.values()) == counts.annotations
    assert sum(b.matched for b in counts.breakdowns.values()) == counts.matched
    assert sum(b.correct for b in counts.breakdowns.values()) == counts.correct


def test_compute_metrics_guard_and_zero_convention():
    counts = EvalCounts(annotations=2479, matched=0, correct=0, found=0)
    report = compute_metrics(counts)
    assert (report.cov, report.acc, report.cwa, report.mis) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(NeoGateError, match="cannot compute metrics over zero annotations"):
        compute_metrics(EvalCounts(annotations=0, matched=0, correct=0, found=0))


def test_compute_metrics_shaman_fixture():
    counts = EvalCounts(annotations=2, matched=2, correct=2, found=3)
    report = compute_metrics(counts)
    assert (report.cov, report.acc, report.cwa, report.mis) == (100.0, 100.0, 100.0, 50.0)


def test_rounding_half_up():
    assert round_half_up(42.598804) == 42.60
    assert round_half_up(0.125) == 0.13
    assert round_half_up(0.005) == 0.01
    assert round_half_up(57.084999) == 57.08


def oracle_percent(numerator: int, denominator: int) -> float:
    """100 * numerator / denominator to 2 decimals, ties away from zero."""
    hundredths = abs(Fraction(100 * numerator, denominator)) * 100
    rounded = math.floor(hundredths + Fraction(1, 2))
    return math.copysign(rounded / 100, numerator)


@st.composite
def exact_counts(draw) -> EvalCounts:
    annotations = draw(st.integers(1, 10**6))
    matched = draw(st.integers(0, annotations))
    correct = draw(st.integers(0, matched))
    found = draw(st.integers(0, 10**6))  # below correct gives a negative MIS
    entries = draw(st.integers(0, 10**6))
    return EvalCounts(
        annotations, matched, correct, found, entries, draw(st.integers(0, entries))
    )


@given(exact_counts())
# 23/160 is 14.375% and 1/32 is 3.125%: float ratios land below these ties
@example(EvalCounts(annotations=160, matched=23, correct=0, found=0, entries=160, unparseable_entries=23))
@example(EvalCounts(annotations=32, matched=3, correct=1, found=0))
def test_metrics_round_the_exact_ratios(counts):
    report = compute_metrics(counts)
    annotations, matched, correct = counts.annotations, counts.matched, counts.correct
    assert report.cov == oracle_percent(matched, annotations)
    assert report.acc == (oracle_percent(correct, matched) if matched else 0.0)
    assert report.cwa == oracle_percent(correct, annotations)
    assert report.mis == oracle_percent(counts.found - correct, annotations)
    assert report.unparseable_rate == (
        oracle_percent(counts.unparseable_entries, counts.entries) if counts.entries else 0.0
    )


def test_table_row_product_identity():
    assert round_half_up(57.08 * 74.63 / 100.0) == 42.60


def test_unparseable_entries_depress_coverage(tagset, asterisk, example_corpus):
    from neogate import adapt_corpus

    adapted = adapt_corpus(example_corpus, asterisk) * 2
    evals = evaluate_hypotheses(adapted, [adapted[0].ref_adapted, ""], asterisk.markers)
    assert evals[1].unparseable
    assert evals[1].annotations == 4 and evals[1].matched == 0
    counts = aggregate(evals)
    report = compute_metrics(counts)
    assert report.cov == 50.0
    assert report.unparseable_rate == 50.0


def test_evaluate_hypotheses_length_mismatch(asterisk, example_corpus):
    from neogate import adapt_corpus
    from neogate.errors import NeoGateError

    adapted = adapt_corpus(example_corpus, asterisk)
    with pytest.raises(NeoGateError):
        evaluate_hypotheses(adapted, [], asterisk.markers)


def test_mixed_run_full_pipeline(tagset, asterisk, example_corpus):
    # hand-derived corpus totals for a run mixing neomorpheme, gendered,
    # feminine, mis-generated, and unparseable outputs
    from neogate import adapt_corpus, parse_corpus

    from .conftest import HEADER_LINE

    extra = "\t".join(
        ("0002", "Alex is a teacher.", "Alex è maestro.", "Alex è maestra.",
         "Alex è maestr<ENDS>.", "maestro maestra maestr<ENDS>;")
    )
    corpus = example_corpus + parse_corpus(HEADER_LINE + "\n" + extra + "\n", tagset)
    adapted = adapt_corpus(corpus, asterisk)
    hypotheses = [
        # article masculine, chair word neomorphemic, adjective and noun
        # feminine, plus one spurious neomorpheme token
        "Il direttor* del dipartimento ha detto che potrebbero assumere "
        "nuove professoresse e tavol*",
        "",  # unparseable
    ]
    evals = evaluate_hypotheses(adapted, hypotheses, asterisk.markers)
    assert (evals[0].matched, evals[0].correct, evals[0].found) == (4, 1, 2)
    assert evals[0].per_triplet == (
        Outcome.MATCHED_MASC,
        Outcome.MATCHED_NEO,
        Outcome.MATCHED_FEM,
        Outcome.MATCHED_FEM,
    )
    counts = aggregate(evals)
    assert (counts.annotations, counts.matched, counts.correct, counts.found) == (5, 4, 1, 2)
    report = compute_metrics(counts)
    assert (report.cov, report.acc, report.cwa, report.mis) == (80.0, 25.0, 20.0, 20.0)
    assert report.unparseable_rate == 50.0
    assert counts.breakdowns[("content", "singular")] == Breakdown(2, 1, 1)
    assert counts.breakdowns[("content", "plural")] == Breakdown(2, 2, 0)
    assert counts.breakdowns[("function", "singular")] == Breakdown(1, 1, 0)


counts_strategy = st.tuples(
    st.integers(min_value=1, max_value=5000),  # annotations
    st.integers(min_value=0, max_value=5000),  # matched
    st.integers(min_value=0, max_value=5000),  # correct
    st.integers(min_value=0, max_value=5000),  # extra found
).map(
    lambda t: EvalCounts(
        annotations=max(t[0], t[1] % (t[0] + 1)),
        matched=t[1] % (t[0] + 1),
        correct=t[2] % ((t[1] % (t[0] + 1)) + 1),
        found=t[2] % ((t[1] % (t[0] + 1)) + 1) + t[3],
    )
)


@given(counts_strategy)
def test_cwa_identity_before_rounding(counts):
    report = compute_metrics(counts)
    exact = exact_cwa(counts)
    assert report.cwa == round_half_up(exact.numerator, exact.denominator)
    assert report.mis >= 0.0


@given(st.text(max_size=200))
def test_tokenize_total_and_well_formed(text):
    tokens = tokenize(text, {"*", "ə"})
    for t in tokens:
        assert t
        assert not t[0].isspace() and not t[-1].isspace()


_WORDS = ["il", "la", "l*", "maestro", "maestra", "maestr*", "casa", "qui", "sart*", "e"]


@given(st.lists(st.sampled_from(_WORDS), max_size=12))
def test_matcher_count_invariants(words):
    from neogate import load_builtin_mapping, load_builtin_tagset

    ts = load_builtin_tagset()
    ast = load_builtin_mapping("asterisk", ts)
    ann = "il la <DARTS> maestr=1; maestro maestra maestr<ENDS>; sarto sarta sart<ENDS>;"
    triplets = adapt_triplets(parse_annotation(ann, ts), ast)
    tokens = tokenize(" ".join(words), ast.markers)
    ev = match_entry(tokens, triplets, ast.markers)
    assert ev.correct <= ev.matched <= ev.annotations
    assert ev.correct <= ev.found
    assert (ev.found - ev.correct) >= 0


# The tokenizer and matcher before words were memoized and surfaces
# indexed, kept verbatim as the reference of the differential tests below.
def old_tokenize(text: str, markers=()) -> list[str]:
    marker_set = frozenset(markers)

    def keep(ch: str) -> bool:
        return ch.isalpha() or ch.isdigit() or ch == "'" or ch in marker_set

    tokens: list[str] = []
    for word in text.replace("’", "'").split():
        for piece in re.split(r"(?<=')", word):
            start, end = 0, len(piece)
            while start < end and not keep(piece[start]):
                start += 1
            while end > start and not keep(piece[end - 1]):
                end -= 1
            surface = piece[start:end]
            if any(ch.isalpha() or ch.isdigit() or ch in marker_set for ch in surface):
                tokens.append(surface)
    return tokens


def old_match_entry(tokens, adapted_triplets, markers, entry_id="", unparseable=False):
    if unparseable:
        return EntryEval(
            entry_id=entry_id,
            annotations=len(adapted_triplets),
            matched=0,
            correct=0,
            found=0,
            per_triplet=(Outcome.UNMATCHED,) * len(adapted_triplets),
            triplets=tuple(adapted_triplets),
            unparseable=True,
        )
    surfaces = [t.casefold() for t in tokens]
    consumed: set[int] = set()
    outcomes: list[Outcome] = []
    matched = correct = 0
    for triplet in adapted_triplets:
        forms = (
            (triplet.tagged_form.casefold(), Outcome.MATCHED_NEO),
            (triplet.masc_form.casefold(), Outcome.MATCHED_MASC),
            (triplet.fem_form.casefold(), Outcome.MATCHED_FEM),
        )
        outcome = Outcome.UNMATCHED
        for pos, surface in enumerate(surfaces):
            if pos in consumed:
                continue
            hit = next((o for form, o in forms if surface == form), None)
            if hit is None:
                continue
            if triplet.anchor is not None:
                anchor_pos = pos + triplet.anchor.distance
                if anchor_pos >= len(surfaces) or not surfaces[anchor_pos].startswith(
                    triplet.anchor.text.casefold()
                ):
                    continue
            consumed.add(pos)
            outcome = hit
            matched += 1
            if hit is Outcome.MATCHED_NEO:
                correct += 1
            break
        outcomes.append(outcome)
    found = count_neomorphemes(tokens, markers)
    return EntryEval(
        entry_id=entry_id,
        annotations=len(adapted_triplets),
        matched=matched,
        correct=correct,
        found=found,
        per_triplet=tuple(outcomes),
        triplets=tuple(adapted_triplets),
    )


MARKERS = frozenset({"*", "ə"})
# few forms, so that they repeat in a hypothesis and coincide in a triplet;
# with elisions, case variants, markers and non-ASCII digits
_FORMS = ["il", "la", "l*", "l'", "lə", "maestro", "maestra", "maestr*", "Maestrə", "٣", "x²"]
_HYP_WORDS = _FORMS + ["L’", "MAESTRO", "dell'", "qui", "po'", "e", "٣a", "*", "…"]


@st.composite
def triplets(draw):
    anchor = draw(
        st.none()
        # distances below 1 come only through the API
        | st.builds(Anchor, st.sampled_from(["m", "MAESTR", "l", "٣", ""]), st.integers(-1, 2))
    )
    masc, fem, tagged = (draw(st.sampled_from(_FORMS)) for _ in range(3))
    kind, number = draw(st.sampled_from([("content", "singular"), ("function", "plural")]))
    return Triplet(masc, fem, tagged, "T", kind, number, anchor)


hypotheses = st.lists(
    st.tuples(
        st.sampled_from(["", "(", "«", '"', "-"]),
        st.sampled_from(_HYP_WORDS),
        st.sampled_from(["", ".", ",", "!", "»", "'", "’", "’s"]),
        st.sampled_from([" ", " ", " ", "  ", "\t", "'", "’", ""]),
    ).map("".join),
    max_size=16,
).map("".join)


@given(st.text(max_size=200) | hypotheses)
def test_tokenize_matches_the_old_tokenizer(text):
    assert tokenize(text, MARKERS) == old_tokenize(text, MARKERS)


def _triplet(masc, fem, tagged, anchor=None):
    return Triplet(masc, fem, tagged, "T", "function", "singular", anchor)


def entries_of(triplet):
    return st.lists(st.tuples(st.lists(triplet, max_size=6), hypotheses | st.just("  ")), max_size=8)


@st.composite
def shared_entries(draw):
    """Entries whose triplets come from one small pool, as the same objects
    (what ``parse_corpus`` and ``adapt_corpus`` hand out for a repeated
    chunk) or as equal copies."""
    pool = st.sampled_from(draw(st.lists(triplets(), min_size=1, max_size=6)))
    return draw(entries_of(pool | pool.map(lambda t: Triplet(*t))))


# markers passed through the API may be longer than one character; a token
# holds one when it contains it
LONG_MARKERS = frozenset({"*", "rə", "l'"})


# each entry's own triplets, or triplets shared across entries
@given(entries_of(triplets()) | shared_entries(), st.sampled_from([MARKERS, LONG_MARKERS]))
# the anchor on the last token, and forms equal to two fields
@example([([_triplet("il", "la", "l*", Anchor("m", 1))], "la casa, il Maestro")], MARKERS)
@example([([_triplet("la", "la", "l*"), _triplet("l*", "il", "l*")], "l* la il l*")], MARKERS)
@example([([_triplet("il", "la", "l*")] * 2, "dell' l* Maestrə"), ([], "l'")], LONG_MARKERS)
# anchors at distance 0 and -1; one tagged form in two triplets
@example([([_triplet("il", "la", "l*", Anchor("m", 0))], "il maestro")], MARKERS)
@example([([_triplet("il", "la", "l*", Anchor("m", -1))], "maestro il")], MARKERS)
@example([([_triplet("il", "la", "l*")], "il"), ([_triplet("lo", "la", "l*")], "lo")], MARKERS)
def test_evaluation_matches_the_old_tokenizer_and_matcher(entries, markers):
    adapted = [Entry(f"e{i}", "", "", "", "", tuple(ts)) for i, (ts, _) in enumerate(entries)]
    hyps = [hyp for _, hyp in entries]
    expected = [
        old_match_entry(
            old_tokenize(hyp, markers) if hyp.strip() else [],
            entry.triplets,
            markers,
            entry_id=entry.entry_id,
            unparseable=not hyp.strip(),
        )
        for entry, hyp in zip(adapted, hyps)
    ]
    assert evaluate_hypotheses(adapted, hyps, markers) == expected
    tokenize_text = tokenizer(markers)
    assert [tokenize_text(hyp) for hyp in hyps] == [old_tokenize(hyp, markers) for hyp in hyps]
    for entry, hyp in zip(adapted, hyps):
        tokens = old_tokenize(hyp, markers)
        assert match_entry(tokens, entry.triplets, markers, entry.entry_id) == old_match_entry(
            tokens, entry.triplets, markers, entry.entry_id
        )
