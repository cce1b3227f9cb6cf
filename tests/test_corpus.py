"""Corpus parsing, serialization, validation, statistics, and kappa."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neogate import (
    adapt_corpus,
    cohen_kappa,
    corpus_stats,
    load_corpus,
    parse_annotation,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)
from neogate.corpus import Entry, _decode, aligned_tag_labels, serialize_annotation
from neogate.errors import NeoGateError

from .conftest import EXAMPLE_CORPUS_TEXT, HEADER_LINE


def test_parse_example_entry(example_corpus):
    (entry,) = example_corpus
    assert entry.entry_id == "0001"
    assert len(entry.triplets) == 4
    kinds = [(t.kind, t.number) for t in entry.triplets]
    assert kinds == [
        ("function", "singular"),
        ("content", "singular"),
        ("content", "plural"),
        ("content", "plural"),
    ]
    assert entry.triplets[0].masc_form == "il"
    assert entry.triplets[0].fem_form == "la"
    assert entry.triplets[1].tagged_form == "direttor<ENDS>"


def test_parse_annotation_single_anchor(tagset):
    ann = (
        "lo la <DARTS> student=1; studente studentessa student<ENDS>; "
        "preoccupato preoccupata preoccupat<ENDS>;"
    )
    triplets = parse_annotation(ann, tagset)
    assert len(triplets) == 3
    assert triplets[0].anchor is not None
    assert (triplets[0].anchor.text, triplets[0].anchor.distance) == ("student", 1)
    assert triplets[1].anchor is None


def test_parse_annotation_two_anchors(tagset):
    ann = "i le <DARTP> amic=2; tuoi tue <POSS2P> amic=1; amici amiche amic<ENDP>;"
    triplets = parse_annotation(ann, tagset)
    anchors = [(t.anchor.text, t.anchor.distance) for t in triplets if t.anchor]
    assert anchors == [("amic", 2), ("amic", 1)]


def test_parse_annotation_arity_violation(tagset):
    with pytest.raises(NeoGateError, match="has 2 forms, expected 3"):
        parse_annotation("il la", tagset)


def test_parse_annotation_rejects_bad_anchors(tagset):
    with pytest.raises(NeoGateError, match="anchor distance 'x' .* not a positive integer"):
        parse_annotation("il la <DARTS> stem=x;", tagset)
    with pytest.raises(NeoGateError, match="anchor distance '0' .* not a positive integer"):
        parse_annotation("il la <DARTS> stem=0;", tagset)
    # str.isdigit takes these, and int() fails on the first and reads 3 in the second
    for dist in ("\u00b2", "\u0663"):
        with pytest.raises(NeoGateError, match=f"anchor distance '{dist}' .* not a positive"):
            parse_annotation(f"il la <DARTS> stem={dist};", tagset)
    with pytest.raises(NeoGateError, match="content triplet .* carries an anchor"):
        # anchors belong to function words only
        parse_annotation("amico amica amic<ENDS> amic=1;", tagset)
    with pytest.raises(NeoGateError, match="'il la <DARTS> stem' has 4 forms and no anchor"):
        parse_annotation("il la <DARTS> stem;", tagset)
    with pytest.raises(NeoGateError, match="empty anchor string in 'il la <DARTS> =1'"):
        parse_annotation("il la <DARTS> =1;", tagset)


def test_parse_annotation_rejects_unknown_and_tagless(tagset):
    with pytest.raises(NeoGateError, match="tag <NOPE> is not in the tagset"):
        parse_annotation("il la <NOPE>;", tagset)
    with pytest.raises(NeoGateError, match="'lo' must contain exactly one tag"):
        parse_annotation("il la lo;", tagset)
    with pytest.raises(NeoGateError, match="'<DARTS><ENDS>' must contain exactly one tag"):
        parse_annotation("il la <DARTS><ENDS>;", tagset)


@pytest.mark.parametrize("masc, fem", [("<DARTS>", "la"), ("il", "l<ENDS>"), ("il<DARTS>", "la")])
def test_parse_annotation_rejects_tags_in_gendered_forms(tagset, masc, fem):
    chunk = f"{masc} {fem} <DARTS>"
    with pytest.raises(NeoGateError, match=f"gendered forms in '{chunk}' must not contain tags"):
        parse_annotation(chunk + ";", tagset)


def test_parse_annotation_keeps_a_bracket_that_is_no_tag(tagset):
    [triplet] = parse_annotation("i<l l<> <DARTS>;", tagset)
    assert triplet[:3] == ("i<l", "l<>", "<DARTS>")


def test_parse_corpus_structural_errors(tagset, tmp_path):
    with pytest.raises(NeoGateError, match="missing or wrong header"):
        parse_corpus("WRONG\tHEADER\n", tagset)
    with pytest.raises(NeoGateError, match="line 2: expected 6 columns, got 3"):
        parse_corpus(HEADER_LINE + "\nonly\tthree\tcolumns\n", tagset)
    for annotation in (" ", "", "; ;"):
        row = "\t".join(("e1", "src", "ref m", "ref f", "ref <DARTS>", annotation))
        with pytest.raises(NeoGateError, match=r"line 2 \(entry e1\): empty annotation"):
            parse_corpus(HEADER_LINE + "\n" + row + "\n", tagset)
    with pytest.raises(NeoGateError, match="corpus is not valid UTF-8"):
        parse_corpus(EXAMPLE_CORPUS_TEXT.encode("utf-16"), tagset)
    utf16 = tmp_path / "utf16.tsv"
    utf16.write_bytes(EXAMPLE_CORPUS_TEXT.encode("utf-16"))
    with pytest.raises(NeoGateError, match=f"{re.escape(str(utf16))} is not valid UTF-8"):
        load_corpus(utf16, tagset)


def test_round_trip_is_byte_identical(tagset, example_corpus):
    assert serialize_corpus(example_corpus) == EXAMPLE_CORPUS_TEXT
    again = parse_corpus(serialize_corpus(example_corpus), tagset)
    assert again == example_corpus


def test_round_trip_full_split(tagset, test_split):
    text = serialize_corpus(test_split)
    assert parse_corpus(text, tagset) == test_split


def test_parse_tolerates_crlf_and_bom(tagset, example_corpus):
    windowsish = "﻿" + EXAMPLE_CORPUS_TEXT.replace("\n", "\r\n")
    assert parse_corpus(windowsish, tagset) == example_corpus


def test_blank_lines_inside_a_corpus_are_skipped(tagset, example_corpus):
    row = EXAMPLE_CORPUS_TEXT.splitlines()[1]
    text = EXAMPLE_CORPUS_TEXT + "\n \t\n" + row.replace("0001", "0002", 1) + "\n"
    entries = parse_corpus(text, tagset)
    assert entries == [example_corpus[0], example_corpus[0]._replace(entry_id="0002")]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_a_decode_error_gives_the_offset_in_the_file(bom):
    assert _decode(bom + b"caf\xc3\xa9", "f.tsv") == "caf\xe9"
    with pytest.raises(NeoGateError, match=f"f.tsv is not valid UTF-8: .* in position {len(bom) + 3}:"):
        _decode(bom + b"caf\xe9", "f.tsv")


# annotation chunks that recur across a corpus: padded copies of one
# another, two with one tagged form, and bad ones that fail at their first
# line however often they repeat
_CHUNKS = [
    "il la l<DARTS> maestr=1",
    "  il la l<DARTS> maestr=1 ",
    "lo la l<DARTS>",
    "maestro maestra maestr<ENDS>",
    "i le l<DARTP> amic=2",
    "amici amiche amic<ENDP>",
    " ",
]
_BAD_CHUNKS = ["il la <BOGUS>", "il la l<DARTS> maestr=0", "il la"]
_REF = "l<DARTS> maestr<ENDS> arriva"
_REFS = [_REF, "Gli amic<ENDP>", "<POSS1S> amic<ENDS>", "<DARTS> ", "x", "<BOGUS> x"]


@st.composite
def corpus_rows(draw):
    """(REF-TAGGED, annotation chunks) rows; some rows may share one bad chunk."""
    chunks = st.lists(st.sampled_from(_CHUNKS), min_size=1, max_size=4)
    rows = draw(st.lists(st.tuples(st.sampled_from(_REFS), chunks), max_size=8))
    bad = draw(st.none() | st.sampled_from(_BAD_CHUNKS))
    if bad is not None and rows:
        for i in draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)):
            rows[i][1].append(bad)
    return rows


def _outcome(build):
    try:
        return build()
    except NeoGateError as exc:
        return str(exc)


@given(corpus_rows())
@example([(_REF, ["il la l<DARTS> maestr=1"]), (_REF, ["lo la l<DARTS>", "il la l<DARTS> maestr=1"])])
@example([(_REF, ["amici amiche amic<ENDP>", "il la"]), (_REF, ["il la"])])
def test_parse_and_adapt_of_repeated_chunks_match_per_line_work(tagset, asterisk, schwa, rows):
    lines = [
        (f"e{i}", "src", "ref m", "ref f", ref, ";".join(chunks) + ";")
        for i, (ref, chunks) in enumerate(rows)
    ]
    text = "\n".join([HEADER_LINE, *map("\t".join, lines)]) + "\n"

    def parse_each_line():
        entries = []
        for line_no, (*columns, annotation) in enumerate(lines, start=2):
            try:
                triplets = parse_annotation(annotation, tagset)
            except NeoGateError as exc:
                raise NeoGateError(f"line {line_no} (entry {columns[0]}): {exc}") from exc
            if not triplets:
                raise NeoGateError(f"line {line_no} (entry {columns[0]}): empty annotation")
            entries.append(Entry(*columns, tuple(triplets)))
        return entries

    corpus = _outcome(lambda: parse_corpus(text, tagset))
    assert corpus == _outcome(parse_each_line)
    if isinstance(corpus, str):
        return
    # each distinct chunk is one Triplet
    triplets = [t for e in corpus for t in e.triplets]
    assert len({id(t) for t in triplets}) == len(set(triplets))
    for mapping in (asterisk, schwa):
        assert _outcome(lambda: adapt_corpus(corpus, mapping)) == _outcome(
            lambda: [adapt_corpus([e], mapping)[0] for e in corpus]
        )


def test_parse_errors_carry_entry_context(tagset):
    text = EXAMPLE_CORPUS_TEXT.replace("<DARTS>", "<BOGUS>")
    with pytest.raises(NeoGateError, match=r"line 2 \(entry 0001\): tag <BOGUS> is not"):
        parse_corpus(text, tagset)


def test_serialize_annotation_keeps_anchors(tagset):
    ann = "i le <DARTP> amic=2; tuoi tue <POSS2P> amic=1; amici amiche amic<ENDP>;"
    assert serialize_annotation(parse_annotation(ann, tagset)) == ann


def test_tag_count_matches_triplets(test_split):
    from neogate.paradigm import TAG_RE

    for entry in test_split:
        assert len(TAG_RE.findall(entry.ref_tagged)) == len(entry.triplets)


def test_example_entry_stats(example_corpus):
    stats = corpus_stats(example_corpus)
    assert (stats.tags, stats.content, stats.function) == (4, 3, 1)
    assert (stats.singular, stats.plural) == (2, 2)


def test_stats_totals_add_up(test_split, dev_split):
    for split in (test_split, dev_split):
        stats = corpus_stats(split)
        assert stats.content + stats.function == stats.tags
        assert stats.singular + stats.plural == stats.tags


def test_validation_flags_missing_forms(tagset):
    row = "\t".join(
        ("e1", "src", "Il maestro dorme", "La maestra dorme",
         "<DARTS> maestr<ENDS> dorme", "il la <DARTS> maestr=1; maestri maestre maestr<ENDS>;")
    )
    corpus = parse_corpus(HEADER_LINE + "\n" + row + "\n", tagset)
    issues = validate_corpus(corpus)
    errors = [i for i in issues if i.severity == "error"]
    assert len(errors) == 2  # both gendered forms are plural, refs are singular
    assert all(i.entry_id == "e1" for i in errors)
    assert {i.location for i in errors} == {"ANNOTATION[1]"}


def test_validation_flags_tag_mismatch(tagset):
    row = "\t".join(
        ("e1", "src", "Il maestro dorme", "La maestra dorme",
         "<DARTS> maestro dorme", "il la <DARTS> maestr=1; maestro maestra maestr<ENDS>;")
    )
    corpus = parse_corpus(HEADER_LINE + "\n" + row + "\n", tagset)
    errors = [i for i in validate_corpus(corpus) if i.severity == "error"]
    assert any("do not match" in i.message for i in errors)


def test_validation_warns_on_missing_anchor(example_corpus):
    issues = validate_corpus(example_corpus)
    assert [i.severity for i in issues] == ["warning"]
    assert "anchor" in issues[0].message
    assert issues[0].render().startswith("warning\t0001\t")


def test_validation_flags_a_duplicate_entry_id(example_corpus):
    issues = validate_corpus(example_corpus * 2)
    errors = [i for i in issues if i.severity == "error"]
    assert errors == [("0001", "error", "duplicate entry id", "ID")]


def test_bundled_splits_validate_cleanly(test_split, dev_split):
    assert validate_corpus(test_split) == []
    assert validate_corpus(dev_split) == []


def test_kappa_fixed_values():
    assert cohen_kappa(["A", "B", "A"], ["A", "B", "A"]) == 1.0
    assert cohen_kappa(["A", "A", "B", "B"], ["A", "B", "A", "B"]) == 0.0
    assert cohen_kappa(["A", "B"], ["B", "A"]) == -1.0


def test_kappa_errors():
    with pytest.raises(NeoGateError, match="differ in length: 1 vs 2"):
        cohen_kappa(["A"], ["A", "B"])
    with pytest.raises(NeoGateError, match="label lists are empty"):
        cohen_kappa([], [])
    # p_e = 1 only happens for identical constant lists, whose kappa is 1.0
    assert cohen_kappa(["A", "A"], ["A", "A"]) == 1.0


labels = st.lists(st.sampled_from(["A", "B", "C"]), min_size=1, max_size=30)


@given(labels)
def test_kappa_self_agreement(xs):
    assert cohen_kappa(xs, xs) == 1.0


@given(st.tuples(labels, labels).filter(lambda ab: len(ab[0]) == len(ab[1])))
def test_kappa_symmetry(ab):
    a, b = ab
    assert cohen_kappa(a, b) == cohen_kappa(b, a)


@given(st.text(max_size=300))
def test_parser_never_crashes_unexpectedly(text):
    from neogate import load_builtin_tagset

    try:
        parse_corpus(text, load_builtin_tagset())
    except NeoGateError:
        pass


@given(st.text(max_size=200))
def test_annotation_parser_never_crashes_unexpectedly(text):
    from neogate import load_builtin_tagset

    try:
        parse_annotation(text, load_builtin_tagset())
    except NeoGateError:
        pass


def test_aligned_tag_labels(tagset):
    text_a = EXAMPLE_CORPUS_TEXT
    text_b = EXAMPLE_CORPUS_TEXT.replace("<ENDP>; professori", "<ENDS>; professori", 1)
    a = parse_corpus(text_a, tagset)
    b = parse_corpus(text_b.replace("nuov<ENDP> professor", "nuov<ENDS> professor", 1), tagset)
    la, lb = aligned_tag_labels(a, b)
    assert len(la) == len(lb) == 4
    assert la.count("ENDP") == 2 and lb.count("ENDP") == 1
    assert cohen_kappa(la, lb) < 1.0


def test_aligned_tag_labels_skip_entries_missing_from_the_second_pass(tagset):
    row = EXAMPLE_CORPUS_TEXT.splitlines()[1]
    both = parse_corpus(EXAMPLE_CORPUS_TEXT + row.replace("0001", "0002", 1) + "\n", tagset)
    la, lb = aligned_tag_labels(both, both[1:])
    assert la == lb == [t.tag for t in both[1].triplets]
    assert aligned_tag_labels(both, []) == ([], [])
