"""Prompt construction, exemplar ranking, and translation extraction."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from neogate import (
    Entry,
    build_prompt,
    extract_translation,
    parse_corpus,
    rank_exemplar_candidates,
)
from neogate.errors import NeoGateError
from neogate.promptkit import (
    PromptFormat,
    PromptSpec,
    SpecMismatch,
    instruction_sentence,
    render_prompt_dump,
)
from neogate.paradigm import TAG_RE

from .conftest import HEADER_LINE

INSTRUCTION_ASTERISK = (
    "Translate the following English sentence into Italian using the neomorpheme "
    "'*'. To do so, the neomorpheme '*' should be used as a substitute for "
    "masculine and feminine morphemes in words that refer to human beings."
)

FLOWERS = Entry(
    entry_id="0001",
    source="I never buy flowers for my friends.",
    ref_masc="Non compro mai fiori per i miei amici.",
    ref_fem="Non compro mai fiori per le mie amiche.",
    ref_tagged="",
    triplets=(),
    ref_adapted="Non compro mai fiori per l* mi* amic*.",
)

TEST_SOURCE = "The student was worried about going off topic."


@pytest.fixture
def zero_spec(asterisk):
    return PromptSpec(PromptFormat.ZERO_SHOT, 0, asterisk)


def spec_for(fmt, asterisk, shots=1):
    return PromptSpec(fmt, shots, asterisk, ("0001",) * shots)


def test_zero_shot_golden(zero_spec):
    messages = build_prompt(TEST_SOURCE, zero_spec)
    assert len(messages) == 1
    assert messages[0].role == "user"
    assert messages[0].content == (
        INSTRUCTION_ASTERISK + "\n[English] <" + TEST_SOURCE + ">\n[Italian]"
    )


def test_direct_one_shot_golden(asterisk):
    messages = build_prompt(TEST_SOURCE, spec_for(PromptFormat.DIRECT, asterisk), [FLOWERS])
    assert [m.role for m in messages] == ["user", "assistant", "user"]
    assert messages[0].content == (
        INSTRUCTION_ASTERISK
        + "\n[English] <I never buy flowers for my friends.>\n[Italian]"
    )
    assert messages[1].content == "<Non compro mai fiori per l* mi* amic*.>"
    assert messages[2].content == f"[English] <{TEST_SOURCE}>\n[Italian]"


def test_binary_one_shot_golden(asterisk):
    messages = build_prompt(TEST_SOURCE, spec_for(PromptFormat.BINARY, asterisk), [FLOWERS])
    assert messages[0].content.endswith(
        "[English] <I never buy flowers for my friends.>\n[Italian, gendered]"
    )
    assert messages[1].content == (
        "<Non compro mai fiori per i miei amici.>\n"
        "[Italian, neomorpheme] <Non compro mai fiori per l* mi* amic*.>"
    )
    assert messages[2].content.endswith("[Italian, gendered]")


def test_ternary_one_shot_golden(asterisk):
    messages = build_prompt(TEST_SOURCE, spec_for(PromptFormat.TERNARY, asterisk), [FLOWERS])
    assert messages[1].content == (
        "<Non compro mai fiori per i miei amici.>\n"
        "[Italian, feminine] <Non compro mai fiori per le mie amiche.>\n"
        "[Italian, neomorpheme] <Non compro mai fiori per l* mi* amic*.>"
    )
    fem_at = messages[1].content.index("[Italian, feminine]")
    neo_at = messages[1].content.index("[Italian, neomorpheme]")
    assert fem_at < neo_at
    assert messages[2].content.endswith("[Italian, masculine]")


def test_messages_alternate_and_end_with_user(asterisk):
    spec = PromptSpec(PromptFormat.DIRECT, 4, asterisk, ("a", "b", "c", "d"))
    exemplars = [
        Entry(i, f"src {i}", f"masc {i}", f"fem {i}", "", (), f"neo* {i}")
        for i in ("a", "b", "c", "d")
    ]
    messages = build_prompt("final source", spec, exemplars)
    roles = [m.role for m in messages]
    assert roles == ["user", "assistant"] * 4 + ["user"]
    assert messages[-1].content.endswith("[Italian]")
    # the instruction appears once, in the opening message
    assert messages[0].content.startswith("Translate the following")
    assert all(not m.content.startswith("Translate") for m in messages[1:])


def test_bracket_span_counts(asterisk):
    binary = build_prompt(TEST_SOURCE, spec_for(PromptFormat.BINARY, asterisk), [FLOWERS])
    ternary = build_prompt(TEST_SOURCE, spec_for(PromptFormat.TERNARY, asterisk), [FLOWERS])
    count = lambda text: text.count("<")
    assert count(binary[1].content) == 2
    assert count(ternary[1].content) == 3


def test_prompts_contain_no_placeholder_tags(asterisk):
    for fmt in (PromptFormat.DIRECT, PromptFormat.BINARY, PromptFormat.TERNARY):
        for message in build_prompt(TEST_SOURCE, spec_for(fmt, asterisk), [FLOWERS]):
            assert not TAG_RE.search(message.content)


def test_build_prompt_deterministic(asterisk):
    spec = spec_for(PromptFormat.BINARY, asterisk)
    first = build_prompt(TEST_SOURCE, spec, [FLOWERS])
    second = build_prompt(TEST_SOURCE, spec, [FLOWERS])
    assert first == second


def test_schwa_instruction_names_both_markers(schwa):
    text = instruction_sentence(schwa)
    assert "'ə'" in text and "'ɜ'" in text
    assert "singular" in text and "plural" in text


def test_spec_mismatch_errors(asterisk):
    with pytest.raises(SpecMismatch):
        PromptSpec(PromptFormat.DIRECT, 0, asterisk)
    with pytest.raises(SpecMismatch):
        PromptSpec(PromptFormat.ZERO_SHOT, 1, asterisk, ("x",))
    with pytest.raises(SpecMismatch):
        PromptSpec(PromptFormat.DIRECT, 2, asterisk, ("x", "y"))
    with pytest.raises(SpecMismatch):
        PromptSpec(PromptFormat.DIRECT, 4, asterisk, ("x",))
    with pytest.raises(SpecMismatch):
        PromptSpec(format=PromptFormat.BINARY, n_shots=3, paradigm=asterisk)
    spec = spec_for(PromptFormat.DIRECT, asterisk)
    with pytest.raises(SpecMismatch):
        spec._replace(exemplar_ids=())
    assert spec._replace(format=PromptFormat.TERNARY).format is PromptFormat.TERNARY
    with pytest.raises(SpecMismatch):
        build_prompt(TEST_SOURCE, spec, [])


def _mini_dev(tagset):
    def row(i, ann):
        tagged = " ".join("x<ENDS>" for _ in ann.split(";") if _.strip())
        return "\t".join((i, "s", "m", "f", tagged, ann))

    # densities: aa/cc/ee = 3, bb = 6, dd = 2 -> mean 3.4
    anns = {
        "aa": "a a x<ENDS>; b b x<ENDS>; c c x<ENDP>;",
        "bb": "a a x<ENDS>; b b x<ENDS>; c c x<ENDS>; d d x<ENDP>; e e x<ENDP>; f f x<ENDP>;",
        "cc": "a a x<ENDS>; b b x<ENDS>; c c x<ENDS>;",
        "dd": "a a x<ENDS>; b b x<ENDP>;",
        "ee": "a a x<ENDP>; b b x<ENDP>; c c x<ENDS>;",
    }
    text = HEADER_LINE + "\n" + "\n".join(row(k, v) for k, v in anns.items()) + "\n"
    return parse_corpus(text, tagset)


def test_rank_exemplar_candidates_ordering(tagset):
    ranked = rank_exemplar_candidates(_mini_dev(tagset))
    # mean density 3.4: the 3-tag entries come first (a 3-tag entry ranks
    # above the 6-tag one), balanced singular/plural mixes beat skewed
    # ones, and equal keys fall back to the id
    assert ranked == ["aa", "ee", "cc", "dd", "bb"]
    assert ranked.index("aa") < ranked.index("bb")


def test_rank_exemplar_candidates_empty(tagset):
    with pytest.raises(NeoGateError, match="cannot rank exemplars over an empty corpus"):
        rank_exemplar_candidates([])


def test_exemplars_from_corpus(tagset):
    from neogate.promptkit import exemplars_from_corpus

    corpus = _mini_dev(tagset)
    adapted = {e.entry_id: f"adapted {e.entry_id}" for e in corpus}
    (one,) = exemplars_from_corpus(corpus, adapted, ("bb",))
    assert one.entry_id == "bb"
    assert one.ref_adapted == "adapted bb"
    with pytest.raises(SpecMismatch, match="zz"):
        exemplars_from_corpus(corpus, adapted, ("zz",))


def test_exemplars_are_dev_entries_with_their_adapted_reference(tagset):
    from neogate.promptkit import exemplars_from_corpus

    corpus = _mini_dev(tagset)
    adapted = {e.entry_id: f"adapted {e.entry_id}" for e in corpus}
    exemplars = exemplars_from_corpus(corpus, adapted, ("ee", "aa"))
    # the triplets stay tagged: prompts read only the source and references
    assert exemplars == (
        corpus[4]._replace(ref_adapted="adapted ee"),
        corpus[0]._replace(ref_adapted="adapted aa"),
    )


def test_extract_single_span(asterisk):
    spec = spec_for(PromptFormat.DIRECT, asterisk)
    result = extract_translation("<Non compro mai fiori per l* mi* amic*.>", spec)
    assert result == "Non compro mai fiori per l* mi* amic*."


def test_extract_no_brackets_unparseable(zero_spec):
    result = extract_translation("Sure! Here it is: translation without brackets", zero_spec)
    assert result is None


def test_extract_binary_label_scoped(asterisk):
    raw = "<I maschile.>\n[Italian, neomorpheme] <L* version*.>"
    result = extract_translation(raw, spec_for(PromptFormat.BINARY, asterisk))
    assert result == "L* version*."


def test_extract_label_case_insensitive(asterisk):
    raw = "<masc>\n[italian, NEOMORPHEME] <giusto*>"
    result = extract_translation(raw, spec_for(PromptFormat.BINARY, asterisk))
    assert result == "giusto*"


@given(st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=40))
@example("ßßßß")  # casefolding lengthens the text before the label
def test_extract_label_after_any_prefix(prefix):
    raw = f"{prefix} [Italian, neomorpheme] <a> <b>"
    assert extract_translation(raw, PromptFormat.BINARY) == "a"


def test_extract_falls_back_to_last_span(asterisk):
    raw = "<primo.> poi <secondo.> niente etichetta"
    result = extract_translation(raw, spec_for(PromptFormat.TERNARY, asterisk))
    assert result == "secondo."
    # label present but no span after it: also last span
    raw2 = "<primo.> [Italian, neomorpheme] senza parentesi"
    result2 = extract_translation(raw2, spec_for(PromptFormat.TERNARY, asterisk))
    assert result2 == "primo."


def test_extract_multiline_span(zero_spec):
    raw = "ecco:\n<L* maestr*\ncontinua.>"
    result = extract_translation(raw, zero_spec)
    assert result == "L* maestr*\ncontinua."


def test_extract_accepts_bare_format():
    result = extract_translation("<ciao>", PromptFormat.DIRECT)
    assert result == "ciao"


@given(st.text(alphabet=st.characters(blacklist_characters="<>"), max_size=80))
def test_wrap_then_extract_round_trip(text):
    stripped = text.strip()
    assert extract_translation(f"<{stripped}>", PromptFormat.DIRECT) == stripped


@given(st.text(max_size=200), st.sampled_from(list(PromptFormat)))
def test_extract_total_on_arbitrary_output(raw, fmt):
    result = extract_translation(raw, fmt)
    assert result is None or isinstance(result, str)


def test_render_prompt_dump(zero_spec):
    messages = build_prompt("Hi.", zero_spec)
    dump = render_prompt_dump("0042", messages)
    assert dump.startswith("=== entry 0042 ===\n[user]\n")
    assert dump.endswith("[Italian]\n")
