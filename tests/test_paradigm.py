"""Tagset mappings and adaptation of references and annotations."""

from __future__ import annotations

import copy
import pickle
from pathlib import Path

import pytest

import neogate.paradigm
import neogate.promptkit
from neogate import adapt_corpus, adapt_reference, parse_corpus, parse_mapping
from neogate.corpus import Entry, serialize_annotation
from neogate.errors import NeoGateError
from neogate.paradigm import CONTENT, TAG_RE, TagsetDefinition, TagSpec

from .conftest import EXAMPLE_CORPUS_TEXT, EXAMPLE_REF_TAGGED, realized

ADAPTED_REF_ASTERISK = (
    "L* direttor* del dipartimento ha detto che potrebbero assumere nuov* professor*"
)
ADAPTED_REF_SCHWA = (
    "Lə direttorə del dipartimento ha detto che potrebbero assumere nuovɜ professorɜ"
)
ADAPTED_ANN_ASTERISK = (
    "il la l*; direttore direttrice direttor*; nuovi nuove nuov*; "
    "professori professoresse professor*;"
)
ADAPTED_ANN_SCHWA = (
    "il la lə; direttore direttrice direttorə; nuovi nuove nuovɜ; "
    "professori professoresse professorɜ;"
)


def test_builtin_tagset_shape(tagset):
    assert len(tagset.tags) == 29
    content = [t.name for t in tagset.tags if t.kind == CONTENT]
    assert content == ["ENDS", "ENDP"]
    assert tagset["IART"].number == "singular"
    assert tagset["PARTP"].number == "plural"
    numbers = {t.number for t in tagset.tags}
    assert numbers == {"singular", "plural"}


def test_tagset_definition_checks_its_tags_and_is_immutable(tagset):
    ends = TagSpec("ENDS", "suffix", "singular", CONTENT)
    with pytest.raises(ValueError, match="duplicate tag names"):
        TagsetDefinition((ends, ends))
    with pytest.raises(ValueError, match="unexpected content-suffix tag 'ENDX'"):
        TagsetDefinition((ends, ends._replace(name="ENDX")))
    with pytest.raises(AttributeError):
        tagset.tags = ()
    assert TagsetDefinition(tagset.tags) == tagset
    assert tagset != tagset.tags and tagset.__eq__(tagset.tags) is NotImplemented
    assert hash(TagsetDefinition(tagset.tags)) == hash(tagset)
    assert repr(TagsetDefinition((ends,))) == f"TagsetDefinition(tags=({ends!r},))"
    assert pickle.loads(pickle.dumps(tagset)) == copy.copy(tagset) == tagset


def test_builtin_mappings(asterisk, schwa):
    assert asterisk.paradigm_name == "asterisk"
    assert (asterisk.marker_singular, asterisk.marker_plural) == ("*", "*")
    assert asterisk.replacement("ENDS") == "*"
    assert asterisk.replacement("DARTS") == "l*"
    assert asterisk.replacement("PREPdiS") == "dell*"
    assert schwa.paradigm_name == "schwa"
    assert (schwa.marker_singular, schwa.marker_plural) == ("ə", "ɜ")
    assert schwa.replacement("ENDS") == "ə"
    assert schwa.replacement("ENDP") == "ɜ"
    assert schwa.replacement("DARTP") == "lɜ"


def test_bundled_data_is_declared_package_data():
    # the data files are opened beside the module, so one that no glob
    # names is missing only from an installed copy
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["neogate"]
    package = Path(neogate.paradigm.__file__).parent
    bundled = {p for p in (package / "data").rglob("*") if p.is_file()}
    declared = {p for pattern in globs for p in package.glob(pattern)}
    assert bundled and bundled <= declared, sorted(map(str, bundled - declared))


def _mapping_text(drop: str = "", patch: dict | None = None) -> str:
    from neogate import load_builtin_tagset

    rows = []
    for tag in load_builtin_tagset().tags:
        if tag.name == drop:
            continue
        rows.append(f"{tag.name}\t{(patch or {}).get(tag.name, 'x*')}")
    head = "!name custom\n!marker-singular *\n!marker-plural *\n"
    return head + "\n".join(rows) + "\n"


def test_parse_mapping_missing_tag(tagset):
    with pytest.raises(NeoGateError, match="mapping lacks replacements for: PRONDOBJP"):
        parse_mapping(_mapping_text(drop="PRONDOBJP"), tagset)


def test_parse_mapping_missing_marker(tagset):
    with pytest.raises(NeoGateError, match="'xx' for <ENDS> lacks the singular marker"):
        parse_mapping(_mapping_text(patch={"ENDS": "xx"}), tagset)


def test_parse_mapping_illegal_marker(tagset):
    text = _mapping_text().replace("!marker-singular *", "!marker-singular a")
    text = text.replace("!marker-plural *", "!marker-plural a")
    text = text.replace("x*", "xa")
    with pytest.raises(NeoGateError, match="marker 'a' is an Italian-alphabet letter"):
        parse_mapping(text, tagset)


@pytest.mark.parametrize(
    "edit, message",
    [
        (("!name custom", "!nome custom"), "line 1: unknown directive '!nome'"),
        (("DARTS\t", "DARTS "), r"line \d+: expected TAG<TAB>REPLACEMENT"),
        (("!marker-plural *", "!marker-plural **"), "marker-plural must be exactly one character"),
    ],
)
def test_parse_mapping_rejects_malformed_lines(edit, message, tagset):
    with pytest.raises(NeoGateError, match=message):
        parse_mapping(_mapping_text().replace(*edit), tagset)


def test_parse_mapping_unknown_tag(tagset):
    with pytest.raises(NeoGateError, match=r"line \d+: tag <BOGUS> is not in the tagset"):
        parse_mapping(_mapping_text() + "BOGUS\tb*\n", tagset)


def test_parse_mapping_rejects_multiword_replacement(tagset):
    with pytest.raises(NeoGateError, match="single token"):
        parse_mapping(_mapping_text(patch={"DARTS": "l* extra"}), tagset)


def test_adapt_reference_goldens(asterisk, schwa):
    assert adapt_reference(EXAMPLE_REF_TAGGED, asterisk) == ADAPTED_REF_ASTERISK
    assert adapt_reference(EXAMPLE_REF_TAGGED, schwa) == ADAPTED_REF_SCHWA


def test_adapt_reference_identity_without_tags(asterisk):
    text = "Nessun segnaposto in questa frase."
    assert adapt_reference(text, asterisk) == text


def test_adapt_reference_unknown_tag(asterisk):
    with pytest.raises(NeoGateError, match="tag <WHAT> has no replacement in paradigm 'asterisk'"):
        adapt_reference("<WHAT> parola", asterisk)


def test_capitalization_only_when_tag_initial(asterisk):
    # tag-initial: first alphabetic character is uppercased
    assert adapt_reference("<DARTS> maestr<ENDS>", asterisk) == "L* maestr*"
    # not tag-initial: untouched even if lowercase
    assert adapt_reference("il maestr<ENDS>", asterisk) == "il maestr*"


def test_capitalization_never_touches_markers(tagset):
    # a paradigm whose article replacement starts with the marker itself
    patch = {t.name: "¤x" for t in tagset.tags}
    text = (
        "!name weird\n!marker-singular ¤\n!marker-plural ¤\n"
        + "\n".join(f"{t.name}\t¤x" for t in tagset.tags)
    )
    mapping = parse_mapping(text, tagset)
    assert adapt_reference("<DARTS> maestr<ENDS>", mapping) == "¤x maestr¤x"


def test_adapt_corpus_goldens(tagset, asterisk, schwa, example_corpus):
    (adapted_a,) = adapt_corpus(example_corpus, asterisk)
    assert adapted_a.ref_adapted == ADAPTED_REF_ASTERISK
    assert serialize_annotation(adapted_a.triplets) == ADAPTED_ANN_ASTERISK
    (adapted_s,) = adapt_corpus(example_corpus, schwa)
    assert adapted_s.ref_adapted == ADAPTED_REF_SCHWA
    assert serialize_annotation(adapted_s.triplets) == ADAPTED_ANN_SCHWA


def test_adapt_corpus_returns_each_entry_realized(test_split, schwa):
    corpus = test_split[:100]
    for entry, adapted in zip(corpus, adapt_corpus(corpus, schwa), strict=True):
        assert type(adapted) is Entry
        assert entry.ref_adapted == ""
        assert adapted == entry._replace(
            triplets=realized(entry.triplets, schwa),
            ref_adapted=adapt_reference(entry.ref_tagged, schwa),
        )


def test_entry_is_the_one_entry_type():
    assert not {"AdaptedEntry", "Exemplar"} & set(neogate.__all__)
    assert not hasattr(neogate.paradigm, "AdaptedEntry")
    assert not hasattr(neogate.promptkit, "Exemplar")


def test_adapt_corpus_empty(asterisk):
    assert adapt_corpus([], asterisk) == []


def test_adaptation_is_total(test_split, asterisk, schwa):
    for mapping in (asterisk, schwa):
        for adapted in adapt_corpus(test_split[:100], mapping):
            assert not TAG_RE.search(adapted.ref_adapted)
            for t in adapted.triplets:
                assert not TAG_RE.search(t.tagged_form)


def test_number_marker_fidelity(test_split, schwa):
    for adapted in adapt_corpus(test_split[:100], schwa):
        for t in adapted.triplets:
            marker = "ə" if t.number == "singular" else "ɜ"
            assert marker in t.tagged_form


def test_neo_form_never_equals_gendered_forms(test_split, asterisk, schwa):
    for mapping in (asterisk, schwa):
        for adapted in adapt_corpus(test_split[:200], mapping):
            for t in adapted.triplets:
                assert t.tagged_form != t.masc_form
                assert t.tagged_form != t.fem_form


def test_marker_bijection_of_adapted_corpora(tagset, asterisk, example_corpus):
    # same mapping with '*' renamed to '@' everywhere: adapted corpora are
    # equal under the character bijection
    text = (
        "!name at\n!marker-singular @\n!marker-plural @\n"
        + "\n".join(
            f"{t.name}\t{asterisk.replacement(t.name).replace('*', '@')}"
            for t in tagset.tags
        )
    )
    at_mapping = parse_mapping(text, tagset)
    (adapted_star,) = adapt_corpus(example_corpus, asterisk)
    (adapted_at,) = adapt_corpus(example_corpus, at_mapping)
    assert adapted_star.ref_adapted.replace("*", "@") == adapted_at.ref_adapted
    for a, b in zip(adapted_star.triplets, adapted_at.triplets):
        assert a.tagged_form.replace("*", "@") == b.tagged_form


def test_adapted_anchors_survive(tagset, asterisk):
    text = EXAMPLE_CORPUS_TEXT.replace("il la <DARTS>;", "il la <DARTS> dirett=1;")
    (entry,) = parse_corpus(text, tagset)
    adapted = adapt_corpus([entry], asterisk)[0].triplets
    assert adapted[0].anchor is not None
    assert serialize_annotation(adapted).startswith("il la l* dirett=1;")
