"""Parsing, validation, and summary statistics for tagged-reference corpora,
plus Cohen's kappa for inter-annotator agreement.

A corpus is a UTF-8 TSV file with header
``ID<TAB>SOURCE<TAB>REF-M<TAB>REF-F<TAB>REF-TAGGED<TAB>ANNOTATION``.
The annotation column holds one triplet per gendered word:
``masc fem tagged[ anchor=distance]`` terminated by ``;``.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .errors import NeoGateError
from .paradigm import CONTENT, SINGULAR, TAG_RE, TagsetDefinition

HEADER = ("ID", "SOURCE", "REF-M", "REF-F", "REF-TAGGED", "ANNOTATION")


class Anchor(NamedTuple):
    """Sub-word shared with the governing content word, and its token offset."""

    text: str
    distance: int


class Triplet(NamedTuple):
    """The masculine, feminine and third form annotated for one word.

    The third form follows its entry's reference: tagged
    (``direttor<ENDS>``) in a parsed corpus, realized (``direttor*``), like
    ``ref_adapted``, in an entry that ``adapt_corpus`` returns.
    """

    masc_form: str
    fem_form: str
    tagged_form: str
    tag: str
    kind: str
    number: str
    anchor: Anchor | None = None


class Entry(NamedTuple):
    """One benchmark item: source, three references, and its triplets."""

    entry_id: str
    source: str
    ref_masc: str
    ref_fem: str
    ref_tagged: str
    triplets: tuple[Triplet, ...]
    ref_adapted: str = ""  # ref_tagged realized in a paradigm; blank until adapted


class CorpusStats(NamedTuple):
    entries: int
    tags: int
    content: int
    function: int
    singular: int
    plural: int


class ValidationIssue(NamedTuple):
    entry_id: str
    severity: str  # "error" | "warning"
    message: str
    location: str

    def render(self) -> str:
        return f"{self.severity}\t{self.entry_id}\t{self.location}\t{self.message}"


def _parse_chunk(chunk: str, tagset: TagsetDefinition) -> Triplet:
    """Parse one stripped, non-empty annotation chunk."""
    parts = chunk.split(" ")
    anchor = None
    if len(parts) == 4:
        anchor_part = parts.pop()
        text, sep, dist = anchor_part.rpartition("=")
        if not sep:
            raise NeoGateError(f"triplet {chunk!r} has 4 forms and no anchor")
        if not text:
            raise NeoGateError(f"empty anchor string in {chunk!r}")
        if not (dist.isascii() and dist.isdigit()) or int(dist) < 1:
            raise NeoGateError(
                f"anchor distance {dist!r} in {chunk!r} is not a positive integer"
            )
        anchor = Anchor(text, int(dist))
    if len(parts) != 3:
        raise NeoGateError(f"triplet {chunk!r} has {len(parts)} forms, expected 3")
    masc, fem, tagged = parts
    # a tag needs a "<"; most gendered forms have none
    if ("<" in masc and TAG_RE.search(masc)) or ("<" in fem and TAG_RE.search(fem)):
        raise NeoGateError(f"gendered forms in {chunk!r} must not contain tags")
    tags_in_form = TAG_RE.findall(tagged)
    if len(tags_in_form) != 1:
        raise NeoGateError(f"tagged form {tagged!r} must contain exactly one tag")
    tag_name = tags_in_form[0]
    spec = tagset[tag_name]  # raises on an unknown tag
    kind = "content" if spec.kind == CONTENT else "function"
    if anchor is not None and kind == "content":
        raise NeoGateError(f"content triplet {chunk!r} carries an anchor")
    return Triplet(masc, fem, tagged, tag_name, kind, spec.number, anchor)


def _parse_chunks(ann: str, tagset: TagsetDefinition, memo: dict[str, Triplet]) -> list[Triplet]:
    """Parse one annotation column, each distinct chunk once per ``memo``:
    a repeat of a chunk gets the same ``Triplet``, and a chunk that failed
    was not kept, so it fails again."""
    triplets = []
    for chunk in ann.split(";"):
        chunk = chunk.strip()
        if chunk:
            triplet = memo.get(chunk)
            if triplet is None:
                triplet = memo[chunk] = _parse_chunk(chunk, tagset)
            triplets.append(triplet)
    return triplets


def parse_annotation(ann: str, tagset: TagsetDefinition) -> list[Triplet]:
    """Parse one annotation column into triplets, in source order."""
    return _parse_chunks(ann, tagset, {})


def serialize_annotation(triplets: tuple[Triplet, ...] | list[Triplet]) -> str:
    parts = []
    for t in triplets:
        fields = [t.masc_form, t.fem_form, t.tagged_form]
        if t.anchor is not None:
            fields.append(f"{t.anchor.text}={t.anchor.distance}")
        parts.append(" ".join(fields))
    return "; ".join(parts) + ";" if parts else ""


def _decode(raw: bytes, name) -> str:
    """The UTF-8 text of an input file's bytes, without a leading BOM; bytes
    that do not decode are a data error that names the file and their
    offset in it (``utf-8-sig`` would count from after the BOM)."""
    try:
        return raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise NeoGateError(f"{name} is not valid UTF-8: {exc}") from exc


def parse_corpus(raw: bytes | str, tagset: TagsetDefinition) -> list[Entry]:
    """Parse a corpus TSV into entries.

    Structural problems (wrong column count, unknown tags, empty
    annotations, bad encoding) raise; semantic invariants are checked
    separately by :func:`validate_corpus`.
    """
    text = _decode(raw, "corpus") if isinstance(raw, bytes) else raw
    lines = text.lstrip("﻿").splitlines()
    if not lines or tuple(lines[0].split("\t")) != HEADER:
        raise NeoGateError(
            "missing or wrong header; expected " + "\\t".join(HEADER)
        )
    chunks: dict[str, Triplet] = {}
    entries = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        columns = line.split("\t")
        if len(columns) != len(HEADER):
            raise NeoGateError(
                f"line {line_no}: expected {len(HEADER)} columns, got {len(columns)}"
            )
        entry_id, source, ref_masc, ref_fem, ref_tagged, annotation = columns
        try:
            triplets = _parse_chunks(annotation, tagset, chunks)
        except NeoGateError as exc:
            raise NeoGateError(f"line {line_no} (entry {entry_id}): {exc}") from exc
        if not triplets:
            raise NeoGateError(f"line {line_no} (entry {entry_id}): empty annotation")
        entries.append(
            Entry(entry_id, source, ref_masc, ref_fem, ref_tagged, tuple(triplets))
        )
    return entries


def serialize_corpus(corpus: list[Entry], header: tuple[str, ...] = HEADER) -> str:
    """Render entries as TSV under ``header``, with LF line endings."""
    lines = ["\t".join(header)]
    for e in corpus:
        lines.append(
            "\t".join(
                (
                    e.entry_id,
                    e.source,
                    e.ref_masc,
                    e.ref_fem,
                    e.ref_tagged,
                    serialize_annotation(e.triplets),
                )
            )
        )
    return "\n".join(lines) + "\n"


def _read_text(path) -> str:
    return _decode(Path(path).read_bytes(), path)


def load_corpus(path, tagset: TagsetDefinition) -> list[Entry]:
    return parse_corpus(_read_text(path), tagset)


def validate_corpus(corpus: list[Entry]) -> list[ValidationIssue]:
    """Check entry invariants and return the found issues.

    Errors: triplet/tag accounting mismatches and gendered forms missing
    from their references. Warnings: function triplets without anchors.
    """
    from .evaluator import tokenizer

    tokenize = tokenizer()  # references are tokenized like hypotheses are
    issues = []
    seen_ids: set[str] = set()
    for entry in corpus:
        if entry.entry_id in seen_ids:
            issues.append(
                ValidationIssue(entry.entry_id, "error", "duplicate entry id", "ID")
            )
        seen_ids.add(entry.entry_id)

        ref_tags = sorted(TAG_RE.findall(entry.ref_tagged))
        triplet_tags = sorted(t.tag for t in entry.triplets)
        if ref_tags != triplet_tags:
            issues.append(
                ValidationIssue(
                    entry.entry_id,
                    "error",
                    f"tags in tagged reference {ref_tags} do not match "
                    f"annotation tags {triplet_tags}",
                    "REF-TAGGED",
                )
            )

        masc_words = {t.casefold() for t in tokenize(entry.ref_masc)}
        fem_words = {t.casefold() for t in tokenize(entry.ref_fem)}
        for i, t in enumerate(entry.triplets):
            where = f"ANNOTATION[{i}]"
            if t.masc_form.casefold() not in masc_words:
                issues.append(
                    ValidationIssue(
                        entry.entry_id,
                        "error",
                        f"masculine form {t.masc_form!r} not found in REF-M",
                        where,
                    )
                )
            if t.fem_form.casefold() not in fem_words:
                issues.append(
                    ValidationIssue(
                        entry.entry_id,
                        "error",
                        f"feminine form {t.fem_form!r} not found in REF-F",
                        where,
                    )
                )
            if t.kind == "function" and t.anchor is None:
                issues.append(
                    ValidationIssue(
                        entry.entry_id,
                        "warning",
                        f"function triplet {t.tagged_form!r} has no anchor",
                        where,
                    )
                )
    return issues


def corpus_stats(corpus: list[Entry]) -> CorpusStats:
    """Tally entries and triplets by kind and number."""
    content = function = singular = plural = 0
    for entry in corpus:
        for t in entry.triplets:
            if t.kind == "content":
                content += 1
            else:
                function += 1
            if t.number == SINGULAR:
                singular += 1
            else:
                plural += 1
    return CorpusStats(
        entries=len(corpus),
        tags=content + function,
        content=content,
        function=function,
        singular=singular,
        plural=plural,
    )


def cohen_kappa(labels_a: list[str], labels_b: list[str]) -> float:
    """Cohen's kappa between two aligned categorical label lists.

    kappa = (p_o - p_e) / (1 - p_e), where p_o is the observed agreement
    and p_e the chance agreement from the marginal label frequencies.
    """
    if len(labels_a) != len(labels_b):
        raise NeoGateError(f"label lists differ in length: {len(labels_a)} vs {len(labels_b)}")
    if not labels_a:
        raise NeoGateError("label lists are empty")
    n = len(labels_a)
    p_o = sum(a == b for a, b in zip(labels_a, labels_b)) / n
    labelset = sorted(set(labels_a) | set(labels_b))
    p_e = sum(
        (labels_a.count(label) / n) * (labels_b.count(label) / n)
        for label in labelset
    )
    if p_e == 1.0:  # both lists hold one and the same label throughout
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def aligned_tag_labels(
    corpus_a: list[Entry], corpus_b: list[Entry]
) -> tuple[list[str], list[str]]:
    """Build aligned per-tag label lists from two annotation passes.

    Alignment is by (entry id, triplet index); triplets without a
    counterpart are skipped.
    """
    by_id_b = {e.entry_id: e for e in corpus_b}
    labels_a: list[str] = []
    labels_b: list[str] = []
    for ea in corpus_a:
        eb = by_id_b.get(ea.entry_id)
        if eb is None:
            continue
        for ta, tb in zip(ea.triplets, eb.triplets):
            labels_a.append(ta.tag)
            labels_b.append(tb.tag)
    return labels_a, labels_b
