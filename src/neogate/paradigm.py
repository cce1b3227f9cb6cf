"""Neomorpheme paradigms: tagset definitions, tag-to-form mappings, and
adaptation of tagged references and annotations to a concrete paradigm.

A paradigm (e.g. Asterisk or Schwa) is described by a mapping file that
assigns one replacement string to every placeholder tag, plus the marker
characters that identify neomorphemes in the singular and in the plural.
"""

from __future__ import annotations

import os
import re
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import NeoGateError

if TYPE_CHECKING:
    from .corpus import Entry, Triplet

SINGULAR = "singular"
CONTENT = "content-suffix"

TAG_RE = re.compile(r"<([A-Za-z0-9]+)>")

# Letters that occur in standard Italian orthography, including accented
# vowels and the foreign letters j/k/w/x/y. Marker characters must fall
# outside this set so that neomorpheme forms can never collide with
# gendered Italian words.
ITALIAN_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzàèéìíîòóùú")

BUILTIN_PARADIGMS = ("asterisk", "schwa")


class TagSpec(NamedTuple):
    """One tag of the tagset: its name, grammatical class, number, and kind."""

    name: str
    category: str
    number: str
    kind: str


class TagsetDefinition:
    """The full set of placeholder tags a corpus may use; immutable, and
    equal to another with the same tags."""

    __slots__ = ("tags", "_by_name")

    def __init__(self, tags: tuple[TagSpec, ...]) -> None:
        by_name = {t.name: t for t in tags}
        if len(by_name) != len(tags):
            raise ValueError("duplicate tag names in tagset")
        for tag in tags:
            if tag.kind == CONTENT and tag.name not in ("ENDS", "ENDP"):
                raise ValueError(f"unexpected content-suffix tag {tag.name!r}")
        object.__setattr__(self, "tags", tags)
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not TagsetDefinition:
            return NotImplemented
        return self.tags == other.tags

    def __hash__(self) -> int:
        return hash(self.tags)

    def __repr__(self) -> str:
        return f"TagsetDefinition(tags={self.tags!r})"

    def __reduce__(self):  # for pickle and copy, which would set the slots
        return TagsetDefinition, (self.tags,)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> TagSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise NeoGateError(f"tag <{name}> is not in the tagset") from None


class TagsetMapping(NamedTuple):
    """A paradigm: one replacement string per tag plus the marker characters."""

    paradigm_name: str
    replacements: dict[str, str]
    marker_singular: str
    marker_plural: str

    @property
    def markers(self) -> frozenset[str]:
        return frozenset((self.marker_singular, self.marker_plural))

    def replacement(self, tag_name: str) -> str:
        try:
            return self.replacements[tag_name]
        except KeyError:
            raise NeoGateError(
                f"tag <{tag_name}> has no replacement in paradigm "
                f"{self.paradigm_name!r}"
            ) from None


def _read_data(name: str) -> str:
    """The text of a bundled data file, read from beside this module."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return fh.read()


def load_builtin_tagset() -> TagsetDefinition:
    """Load the bundled tagset definition (29 tags)."""
    tags = []
    for line in _read_data("tagset.tsv").splitlines()[1:]:
        if not line.strip():
            continue
        name, category, number, kind = line.split("\t")
        tags.append(TagSpec(name, category, number, kind))
    return TagsetDefinition(tuple(tags))


def parse_mapping(text: str, tagset: TagsetDefinition) -> TagsetMapping:
    """Parse and validate a paradigm mapping file.

    The file format is line oriented: ``!name``, ``!marker-singular`` and
    ``!marker-plural`` directives, ``TAG<TAB>REPLACEMENT`` data lines, and
    ``#`` comments.
    """
    name = ""
    marker_s = ""
    marker_p = ""
    replacements: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            directive, _, value = line.partition(" ")
            value = value.strip()
            if directive == "!name":
                name = value
            elif directive == "!marker-singular":
                marker_s = value
            elif directive == "!marker-plural":
                marker_p = value
            else:
                raise NeoGateError(f"line {line_no}: unknown directive {directive!r}")
            continue
        tag_name, sep, replacement = line.partition("\t")
        if not sep or not replacement:
            raise NeoGateError(f"line {line_no}: expected TAG<TAB>REPLACEMENT")
        if tag_name not in tagset:
            raise NeoGateError(f"line {line_no}: tag <{tag_name}> is not in the tagset")
        if any(ch.isspace() for ch in replacement):
            # multi-word forms would break token-level matching downstream
            raise NeoGateError(
                f"line {line_no}: replacement {replacement!r} must be a single token"
            )
        replacements[tag_name] = replacement

    for marker, label in ((marker_s, "singular"), (marker_p, "plural")):
        if len(marker) != 1:
            raise NeoGateError(f"marker-{label} must be exactly one character")
        if marker.lower() in ITALIAN_LETTERS:
            raise NeoGateError(f"marker {marker!r} is an Italian-alphabet letter")

    missing = [t.name for t in tagset.tags if t.name not in replacements]
    if missing:
        raise NeoGateError(f"mapping lacks replacements for: {', '.join(missing)}")
    for tag in tagset.tags:
        marker = marker_s if tag.number == SINGULAR else marker_p
        if marker not in replacements[tag.name]:
            raise NeoGateError(
                f"replacement {replacements[tag.name]!r} for <{tag.name}> lacks "
                f"the {tag.number} marker {marker!r}"
            )
    return TagsetMapping(name or "unnamed", replacements, marker_s, marker_p)


def load_builtin_mapping(name: str, tagset: TagsetDefinition) -> TagsetMapping:
    """Load one of the bundled paradigm mappings by name ('asterisk', 'schwa')."""
    if name not in BUILTIN_PARADIGMS:
        raise NeoGateError(
            f"unknown built-in paradigm {name!r}; available: "
            + ", ".join(BUILTIN_PARADIGMS)
        )
    return parse_mapping(_read_data(f"{name}.map"), tagset)


def replace_tags(text: str, mapping: TagsetMapping) -> str:
    """Replace every placeholder tag in ``text`` with its mapped form."""

    def sub(match: re.Match[str]) -> str:
        return mapping.replacement(match.group(1))

    return TAG_RE.sub(sub, text)


def adapt_reference(ref_tagged: str, mapping: TagsetMapping) -> str:
    """Realize a tagged reference in a concrete paradigm.

    Content-suffix replacements concatenate to the preceding stem because
    the tag is already glued to it in the tagged reference. When the
    reference opened with a tag the replaced sentence would start
    lowercase, so its first alphabetic character is uppercased (markers
    are never uppercased).
    """
    adapted = replace_tags(ref_tagged, mapping)
    if TAG_RE.match(ref_tagged):
        markers = mapping.markers
        for i, ch in enumerate(adapted):
            if ch in markers:
                break
            if ch.isalpha():
                if ch.islower():
                    adapted = adapted[:i] + ch.upper() + adapted[i + 1:]
                break
    return adapted


def adapt_corpus(corpus: Sequence[Entry], mapping: TagsetMapping) -> list[Entry]:
    """Adapt every entry of a parsed corpus to ``mapping``: a copy with its
    triplets realized and ``ref_adapted`` set. Each distinct triplet is
    realized once per call, so equal triplets of different entries share
    one adapted ``Triplet``."""
    realized: dict[Triplet, Triplet] = {}
    adapted = []
    for entry in corpus:
        try:
            ref_adapted = adapt_reference(entry.ref_tagged, mapping)
            triplets = []
            for t in entry.triplets:
                a = realized.get(t)
                if a is None:
                    a = realized[t] = t._replace(tagged_form=replace_tags(t.tagged_form, mapping))
                triplets.append(a)
        except NeoGateError as exc:
            raise NeoGateError(f"entry {entry.entry_id}: {exc}") from exc
        # one tuple build: ``_replace`` costs a dict and a map per entry
        adapted.append(entry._make((*entry[:5], tuple(triplets), ref_adapted)))
    return adapted
