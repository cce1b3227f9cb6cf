"""Chat-prompt construction for the four experiment formats, exemplar
ranking, and extraction of the final translation from raw model output.

All formats wrap sentences in angle brackets so the translation can be
recovered from the completion text; few-shot formats alternate user and
assistant messages, one demonstration per exchange.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Sequence

from .corpus import Entry
from .errors import NeoGateError
from .paradigm import SINGULAR, TagsetMapping


class PromptFormat(str, Enum):
    ZERO_SHOT = "zero_shot"
    DIRECT = "direct"
    BINARY = "binary"
    TERNARY = "ternary"


ALLOWED_SHOTS = (0, 1, 4, 8)

LABEL_ENGLISH = "[English]"
LABEL_ITALIAN = "[Italian]"
LABEL_GENDERED = "[Italian, gendered]"
LABEL_MASCULINE = "[Italian, masculine]"
LABEL_FEMININE = "[Italian, feminine]"
LABEL_NEOMORPHEME = "[Italian, neomorpheme]"

_STAGE_LABELS = {
    PromptFormat.ZERO_SHOT: (LABEL_ITALIAN,),
    PromptFormat.DIRECT: (LABEL_ITALIAN,),
    PromptFormat.BINARY: (LABEL_GENDERED, LABEL_NEOMORPHEME),
    PromptFormat.TERNARY: (LABEL_MASCULINE, LABEL_FEMININE, LABEL_NEOMORPHEME),
}

_SPAN_RE = re.compile(r"<([^<>]*)>", re.DOTALL)
_NEO_LABEL_RE = re.compile(re.escape(LABEL_NEOMORPHEME), re.IGNORECASE)


class SpecMismatch(NeoGateError):
    """The supplied exemplars do not agree with the prompt spec."""


class ChatMessage(NamedTuple):
    role: str  # "user" | "assistant"
    content: str


class _PromptSpecFields(NamedTuple):
    format: PromptFormat
    n_shots: int
    paradigm: TagsetMapping
    exemplar_ids: tuple[str, ...] = ()


class PromptSpec(_PromptSpecFields):
    """A prompt format, its demonstration count and paradigm, and the dev
    entry ids of its demonstrations; checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PromptSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.n_shots not in ALLOWED_SHOTS:
            raise SpecMismatch(f"n_shots must be one of {ALLOWED_SHOTS}")
        if (self.n_shots == 0) != (self.format is PromptFormat.ZERO_SHOT):
            raise SpecMismatch("n_shots is 0 exactly for the zero-shot format")
        if len(self.exemplar_ids) != self.n_shots:
            raise SpecMismatch(
                f"{len(self.exemplar_ids)} exemplar ids for {self.n_shots} shots"
            )
        return self

    @classmethod
    def _make(cls, iterable) -> PromptSpec:  # ``_replace`` checks too
        return cls(*iterable)


def instruction_sentence(mapping: TagsetMapping) -> str:
    """The task instruction, naming the paradigm's marker character(s)."""
    if mapping.marker_singular == mapping.marker_plural:
        m = mapping.marker_singular
        return (
            f"Translate the following English sentence into Italian using the "
            f"neomorpheme '{m}'. To do so, the neomorpheme '{m}' should be used "
            f"as a substitute for masculine and feminine morphemes in words "
            f"that refer to human beings."
        )
    s, p = mapping.marker_singular, mapping.marker_plural
    return (
        f"Translate the following English sentence into Italian using the "
        f"neomorphemes '{s}' and '{p}'. To do so, the neomorphemes '{s}' and "
        f"'{p}' should be used as substitutes for masculine and feminine "
        f"morphemes in words that refer to human beings: '{s}' in the "
        f"singular and '{p}' in the plural."
    )


def _exemplar_assistant(fmt: PromptFormat, ex: Entry) -> str:
    if fmt is PromptFormat.DIRECT:
        return f"<{ex.ref_adapted}>"
    if fmt is PromptFormat.BINARY:
        return f"<{ex.ref_masc}>\n{LABEL_NEOMORPHEME} <{ex.ref_adapted}>"
    return (
        f"<{ex.ref_masc}>\n{LABEL_FEMININE} <{ex.ref_fem}>\n"
        f"{LABEL_NEOMORPHEME} <{ex.ref_adapted}>"
    )


def prompt_head(spec: PromptSpec, exemplars: Sequence[Entry] = ()) -> list[ChatMessage]:
    """The demonstrations every prompt of ``spec`` opens with.

    The instruction opens the first user message. Each demonstration is a
    user message carrying the bracketed English source and the first stage
    label, answered by an assistant message with the bracketed
    translation(s). Zero-shot prompts have no head.
    """
    if len(exemplars) != spec.n_shots:
        raise SpecMismatch(
            f"{len(exemplars)} exemplars supplied for {spec.n_shots} shots"
        )
    messages: list[ChatMessage] = []
    for i, ex in enumerate(exemplars):
        messages.append(final_message(ex.source, spec, i == 0))
        messages.append(ChatMessage("assistant", _exemplar_assistant(spec.format, ex)))
    return messages


def final_message(source: str, spec: PromptSpec, opening: bool) -> ChatMessage:
    """The user message that carries ``source`` and ends with the first
    stage label: each demonstration's, and the test source's, which awaits
    completion. An ``opening`` message, one that no demonstration
    precedes, also carries the instruction."""
    body = f"{LABEL_ENGLISH} <{source}>\n{_STAGE_LABELS[spec.format][0]}"
    if opening:
        body = f"{instruction_sentence(spec.paradigm)}\n{body}"
    return ChatMessage("user", body)


def build_prompt(
    source: str, spec: PromptSpec, exemplars: Sequence[Entry] = ()
) -> list[ChatMessage]:
    """The chat-message sequence for one source sentence: the head of
    ``spec`` and ``exemplars``, then the final message."""
    head = prompt_head(spec, exemplars)
    return head + [final_message(source, spec, not head)]


def exemplars_from_corpus(
    dev_corpus: list[Entry], adapted_refs: dict[str, str], ids: tuple[str, ...]
) -> tuple[Entry, ...]:
    """The dev entry of each of ``ids`` with ``ref_adapted`` set from
    ``adapted_refs``; prompts read no triplet, so they stay tagged."""
    by_id = {e.entry_id: e for e in dev_corpus}
    out = []
    for entry_id in ids:
        if entry_id not in by_id or entry_id not in adapted_refs:
            raise SpecMismatch(f"exemplar id {entry_id!r} not found in dev corpus")
        out.append(by_id[entry_id]._replace(ref_adapted=adapted_refs[entry_id]))
    return tuple(out)


def rank_exemplar_candidates(dev_corpus: list[Entry]) -> list[str]:
    """Order dev entries by suitability as demonstrations.

    Entries closest to the corpus mean tag density come first, with the
    most balanced singular/plural mix as tie-break, then the entry id.
    """
    if not dev_corpus:
        raise NeoGateError("cannot rank exemplars over an empty corpus")
    mean_density = sum(len(e.triplets) for e in dev_corpus) / len(dev_corpus)

    def key(entry: Entry) -> tuple[float, int, str]:
        singular = sum(t.number == SINGULAR for t in entry.triplets)
        plural = len(entry.triplets) - singular
        return (
            abs(len(entry.triplets) - mean_density),
            abs(singular - plural),
            entry.entry_id,
        )

    return [e.entry_id for e in sorted(dev_corpus, key=key)]


def extract_translation(raw: str, spec: PromptSpec | PromptFormat) -> str | None:
    """Recover the translation from a raw completion.

    Binary/ternary completions are searched for the first bracketed span
    after the neomorpheme stage label (matched case-insensitively); other
    formats take the first span. If that fails, the last bracketed span
    anywhere is used; with no span at all the output is unparseable and
    the result is None.
    """
    fmt = spec if isinstance(spec, PromptFormat) else spec.format
    match = None
    if fmt in (PromptFormat.BINARY, PromptFormat.TERNARY):
        label = _NEO_LABEL_RE.search(raw)
        if label is not None:
            match = _SPAN_RE.search(raw, label.end())
    else:
        match = _SPAN_RE.search(raw)
    if match is None:
        spans = _SPAN_RE.findall(raw)
        return spans[-1].strip() if spans else None
    return match.group(1).strip()


def render_prompt_dump(entry_id: str, messages: list[ChatMessage]) -> str:
    """Render one prompt as an auditable role-tagged text block."""
    lines = [f"=== entry {entry_id} ==="]
    for m in messages:
        lines.append(f"[{m.role}]")
        lines.append(m.content)
    return "\n".join(lines) + "\n"
