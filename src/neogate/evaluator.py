"""Word-level scoring of hypothesis translations against adapted triplets.

The matcher scans a tokenized hypothesis for each annotated triplet's
masculine, feminine, or neomorpheme form, enforcing anchor constraints on
function words, and derives the four corpus metrics:

- coverage  COV = matched / annotations
- accuracy  ACC = correct / matched
- coverage-weighted accuracy  CWA = COV * ACC
- mis-generation  MIS = (found neomorphemes - correct) / annotations
"""

from __future__ import annotations

import re
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import Entry, Triplet
from .errors import NeoGateError


class Outcome(str, Enum):
    UNMATCHED = "unmatched"
    MATCHED_MASC = "matched_masc"
    MATCHED_FEM = "matched_fem"
    MATCHED_NEO = "matched_neo"


class EntryEval(NamedTuple):
    """Raw per-entry tallies plus the outcome of every triplet."""

    entry_id: str
    annotations: int
    matched: int
    correct: int
    found: int
    per_triplet: tuple[Outcome, ...]
    triplets: tuple[Triplet, ...] = ()  # the adapted triplets, in per_triplet's order
    unparseable: bool = False


class Breakdown(NamedTuple):
    annotations: int = 0
    matched: int = 0
    correct: int = 0


class EvalCounts(NamedTuple):
    """Corpus-level sums of the per-entry counters."""

    annotations: int
    matched: int
    correct: int
    found: int
    entries: int = 0
    unparseable_entries: int = 0
    breakdowns: Mapping[tuple[str, str], Breakdown] = MappingProxyType({})


class MetricReport(NamedTuple):
    """The four percentages, rounded half-up to 2 decimals."""

    cov: float
    acc: float
    cwa: float
    mis: float
    unparseable_rate: float = 0.0


_APOSTROPHE_SPLIT = re.compile(r"(?<=')")


def tokenizer(markers: Iterable[str] = ()) -> Callable[[str], list[str]]:
    """``tokenize`` with ``markers`` fixed. The returned function keeps the
    tokens of every word it has split, so make one per pass over a corpus:
    its words repeat, and the memo goes with the function."""
    marker_set = frozenset(markers)
    memo: dict[str, list[str]] = {}

    def keep(ch: str) -> bool:
        return ch.isalpha() or ch.isdigit() or ch == "'" or ch in marker_set

    def tokenize_text(text: str) -> list[str]:
        tokens: list[str] = []
        for word in text.replace("’", "'").split():
            pieces = memo.get(word)
            if pieces is None:
                pieces = memo[word] = []
                for piece in _APOSTROPHE_SPLIT.split(word):
                    start, end = 0, len(piece)
                    while start < end and not keep(piece[start]):
                        start += 1
                    while end > start and not keep(piece[end - 1]):
                        end -= 1
                    surface = piece[start:end]
                    if any(ch.isalpha() or ch.isdigit() or ch in marker_set for ch in surface):
                        pieces.append(surface)
            tokens += pieces
        return tokens

    return tokenize_text


def tokenize(text: str, markers: Iterable[str] = ()) -> list[str]:
    """Split a hypothesis into word tokens.

    Whitespace-delimited words are further split after apostrophes, with
    the apostrophe kept on the left token (``dell'amico`` -> ``dell'``,
    ``amico``). Leading and trailing characters that are neither letters,
    digits, apostrophes, nor paradigm markers are stripped. Case is
    preserved; matching is case-insensitive downstream. Typographic
    apostrophes are normalized to the ASCII one.
    """
    return tokenizer(markers)(text)


def count_neomorphemes(tokens: Sequence[str], markers: Iterable[str]) -> int:
    """Number of tokens containing at least one marker character."""
    marker_set = frozenset(markers)
    return sum(1 for t in tokens if any(m in t for m in marker_set))


def _prepare(triplet: Triplet) -> tuple:
    """What matching needs of a triplet: its case-folded forms and their
    outcomes, and its anchor distance and case-folded text (None without
    an anchor)."""
    # a token equal to two of the forms matches the first of them
    forms: dict[str, Outcome] = {}
    forms.setdefault(triplet.tagged_form.casefold(), Outcome.MATCHED_NEO)
    forms.setdefault(triplet.masc_form.casefold(), Outcome.MATCHED_MASC)
    forms.setdefault(triplet.fem_form.casefold(), Outcome.MATCHED_FEM)
    anchor = triplet.anchor
    if anchor is None:
        return forms, 0, None
    return forms, anchor.distance, anchor.text.casefold()


def matcher(markers: Iterable[str]) -> Callable[..., EntryEval]:
    """``match_entry`` with ``markers`` fixed. The returned function keeps
    what it derives from every triplet (case-folded forms, anchor)
    and every token (case-folded surface, whether it holds a marker) it has
    seen, so make one per pass over a corpus: both repeat, and the memo goes
    with the function."""
    marker_set = frozenset(markers)
    known_tokens: dict[str, tuple[str, bool]] = {}
    known_triplets: dict[Triplet, tuple] = {}

    def match(
        tokens: Sequence[str],
        adapted_triplets: Sequence[Triplet],
        entry_id: str = "",
        unparseable: bool = False,
    ) -> EntryEval:
        if unparseable:
            tokens = ()  # nothing is matched or found
        surfaces: list[str] = []
        positions: dict[str, list[int]] = {}  # each surface's positions, ascending
        found = 0
        for pos, token in enumerate(tokens):
            known = known_tokens.get(token)
            if known is None:  # holding a marker as count_neomorphemes has it
                neo = any(m in token for m in marker_set)
                known = known_tokens[token] = (token.casefold(), neo)
            surface, neo = known
            surfaces.append(surface)
            found += neo
            positions.setdefault(surface, []).append(pos)
        consumed: set[int] = set()
        outcomes: list[Outcome] = []
        matched = correct = 0
        for triplet in adapted_triplets:
            prepared = known_triplets.get(triplet)
            if prepared is None:
                prepared = known_triplets[triplet] = _prepare(triplet)
            forms, distance, anchor_text = prepared
            outcome = Outcome.UNMATCHED
            # candidate positions, ascending; no position holds two forms
            hits = [at for form in forms if (at := positions.get(form))]
            for pos in hits[0] if len(hits) == 1 else sorted(p for at in hits for p in at):
                if pos in consumed:
                    continue
                if anchor_text is not None:
                    anchor_pos = pos + distance
                    if anchor_pos >= len(surfaces) or not surfaces[anchor_pos].startswith(
                        anchor_text
                    ):
                        continue
                consumed.add(pos)
                outcome = forms[surfaces[pos]]
                matched += 1
                if outcome is Outcome.MATCHED_NEO:
                    correct += 1
                break
            outcomes.append(outcome)
        return EntryEval(
            entry_id=entry_id,
            annotations=len(adapted_triplets),
            matched=matched,
            correct=correct,
            found=found,
            per_triplet=tuple(outcomes),
            triplets=tuple(adapted_triplets),
            unparseable=unparseable,
        )

    return match


def match_entry(
    tokens: Sequence[str],
    adapted_triplets: Sequence[Triplet],
    markers: Iterable[str],
    entry_id: str = "",
    unparseable: bool = False,
) -> EntryEval:
    """Match each triplet against the hypothesis tokens.

    Triplets are processed in annotation order. Each one takes, left to
    right, the first unconsumed token equal (case-insensitive) to any of
    its three forms, visiting only the positions of those forms, which
    are indexed once per entry; a triplet with an anchor additionally
    requires the token at the candidate's position plus the anchor
    distance to start with the anchor string. A matched token is consumed
    and cannot serve another triplet.
    """
    return matcher(markers)(tokens, adapted_triplets, entry_id, unparseable)


def aggregate(entry_evals: Sequence[EntryEval]) -> EvalCounts:
    """Sum per-entry counters and build (kind, number) breakdowns.

    ``found`` counts hypothesis tokens, which belong to no annotation
    class, so breakdowns carry only the triplet-attributable counters.
    """
    annotations = matched = correct = found = unparseable = 0
    table: dict[tuple[str, str], list[int]] = {}
    for ev in entry_evals:
        annotations += ev.annotations
        matched += ev.matched
        correct += ev.correct
        found += ev.found
        unparseable += ev.unparseable
        for outcome, t in zip(ev.per_triplet, ev.triplets):
            row = table.setdefault((t.kind, t.number), [0, 0, 0])
            row[0] += 1
            if outcome is not Outcome.UNMATCHED:
                row[1] += 1
            if outcome is Outcome.MATCHED_NEO:
                row[2] += 1
    return EvalCounts(
        annotations=annotations,
        matched=matched,
        correct=correct,
        found=found,
        entries=len(entry_evals),
        unparseable_entries=unparseable,
        breakdowns={k: Breakdown(*v) for k, v in sorted(table.items())},
    )


def round_half_up(value: float, denominator: int = 1, places: int = 2) -> float:
    """``value / denominator`` rounded to ``places`` decimals with ties
    away from zero, computed exactly: a float ``value`` counts at its
    binary value. ``denominator`` must be positive."""
    numerator, scale = value.as_integer_ratio()
    scale *= denominator
    unit = 10**places
    quotient, rest = divmod(abs(numerator) * unit, scale)
    quotient += 2 * rest >= scale
    return quotient / unit if numerator >= 0 else -(quotient / unit)


def compute_metrics(counts: EvalCounts) -> MetricReport:
    """Derive the rounded metric report from raw counts.

    Each percentage is rounded from the integer counts, so a tie at the
    third decimal rounds up however the float ratio would land. CWA is
    rounded from correct / annotations, which equals COV * ACC / 100
    exactly; ACC and CWA are 0 by convention when nothing matched.
    """
    annotations, matched, correct = counts.annotations, counts.matched, counts.correct
    if annotations == 0:
        raise NeoGateError("cannot compute metrics over zero annotations")
    return MetricReport(
        cov=round_half_up(100 * matched, annotations),
        acc=round_half_up(100 * correct, matched) if matched else 0.0,
        cwa=round_half_up(100 * correct, annotations) if matched else 0.0,
        mis=round_half_up(100 * (counts.found - correct), annotations),
        unparseable_rate=(
            round_half_up(100 * counts.unparseable_entries, counts.entries)
            if counts.entries
            else 0.0
        ),
    )


def evaluate_hypotheses(
    adapted: Sequence[Entry],
    hypotheses: Sequence[str],
    markers: Iterable[str],
) -> list[EntryEval]:
    """Score one hypothesis line per adapted entry, in corpus order.

    A blank hypothesis marks an unparseable model output: its annotations
    stay in the denominator but nothing is matched or found.
    """
    if len(adapted) != len(hypotheses):
        raise NeoGateError(
            f"{len(hypotheses)} hypothesis lines for {len(adapted)} entries"
        )
    marker_set = frozenset(markers)
    tokenize_text = tokenizer(marker_set)
    match = matcher(marker_set)
    return [
        # a blank line has no tokens
        match(tokenize_text(hyp), entry.triplets, entry.entry_id, not hyp.strip())
        for entry, hyp in zip(adapted, hypotheses)
    ]
