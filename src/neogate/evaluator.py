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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .corpus import Triplet
from .errors import NeoGateError
from .paradigm import AdaptedEntry


class NoAnnotations(NeoGateError):
    """Metrics are undefined when there are zero annotations."""


class Outcome(str, Enum):
    UNMATCHED = "unmatched"
    MATCHED_MASC = "matched_masc"
    MATCHED_FEM = "matched_fem"
    MATCHED_NEO = "matched_neo"


@dataclass(frozen=True)
class EntryEval:
    """Raw per-entry tallies plus the outcome of every triplet."""

    entry_id: str
    annotations: int
    matched: int
    correct: int
    found: int
    per_triplet: tuple[Outcome, ...]
    triplet_classes: tuple[tuple[str, str], ...] = ()  # (kind, number) per triplet
    unparseable: bool = False


@dataclass(frozen=True)
class Breakdown:
    annotations: int = 0
    matched: int = 0
    correct: int = 0


@dataclass(frozen=True)
class EvalCounts:
    """Corpus-level sums of the per-entry counters."""

    annotations: int
    matched: int
    correct: int
    found: int
    entries: int = 0
    unparseable_entries: int = 0
    breakdowns: dict[tuple[str, str], Breakdown] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricReport:
    """The four percentages, rounded half-up to 2 decimals."""

    cov: float
    acc: float
    cwa: float
    mis: float
    unparseable_rate: float = 0.0


_APOSTROPHE_SPLIT = re.compile(r"(?<=')")


def tokenize(text: str, markers: Iterable[str] = ()) -> list[str]:
    """Split a hypothesis into word tokens.

    Whitespace-delimited words are further split after apostrophes, with
    the apostrophe kept on the left token (``dell'amico`` -> ``dell'``,
    ``amico``). Leading and trailing characters that are neither letters,
    digits, apostrophes, nor paradigm markers are stripped. Case is
    preserved; matching is case-insensitive downstream. Typographic
    apostrophes are normalized to the ASCII one.
    """
    marker_set = frozenset(markers)

    def keep(ch: str) -> bool:
        return ch.isalpha() or ch.isdigit() or ch == "'" or ch in marker_set

    tokens: list[str] = []
    for word in text.replace("’", "'").split():
        for piece in _APOSTROPHE_SPLIT.split(word):
            start, end = 0, len(piece)
            while start < end and not keep(piece[start]):
                start += 1
            while end > start and not keep(piece[end - 1]):
                end -= 1
            surface = piece[start:end]
            if any(ch.isalpha() or ch.isdigit() or ch in marker_set for ch in surface):
                tokens.append(surface)
    return tokens


def count_neomorphemes(tokens: Sequence[str], markers: Iterable[str]) -> int:
    """Number of tokens containing at least one marker character."""
    marker_set = frozenset(markers)
    return sum(1 for t in tokens if any(m in t for m in marker_set))


def match_entry(
    tokens: Sequence[str],
    adapted_triplets: Sequence[Triplet],
    markers: Iterable[str],
    entry_id: str = "",
    unparseable: bool = False,
) -> EntryEval:
    """Match each triplet against the hypothesis tokens.

    Triplets are processed in annotation order. Each one scans the tokens
    left to right for the first unconsumed token equal (case-insensitive)
    to any of its three forms; a triplet with an anchor additionally
    requires the token at the candidate's position plus the anchor
    distance to start with the anchor string. A matched token is consumed
    and cannot serve another triplet.
    """
    if unparseable:
        return EntryEval(
            entry_id=entry_id,
            annotations=len(adapted_triplets),
            matched=0,
            correct=0,
            found=0,
            per_triplet=(Outcome.UNMATCHED,) * len(adapted_triplets),
            triplet_classes=tuple((t.kind, t.number) for t in adapted_triplets),
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
        triplet_classes=tuple((t.kind, t.number) for t in adapted_triplets),
    )


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
        for outcome, klass in zip(ev.per_triplet, ev.triplet_classes):
            row = table.setdefault(klass, [0, 0, 0])
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


def metric_ratios(counts: EvalCounts) -> tuple[float, float, float, float]:
    """Unrounded (COV, ACC, CWA, MIS) percentages.

    CWA is computed as COV * ACC / 100, so the identity holds exactly
    before rounding. ACC and CWA are 0 by convention when nothing matched.
    """
    if counts.annotations == 0:
        raise NoAnnotations("cannot compute metrics over zero annotations")
    cov = counts.matched / counts.annotations * 100.0
    acc = counts.correct / counts.matched * 100.0 if counts.matched else 0.0
    cwa = cov * acc / 100.0
    mis = (counts.found - counts.correct) / counts.annotations * 100.0
    return cov, acc, cwa, mis


def compute_metrics(counts: EvalCounts) -> MetricReport:
    """Derive the rounded metric report from raw counts.

    Each percentage is rounded from the integer counts, so a tie at the
    third decimal rounds up however the float ratio would land.
    """
    annotations, matched, correct = counts.annotations, counts.matched, counts.correct
    if annotations == 0:
        raise NoAnnotations("cannot compute metrics over zero annotations")
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
    adapted: Sequence[AdaptedEntry],
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
    evals = []
    for entry, hyp in zip(adapted, hypotheses):
        blank = not hyp.strip()
        evals.append(
            match_entry(
                tokenize(hyp, marker_set) if not blank else [],
                entry.triplets,
                marker_set,
                entry_id=entry.entry_id,
                unparseable=blank,
            )
        )
    return evals
