"""The personalizing-word lexicon: lemmas with POS, category and sentiment."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import LexiconError, open_input
from .model import Category, normalize_lemma
from .sentiment import GRID_BY_FIFTHS, SentimentClass, aggregate_fifths

LEXICON_POS = ("ADJ", "NOUN", "VERB")


@dataclass(frozen=True)
class LexiconEntry:
    lemma: str
    upos: str
    category: Category
    scores: tuple[int, int, int, int, int]
    aggregate: Fraction
    sentiment: SentimentClass


class Lexicon:
    def __init__(self, entries: dict[tuple[str, str], LexiconEntry]):
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.entries

    def get(self, lemma: str, upos: str) -> Optional[LexiconEntry]:
        return self.entries.get((lemma, upos))

    def __iter__(self) -> Iterator[LexiconEntry]:
        return iter(self.entries.values())

    def class_distribution(self, category: Category) -> dict[SentimentClass, int]:
        """How many lexicon entries of a category fall in each sentiment class."""
        out = {cls: 0 for cls in SentimentClass}
        for entry in self.entries.values():
            if entry.category == category:
                out[entry.sentiment] += 1
        return out


def read_lexicon(path, stopwords: Optional[set[str]] = None) -> Lexicon:
    """Load the lexicon CSV: lemma,upos,category,s1,s2,s3,s4,s5.

    Keys are (normalized lemma, upos); duplicates, malformed scores and
    unknown categories are hard errors. When a stopword list is supplied,
    lexicon lemmas colliding with it are rejected: stopwords are filtered
    before lexicon matching, so such an entry could never fire.
    """
    entries: dict[tuple[str, str], LexiconEntry] = {}
    with open_input(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != 8:
                raise LexiconError(
                    f"{path}: line {lineno}: expected 8 columns "
                    f"(lemma,upos,category,s1..s5), got {len(rec)}"
                )
            lemma = normalize_lemma(rec[0])
            if lemma is None:
                raise LexiconError(f"{path}: line {lineno}: lemma {rec[0]!r} is not lexical")
            upos = rec[1].strip()
            if upos not in LEXICON_POS:
                raise LexiconError(
                    f"{path}: line {lineno}: upos {upos!r} not one of {LEXICON_POS}"
                )
            try:
                category = Category(rec[2].strip())
            except ValueError:
                raise LexiconError(
                    f"{path}: line {lineno}: unknown category {rec[2].strip()!r}"
                ) from None
            try:
                scores = tuple(int(c) for c in rec[3:8])
            except ValueError:
                raise LexiconError(f"{path}: line {lineno}: non-integer score") from None
            try:
                agg, sentiment = GRID_BY_FIFTHS[aggregate_fifths(scores)]
            except ValueError as exc:
                raise LexiconError(f"{path}: line {lineno}: {exc}") from None
            key = (lemma, upos)
            if key in entries:
                raise LexiconError(f"{path}: line {lineno}: duplicate entry {key}")
            if stopwords is not None and lemma in stopwords:
                raise LexiconError(
                    f"{path}: line {lineno}: lemma {lemma!r} is a stopword; "
                    "stopwords are filtered before lexicon matching"
                )
            entries[key] = LexiconEntry(
                lemma=lemma,
                upos=upos,
                category=category,
                scores=scores,
                aggregate=agg,
                sentiment=sentiment,
            )
    return Lexicon(entries)
