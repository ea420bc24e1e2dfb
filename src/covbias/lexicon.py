"""The personalizing-word lexicon: lemmas with POS, category and sentiment."""

from __future__ import annotations

import csv
from typing import Iterator, NamedTuple, Optional

from .errors import InputError, open_input
from .model import Category, normalize_lemma
from .sentiment import CLASS_BY_FIFTHS, SentimentClass, aggregate_fifths

LEXICON_POS = ("ADJ", "NOUN", "VERB")


class LexiconEntry(NamedTuple):
    lemma: str
    upos: str
    category: Category
    scores: tuple[int, int, int, int, int]
    fifths: int  # grid position k = 5 * aggregate score, in -5..5
    sentiment: SentimentClass


class Lexicon:
    def __init__(self, entries: dict[tuple[str, str], LexiconEntry]):
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

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
        reader = csv.reader(fh)
        end = 0  # file line on which the previous record ended
        for rec in reader:
            # a quoted cell may hold newlines: name the record's first line
            lineno, end = end + 1, reader.line_num
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != 8:
                raise InputError(
                    path, lineno, f"expected 8 columns (lemma,upos,category,s1..s5), got {len(rec)}"
                )
            lemma = normalize_lemma(rec[0])
            if lemma is None:
                raise InputError(path, lineno, f"lemma {rec[0]!r} is not lexical")
            upos = rec[1].strip()
            if upos not in LEXICON_POS:
                raise InputError(path, lineno, f"upos {upos!r} not one of {LEXICON_POS}")
            try:
                category = Category(rec[2].strip())
            except ValueError:
                raise InputError(path, lineno, f"unknown category {rec[2].strip()!r}") from None
            # ASCII digits only, where int() would also take plus signs,
            # other scripts' digits and non-ASCII spaces
            cells = [c.strip(" \t") for c in rec[3:8]]
            if not all(c.isascii() and c.removeprefix("-").isdigit() for c in cells):
                raise InputError(path, lineno, "non-integer score")
            scores = tuple(map(int, cells))
            try:
                fifths = aggregate_fifths(scores)
            except ValueError as exc:
                raise InputError(path, lineno, str(exc)) from None
            key = (lemma, upos)
            if key in entries:
                raise InputError(path, lineno, f"duplicate entry {key}")
            if stopwords is not None and lemma in stopwords:
                raise InputError(
                    path, lineno, f"lemma {lemma!r} is a stopword; "
                    "stopwords are filtered before lexicon matching",
                )
            entries[key] = LexiconEntry(
                lemma=lemma,
                upos=upos,
                category=category,
                scores=scores,
                fifths=fifths,
                sentiment=CLASS_BY_FIFTHS[fifths],
            )
    return Lexicon(entries)
