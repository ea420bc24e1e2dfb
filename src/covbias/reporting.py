"""Report assembly: sentiment fraction tables, distinctive-word rankings,
descriptive breakdowns and deterministic serialization helpers."""

from __future__ import annotations

import bisect
import csv
import json
import logging
from collections import Counter
from typing import Iterable, Optional, Sequence

from .bias import LeaveOneOutResult
from .lexicon import Lexicon
from .model import ROW_GENDER, Category, Gender, RecordRows
from .sentiment import CLASS_BY_FIFTHS, SentimentClass

log = logging.getLogger(__name__)

SENTIMENT_COLUMNS = [cls.value for cls in SentimentClass]

# Table 1 measures, in row order; each is a key of descriptives.json.
TABLE1_FIELDS = ("politicians", "contents", "sentences", "words", "distinct_words")
TABLE1_HEADER = ["measure", "coverage_F", "coverage_M", "personalization_F", "personalization_M"]


def write_json(path, obj, compact: bool = False) -> None:
    """Write `obj` as sorted-key JSON and a final newline, in one write.

    Compact output is one line from the C encoder, for files that only a
    later stage reads; otherwise the text is indented for people (the
    pure-Python encoder, several times slower). `json.dump` would call
    `write` once per encoder chunk, some 37k times for a 239 kB
    bias_profile.json; the text is built first instead.
    """
    if compact:
        text = json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_jsonl(path, lines: Iterable[str]) -> None:
    """Write JSON Lines text, each line already encoded, one newline after each.

    Extract's records come as `PersonalizationRecord.json_line` texts.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def sentiment_fraction_rows(records: RecordRows, lexicon: Lexicon) -> list[list]:
    """Per category: lexicon class distribution plus per-gender fractions.

    ``records`` holds each category's (k, women, online) rows. Gender rows
    are fractions of record events over the five sentiment classes and sum
    to 1; empty (category, gender) slices are omitted with a warning.
    """
    rows: list[list] = []
    for category in Category:
        dist = lexicon.class_distribution(category)
        total = sum(dist.values())
        if total:
            rows.append(
                [category.value, "lexicon"]
                + [dist[cls] / total for cls in SentimentClass]
            )
        # one pass over the category: at most 11 x 2 x 2 distinct rows
        seen = Counter(records[category])
        for women, gender in enumerate(ROW_GENDER):
            tally = dict.fromkeys(SentimentClass, 0)
            for (k, w, _), count in seen.items():
                if w == women:
                    tally[CLASS_BY_FIFTHS[k]] += count
            n = sum(tally.values())
            if n == 0:
                log.warning(
                    "no records for category=%s gender=%s; row omitted",
                    category.value,
                    gender.value,
                )
                continue
            rows.append(
                [category.value, gender.value]
                + [tally[cls] / n for cls in SentimentClass]
            )
    return rows


def distinctive_word_rows(
    loo: LeaveOneOutResult, gender: Gender, lexicon: Optional[Lexicon] = None
) -> list[list]:
    """Ranked distinctive words for one gender: lemma, upos, weight, diss.

    Given a lexicon, only its words classed as negative are kept.
    """
    rows = []
    for word in loo.distinctive_for(gender):
        if lexicon is not None:
            entry = lexicon.get(word.lemma, word.upos)
            if entry is None or entry.sentiment not in (
                SentimentClass.STRONG_NEGATIVE,
                SentimentClass.WEAKLY_NEGATIVE,
            ):
                continue
        rows.append(
            [word.lemma, word.upos, float(word.weight), float(word.diss_without)]
        )
    return rows


def table1_rows(descriptives: dict) -> list[list]:
    """Dataset breakdown rows, one per measure, from descriptives.json."""
    cov, pers = descriptives["coverage"], descriptives["personalization"]
    return [
        [field, cov["F"][field], cov["M"][field], pers["F"][field], pers["M"][field]]
        for field in TABLE1_FIELDS
    ]


def ccdf_points(values: Sequence[int]) -> list[tuple[int, float]]:
    """P(V >= x) for x = 0..max(V); equals 1 at x = 0 for nonempty data."""
    if not values:
        return []
    n = len(values)
    ordered = sorted(values)
    out = []
    for x in range(0, ordered[-1] + 1):
        idx = bisect.bisect_left(ordered, x)
        out.append((x, (n - idx) / n))
    return out
