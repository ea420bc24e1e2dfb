"""Core domain types shared by every stage of the pipeline.

Everything here is immutable after construction and free of I/O, numpy
and statistics. Parse structure is checked in one place: the CoNLL-U reader
(`ingestion.iter_conllu`) runs its checks and `tree_defect` on the raw
rows, so `Token` and `Sentence` store what they are given unchecked.
Every immutable record in covbias is a `typing.NamedTuple`, the cheapest
immutable record to declare and to construct; only types that are mutated
or configured (`pipeline.PipelineConfig` and the diagnostics accumulators)
are dataclasses. A record is a tuple: it compares equal to a plain tuple
of the same fields, iterates and orders like one, and `json.dumps` writes
it as a list. `Token`, `Sentence` and `Document`, built once per token,
sentence and metadata line, are built by the readers with
``tuple.__new__(cls, fields)``, all fields given, which skips the
NamedTuple's Python-level ``__new__``.
count_table.json's format is defined here whole: the `CountTable`, its
encoder and its one decoder, and the dummy coding of the record rows that
analyze derives from the table's cells.
"""

from __future__ import annotations

import datetime
import json
import re
import unicodedata
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence


class Gender(str, Enum):
    F = "F"
    M = "M"


class SourceType(str, Enum):
    TRADITIONAL = "traditional"
    ONLINE = "online"


class Category(str, Enum):
    MORAL_BEHAVIORAL = "moral_behavioral"
    PHYSICAL = "physical"
    SOCIO_ECONOMIC = "socio_economic"


class MentionPattern(str, Enum):
    NAME_SURNAME = "name_surname"
    ROLE_SURNAME = "role_surname"
    SPECIFIC_ROLE = "specific_role"


# Characters stripped from lemma edges: ASCII punctuation plus the
# typographic quotes/dashes common in news text. Interior characters
# (hyphens, apostrophes) are left alone.
_EDGE_PUNCT = (
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
    "«»‘’“”–—…·•"
)


def normalize_lemma(raw: str) -> Optional[str]:
    """Normalize a lemma or surface form for matching.

    Case-folds and strips punctuation from both edges; diacritics are
    preserved (Italian lemmas are diacritic-bearing and must match
    lexicon keys exactly). Returns None when nothing lexical remains,
    e.g. for punctuation-only input; callers drop such tokens.
    """
    if not raw:
        raise ValueError("normalize_lemma: empty input")
    s = unicodedata.normalize("NFC", unicodedata.normalize("NFC", raw).casefold())
    # whitespace and punctuation can alternate at the edges; strip until
    # stable so the result is a fixpoint
    while True:
        stripped = s.strip().strip(_EDGE_PUNCT)
        if stripped == s:
            break
        s = stripped
    return s or None


_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(raw: str) -> datetime.date:
    """A calendar date written exactly as `YYYY-MM-DD` (ten ASCII characters).

    Every input date goes through here. From Python 3.11 on,
    `date.fromisoformat` also reads compact (`20171127`) and week
    (`2017-W48-1`) forms, which 3.10 refuses; this refuses them on every
    version, with the `ValueError` text that `fromisoformat` gives. A
    value that is not a str raises its `TypeError`.
    """
    if isinstance(raw, str) and not _ISO_DATE_RE.fullmatch(raw):
        raise ValueError(f"Invalid isoformat string: {raw!r}")
    return datetime.date.fromisoformat(raw)


def tree_defect(heads: Sequence[int]) -> Optional[str]:
    """Why a head list is not a dependency tree, or None if it is one.

    ``heads[i]`` is the head of token i + 1 (0 for a root) and every head
    must already be in range 0..len(heads). A tree needs a root and every
    head chain must reach it; a token headed by itself is a cycle.
    """
    if 0 not in heads:
        return "no root token (no head = 0)"
    # mark[i] is the start token of the walk that first reached token i
    # (0: not reached yet; slot 0, the root, is -1). A walk stops at the
    # first token already marked. Marked by this walk, that token closes a
    # cycle; marked by an earlier walk, the chain joins one that reached
    # the root, since a walk that finds a cycle returns at once.
    mark = [0] * (len(heads) + 1)
    mark[0] = -1
    for start in range(1, len(heads) + 1):
        node = start
        while not mark[node]:
            mark[node] = start
            node = heads[node - 1]
        if mark[node] == start:
            return f"cyclic head chain through token {node}"
    return None


class Token(NamedTuple):
    """One token of a dependency-parsed sentence.

    ``index`` is the 1-based position within the sentence and ``head``
    the index of the syntactic head (0 for the root). ``filtered``
    marks stopwords, digits, URLs and other non-lexical material: such
    tokens stay in the tree (pruning nodes would corrupt head indices)
    but are never selected as neighborhood words. ``norm`` is the
    surface passed through ``normalize_lemma``, the form mention matching
    compares; the CoNLL-U reader derives it, and it is None when nothing
    lexical remains. The field ``index`` shadows the tuple method
    ``tuple.index``.
    """

    index: int
    surface: str
    lemma: str
    upos: str
    head: int
    deprel: str
    filtered: bool = False
    norm: Optional[str] = None


class Sentence(NamedTuple):
    """One parsed sentence, as the CoNLL-U reader yields it.

    Nothing here is checked: the reader validates the rows before it
    builds any `Token`, so `tokens[i].index == i + 1`, every lemma is
    non-empty, every head is in 0..len(tokens) and the heads form a tree
    (see `tree_defect`). A sentence built by hand must meet the same rules.
    """

    doc_id: str
    index: int  # 0-based ordinal within the document; shadows tuple.index
    tokens: tuple[Token, ...]


class Document(NamedTuple):
    doc_id: str
    date: datetime.date
    source_type: SourceType


class Role(NamedTuple):
    """A political office: keyword plus optional jurisdiction and tenure."""

    keyword: str
    jurisdiction: str = ""
    start: Optional[datetime.date] = None
    end: Optional[datetime.date] = None

    def active_on(self, date: datetime.date) -> bool:
        if self.start is not None and date < self.start:
            return False
        if self.end is not None and date > self.end:
            return False
        return True

    def overlaps(self, other: "Role") -> bool:
        lo = max(
            self.start or datetime.date.min, other.start or datetime.date.min
        )
        hi = min(self.end or datetime.date.max, other.end or datetime.date.max)
        return lo <= hi


class Politician(NamedTuple):
    pid: str
    given_name: str
    surname: str
    gender: Gender
    roles: tuple[Role, ...] = ()
    aliases: tuple[str, ...] = ()


class Mention(NamedTuple):
    """A detected politician mention: a token span within one sentence."""

    pid: str
    start: int  # 1-based token index, inclusive
    end: int  # 1-based token index, inclusive
    pattern: MentionPattern

    @property
    def span(self) -> range:
        return range(self.start, self.end + 1)


# ---------------------------------------------------------------------------
# The count table and count_table.json, its one handoff from extract
# ---------------------------------------------------------------------------

WordKey = tuple[str, str]  # (lemma, upos)
WordCell = tuple[str, str, Gender, Optional[Category], Optional[SourceType], str]
DayCell = tuple[Gender, Optional[Category], Optional[SourceType], datetime.date]
Slots = tuple[Gender, Optional[Category], Optional[SourceType]]  # a cell's enum members
# str() and value of everything an enum slot of a key can hold (None or a
# member), looked up per cell: str() orders serialized cells, value fills them.
_SLOT_STR = {x: str(x) for x in (None, *Gender, *Category, *SourceType)}
_SLOT_VALUE = {x: getattr(x, "value", None) for x in _SLOT_STR}


class CountTable:
    """Aggregate of word-event counts.

    Each attributed (word, mention) pair is counted once into each of two
    dicts:
    - `words`, keyed by (lemma, upos, gender, category, source_type, pid),
      the word counts that every score reads, per politician; category is
      None for words outside the lexicon;
    - `days`, keyed by (gender, category, source_type, date), the daily
      totals that only the personalization trends read.
    So the table grows with the words each politician is given plus the
    days, not with their product. A gender's politicians are the distinct
    pids of its word cells, so a slice counts its own.

    A table is built once, from its two dicts, and only read after that.
    So each marginal the analyses read over and over (the gender totals of
    `total()`, the politician counts of `politicians()`, the per-word
    gender counts of `word_counts()` and the per-day totals of `by_day()`)
    is summed on its first read and returned as is: callers must not
    mutate it.
    """

    def __init__(self, words: dict[WordCell, int], days: dict[DayCell, int]) -> None:
        self.words = words
        self.days = days

    # -- marginals ---------------------------------------------------------

    @cached_property
    def _totals(self) -> dict[Gender, int]:
        out = {g: 0 for g in Gender}
        for (_, _, g, _, _, _), n in self.words.items():
            out[g] += n
        return out

    @cached_property
    def _politicians(self) -> dict[Gender, int]:
        seen: dict[Gender, set[str]] = {g: set() for g in Gender}
        for (_, _, g, _, _, pid) in self.words:
            seen[g].add(pid)
        return {g: len(pids) for g, pids in seen.items()}

    @cached_property
    def _words(self) -> dict[WordKey, dict[Gender, int]]:
        out: dict[WordKey, dict[Gender, int]] = {}
        for (lemma, upos, g, _, _, _), n in self.words.items():
            per = out.setdefault((lemma, upos), {Gender.F: 0, Gender.M: 0})
            per[g] += n
        return out

    @cached_property
    def _days(self) -> dict[Gender, dict[datetime.date, int]]:
        out: dict[Gender, dict[datetime.date, int]] = {g: {} for g in Gender}
        for (g, _, _, day), n in self.days.items():
            per = out[g]
            per[day] = per.get(day, 0) + n
        return out

    def total(self, gender: Gender) -> int:
        return self._totals[gender]

    @property
    def grand_total(self) -> int:
        return sum(self.words.values())

    def politicians(self, gender: Gender) -> int:
        return self._politicians[gender]

    def word_counts(self) -> dict[WordKey, dict[Gender, int]]:
        return self._words

    def word_categories(self) -> dict[WordKey, Optional[Category]]:
        """Lexicon category per word; None for out-of-lexicon words."""
        out: dict[WordKey, Optional[Category]] = {}
        for (lemma, upos, _, cat, _, _) in self.words:
            key = (lemma, upos)
            if cat is not None or key not in out:
                out[key] = cat if cat is not None else out.get(key)
        return out

    def by_day(self, gender: Gender) -> dict[datetime.date, int]:
        return self._days[gender]

    def source_gender_counts(self) -> dict[tuple[SourceType, Gender], int]:
        out: dict[tuple[SourceType, Gender], int] = {}
        for (_, _, g, _, st, _), n in self.words.items():
            if st is not None:
                out[(st, g)] = out.get((st, g), 0) + n
        return out

    # -- slicing -----------------------------------------------------------

    def slice(
        self,
        category: Optional[Category] = None,
        source_type: Optional[SourceType] = None,
        lexicon_only: bool = False,
    ) -> "CountTable":
        """The table of the cells in one category (or every lexicon
        category, or all) and one source type (or all), both dicts filtered
        alike, so the slice keeps its own day totals and politicians."""
        if category is not None:
            cats: tuple = (category,)
        else:
            cats = (*Category,) if lexicon_only else (None, *Category)
        sts = (source_type,) if source_type is not None else (None, *SourceType)
        return CountTable(
            {k: n for k, n in self.words.items() if k[3] in cats and k[4] in sts},
            {k: n for k, n in self.days.items() if k[1] in cats and k[2] in sts},
        )

    # -- serialization -----------------------------------------------------

    def to_csv_rows(self) -> list[tuple[str, str, str, str, str, int]]:
        """Rows (lemma, upos, gender, category, source_type, count), the
        word cells summed over politicians, sorted; an empty string stands
        for a None slot."""
        summed: dict[tuple[str, str, str, str, str], int] = {}
        for (lemma, upos, g, cat, st, _), n in self.words.items():
            key = (lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat] or "", _SLOT_VALUE[st] or "")
            summed[key] = summed.get(key, 0) + n
        return sorted((*key, n) for key, n in summed.items())

    def to_json_dict(self) -> dict:
        """count_table.json's object: `cells`, [lemma, upos, gender,
        category, source_type, pid, count] rows, and `days`, [gender,
        category, source_type, "YYYY-MM-DD", count] rows, each list sorted
        by the str() of its key's members."""
        # str() of each distinct day, made once: it is the day's ISO date
        day_str = {day: str(day) for day in {key[3] for key in self.days}}

        def word_order(item: tuple[WordCell, int]) -> tuple[str, ...]:
            (lemma, upos, g, cat, st, pid), _ = item
            return lemma, upos, _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st], pid

        def day_order(item: tuple[DayCell, int]) -> tuple[str, ...]:
            (g, cat, st, day), _ = item
            return _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st], day_str[day]

        cells = [
            [lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], pid, n]
            for (lemma, upos, g, cat, st, pid), n in sorted(self.words.items(), key=word_order)
        ]
        days = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], day_str[day], n]
            for (g, cat, st, day), n in sorted(self.days.items(), key=day_order)
        ]
        return {"cells": cells, "days": days}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountTable":
        """The table of a `to_json_dict` object, its cells in file order.

        A file with no `days`, with a `politicians` or `record_rows` view,
        or with a null pid was written by an older extract. Extract writes
        each key once, so a row whose key an earlier row of its list holds
        is refused, naming the key.
        """
        if "days" not in d:
            raise ValueError("no days: written by an older extract; rerun extract")
        for view in ("politicians", "record_rows"):
            if view in d:
                raise ValueError(f"has {view}: written by an older extract; rerun extract")
        words: dict[WordCell, int] = {}
        days: dict[DayCell, int] = {}
        decoded: dict[tuple, Slots] = {}  # raw slot values -> members
        dates: dict[str, datetime.date] = {}  # ISO day string -> date
        for lemma, upos, g, cat, st, pid, n in d["cells"]:
            if type(n) is not int or n < 0:
                raise ValueError(f"cell count {n!r} is not a non-negative integer")
            if type(lemma) is not str or type(upos) is not str:
                raise ValueError(f"cell word ({lemma!r}, {upos!r}) is not two strings")
            if type(pid) is not str:
                if pid is None:
                    raise ValueError("cell pid is null: written by an older extract; rerun extract")
                raise ValueError(f"cell pid {pid!r} is not a string")
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            key = (lemma, upos, *slots, pid)
            if key in words:
                raise ValueError(f"cell {_key_text(lemma, upos, g, cat, st, pid)} is repeated")
            words[key] = n
        for g, cat, st, day, n in d["days"]:
            if type(n) is not int or n < 0:
                raise ValueError(f"day count {n!r} is not a non-negative integer")
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            date = dates.get(day)
            if date is None:
                date = dates[day] = parse_date(day)
            key = (*slots, date)
            if key in days:
                raise ValueError(f"day {_key_text(g, cat, st, day)} is repeated")
            days[key] = n
        return cls(words, days)


def _decode_slots(g: str, cat: Optional[str], st: Optional[str]) -> Slots:
    """The (gender, category, source_type) members of serialized slot values."""
    return (
        Gender(g),
        Category(cat) if cat is not None else None,
        SourceType(st) if st is not None else None,
    )


def _key_text(*values: object) -> str:
    """Serialized key values as the JSON list a count_table.json row holds them in."""
    return json.dumps(values, ensure_ascii=False)


def read_count_table(d: object) -> CountTable:
    """The table of count_table.json's JSON value `d`, an object of the
    `CountTable.to_json_dict` layout.

    Extract counts each attributed (word, mention) pair once into a word
    cell and once into a day cell, and every extracted document is dated.
    So a table whose `days` sum differs from its `cells` sum in some
    (gender, category, source_type) slot is refused, naming the slot.
    """
    if type(d) is not dict:
        raise ValueError("the top level is not a JSON object")
    table = CountTable.from_json_dict(d)
    cells: dict[Slots, int] = {}
    for (_, _, g, cat, st, _), n in table.words.items():
        cells[g, cat, st] = cells.get((g, cat, st), 0) + n
    days: dict[Slots, int] = {}
    for (g, cat, st, _), n in table.days.items():
        days[g, cat, st] = days.get((g, cat, st), 0) + n
    # in file order, so of several slots that disagree the same one is named
    for slot in {**cells, **days}:
        if days.get(slot, 0) != cells.get(slot, 0):
            raise ValueError(
                f"days hold {days.get(slot, 0)} words of slot "
                f"{_key_text(*(_SLOT_VALUE[x] for x in slot))}, "
                f"cells {cells.get(slot, 0)}"
            )
    return table


# Each category's records as (grid position k in -5..5, women, online) rows:
# 1 for women and online, 0 for men and traditional, `quantile_regression`'s
# dummy coding. The order matters: jitter and the bootstrap draw per row.
RecordRows = dict[Category, list[tuple[int, int, int]]]
ROW_GENDER = (Gender.M, Gender.F)  # by the women dummy
ROW_SOURCE = (SourceType.TRADITIONAL, SourceType.ONLINE)  # by the online dummy
