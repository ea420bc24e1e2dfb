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
it as a list. `Token`, `Sentence`, `Document` and `PersonalizationRecord`,
built once per token, sentence, metadata line and attributed lexicon word,
are built by the readers and extract with ``tuple.__new__(cls, fields)``,
all fields given, which skips the NamedTuple's Python-level ``__new__``.
count_table.json's format is defined here whole, from the `CountTable` to
the record rows' dummy coding, with its encoder and its one decoder.
"""

from __future__ import annotations

import datetime
import json
import re
import unicodedata
from collections import Counter
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring as _encode_str
from typing import Iterable, NamedTuple, Optional, Sequence


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


class PersonalizationRecord(NamedTuple):
    """One lexicon word attributed to one politician mention."""

    pid: str
    gender: Gender
    doc_id: str
    date: datetime.date
    source_type: SourceType
    lemma: str
    upos: str
    category: Category
    fifths: int  # grid position k = 5 * aggregate sentiment, in -5..5
    sentence_index: int

    def json_line(self) -> str:
        """This record as one records.jsonl line, without its newline.

        The text is that of ``json.dumps(..., ensure_ascii=False,
        sort_keys=True)`` on the record's JSON object, filled into one
        fixed template: strings go through the encoder's own
        ``encode_basestring`` (a str-valued enum member is a str holding
        its value). The aggregate sentiment is the float k/5 through
        ``float.__repr__``; the division is correctly rounded, so it is the
        float nearest the exact score, as ``float(Fraction(k, 5))`` is.
        """
        return _RECORD_LINE % (
            float.__repr__(self.fifths / 5),
            _encode_str(self.category),
            self.date.isoformat(),
            _encode_str(self.doc_id),
            _encode_str(self.gender),
            _encode_str(self.lemma),
            _encode_str(self.pid),
            _encode_str(self.doc_id),
            self.sentence_index,
            _encode_str(self.source_type),
            _encode_str(self.upos),
        )


# The keys of a records.jsonl object in sorted order, with json.dumps's
# default separators; the ISO date needs no escaping.
_RECORD_LINE = (
    '{"aggregate_sentiment": %s, "category": %s, "date": "%s", "doc_id": %s, '
    '"gender": %s, "lemma": %s, "pid": %s, "sentence_ref": [%s, %d], '
    '"source_type": %s, "upos": %s}'
)



# ---------------------------------------------------------------------------
# The count table and count_table.json, its one handoff from extract
# ---------------------------------------------------------------------------

WordKey = tuple[str, str]  # (lemma, upos)
WordCell = tuple[str, str, Gender, Optional[Category], Optional[SourceType]]
DayCell = tuple[Gender, Optional[Category], Optional[SourceType], datetime.date]
Slots = tuple[Gender, Optional[Category], Optional[SourceType]]  # a politician set's key
# str() and value of everything an enum slot of a key can hold (None or a
# member), looked up per cell: str() orders serialized cells, value fills them.
_SLOT_STR = {x: str(x) for x in (None, *Gender, *Category, *SourceType)}
_SLOT_VALUE = {x: getattr(x, "value", None) for x in _SLOT_STR}


class CountTable:
    """Aggregate of word-event counts.

    Each attributed (word, mention) pair is counted once into each of two
    dicts:
    - `words`, keyed by (lemma, upos, gender, category, source_type), the
      word counts that every score reads; category is None for words
      outside the lexicon;
    - `days`, keyed by (gender, category, source_type, date), the daily
      totals that only the personalization trends read.
    So the table grows with the vocabulary plus the days, not with their
    product. Politician identities are tracked per (gender, category,
    source_type) so that slices report their own politician tallies.

    A table is built once, from its two dicts and politician sets, and
    only read after that. So each marginal the analyses read over and over
    (the gender totals of `total()`, the per-word gender counts of
    `word_counts()` and the per-day totals of `by_day()`) is summed on its
    first read and returned as is: callers must not mutate it.
    """

    def __init__(
        self,
        words: dict[WordCell, int],
        days: dict[DayCell, int],
        pids: dict[Slots, set[str]],
    ) -> None:
        self.words = words
        self.days = days
        self.pids = pids

    @classmethod
    def from_counts(
        cls,
        words: dict[WordCell, int],
        days: dict[DayCell, int],
        pid_keys: Iterable[tuple[Gender, Optional[Category], Optional[SourceType], str]],
    ) -> "CountTable":
        """A table over counted ``words`` and ``days``, which it takes as
        they are, with each ``(gender, category, source_type, pid)`` of
        ``pid_keys`` adding the politician to its slot's set."""
        pids: dict[Slots, set[str]] = {}
        for g, cat, st, pid in pid_keys:
            members = pids.get((g, cat, st))
            if members is None:
                members = pids[g, cat, st] = set()
            members.add(pid)
        return cls(words, days, pids)

    # -- marginals ---------------------------------------------------------

    @cached_property
    def _totals(self) -> dict[Gender, int]:
        out = {g: 0 for g in Gender}
        for (_, _, g, _, _), n in self.words.items():
            out[g] += n
        return out

    @cached_property
    def _words(self) -> dict[WordKey, dict[Gender, int]]:
        out: dict[WordKey, dict[Gender, int]] = {}
        for (lemma, upos, g, _, _), n in self.words.items():
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
        seen: set[str] = set()
        for (g, _, _), pids in self.pids.items():
            if g == gender:
                seen.update(pids)
        return len(seen)

    def word_counts(self) -> dict[WordKey, dict[Gender, int]]:
        return self._words

    def word_categories(self) -> dict[WordKey, Optional[Category]]:
        """Lexicon category per word; None for out-of-lexicon words."""
        out: dict[WordKey, Optional[Category]] = {}
        for (lemma, upos, _, cat, _) in self.words:
            key = (lemma, upos)
            if cat is not None or key not in out:
                out[key] = cat if cat is not None else out.get(key)
        return out

    def by_day(self, gender: Gender) -> dict[datetime.date, int]:
        return self._days[gender]

    def source_gender_counts(self) -> dict[tuple[SourceType, Gender], int]:
        out: dict[tuple[SourceType, Gender], int] = {}
        for (_, _, g, _, st), n in self.words.items():
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
        category, or all) and one source type (or all), each dict filtered
        alike, so the slice keeps its own day totals and politicians."""
        if category is not None:
            cats: tuple = (category,)
        else:
            cats = (*Category,) if lexicon_only else (None, *Category)
        sts = (source_type,) if source_type is not None else (None, *SourceType)
        return CountTable(
            {k: n for k, n in self.words.items() if k[3] in cats and k[4] in sts},
            {k: n for k, n in self.days.items() if k[1] in cats and k[2] in sts},
            {k: p for k, p in self.pids.items() if k[1] in cats and k[2] in sts},
        )

    # -- serialization -----------------------------------------------------

    def to_csv_rows(self) -> list[tuple[str, str, str, str, str, int]]:
        """Rows (lemma, upos, gender, category, source_type, count), one per
        word cell, sorted; an empty string stands for a None slot."""
        return sorted(
            (lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat] or "", _SLOT_VALUE[st] or "", n)
            for (lemma, upos, g, cat, st), n in self.words.items()
        )

    def to_json_dict(self) -> dict:
        """`cells`: [lemma, upos, gender, category, source_type, null, count]
        rows, the null kept where older files held the day; `days`: [gender,
        category, source_type, "YYYY-MM-DD", count] rows; `politicians`:
        [gender, category, source_type, sorted ids] rows. Each list is
        sorted by the str() of its key's members."""
        # str() of each distinct day, made once: it is the day's ISO date
        day_str = {day: str(day) for day in {key[3] for key in self.days}}

        def word_order(item: tuple[WordCell, int]) -> tuple[str, ...]:
            (lemma, upos, g, cat, st), _ = item
            return lemma, upos, _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st]

        def day_order(item: tuple[DayCell, int]) -> tuple[str, ...]:
            (g, cat, st, day), _ = item
            return _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st], day_str[day]

        cells = [
            [lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], None, n]
            for (lemma, upos, g, cat, st), n in sorted(self.words.items(), key=word_order)
        ]
        days = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], day_str[day], n]
            for (g, cat, st, day), n in sorted(self.days.items(), key=day_order)
        ]
        pids = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], sorted(members)]
            for (g, cat, st), members in sorted(
                self.pids.items(), key=lambda kv: tuple([_SLOT_STR[x] for x in kv[0]])
            )
        ]
        return {"cells": cells, "days": days, "politicians": pids}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountTable":
        """The table of a `to_json_dict` object; a `cells` row with a day,
        or no `days` at all, was written by an older extract."""
        if "days" not in d:
            raise ValueError("no days: written by an older extract; rerun extract")
        words: dict[WordCell, int] = {}
        days: dict[DayCell, int] = {}
        pids: dict[Slots, set[str]] = {}
        decoded: dict[tuple, Slots] = {}  # raw slot values -> members
        dates: dict[str, datetime.date] = {}  # ISO day string -> date
        for lemma, upos, g, cat, st, day, n in d["cells"]:
            if type(n) is not int or n < 0:
                raise ValueError(f"cell count {n!r} is not a non-negative integer")
            if type(lemma) is not str or type(upos) is not str:
                raise ValueError(f"cell word ({lemma!r}, {upos!r}) is not two strings")
            if day is not None:
                raise ValueError(
                    f"cell day {day!r} is not null: written by an older extract; rerun extract"
                )
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            key = (lemma, upos, *slots)
            words[key] = words.get(key, 0) + n
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
            days[key] = days.get(key, 0) + n
        for g, cat, st, members in d["politicians"]:
            if type(members) is not list or any(type(pid) is not str for pid in members):
                raise ValueError(f"politician ids {members!r} are not a list of strings")
            pids.setdefault(_decode_slots(g, cat, st), set()).update(members)
        return cls(words, days, pids)


def _decode_slots(g: str, cat: Optional[str], st: Optional[str]) -> Slots:
    """The (gender, category, source_type) members of serialized slot values."""
    return (
        Gender(g),
        Category(cat) if cat is not None else None,
        SourceType(st) if st is not None else None,
    )


# Each category's records as (grid position k in -5..5, women, online) rows:
# 1 for women and online, 0 for men and traditional, `quantile_regression`'s
# dummy coding. The order matters: jitter and the bootstrap draw per row.
RecordRows = dict[Category, list[tuple[int, int, int]]]
ROW_GENDER = (Gender.M, Gender.F)  # by the women dummy
ROW_SOURCE = (SourceType.TRADITIONAL, SourceType.ONLINE)  # by the online dummy
_RECORD_ROW_KEYS = frozenset(c.value for c in Category)
_RECORD_ROW_GRID = frozenset((k, w, o) for k in range(-5, 6) for w in (0, 1) for o in (0, 1))
_RECORD_ROW_TYPES = (int, int, int)


def count_table_json(table: CountTable, records: Iterable[PersonalizationRecord]) -> dict:
    """count_table.json: the table's word cells, day cells and politicians,
    and under `record_rows` each category's rows of `records`, in record
    order."""
    rows: dict[str, list] = {c.value: [] for c in Category}
    for r in records:
        rows[r.category.value].append(
            (r.fifths, int(r.gender is Gender.F), int(r.source_type is SourceType.ONLINE))
        )
    return {**table.to_json_dict(), "record_rows": rows}


def read_count_table(d: object) -> tuple[CountTable, RecordRows]:
    """The table and the record rows of count_table.json's JSON value `d`.

    `d` must be an object whose `record_rows` hold exactly the category
    keys, each a list of [k, women, online] rows of ints with k in -5..5
    and the dummies 0 or 1, and whose four views agree.
    """
    if type(d) is not dict:
        raise ValueError("the top level is not a JSON object")
    if "record_rows" not in d:
        raise ValueError("no record_rows: written by an older extract; rerun extract")
    raw = d["record_rows"]
    if type(raw) is not dict:
        raise ValueError("record_rows is not a JSON object")
    if raw.keys() != _RECORD_ROW_KEYS:
        raise ValueError(f"record_rows keys {sorted(raw)} are not {sorted(_RECORD_ROW_KEYS)}")
    rows: RecordRows = {}
    for category in Category:
        listed = raw[category.value]
        if type(listed) is not list:
            raise ValueError(f"record_rows/{category.value} is not a list")
        for i, row in enumerate(listed):
            if (
                type(row) is not list
                or tuple(map(type, row)) != _RECORD_ROW_TYPES
                or tuple(row) not in _RECORD_ROW_GRID
            ):
                raise ValueError(
                    f"record_rows/{category.value}/{i} {row!r} is not [k, women, online] "
                    "with k in -5..5 and women, online 0 or 1"
                )
        rows[category] = list(map(tuple, listed))
    table = CountTable.from_json_dict(d)
    _check_count_views(table, rows)
    return table, rows


def _check_count_views(table: CountTable, rows: RecordRows) -> None:
    """Refuse a table whose four views disagree.

    Extract counts each attributed (word, mention) pair once into a word
    cell and once into a day cell, adds the mention's politician to the
    pair's slot, and counts each lexicon word also as one record row; every
    extracted document is dated. So per (gender, category, source_type)
    slot the `days` sum and, for a category, the number of its record rows
    with that (women, online) equal the `cells` sum, and the slot has
    politicians exactly when that sum is above 0.
    """
    cells: dict[Slots, int] = {}
    for (_, _, g, cat, st), n in table.words.items():
        cells[g, cat, st] = cells.get((g, cat, st), 0) + n
    days: dict[Slots, int] = {}
    for (g, cat, st, _), n in table.days.items():
        days[g, cat, st] = days.get((g, cat, st), 0) + n
    recorded: dict[Slots, int] = {}
    for category, listed in rows.items():
        # at most 44 distinct rows, so count them first
        for (_, women, online), n in Counter(listed).items():
            slot = (ROW_GENDER[women], category, ROW_SOURCE[online])
            recorded[slot] = recorded.get(slot, 0) + n
    lexical = {slot: n for slot, n in cells.items() if slot[1] is not None}
    for view, counts, expected in (("days", days, cells), ("record_rows", recorded, lexical)):
        # in file order, so of several slots that disagree the same one is named
        for slot in {**expected, **counts}:
            if counts.get(slot, 0) != expected.get(slot, 0):
                raise ValueError(
                    f"{view} hold {counts.get(slot, 0)} words of slot "
                    f"{json.dumps([_SLOT_VALUE[x] for x in slot])}, "
                    f"cells {expected.get(slot, 0)}"
                )
    for slot in {**cells, **table.pids}:
        members = table.pids.get(slot, ())
        if bool(members) != (cells.get(slot, 0) > 0):
            raise ValueError(
                f"politicians hold {len(members)} ids of slot "
                f"{json.dumps([_SLOT_VALUE[x] for x in slot])}, "
                f"cells {cells.get(slot, 0)}"
            )
