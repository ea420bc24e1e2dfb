"""Core domain types shared by every stage of the pipeline.

Everything here is immutable after construction and free of I/O and
statistics. Parse structure is checked in one place: the CoNLL-U reader
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
"""

from __future__ import annotations

import datetime
import re
import unicodedata
from enum import Enum
from json.encoder import encode_basestring as _encode_str
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


class _MentionFields(NamedTuple):
    pid: str
    doc_id: str
    sentence_index: int
    start: int  # 1-based token index, inclusive
    end: int  # 1-based token index, inclusive
    pattern: MentionPattern


class Mention(_MentionFields):
    """A detected politician mention: a token span within one sentence."""

    __slots__ = ()

    def __new__(cls, pid, doc_id, sentence_index, start, end, pattern):
        if start < 1 or end < start:
            raise ValueError(f"invalid mention span ({start}, {end})")
        return tuple.__new__(cls, (pid, doc_id, sentence_index, start, end, pattern))

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

