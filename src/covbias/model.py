"""Core domain types shared by every stage of the pipeline.

Everything here is immutable after construction and free of I/O and
statistics. Parse structure is checked in one place: the CoNLL-U reader
(`ingestion.iter_conllu`) runs its checks and `tree_defect` on the raw
rows, so `Token` and `Sentence` store what they are given unchecked.
`Token` and `PersonalizationRecord`, built once per token and once per
attributed word, are `typing.NamedTuple`s, the cheapest immutable record
to construct; the other types are frozen dataclasses.
"""

from __future__ import annotations

import datetime
import unicodedata
from dataclasses import dataclass
from enum import Enum
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


def tree_defect(heads: Sequence[int]) -> Optional[str]:
    """Why a head list is not a dependency tree, or None if it is one.

    ``heads[i]`` is the head of token i + 1 (0 for a root) and every head
    must already be in range 0..len(heads). A tree needs a root and every
    head chain must reach it; a token headed by itself is a cycle.
    """
    if 0 not in heads:
        return "no root token (no head = 0)"
    rooted = {0}
    for start in range(1, len(heads) + 1):
        chain = set()
        node = start
        while node not in rooted:
            if node in chain:
                return f"cyclic head chain through token {node}"
            chain.add(node)
            node = heads[node - 1]
        rooted |= chain
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


@dataclass(frozen=True)
class Sentence:
    """One parsed sentence, as the CoNLL-U reader yields it.

    Nothing here is checked: the reader validates the rows before it
    builds any `Token`, so `tokens[i].index == i + 1`, every lemma is
    non-empty, every head is in 0..len(tokens) and the heads form a tree
    (see `tree_defect`). A sentence built by hand must meet the same rules.
    """

    doc_id: str
    index: int  # 0-based ordinal within the document
    tokens: tuple[Token, ...]


@dataclass(frozen=True)
class Document:
    doc_id: str
    date: datetime.date
    source_id: str
    source_type: SourceType


@dataclass(frozen=True)
class Role:
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


@dataclass(frozen=True)
class Politician:
    pid: str
    given_name: str
    surname: str
    gender: Gender
    roles: tuple[Role, ...] = ()
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.surname:
            raise ValueError(f"politician {self.pid}: surname is empty")
        for role in self.roles:
            if not role.keyword:
                raise ValueError(f"politician {self.pid}: role without keyword")


@dataclass(frozen=True)
class Mention:
    """A detected politician mention: a token span within one sentence."""

    pid: str
    doc_id: str
    sentence_index: int
    start: int  # 1-based token index, inclusive
    end: int  # 1-based token index, inclusive
    pattern: MentionPattern

    def __post_init__(self) -> None:
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"invalid mention span ({self.start}, {self.end})")

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
    aggregate_sentiment: float
    sentence_index: int

    def to_json_dict(self) -> dict:
        return {
            "pid": self.pid,
            "gender": self.gender.value,
            "doc_id": self.doc_id,
            "date": self.date.isoformat(),
            "source_type": self.source_type.value,
            "lemma": self.lemma,
            "upos": self.upos,
            "category": self.category.value,
            "aggregate_sentiment": self.aggregate_sentiment,
            "sentence_ref": [self.doc_id, self.sentence_index],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PersonalizationRecord":
        return cls(
            pid=d["pid"],
            gender=Gender(d["gender"]),
            doc_id=d["doc_id"],
            date=datetime.date.fromisoformat(d["date"]),
            source_type=SourceType(d["source_type"]),
            lemma=d["lemma"],
            upos=d["upos"],
            category=Category(d["category"]),
            aggregate_sentiment=d["aggregate_sentiment"],
            sentence_index=d["sentence_ref"][1],
        )
