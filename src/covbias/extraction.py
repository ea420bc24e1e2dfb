"""Attribution of content words to politician mentions, and the
personalization records and counts built from it.

A sentence's content words are its ADJ/NOUN/VERB tokens that are not
modal verbs or filtered tokens and lie outside every mention span; PROPN
stays out, since proper nouns are entities, not descriptors.
`attribute` gives each one within a bounded tree distance of some mention
to its nearest mentions, ties to all of them, in one level-by-level walk
per sentence that stops at the radius, so a sentence costs only the
tokens within it. Attributed words feed the coverage counts; those found
in the lexicon also become personalization records, one plain tuple each
in `RECORD_COLUMNS` order: records.jsonl's rows.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .entities import MatchDiagnostics, RoleGazetteer, find_mentions
from .lexicon import Lexicon
from .model import (
    Category,
    CountTable,
    DayCell,
    Document,
    Gender,
    Mention,
    Sentence,
    SourceType,
    Token,
    WordCell,
)
from .registry import PoliticianRegistry

CANDIDATE_POS = frozenset({"ADJ", "NOUN", "VERB"})
MODAL_LEMMAS = frozenset({"potere", "dovere", "volere", "solere"})
DIRECTIONS = ("undirected", "children")

# Sentences extract takes from the stream before it matches, attributes
# and counts them, one phase at a time (see `extract_records`); at most
# this many are held ahead of the reader.
BLOCK_SENTENCES = 256


def eligible_word(token: Token) -> bool:
    """Can this token be attributed as a word at all?"""
    if token.filtered:
        return False
    if token.upos not in CANDIDATE_POS:
        return False
    if token.upos == "VERB" and token.lemma in MODAL_LEMMAS:
        return False
    return True


def attribute(
    sentence: Sentence, mentions: Sequence[Mention], radius: int, direction: str
) -> list[tuple[Token, list[Mention]]]:
    """Each content word within `radius` tree steps of some mention, with
    the mentions nearest to it in tree distance (all of them on a tie).

    Returns (token, nearest mentions) pairs in sentence order, the
    mentions in their given order. One level-by-level walk starts from
    the spans of all mentions at once: span tokens are level 0 and are
    never words, and a token reached first at level d belongs to every
    mention that reached it at that level, kept as a bitmask over mention
    positions. A walk that meets another mention's span stops there,
    since that mention is strictly nearer to everything beyond it.
    "undirected" steps along head and child edges, "children" only down
    to children. `eligible_word` filters the output, not the walk. The
    caller checks `radius` >= 1 and `direction` in `DIRECTIONS`.
    """
    tokens = sentence.tokens
    heads = [0]
    children: list[list[int]] = [[] for _ in range(len(tokens) + 1)]
    for t in tokens:
        heads.append(t.head)
        children[t.head].append(t.index)  # slot 0 collects the roots, never walked
    upward = direction == "undirected"
    owners: dict[int, int] = {}  # token index -> bitmask of its nearest mentions
    for bit, m in enumerate(mentions):
        for index in m.span:
            owners[index] = owners.get(index, 0) | 1 << bit
    frontier: dict[int, int] = owners
    reached: dict[int, int] = {}  # the same, for tokens beyond level 0
    for _ in range(radius):
        level: dict[int, int] = {}
        for node, mask in frontier.items():
            for other in children[node]:
                if other not in owners:
                    level[other] = level.get(other, 0) | mask
            head = heads[node]
            if upward and head and head not in owners:
                level[head] = level.get(head, 0) | mask
        if not level:
            break
        owners.update(level)
        reached.update(level)
        frontier = level
    out = []
    tied: dict[int, list[Mention]] = {}
    for index in sorted(reached):
        token = tokens[index - 1]
        if eligible_word(token):
            mask = reached[index]
            group = tied.get(mask)
            if group is None:
                group = tied[mask] = [m for bit, m in enumerate(mentions) if mask >> bit & 1]
            out.append((token, group))
    return out


SentenceKey = tuple[Gender, str, str, int]  # (gender, pid, doc_id, sentence index)

# A personalization record's fields: records.jsonl's header line, and the
# order of each record tuple extract builds. The date is ISO text and k the
# word's grid position (5 x its aggregate sentiment, in -5..5).
RECORD_COLUMNS = (
    "pid", "gender", "doc_id", "sentence", "date", "source_type", "lemma", "upos", "category", "k",
)
Record = tuple[str, Gender, str, int, str, SourceType, str, str, Category, int]


def dataset_descriptives(
    words: Mapping[SentenceKey, int], lemmas: set[tuple[Gender, str]]
) -> dict:
    """One dataset's (coverage or personalization) per-gender entries of
    descriptives.json, from its attributed words per `SentenceKey` and its
    distinct (gender, lemma) pairs. The lists are sorted."""
    out = {}
    for g in Gender:
        per_sentence: dict[tuple[str, int], int] = {}
        per_pid: dict[str, int] = {}
        for (key_gender, pid, doc_id, sent_index), n in words.items():
            if key_gender == g:
                sent = (doc_id, sent_index)
                per_sentence[sent] = per_sentence.get(sent, 0) + n
                per_pid[pid] = per_pid.get(pid, 0) + 1
        out[g.value] = {
            "politicians": len(per_pid),
            "contents": len({doc_id for doc_id, _ in per_sentence}),
            "sentences": len(per_sentence),
            "words": sum(per_sentence.values()),
            "distinct_words": sum(lemma_gender == g for lemma_gender, _ in lemmas),
            "words_per_sentence": sorted(per_sentence.values()),
            "sentences_per_politician": sorted(per_pid.values()),
        }
    return out


class ExtractionResult(NamedTuple):
    """What extract holds once the stream ends; `descriptives` is the
    descriptives.json object."""

    records: list[Record]
    counts: CountTable
    descriptives: dict
    diagnostics: MatchDiagnostics


def extract_records(
    stream: Iterable[tuple[Document, Sentence]],
    registry: PoliticianRegistry,
    lexicon: Lexicon,
    radius: int = 2,
    direction: str = "undirected",
    gazetteer: Optional[RoleGazetteer] = None,
) -> ExtractionResult:
    """Run mention detection and attribution over a stream.

    Every word `attribute` finds is counted once per nearest mention in
    the coverage table; words found in the lexicon additionally yield one
    personalization record per (word, mention) pair, so a sentence may
    contribute several records. `radius` and `direction` are checked
    once, before the stream is read.

    The stream is taken `BLOCK_SENTENCES` (doc, sentence) pairs at a
    time: `find_mentions` runs on every sentence of the block, then
    `attribute` on every sentence with mentions, then the counting loop
    over their results, before the reader resumes. These are the calls a
    sentence-at-a-time loop makes, in the same order, so every count,
    record and diagnostic is the same. Each phase runs over many
    sentences while its code and data are hot: reading and extracting
    the 4000-document bench corpus took 166 ms with blocks of 1 sentence,
    149 ms with 4, 125 ms with 64 or 256, and 132-136 ms with 1024 or
    the whole corpus held at once (best of 7, CPython 3.11 on one vCPU
    of a 2-vCPU Xeon VM). Memory holds one block of sentences beyond the
    one the reader is building.

    Each word's category and grid position come from one dict built
    from the lexicon, each mention's gender from one pid -> gender dict,
    and each document's ISO date text is made once. Each (word, mention)
    pair is counted once into a word dict and once into a day dict
    (`CountTable`'s two keys); the two become the `CountTable` once the
    stream ends. The descriptives come from per-`SentenceKey` counts of
    all attributed words and of the lexicon ones, and from the word dict's
    keys.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    gaz = gazetteer if gazetteer is not None else RoleGazetteer()
    records: list[Record] = []
    diagnostics = MatchDiagnostics()
    words = {key: (e.category, e.fifths) for key, e in lexicon.entries.items()}
    genders = {pid: p.gender for pid, p in registry.politicians.items()}
    word_cells: dict[WordCell, int] = {}
    day_cells: dict[DayCell, int] = {}
    covered: dict[SentenceKey, int] = {}
    personalized: dict[SentenceKey, int] = {}
    word_of, word_count, day_count = words.get, word_cells.get, day_cells.get
    covered_count, personalized_count, record = covered.get, personalized.get, records.append
    current = None  # the document whose fields are unpacked below
    stream = iter(stream)
    while block := list(islice(stream, BLOCK_SENTENCES)):
        found = [
            find_mentions(sentence, doc, registry, gaz, diagnostics) for doc, sentence in block
        ]
        walked = [
            (doc, sentence.index, attribute(sentence, mentions, radius, direction))
            for (doc, sentence), mentions in zip(block, found)
            if mentions
        ]
        for doc, sent_index, pairs in walked:
            if doc is not current:
                current = doc
                doc_id, date, source_type = doc
                day = date.isoformat()
            for token, tied in pairs:
                lemma, upos = token.lemma, token.upos
                word = word_of((lemma, upos))
                category = word[0] if word is not None else None
                for m in tied:
                    pid = m.pid
                    gender = genders[pid]
                    key = (lemma, upos, gender, category, source_type, pid)
                    word_cells[key] = word_count(key, 0) + 1
                    key = (gender, category, source_type, date)
                    day_cells[key] = day_count(key, 0) + 1
                    sent_key = (gender, pid, doc_id, sent_index)
                    covered[sent_key] = covered_count(sent_key, 0) + 1
                    if word is not None:
                        personalized[sent_key] = personalized_count(sent_key, 0) + 1
                        record((pid, gender, doc_id, sent_index, day, source_type,
                                lemma, upos, category, word[1]))
    descriptives = {
        "coverage": dataset_descriptives(covered, {(k[2], k[0]) for k in word_cells}),
        "personalization": dataset_descriptives(
            personalized, {(k[2], k[0]) for k in word_cells if k[3] is not None}
        ),
    }
    return ExtractionResult(records, CountTable(word_cells, day_cells), descriptives, diagnostics)
