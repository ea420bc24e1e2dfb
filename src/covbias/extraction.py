"""Dependency-tree neighborhoods of mentions and personalization records.

A mention's neighborhood holds the content words (ADJ/NOUN/VERB, no
auxiliaries, modals or filtered tokens) within a bounded tree distance of
its span. The walk is a level-by-level BFS that stops at the radius, so a
mention costs only the tokens within it, not the whole sentence.
Neighborhood words intersected with the lexicon become personalization
records; all neighborhood words feed the coverage counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .bias import CountTable
from .entities import MatchDiagnostics, RoleGazetteer, find_mentions
from .lexicon import Lexicon
from .model import (
    Document,
    Gender,
    Mention,
    PersonalizationRecord,
    Sentence,
    Token,
)
from .registry import PoliticianRegistry

CANDIDATE_POS = frozenset({"ADJ", "NOUN", "VERB"})
MODAL_LEMMAS = frozenset({"potere", "dovere", "volere", "solere"})
DIRECTIONS = ("undirected", "children")


class DependencyTree:
    """Adjacency view of one sentence's parse, with distance queries.

    ``heads[i]`` and ``children[i]`` belong to the token at position i
    (1-based; slot 0 is unused). The sentence is trusted to be a tree, as
    every sentence the CoNLL-U reader yields is; its heads are not checked
    again here.
    """

    def __init__(self, sentence: Sentence):
        self.sentence = sentence
        self.heads = [0]
        self.children: list[list[int]] = [[] for _ in range(len(sentence.tokens) + 1)]
        for t in sentence.tokens:
            self.heads.append(t.head)
            if t.head != 0:
                self.children[t.head].append(t.index)

    def distances(
        self,
        sources: Iterable[int],
        direction: str = "undirected",
        limit: Optional[int] = None,
    ) -> dict[int, int]:
        """BFS distance from a source set to every token reached.

        "undirected" walks head and child edges both ways; "children"
        walks only downward, counting tokens inside the subtrees of the
        sources. The walk goes level by level and stops after ``limit``
        steps, so with a limit only tokens within it are returned.
        """
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        upward = direction == "undirected"
        heads, children = self.heads, self.children
        dist = dict.fromkeys(sources, 0)
        frontier = list(dist)
        steps = 0
        while frontier and (limit is None or steps < limit):
            steps += 1
            reached = []
            for node in frontier:
                for other in children[node]:
                    if other not in dist:
                        dist[other] = steps
                        reached.append(other)
                head = heads[node]
                if upward and head != 0 and head not in dist:
                    dist[head] = steps
                    reached.append(head)
            frontier = reached
        return dist


def eligible_word(token: Token) -> bool:
    """Can this token be selected as a neighborhood word at all?"""
    if token.filtered:
        return False
    if token.upos not in CANDIDATE_POS:
        return False
    if token.upos == "VERB" and token.lemma in MODAL_LEMMAS:
        return False
    return True


def neighborhood(
    tree: DependencyTree,
    mention: Mention,
    radius: int,
    direction: str = "undirected",
) -> list[tuple[Token, int]]:
    """Content words within `radius` tree steps of the mention span.

    Returns (token, distance) pairs in sentence order. Mention tokens
    themselves are never words; PROPN stays out (proper nouns are
    entities, not descriptors), as do auxiliaries, modal verbs
    and filtered tokens. Monotone in the radius.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    tokens = tree.sentence.tokens
    out = []
    for index, d in sorted(tree.distances(mention.span, direction, limit=radius).items()):
        if d and eligible_word(tokens[index - 1]):
            out.append((tokens[index - 1], d))
    return out


class DatasetTally:
    """Per-gender descriptive counts for one dataset (coverage or pers.).

    Three structures hold every fact; the document, sentence, word and
    politician counts are derived from them.
    """

    def __init__(self) -> None:
        self.words_per_sentence: dict[Gender, dict[tuple[str, int], int]] = {
            g: {} for g in Gender
        }
        self.pid_sentences: dict[Gender, set[tuple[str, str, int]]] = {g: set() for g in Gender}
        self.lemmas: dict[Gender, set[str]] = {g: set() for g in Gender}

    def add(self, gender: Gender, pid: str, doc_id: str, sent_index: int, lemma: str) -> None:
        per = self.words_per_sentence[gender]
        key = (doc_id, sent_index)
        per[key] = per.get(key, 0) + 1
        self.pid_sentences[gender].add((pid, doc_id, sent_index))
        self.lemmas[gender].add(lemma)

    def to_json_dict(self) -> dict:
        out = {}
        for g in Gender:
            per_sentence = self.words_per_sentence[g]
            per_pid: dict[str, int] = {}
            for pid, _, _ in self.pid_sentences[g]:
                per_pid[pid] = per_pid.get(pid, 0) + 1
            out[g.value] = {
                "politicians": len(per_pid),
                "contents": len({doc_id for doc_id, _ in per_sentence}),
                "sentences": len(per_sentence),
                "words": sum(per_sentence.values()),
                "distinct_words": len(self.lemmas[g]),
                "words_per_sentence": sorted(per_sentence.values()),
                "sentences_per_politician": sorted(per_pid.values()),
            }
        return out


class DescriptiveStats:
    def __init__(self) -> None:
        self.coverage = DatasetTally()
        self.personalization = DatasetTally()

    def to_json_dict(self) -> dict:
        return {
            "coverage": self.coverage.to_json_dict(),
            "personalization": self.personalization.to_json_dict(),
        }


@dataclass
class ExtractionResult:
    records: list[PersonalizationRecord] = field(default_factory=list)
    counts: CountTable = field(default_factory=CountTable)
    descriptives: DescriptiveStats = field(default_factory=DescriptiveStats)
    diagnostics: MatchDiagnostics = field(default_factory=MatchDiagnostics)


def extract_records(
    stream: Iterable[tuple[Document, Sentence]],
    registry: PoliticianRegistry,
    lexicon: Lexicon,
    radius: int = 2,
    direction: str = "undirected",
    gazetteer: Optional[RoleGazetteer] = None,
) -> ExtractionResult:
    """Run mention detection and neighborhood extraction over a stream.

    Every neighborhood word is attributed to its nearest mention in tree
    distance (ties attribute to all tied mentions) and counted in the
    coverage table; words found in the lexicon additionally yield one
    personalization record per occurrence, so a sentence may contribute
    several records.
    """
    gaz = gazetteer if gazetteer is not None else RoleGazetteer()
    result = ExtractionResult()
    lexicon_get, gender_of = lexicon.get, registry.gender_of
    count, record = result.counts.add, result.records.append
    cover = result.descriptives.coverage.add
    personalize = result.descriptives.personalization.add
    for doc, sentence in stream:
        mentions = find_mentions(sentence, doc, registry, gaz, result.diagnostics)
        if not mentions:
            continue
        tree = DependencyTree(sentence)
        spans: set[int] = set()
        for m in mentions:
            spans.update(m.span)
        # token index -> (token, distance, nearest mentions in mention order)
        nearest: dict[int, tuple[Token, int, list[Mention]]] = {}
        for m in mentions:
            for token, d in neighborhood(tree, m, radius, direction):
                if token.index in spans:
                    continue
                best = nearest.get(token.index)
                if best is None or d < best[1]:
                    nearest[token.index] = (token, d, [m])
                elif d == best[1]:
                    best[2].append(m)
        for index in sorted(nearest):
            token, _, tied = nearest[index]
            lemma, upos = token.lemma, token.upos
            entry = lexicon_get(lemma, upos)
            category = entry.category if entry is not None else None
            sentiment = float(entry.aggregate) if entry is not None else None
            for m in tied:
                gender = gender_of(m.pid)
                count(lemma, upos, gender, category, doc.source_type, doc.date, m.pid)
                cover(gender, m.pid, doc.doc_id, sentence.index, lemma)
                if entry is not None:
                    record(
                        PersonalizationRecord(
                            m.pid, gender, doc.doc_id, doc.date, doc.source_type,
                            lemma, upos, category, sentiment, sentence.index,
                        )
                    )
                    personalize(gender, m.pid, doc.doc_id, sentence.index, lemma)
    return result
