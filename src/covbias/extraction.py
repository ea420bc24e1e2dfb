"""Dependency-tree neighborhoods of mentions and personalization records.

A mention's neighborhood holds the content words (ADJ/NOUN/VERB, no
auxiliaries, modals or filtered tokens) within a bounded tree distance of
its span. The walk is a level-by-level BFS that stops at the radius, so a
mention costs only the tokens within it, not the whole sentence.
Neighborhood words intersected with the lexicon become personalization
records; all neighborhood words feed the coverage counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .bias import CellKey, CountTable
from .entities import MatchDiagnostics, RoleGazetteer, find_mentions
from .lexicon import Lexicon
from .model import (
    Category,
    Document,
    Gender,
    Mention,
    PersonalizationRecord,
    Sentence,
    SourceType,
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


SentenceKey = tuple[Gender, str, str, int]  # (gender, pid, doc_id, sentence index)


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


@dataclass
class ExtractionResult:
    """What extract holds once the stream ends; `descriptives` is the
    descriptives.json object."""

    records: list[PersonalizationRecord]
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
    """Run mention detection and neighborhood extraction over a stream.

    Every neighborhood word is attributed to its nearest mention in tree
    distance (ties attribute to all tied mentions) and counted in the
    coverage table; words found in the lexicon additionally yield one
    personalization record per occurrence, so a sentence may contribute
    several records.

    Each word's category and grid position come from one dict built
    from the lexicon, each mention's gender from one pid -> gender dict.
    Attributed words are counted straight into a plain cell dict plus a
    set of (gender, category, source_type, pid) keys, both bounded by the
    distinct cells, and become the `CountTable` once the stream ends.
    The descriptives come from per-`SentenceKey` counts, the cells and the records.
    """
    gaz = gazetteer if gazetteer is not None else RoleGazetteer()
    records: list[PersonalizationRecord] = []
    diagnostics = MatchDiagnostics()
    words = {key: (e.category, e.fifths) for key, e in lexicon.entries.items()}
    genders = {pid: p.gender for pid, p in registry.politicians.items()}
    cells: dict[CellKey, int] = {}
    pid_keys: set[tuple[Gender, Optional[Category], SourceType, str]] = set()
    covered: dict[SentenceKey, int] = {}
    word_of, cell_count, add_pid_key = words.get, cells.get, pid_keys.add
    covered_count, new_record, record = covered.get, tuple.__new__, records.append
    for doc, sentence in stream:
        mentions = find_mentions(sentence, doc, registry, gaz, diagnostics)
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
        doc_id, date, source_type = doc.doc_id, doc.date, doc.source_type
        sent_index = sentence.index
        for index in sorted(nearest):
            token, _, tied = nearest[index]
            lemma, upos = token.lemma, token.upos
            word = word_of((lemma, upos))
            category = word[0] if word is not None else None
            for m in tied:
                pid = m.pid
                gender = genders[pid]
                key = (lemma, upos, gender, category, source_type, date)
                cells[key] = cell_count(key, 0) + 1
                add_pid_key((gender, category, source_type, pid))
                sent_key = (gender, pid, doc_id, sent_index)
                covered[sent_key] = covered_count(sent_key, 0) + 1
                if word is not None:
                    record(
                        new_record(
                            PersonalizationRecord,
                            (pid, gender, doc_id, date, source_type,
                             lemma, upos, category, word[1], sent_index),
                        )
                    )
    personalized = Counter((r.gender, r.pid, r.doc_id, r.sentence_index) for r in records)
    descriptives = {
        "coverage": dataset_descriptives(covered, {(k[2], k[0]) for k in cells}),
        "personalization": dataset_descriptives(
            personalized, {(r.gender, r.lemma) for r in records}
        ),
    }
    return ExtractionResult(
        records, CountTable.from_counts(cells, pid_keys), descriptives, diagnostics
    )
