import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from covbias.ingestion import (
    CorpusDiagnostics,
    read_corpus,
    read_lemma_map,
    read_metadata,
    read_stopwords,
)
from covbias import pipeline
from covbias.lexicon import Lexicon, LexiconEntry
from covbias.model import CountTable, Gender, parse_date, read_count_table
from covbias.sentiment import CLASS_BY_FIFTHS

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


@pytest.fixture
def tiny_corpus():
    """A function returning a fresh (Document, Sentence) stream of the
    tiny fixture corpus, read with its stopwords and lemma map."""

    def stream():
        return read_corpus(
            (data_path("tiny.conllu"),),
            CorpusDiagnostics(),
            read_metadata(data_path("metadata.jsonl")),
            read_stopwords(data_path("stopwords.txt")),
            read_lemma_map(data_path("lemma_map.tsv")),
        )

    return stream


def table_from_counts(word_counts: dict, n_f: int, n_m: int) -> CountTable:
    """CountTable from {(lemma, upos): (count_f, count_m)}, undated and
    with no category or source type, plus synthetic politician tallies of
    the requested sizes: politicians f0 and m0 hold every count, and the
    others, zero-count cells of the table's first word, so that no word
    count changes."""
    words = {
        (lemma, upos, gender, None, None, pid): n
        for (lemma, upos), counts in word_counts.items()
        for gender, pid, n in zip((Gender.F, Gender.M), ("f0", "m0"), counts)
        if n
    }
    if words:
        lemma, upos = next(iter(words))[:2]
        for gender, prefix, n in ((Gender.F, "f", n_f), (Gender.M, "m", n_m)):
            for i in range(n):
                words.setdefault((lemma, upos, gender, None, None, f"{prefix}{i}"), 0)
    return CountTable(words, {})


def table_from_events(events) -> CountTable:
    """CountTable of ``(lemma, upos, gender, category, source_type, date,
    pid[, n])`` events, n 1 when left out, each counted into the word dict
    and, when it has a date, into the day dict."""
    words: dict = {}
    days: dict = {}
    for lemma, upos, gender, category, source, day, pid, *n in events:
        n = n[0] if n else 1
        key = (lemma, upos, gender, category, source, pid)
        words[key] = words.get(key, 0) + n
        if day is not None:
            key = (gender, category, source, day)
            days[key] = days.get(key, 0) + n
    return CountTable(words, days)


def sentiment_record(category, gender, source_type, fifths, upos="ADJ"):
    """A record tuple, in `RECORD_COLUMNS` order, with the fields analyze
    reads, the others fixed; its lemma names its category and grid
    position, so one lexicon holds them all."""
    lemma = f"{category.value}{fifths}"
    return ("p", gender, "d", 0, "2018-01-01", source_type, lemma, upos, category, fifths)


def table_of_records(records) -> CountTable:
    """The table extract counts beside ``records`` when they are its only
    attributed words: one word cell and one day cell each."""
    return table_from_events(
        (lemma, upos, gender, category, source, parse_date(day), pid)
        for pid, gender, _, _, day, source, lemma, upos, category, _ in records
    )


def lexicon_of_records(records) -> Lexicon:
    """A lexicon with each record's word, category and grid position."""
    return Lexicon(
        {
            (lemma, upos): LexiconEntry(
                lemma, upos, category, (0,) * 5, k, CLASS_BY_FIFTHS[k]
            )
            for *_, lemma, upos, category, k in records
        }
    )


def record_rows(records):
    """Analyze's per-category rows of ``records``: their table written into
    count_table.json by extract's encoder, read back by analyze's decoder
    and derived with a lexicon of their words."""
    records = list(records)
    text = json.dumps(table_of_records(records).to_json_dict())
    return pipeline.record_rows(read_count_table(json.loads(text)), lexicon_of_records(records))


def write_config(path, out_dir, ma_window=1, bootstrap=100, **extra) -> str:
    """INI config pointing at the tiny fixture corpus."""
    keys = {
        "conllu": data_path("tiny.conllu"),
        "metadata": data_path("metadata.jsonl"),
        "registry": data_path("registry.csv"),
        "lexicon": data_path("lexicon.csv"),
        "stopwords": data_path("stopwords.txt"),
        "lemma_map": data_path("lemma_map.tsv"),
        "out": out_dir,
        "ma_window": ma_window,
        "bootstrap": bootstrap,
    }
    keys.update(extra)
    lines = ["[covbias]"] + [f"{k} = {v}" for k, v in keys.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return str(path)
