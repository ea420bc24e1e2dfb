import datetime
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from covbias.bias import CountTable
from covbias.ingestion import (
    CorpusDiagnostics,
    read_corpus,
    read_lemma_map,
    read_metadata,
    read_stopwords,
)
from covbias.model import Gender, PersonalizationRecord
from covbias.pipeline import _count_table_json, _read_count_table

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
    """CountTable from {(lemma, upos): (count_f, count_m)} plus synthetic
    politician tallies of the requested sizes."""
    cells = {
        (lemma, upos, gender, None, None, None): n
        for (lemma, upos), counts in word_counts.items()
        for gender, n in zip((Gender.F, Gender.M), counts)
        if n
    }
    pid_keys = [(Gender.F, None, None, f"f{i}") for i in range(n_f)]
    pid_keys += [(Gender.M, None, None, f"m{i}") for i in range(n_m)]
    return CountTable.from_counts(cells, pid_keys)


def table_from_events(events) -> CountTable:
    """CountTable of ``(lemma, upos, gender, category, source_type, date,
    pid[, n])`` events, n 1 when left out, counted one at a time into a
    cells dict; a pid of None names no politician."""
    cells: dict = {}
    pid_keys = []
    for lemma, upos, gender, category, source, day, pid, *n in events:
        key = (lemma, upos, gender, category, source, day)
        cells[key] = cells.get(key, 0) + (n[0] if n else 1)
        if pid is not None:
            pid_keys.append((gender, category, source, pid))
    return CountTable.from_counts(cells, pid_keys)


def sentiment_record(category, gender, source_type, fifths, lemma="w", upos="ADJ"):
    """A record with the fields analyze reads, the others fixed."""
    return PersonalizationRecord(
        pid="p",
        gender=gender,
        doc_id="d",
        date=datetime.date(2018, 1, 1),
        source_type=source_type,
        lemma=lemma,
        upos=upos,
        category=category,
        fifths=fifths,
        sentence_index=0,
    )


def record_rows(records):
    """Analyze's per-category rows of ``records``: written into
    count_table.json's record_rows by extract's encoder, and read back by
    analyze's decoder."""
    text = json.dumps(_count_table_json(CountTable({}, {}), records))
    return _read_count_table(io.StringIO(text))[1]


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
