import dataclasses
import datetime
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import covbias
from covbias.model import (
    Category,
    Gender,
    Mention,
    MentionPattern,
    SourceType,
    normalize_lemma,
    parse_date,
    read_count_table,
    tree_defect,
)
from covbias.lexicon import read_lexicon
from covbias.pipeline import PipelineConfig, record_rows, stage_extract
import corpusgen
from conftest import write_config


class TestNormalizeLemma:
    def test_case_folding(self):
        assert normalize_lemma("Sceriffo") == "sceriffo"

    def test_diacritics_preserved(self):
        assert normalize_lemma("città") == "città"

    def test_punctuation_only_is_non_lexical(self):
        assert normalize_lemma("...") is None

    def test_edge_punctuation_stripped(self):
        assert normalize_lemma("«bello»,") == "bello"

    def test_interior_punctuation_kept(self):
        assert normalize_lemma("d'oro") == "d'oro"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_lemma("")

    @given(st.text(min_size=1, max_size=30))
    def test_idempotent(self, raw):
        once = normalize_lemma(raw)
        if once is not None:
            assert normalize_lemma(once) == once


class TestParseDate:
    def test_reads_calendar_dates(self):
        assert parse_date("2017-11-27") == datetime.date(2017, 11, 27)

    # From Python 3.11 on, date.fromisoformat reads the first three of
    # these; every one is refused on every supported version.
    @pytest.mark.parametrize(
        "raw", ["20171127", "2017-W48-1", "2017W481", "2017-331", "２０17-11-27",
                "2017-11-27 ", "2017-11-27\n", "2017-02-30"],
    )
    def test_refuses_other_forms_as_fromisoformat_does(self, raw):
        with pytest.raises(ValueError, match="^Invalid isoformat string: |day is out of range"):
            parse_date(raw)

    def test_non_string_raises_type_error(self):
        with pytest.raises(TypeError):
            parse_date(20171127)


class TestEnums:
    @pytest.mark.parametrize("enum_cls", [Gender, SourceType, Category, MentionPattern])
    def test_round_trip(self, enum_cls):
        for member in enum_cls:
            assert enum_cls(member.value) is member

    def test_category_values(self):
        assert {c.value for c in Category} == {
            "moral_behavioral",
            "physical",
            "socio_economic",
        }


class TestTreeDefect:
    def test_sound_trees(self):
        assert tree_defect([0]) is None
        assert tree_defect([2, 3, 0]) is None
        assert tree_defect([0, 1, 0]) is None  # two roots are allowed

    def test_cycle_names_first_repeated_token(self):
        assert tree_defect([2, 1, 0]) == "cyclic head chain through token 1"
        assert tree_defect([0, 3, 4, 2]) == "cyclic head chain through token 2"


# The immutable records besides `Token`, by module.
_RECORD_TYPES = [
    getattr(importlib.import_module(f"covbias.{module}"), name)
    for module, names in {
        "model": ("Sentence", "Document", "Role", "Politician", "Mention"),
        "lexicon": ("LexiconEntry",),
        "sentiment": ("AlphaResult",),
        "bias": ("WordBias", "BiasProfile", "SummaryStats", "IndexDistribution",
                 "LeaveOneOutWord", "LeaveOneOutResult"),
        "inference": ("ChiSquareResult", "QuantileModel", "BootstrapCI", "BootstrapResult"),
        "extraction": ("ExtractionResult",),
    }.items()
    for name in names
]


class TestRecordTypes:
    def test_only_mutable_or_configured_types_are_dataclasses(self):
        classes = {
            obj
            for info in pkgutil.iter_modules(covbias.__path__)
            for obj in vars(importlib.import_module(f"covbias.{info.name}")).values()
            if isinstance(obj, type) and obj.__module__.startswith("covbias.")
        }
        assert {c.__name__ for c in classes if dataclasses.is_dataclass(c)} == {
            "PipelineConfig", "CorpusDiagnostics", "MatchDiagnostics",
        }
        assert all(issubclass(cls, tuple) for cls in _RECORD_TYPES)

    @pytest.mark.parametrize("cls", _RECORD_TYPES, ids=lambda cls: cls.__name__)
    def test_record_is_frozen_hashable_and_keeps_its_repr(self, cls):
        values = range(len(cls._fields))
        rec, twin = cls(*values), cls(*values)
        with pytest.raises(AttributeError):
            setattr(rec, cls._fields[0], -1)
        with pytest.raises(AttributeError):
            rec.not_a_field = -1
        assert rec == twin and hash(rec) == hash(twin)
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
        assert repr(rec) == f"{cls.__name__}({fields})"
        copy = pickle.loads(pickle.dumps(rec))
        assert type(copy) is cls and copy == rec


class TestMention:
    def test_span(self):
        m = Mention("p", 2, 4, MentionPattern.NAME_SURNAME)
        assert list(m.span) == [2, 3, 4]


class TestRecordSerialization:
    def test_analyze_loader_reads_the_extracted_records(self, tmp_path):
        """Analyze's rows of count_table.json hold the rows of records.jsonl."""
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        stage_extract(cfg)
        loaded = extracted_rows(cfg)
        assert list(loaded) == list(Category) and all(loaded.values())
        assert all(type(x) is int for rows in loaded.values() for row in rows for x in row)

    def test_analyze_loader_reads_a_generated_corpus(self, tmp_path):
        paths = corpusgen.generate(tmp_path / "in", n_docs=300, seed=7)
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(corpusgen.write_config(paths, out, tmp_path / "cfg.ini"))
        stage_extract(cfg)
        loaded = extracted_rows(cfg)
        assert all(len(rows) > 50 for rows in loaded.values())


def extracted_rows(cfg):
    """The record rows analyze derives from count_table.json in ``cfg``'s
    out/, checked to hold, per category, the rows of records.jsonl there."""
    with open(cfg.path("count_table.json"), encoding="utf-8") as fh:
        table = read_count_table(json.load(fh))
    loaded = record_rows(table, read_lexicon(cfg.lexicon))
    with open(cfg.path("records.jsonl"), encoding="utf-8") as fh:
        header, *records = map(json.loads, fh)
    expected = reference_rows(dict(zip(header, record)) for record in records)
    assert sorted_rows(loaded) == sorted_rows(expected)
    return loaded


def sorted_rows(rows):
    """Each category's rows, sorted: the multiset they hold."""
    return {category: sorted(listed) for category, listed in rows.items()}


def reference_rows(objects):
    """Each category's (k, women, online) rows of records.jsonl records,
    each a dict keyed by the header's columns, in order: 1 for "F" and
    "online"."""
    rows = {c: [] for c in Category}
    for obj in objects:
        rows[Category(obj["category"])].append(
            (
                obj["k"],
                int(obj["gender"] == Gender.F.value),
                int(obj["source_type"] == SourceType.ONLINE.value),
            )
        )
    return rows


# What a fresh interpreter holds after ``import covbias``, and whether numpy
# is loaded once the extract-side modules, the count table's among them,
# are imported as well.
IMPORT_PROBE = """
import json, sys
import covbias
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("covbias."))
import covbias.entities, covbias.extraction, covbias.ingestion, covbias.lexicon
import covbias.model, covbias.registry
print(json.dumps([loaded, "numpy" in sys.modules]))
"""

# Whether ``import numpy`` alone loads numpy.ma, whether a whole run on the
# config named by argv[1] leaves it loaded, and which of numpy.random and the
# modules it pulls in (secrets, hashlib) are loaded after ``import numpy``
# and after the run.
PIPELINE_PROBE = """
import json, sys
RANDOM_SIDE = ("numpy.random", "secrets", "hashlib")
import numpy
ma_with_numpy = "numpy.ma" in sys.modules
random_with_numpy = [m for m in RANDOM_SIDE if m in sys.modules]
from covbias.pipeline import PipelineConfig, run_pipeline
run_pipeline(PipelineConfig.from_ini(sys.argv[1]))
random_after_run = [m for m in RANDOM_SIDE if m in sys.modules]
print(json.dumps([ma_with_numpy, "numpy.ma" in sys.modules, random_with_numpy, random_after_run]))
"""


def run_probe(*args) -> list:
    """The JSON that a fresh interpreter, with the package on its path,
    prints for ``python -c args[0] args[1:]``."""
    src = os.path.dirname(os.path.dirname(covbias.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run(
        [sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


class TestImports:
    def test_package_and_extract_side_modules_load_no_numpy(self):
        loaded, numpy_after_extract_side = run_probe(IMPORT_PROBE)
        assert loaded == []
        assert not numpy_after_extract_side

    def test_whole_run_loads_no_numpy_ma(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.ini", out)
        ma_with_numpy, ma_after_run, *_ = run_probe(PIPELINE_PROBE, cfg)
        if ma_with_numpy:
            pytest.skip("this numpy (1.x) loads numpy.ma on import, so no run can avoid it")
        # The run reached both interpolated-quantile reads.
        summaries = json.loads((out / "summary_stats.json").read_text(encoding="utf-8"))
        coefficients = json.loads((out / "quantile_coefficients.json").read_text(encoding="utf-8"))
        assert any("unweighted" in entry for entry in summaries.values())
        assert any("bootstrap" in e for e in coefficients.values() if isinstance(e, dict))
        assert not ma_after_run

    def test_whole_run_loads_no_numpy_random(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "cfg.ini", out)
        *_, random_with_numpy, random_after_run = run_probe(PIPELINE_PROBE, cfg)
        if random_with_numpy:
            pytest.skip(f"this numpy loads {random_with_numpy} on import, so no run can avoid it")
        # The run drew both the jitter and the bootstrap.
        coefficients = json.loads((out / "quantile_coefficients.json").read_text(encoding="utf-8"))
        entries = [e for e in coefficients.values() if isinstance(e, dict) and "bootstrap" in e]
        assert entries and all("jitter_seed" in e for e in entries)
        assert random_after_run == []
