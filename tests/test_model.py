import pytest
from hypothesis import given
from hypothesis import strategies as st

from covbias import pipeline
from covbias.model import (
    Category,
    Gender,
    Mention,
    MentionPattern,
    SourceType,
    normalize_lemma,
    tree_defect,
)
from covbias.pipeline import PipelineConfig, stage_extract
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


class TestMention:
    def test_span(self):
        m = Mention("p", "d", 0, 2, 4, MentionPattern.NAME_SURNAME)
        assert list(m.span) == [2, 3, 4]

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            Mention("p", "d", 0, 4, 2, MentionPattern.NAME_SURNAME)


class TestRecordSerialization:
    def test_analyze_loader_reads_the_extracted_records(self, tmp_path):
        """Analyze's four fields per records.jsonl line equal the extract's records."""
        out = tmp_path / "out"
        cfg = PipelineConfig.from_ini(write_config(tmp_path / "cfg.ini", out))
        result = stage_extract(cfg)
        with open(out / "records.jsonl", encoding="utf-8") as fh:
            loaded = pipeline._load_records(fh)
        expected = [
            (r.category, r.gender, r.source_type, r.aggregate_sentiment) for r in result.records
        ]
        assert expected and loaded == expected
        assert {r.category for r in loaded} == set(Category)
        assert all(type(r.category) is Category for r in loaded)
        assert all(type(r.gender) is Gender for r in loaded)
        assert all(type(r.source_type) is SourceType for r in loaded)
