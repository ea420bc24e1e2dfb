import datetime
import itertools
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covbias.errors import ConlluFormatError, LexiconError, MetadataError, RegistryError
from covbias.ingestion import (
    CorpusDiagnostics,
    read_corpus,
    read_lemma_map,
    read_metadata,
    read_stopwords,
    iter_conllu,
)
from covbias.lexicon import read_lexicon
from covbias.model import Document, Gender, Sentence, SourceType
from covbias.registry import read_registry
from covbias.sentiment import SentimentClass, aggregate_score, classify
from conftest import data_path
from oracles import parse_defects, token_from_row


def run_conllu(text, tmp_path, stopwords=None, lemma_map=None):
    path = tmp_path / "t.conllu"
    path.write_text(text, encoding="utf-8")
    diag = CorpusDiagnostics()
    out = list(iter_conllu(path, stopwords or set(), lemma_map or {}, diag, set()))
    return out, diag


WELL_FORMED = """# newdoc id = dx
# sent_id = dx.s0
1\tIl\til\tDET\t_\t_\t2\tdet\t_\t_
2\tgatto\tgatto\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tdorme\tdormire\tVERB\t_\t_\t0\troot\t_\t_

"""


class TestConlluReader:
    def test_well_formed_sentence(self, tmp_path):
        out, diag = run_conllu(WELL_FORMED, tmp_path)
        assert len(out) == 1
        doc_id, sentence = out[0]
        assert doc_id == "dx"
        assert [t.lemma for t in sentence.tokens] == ["il", "gatto", "dormire"]
        assert not diag.rejected_sentences

    def test_lemma_map_overrides_underscore(self, tmp_path):
        text = WELL_FORMED.replace("gatto\tgatto", "gatti\t_")
        out, _ = run_conllu(text, tmp_path, lemma_map={"gatti": "gatto"})
        assert out[0][1].tokens[1].lemma == "gatto"

    def test_lemma_map_overrides_parser_lemma(self, tmp_path):
        out, _ = run_conllu(WELL_FORMED, tmp_path, lemma_map={"gatto": "felino"})
        assert out[0][1].tokens[1].lemma == "felino"

    def test_underscore_lemma_falls_back_to_surface(self, tmp_path):
        text = WELL_FORMED.replace("gatto\tgatto", "Gatto\t_")
        out, _ = run_conllu(text, tmp_path)
        assert out[0][1].tokens[1].lemma == "gatto"

    def test_stopword_flagged_filtered(self, tmp_path):
        out, _ = run_conllu(WELL_FORMED, tmp_path, stopwords={"il"})
        tokens = out[0][1].tokens
        assert tokens[0].filtered and not tokens[1].filtered

    def test_digits_and_urls_filtered(self, tmp_path):
        text = """# newdoc id = dy
# sent_id = dy.s0
1\t2020\t2020\tNUM\t_\t_\t2\tnummod\t_\t_
2\tvisite\tvisita\tNOUN\t_\t_\t0\troot\t_\t_
3\twww.example.com\twww.example.com\tX\t_\t_\t2\tnmod\t_\t_

"""
        out, _ = run_conllu(text, tmp_path)
        tokens = out[0][1].tokens
        assert tokens[0].filtered
        assert not tokens[1].filtered
        assert tokens[2].filtered

    def test_punctuation_only_lemma_filtered(self, tmp_path):
        text = WELL_FORMED.replace("3\tdorme\tdormire\tVERB", "3\t...\t...\tPUNCT")
        out, _ = run_conllu(text, tmp_path)
        assert out[0][1].tokens[2].filtered

    def test_multiword_ranges_skipped(self, tmp_path):
        text = """# newdoc id = dz
# sent_id = dz.s0
1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_
1\tdi\tdi\tADP\t_\t_\t3\tcase\t_\t_
2\til\til\tDET\t_\t_\t3\tdet\t_\t_
3\tmare\tmare\tNOUN\t_\t_\t0\troot\t_\t_

"""
        out, _ = run_conllu(text, tmp_path)
        assert [t.surface for t in out[0][1].tokens] == ["di", "il", "mare"]

    def test_bad_column_count_names_line(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3\tnsubj\t_\t_", "2\tgatto\tgatto")
        with pytest.raises(ConlluFormatError) as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_head_out_of_range_is_error(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t9")
        with pytest.raises(ConlluFormatError):
            run_conllu(text, tmp_path)

    def test_negative_head_is_error_with_line(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t-1")
        with pytest.raises(ConlluFormatError, match="head -1 of token 2 out of range") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 2

    def test_self_head_rejected_as_cycle(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t2")
        out, diag = run_conllu(text, tmp_path)
        assert out == []
        assert diag.rejected_sentences == [("dx", "dx.s0", "cyclic head chain through token 2")]

    def test_cycle_rejected_with_diagnostic(self, tmp_path):
        text = """# newdoc id = dc
# sent_id = dc.s0
1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_
2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_
3\tc\tc\tNOUN\t_\t_\t0\troot\t_\t_

# sent_id = dc.s1
1\tok\tok\tNOUN\t_\t_\t0\troot\t_\t_

"""
        out, diag = run_conllu(text, tmp_path)
        assert len(out) == 1  # only the good sentence survives
        assert out[0][1].index == 1  # rejected sentence still consumed an index
        assert len(diag.rejected_sentences) == 1
        assert "cycl" in diag.rejected_sentences[0][2]

    def test_rootless_sentence_rejected(self, tmp_path):
        text = """# newdoc id = dr
# sent_id = dr.s0
1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_
2\tb\tb\tNOUN\t_\t_\t1\tdep\t_\t_

"""
        out, diag = run_conllu(text, tmp_path)
        assert not out
        assert diag.rejected_sentences[0][2] == "no root token (no head = 0)"

    def test_missing_sent_id_is_error(self, tmp_path):
        text = WELL_FORMED.replace("# sent_id = dx.s0\n", "")
        with pytest.raises(ConlluFormatError):
            run_conllu(text, tmp_path)

    def test_sentence_before_newdoc_is_error(self, tmp_path):
        text = WELL_FORMED.replace("# newdoc id = dx\n", "")
        with pytest.raises(ConlluFormatError):
            run_conllu(text, tmp_path)

    def test_duplicate_newdoc_is_error(self, tmp_path):
        with pytest.raises(ConlluFormatError):
            run_conllu(WELL_FORMED + WELL_FORMED, tmp_path)

    @pytest.mark.parametrize("tok_id", ["5", "0"], ids=["gap", "zero"])
    def test_non_contiguous_ids_rejected(self, tok_id, tmp_path):
        text = WELL_FORMED.replace("2\tgatto", f"{tok_id}\tgatto")
        with pytest.raises(ConlluFormatError, match="token ids are not 1..3"):
            run_conllu(text, tmp_path)

    @pytest.mark.parametrize("comment", ["# newdoc", "# newdoc id =", "#newdoc  "])
    def test_newdoc_without_id_is_error_with_line(self, comment, tmp_path):
        text = WELL_FORMED + WELL_FORMED.replace("# newdoc id = dx", comment).replace("dx.", "dy.")
        with pytest.raises(ConlluFormatError, match="without 'id") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 7

    @pytest.mark.parametrize("lemma", ["", "_"])
    def test_empty_form_and_lemma_is_error_with_line(self, lemma, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto", f"2\t\t{lemma}")
        with pytest.raises(ConlluFormatError, match="empty FORM and LEMMA") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_empty_form_with_lemma_is_kept(self, tmp_path):
        out, _ = run_conllu(WELL_FORMED.replace("2\tgatto\tgatto", "2\t\tgatto"), tmp_path)
        token = out[0][1].tokens[1]
        assert (token.surface, token.lemma, token.norm) == ("", "gatto", None)


# FORM/LEMMA pairs with repeats, one FORM under two LEMMAs, case and edge
# punctuation variants that normalize alike, `_` lemmas, stopwords, digits,
# URLs and punctuation-only forms (norm None).
_ROWS = [
    ("il", "il"), ("Il", "il"), ("IL", "_"), ("di", "di"),
    ("gatto", "gatto"), ("Gatto", "_"), ("«Gatto»", "gatto"), ("gatti", "_"),
    ("gatti", "gatto"), ("sta", "stare"), ("sta", "essere"), ("Roma", "Roma"),
    ("lunga", "lungo"), ("Lunga", "lungo"), ("2020", "2020"), ("3,5", "_"),
    ("www.esempio.it", "www.esempio.it"), ("http://x.it/a", "_"), (".", "."),
    ("...", "_"), ("«", "«"), ("—", "_"), ("", "casa"), ("x", ""),
]
_UPOS = ["NOUN", "ADJ", "PUNCT"]
_sentence_rows = st.lists(
    st.tuples(st.integers(0, len(_ROWS) - 1), st.sampled_from(_UPOS)), min_size=1, max_size=6
)
_file_docs = st.lists(st.lists(_sentence_rows, min_size=1, max_size=3), min_size=1, max_size=3)


class TestFormMemoOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        files=st.lists(_file_docs, min_size=1, max_size=2),
        stopwords=st.sets(st.sampled_from(["il", "di", "gatto", "stare"])),
        lemma_map=st.dictionaries(
            st.sampled_from(["gatti", "sta", "roma", "lunga", "il"]),
            st.sampled_from(["gatto", "stare", "città", "_"]),
        ),
    )
    def test_tokens_match_row_by_row_derivation(self, files, stopwords, lemma_map):
        expected = []
        with tempfile.TemporaryDirectory() as tmp:
            conllu, meta = [], []
            for f, docs in enumerate(files):
                lines = []
                for d, sentences in enumerate(docs):
                    doc_id = f"f{f}d{d}"
                    meta.append(json.dumps({
                        "doc_id": doc_id, "date": "2018-01-01",
                        "source_id": "x", "source_type": "online",
                    }))
                    lines.append(f"# newdoc id = {doc_id}")
                    for s_index, rows in enumerate(sentences):
                        lines.append(f"# sent_id = {doc_id}.s{s_index}")
                        tokens = []
                        for i, (row, upos) in enumerate(rows, start=1):
                            form, lemma = _ROWS[row]
                            lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{i - 1}\tdep\t_\t_")
                            tokens.append(
                                token_from_row(i, form, lemma, upos, i - 1, "dep", stopwords, lemma_map)
                            )
                        lines.append("")
                        expected.append((doc_id, s_index, tuple(tokens)))
                conllu.append(os.path.join(tmp, f"part{f}.conllu"))
                with open(conllu[-1], "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            paths = {}
            for name, lines in (
                ("metadata.jsonl", meta),
                ("stopwords.txt", sorted(stopwords)),
                ("lemma_map.tsv", [f"{k}\t{v}" for k, v in lemma_map.items()]),
            ):
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write("".join(line + "\n" for line in lines))
            stream = read_corpus(
                conllu,
                CorpusDiagnostics(),
                read_metadata(paths["metadata.jsonl"]),
                read_stopwords(paths["stopwords.txt"]),
                read_lemma_map(paths["lemma_map.tsv"]),
            )
            got = [(doc.doc_id, s.index, s.tokens) for doc, s in stream]
        assert got == expected


_PARSE_FORMS = [("gatto", "gatto"), ("Roma", "_"), (".", "."), ("", "casa")]


@st.composite
def _parse_blocks(draw):
    """(ids, heads, form/lemma pairs) of one CoNLL-U sentence block.

    Ids may have a gap, a repeat or an ID 0; heads are either an acyclic
    tree (each token headed by 0 or an earlier token) or free integers
    from -1 to n + 1, which give self-heads, cycles, rootless blocks and
    out-of-range heads; some rows have an empty FORM and LEMMA.
    """
    n = draw(st.integers(1, 5))
    ids = list(range(1, n + 1))
    if draw(st.booleans()):
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, n + 1, n + 2, 1]))
    tree = [draw(st.integers(0, k - 1)) for k in range(1, n + 1)]
    heads = draw(st.one_of(
        st.just(tree),
        st.lists(st.integers(-1, n + 1), min_size=n, max_size=n),
    ))
    forms = draw(st.lists(st.sampled_from(_PARSE_FORMS), min_size=n, max_size=n))
    if draw(st.integers(0, 3)) == 0:
        forms[draw(st.integers(0, n - 1))] = ("", draw(st.sampled_from(["", "_"])))
    return ids, heads, forms


class TestParseDefectOracle:
    """The reader is the only place a parse is checked: it yields a sentence
    exactly when the checks `Token`, `Sentence` and `DependencyTree` once
    made find no defect in it."""

    @settings(max_examples=300, deadline=None)
    @given(_parse_blocks())
    @example(([1, 2, 3], [2, 1, 0], [("gatto", "gatto")] * 3))  # cycle beside a root
    @example(([1, 2], [2, 1], [("gatto", "gatto")] * 2))  # no root
    @example(([1, 2], [0, 1], [("gatto", "gatto")] * 2))  # sound
    def test_reader_yields_exactly_the_defect_free_sentences(self, block):
        ids, heads, forms = block
        rows = [
            f"{i}\t{form}\t{lemma}\tNOUN\t_\t_\t{h}\tdep\t_\t_"
            for i, h, (form, lemma) in zip(ids, heads, forms)
        ]
        text = "# newdoc id = d0\n# sent_id = d0.s0\n" + "\n".join(rows) + "\n\n"
        doc = Document("d0", datetime.date(2018, 1, 1), "x", SourceType.ONLINE)
        as_written = Sentence("d0", 0, tuple(
            token_from_row(i, form, lemma, "NOUN", h, "dep", set(), {})
            for i, h, (form, lemma) in zip(ids, heads, forms)
        ))
        diag = CorpusDiagnostics()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.conllu")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            try:
                got = list(read_corpus([path], diag, {"d0": doc}, set(), {}))
            except ConlluFormatError:
                got = None
        for _, sentence in got or []:
            assert parse_defects(sentence) == []
        if parse_defects(as_written):
            assert not got
        else:
            assert got == [(doc, as_written)] and not diag.rejected_sentences


class TestMetadata:
    def test_reads_documents(self):
        docs = read_metadata(data_path("metadata.jsonl"))
        assert docs["d1"].source_type is SourceType.TRADITIONAL
        assert docs["d2"].date == datetime.date(2018, 7, 16)

    def test_missing_source_type_names_doc(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "dq", "date": "2020-01-01", "source_id": "x"}\n')
        with pytest.raises(MetadataError, match="dq"):
            read_metadata(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        row = '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(row + row)
        with pytest.raises(MetadataError, match="duplicate"):
            read_metadata(path)

    def test_window_enforced(self, tmp_path):
        row = '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(row)
        window = (datetime.date(2017, 1, 1), datetime.date(2019, 12, 31))
        with pytest.raises(MetadataError, match="window"):
            read_metadata(path, window)

    def test_bad_source_type(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "radio"}\n'
        )
        with pytest.raises(MetadataError, match="source_type"):
            read_metadata(path)


class TestReadCorpus:
    def test_stream_matches_fixture(self, tiny_corpus):
        pairs = list(tiny_corpus())
        assert len(pairs) == 6
        assert [doc.doc_id for doc, _ in pairs] == ["d1", "d1", "d2", "d2", "d3", "d3"]
        assert [s.index for _, s in pairs] == [0, 1, 0, 1, 0, 1]

    def test_unknown_doc_id_is_error(self, tmp_path):
        meta = tmp_path / "m.jsonl"
        meta.write_text(
            '{"doc_id": "other", "date": "2018-01-01", "source_id": "x", "source_type": "online"}\n'
        )
        stream = read_corpus(
            (data_path("tiny.conllu"),), CorpusDiagnostics(), read_metadata(meta), set(), {}
        )
        with pytest.raises(MetadataError, match="d1"):
            list(stream)

    def test_streaming_is_lazy(self, tiny_corpus):
        stream = tiny_corpus()
        first = next(stream)
        assert first[0].doc_id == "d1"

    def test_deterministic(self, tiny_corpus):
        a = [(d.doc_id, s.index, tuple(t.lemma for t in s.tokens)) for d, s in tiny_corpus()]
        b = [(d.doc_id, s.index, tuple(t.lemma for t in s.tokens)) for d, s in tiny_corpus()]
        assert a == b


class TestLexicon:
    def test_fixture_loads(self):
        lex = read_lexicon(data_path("lexicon.csv"))
        entry = lex.get("sceriffo", "NOUN")
        assert entry.scores == (-1, -1, 0, -1, -1)
        assert entry.sentiment is SentimentClass.STRONG_NEGATIVE
        assert float(entry.aggregate) == -0.8

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text(
            "bello,ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,0,0,0,0,0\n"
        )
        with pytest.raises(LexiconError, match="duplicate"):
            read_lexicon(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("bello,ADJ,looks,1,1,1,1,1\n")
        with pytest.raises(LexiconError, match="looks"):
            read_lexicon(path)

    def test_score_outside_range_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        for scores, message in [
            ("1,2,1,1,1", "annotator score 2 not in"),
            ("-2,0,0,0,0", "annotator score -2 not in"),
            ("1,1,1,1,x", "non-integer score"),
            ("1,1,1,1,0.5", "non-integer score"),
        ]:
            path.write_text(f"elegante,ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,{scores}\n")
            with pytest.raises(LexiconError, match=f"lex.csv: line 2: {message}"):
                read_lexicon(path)

    def test_entries_carry_aggregate_and_class_of_their_scores(self, tmp_path):
        # every vector of five scores in -1..1, so every grid value occurs
        vectors = list(itertools.product((-1, 0, 1), repeat=5))
        path = tmp_path / "lex.csv"
        path.write_text(
            "".join(
                f"parola{i},NOUN,physical,{','.join(map(str, v))}\n"
                for i, v in enumerate(vectors)
            )
        )
        entries = list(read_lexicon(path)) + list(read_lexicon(data_path("lexicon.csv")))
        assert len(entries) == len(vectors) + 13
        assert {sum(e.scores) for e in entries} == set(range(-5, 6))
        for entry in entries:
            assert type(entry.aggregate) is Fraction
            assert entry.aggregate == aggregate_score(entry.scores)
            assert entry.sentiment is classify(aggregate_score(entry.scores))

    def test_stopword_collision_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("bello,ADJ,physical,1,1,1,1,1\n")
        with pytest.raises(LexiconError, match="stopword"):
            read_lexicon(path, stopwords={"bello"})

    def test_class_distribution(self):
        lex = read_lexicon(data_path("lexicon.csv"))
        from covbias.model import Category

        dist = lex.class_distribution(Category.PHYSICAL)
        assert sum(dist.values()) == 4


class TestRegistry:
    def test_fixture_indexes(self):
        reg = read_registry(data_path("registry.csv"))
        assert reg.surnames[("appendino",)] == {"p_app"}
        assert reg.full_names[("chiara", "appendino")] == {"p_app"}
        assert reg.surnames[("de", "luca")] == {"p_del"}
        holders = reg.holders_of_role(
            "sindaco", ("torino",), datetime.date(2018, 1, 1)
        )
        assert holders == {"p_app"}

    def test_tenure_gates_role(self):
        reg = read_registry(data_path("registry.csv"))
        assert not reg.holders_of_role(
            "sindaco", ("torino",), datetime.date(2010, 1, 1)
        )

    def test_empty_roles_accepted(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("p1;Ada;Rossi;F;;;\n")
        reg = read_registry(path)
        assert reg.surnames[("rossi",)] == {"p1"}
        assert not reg.roles_by_keyword

    def test_overlapping_tenure_ambiguity_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Ada;Rossi;F;sindaco:Roma;;2016-01-01..2019-01-01\n"
            "p2;Ugo;Bianchi;M;sindaco:Roma;;2018-01-01..2021-01-01\n"
        )
        with pytest.raises(RegistryError, match="overlapping"):
            read_registry(path)

    def test_disjoint_tenures_accepted(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Ada;Rossi;F;sindaco:Roma;;2016-01-01..2018-01-01\n"
            "p2;Ugo;Bianchi;M;sindaco:Roma;;2018-01-02..2021-01-01\n"
        )
        reg = read_registry(path)
        assert reg.holders_of_role("sindaco", ("roma",), datetime.date(2017, 6, 1)) == {"p1"}
        assert reg.holders_of_role("sindaco", ("roma",), datetime.date(2019, 6, 1)) == {"p2"}

    def test_jurisdiction_without_lexical_token_rejected(self, tmp_path):
        # An empty jurisdiction tuple would match after every "sindaco di".
        path = tmp_path / "reg.csv"
        path.write_text("p1;Ada;Rossi;F;sindaco:-;;\n")
        with pytest.raises(RegistryError, match="p1: jurisdiction '-' normalizes to nothing"):
            read_registry(path)

    def test_bad_gender_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("p1;Ada;Rossi;X;;;\n")
        with pytest.raises(RegistryError, match="gender"):
            read_registry(path)

    def test_aliases_indexed(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("p1;Giuseppe;Sala;M;sindaco:Milano;Beppe Sala;\n")
        reg = read_registry(path)
        assert reg.full_names[("beppe", "sala")] == {"p1"}


class TestSideFiles:
    def test_stopwords_normalized(self, tmp_path):
        path = tmp_path / "sw.txt"
        path.write_text("Il\nDELLA\n\n# comment\n")
        assert read_stopwords(path) == {"il", "della"}

    def test_lemma_map_parsing(self):
        assert read_lemma_map(data_path("lemma_map.tsv")) == {"sceriffa": "sceriffo"}

    def test_lemma_map_bad_row(self, tmp_path):
        path = tmp_path / "lm.tsv"
        path.write_text("solo_una_colonna\n")
        with pytest.raises(MetadataError):
            read_lemma_map(path)
