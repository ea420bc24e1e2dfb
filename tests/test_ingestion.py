import datetime
import itertools
import json
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covbias.entities import RoleGazetteer
from covbias.errors import InputError
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
from covbias.sentiment import CLASS_BY_FIFTHS, SentimentClass, aggregate_fifths
from conftest import data_path
from oracles import parse_defects, token_from_row


def metadata_for(text):
    """A metadata entry for every `# newdoc id` in `text`."""
    ids = re.findall(r"#\s*newdoc\s+id\s*=\s*(\S+)", text)
    return {d: Document(d, datetime.date(2018, 1, 1), SourceType.ONLINE) for d in ids}


def run_conllu(text, tmp_path, stopwords=None, lemma_map=None):
    """The (doc_id, Sentence) pairs of `text` read as one CoNLL-U file, and
    the diagnostics."""
    path = tmp_path / "t.conllu"
    path.write_text(text, encoding="utf-8")
    diag = CorpusDiagnostics()
    stream = iter_conllu(path, diag, metadata_for(text), stopwords or set(), lemma_map or {}, set())
    return [(doc.doc_id, sentence) for doc, sentence in stream], diag


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

    def test_empty_nodes_skipped(self, tmp_path):
        text = """# newdoc id = de
# sent_id = de.s0
1\tpiove\tpiovere\tVERB\t_\t_\t0\troot\t_\t_
1.1\tesso\t_\t_\t_\t_\t_\t_\t_\t_
2\tforte\tforte\tADV\t_\t_\t1\tadvmod\t_\t_

"""
        out, _ = run_conllu(text, tmp_path)
        assert [t.surface for t in out[0][1].tokens] == ["piove", "forte"]

    @pytest.mark.parametrize("bad_id", ["-3", "3-", "1-2-3", "-1.5"])
    def test_malformed_id_with_dash_or_dot_names_line(self, tmp_path, bad_id):
        text = """# newdoc id = dm
# sent_id = dm.s0
1\tuna\tuno\tDET\t_\t_\t2\tdet\t_\t_
2\tdonna\tdonna\tNOUN\t_\t_\t0\troot\t_\t_
3\tbella\tbello\tADJ\t_\t_\t2\tamod\t_\t_

""".replace("3\tbella", bad_id + "\tbella")
        with pytest.raises(InputError, match="non-integer ID or HEAD") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 5
        assert repr(bad_id) in str(err.value)

    @pytest.mark.parametrize(
        "line, bad",
        [
            (3, ("+1", "2")),
            (4, ("0_2", "0")),
            (5, ("3", " 2")),
            (5, ("3", "+2")),
            (4, ("２", "0")),
            (5, ("3", "٢")),
            (5, ("3", "2 ")),
        ],
    )
    def test_id_or_head_beyond_ascii_digits_names_line(self, tmp_path, line, bad):
        # int() reads every one of these as a number
        rows = [["1", "una", "uno", "DET", "2", "det"],
                ["2", "donna", "donna", "NOUN", "0", "root"],
                ["3", "bella", "bello", "ADJ", "2", "amod"]]
        rows[line - 3][0], rows[line - 3][4] = bad
        text = "# newdoc id = dn\n# sent_id = dn.s0\n" + "".join(
            f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{rel}\t_\t_\n"
            for i, form, lemma, upos, head, rel in rows
        ) + "\n"
        with pytest.raises(InputError, match="non-integer ID or HEAD") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == line
        assert str(tmp_path / "t.conllu") in str(err.value)

    def test_bad_column_count_names_line(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3\tnsubj\t_\t_", "2\tgatto\tgatto")
        with pytest.raises(InputError) as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_head_out_of_range_is_error(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t9")
        with pytest.raises(InputError):
            run_conllu(text, tmp_path)

    def test_negative_head_is_error_with_line(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t-1")
        with pytest.raises(InputError, match="head -1 of token 2 out of range") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_head_beyond_n_on_a_later_token_names_its_line(self, tmp_path):
        text = WELL_FORMED.replace("3\tdorme\tdormire\tVERB\t_\t_\t0", "3\tdorme\tdormire\tVERB\t_\t_\t9")
        text = text.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "2\tgatto\tgatto\tNOUN\t_\t_\t0")
        with pytest.raises(InputError, match="head 9 of token 3 out of range") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            # a HEAD past the lookup tables takes the checked path to the range check
            ([("1", "200"), ("2", "1")], 3, "head 200 of token 1 out of range in sentence 'dh.s0'"),
            ([("1", "0"), ("2", "1"), ("3", "0128")], 5,
             "head 128 of token 3 out of range in sentence 'dh.s0'"),
            # an ID out of order after rows read by lookup
            ([("1", "0"), ("2", "1"), ("4", "2")], 2, "token ids are not 1..3 in sentence 'dh.s0'"),
            ([("1", "0"), ("2", "1"), ("2", "1")], 2, "token ids are not 1..3 in sentence 'dh.s0'"),
            ([("1", "0"), ("2", "1"), ("03", "1"), ("5", "1")], 2,
             "token ids are not 1..4 in sentence 'dh.s0'"),
        ],
        ids=["head-200", "zero-padded-head-128", "id-gap", "id-repeat", "id-gap-after-padded-id"],
    )
    def test_rows_that_miss_the_lookup_report_as_before(self, tmp_path, rows, line, message):
        text = "# newdoc id = dh\n# sent_id = dh.s0\n" + "".join(
            f"{tok_id}\tgatto\tgatto\tNOUN\t_\t_\t{head}\tdep\t_\t_\n" for tok_id, head in rows
        ) + "\n"
        with pytest.raises(InputError) as err:
            run_conllu(text, tmp_path)
        assert err.value.line == line
        assert str(err.value) == f"{tmp_path / 't.conllu'}: line {line}: {message}"

    def test_bad_ids_reported_before_a_bad_head(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3", "5\tgatto\tgatto\tNOUN\t_\t_\t9")
        with pytest.raises(InputError, match="token ids are not 1..3") as err:
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
        with pytest.raises(InputError):
            run_conllu(text, tmp_path)

    def test_sentence_before_newdoc_is_error(self, tmp_path):
        text = WELL_FORMED.replace("# newdoc id = dx\n", "")
        with pytest.raises(InputError):
            run_conllu(text, tmp_path)

    def test_duplicate_newdoc_is_error(self, tmp_path):
        with pytest.raises(InputError):
            run_conllu(WELL_FORMED + WELL_FORMED, tmp_path)

    @pytest.mark.parametrize("tok_id", ["5", "0"], ids=["gap", "zero"])
    def test_non_contiguous_ids_rejected(self, tok_id, tmp_path):
        text = WELL_FORMED.replace("2\tgatto", f"{tok_id}\tgatto")
        with pytest.raises(InputError, match="token ids are not 1..3"):
            run_conllu(text, tmp_path)

    @pytest.mark.parametrize("comment", ["# newdoc", "# newdoc id =", "#newdoc  "])
    def test_newdoc_without_id_is_error_with_line(self, comment, tmp_path):
        text = WELL_FORMED + WELL_FORMED.replace("# newdoc id = dx", comment).replace("dx.", "dy.")
        with pytest.raises(InputError, match="without 'id") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 7

    @pytest.mark.parametrize("lemma", ["", "_"])
    def test_empty_form_and_lemma_is_error_with_line(self, lemma, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto", f"2\t\t{lemma}")
        with pytest.raises(InputError, match="empty FORM and LEMMA") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_empty_form_with_lemma_is_kept(self, tmp_path):
        out, _ = run_conllu(WELL_FORMED.replace("2\tgatto\tgatto", "2\t\tgatto"), tmp_path)
        token = out[0][1].tokens[1]
        assert (token.surface, token.lemma, token.norm) == ("", "gatto", None)


class TestReaderDispatch:
    """Each kind of line keeps its meaning whatever its first character."""

    SECOND = """# sent_id = dx.s1
1\tpiove\tpiovere\tVERB\t_\t_\t0\troot\t_\t_
"""

    @pytest.mark.parametrize("separator", [" \n", "\t\n", " \t  \n", "\t"])
    def test_whitespace_only_line_ends_the_sentence(self, tmp_path, separator):
        text = WELL_FORMED.rstrip("\n") + "\n" + separator + ("\n" if separator == "\t" else "")
        out, _ = run_conllu(text + self.SECOND, tmp_path)
        assert [(doc, s.index, len(s.tokens)) for doc, s in out] == [("dx", 0, 3), ("dx", 1, 1)]

    def test_token_row_with_leading_space_is_an_id_error(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto", " 2\tgatto")
        with pytest.raises(InputError, match="non-integer ID or HEAD") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4
        assert "' 2'" in str(err.value)

    def test_short_row_with_leading_space_is_a_column_error(self, tmp_path):
        text = WELL_FORMED.replace("2\tgatto\tgatto\tNOUN\t_\t_\t3\tnsubj\t_\t_", " 2\tgatto")
        with pytest.raises(InputError, match="expected 10 tab-separated columns, got 2") as err:
            run_conllu(text, tmp_path)
        assert err.value.line == 4

    def test_text_comment_naming_newdoc_and_sent_id_is_neither(self, tmp_path):
        comment = "# text = newdoc id = dq e sent_id = bogus\n"
        rootless = WELL_FORMED.replace("3\tdorme\tdormire\tVERB\t_\t_\t0", "3\tdorme\tdormire\tVERB\t_\t_\t2")
        # inside the block, after its first row: a newdoc there would be an error
        text = rootless.replace("2\tgatto", comment + "2\tgatto")
        out, diag = run_conllu(text + comment + self.SECOND, tmp_path)
        assert diag.rejected_sentences == [("dx", "dx.s0", "no root token (no head = 0)")]
        assert [(doc, s.index) for doc, s in out] == [("dx", 1)]

    def test_ranges_and_empty_nodes_inside_a_block_are_skipped(self, tmp_path):
        text = WELL_FORMED.replace(
            "2\tgatto",
            "2-3\tgattodorme\t_\t_\t_\t_\t_\t_\t_\t_\n1.1\tesso\t_\t_\t_\t_\t_\t_\t_\t_\n2\tgatto",
        ).replace("3\tdorme", "2.1\tlui\t_\t_\t_\t_\t_\t_\t_\t_\n3\tdorme")
        out, _ = run_conllu(text, tmp_path)
        assert [t.surface for t in out[0][1].tokens] == ["Il", "gatto", "dorme"]

    @pytest.mark.parametrize("tail", ["\n", ""])
    def test_file_without_final_newline(self, tmp_path, tail):
        out, diag = run_conllu(WELL_FORMED.rstrip("\n") + tail, tmp_path)
        assert [t.lemma for t in out[0][1].tokens] == ["il", "gatto", "dormire"]
        assert out[0][1].tokens[2].deprel == "root"
        assert not diag.rejected_sentences

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        path = tmp_path / "crlf.conllu"
        path.write_bytes((WELL_FORMED + self.SECOND).replace("\n", "\r\n").encode("utf-8"))
        metadata = metadata_for(WELL_FORMED + self.SECOND)
        crlf = [
            (doc.doc_id, sentence)
            for doc, sentence in iter_conllu(path, CorpusDiagnostics(), metadata, set(), {}, set())
        ]
        lf, _ = run_conllu(WELL_FORMED + self.SECOND, tmp_path)
        assert crlf == lf


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
# How a row is written besides its FORM and LEMMA: leading zeros on its ID
# and HEAD (which the reader's lookup tables never hold), and a multiword
# range or empty-node row written before it.
_row_layout = st.tuples(
    st.sampled_from([0, 0, 0, 1, 2]), st.sampled_from([0, 0, 0, 1, 2]),
    st.sampled_from([None, None, None, "range", "empty"]),
)
_short_rows = st.lists(
    st.tuples(st.integers(0, len(_ROWS) - 1), st.sampled_from(_UPOS), _row_layout),
    min_size=1, max_size=6,
)
# A sentence longer than the lookup tables (IDs and HEADs past 127): a
# short one repeated.
_long_rows = st.tuples(_short_rows, st.integers(130, 140)).map(lambda p: (p[0] * 140)[: p[1]])
_sentence_rows = st.one_of(_short_rows, _short_rows, _long_rows)
_file_docs = st.lists(st.lists(_sentence_rows, min_size=1, max_size=3), min_size=1, max_size=3)


def _row_lines(i, form, lemma, upos, head, layout):
    """The lines of token `i` as `_row_layout` writes it: an optional
    multiword range or empty node, then the token row. A negative HEAD
    gets no zeros."""
    id_zeros, head_zeros, before = layout
    lines = []
    if before == "range":
        lines.append(f"{i}-{i + 1}\t{form}\t_\t_\t_\t_\t_\t_\t_\t_")
    elif before == "empty":
        lines.append(f"{max(i - 1, 0)}.1\t{form}\t_\t_\t_\t_\t_\t_\t_\t_")
    head_text = "0" * head_zeros + str(head) if head >= 0 else str(head)
    lines.append(f"{'0' * id_zeros}{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{head_text}\tdep\t_\t_")
    return lines


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
                        for i, (row, upos, layout) in enumerate(rows, start=1):
                            form, lemma = _ROWS[row]
                            lines.extend(_row_lines(i, form, lemma, upos, i - 1, layout))
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
    """(ids, heads, form/lemma pairs, layouts) of one CoNLL-U sentence block.

    Ids may have a gap, a repeat or an ID 0; heads are either an acyclic
    tree (each token headed by 0 or an earlier token) or free integers
    from -1 to n + 1 or past the reader's lookup tables, which give
    self-heads, cycles, rootless blocks and out-of-range heads; some rows
    have an empty FORM and LEMMA. A few blocks are longer than the lookup
    tables. Each row's layout (see `_row_layout`) adds leading zeros and
    a range or empty-node row before it.
    """
    n = draw(st.integers(1, 5)) if draw(st.integers(0, 7)) else draw(st.integers(130, 132))

    def rows_of(strategy):
        # at most five drawn values; a longer block repeats them
        drawn = draw(st.lists(strategy, min_size=min(n, 5), max_size=min(n, 5)))
        return (drawn * n)[:n]

    ids = list(range(1, n + 1))
    if draw(st.booleans()):
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0, n + 1, n + 2, 1]))
    # repeated, each head still names 0 or an earlier token
    tree = rows_of(st.integers(0, 4))
    tree = [min(h, k) for k, h in enumerate(tree)]
    if draw(st.booleans()):
        heads = tree
    else:
        heads = rows_of(st.one_of(st.integers(-1, n + 1), st.sampled_from([128, 200])))
    forms = rows_of(st.sampled_from(_PARSE_FORMS))
    if draw(st.integers(0, 3)) == 0:
        forms[draw(st.integers(0, n - 1))] = ("", draw(st.sampled_from(["", "_"])))
    layouts = rows_of(_row_layout)
    return ids, heads, forms, layouts


_PLAIN = [(0, 0, None)] * 3  # layouts of up to three rows written as they are


class TestParseDefectOracle:
    """The reader is the only place a parse is checked: it yields a sentence
    exactly when the checks `Token`, `Sentence` and `DependencyTree` once
    made find no defect in it."""

    @settings(max_examples=300, deadline=None)
    @given(_parse_blocks())
    @example(([1, 2, 3], [2, 1, 0], [("gatto", "gatto")] * 3, _PLAIN))  # cycle beside a root
    @example(([1, 2], [2, 1], [("gatto", "gatto")] * 2, _PLAIN))  # no root
    @example(([1, 2], [0, 1], [("gatto", "gatto")] * 2, _PLAIN))  # sound
    @example(([1, 2], [0, 200], [("gatto", "gatto")] * 2, _PLAIN))  # head past the tables
    @example(([1, 2], [0, 1], [("gatto", "gatto")] * 2, [(1, 1, "range"), (0, 2, "empty")]))
    def test_reader_yields_exactly_the_defect_free_sentences(self, block):
        ids, heads, forms, layouts = block
        rows = [
            line
            for i, h, (form, lemma), layout in zip(ids, heads, forms, layouts)
            for line in _row_lines(i, form, lemma, "NOUN", h, layout)
        ]
        text = "# newdoc id = d0\n# sent_id = d0.s0\n" + "\n".join(rows) + "\n\n"
        doc = Document("d0", datetime.date(2018, 1, 1), SourceType.ONLINE)
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
            except InputError:
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

    @staticmethod
    def at_line(path, n, rest):
        """A pattern for an error that names the file and line `n` first."""
        return f"^{re.escape(f'{path}: line {n}: ')}.*{rest}"

    def test_missing_source_type_names_doc(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "dq", "date": "2020-01-01", "source_id": "x"}\n')
        with pytest.raises(InputError, match=self.at_line(path, 1, "dq")):
            read_metadata(path)

    def test_duplicate_doc_id_rejected(self, tmp_path):
        row = '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(row + row)
        with pytest.raises(InputError, match=self.at_line(path, 2, "duplicate")):
            read_metadata(path)

    def test_window_enforced(self, tmp_path):
        row = '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
        path = tmp_path / "m.jsonl"
        path.write_text(row)
        window = (datetime.date(2017, 1, 1), datetime.date(2019, 12, 31))
        with pytest.raises(InputError, match=self.at_line(path, 1, "window")):
            read_metadata(path, window)

    def test_bad_source_type(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "radio"}\n'
        )
        with pytest.raises(InputError, match=self.at_line(path, 1, "source_type")):
            read_metadata(path)

    @pytest.mark.parametrize("value", ["0", "false", "[]", "{}"])
    def test_falsy_doc_id_is_not_a_string(self, tmp_path, value):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
            f'{{"doc_id": {value}, "date": "2020-01-01", "source_id": "x", '
            '"source_type": "online"}\n'
        )
        with pytest.raises(InputError, match=self.at_line(path, 2, "doc_id .* not a string")):
            read_metadata(path)

    @pytest.mark.parametrize("field", ["", '"doc_id": null, ', '"doc_id": "", '])
    def test_absent_null_or_empty_doc_id_is_missing(self, tmp_path, field):
        path = tmp_path / "m.jsonl"
        path.write_text(
            f'{{{field}"date": "2020-01-01", "source_id": "x", "source_type": "online"}}\n'
        )
        with pytest.raises(InputError, match=self.at_line(path, 1, "missing doc_id$")):
            read_metadata(path)

    @pytest.mark.parametrize("value", ["null", '{"a": 1}', "7"])
    def test_source_id_must_be_a_string(self, tmp_path, value):
        path = tmp_path / "m.jsonl"
        path.write_text(
            '{"doc_id": "dq", "date": "2020-01-01", "source_id": "x", "source_type": "online"}\n'
            f'{{"doc_id": "dr", "date": "2020-01-01", "source_id": {value}, '
            '"source_type": "online"}\n'
        )
        with pytest.raises(InputError, match=self.at_line(path, 2, "source_id .* not a string")):
            read_metadata(path)

    def test_bad_date(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            "\n"
            '{"doc_id": "dq", "date": "2020-13-01", "source_id": "x", "source_type": "online"}\n'
        )
        with pytest.raises(InputError, match=self.at_line(path, 2, "bad date '2020-13-01'")):
            read_metadata(path)

    def test_each_line_checked_when_its_date_repeats(self, tmp_path):
        # the per-call date memo parses a date string once; the window
        # check and the source type still apply to every line
        rows = [
            ("d1", "2018-05-01", "online"),
            ("d2", "2018-05-01", "traditional"),
            ("d3", "2018-05-01", "radio"),
        ]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(
            json.dumps({"doc_id": d, "date": day, "source_id": "x", "source_type": source})
            + "\n" for d, day, source in rows
        ))
        with pytest.raises(InputError, match=self.at_line(path, 3, "unknown source_type 'radio'")):
            read_metadata(path)
        path.write_text(path.read_text().replace("radio", "online"))
        docs = read_metadata(path)
        assert [docs[d] for d in ("d1", "d2", "d3")] == [
            Document("d1", datetime.date(2018, 5, 1), SourceType.ONLINE),
            Document("d2", datetime.date(2018, 5, 1), SourceType.TRADITIONAL),
            Document("d3", datetime.date(2018, 5, 1), SourceType.ONLINE),
        ]
        assert docs["d2"].source_type is SourceType.TRADITIONAL
        window = (datetime.date(2018, 5, 2), datetime.date(2019, 1, 1))
        with pytest.raises(InputError, match=self.at_line(path, 1, "outside analysis window")):
            read_metadata(path, window)


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
        with pytest.raises(InputError, match="d1"):
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
        assert entry.fifths == -4

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text(
            "bello,ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,0,0,0,0,0\n"
        )
        with pytest.raises(InputError, match="duplicate"):
            read_lexicon(path)

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("bello,ADJ,looks,1,1,1,1,1\n")
        with pytest.raises(InputError, match="looks"):
            read_lexicon(path)

    def test_score_outside_range_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        for scores, message in [
            ("1,2,1,1,1", "annotator score 2 not in"),
            ("-2,0,0,0,0", "annotator score -2 not in"),
            ("1,1,1,1,x", "non-integer score"),
            ("1,1,1,1,0.5", "non-integer score"),
            # int() reads each of these as 1; a score is ASCII digits only
            ("1,1,1,1,\u0661", "non-integer score"),
            ("1,1,1,1,+1", "non-integer score"),
            ("1,1,1,1,\uff11", "non-integer score"),
            ("1,1,1,1,\u00a01\u00a0", "non-integer score"),
            ("1,1,1,1,-", "non-integer score"),
            ("1,1,1,1,--1", "non-integer score"),
        ]:
            path.write_text(f"elegante,ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,{scores}\n")
            with pytest.raises(InputError, match=f"lex.csv: line 2: {message}"):
                read_lexicon(path)

    def test_blank_padded_scores_read(self, tmp_path):
        # blanks around a cell are stripped, as in every other column
        path = tmp_path / "lex.csv"
        path.write_text("bello,ADJ,physical, 1 ,\t1,1 , -1,0\n")
        assert read_lexicon(path).get("bello", "ADJ").scores == (1, 1, 1, -1, 0)

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
            assert type(entry.fifths) is int
            assert entry.fifths == aggregate_fifths(entry.scores)
            assert entry.sentiment is CLASS_BY_FIFTHS[entry.fifths]

    def test_stopword_collision_rejected(self, tmp_path):
        path = tmp_path / "lex.csv"
        path.write_text("bello,ADJ,physical,1,1,1,1,1\n")
        with pytest.raises(InputError, match="stopword"):
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
        assert not reg.roles_by_pid_keyword
        assert not reg.roles_by_key
        assert not reg.jurisdictions_by_first

    def test_overlapping_tenure_ambiguity_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Ada;Rossi;F;sindaco:Roma;;2016-01-01..2019-01-01\n"
            "p2;Ugo;Bianchi;M;sindaco:Roma;;2018-01-01..2021-01-01\n"
        )
        with pytest.raises(InputError, match="overlapping"):
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
        with pytest.raises(InputError, match="p1: jurisdiction '-' normalizes to nothing"):
            read_registry(path)

    def test_more_than_seven_fields_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        for extra, fields in ((";extra", 8), (";extra;more", 9)):
            path.write_text(
                "p0;Ugo;Bianchi;M;;;\n"
                f"p1;Anna;Rossi;F;sindaco:Roma;;2017-01-01..{extra}\n"
            )
            pattern = f"^{re.escape(f'{path}: line 2: ')}{fields} fields, expected at most 7"
            with pytest.raises(InputError, match=pattern):
                read_registry(path)

    def test_bad_gender_rejected(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("p1;Ada;Rossi;X;;;\n")
        with pytest.raises(InputError, match="gender"):
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
        with pytest.raises(InputError):
            read_lemma_map(path)

    def test_lemma_map_repeat_of_one_mapping_accepted(self, tmp_path):
        # surfaces that normalize alike with different lemmas are refused
        # (TestInputErrors); the same lemma again is not
        path = tmp_path / "lm.tsv"
        path.write_text("Sceriffa\tsceriffo\n«sceriffa»\tsceriffo\n")
        assert read_lemma_map(path) == {"sceriffa": "sceriffo"}


def _read_one_conllu(path):
    """The corpus stream of one CoNLL-U file whose metadata holds only d1."""
    metadata = metadata_for("# newdoc id = d1")
    return list(read_corpus([path], CorpusDiagnostics(), metadata, set(), {}))


_READERS = {
    "conllu": _read_one_conllu,
    "metadata": read_metadata,
    "registry": read_registry,
    "lexicon": read_lexicon,
    "gazetteer": RoleGazetteer.from_file,
    "lemma map": read_lemma_map,
}
_SENTENCE = "# sent_id = {0}.s0\n1\tgatto\tgatto\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
_META = '{{"doc_id": "{0}", "date": "2018-01-01", "source_id": "x", "source_type": "online"}}\n'


class TestInputErrors:
    """Every reader raises its input defects as one `InputError` that names
    the file and the line (no line only for bytes that are not UTF-8)."""

    @pytest.mark.parametrize(
        "reader, content, line, message",
        [
            ("conllu", "# newdoc id = d1\n# sent_id = d1.s0\n1\tgatto\n\n", 3,
             "expected 10 tab-separated columns, got 2"),
            ("conllu", "# newdoc id = d2\n" + _SENTENCE.format("d2"), 1,
             "document 'd2' has no metadata entry"),
            ("conllu", "# newdoc id = d1\n" + _SENTENCE.format("d1") + "# newdoc id = d2\n", 5,
             "document 'd2' has no metadata entry"),
            ("metadata", _META.format("d1") + _META.format("d1"), 2, "duplicate doc_id 'd1'"),
            # compact ISO forms, which date.fromisoformat reads from Python 3.11 on
            ("metadata", _META.format("d1") + _META.format("d2").replace("2018-01-01", "20180101"), 2,
             "doc 'd2': bad date '20180101'"),
            ("metadata", _META.format("d1").replace("2018-01-01", "2018-W01-1"), 1,
             "doc 'd1': bad date '2018-W01-1'"),
            ("registry", "p1;Ada;Rossi;F;;;\np2;Ugo;Bianchi;M;;;\np1;Ada;Rossi;F;;;\n", 3,
             "duplicate politician id 'p1' (first on line 1)"),
            ("registry",
             "p1;Ada;Rossi;F;sindaco:Roma;;2016-01-01..2019-01-01\n"
             "p2;Ugo;Bianchi;M;sindaco:Roma;;2018-01-01..\n", 2,
             "politicians p1 and p2 both hold (sindaco, roma) with overlapping tenure "
             "(p1 is on line 1)"),
            ("registry", "p0;Ugo;Bianchi;M;;;\np1;Ada;Rossi;F;sindaco:-;;\n", 2,
             "p1: jurisdiction '-' normalizes to nothing"),
            ("registry", "p0;Ugo;Bianchi;M;;;\np1;Ada;--;F;;;\n", 2,
             "p1: surname normalizes to nothing"),
            ("registry", "p1;Chiara;Verdi;F;sindaco:Milano;--, Chiaretta;\n", 1,
             "p1: alias '--' normalizes to nothing"),
            ("registry", "p1;Ada;Rossi;F;sindaco:Roma;;2019-01-01..2018-01-01\n", 1,
             "tenure ends before it starts"),
            ("registry", "p0;Ugo;Bianchi;M;;;\np1;Ada;Rossi;F;sindaco:Roma;;20170101..2018-01-01\n", 2,
             "bad tenure date: Invalid isoformat string: '20170101'"),
            ("registry", "p1;Ada;Rossi;F;sindaco:Roma;;2017-01-01..2018-W01-1\n", 1,
             "bad tenure date: Invalid isoformat string: '2018-W01-1'"),
            ("lexicon", "bello,ADJ,physical,1,1,1,1,1\nbello,ADJ,physical,0,0,0,0,0\n", 2,
             "duplicate entry ('bello', 'ADJ')"),
            # a quoted cell holding a newline: each error names the file line
            # on which its record starts
            ("lexicon",
             '"bel\nlo",ADJ,physical,1,1,1,1,1\n' + "brutto,ADJ,physical,-1,-1,0,-1,-1\n" * 2, 4,
             "duplicate entry ('brutto', 'ADJ')"),
            ("lexicon", 'bello,ADJ,physical,1,1,1,1,1\n"brut\nto",ADJ,looks,1,1,1,1,1\n', 2,
             "unknown category 'looks'"),
            ("lexicon", "caff\xe8,ADJ,physical,1,1,1,1,1\n".encode("latin-1"), None,
             "not UTF-8: cannot decode byte 0xe8"),
            ("gazetteer", "sindaco = sindaca\nministro = sindaca\n", 2,
             "role 'sindaca' mapped to both 'sindaco' and 'ministro'"),
            ("gazetteer", "sindaco = sindaca\n= foo\n", 2, "empty canonical role"),
            ("lemma map", "Sceriffa\tsceriffo\nsceriffa\tsceriffa\n", 2,
             "surface 'sceriffa' mapped to both 'sceriffo' and 'sceriffa'"),
            ("lemma map", "solo_una_colonna\n", 1, "expected surface<TAB>lemma"),
            ("lemma map", "--\tfoo\nsceriffa\tsceriffo\n", 1, "surface '--' has no lexical token"),
        ],
        ids=[
            "conllu-columns", "conllu-no-metadata", "conllu-empty-document-no-metadata",
            "metadata-duplicate", "metadata-compact-date", "metadata-week-date",
            "registry-repeated-pid", "registry-overlapping-tenure",
            "registry-jurisdiction", "registry-surname", "registry-alias", "registry-tenure",
            "registry-compact-tenure", "registry-week-tenure",
            "lexicon-duplicate", "lexicon-duplicate-after-quoted-newline",
            "lexicon-quoted-newline-record", "lexicon-not-utf8", "gazetteer-two-canonical-roles",
            "gazetteer-empty-canonical", "lemma-map-two-lemmas", "lemma-map-columns",
            "lemma-map-no-lexical-surface",
        ],
    )
    def test_error_names_file_and_line(self, tmp_path, reader, content, line, message):
        path = tmp_path / "input"
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        with pytest.raises(InputError) as err:
            _READERS[reader](path)
        assert (err.value.path, err.value.line) == (path, line)
        prefix = f"{path}: " if line is None else f"{path}: line {line}: "
        assert str(err.value) == prefix + message
