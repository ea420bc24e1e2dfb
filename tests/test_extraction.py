import datetime
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import extraction
from covbias.entities import find_mentions
from covbias.extraction import BLOCK_SENTENCES, attribute, dataset_descriptives, extract_records
from covbias.ingestion import CorpusDiagnostics, read_corpus, read_metadata, read_stopwords
from covbias.lexicon import read_lexicon
from covbias.model import (
    CountTable,
    Document,
    Gender,
    Mention,
    MentionPattern,
    Sentence,
    SourceType,
    Token,
    normalize_lemma,
)
from covbias.registry import read_registry
import corpusgen
from conftest import data_path
from oracles import (
    SevenStructureTally,
    extract_records_reference,
    neighborhood_reference,
    record_json_dict,
)


def sentence_from(rows, doc_id="d", index=0):
    tokens = tuple(
        Token(
            i + 1, surface, lemma, upos, head, "dep",
            filtered=filtered, norm=normalize_lemma(surface),
        )
        for i, (surface, lemma, upos, head, filtered) in enumerate(rows)
    )
    return Sentence(doc_id=doc_id, index=index, tokens=tokens)


def mention(start, end, pid="p"):
    return Mention(pid, start, end, MentionPattern.NAME_SURNAME)


def reach(sent, start, end, radius, direction="undirected"):
    """Indexes of the words one mention over tokens start..end is given."""
    pairs = attribute(sent, [mention(start, end)], radius, direction)
    return [t.index for t, _ in pairs]


class TestDependencyTree:
    """Tree distance, seen as the least radius at which a word is reached."""

    def test_chain_distances(self):
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 3, False), ("c", "c", "NOUN", 0, False)]
        )
        assert reach(sent, 1, 1, radius=1) == [2]
        assert reach(sent, 1, 1, radius=2) == [2, 3]
        assert reach(sent, 3, 3, radius=1) == [2]
        assert reach(sent, 3, 3, radius=2) == [1, 2]

    def test_star_distances(self):
        sent = sentence_from(
            [
                ("r", "r", "NOUN", 0, False),
                ("x", "x", "NOUN", 1, False),
                ("y", "y", "NOUN", 1, False),
                ("z", "z", "NOUN", 1, False),
            ]
        )
        for i in (2, 3, 4):
            assert reach(sent, i, i, radius=1) == [1]
            assert reach(sent, i, i, radius=2) == [j for j in (1, 2, 3, 4) if j != i]

    def test_single_token(self):
        sent = sentence_from([("a", "a", "NOUN", 0, False)])
        assert reach(sent, 1, 1, radius=1) == []

    def test_children_direction_descends_only(self):
        # root(2) with children 1 and 3; from {1} nothing is reachable
        # downward, from {2} everything is
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 0, False), ("c", "c", "NOUN", 2, False)]
        )
        assert reach(sent, 1, 1, radius=2, direction="children") == []
        assert reach(sent, 2, 2, radius=1, direction="children") == [1, 3]
        assert reach(sent, 1, 1, radius=1) == [2]


def pruning_example_sentence():
    """The mayor of Rome met the actress visiting the capital."""
    rows = [
        ("The", "the", "DET", 2, True),  # stopword
        ("mayor", "mayor", "NOUN", 5, False),
        ("of", "of", "ADP", 4, True),
        ("Rome", "rome", "PROPN", 2, False),
        ("met", "meet", "VERB", 0, False),
        ("the", "the", "DET", 7, True),
        ("actress", "actress", "NOUN", 5, False),
        ("visiting", "visit", "VERB", 7, False),
        ("the", "the", "DET", 10, True),
        ("capital", "capital", "NOUN", 8, False),
    ]
    return sentence_from(rows)


class TestNeighborhood:
    """The words `attribute` gives one mention, each paired with it."""

    def test_pruning_example_at_radius_one(self):
        # direct tree neighbors of the span are a stopword and a verb;
        # with neither in the lexicon the sentence yields no records
        sent = pruning_example_sentence()
        m = mention(2, 4)
        words = attribute(sent, [m], 1, "undirected")
        assert [(t.lemma, tied) for t, tied in words] == [("meet", [m])]

    def test_actress_enters_at_radius_two(self):
        sent = pruning_example_sentence()
        words = attribute(sent, [mention(2, 4)], 2, "undirected")
        assert [t.lemma for t, _ in words] == ["meet", "actress"]

    def test_pairs_carry_tree_distance(self):
        # a word's tree distance is the least radius that reaches it
        sent = pruning_example_sentence()
        first_radius: dict = {}
        for radius in range(1, 4):
            for t, _ in attribute(sent, [mention(2, 4)], radius, "undirected"):
                first_radius.setdefault(t.lemma, radius)
        assert first_radius == {"meet": 1, "actress": 2, "visit": 3}

    def test_monotone_in_radius(self):
        sent = pruning_example_sentence()
        for direction in ("undirected", "children"):
            previous: set = set()
            for radius in range(1, 6):
                current = {
                    t.index for t, _ in attribute(sent, [mention(2, 4)], radius, direction)
                }
                assert previous <= current
                previous = current

    def test_mention_spanning_sentence_has_empty_neighborhood(self):
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 0, False)]
        )
        assert attribute(sent, [mention(1, 2)], 3, "undirected") == []

    def test_adjacent_adjective_included(self):
        # 4-token fixture: adjective headed by the noun that heads the span
        rows = [
            ("Rossi", "rossi", "PROPN", 2, False),
            ("persona", "persona", "NOUN", 0, False),
            ("bella", "bello", "ADJ", 2, False),
            (".", ".", "PUNCT", 2, True),
        ]
        sent = sentence_from(rows)
        words = attribute(sent, [mention(1, 1)], 1, "undirected")
        assert [t.lemma for t, _ in words] == ["persona"]
        words = attribute(sent, [mention(1, 1)], 2, "undirected")
        assert [t.lemma for t, _ in words] == ["persona", "bello"]

    def test_propn_aux_modal_and_filtered_excluded(self):
        rows = [
            ("Rossi", "rossi", "PROPN", 3, False),
            ("può", "potere", "VERB", 3, False),  # modal verb, excluded
            ("vincere", "vincere", "VERB", 0, False),
            ("è", "essere", "AUX", 3, False),
            ("Milano", "milano", "PROPN", 3, False),
            ("filtrato", "filtrato", "ADJ", 3, True),
        ]
        sent = sentence_from(rows)
        words = attribute(sent, [mention(1, 1)], 3, "undirected")
        assert [t.lemma for t, _ in words] == ["vincere"]

    def test_radius_must_be_positive(self, fixture_inputs):
        # checked once per call, before the stream is read
        registry, lexicon = fixture_inputs
        with pytest.raises(ValueError, match="radius"):
            extract_records(iter(()), registry, lexicon, radius=0)
        with pytest.raises(ValueError, match="direction"):
            extract_records(iter(()), registry, lexicon, direction="parents")


@pytest.fixture(scope="module")
def fixture_inputs():
    registry = read_registry(data_path("registry.csv"))
    lexicon = read_lexicon(data_path("lexicon.csv"))
    return registry, lexicon


class TestExtractRecords:
    def test_fixture_records(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        got = sorted((r.lemma, r.gender.value, r.category.value) for r in result.records)
        assert got == sorted(
            [
                ("bello", "F", "physical"),
                ("duro", "M", "moral_behavioral"),
                ("sciatto", "M", "physical"),
                ("sorriso", "F", "physical"),
                ("ricco", "M", "socio_economic"),
                ("amare", "F", "moral_behavioral"),
                ("mamma", "F", "socio_economic"),
                ("sceriffo", "F", "moral_behavioral"),
            ]
        )

    def test_lemma_map_reaches_records(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        assert any(r.lemma == "sceriffo" for r in result.records)

    def test_personalization_subset_of_coverage(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        pers = result.counts.slice(lexicon_only=True)
        for g in Gender:
            assert pers.total(g) <= result.counts.total(g)
        assert pers.total(Gender.F) == sum(
            1 for r in result.records if r.gender is Gender.F
        )

    def test_coverage_without_records(self, tiny_corpus, fixture_inputs):
        # "avere" and "parere" are counted in coverage but are not records
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        cov_words = {k[0] for k in result.counts.word_counts()}
        rec_words = {r.lemma for r in result.records}
        assert "avere" in cov_words and "avere" not in rec_words
        assert "parere" in cov_words and "parere" not in rec_words

    def test_same_lemma_twice_yields_two_records(self, fixture_inputs):
        registry, lexicon = fixture_inputs
        rows = [
            ("Chiara", "chiara", "PROPN", 4, False),
            ("Appendino", "appendino", "PROPN", 1, False),
            ("bella", "bello", "ADJ", 4, False),
            ("bella", "bello", "ADJ", 0, False),
        ]
        sent = sentence_from(rows, doc_id="dd")
        doc = Document("dd", datetime.date(2018, 7, 1), SourceType.ONLINE)
        result = extract_records([(doc, sent)], registry, lexicon)
        assert [r.lemma for r in result.records] == ["bello", "bello"]
        counts = result.counts.word_counts()[("bello", "ADJ")]
        assert counts[Gender.F] == 2

    def test_nearest_mention_attribution_with_tie(self, fixture_inputs):
        registry, lexicon = fixture_inputs
        # root VERB with two name mentions as children and one adjective
        # child: the adjective is equidistant from both mentions -> both
        # genders counted; the verb "ama" is also a record (lexicon VERB)
        rows = [
            ("Virginia", "virginia", "PROPN", 3, False),
            ("Raggi", "raggi", "PROPN", 1, False),
            ("ama", "amare", "VERB", 0, False),
            ("Attilio", "attilio", "PROPN", 3, False),
            ("Fontana", "fontana", "PROPN", 4, False),
            ("bello", "bello", "ADJ", 3, False),
        ]
        sent = sentence_from(rows, doc_id="dd")
        doc = Document("dd", datetime.date(2018, 7, 1), SourceType.ONLINE)
        result = extract_records([(doc, sent)], registry, lexicon)
        bello = [r for r in result.records if r.lemma == "bello"]
        assert sorted(r.gender.value for r in bello) == ["F", "M"]
        # the verb is closer to Raggi (distance 1 via head) than to
        # Fontana (distance 2)? both spans touch the root: Raggi span is
        # {1,2}, head of 1 is 3 -> distance 1; Fontana span {4,5}, head of
        # 4 is 3 -> distance 1: tie again, attributed to both.
        ama = [r for r in result.records if r.lemma == "amare"]
        assert sorted(r.gender.value for r in ama) == ["F", "M"]

    def test_nearest_mention_attribution_strict(self, fixture_inputs):
        registry, lexicon = fixture_inputs
        # adjective attached under Fontana's span head: nearer to Fontana
        rows = [
            ("Virginia", "virginia", "PROPN", 3, False),
            ("Raggi", "raggi", "PROPN", 1, False),
            ("incontra", "incontrare", "VERB", 0, False),
            ("Attilio", "attilio", "PROPN", 3, False),
            ("Fontana", "fontana", "PROPN", 4, False),
            ("elegante", "elegante", "ADJ", 4, False),
        ]
        sent = sentence_from(rows, doc_id="dd")
        doc = Document("dd", datetime.date(2018, 7, 1), SourceType.ONLINE)
        result = extract_records([(doc, sent)], registry, lexicon)
        elegant = [r for r in result.records if r.lemma == "elegante"]
        assert [r.gender.value for r in elegant] == ["M"]

    def test_order_invariance_of_counts(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        pairs = list(tiny_corpus())
        forward = extract_records(pairs, registry, lexicon)
        backward = extract_records(list(reversed(pairs)), registry, lexicon)
        assert forward.counts.words == backward.counts.words
        assert forward.counts.days == backward.counts.days
        assert sorted(map(repr, forward.records)) == sorted(map(repr, backward.records))

    def test_children_direction_restricts(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        undirected = extract_records(
            tiny_corpus(), registry, lexicon, direction="undirected"
        )
        children = extract_records(
            tiny_corpus(), registry, lexicon, direction="children"
        )
        assert len(children.records) <= len(undirected.records)

    def test_children_direction_attributes_word_under_the_name(self, fixture_inputs):
        registry, lexicon = fixture_inputs
        # "Chiara Appendino elegante ama": the adjective is an amod child of
        # the surname, which is the nsubj of the root verb
        rows = [
            ("Chiara", "chiara", "PROPN", 2, False),
            ("Appendino", "appendino", "PROPN", 4, False),
            ("elegante", "elegante", "ADJ", 2, False),
            ("ama", "amare", "VERB", 0, False),
        ]
        sent = sentence_from(rows, doc_id="dd")
        doc = Document("dd", datetime.date(2018, 7, 1), SourceType.ONLINE)
        children = extract_records([(doc, sent)], registry, lexicon, direction="children")
        assert [(r.lemma, r.pid, r.gender) for r in children.records] == [
            ("elegante", "p_app", Gender.F)
        ]
        undirected = extract_records([(doc, sent)], registry, lexicon)
        assert sorted(r.lemma for r in undirected.records) == ["amare", "elegante"]

    def test_descriptives_match_hand_counts(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        cov = result.descriptives["coverage"]
        assert cov["F"] == {
            "politicians": 2,
            "contents": 3,
            "sentences": 4,
            "words": 8,
            "distinct_words": 8,
            "words_per_sentence": [2, 2, 2, 2],
            "sentences_per_politician": [2, 2],
        }
        assert cov["M"]["words"] == 3
        pers = result.descriptives["personalization"]
        assert pers["F"]["words"] == 5
        assert pers["M"]["words"] == 3


# (gender, pid, doc_id, sentence index, lemma) events from small pools, so
# documents, sentences, politicians and lemmas repeat within and across genders
_tally_events = st.lists(
    st.tuples(
        st.sampled_from(list(Gender)),
        st.sampled_from(["p1", "p2", "p3"]),
        st.sampled_from(["d1", "d2", "d3"]),
        st.integers(0, 3),
        st.sampled_from(["bello", "forte", "ricco", "onesto"]),
    ),
    max_size=40,
)


class TestDatasetTallyOracle:
    @settings(max_examples=200, deadline=None)
    @given(_tally_events)
    def test_derived_counts_equal_seven_structure_tally(self, events):
        oracle = SevenStructureTally()
        for event in events:
            oracle.add(*event)
        words = Counter((g, pid, doc_id, sent) for g, pid, doc_id, sent, _ in events)
        lemmas = {(g, lemma) for g, _, _, _, lemma in events}
        assert dataset_descriptives(words, lemmas) == oracle.to_json_dict()


# -- attribution oracle: random trees, random multi-mention sentences -------

# (surface, lemma, upos, filtered) rows: lexicon words, other content
# words, and words never selected (PROPN, AUX, a modal, function words)
_WORDS = [
    ("bella", "bello", "ADJ", False),
    ("sorriso", "sorriso", "NOUN", False),
    ("ama", "amare", "VERB", False),
    ("duro", "duro", "ADJ", False),
    ("mamma", "mamma", "NOUN", False),
    ("ricco", "ricco", "ADJ", False),
    ("ha", "avere", "VERB", False),
    ("parere", "parere", "NOUN", False),
    ("Milano", "milano", "PROPN", False),
    ("è", "essere", "AUX", False),
    ("può", "potere", "VERB", False),
    ("la", "la", "DET", True),
    ("elegante", "elegante", "ADJ", True),
    (".", ".", "PUNCT", True),
]
# role words, which can open a role mention
_ROLE_WORDS = [("sindaca", "sindaco", "NOUN", False), ("ministro", "ministro", "NOUN", False)]
# the content words a forced tie hangs its mentions from
_HUBS = [w for w in _WORDS if w[2] in ("ADJ", "NOUN", "VERB") and w[1] != "potere" and not w[3]]
_NAMES = [
    ["Chiara", "Appendino"],
    ["Virginia", "Raggi"],
    ["Attilio", "Fontana"],
    ["Vincenzo", "De", "Luca"],
    ["Matteo", "Salvini"],
]


def _name_rows(words):
    return [(w, w.lower(), "PROPN", False) for w in words]


def _random_heads(draw, n, first=(), hub=None):
    """Heads of a random tree over tokens 1..n.

    Tokens join in a random order, each under one drawn from those before
    it. With a hub, the hub is the root and every token in ``first`` hangs
    directly from it.
    """
    rest = [i for i in range(1, n + 1) if i != hub and i not in first]
    order = draw(st.permutations(rest))
    heads = [0] * (n + 1)
    placed = []
    if hub is not None:
        placed.append(hub)
        for i in first:
            heads[i] = hub
            placed.append(i)
    for i in order:
        heads[i] = draw(st.sampled_from(placed)) if placed else 0
        placed.append(i)
    return heads[1:]


@st.composite
def _random_trees(draw):
    rows = draw(st.lists(st.sampled_from(_WORDS + _ROLE_WORDS), min_size=1, max_size=12))
    heads = _random_heads(draw, len(rows))
    start = draw(st.integers(1, len(rows)))
    end = draw(st.integers(start, min(len(rows), start + 2)))
    sent = sentence_from([(s, l, u, h, f) for (s, l, u, f), h in zip(rows, heads)])
    return sent, mention(start, end)


@st.composite
def _multi_mention_sentence(draw, index):
    """A sentence naming two or more politicians; with a forced tie, a
    content word heads the first token of every name."""
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=2, max_size=3))
    pieces = [_name_rows(name) for name in names]
    pieces += [
        [draw(st.sampled_from(_WORDS + _ROLE_WORDS))]
        for _ in range(draw(st.integers(1, 6)))
    ]
    if draw(st.booleans()):
        pieces.append(_name_rows([draw(st.sampled_from(_NAMES))[-1]]))  # a bare surname
    tie = draw(st.booleans())
    hub_piece = [draw(st.sampled_from(_HUBS))]
    if tie:
        pieces.append(hub_piece)
    order = draw(st.permutations(range(len(pieces))))
    rows, first, hub = [], [], None
    for k in order:
        if k < len(names):
            first.append(len(rows) + 1)
        elif tie and pieces[k] is hub_piece:
            hub = len(rows) + 1
        rows.extend(pieces[k])
    heads = _random_heads(draw, len(rows), first if tie else (), hub)
    doc_id = draw(st.sampled_from(["d1", "d2"]))
    sent = sentence_from(
        [(s, l, u, h, f) for (s, l, u, f), h in zip(rows, heads)], doc_id=doc_id, index=index
    )
    return sent, (hub_piece[0][1], hub_piece[0][2]) if tie else None


def _extraction_json(result):
    return {
        "records": [record_json_dict(r) for r in result.records],
        "counts": result.counts.to_json_dict(),
        "descriptives": result.descriptives,
        "diagnostics": result.diagnostics.to_json_dict(),
    }


_DOCS = {
    "d1": Document("d1", datetime.date(2018, 7, 1), SourceType.ONLINE),
    "d2": Document("d2", datetime.date(2018, 9, 3), SourceType.TRADITIONAL),
}


class TestAttributionOracle:
    """`attribute` for one mention against the unbounded walk, and extract
    against its loop as first written, one walk per mention
    (tests/oracles.py)."""

    @settings(max_examples=300, deadline=None)
    @given(_random_trees(), st.integers(1, 4), st.sampled_from(["undirected", "children"]))
    def test_neighborhood_matches_unbounded_walk(self, case, radius, direction):
        sent, m = case
        expected = neighborhood_reference(sent, m, radius, direction)
        assert attribute(sent, [m], radius, direction) == [(t, [m]) for t, _ in expected]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=3).flatmap(
            lambda indexes: st.tuples(*[_multi_mention_sentence(i) for i in indexes])
        ),
        st.integers(1, 4),
        st.sampled_from(["undirected", "children"]),
    )
    def test_extraction_matches_first_written_loop(
        self, fixture_inputs, cases, radius, direction
    ):
        registry, lexicon = fixture_inputs
        stream = [(_DOCS[sent.doc_id], sent) for sent, _ in cases]
        got = extract_records(stream, registry, lexicon, radius=radius, direction=direction)
        expected = extract_records_reference(stream, registry, lexicon, radius, direction)
        assert _extraction_json(got) == _extraction_json(expected)
        # counted one pair at a time, the cells keep the order of the pairs
        assert list(got.counts.words.items()) == list(expected.counts.words.items())
        assert list(got.counts.days.items()) == list(expected.counts.days.items())
        # Table 1's word and politician counts agree with the count table
        for result in (got, expected):
            for dataset, table in (
                ("coverage", result.counts),
                ("personalization", result.counts.slice(lexicon_only=True)),
            ):
                for g in Gender:
                    entry = result.descriptives[dataset][g.value]
                    assert (entry["words"], entry["politicians"]) == (
                        table.total(g),
                        table.politicians(g),
                    )
        for _, hub in cases:
            if hub is not None and direction == "undirected":
                # the hub is one step from every name: it counts once per name
                assert sum(got.counts.word_counts()[hub].values()) >= 2


# "Il cantiere è nuovo .": no name, role or jurisdiction, so no mention
_MENTION_FREE = [
    ("Il", "il", "DET", 2, "det"),
    ("cantiere", "cantiere", "NOUN", 4, "nsubj"),
    ("è", "essere", "AUX", 4, "cop"),
    ("nuovo", "nuovo", "ADJ", 0, "root"),
    (".", ".", "PUNCT", 4, "punct"),
]
# "Anna Bianchi elegante" with no root: a politician's name and a lexicon
# word that the reader's tree check rejects before extract sees them
_CYCLIC = [
    ("Anna", "Anna", "PROPN", 2, "nsubj"),
    ("Bianchi", "Bianchi", "PROPN", 3, "flat:name"),
    ("elegante", "elegante", "ADJ", 1, "amod"),
]


@pytest.fixture(scope="module")
def block_corpus(tmp_path_factory):
    """A corpusgen corpus of more than 2 * BLOCK_SENTENCES sentences: every
    fifth document ends with a mention-free sentence, and every seventh
    opens with one the tree check rejects. Gives a function of n that
    opens a fresh reader and stops it after n sentences (all when None),
    with its diagnostics, plus the registry and the lexicon."""
    root = tmp_path_factory.mktemp("blocks")
    paths = corpusgen.generate(str(root), n_docs=360, seed=5)
    with open(paths["conllu"], encoding="utf-8") as fh:
        docs = fh.read().split("# newdoc id = ")[1:]
    text = []
    for k, doc in enumerate(docs):
        doc_id, body = doc.split("\n", 1)
        extra_first, extra_last = corpusgen.SentenceWriter(), corpusgen.SentenceWriter()
        if k % 7 == 3:
            extra_first.add(f"{doc_id}.cyclic", _CYCLIC)
        if k % 5 == 2:
            extra_last.add(f"{doc_id}.free", _MENTION_FREE)
        text += [f"# newdoc id = {doc_id}", *extra_first.lines, body.rstrip("\n"), ""]
        text += extra_last.lines
    with open(paths["conllu"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(text) + "\n")
    metadata = read_metadata(paths["metadata"])
    stopwords = read_stopwords(paths["stopwords"])

    def stream(n=None):
        diagnostics = CorpusDiagnostics()
        pairs = read_corpus((paths["conllu"],), diagnostics, metadata, stopwords, {})
        return islice(pairs, n), diagnostics

    return stream, read_registry(paths["registry"]), read_lexicon(paths["lexicon"], stopwords)


class TestBlocks:
    """Extract takes the stream BLOCK_SENTENCES sentences at a time; the
    blocks change neither what it finds nor the order of its calls."""

    B = BLOCK_SENTENCES

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_matches_reference_at_block_boundaries(self, block_corpus, n):
        stream, registry, lexicon = block_corpus
        pairs, diagnostics = stream(n)
        pairs = list(pairs)
        assert len(pairs) == n
        if n >= self.B - 1:
            # the prefix holds mention-free sentences, and rejected ones
            # the reader skipped, besides sentences naming politicians
            assert any(t.lemma == "cantiere" for _, s in pairs for t in s.tokens)
            assert diagnostics.rejected_sentences
        got = extract_records(stream(n)[0], registry, lexicon)
        expected = extract_records_reference(pairs, registry, lexicon)
        assert _extraction_json(got) == _extraction_json(expected)
        assert list(got.counts.words.items()) == list(expected.counts.words.items())
        assert list(got.counts.days.items()) == list(expected.counts.days.items())
        if n:
            assert got.records

    def test_find_mentions_once_per_sentence_in_stream_order(self, block_corpus, monkeypatch):
        stream, registry, lexicon = block_corpus
        pairs = list(stream()[0])
        assert len(pairs) > 2 * self.B + 1 and len(pairs) % self.B  # a last, partial block
        seen = []

        def spy(sentence, doc, *args):
            seen.append((doc, sentence))
            return find_mentions(sentence, doc, *args)

        monkeypatch.setattr(extraction, "find_mentions", spy)
        extract_records(stream()[0], registry, lexicon)
        assert seen == pairs

    def test_reader_runs_at_most_one_block_ahead(self, block_corpus, monkeypatch):
        stream, registry, lexicon = block_corpus
        pulled = 0
        held = []  # per find_mentions call: sentences pulled and not matched before it

        def counted(pairs):
            nonlocal pulled
            for pair in pairs:
                pulled += 1
                yield pair

        def spy(sentence, doc, *args):
            held.append(pulled - len(held))
            return find_mentions(sentence, doc, *args)

        monkeypatch.setattr(extraction, "find_mentions", spy)
        extract_records(counted(stream()[0]), registry, lexicon)
        assert len(held) == pulled > 2 * self.B
        assert max(held) <= self.B
