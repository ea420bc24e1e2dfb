import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias.bias import CountTable
from covbias.extraction import DatasetTally, DependencyTree, extract_records, neighborhood
from covbias.lexicon import read_lexicon
from covbias.model import (
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
from conftest import data_path
from oracles import SevenStructureTally


def sentence_from(rows, doc_id="d", index=0):
    tokens = tuple(
        Token(
            i + 1, surface, lemma, upos, head, "dep",
            filtered=filtered, norm=normalize_lemma(surface),
        )
        for i, (surface, lemma, upos, head, filtered) in enumerate(rows)
    )
    return Sentence(doc_id=doc_id, index=index, tokens=tokens)


def mention(start, end, pid="p", doc_id="d"):
    return Mention(pid, doc_id, 0, start, end, MentionPattern.NAME_SURNAME)


class TestDependencyTree:
    def test_chain_distances(self):
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 3, False), ("c", "c", "NOUN", 0, False)]
        )
        tree = DependencyTree(sent)
        assert tree.distances([1])[3] == 2
        assert tree.distances([3])[1] == 2

    def test_star_distances(self):
        sent = sentence_from(
            [
                ("r", "r", "NOUN", 0, False),
                ("x", "x", "NOUN", 1, False),
                ("y", "y", "NOUN", 1, False),
                ("z", "z", "NOUN", 1, False),
            ]
        )
        tree = DependencyTree(sent)
        for i in (2, 3, 4):
            for j in (2, 3, 4):
                if i != j:
                    assert tree.distances([i])[j] == 2

    def test_single_token(self):
        sent = sentence_from([("a", "a", "NOUN", 0, False)])
        tree = DependencyTree(sent)
        assert tree.distances([1])[1] == 0

    def test_children_direction_descends_only(self):
        # root(2) with children 1 and 3; from {1} nothing is reachable
        # downward, from {2} everything is
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 0, False), ("c", "c", "NOUN", 2, False)]
        )
        tree = DependencyTree(sent)
        assert tree.distances([1], "children") == {1: 0}
        assert tree.distances([2], "children") == {1: 1, 2: 0, 3: 1}


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
    def test_pruning_example_at_radius_one(self):
        # direct tree neighbors of the span are a stopword and a verb;
        # with neither in the lexicon the sentence yields no records
        sent = pruning_example_sentence()
        tree = DependencyTree(sent)
        words = neighborhood(tree, mention(2, 4), radius=1)
        assert [t.lemma for t, _ in words] == ["meet"]

    def test_actress_enters_at_radius_two(self):
        sent = pruning_example_sentence()
        tree = DependencyTree(sent)
        words = neighborhood(tree, mention(2, 4), radius=2)
        assert [t.lemma for t, _ in words] == ["meet", "actress"]

    def test_pairs_carry_tree_distance(self):
        sent = pruning_example_sentence()
        tree = DependencyTree(sent)
        words = neighborhood(tree, mention(2, 4), radius=2)
        assert [(t.lemma, d) for t, d in words] == [("meet", 1), ("actress", 2)]

    def test_monotone_in_radius(self):
        sent = pruning_example_sentence()
        tree = DependencyTree(sent)
        previous: set = set()
        for radius in range(1, 6):
            current = {t.index for t, _ in neighborhood(tree, mention(2, 4), radius)}
            assert previous <= current
            previous = current

    def test_mention_spanning_sentence_has_empty_neighborhood(self):
        sent = sentence_from(
            [("a", "a", "NOUN", 2, False), ("b", "b", "NOUN", 0, False)]
        )
        tree = DependencyTree(sent)
        assert neighborhood(tree, mention(1, 2), radius=3) == []

    def test_adjacent_adjective_included(self):
        # 4-token fixture: adjective headed by the noun that heads the span
        rows = [
            ("Rossi", "rossi", "PROPN", 2, False),
            ("persona", "persona", "NOUN", 0, False),
            ("bella", "bello", "ADJ", 2, False),
            (".", ".", "PUNCT", 2, True),
        ]
        sent = sentence_from(rows)
        tree = DependencyTree(sent)
        words = neighborhood(tree, mention(1, 1), radius=1)
        assert [t.lemma for t, _ in words] == ["persona"]
        words = neighborhood(tree, mention(1, 1), radius=2)
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
        tree = DependencyTree(sent)
        words = neighborhood(tree, mention(1, 1), radius=3)
        assert [t.lemma for t, _ in words] == ["vincere"]

    def test_radius_must_be_positive(self):
        sent = pruning_example_sentence()
        tree = DependencyTree(sent)
        with pytest.raises(ValueError):
            neighborhood(tree, mention(2, 4), radius=0)


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
        doc = Document("dd", datetime.date(2018, 7, 1), "s", SourceType.ONLINE)
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
        doc = Document("dd", datetime.date(2018, 7, 1), "s", SourceType.ONLINE)
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
        doc = Document("dd", datetime.date(2018, 7, 1), "s", SourceType.ONLINE)
        result = extract_records([(doc, sent)], registry, lexicon)
        elegant = [r for r in result.records if r.lemma == "elegante"]
        assert [r.gender.value for r in elegant] == ["M"]

    def test_order_invariance_of_counts(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        pairs = list(tiny_corpus())
        forward = extract_records(pairs, registry, lexicon)
        backward = extract_records(list(reversed(pairs)), registry, lexicon)
        assert forward.counts.cells == backward.counts.cells
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
        doc = Document("dd", datetime.date(2018, 7, 1), "s", SourceType.ONLINE)
        children = extract_records([(doc, sent)], registry, lexicon, direction="children")
        assert [(r.lemma, r.pid, r.gender) for r in children.records] == [
            ("elegante", "p_app", Gender.F)
        ]
        undirected = extract_records([(doc, sent)], registry, lexicon)
        assert sorted(r.lemma for r in undirected.records) == ["amare", "elegante"]

    def test_descriptives_match_hand_counts(self, tiny_corpus, fixture_inputs):
        registry, lexicon = fixture_inputs
        result = extract_records(tiny_corpus(), registry, lexicon, radius=2)
        cov = result.descriptives.coverage.to_json_dict()
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
        pers = result.descriptives.personalization.to_json_dict()
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
        tally, oracle = DatasetTally(), SevenStructureTally()
        for event in events:
            tally.add(*event)
            oracle.add(*event)
        assert tally.to_json_dict() == oracle.to_json_dict()
