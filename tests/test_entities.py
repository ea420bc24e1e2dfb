import datetime
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias.entities import MatchDiagnostics, RoleGazetteer, find_mentions
from covbias.errors import InputError
from covbias.model import (
    Document,
    Gender,
    MentionPattern,
    Politician,
    Role,
    Sentence,
    SourceType,
    Token,
    normalize_lemma,
)
from covbias.registry import PoliticianRegistry, read_registry
from conftest import data_path
from oracles import mentions_bruteforce


def make_sentence(words, doc_id="d1", index=0):
    """Flat parse: every token hangs off the last one (root); POS PROPN."""
    n = len(words)
    tokens = tuple(
        Token(
            i + 1, w, w.lower(), "PROPN" if i < n - 1 else "VERB", n if i < n - 1 else 0, "dep",
            norm=normalize_lemma(w),
        )
        for i, w in enumerate(words)
    )
    return Sentence(doc_id=doc_id, index=index, tokens=tokens)


def make_doc(date=datetime.date(2018, 7, 15)):
    return Document("d1", date, SourceType.TRADITIONAL)


@pytest.fixture(scope="module")
def registry():
    return read_registry(data_path("registry.csv"))


class TestPatterns:
    def test_name_surname(self, registry):
        sent = make_sentence(["Chiara", "Appendino", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert len(mentions) == 1
        m = mentions[0]
        assert (m.pid, m.pattern, m.start, m.end) == (
            "p_app",
            MentionPattern.NAME_SURNAME,
            1,
            2,
        )

    def test_role_surname(self, registry):
        sent = make_sentence(["ministro", "Fedeli", "parla"])
        mentions = find_mentions(sent, make_doc(datetime.date(2017, 5, 1)), registry)
        assert [m.pattern for m in mentions] == [MentionPattern.ROLE_SURNAME]
        assert mentions[0].pid == "p_fed"
        assert (mentions[0].start, mentions[0].end) == (1, 2)

    def test_specific_role(self, registry):
        sent = make_sentence(["sindaco", "di", "Roma", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert [m.pattern for m in mentions] == [MentionPattern.SPECIFIC_ROLE]
        assert mentions[0].pid == "p_rag"
        assert (mentions[0].start, mentions[0].end) == (1, 3)

    def test_surname_alone_is_no_mention(self, registry):
        sent = make_sentence(["Fedeli", "parla"])
        assert find_mentions(sent, make_doc(), registry) == []

    def test_feminine_variant_resolves(self, registry):
        sent = make_sentence(["sindaca", "Appendino", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert mentions and mentions[0].pid == "p_app"

    def test_president_synonym_for_governor(self, registry):
        sent = make_sentence(["presidente", "della", "Lombardia", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert mentions and mentions[0].pid == "p_fon"
        assert mentions[0].pattern is MentionPattern.SPECIFIC_ROLE

    def test_region_filler_word(self, registry):
        sent = make_sentence(["governatore", "della", "regione", "Lombardia", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert mentions and mentions[0].pid == "p_fon"
        assert (mentions[0].start, mentions[0].end) == (1, 4)

    def test_multi_token_surname_with_role(self, registry):
        sent = make_sentence(["governatore", "De", "Luca", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert mentions and mentions[0].pid == "p_del"
        assert (mentions[0].start, mentions[0].end) == (1, 3)

    def test_multi_token_jurisdiction(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text("p1;Luca;Vecchi;M;sindaco:Reggio Emilia;;\n")
        reg = read_registry(path)
        sent = make_sentence(["sindaco", "di", "Reggio", "Emilia", "parla"])
        mentions = find_mentions(sent, make_doc(), reg)
        assert mentions and mentions[0].pid == "p1"
        assert (mentions[0].start, mentions[0].end) == (1, 4)
        # a prefix of the jurisdiction does not match
        sent = make_sentence(["sindaco", "di", "Reggio", "parla"])
        assert find_mentions(sent, make_doc(), reg) == []

    def test_case_insensitive(self, registry):
        sent = make_sentence(["CHIARA", "APPENDINO", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert mentions and mentions[0].pid == "p_app"


class TestTenure:
    def test_role_outside_tenure_not_resolved(self, registry):
        # Fedeli's ministry ended 2018-06-01
        sent = make_sentence(["ministro", "Fedeli", "parla"])
        assert find_mentions(sent, make_doc(datetime.date(2019, 1, 1)), registry) == []

    def test_role_resolution_depends_on_date(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Ada;Rossi;F;ministro:interno;;2016-01-01..2018-05-31\n"
            "p2;Ugo;Neri;M;ministro:interno;;2018-06-01..2019-09-05\n"
        )
        reg = read_registry(path)
        sent = make_sentence(["ministro", "di", "interno", "parla"])
        early = find_mentions(sent, make_doc(datetime.date(2017, 3, 1)), reg)
        late = find_mentions(sent, make_doc(datetime.date(2019, 3, 1)), reg)
        assert [m.pid for m in early] == ["p1"]
        assert [m.pid for m in late] == ["p2"]


class TestAmbiguityAndOverlap:
    def test_ambiguous_role_surname_dropped_and_tallied(self, tmp_path):
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Ada;Rossi;F;sindaco:Roma;;\n"
            "p2;Ugo;Rossi;M;sindaco:Milano;;\n"
        )
        reg = read_registry(path)
        sent = make_sentence(["sindaco", "Rossi", "parla"])
        diag = MatchDiagnostics()
        assert find_mentions(sent, make_doc(), reg, diagnostics=diag) == []
        assert diag.ambiguous == {"role_surname": 1}

    def test_longest_match_wins_on_overlap(self, registry):
        # "sindaca Virginia Raggi": name+surname (2 tokens) overlaps
        # role+surname? "Virginia" is not a surname, so the only candidates
        # are the 2-token name match; add a true conflict instead:
        sent = make_sentence(["Chiara", "Appendino", "parla"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert len(mentions) == 1

    def test_role_surname_vs_name_overlap(self, tmp_path):
        # surname equal to a given name forces an overlap: "sindaco Bruno
        # Vespa" can read role+surname(Bruno) or skip; the longer
        # name+surname match of a different politician wins
        path = tmp_path / "reg.csv"
        path.write_text(
            "p1;Bruno;Vespa;M;;;\n"
            "p2;Carlo;Bruno;M;sindaco:Bari;;\n"
        )
        reg = read_registry(path)
        sent = make_sentence(["sindaco", "Bruno", "Vespa", "parla"])
        mentions = find_mentions(sent, make_doc(), reg)
        assert [m.pid for m in mentions] == ["p1"]
        assert mentions[0].pattern is MentionPattern.NAME_SURNAME

    def test_two_separate_mentions(self, registry):
        sent = make_sentence(["Chiara", "Appendino", "incontra", "Virginia", "Raggi"])
        mentions = find_mentions(sent, make_doc(), registry)
        assert [m.pid for m in mentions] == ["p_app", "p_rag"]
        spans = [set(m.span) for m in mentions]
        assert not (spans[0] & spans[1])

    def test_registry_order_does_not_matter(self, tmp_path):
        rows = [
            "p1;Ada;Rossi;F;sindaco:Roma;;\n",
            "p2;Ugo;Neri;M;governatore:Lazio;;\n",
        ]
        fwd = tmp_path / "fwd.csv"
        rev = tmp_path / "rev.csv"
        fwd.write_text("".join(rows))
        rev.write_text("".join(reversed(rows)))
        sent = make_sentence(["Ada", "Rossi", "e", "governatore", "di", "Lazio"])
        a = find_mentions(sent, make_doc(), read_registry(fwd))
        b = find_mentions(sent, make_doc(), read_registry(rev))
        assert a == b
        assert [m.pid for m in a] == ["p1", "p2"]


class TestPaddedRegistry:
    def test_unnamed_rows_change_nothing(self, tiny_corpus, tmp_path):
        # 300 office holders the corpus never names, some sharing a first
        # token with a real surname ("de") or jurisdiction ("roma")
        rows = []
        for k in range(300):
            role = ("sindaco", "governatore", "ministro")[k % 3]
            surname = f"De Vaz{k}" if k % 2 else f"Vaz{k}"
            place = f"Roma Zul{k}" if k % 5 == 0 else f"Zul{k}"
            rows.append(f"pad{k};Quin{k};{surname};{'FM'[k % 2]};{role}:{place};;\n")
        padded_path = tmp_path / "registry.csv"
        with open(data_path("registry.csv"), encoding="utf-8") as fh:
            padded_path.write_text(fh.read() + "".join(rows), encoding="utf-8")
        plain = read_registry(data_path("registry.csv"))
        padded = read_registry(padded_path)
        assert len(padded) == len(plain) + 300

        def run(registry):
            diag = MatchDiagnostics()
            mentions = [
                find_mentions(sentence, doc, registry, diagnostics=diag)
                for doc, sentence in tiny_corpus()
            ]
            return mentions, diag

        unpadded = run(plain)
        assert any(unpadded[0])
        assert run(padded) == unpadded


# A small vocabulary so random registries share first tokens ("de luca" /
# "de rosa"), nest surnames ("luca" inside "de luca"), repeat surnames
# across politicians (ambiguous drops) and hold multi-token jurisdictions.
_GIVEN = ["", "Ada", "Luca", "Ugo"]
_SURNAMES = ["Rossi", "De Luca", "De Rosa", "Luca", "De", "Rosa Rossi"]
_ALIASES = ["Beppe", "Beppe Rossi", "De Luca Rossi", "Rosa"]
_KEYWORDS = ["sindaco", "governatore", "ministro"]
_JURISDICTIONS = ["", "Roma", "Reggio", "Reggio Emilia", "Emilia", "Emilia Romagna"]
_TENURES = [
    (None, None),
    (datetime.date(2015, 1, 1), datetime.date(2017, 12, 31)),
    (datetime.date(2018, 1, 1), datetime.date(2018, 12, 31)),
    (datetime.date(2019, 1, 1), None),
]
_DOC_DATES = [datetime.date(2016, 6, 1), datetime.date(2018, 7, 15), datetime.date(2020, 1, 1)]
_PHRASES = [
    "sindaco Rossi", "sindaca De Luca", "sindaci Luca", "ministra De Rosa",
    "governatore De", "ministro Rosa Rossi", "governatore di Roma",
    "sindaco di Reggio Emilia", "presidente della regione Emilia Romagna",
    "ministra del comune di Reggio", "sindaco dell' Emilia", "Ada Rossi",
    "Luca De Luca", "Ugo De Rosa", "Beppe Rossi", "De Luca Rossi", "Rosa",
    "di", "Roma", "parla", ",",
    # plural role words: only the lemma is a gazetteer variant
    "ministri Rosa Rossi", "governatori di Roma", "presidenti della regione Emilia Romagna",
    "sindache De Luca",
    # punctuation-only tokens (norm None), also between a role and its name
    "«", "...", "sindaco — Rossi", "Ada « Rossi",
]
# The lemma of each surface that is not its lower-cased self.
_LEMMAS = {
    "sindaci": "sindaco", "ministri": "ministro", "governatori": "governatore",
    "presidenti": "presidente", "sindache": "sindaca",
}


@st.composite
def _registries(draw):
    politicians, held = [], []
    for k in range(draw(st.integers(1, 6))):
        pid = f"p{k}"
        roles = []
        for keyword, place, (start, end) in draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_KEYWORDS),
                    st.sampled_from(_JURISDICTIONS),
                    st.sampled_from(_TENURES),
                ),
                max_size=2,
            )
        ):
            role = Role(keyword, place, start, end)
            # the registry refuses two holders of one office at once
            clash = place and any(
                other_pid != pid and (other.keyword, other.jurisdiction) == (keyword, place)
                and other.overlaps(role)
                for other_pid, other in held
            )
            if not clash:
                roles.append(role)
                held.append((pid, role))
        politicians.append(
            Politician(
                pid=pid,
                given_name=draw(st.sampled_from(_GIVEN)),
                surname=draw(st.sampled_from(_SURNAMES)),
                gender=draw(st.sampled_from(Gender)),
                roles=tuple(roles),
                aliases=tuple(draw(st.lists(st.sampled_from(_ALIASES), max_size=2))),
            )
        )
    return PoliticianRegistry(politicians)


@st.composite
def _sentences(draw):
    words = [
        (word, draw(st.booleans()))
        for phrase in draw(st.lists(st.sampled_from(_PHRASES), min_size=1, max_size=10))
        for word in phrase.split()
    ]
    n = len(words)
    tokens = tuple(
        Token(
            i + 1,
            word,
            _LEMMAS.get(word, word.lower()),
            "PROPN",
            n if i < n - 1 else 0,
            "dep",
            filtered=filtered,
            norm=normalize_lemma(word),
        )
        for i, (word, filtered) in enumerate(words)
    )
    return Sentence(doc_id="d1", index=0, tokens=tokens)


class TestIndexedMatcherOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        registry=_registries(),
        sentence=_sentences(),
        date=st.sampled_from(_DOC_DATES),
    )
    def test_matches_bruteforce_scan(self, registry, sentence, date):
        diag = MatchDiagnostics()
        got = find_mentions(sentence, make_doc(date), registry, diagnostics=diag)
        want, ambiguous = mentions_bruteforce(
            [normalize_lemma(t.surface) for t in sentence.tokens],
            [None if t.filtered else t.lemma for t in sentence.tokens],
            date,
            registry,
            RoleGazetteer().variants.get,
        )
        assert [(m.start, m.end, m.pattern.value, m.pid) for m in got] == want
        assert diag.ambiguous == ambiguous


# Hundreds of holders of every role keyword, under surnames no sentence
# names, across every tenure.
_PADDING = [
    Politician(
        pid=f"pad{k}",
        given_name="",
        surname=f"Pad{k}",
        gender=Gender.F if k % 2 else Gender.M,
        roles=(Role(_KEYWORDS[k % 3], "", *_TENURES[k % len(_TENURES)]),),
    )
    for k in range(300)
]


class TestRoleSurnameWithManyHolders:
    """A role + surname resolves through the surname's own roles, whatever
    the number of the keyword's other holders."""

    def registry(self):
        return PoliticianRegistry(_PADDING + [
            Politician("p_out", "", "Rossi", Gender.F,
                       roles=(Role("sindaco", "", *_TENURES[1]),)),
            Politician("p_second", "", "Verdi", Gender.M,
                       roles=(Role("sindaco", "", *_TENURES[1]), Role("sindaco", "", *_TENURES[3]))),
            Politician("p_other", "", "Bianchi", Gender.F,
                       roles=(Role("ministro", "", None, None), Role("sindaco", "", *_TENURES[1]))),
        ])

    @pytest.mark.parametrize(
        "words, date, pid",
        [
            ("sindaco Rossi", _DOC_DATES[0], "p_out"),
            ("sindaco Rossi", _DOC_DATES[1], None),  # holds the role only outside the date
            ("sindaco Verdi", _DOC_DATES[1], None),
            ("sindaco Verdi", _DOC_DATES[2], "p_second"),  # through the second role
            ("sindaco Bianchi", _DOC_DATES[2], None),  # holds another keyword then
            ("ministro Bianchi", _DOC_DATES[2], "p_other"),
            ("sindaco Pad0", _DOC_DATES[1], "pad0"),
        ],
    )
    def test_tenure_edges_match_bruteforce(self, words, date, pid):
        registry = self.registry()
        sentence = make_sentence(words.split() + ["parla"])
        got = find_mentions(sentence, make_doc(date), registry)
        want, _ = mentions_bruteforce(
            [t.norm for t in sentence.tokens],
            [t.lemma for t in sentence.tokens],
            date,
            registry,
            RoleGazetteer().variants.get,
        )
        assert [(m.start, m.end, m.pattern.value, m.pid) for m in got] == want
        assert [m.pid for m in got] == ([pid] if pid else [])

    @settings(max_examples=150, deadline=None)
    @given(
        registry=_registries(),
        sentence=_sentences(),
        date=st.sampled_from(_DOC_DATES),
    )
    def test_padded_registry_matches_bruteforce_scan(self, registry, sentence, date):
        padded = PoliticianRegistry(_PADDING + list(registry.politicians.values()))
        diag = MatchDiagnostics()
        got = find_mentions(sentence, make_doc(date), padded, diagnostics=diag)
        want, ambiguous = mentions_bruteforce(
            [normalize_lemma(t.surface) for t in sentence.tokens],
            [None if t.filtered else t.lemma for t in sentence.tokens],
            date,
            padded,
            RoleGazetteer().variants.get,
        )
        assert [(m.start, m.end, m.pattern.value, m.pid) for m in got] == want
        assert diag.ambiguous == ambiguous


class TestGazetteer:
    def test_default_variants(self):
        gaz = RoleGazetteer()
        assert gaz.variants.get("ministra") == "ministro"
        assert gaz.variants.get("presidente") == "governatore"
        assert gaz.variants.get("attore") is None

    def test_from_file(self, tmp_path):
        path = tmp_path / "roles.txt"
        path.write_text(
            "# comment\n"
            "sindaco = sindaca\n"
            "assessore\n"
            "governatore = governatrice, presidente\n"
        )
        gaz = RoleGazetteer.from_file(path)
        assert gaz.variants.get("sindaca") == "sindaco"
        assert gaz.variants.get("assessore") == "assessore"
        assert gaz.variants.get("presidente") == "governatore"
        assert gaz.variants.get("ministro") is None

    @pytest.mark.parametrize(
        "line, role",
        [("-- = sindaca", "--"), ("ministro = ministra, ...", "...")],
    )
    def test_role_without_lexical_token_rejected(self, tmp_path, line, role):
        path = tmp_path / "roles.txt"
        path.write_text(f"sindaco = sindaca\n{line}\n")
        pattern = f"^{re.escape(f'{path}: line 2: role {role!r}')} has no lexical token"
        with pytest.raises(InputError, match=pattern):
            RoleGazetteer.from_file(path)

    @pytest.mark.parametrize(
        "text, role",
        [
            ("sindaco\nministro = ministra, sindaco\n", "sindaco"),
            ("sindaco = ministro\nministro\n", "ministro"),
        ],
        ids=["canonical-as-variant", "variant-as-canonical"],
    )
    def test_role_word_given_two_canonical_roles_rejected(self, tmp_path, text, role):
        path = tmp_path / "roles.txt"
        path.write_text(text)
        message = f"role {role!r} mapped to both 'sindaco' and 'ministro'"
        with pytest.raises(InputError, match=f"^{re.escape(f'{path}: line 2: {message}')}$") as err:
            RoleGazetteer.from_file(path)
        assert err.value.line == 2

    def test_repeated_mapping_accepted(self, tmp_path):
        path = tmp_path / "roles.txt"
        path.write_text("sindaco = sindaca\nsindaco = sindaca, Sindaco\n")
        variants = RoleGazetteer.from_file(path).variants
        assert variants == {"sindaco": "sindaco", "sindaca": "sindaco"}
