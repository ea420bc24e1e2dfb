import pytest

from covbias.bias import leave_one_out
from covbias.lexicon import read_lexicon
from covbias.model import Category, Gender, SourceType
from covbias.reporting import (
    TABLE1_FIELDS,
    ccdf_points,
    distinctive_word_rows,
    sentiment_fraction_rows,
    table1_rows,
)
from conftest import data_path, record_rows, sentiment_record, table_from_counts


def rows_of(gender, category, fifths, source_type=SourceType.ONLINE):
    """Analyze's rows of one record per grid position in `fifths`."""
    return record_rows(sentiment_record(category, gender, source_type, k) for k in fifths)


@pytest.fixture(scope="module")
def lexicon():
    return read_lexicon(data_path("lexicon.csv"))


class TestSentimentFractions:
    def test_all_strong_negative(self, lexicon):
        rows = sentiment_fraction_rows(
            rows_of(Gender.F, Category.MORAL_BEHAVIORAL, [-5] * 4), lexicon
        )
        f_rows = [r for r in rows if r[0] == "moral_behavioral" and r[1] == "F"]
        assert f_rows[0][2:] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_balanced_five_classes(self, lexicon):
        rows = sentiment_fraction_rows(
            rows_of(Gender.M, Category.PHYSICAL, [-5, -2, 0, 2, 4]), lexicon
        )
        m_row = [r for r in rows if r[0] == "physical" and r[1] == "M"][0]
        assert m_row[2:] == [0.2, 0.2, 0.2, 0.2, 0.2]

    def test_three_quarters_weakly_positive(self, lexicon):
        rows = sentiment_fraction_rows(
            rows_of(Gender.F, Category.PHYSICAL, [2, 2, 2, 0]), lexicon
        )
        f_row = [r for r in rows if r[0] == "physical" and r[1] == "F"][0]
        assert f_row[2:] == [0.0, 0.0, 0.25, 0.75, 0.0]

    def test_rows_sum_to_one(self, lexicon):
        rows = sentiment_fraction_rows(
            rows_of(Gender.F, Category.PHYSICAL, [-5, 1, 1, 3]), lexicon
        )
        for row in rows:
            assert sum(row[2:]) == pytest.approx(1.0)

    def test_genders_and_sources_counted_apart(self, lexicon):
        records = [
            sentiment_record(Category.PHYSICAL, gender, source, k)
            for gender, source, ks in (
                (Gender.F, SourceType.ONLINE, [-5, -5]),
                (Gender.F, SourceType.TRADITIONAL, [5, 0]),
                (Gender.M, SourceType.TRADITIONAL, [2]),
            )
            for k in ks
        ]
        rows = sentiment_fraction_rows(record_rows(records), lexicon)
        physical = {r[1]: r[2:] for r in rows if r[0] == "physical"}
        assert physical["F"] == [0.5, 0.0, 0.25, 0.0, 0.25]
        assert physical["M"] == [0.0, 0.0, 0.0, 1.0, 0.0]
        assert [r[1] for r in rows if r[0] == "physical"] == ["lexicon", "M", "F"]

    def test_empty_slice_omitted(self, lexicon, caplog):
        rows = sentiment_fraction_rows(record_rows([]), lexicon)
        # only the three lexicon rows remain
        assert {r[1] for r in rows} == {"lexicon"}

    def test_lexicon_distribution_row(self, lexicon):
        rows = sentiment_fraction_rows(record_rows([]), lexicon)
        physical = [r for r in rows if r[0] == "physical" and r[1] == "lexicon"][0]
        # lexicon fixture: bello(strong pos), sorriso(weak pos),
        # elegante(strong pos), sciatto(strong neg) -> 4 entries
        assert physical[2:] == [0.25, 0.0, 0.0, 0.25, 0.5]


class TestDistinctiveRows:
    # A word used exclusively for the over-covered gender drives the
    # dissimilarity; removing it moves the corpus toward balance.
    def f_heavy_loo(self):
        counts = {
            ("bello", "ADJ"): (40, 0),
            ("sorriso", "NOUN"): (30, 25),
            ("elegante", "ADJ"): (28, 26),
            ("abile", "ADJ"): (32, 24),
        }
        return leave_one_out(table_from_counts(counts, n_f=3, n_m=3))

    def m_heavy_loo(self):
        counts = {
            ("sciatto", "ADJ"): (0, 40),
            ("sorriso", "NOUN"): (25, 30),
            ("elegante", "ADJ"): (26, 28),
            ("duro", "ADJ"): (24, 32),
        }
        return leave_one_out(table_from_counts(counts, n_f=3, n_m=3))

    def test_gender_split_and_ranking(self, lexicon):
        f_rows = distinctive_word_rows(self.f_heavy_loo(), Gender.F)
        assert [r[0] for r in f_rows] == ["bello"]
        assert all(r[2] > 0 for r in f_rows)
        m_rows = distinctive_word_rows(self.m_heavy_loo(), Gender.M)
        assert [r[0] for r in m_rows] == ["sciatto"]

    def test_mirrored_tables_mirror_weights(self):
        f_rows = distinctive_word_rows(self.f_heavy_loo(), Gender.F)
        m_rows = distinctive_word_rows(self.m_heavy_loo(), Gender.M)
        assert f_rows[0][2] == m_rows[0][2]

    def test_negative_only_filter(self, lexicon):
        # bello is strong positive -> dropped from the negative variant
        f_neg = distinctive_word_rows(self.f_heavy_loo(), Gender.F, lexicon)
        assert f_neg == []
        m_neg = distinctive_word_rows(self.m_heavy_loo(), Gender.M, lexicon)
        assert [r[0] for r in m_neg] == ["sciatto"]


class TestTable1:
    def test_rows_follow_measure_order(self):
        def tally(base):
            return {field: base + i for i, field in enumerate(TABLE1_FIELDS)}

        desc = {
            "coverage": {"F": tally(10), "M": tally(20)},
            "personalization": {"F": tally(30), "M": tally(40)},
        }
        assert table1_rows(desc) == [
            ["politicians", 10, 20, 30, 40],
            ["contents", 11, 21, 31, 41],
            ["sentences", 12, 22, 32, 42],
            ["words", 13, 23, 33, 43],
            ["distinct_words", 14, 24, 34, 44],
        ]


class TestDescriptives:
    def test_ccdf_starts_at_one(self):
        points = ccdf_points([1, 2, 2, 5])
        assert points[0] == (0, 1.0)
        assert points[-1] == (5, 0.25)
        xs = [x for x, _ in points]
        assert xs == list(range(6))

    def test_ccdf_empty(self):
        assert ccdf_points([]) == []

    def test_ccdf_monotone_nonincreasing(self):
        points = ccdf_points([3, 1, 4, 1, 5, 9, 2, 6])
        values = [v for _, v in points]
        assert all(a >= b for a, b in zip(values, values[1:]))
