import datetime
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covbias.bias import (
    _sorted_sample,
    bias_profile,
    dissimilarity,
    index_distribution,
    index_summary,
    leave_one_out,
)
from covbias.model import Category, CountTable, Gender, SourceType
from covbias.pipeline import PipelineConfig, temporal_analysis
from conftest import table_from_counts, table_from_events
from oracles import (
    count_table_json_str_key,
    count_table_marginals,
    diss_recompute,
    factors_from_marginals,
    profile_recompute,
    reliability_curve,
    slice_events,
    sorted_sample_reference,
    weighted_quantile,
    weighted_quantile_scan,
)

QUANTILE_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


class TestCorrectionFactors:
    def test_hand_arithmetic(self):
        c_f, c_m = factors_from_marginals(10, 30, 2, 3)
        assert (c_f, c_m) == (Fraction(2, 3), Fraction(4, 3))

    def test_equal_averages_give_unit_factors(self):
        c_f, c_m = factors_from_marginals(50, 100, 5, 10)
        assert (c_f, c_m) == (1, 1)

    def test_balanced_symmetry(self):
        c_f, c_m = factors_from_marginals(40, 40, 7, 7)
        assert (c_f, c_m) == (1, 1)

    @pytest.mark.parametrize("bad", [(0, 10, 1, 1), (10, 0, 1, 1), (10, 10, 0, 1), (10, 10, 1, 0)])
    def test_zero_marginals_rejected(self, bad):
        with pytest.raises(ValueError):
            factors_from_marginals(*bad)

    def test_identity_on_random_tables(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            d_f, d_m = rng.integers(1, 10_000, size=2)
            n_f, n_m = rng.integers(1, 400, size=2)
            c_f, c_m = factors_from_marginals(int(d_f), int(d_m), int(n_f), int(n_m))
            assert c_f + c_m == 2

    def test_from_table(self):
        table = table_from_counts({("w", "NOUN"): (10, 30)}, n_f=2, n_m=3)
        assert table_factors(table) == (Fraction(2, 3), Fraction(4, 3))


def table_factors(table):
    """The correction factors of the table's word totals and politician tallies."""
    return factors_from_marginals(
        table.total(Gender.F),
        table.total(Gender.M),
        table.politicians(Gender.F),
        table.politicians(Gender.M),
    )


def with_zero_cell(table, lemma, upos):
    """``table`` plus a word cell of politician f0 (a woman of
    ``table_from_counts``) for the word, counted 0 times."""
    return CountTable({**table.words, (lemma, upos, Gender.F, None, None, "f0"): 0}, table.days)


TWO_WORDS = {("w1", "NOUN"): (2, 3), ("w2", "NOUN"): (8, 27)}  # n_F = 2, n_M = 3


def profile_words(table, mode="ratio"):
    """The words of the table's bias profile, by (lemma, upos)."""
    return {(w.lemma, w.upos): w for w in bias_profile(table, mode).words}


def recomputed_index(counts, n_f, n_m, mode, word):
    """The oracle's index of ``word``: the normalized difference of its rates."""
    rate_f, rate_m = profile_recompute(counts, n_f, n_m, mode)[2][word]
    return (rate_f - rate_m) / (rate_f + rate_m)


class TestAdjustedRates:
    def table(self):
        return table_from_counts(TWO_WORDS, n_f=2, n_m=3)

    def test_ratio_mode_hand_values(self):
        w1 = profile_words(self.table())[("w1", "NOUN")]
        assert (w1.rate_f, w1.rate_m) == (Fraction(3, 10), Fraction(3, 40))
        assert profile_recompute(TWO_WORDS, 2, 3)[2][("w1", "NOUN")] == (w1.rate_f, w1.rate_m)

    def test_literal_mode(self):
        w1 = profile_words(self.table(), "literal")[("w1", "NOUN")]
        # literal divides the ratio-mode rate by the gender total once more
        assert (w1.rate_f, w1.rate_m) == (Fraction(3, 100), Fraction(1, 400))
        rates = profile_recompute(TWO_WORDS, 2, 3, "literal")[2]
        assert rates[("w1", "NOUN")] == (w1.rate_f, w1.rate_m)

    def test_unit_factors_recover_raw_rates(self):
        table = table_from_counts({("w", "NOUN"): (5, 10)}, n_f=1, n_m=2)
        w = profile_words(table)[("w", "NOUN")]
        assert (w.rate_f, w.rate_m) == (Fraction(5, 5), Fraction(10, 10))

    def test_absent_word_zero(self):
        # A word counted for neither gender has no rates: the profile
        # leaves it out, and its gap of 0 leaves the dissimilarity as it was.
        before = dissimilarity(bias_profile(self.table()))
        table = with_zero_cell(self.table(), "ghost", "ADJ")
        profile = bias_profile(table)
        assert profile.excluded == 1
        assert ("ghost", "ADJ") not in profile_words(table)
        assert dissimilarity(profile) == before

    def test_modes_agree_on_sign_when_totals_match(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = {
                (f"w{i}", "NOUN"): (int(a), int(b))
                for i, (a, b) in enumerate(rng.integers(0, 9, size=(6, 2)))
            }
            d_f = sum(c[0] for c in counts.values())
            d_m = sum(c[1] for c in counts.values())
            if d_f != d_m or d_f == 0:
                continue
            table = table_from_counts(counts, n_f=3, n_m=4)
            ratio = profile_words(table, "ratio")
            literal = profile_words(table, "literal")
            for key, r in ratio.items():
                l = literal[key]
                assert (r.rate_f - r.rate_m > 0) == (l.rate_f - l.rate_m > 0) or r.rate_f == r.rate_m


class TestCoverageBiasIndex:
    def test_hand_value(self):
        w1 = profile_words(table_from_counts(TWO_WORDS, n_f=2, n_m=3))[("w1", "NOUN")]
        assert (w1.rate_f, w1.rate_m) == (Fraction(3, 10), Fraction(3, 40))
        assert w1.index == Fraction(3, 5)
        assert recomputed_index(TWO_WORDS, 2, 3, "ratio", ("w1", "NOUN")) == Fraction(3, 5)

    def test_exclusive_words_hit_boundaries(self):
        # 7 and 9 words for 7 and 9 politicians: unit factors
        counts = {("a", "ADJ"): (1, 0), ("b", "ADJ"): (0, 2), ("c", "NOUN"): (6, 7)}
        words = profile_words(table_from_counts(counts, n_f=7, n_m=9))
        a, b = words[("a", "ADJ")], words[("b", "ADJ")]
        assert (a.rate_f, a.rate_m, a.index) == (Fraction(1, 7), 0, 1)
        assert (b.rate_f, b.rate_m, b.index) == (0, Fraction(2, 9), -1)
        assert recomputed_index(counts, 7, 9, "ratio", ("a", "ADJ")) == 1
        assert recomputed_index(counts, 7, 9, "ratio", ("b", "ADJ")) == -1

    def test_equal_rates_zero(self):
        counts = {("a", "ADJ"): (1, 2), ("b", "NOUN"): (2, 4)}
        a = profile_words(table_from_counts(counts, n_f=1, n_m=2))[("a", "ADJ")]
        assert (a.rate_f, a.rate_m, a.index) == (Fraction(1, 3), Fraction(1, 3), 0)
        assert recomputed_index(counts, 1, 2, "ratio", ("a", "ADJ")) == 0

    def test_boundary_law_on_random_tables(self):
        rng = np.random.default_rng(17)
        for mode in ("ratio", "literal"):
            for _ in range(200):
                counts = {
                    (f"w{i}", "NOUN"): (int(a), int(b))
                    for i, (a, b) in enumerate(rng.integers(0, 6, size=(8, 2)))
                }
                if not sum(c[0] for c in counts.values()) or not sum(
                    c[1] for c in counts.values()
                ):
                    continue
                table = table_from_counts(counts, n_f=2, n_m=5)
                profile = bias_profile(table, mode=mode)
                for w in profile.words:
                    if w.count_m == 0 and w.count_f > 0:
                        assert w.index == 1
                    elif w.count_f == 0 and w.count_m > 0:
                        assert w.index == -1
                    else:
                        assert -1 < w.index < 1


class TestReliabilityScenarios:
    def test_unbalanced_curve_below_balanced(self):
        d_total = 4020
        grid = list(range(10, d_total, 20))[:200]
        assert len(grid) == 200
        balanced = reliability_curve(5, 5, d_total, 50, 50, grid)
        fewer_women = reliability_curve(5, 5, d_total, 20, 80, grid)
        assert all(u <= b for u, b in zip(fewer_women, balanced))

    def test_balanced_point_is_exact_zero(self):
        d_total = 4000
        curve = reliability_curve(5, 5, d_total, 50, 50, [d_total // 2])
        assert curve[0] == 0

    def test_more_women_curve_above_balanced(self):
        d_total = 4020
        grid = list(range(10, d_total, 20))[:200]
        balanced = reliability_curve(5, 5, d_total, 50, 50, grid)
        more_women = reliability_curve(5, 5, d_total, 90, 30, grid)
        assert all(u >= b for u, b in zip(more_women, balanced))

    @pytest.mark.parametrize("mode", ["ratio", "literal"])
    def test_curve_matches_definitions(self, mode):
        d_total, grid = 1000, [1, 250, 500, 999]
        curve = reliability_curve(7, 3, d_total, 40, 60, grid, mode)
        for d_f, index in zip(grid, curve):
            d_m = d_total - d_f
            # The rest of the corpus makes up the totals. The curve reads
            # only the totals, so the oracle may take a negative rest count.
            counts = {("w", "NOUN"): (7, 3), ("rest", "NOUN"): (d_f - 7, d_m - 3)}
            assert index == recomputed_index(counts, 40, 60, mode, ("w", "NOUN"))
            if d_f > 7 and d_m > 3:
                words = profile_words(table_from_counts(counts, n_f=40, n_m=60), mode)
                assert words[("w", "NOUN")].index == index

    def test_word_never_counted_has_no_index(self):
        with pytest.raises(ValueError, match="both rates are zero"):
            reliability_curve(0, 0, 1000, 40, 60, [500])


class TestNullOffset:
    """A word used in proportion to the word totals, f/m = d_F/d_M, has the
    index (r - 1)/(r + 1) with r = (d_M/d_F)^(e-1) n_F/n_M (e = 2 in ratio
    mode, 3 in literal mode): 0 in ratio mode exactly when both genders
    have the same words per politician, and in literal mode r = n_M/n_F
    then."""

    # w and x have f/m = d_F/d_M; y and z make up the totals.
    EQUAL_AVERAGES = (  # 6 and 12 words for 1 and 2 politicians
        {("w", "NOUN"): (1, 2), ("x", "NOUN"): (2, 4), ("y", "ADJ"): (3, 1), ("z", "ADJ"): (0, 5)},
        1,
        2,
    )
    UNEQUAL_AVERAGES = (  # 6 and 18 words for 2 and 3 politicians
        {("w", "NOUN"): (1, 3), ("x", "NOUN"): (3, 9), ("y", "ADJ"): (2, 0), ("z", "ADJ"): (0, 6)},
        2,
        3,
    )

    @pytest.mark.parametrize(
        "table, mode, expected",
        [
            (EQUAL_AVERAGES, "ratio", Fraction(0)),
            (EQUAL_AVERAGES, "literal", Fraction(1, 3)),  # r = n_M/n_F = 2
            (UNEQUAL_AVERAGES, "ratio", Fraction(1, 3)),  # r = 2
            (UNEQUAL_AVERAGES, "literal", Fraction(5, 7)),  # r = 6
        ],
        ids=["equal-ratio", "equal-literal", "unequal-ratio", "unequal-literal"],
    )
    def test_proportional_word_index(self, table, mode, expected):
        counts, n_f, n_m = table
        d_f = sum(f for f, _ in counts.values())
        d_m = sum(m for _, m in counts.values())
        e = {"ratio": 2, "literal": 3}[mode]
        r = Fraction(d_m, d_f) ** (e - 1) * Fraction(n_f, n_m)
        assert (r - 1) / (r + 1) == expected
        if mode == "literal" and Fraction(d_f, n_f) == Fraction(d_m, n_m):
            assert r == Fraction(n_m, n_f)
        words = profile_words(table_from_counts(counts, n_f, n_m), mode)
        for key in (("w", "NOUN"), ("x", "NOUN")):
            f, m = counts[key]
            assert Fraction(f, m) == Fraction(d_f, d_m)
            assert words[key].index == expected
            assert recomputed_index(counts, n_f, n_m, mode, key) == expected
            assert reliability_curve(f, m, d_f + d_m, n_f, n_m, [d_f], mode) == [expected]


class TestWeightedQuantiles:
    def test_five_point_fixture_matches_scan_oracle(self):
        values = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 4), Fraction(1)]
        weights = [3, 1, 4, 1, 5]
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
            assert weighted_quantile(values, weights, p) == weighted_quantile_scan(
                values, weights, p
            )

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            values = [Fraction(int(v), 8) for v in rng.integers(-8, 9, size=n)]
            weights = [int(w) for w in rng.integers(1, 9, size=n)]
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                assert weighted_quantile(values, weights, p) == weighted_quantile_scan(
                    values, weights, p
                )

    def test_symmetric_two_point_median_zero(self):
        assert weighted_quantile([Fraction(-1, 2), Fraction(1, 2)], [3, 3], Fraction(1, 2)) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.fractions(-1, 1, max_denominator=8), st.integers(0, 6)),
            min_size=1,
            max_size=12,
        ).filter(lambda sample: any(w for _, w in sample))
    )
    # Cumulative weights 5, 10, 15, 18, 20: all four targets land on a boundary.
    @example([(Fraction(v, 4), w) for v, w in zip((-4, -1, 0, 2, 4), (5, 5, 5, 3, 2))])
    @example([(Fraction(1, 2), 2), (Fraction(-1), 0), (Fraction(1, 2), 2)])
    def test_summary_quantiles_equal_scan_oracle(self, sample):
        values = [v for v, _ in sample]
        weights = [w for _, w in sample]
        expected = [weighted_quantile_scan(values, weights, p) for p in QUANTILE_PS]
        assert [weighted_quantile(values, weights, p) for p in QUANTILE_PS] == expected
        stats = index_summary(values, weights)
        assert [stats.q1, stats.d5, stats.q3, stats.d9] == [float(q) for q in expected]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    # exact values a few 1e-30 apart round to one float
                    st.builds(
                        lambda v, k: v + Fraction(k, 10**30),
                        st.fractions(-1, 1, max_denominator=8),
                        st.integers(-2, 2),
                    ),
                    st.floats(-1, 1),
                ),
                st.integers(0, 6),
            ),
            min_size=1,
            max_size=12,
        ).filter(lambda sample: any(w for _, w in sample))
    )
    @example([(Fraction(1, 3) + Fraction(1, 10**30), 1), (Fraction(1, 3), 2), (1 / 3, 1)])
    def test_float_first_sort_is_the_exact_sort(self, sample):
        values = [v for v, _ in sample]
        weights = [w for _, w in sample]
        assert _sorted_sample(values, weights) == sorted_sample_reference(values, weights)


class TestIndexSummary:
    def test_degenerate_single_word(self):
        stats = index_summary([Fraction(1, 2)], [7])
        assert stats.mu == 0.5
        assert stats.gamma3 == 0.0 and stats.degenerate
        assert stats.d5 == stats.q3 == stats.d9 == 0.5
        assert stats.iqr == 0.0

    def test_symmetric_pair(self):
        stats = index_summary([Fraction(-3, 4), Fraction(3, 4)], [5, 5])
        assert stats.mu == 0.0
        assert stats.gamma3 == 0.0
        assert stats.d5 == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.fractions(-1, 1, max_denominator=8), min_size=1, max_size=24))
    # p * n lands on a rank boundary: Q1, D5 and Q3 at n = 4 and 8, all four at n = 20.
    @example([Fraction(k, 4) for k in (-3, 1, -1, 2)])
    @example([Fraction(k, 8) for k in (5, -8, 0, 3, -2, 7, 1, -5)])
    @example([Fraction((7 * k) % 20 - 10, 10) for k in range(20)])
    @example([Fraction(1, 2)] * 3 + [Fraction(-1, 4)] * 2 + [Fraction(0)] * 3)
    def test_unweighted_quantiles_equal_scan_oracle_at_unit_weights(self, values):
        stats = index_summary(values)
        ones = [1] * len(values)
        expected = [float(weighted_quantile_scan(values, ones, p)) for p in QUANTILE_PS]
        assert [stats.q1, stats.d5, stats.q3, stats.d9] == expected
        assert stats.iqr == stats.q3 - stats.q1
        assert stats.weighting == "none"
        assert stats.n_words == stats.total_weight == len(values)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([2, -1, 3], "weights must be nonnegative"),
            ([0, 0, 0], "all weights are zero"),
            ([1, 2], "values and weights differ in length"),
            ([1, 2, 3, 4], "values and weights differ in length"),
        ],
        ids=["negative", "all_zero", "shorter", "longer"],
    )
    def test_bad_weights_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            index_summary([Fraction(-1, 2), Fraction(0), Fraction(1, 2)], weights)

    def test_quantile_ordering(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            values = [Fraction(int(v), 10) for v in rng.integers(-10, 11, size=n)]
            weights = [int(w) for w in rng.integers(1, 6, size=n)]
            stats = index_summary(values, weights)
            assert stats.d5 <= stats.q3 <= stats.d9
            assert stats.iqr >= 0


class TestIndexDistribution:
    def make_profile(self):
        table = table_from_counts(
            {("a", "ADJ"): (4, 1), ("b", "ADJ"): (1, 5), ("c", "NOUN"): (3, 3)},
            n_f=2,
            n_m=2,
        )
        return bias_profile(table)

    def test_histogram_mass_equals_weight(self):
        profile = self.make_profile()
        dist = index_distribution(profile)
        assert sum(dist.bin_weights) == pytest.approx(
            sum(w.weight for w in profile.words)
        )

    def test_density_nonnegative_and_normalized(self):
        dist = index_distribution(self.make_profile())
        y = np.asarray(dist.density_y)
        assert (y >= 0).all()
        # the kernel mass inside [-1, 1] is most of the total
        x = np.asarray(dist.density_x)
        assert 0.6 < np.trapezoid(y, x) <= 1.0 + 1e-9

    def test_empty_category_rejected(self):
        profile = self.make_profile()
        with pytest.raises(ValueError):
            index_distribution(profile, category=Category.PHYSICAL)

    def test_degenerate_single_word_density(self):
        table = table_from_counts({("only", "ADJ"): (3, 1)}, n_f=1, n_m=1)
        dist = index_distribution(bias_profile(table))
        assert dist.stats.degenerate
        assert dist.bandwidth > 0
        assert all(v >= 0 for v in dist.density_y)


def random_corpus(rng, max_words=50):
    n_words = int(rng.integers(2, max_words + 1))
    counts = {}
    for i in range(n_words):
        wf = int(rng.integers(0, 20))
        wm = int(rng.integers(0, 20))
        if wf == 0 and wm == 0:
            wf = 1
        counts[(f"w{i:02d}", "NOUN")] = (wf, wm)
    # both genders need at least two words' worth of mass so that every
    # leave-one-out subcorpus stays well defined
    counts[("anchor_f", "NOUN")] = (int(rng.integers(5, 20)), int(rng.integers(0, 20)))
    counts[("anchor_m", "NOUN")] = (int(rng.integers(0, 20)), int(rng.integers(5, 20)))
    counts[("anchor_f2", "NOUN")] = (int(rng.integers(5, 20)), 0)
    counts[("anchor_m2", "NOUN")] = (0, int(rng.integers(5, 20)))
    n_f = int(rng.integers(1, 9))
    n_m = int(rng.integers(1, 9))
    return counts, n_f, n_m


class TestDissimilarity:
    def test_identical_distributions_zero(self):
        table = table_from_counts(
            {("a", "ADJ"): (3, 3), ("b", "NOUN"): (7, 7)}, n_f=4, n_m=4
        )
        assert dissimilarity(bias_profile(table)) == 0

    def test_two_word_fixture_exact_third(self):
        table = table_from_counts(TWO_WORDS, n_f=2, n_m=3)
        assert table_factors(table) == (Fraction(2, 3), Fraction(4, 3))
        assert dissimilarity(bias_profile(table)) == Fraction(1, 3)

    def test_disjoint_vocabularies_maximal(self):
        table = table_from_counts(
            {("a", "ADJ"): (5, 0), ("b", "NOUN"): (0, 9)}, n_f=2, n_m=3
        )
        assert dissimilarity(bias_profile(table)) == 1

    def test_bounded_by_one_on_random_corpora(self):
        rng = np.random.default_rng(23)
        for mode in ("ratio", "literal"):
            for _ in range(50):
                counts, n_f, n_m = random_corpus(rng, max_words=20)
                table = table_from_counts(counts, n_f=n_f, n_m=n_m)
                d = dissimilarity(bias_profile(table, mode))
                assert 0 <= d <= 1

    def test_matches_recompute_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            counts, n_f, n_m = random_corpus(rng)
            table = table_from_counts(counts, n_f=n_f, n_m=n_m)
            assert dissimilarity(bias_profile(table)) == diss_recompute(counts, n_f, n_m)


def diss_without_oracle(counts, n_f, n_m, mode, word):
    """The oracle's dissimilarity without ``word``; None where that
    removal leaves a gender with no words."""
    try:
        return diss_recompute(counts, n_f, n_m, mode, skip=word)
    except ValueError:
        return None


@st.composite
def loo_corpora(draw):
    """({word: (count_f, count_m)}, n_f, n_m) for the breakpoint sweep.

    Small counts make words with f = 0 or m = 0, and words whose removal
    empties one gender, common; a run of words shares the ratio m/f = p/q.
    In half the cases a balancing word equalizes the totals of every word
    but a last, held-out one, and n_F:n_M = p:q. Holding that word out
    then puts t = K_F/K_M = n_F d_M'^e / (n_M d_F'^e) (e = 2 in ratio mode,
    3 in literal mode) exactly on the shared breakpoint p/q.
    """
    small = st.tuples(st.integers(0, 5), st.integers(0, 5))
    pairs = draw(st.lists(small, max_size=8))
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs += [(q * k, p * k) for k in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))]
    if draw(st.booleans()):
        d_f = sum(f for f, _ in pairs)
        d_m = sum(m for _, m in pairs)
        top = max(d_f, d_m)
        pairs.append((top - d_f, top - d_m))
        pairs.append(draw(small.filter(lambda c: c != (0, 0))))
        n_f, n_m = p, q
    else:
        n_f, n_m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    counts = {(f"w{i:02d}", "NOUN"): c for i, c in enumerate(pairs) if c != (0, 0)}
    assume(len(counts) >= 2)
    assume(all(sum(c[g] for c in counts.values()) > 0 for g in (0, 1)))
    return counts, n_f, n_m


# Without h the totals are 6 and 6 and n_F:n_M = 1:2, so t = 1/2 in both
# modes: the breakpoint m/f of a and b.
ON_BREAKPOINT = (
    {("a", "NOUN"): (2, 1), ("b", "NOUN"): (4, 2), ("c", "NOUN"): (0, 3), ("h", "NOUN"): (3, 1)},
    1,
    2,
)


class TestSharedDissimilarity:
    @settings(max_examples=200, deadline=None)
    @given(loo_corpora(), st.sampled_from(["ratio", "literal"]))
    @example(ON_BREAKPOINT, "ratio")
    @example(ON_BREAKPOINT, "literal")
    @example(({("a", "NOUN"): (3, 0), ("b", "NOUN"): (0, 2), ("c", "NOUN"): (0, 1)}, 2, 1), "literal")
    def test_profile_and_base_equal_table_dissimilarity(self, corpus, mode):
        counts, n_f, n_m = corpus
        # the zero-count cell is excluded from the profile
        table = with_zero_cell(table_from_counts(counts, n_f=n_f, n_m=n_m), "zz_ghost", "NOUN")
        profile = bias_profile(table, mode=mode)
        assert profile.excluded == 1
        expected = diss_recompute(counts, n_f, n_m, mode)
        assert dissimilarity(profile) == expected
        assert leave_one_out(table, mode).base_diss == expected


class TestProfileOracle:
    @settings(max_examples=200, deadline=None)
    @given(loo_corpora(), st.sampled_from(["ratio", "literal"]))
    @example(ON_BREAKPOINT, "ratio")
    @example(ON_BREAKPOINT, "literal")
    def test_rates_and_indices_match_definitions(self, corpus, mode):
        counts, n_f, n_m = corpus
        # the zero-count cell is excluded from the profile
        table = with_zero_cell(table_from_counts(counts, n_f=n_f, n_m=n_m), "zz_ghost", "NOUN")
        profile = bias_profile(table, mode=mode)
        c_f, c_m, rates = profile_recompute(counts, n_f, n_m, mode)
        assert (profile.c_f, profile.c_m) == (c_f, c_m)
        assert profile.excluded == 1
        assert [(w.lemma, w.upos) for w in profile.words] == sorted(counts)
        for w in profile.words:
            rate_f, rate_m = rates[(w.lemma, w.upos)]
            assert (w.count_f, w.count_m) == counts[(w.lemma, w.upos)]
            assert (w.rate_f, w.rate_m) == (rate_f, rate_m)
            assert w.index == (rate_f - rate_m) / (rate_f + rate_m)


class TestLeaveOneOut:
    def test_matches_full_recompute_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            counts, n_f, n_m = random_corpus(rng)
            table = table_from_counts(counts, n_f=n_f, n_m=n_m)
            result = leave_one_out(table)
            base = diss_recompute(counts, n_f, n_m)
            assert result.base_diss == base
            for word in result.words:
                key = (word.lemma, word.upos)
                expected = diss_recompute(counts, n_f, n_m, skip=key)
                assert word.diss_without == expected
                assert word.distinctive == (expected < base)

    def test_exclusive_high_count_word_is_distinctive(self):
        counts = {
            ("planted", "NOUN"): (30, 0),
            ("a", "NOUN"): (10, 12),
            ("b", "NOUN"): (11, 13),
            ("c", "NOUN"): (9, 14),
        }
        table = table_from_counts(counts, n_f=3, n_m=3)
        result = leave_one_out(table)
        by_word = {(w.lemma, w.upos): w for w in result.words}
        planted = by_word[("planted", "NOUN")]
        assert planted.distinctive and planted.gender is Gender.F
        assert result.words[0].lemma == "planted"  # ranked first by weight

    def test_equal_rate_word_label_and_oracle(self):
        counts = {
            ("even", "NOUN"): (5, 5),
            ("fword", "NOUN"): (9, 1),
            ("mword", "NOUN"): (1, 9),
        }
        table = table_from_counts(counts, n_f=2, n_m=2)
        result = leave_one_out(table)
        by_word = {(w.lemma, w.upos): w for w in result.words}
        even = by_word[("even", "NOUN")]
        assert even.diss_without == diss_recompute(counts, 2, 2, skip=("even", "NOUN"))
        # equal adjusted rates: tie goes to women per the labeling rule
        assert even.gender is Gender.F

    def test_two_word_corpus_definition_coincidence(self):
        counts = {("w1", "NOUN"): (2, 3), ("w2", "NOUN"): (8, 27)}
        table = table_from_counts(counts, n_f=2, n_m=3)
        result = leave_one_out(table)
        by_word = {(w.lemma, w.upos): w for w in result.words}
        # dropping w1 leaves a single-word corpus whose dissimilarity is
        # computable directly
        only_w2 = diss_recompute({("w2", "NOUN"): (8, 27)}, 2, 3)
        assert by_word[("w1", "NOUN")].diss_without == only_w2

    def test_needs_two_words(self):
        table = table_from_counts({("w", "NOUN"): (1, 1)}, n_f=1, n_m=1)
        with pytest.raises(ValueError):
            leave_one_out(table)

    @settings(max_examples=300, deadline=None)
    @given(loo_corpora(), st.sampled_from(["ratio", "literal"]))
    @example(ON_BREAKPOINT, "ratio")
    @example(ON_BREAKPOINT, "literal")
    @example(({("a", "NOUN"): (3, 0), ("b", "NOUN"): (0, 2), ("c", "NOUN"): (0, 1)}, 2, 1), "ratio")
    def test_matches_oracle_in_both_modes(self, corpus, mode):
        counts, n_f, n_m = corpus
        table = table_from_counts(counts, n_f=n_f, n_m=n_m)
        result = leave_one_out(table, mode=mode)
        base = diss_recompute(counts, n_f, n_m, mode)
        assert result.base_diss == base
        assert sorted((w.lemma, w.upos) for w in result.words) == sorted(counts)
        _, _, rates = profile_recompute(counts, n_f, n_m, mode)
        for word in result.words:
            key = (word.lemma, word.upos)
            expected = diss_without_oracle(counts, n_f, n_m, mode, key)
            assert word.diss_without == expected
            if expected is None:
                assert word.weight is None and not word.distinctive
            else:
                assert word.weight == base - expected
                assert word.distinctive == (expected < base)
            r_f, r_m = rates[key]
            assert word.gender is (Gender.M if r_m > r_f else Gender.F)

    def test_large_vocabulary_sample_matches_oracle(self):
        # W = 4000 words: the base and 20 evenly spaced held-out words
        # against the full recompute.
        rng = np.random.default_rng(4000)
        counts = {}
        for i in range(4000):
            wf, wm = (int(x) for x in rng.integers(0, 30, size=2))
            counts[(f"w{i:04d}", "NOUN")] = (wf, wm) if wf or wm else (1, 0)
        n_f, n_m = 37, 52
        result = leave_one_out(table_from_counts(counts, n_f=n_f, n_m=n_m))
        assert len(result.words) == 4000
        assert result.base_diss == diss_recompute(counts, n_f, n_m)
        by_word = {(w.lemma, w.upos): w for w in result.words}
        for key in sorted(counts)[::200]:
            expected = diss_recompute(counts, n_f, n_m, skip=key)
            assert by_word[key].diss_without == expected
            assert by_word[key].distinctive == (expected < result.base_diss)


# (lemma, upos, gender, category, source_type, date, pid) events of `table_from_events`
COUNT_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "B", "à", "a b", "None", "Gender.F", ""]),
        st.sampled_from(["ADJ", "NOUN"]),
        st.sampled_from(list(Gender)),
        st.sampled_from([None, *Category]),
        st.sampled_from([None, *SourceType]),
        st.sampled_from(
            [None, datetime.date(2017, 1, 9), datetime.date(2017, 10, 1),
             datetime.date(2020, 12, 31)]
        ),
        st.sampled_from(["p1", "p2", "p10"]),
    ),
    max_size=40,
)


def assert_marginals(table, events):
    """Every marginal of ``table`` equals its sum over ``events``, the
    events it was built from (or sliced to)."""
    words, totals, days, sources, categories = count_table_marginals(events)
    assert table.word_counts() == words
    assert {g: table.total(g) for g in Gender} == totals
    assert table.grand_total == sum(totals.values())
    assert {g: table.by_day(g) for g in Gender} == days
    assert table.source_gender_counts() == sources
    got = table.word_categories()
    assert got.keys() == categories.keys()
    for word, cats in categories.items():
        # events may put one word in two categories, a lexicon never does;
        # such a word reads as one of them
        assert got[word] in (cats or {None})


# Both genders, two words per category and three days, so that every
# analysis runs.
ALL_ANALYSES_EVENTS = [
    (f"{cat.value}{i}", "ADJ", g, cat, src, datetime.date(2018, 5, day), f"p{g.value}")
    for cat in Category
    for i in (1, 2)
    for g in Gender
    for src in SourceType
    for day in (6, 7, 8)
]


class TestCountTable:
    @given(COUNT_EVENTS)
    @example(
        [
            ("a", "ADJ", g, cat, src, day, "p1")
            for g in Gender
            for cat in (None, *Category)
            for src in (None, *SourceType)
            for day in (None, datetime.date(2018, 5, 6))
        ]
    )
    @settings(max_examples=200, deadline=None)
    def test_json_order_matches_str_key_oracle(self, events):
        table = table_from_events(events)
        assert table.to_json_dict() == count_table_json_str_key(events)

    @settings(max_examples=200, deadline=None)
    @given(COUNT_EVENTS)
    @example(ALL_ANALYSES_EVENTS)
    def test_marginals_match_fresh_sums(self, events):
        # every slice keeps its own word, day and politician cells
        table = table_from_events(events)
        assert_marginals(table, events)
        assert_marginals(table.slice(lexicon_only=True), slice_events(events, lexicon_only=True))
        for category in (None, *Category):
            for source_type in (None, *SourceType):
                sliced = table.slice(category=category, source_type=source_type)
                assert_marginals(sliced, slice_events(events, category, source_type))

    @settings(max_examples=100, deadline=None)
    @given(COUNT_EVENTS)
    @example(ALL_ANALYSES_EVENTS)
    def test_analyses_leave_marginals_intact(self, events):
        # Marginals are returned as they are cached, so an analysis that
        # wrote to one would change what every later reader sees.
        table = table_from_events(events)
        slices = {category: table.slice(category=category) for category in Category}
        tables = [table, *slices.values()]
        sources = [events, *(slice_events(events, category) for category in slices)]
        for t, ev in zip(tables, sources):
            assert_marginals(t, ev)
        try:
            profile = bias_profile(table)
        except ValueError:
            profile = None
        for category in (None, *Category) if profile is not None else ():
            try:
                index_distribution(profile, category)
            except ValueError:
                pass
        for t in tables:
            try:
                leave_one_out(t)
            except ValueError:
                pass
        cfg = PipelineConfig(conllu=(), metadata="", registry="", lexicon="", out="", ma_window=1)
        temporal_analysis(cfg, table, slices)
        for t, ev in zip(tables, sources):
            assert_marginals(t, ev)

    def test_totals_are_cell_sums(self):
        table = table_from_counts({("a", "ADJ"): (2, 3), ("b", "NOUN"): (4, 0)}, 1, 1)
        assert table.total(Gender.F) == 6
        assert table.total(Gender.M) == 3
        assert table.grand_total == 9

    @settings(max_examples=100, deadline=None)
    @given(COUNT_EVENTS)
    @example(
        [
            ("bello", "ADJ", Gender.F, Category.PHYSICAL, SourceType.ONLINE,
             datetime.date(2019, 2, 3), "p1"),
            ("cosa", "NOUN", Gender.M, None, None, None, "p2"),
            ("cosa", "NOUN", Gender.M, None, None, datetime.date(2019, 2, 3), "p2"),
        ]
    )
    def test_json_round_trip(self, events):
        table = table_from_events(events)
        back = CountTable.from_json_dict(json.loads(json.dumps(table.to_json_dict())))
        assert back.words == table.words
        assert back.days == table.days

    @pytest.mark.parametrize("raw", ["20190203", "2019-W05-7"])
    def test_json_day_must_be_iso_calendar_date(self, raw):
        day = datetime.date(2019, 2, 3)
        table = table_from_events(
            [("bello", "ADJ", Gender.F, Category.PHYSICAL, SourceType.ONLINE, day, "p1")]
        )
        d = table.to_json_dict()
        assert d["days"][0][3] == "2019-02-03"
        d["days"][0][3] = raw
        with pytest.raises(ValueError, match=f"^Invalid isoformat string: '{raw}'$"):
            CountTable.from_json_dict(d)

    def test_csv_rows_sorted_and_aggregated(self):
        table = table_from_events(
            ("bello", "ADJ", Gender.F, Category.PHYSICAL, SourceType.ONLINE,
             datetime.date(2019, 2, day), f"p{day}")
            for day in (1, 2)
        )
        rows = table.to_csv_rows()
        assert rows == [("bello", "ADJ", "F", "physical", "online", 2)]

    def test_slice_politicians(self):
        table = table_from_events(
            [
                ("a", "ADJ", Gender.F, Category.PHYSICAL, None, None, "p1"),
                ("b", "ADJ", Gender.F, Category.SOCIO_ECONOMIC, None, None, "p2"),
            ]
        )
        sliced = table.slice(category=Category.PHYSICAL)
        assert sliced.politicians(Gender.F) == 1
        assert sliced.total(Gender.F) == 1
