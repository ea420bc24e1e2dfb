import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covbias.sentiment import (
    CLASS_BY_FIFTHS,
    SentimentClass,
    aggregate_fifths,
    krippendorff_alpha,
)
from oracles import alpha_ordinal_bruteforce, alpha_pairwise


class TestAggregateScore:
    def test_hand_arithmetic(self):
        # mean 2/5, grid position 2
        assert aggregate_fifths([-1, 0, 1, 1, 1]) == 2

    def test_all_zero(self):
        assert aggregate_fifths([0, 0, 0, 0, 0]) == 0

    def test_unanimous_negative(self):
        assert aggregate_fifths([-1] * 5) == -5

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            aggregate_fifths([1, 1, 1])

    def test_score_outside_range(self):
        with pytest.raises(ValueError):
            aggregate_fifths([2, 0, 0, 0, 0])


_BUCKETS = [
    (2, SentimentClass.WEAKLY_POSITIVE),
    (1, SentimentClass.NEUTRAL),
    (-4, SentimentClass.STRONG_NEGATIVE),
    (5, SentimentClass.STRONG_POSITIVE),
    (4, SentimentClass.STRONG_POSITIVE),
    (3, SentimentClass.WEAKLY_POSITIVE),
    (0, SentimentClass.NEUTRAL),
    (-1, SentimentClass.NEUTRAL),
    (-2, SentimentClass.WEAKLY_NEGATIVE),
    (-3, SentimentClass.WEAKLY_NEGATIVE),
    (-5, SentimentClass.STRONG_NEGATIVE),
]


class TestClassify:
    # each case named by the aggregate score k/5 of its grid position k
    @pytest.mark.parametrize(
        "k,expected", _BUCKETS, ids=[f"{k / 5}-{c.value}" for k, c in _BUCKETS]
    )
    def test_bucket_table(self, k, expected):
        assert CLASS_BY_FIFTHS[k] is expected

    def test_off_grid_rejected(self):
        assert sorted(CLASS_BY_FIFTHS) == list(range(-5, 6))
        for k in (-6, 6):
            with pytest.raises(KeyError):
                CLASS_BY_FIFTHS[k]

    def test_buckets_partition_grid(self):
        seen = [CLASS_BY_FIFTHS[k] for k in range(-5, 6)]
        assert len(seen) == 11
        assert set(seen) == set(SentimentClass)

    def test_classify_of_aggregate_total(self):
        # every raw score vector has a grid position with a class
        for scores in itertools.product((-1, 0, 1), repeat=5):
            assert CLASS_BY_FIFTHS[aggregate_fifths(scores)] in SentimentClass


def random_units(rng, max_units=10, max_raters=5):
    n_units = rng.integers(2, max_units + 1)
    units = []
    for _ in range(n_units):
        m = rng.integers(2, max_raters + 1)
        units.append([int(v) for v in rng.integers(-1, 2, size=m)])
    return units


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        result = krippendorff_alpha([[1, 1, 1], [-1, -1, -1], [0, 0, 0]])
        assert result.value == 1.0

    def test_degenerate_flag(self):
        result = krippendorff_alpha([[1, 1], [1, 1]])
        assert result.value == 1.0 and result.degenerate

    def test_balanced_disagreement_fixture(self):
        # two units, two raters, opposite labels: alpha = -0.5 by both the
        # engine and the pair-enumeration oracle
        units = [[-1, 1], [1, -1]]
        assert alpha_ordinal_bruteforce(units) == pytest.approx(-0.5, abs=1e-12)
        assert krippendorff_alpha(units).value == pytest.approx(-0.5, abs=1e-9)

    def test_single_rating_unit_excluded(self):
        with_single = [[-1, 1], [1, -1], [0]]
        without = [[-1, 1], [1, -1]]
        assert (
            krippendorff_alpha(with_single).value
            == krippendorff_alpha(without).value
        )

    def test_too_few_units(self):
        with pytest.raises(ValueError):
            krippendorff_alpha([[1, 1]])

    def test_matches_bruteforce_on_random_matrices(self):
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(50):
            units = random_units(rng)
            expected = alpha_ordinal_bruteforce(units)
            got = krippendorff_alpha(units)
            if not got.degenerate:
                assert got.value == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert checked == 50

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            units = random_units(rng, max_raters=4)
            base = krippendorff_alpha(units).value
            shuffled = [list(rng.permutation(u)) for u in units]
            assert krippendorff_alpha(shuffled).value == pytest.approx(base, abs=0)

    def test_duplication_leaves_coincidence_proportions_fixed(self):
        # Duplicating every unit doubles the coincidence matrix and its
        # marginals, leaving all proportions unchanged. alpha itself moves
        # by the exact small-sample factor (2n-1)/(2n-2) in D_o/D_e (the
        # expected-disagreement denominator counts pairs without
        # replacement), and converges back to the original as n grows.
        rng = np.random.default_rng(8)
        for _ in range(20):
            units = random_units(rng)
            base = krippendorff_alpha(units)
            if base.degenerate:
                continue
            n = sum(len(u) for u in units)
            doubled = krippendorff_alpha(units + [list(u) for u in units])
            assert 1 - doubled.value == pytest.approx(
                (1 - base.value) * (2 * n - 1) / (2 * n - 2), abs=1e-12
            )
            assert abs(doubled.value - base.value) <= abs(1 - base.value) / (2 * n - 2) + 1e-12
            # coincidence marginals double exactly
            assert doubled.marginals == {k: 2 * v for k, v in base.marginals.items()}

    @given(
        st.lists(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=2, max_size=5),
            min_size=2,
            max_size=8,
        )
    )
    def test_alpha_never_exceeds_one(self, units):
        assert krippendorff_alpha(units).value <= 1.0


@st.composite
def rating_units(draw):
    """Units of 1-7 ratings, each a reordering of one of a few multisets,
    so that equal multisets recur; ratings are any integers, with small
    ones common."""
    values = st.one_of(st.integers(-2, 2), st.integers())
    pool = draw(st.lists(st.lists(values, min_size=1, max_size=7), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=14))
    return [draw(st.permutations(pool[i])) for i in picks]


class TestAlphaPairwiseOracle:
    @settings(max_examples=300, deadline=None)
    @given(rating_units(), st.randoms(use_true_random=False))
    @example([[3, 3], [3, 3, 3], [3], [3, 3]], random.Random(0))  # D_e = 0
    @example([[1], [2, 2], [7]], random.Random(0))  # one unit with 2+ ratings
    @example([[-1, 0, 1, 1, 1]] * 3 + [[1, 1, 1, 0, -1], [0, 0, 0, 0, 0]], random.Random(0))
    def test_multiset_counts_equal_pairwise(self, units, rng):
        shuffled = rng.sample(units, len(units))
        for variant in (units, shuffled, units + units):
            try:
                expected = alpha_pairwise(variant)
            except ValueError:
                with pytest.raises(ValueError, match="at least 2 units"):
                    krippendorff_alpha(variant)
                continue
            assert krippendorff_alpha(variant).to_json_dict() == expected
