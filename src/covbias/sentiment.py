"""Annotator-score aggregation, sentiment classes and inter-annotator agreement.

An aggregate score is the mean of five annotator scores in {-1, 0, 1}, so
it lies on the eleven-point grid -1, -0.8, ..., 0.8, 1. Every stage keeps
it as its grid position k = 5 * score, an int in -5..5: the lexicon reads
the annotator scores to k, each record carries k, and the sentiment class
is `CLASS_BY_FIFTHS[k]`, so class membership never depends on float
rounding. records.jsonl writes k itself, and analyze reads k from the
lexicon for each word cell of count_table.json. The float k/5 is made in
one place only, `inference.jitter`, where the quantile regressions need
scores on the real line.

Agreement is the ordinal Krippendorff alpha. Its coincidence matrix is
built from units counted by rating multiset: a five-annotator lexicon on
-1/0/1 has at most 21 distinct multisets, however many entries it holds,
so the exact rational work does not grow with the lexicon.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

VALID_RAW_SCORES = (-1, 0, 1)


class SentimentClass(str, Enum):
    STRONG_NEGATIVE = "strong_negative"
    WEAKLY_NEGATIVE = "weakly_negative"
    NEUTRAL = "neutral"
    WEAKLY_POSITIVE = "weakly_positive"
    STRONG_POSITIVE = "strong_positive"


# Bucket edges in grid positions k = 5 * aggregate score.
CLASS_BY_FIFTHS = {
    -5: SentimentClass.STRONG_NEGATIVE,
    -4: SentimentClass.STRONG_NEGATIVE,
    -3: SentimentClass.WEAKLY_NEGATIVE,
    -2: SentimentClass.WEAKLY_NEGATIVE,
    -1: SentimentClass.NEUTRAL,
    0: SentimentClass.NEUTRAL,
    1: SentimentClass.NEUTRAL,
    2: SentimentClass.WEAKLY_POSITIVE,
    3: SentimentClass.WEAKLY_POSITIVE,
    4: SentimentClass.STRONG_POSITIVE,
    5: SentimentClass.STRONG_POSITIVE,
}


def aggregate_fifths(scores: Sequence[int]) -> int:
    """Grid position k = 5 * mean of the five annotator scores, in -5..5."""
    if len(scores) != 5:
        raise ValueError(f"expected exactly 5 annotator scores, got {len(scores)}")
    for s in scores:
        if s not in VALID_RAW_SCORES:
            raise ValueError(f"annotator score {s!r} not in {{-1, 0, 1}}")
    return sum(scores)


class AlphaResult(NamedTuple):
    value: float
    d_o: float
    d_e: float
    marginals: dict[int, int]
    n_units: int
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.value,
            "D_o": self.d_o,
            "D_e": self.d_e,
            "value_marginals": {str(k): v for k, v in sorted(self.marginals.items())},
            "units": self.n_units,
            "degenerate": self.degenerate,
        }


def _ordinal_distances(values: Sequence, marginals: Mapping) -> dict:
    """delta^2(c, k) = (sum of marginals from c to k - (n_c + n_k)/2)^2."""
    dist = {}
    for i, c in enumerate(values):
        for j in range(i, len(values)):
            k = values[j]
            between = sum(Fraction(marginals[values[g]]) for g in range(i, j + 1))
            d2 = (between - Fraction(marginals[c] + marginals[k], 2)) ** 2
            dist[(c, k)] = d2
            dist[(k, c)] = d2
    return dist


def krippendorff_alpha(units: Iterable[Sequence[int]]) -> AlphaResult:
    """Krippendorff's alpha with the ordinal metric over per-unit rating lists.

    Units with fewer than two ratings carry no agreement information and
    are left out. Computed from the coincidence matrix; the ordinal
    distance weights use the coincidence value marginals. Exact rational
    arithmetic throughout, so permutation and duplication invariances
    hold to the bit.

    Units are counted by rating multiset, since equal multisets add equal
    pairs: a unit of m ratings, c_a of them equal to a, has c_a * c_b
    ordered pairs of positions rating (a, b), each weighing 1/(m - 1) in
    the coincidence matrix. The integer pair counts are summed per
    (m, a, b), and each such key adds one fraction to the matrix. Pairs
    of equal ratings are left out: their ordinal distance is 0.
    """
    shapes = Counter(tuple(sorted(u)) for u in units if len(u) >= 2)
    n_units = sum(shapes.values())
    if n_units < 2:
        raise ValueError("alpha needs at least 2 units with >= 2 ratings each")

    marginals: dict[int, int] = {}
    pair_counts: dict[tuple[int, int, int], int] = {}
    for shape, copies in shapes.items():
        m = len(shape)
        tally = Counter(shape)
        for a, c_a in tally.items():
            marginals[a] = marginals.get(a, 0) + copies * c_a
            for b, c_b in tally.items():
                if b != a:
                    key = (m, a, b)
                    pair_counts[key] = pair_counts.get(key, 0) + copies * c_a * c_b
    values = sorted(marginals)
    n = sum(marginals.values())

    # Coincidence matrix off the diagonal: ordered pairs of distinct
    # positions within a unit, weighted by 1/(m_u - 1).
    coincidence: dict[tuple[int, int], Fraction] = {}
    for (m, a, b), count in pair_counts.items():
        coincidence[(a, b)] = coincidence.get((a, b), Fraction(0)) + Fraction(count, m - 1)

    dist = _ordinal_distances(values, marginals)

    d_o = sum((coincidence[p] * dist[p] for p in coincidence), Fraction(0)) / n
    d_e = Fraction(0)
    for c in values:
        for k in values:
            if c != k:
                d_e += Fraction(marginals[c] * marginals[k]) * dist[(c, k)]
    d_e /= n * (n - 1)

    if d_e == 0:
        return AlphaResult(1.0, float(d_o), 0.0, marginals, n_units, degenerate=True)
    alpha = 1 - d_o / d_e
    return AlphaResult(float(alpha), float(d_o), float(d_e), marginals, n_units)
