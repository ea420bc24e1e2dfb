"""Gender-adjusted coverage statistics.

Count tables aggregate word events per gender (and optional category,
source type and day); correction factors rescale for the structural
imbalance in both representation and coverage; on top of those sit the
per-word coverage bias index, distribution summaries, the dissimilarity
index and its leave-one-out variant used to rank gender-distinctive words.

All index arithmetic is exact (fractions over integer counts); floats
appear only when results are serialized.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .model import Category, Gender, SourceType

WordKey = tuple[str, str]  # (lemma, upos)
CellKey = tuple[
    str,
    str,
    Gender,
    Optional[Category],
    Optional[SourceType],
    Optional[datetime.date],
]
RATE_MODES = ("ratio", "literal")
# str() and value of everything an enum slot of a key can hold (None or a
# member), looked up per cell: str() orders serialized cells, value fills them.
_SLOT_STR = {x: str(x) for x in (None, *Gender, *Category, *SourceType)}
_SLOT_VALUE = {x: getattr(x, "value", None) for x in _SLOT_STR}


class CountTable:
    """Aggregate of word-event counts.

    Cells are keyed by (lemma, upos, gender, category, source_type, date);
    category is None for words outside the lexicon. Politician identities
    are tracked per (gender, category, source_type) so that slices report
    their own politician tallies.

    The marginals the analyses read over and over are cached: the per-word
    gender counts of `word_counts()`, the two gender totals of `total()`
    and the per-day totals of `by_day()`. Each is computed from `cells` on
    its first read, and `add()` clears them all, so once a marginal has
    been read the cells may change only through `add()`. `word_counts()`
    and `by_day()` return fresh dicts: a caller that mutates one leaves the
    cache intact.
    """

    def __init__(self) -> None:
        self.cells: dict[CellKey, int] = {}
        self.pids: dict[tuple[Gender, Optional[Category], Optional[SourceType]], set[str]] = {}
        self._cache: dict[str, dict] = {}

    def add(
        self,
        lemma: str,
        upos: str,
        gender: Gender,
        category: Optional[Category] = None,
        source_type: Optional[SourceType] = None,
        date: Optional[datetime.date] = None,
        pid: Optional[str] = None,
        n: int = 1,
    ) -> None:
        if n < 0:
            raise ValueError("counts must be nonnegative")
        key = (lemma, upos, gender, category, source_type, date)
        self.cells[key] = self.cells.get(key, 0) + n
        self._cache.clear()
        if pid is not None:
            self.pids.setdefault((gender, category, source_type), set()).add(pid)

    # -- marginals ---------------------------------------------------------

    def _marginal(self, name: str, compute: Callable[[], dict]) -> dict:
        """The cached marginal ``name``, computed on first read."""
        value = self._cache.get(name)
        if value is None:
            value = self._cache[name] = compute()
        return value

    def _gender_totals(self) -> dict[Gender, int]:
        out = {g: 0 for g in Gender}
        for (_, _, g, _, _, _), n in self.cells.items():
            out[g] += n
        return out

    def _count_words(self) -> dict[WordKey, dict[Gender, int]]:
        out: dict[WordKey, dict[Gender, int]] = {}
        for (lemma, upos, g, _, _, _), n in self.cells.items():
            per = out.setdefault((lemma, upos), {Gender.F: 0, Gender.M: 0})
            per[g] += n
        return out

    def _days_by_gender(self) -> dict[Gender, dict[datetime.date, int]]:
        out: dict[Gender, dict[datetime.date, int]] = {g: {} for g in Gender}
        for (_, _, g, _, _, day), n in self.cells.items():
            if day is not None:
                per = out[g]
                per[day] = per.get(day, 0) + n
        return out

    def total(self, gender: Gender) -> int:
        return self._marginal("totals", self._gender_totals)[gender]

    @property
    def grand_total(self) -> int:
        return sum(self.cells.values())

    def politicians(self, gender: Gender) -> int:
        seen: set[str] = set()
        for (g, _, _), pids in self.pids.items():
            if g == gender:
                seen.update(pids)
        return len(seen)

    def word_counts(self) -> dict[WordKey, dict[Gender, int]]:
        cached = self._marginal("words", self._count_words)
        return {word: dict(per) for word, per in cached.items()}

    def word_categories(self) -> dict[WordKey, Optional[Category]]:
        """Lexicon category per word; None for out-of-lexicon words."""
        out: dict[WordKey, Optional[Category]] = {}
        for (lemma, upos, _, cat, _, _) in self.cells:
            key = (lemma, upos)
            if cat is not None or key not in out:
                out[key] = cat if cat is not None else out.get(key)
        return out

    def by_day(self, gender: Gender) -> dict[datetime.date, int]:
        return dict(self._marginal("days", self._days_by_gender)[gender])

    def source_gender_counts(self) -> dict[tuple[SourceType, Gender], int]:
        out: dict[tuple[SourceType, Gender], int] = {}
        for (_, _, g, _, st, _), n in self.cells.items():
            if st is not None:
                out[(st, g)] = out.get((st, g), 0) + n
        return out

    # -- slicing -----------------------------------------------------------

    def slice(
        self,
        category: Optional[Category] = None,
        source_type: Optional[SourceType] = None,
        lexicon_only: bool = False,
    ) -> "CountTable":
        # The category and source-type slot values the slice keeps. Tuples,
        # not sets: membership then compares by identity instead of calling
        # the enums' Python-level __hash__.
        if category is not None:
            cats: tuple = (category,)
        else:
            cats = (*Category,) if lexicon_only else (None, *Category)
        sts = (source_type,) if source_type is not None else (None, *SourceType)
        out = CountTable()
        out.cells = {k: n for k, n in self.cells.items() if k[3] in cats and k[4] in sts}
        out.pids = {k: set(p) for k, p in self.pids.items() if k[1] in cats and k[2] in sts}
        return out

    # -- serialization -----------------------------------------------------

    def to_csv_rows(self) -> list[tuple[str, str, str, str, str, int]]:
        """Date-aggregated rows (lemma, upos, gender, category, source_type, count)."""
        agg: dict[tuple[str, str, str, str, str], int] = {}
        for (lemma, upos, g, cat, st, _), n in self.cells.items():
            k = (lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat] or "", _SLOT_VALUE[st] or "")
            agg[k] = agg.get(k, 0) + n
        return [k + (agg[k],) for k in sorted(agg)]

    def to_json_dict(self) -> dict:
        # str() of each distinct day, made once: it is the day's ISO date,
        # and the cells sort by ``tuple(str(x) for x in key)``
        day_str = {day: str(day) for day in {key[5] for key in self.cells}}

        def sort_key(item: tuple[CellKey, int]) -> tuple[str, ...]:
            (lemma, upos, g, cat, st, day), _ = item
            return lemma, upos, _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st], day_str[day]

        cells = [
            [
                lemma,
                upos,
                _SLOT_VALUE[g],
                _SLOT_VALUE[cat],
                _SLOT_VALUE[st],
                day_str[day] if day is not None else None,
                n,
            ]
            for (lemma, upos, g, cat, st, day), n in sorted(self.cells.items(), key=sort_key)
        ]
        pids = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], sorted(members)]
            for (g, cat, st), members in sorted(
                self.pids.items(), key=lambda kv: tuple([_SLOT_STR[x] for x in kv[0]])
            )
        ]
        return {"cells": cells, "politicians": pids}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountTable":
        out = cls()
        decoded: dict[tuple, tuple] = {}  # raw slot values -> members
        days: dict[str, datetime.date] = {}  # ISO day string -> date
        for lemma, upos, g, cat, st, day, n in d["cells"]:
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            date = days.get(day)
            if date is None and day is not None:
                date = days[day] = datetime.date.fromisoformat(day)
            key = (lemma, upos, *slots, date)
            out.cells[key] = out.cells.get(key, 0) + n
        for g, cat, st, members in d["politicians"]:
            out.pids.setdefault(_decode_slots(g, cat, st), set()).update(members)
        return out


def _decode_slots(
    g: str, cat: Optional[str], st: Optional[str]
) -> tuple[Gender, Optional[Category], Optional[SourceType]]:
    """The (gender, category, source_type) members of serialized slot values."""
    return (
        Gender(g),
        Category(cat) if cat is not None else None,
        SourceType(st) if st is not None else None,
    )


# ---------------------------------------------------------------------------
# Correction factors and adjusted rates
# ---------------------------------------------------------------------------


def factors_from_marginals(
    d_f: int, d_m: int, n_f: int, n_m: int
) -> tuple[Fraction, Fraction]:
    """Correction factors from word totals and politician tallies.

    a_g = |D_g| / |G| is the average words per politician; each factor is
    a_g over the mean of the two averages, so c_F + c_M = 2 identically.
    These are the only checks that the marginals are positive; the exact
    values of `_exact_terms` are defined once they pass.
    """
    if n_f <= 0:
        raise ValueError("correction factor undefined: no women politicians")
    if n_m <= 0:
        raise ValueError("correction factor undefined: no men politicians")
    if d_f <= 0:
        raise ValueError("correction factor undefined: no words for women")
    if d_m <= 0:
        raise ValueError("correction factor undefined: no words for men")
    a_f = Fraction(d_f, n_f)
    a_m = Fraction(d_m, n_m)
    a_mean = (a_f + a_m) / 2
    return a_f / a_mean, a_m / a_mean


def correction_factors(table: CountTable) -> tuple[Fraction, Fraction]:
    return factors_from_marginals(
        table.total(Gender.F),
        table.total(Gender.M),
        table.politicians(Gender.F),
        table.politicians(Gender.M),
    )


def _rate_exponent(mode: str) -> int:
    """k such that an adjusted rate is count / (c_g d_g^k): 1 in ratio
    mode, 2 in literal mode."""
    if mode == "ratio":
        return 1
    if mode == "literal":
        return 2
    raise ValueError(f"unknown rates mode {mode!r}")


def _exact_terms(d_f: int, d_m: int, n_f: int, n_m: int, mode: str) -> tuple[int, int, int, int]:
    """(T, p_F, p_M, D): the integers each exact value on these marginals is a ratio of.

    With T = d_F n_M + d_M n_F the factors are c_F = 2 d_F n_M / T and
    c_M = 2 d_M n_F / T. With p_F = d_F^e n_M and p_M = d_M^e n_F, where
    e = k + 1 for the `_rate_exponent` k, a word with counts (f, m) has
    - the adjusted rates f T / (2 p_F) and m T / (2 p_M);
    - the index (f p_M - m p_F) / (f p_M + m p_F);
    - the share |f p_M - m p_F| / D of the dissimilarity
      c_F c_M / (c_F + c_M) * sum |rate_F - rate_M|, with D = T (d_F d_M)^(e-1).
    So each value is one `Fraction` of two integers, reduced once. The
    marginals must be positive (`factors_from_marginals` checks them).
    """
    k = _rate_exponent(mode)
    t = d_f * n_m + d_m * n_f
    return t, d_f ** (k + 1) * n_m, d_m ** (k + 1) * n_f, t * (d_f * d_m) ** k


def adjusted_rates(
    table: CountTable,
    factors: tuple[Fraction, Fraction],
    mode: str = "ratio",
) -> dict[WordKey, tuple[Fraction, Fraction]]:
    """Per-word gender-adjusted incidence rates.

    mode="ratio" divides the raw incidence rate by the correction factor;
    mode="literal" additionally divides by the gender word total, exactly
    as printed. Words with zero counts for both genders map to (0, 0).
    """
    k = _rate_exponent(mode)
    c_f, c_m = factors
    # count / (d_g^k c_g), one reduced Fraction per rate
    num_f, den_f = c_f.denominator, table.total(Gender.F) ** k * c_f.numerator
    num_m, den_m = c_m.denominator, table.total(Gender.M) ** k * c_m.numerator
    return {
        word: (Fraction(per[Gender.F] * num_f, den_f), Fraction(per[Gender.M] * num_m, den_m))
        for word, per in table.word_counts().items()
    }


def coverage_bias_index(rate_f: Fraction, rate_m: Fraction) -> Fraction:
    """Normalized difference of the adjusted rates; +1 women-exclusive."""
    total = rate_f + rate_m
    if total <= 0:
        raise ValueError("coverage bias index undefined: both rates are zero")
    return (rate_f - rate_m) / total


@dataclass(frozen=True)
class WordBias:
    lemma: str
    upos: str
    count_f: int
    count_m: int
    rate_f: Fraction
    rate_m: Fraction
    index: Fraction
    category: Optional[Category] = None

    @property
    def weight(self) -> int:
        return self.count_f + self.count_m


@dataclass(frozen=True)
class BiasProfile:
    mode: str
    c_f: Fraction
    c_m: Fraction
    words: tuple[WordBias, ...]
    excluded: int  # words with zero counts for both genders

    def select(self, category: Optional[Category]) -> tuple[WordBias, ...]:
        if category is None:
            return self.words
        return tuple(w for w in self.words if w.category == category)


def word_bias_json(w: WordBias) -> dict:
    return {
        "lemma": w.lemma,
        "upos": w.upos,
        "category": w.category.value if w.category else None,
        "count_F": w.count_f,
        "count_M": w.count_m,
        "adjusted_rate_F": float(w.rate_f),
        "adjusted_rate_M": float(w.rate_m),
        "index": float(w.index),
        "weight": w.weight,
    }


def bias_profile(table: CountTable, mode: str = "ratio") -> BiasProfile:
    """Correction factors plus per-word adjusted rates and bias indices.

    Rates are relative to the whole table's gender totals; a word's
    category is carried along so distributions can be summarized per
    category without renormalizing.
    """
    c_f, c_m = correction_factors(table)
    t, p_f, p_m, _ = _exact_terms(
        table.total(Gender.F),
        table.total(Gender.M),
        table.politicians(Gender.F),
        table.politicians(Gender.M),
        mode,
    )

    @cache
    def values(f: int, m: int) -> tuple[Fraction, Fraction, Fraction]:
        """(rate_F, rate_M, index) of a word with counts (f, m); words with
        equal counts share them."""
        return (
            Fraction(f * t, 2 * p_f),
            Fraction(m * t, 2 * p_m),
            Fraction(f * p_m - m * p_f, f * p_m + m * p_f),
        )

    counts = table.word_counts()
    categories = table.word_categories()
    words = []
    excluded = 0
    for key in sorted(counts):
        per = counts[key]
        f, m = per[Gender.F], per[Gender.M]
        if f == 0 and m == 0:
            excluded += 1
            continue
        words.append(WordBias(key[0], key[1], f, m, *values(f, m), categories.get(key)))
    return BiasProfile(mode=mode, c_f=c_f, c_m=c_m, words=tuple(words), excluded=excluded)


# ---------------------------------------------------------------------------
# Distribution summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SummaryStats:
    mu: float
    gamma3: float
    q1: float
    d5: float
    q3: float
    d9: float
    iqr: float
    n_words: int
    total_weight: int
    weighting: str
    degenerate: bool = False

    def to_json_dict(self) -> dict:
        return {
            "mu": self.mu,
            "gamma3": self.gamma3,
            "Q1": self.q1,
            "D5": self.d5,
            "Q3": self.q3,
            "D9": self.d9,
            "IQR": self.iqr,
            "n_words": self.n_words,
            "total_weight": self.total_weight,
            "weighting": self.weighting,
            "degenerate": self.degenerate,
        }


def weighted_quantile(
    values: Sequence[Union[Fraction, float]],
    weights: Sequence[int],
    p: Fraction,
) -> Fraction:
    """Quantile of a weighted sample via inversion of the cumulative weights.

    Returns the smallest value whose cumulative weight reaches p times the
    total; when the target lands exactly on a cumulative boundary the
    inverse is set-valued and the midpoint of the bracketing values is
    returned (so symmetric data has median zero).
    """
    return _sorted_quantile(*_sorted_sample(values, weights), p)


def _sorted_sample(
    values: Sequence[Union[Fraction, float]], weights: Sequence[int]
) -> tuple[list[Fraction], list[int]]:
    """The values of positive weight in ascending order, with the running
    total of their weights."""
    if not values:
        raise ValueError("empty sample")
    if len(values) != len(weights):
        raise ValueError("values and weights differ in length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    pairs = sorted(
        (Fraction(v), w) for v, w in zip(values, weights) if w > 0
    )
    if not pairs:
        raise ValueError("all weights are zero")
    return [v for v, _ in pairs], list(accumulate(w for _, w in pairs))


def _sorted_quantile(ordered: list[Fraction], cum: list[int], p: Fraction) -> Fraction:
    """`weighted_quantile` of a sample from `_sorted_sample`."""
    target = p * cum[-1]
    # The running totals strictly increase, so i is the first position
    # whose cumulative weight reaches the target.
    i = bisect_left(cum, target)
    if i == len(cum):
        return ordered[-1]
    if cum[i] == target and i + 1 < len(ordered):
        return (ordered[i] + ordered[i + 1]) / 2
    return ordered[i]


def interpolated_quantile(values: Sequence[float], p: float) -> float:
    """Unweighted quantile, linear interpolation between order statistics."""
    return float(np.quantile(np.asarray([float(v) for v in values]), p))


def index_summary(
    values: Sequence[Union[Fraction, float]],
    weights: Optional[Sequence[int]] = None,
) -> SummaryStats:
    """Weighted (or unweighted) mean, Fisher skewness and quantiles."""
    if not values:
        raise ValueError("cannot summarize an empty distribution")
    x = np.asarray([float(v) for v in values], dtype=float)
    if weights is None:
        w = np.ones(len(x))
        q1, d5, q3, d9 = (interpolated_quantile(x, p) for p in (0.25, 0.5, 0.75, 0.9))
        weighting = "none"
    else:
        w = np.asarray(list(weights), dtype=float)
        if w.sum() <= 0:
            raise ValueError("total weight must be positive")
        ordered, cum = _sorted_sample(values, list(weights))
        q1, d5, q3, d9 = (
            float(_sorted_quantile(ordered, cum, Fraction(*p)))
            for p in ((1, 4), (1, 2), (3, 4), (9, 10))
        )
        weighting = "counts"
    total = w.sum()
    mu = float((w * x).sum() / total)
    m2 = float((w * (x - mu) ** 2).sum() / total)
    m3 = float((w * (x - mu) ** 3).sum() / total)
    degenerate = m2 == 0.0
    gamma3 = 0.0 if degenerate else m3 / m2**1.5
    return SummaryStats(
        mu=mu,
        gamma3=gamma3,
        q1=q1,
        d5=d5,
        q3=q3,
        d9=d9,
        iqr=q3 - q1,
        n_words=len(x),
        total_weight=int(sum(weights)) if weights is not None else len(x),
        weighting=weighting,
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class IndexDistribution:
    stats: SummaryStats
    bin_edges: tuple[float, ...]
    bin_weights: tuple[float, ...]
    density_x: tuple[float, ...]
    density_y: tuple[float, ...]
    bandwidth: float

    def to_json_dict(self) -> dict:
        return {
            "stats": self.stats.to_json_dict(),
            "histogram": {
                "edges": list(self.bin_edges),
                "weights": list(self.bin_weights),
            },
            "density": {
                "x": list(self.density_x),
                "y": list(self.density_y),
                "bandwidth": self.bandwidth,
            },
        }


# Points of the kernel density grid over [-1, 1].
DENSITY_POINTS = 201


def index_distribution(
    profile: BiasProfile,
    category: Optional[Category] = None,
    bins: int = 40,
) -> IndexDistribution:
    """Summary statistics plus plot-ready histogram and kernel density.

    With a category, only that category's words enter; rates and indices
    stay as computed on the full table. Each word is weighted by its total
    count. The density is a Gaussian kernel estimate with Silverman
    bandwidth on a fixed grid over [-1, 1].
    """
    selected = profile.select(category)
    if not selected:
        raise ValueError(
            f"no words with a defined index in category "
            f"{category.value if category else 'all'}"
        )
    values = [w.index for w in selected]
    weights = [w.weight for w in selected]
    stats = index_summary(values, weights)

    x = np.asarray([float(v) for v in values])
    w = np.asarray([float(v) for v in weights])
    hist, edges = np.histogram(x, bins=bins, range=(-1.0, 1.0), weights=w)

    total = w.sum()
    sigma = float(np.sqrt((w * (x - stats.mu) ** 2).sum() / total))
    n_eff = float(total**2 / (w**2).sum())
    spread = min(s for s in (sigma, stats.iqr / 1.34) if s > 0) if sigma > 0 else 0.0
    bandwidth = 0.9 * spread * n_eff ** (-1 / 5) if spread > 0 else 0.05
    grid = np.linspace(-1.0, 1.0, DENSITY_POINTS)
    diff = (grid[:, None] - x[None, :]) / bandwidth
    dens = (w[None, :] * np.exp(-0.5 * diff**2)).sum(axis=1)
    dens /= total * bandwidth * np.sqrt(2 * np.pi)

    return IndexDistribution(
        stats=stats,
        bin_edges=tuple(float(e) for e in edges),
        bin_weights=tuple(float(h) for h in hist),
        density_x=tuple(float(g) for g in grid),
        density_y=tuple(float(d) for d in dens),
        bandwidth=bandwidth,
    )


# ---------------------------------------------------------------------------
# Dissimilarity and leave-one-out distinctive words
# ---------------------------------------------------------------------------


def dissimilarity(profile: BiasProfile) -> Fraction:
    """Aggregate absolute gap between the gender rate distributions, in [0, 1].

    The profile supplies its own factors and adjusted rates, so nothing is
    recomputed; the words it excludes have both rates 0 and add 0.
    """
    c_f, c_m = profile.c_f, profile.c_m
    gaps = (abs(w.rate_f - w.rate_m) for w in profile.words)
    return (c_f * c_m) / (c_f + c_m) * sum(gaps, Fraction(0))


@dataclass(frozen=True)
class LeaveOneOutWord:
    lemma: str
    upos: str
    diss_without: Optional[Fraction]
    weight: Optional[Fraction]  # base dissimilarity minus diss_without
    distinctive: bool
    gender: Gender


@dataclass(frozen=True)
class LeaveOneOutResult:
    base_diss: Fraction
    mode: str
    words: tuple[LeaveOneOutWord, ...]  # ranked by weight, descending

    def distinctive_for(self, gender: Gender) -> list[LeaveOneOutWord]:
        return [w for w in self.words if w.distinctive and w.gender == gender]


def leave_one_out(table: CountTable, mode: str = "ratio") -> LeaveOneOutResult:
    """Dissimilarity after omitting each word, with distinctive labels.

    Omitting word w changes only the gender totals d_g' = d_g - x_g(w)
    (politician tallies are table-level). On the reduced totals the
    dissimilarity is (S - |f_w p_M - m_w p_F|) / D over the `_exact_terms`
    of d_F', d_M', where S = sum over all v of |f_v p_M - m_v p_F| is
    piecewise linear in t = p_M / p_F with breakpoints m_v / f_v. Sorting
    the words by breakpoint once and bisecting into prefix sums of f and m
    gives S as A p_M + B p_F for integers A and B, so every held-out value
    is one integer ratio, in O(W log W) for W words. The base dissimilarity
    is the same sum on the full totals, with no term removed.

    A word is distinctive when its omission strictly lowers the
    dissimilarity; the gender label follows the larger original adjusted
    rate, women on ties. A word whose omission would empty one gender's
    corpus has no reduced dissimilarity (None).
    """
    counts = table.word_counts()
    if len(counts) < 2:
        raise ValueError("leave-one-out needs at least 2 distinct words")
    d_f, d_m = table.total(Gender.F), table.total(Gender.M)
    n_f, n_m = table.politicians(Gender.F), table.politicians(Gender.M)
    factors_from_marginals(d_f, d_m, n_f, n_m)  # raises where the table's factors are undefined

    # Words with f_v > 0 by breakpoint; those with f_v = 0 add m_v p_F at
    # every t and enter only through d_m.
    ordered = sorted(
        (Fraction(per[Gender.M], per[Gender.F]), per[Gender.F], per[Gender.M])
        for per in counts.values()
        if per[Gender.F] > 0
    )
    breaks = [b for b, _, _ in ordered]
    pre_f = list(accumulate((f for _, f, _ in ordered), initial=0))
    pre_m = list(accumulate((m for _, _, m in ordered), initial=0))

    def gap_sum(p_f: int, p_m: int) -> int:
        """S: the sum over every word of |f_v p_M - m_v p_F|."""
        # The first i words have m_v/f_v < t, so f_v p_M - m_v p_F > 0; the
        # rest contribute its negation (0 for a breakpoint equal to t).
        i = bisect_left(breaks, Fraction(p_m, p_f))
        return (2 * pre_f[i] - d_f) * p_m + (d_m - 2 * pre_m[i]) * p_f

    _, base_p_f, base_p_m, base_den = _exact_terms(d_f, d_m, n_f, n_m, mode)
    base = Fraction(gap_sum(base_p_f, base_p_m), base_den)

    @cache
    def held_out(f_w: int, m_w: int) -> tuple[Fraction, Fraction, bool]:
        """(diss_without, weight, distinctive) of a word with counts (f_w, m_w);
        words with equal counts share them."""
        _, p_f, p_m, den = _exact_terms(d_f - f_w, d_m - m_w, n_f, n_m, mode)
        without = Fraction(gap_sum(p_f, p_m) - abs(f_w * p_m - m_w * p_f), den)
        return without, base - without, without < base

    out = []
    for word in sorted(counts):
        f_w, m_w = counts[word][Gender.F], counts[word][Gender.M]
        gender = Gender.M if m_w * base_p_f > f_w * base_p_m else Gender.F
        if f_w >= d_f or m_w >= d_m:
            # Removing the word would empty one gender's corpus; the
            # reduced-corpus factors are undefined.
            out.append(LeaveOneOutWord(word[0], word[1], None, None, False, gender))
            continue
        out.append(LeaveOneOutWord(word[0], word[1], *held_out(f_w, m_w), gender))

    def rank(w: LeaveOneOutWord):
        # Ascending diss_without is descending weight. Rounding to float is
        # monotone, so the float orders each pair whose floats differ and
        # the exact value only the rest.
        if w.diss_without is None:
            return (1, 0.0, 0, w.lemma, w.upos)
        return (0, float(w.diss_without), w.diss_without, w.lemma, w.upos)

    out.sort(key=rank)
    return LeaveOneOutResult(base_diss=base, mode=mode, words=tuple(out))


# ---------------------------------------------------------------------------
# Reliability scenarios for the index
# ---------------------------------------------------------------------------


def reliability_curve(
    w_f: int,
    w_m: int,
    d_total: int,
    n_f: int,
    n_m: int,
    d_f_values: Sequence[int],
    mode: str = "ratio",
) -> list[Fraction]:
    """Index of one word as the split of the word total across genders varies.

    For each |D_F| on the grid (with |D_M| = total - |D_F|) the correction
    factors are recomputed and the index of a word with fixed per-gender
    counts evaluated. Used to check the ordering of the balanced and
    unbalanced-sample scenarios.
    """
    if w_f == 0 and w_m == 0:
        raise ValueError("coverage bias index undefined: both rates are zero")
    curve = []
    for d_f in d_f_values:
        d_m = d_total - d_f
        factors_from_marginals(d_f, d_m, n_f, n_m)  # raises where the factors are undefined
        _, p_f, p_m, _ = _exact_terms(d_f, d_m, n_f, n_m, mode)
        curve.append(Fraction(w_f * p_m - w_m * p_f, w_f * p_m + w_m * p_f))
    return curve
