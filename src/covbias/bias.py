"""Gender-adjusted coverage statistics.

Count tables count each word event twice: once per (word, gender,
category, source type), which every score reads, and once per (gender,
category, source type, day), which only the trends read; so a table grows
with the vocabulary plus the days, not with their product. Correction
factors rescale for the structural imbalance in both representation and
coverage; on top of those sit the per-word coverage bias index,
distribution summaries, the dissimilarity index and its leave-one-out
variant used to rank gender-distinctive words.

All index arithmetic is exact (fractions over integer counts); floats
appear only when results are serialized.
"""

from __future__ import annotations

import datetime
from bisect import bisect_left
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .model import Category, Gender, SourceType, parse_date

WordKey = tuple[str, str]  # (lemma, upos)
WordCell = tuple[str, str, Gender, Optional[Category], Optional[SourceType]]
DayCell = tuple[Gender, Optional[Category], Optional[SourceType], datetime.date]
Slots = tuple[Gender, Optional[Category], Optional[SourceType]]  # a politician set's key
RATE_MODES = ("ratio", "literal")
# str() and value of everything an enum slot of a key can hold (None or a
# member), looked up per cell: str() orders serialized cells, value fills them.
_SLOT_STR = {x: str(x) for x in (None, *Gender, *Category, *SourceType)}
_SLOT_VALUE = {x: getattr(x, "value", None) for x in _SLOT_STR}


class CountTable:
    """Aggregate of word-event counts.

    Each attributed (word, mention) pair is counted once into each of two
    dicts:
    - `words`, keyed by (lemma, upos, gender, category, source_type), the
      word counts that every score reads; category is None for words
      outside the lexicon;
    - `days`, keyed by (gender, category, source_type, date), the daily
      totals that only the personalization trends read.
    So the table grows with the vocabulary plus the days, not with their
    product. Politician identities are tracked per (gender, category,
    source_type) so that slices report their own politician tallies.

    A table is built once, from its two dicts and politician sets, and
    only read after that. So each marginal the analyses read over and over
    (the gender totals of `total()`, the per-word gender counts of
    `word_counts()` and the per-day totals of `by_day()`) is summed on its
    first read and returned as is: callers must not mutate it.
    """

    def __init__(
        self,
        words: dict[WordCell, int],
        days: dict[DayCell, int],
        pids: dict[Slots, set[str]],
    ) -> None:
        self.words = words
        self.days = days
        self.pids = pids

    @classmethod
    def from_counts(
        cls,
        words: dict[WordCell, int],
        days: dict[DayCell, int],
        pid_keys: Iterable[tuple[Gender, Optional[Category], Optional[SourceType], str]],
    ) -> "CountTable":
        """A table over counted ``words`` and ``days``, which it takes as
        they are, with each ``(gender, category, source_type, pid)`` of
        ``pid_keys`` adding the politician to its slot's set."""
        pids: dict[Slots, set[str]] = {}
        for g, cat, st, pid in pid_keys:
            members = pids.get((g, cat, st))
            if members is None:
                members = pids[g, cat, st] = set()
            members.add(pid)
        return cls(words, days, pids)

    # -- marginals ---------------------------------------------------------

    @cached_property
    def _totals(self) -> dict[Gender, int]:
        out = {g: 0 for g in Gender}
        for (_, _, g, _, _), n in self.words.items():
            out[g] += n
        return out

    @cached_property
    def _words(self) -> dict[WordKey, dict[Gender, int]]:
        out: dict[WordKey, dict[Gender, int]] = {}
        for (lemma, upos, g, _, _), n in self.words.items():
            per = out.setdefault((lemma, upos), {Gender.F: 0, Gender.M: 0})
            per[g] += n
        return out

    @cached_property
    def _days(self) -> dict[Gender, dict[datetime.date, int]]:
        out: dict[Gender, dict[datetime.date, int]] = {g: {} for g in Gender}
        for (g, _, _, day), n in self.days.items():
            per = out[g]
            per[day] = per.get(day, 0) + n
        return out

    def total(self, gender: Gender) -> int:
        return self._totals[gender]

    @property
    def grand_total(self) -> int:
        return sum(self.words.values())

    def politicians(self, gender: Gender) -> int:
        seen: set[str] = set()
        for (g, _, _), pids in self.pids.items():
            if g == gender:
                seen.update(pids)
        return len(seen)

    def word_counts(self) -> dict[WordKey, dict[Gender, int]]:
        return self._words

    def word_categories(self) -> dict[WordKey, Optional[Category]]:
        """Lexicon category per word; None for out-of-lexicon words."""
        out: dict[WordKey, Optional[Category]] = {}
        for (lemma, upos, _, cat, _) in self.words:
            key = (lemma, upos)
            if cat is not None or key not in out:
                out[key] = cat if cat is not None else out.get(key)
        return out

    def by_day(self, gender: Gender) -> dict[datetime.date, int]:
        return self._days[gender]

    def source_gender_counts(self) -> dict[tuple[SourceType, Gender], int]:
        out: dict[tuple[SourceType, Gender], int] = {}
        for (_, _, g, _, st), n in self.words.items():
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
        """The table of the cells in one category (or every lexicon
        category, or all) and one source type (or all), each dict filtered
        alike, so the slice keeps its own day totals and politicians."""
        if category is not None:
            cats: tuple = (category,)
        else:
            cats = (*Category,) if lexicon_only else (None, *Category)
        sts = (source_type,) if source_type is not None else (None, *SourceType)
        return CountTable(
            {k: n for k, n in self.words.items() if k[3] in cats and k[4] in sts},
            {k: n for k, n in self.days.items() if k[1] in cats and k[2] in sts},
            {k: p for k, p in self.pids.items() if k[1] in cats and k[2] in sts},
        )

    # -- serialization -----------------------------------------------------

    def to_csv_rows(self) -> list[tuple[str, str, str, str, str, int]]:
        """Rows (lemma, upos, gender, category, source_type, count), one per
        word cell, sorted; an empty string stands for a None slot."""
        return sorted(
            (lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat] or "", _SLOT_VALUE[st] or "", n)
            for (lemma, upos, g, cat, st), n in self.words.items()
        )

    def to_json_dict(self) -> dict:
        """`cells`: [lemma, upos, gender, category, source_type, null, count]
        rows, the null kept where older files held the day; `days`: [gender,
        category, source_type, "YYYY-MM-DD", count] rows; `politicians`:
        [gender, category, source_type, sorted ids] rows. Each list is
        sorted by the str() of its key's members."""
        # str() of each distinct day, made once: it is the day's ISO date
        day_str = {day: str(day) for day in {key[3] for key in self.days}}

        def word_order(item: tuple[WordCell, int]) -> tuple[str, ...]:
            (lemma, upos, g, cat, st), _ = item
            return lemma, upos, _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st]

        def day_order(item: tuple[DayCell, int]) -> tuple[str, ...]:
            (g, cat, st, day), _ = item
            return _SLOT_STR[g], _SLOT_STR[cat], _SLOT_STR[st], day_str[day]

        cells = [
            [lemma, upos, _SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], None, n]
            for (lemma, upos, g, cat, st), n in sorted(self.words.items(), key=word_order)
        ]
        days = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], day_str[day], n]
            for (g, cat, st, day), n in sorted(self.days.items(), key=day_order)
        ]
        pids = [
            [_SLOT_VALUE[g], _SLOT_VALUE[cat], _SLOT_VALUE[st], sorted(members)]
            for (g, cat, st), members in sorted(
                self.pids.items(), key=lambda kv: tuple([_SLOT_STR[x] for x in kv[0]])
            )
        ]
        return {"cells": cells, "days": days, "politicians": pids}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CountTable":
        """The table of a `to_json_dict` object; a `cells` row with a day,
        or no `days` at all, was written by an older extract."""
        if "days" not in d:
            raise ValueError("no days: written by an older extract; rerun extract")
        words: dict[WordCell, int] = {}
        days: dict[DayCell, int] = {}
        pids: dict[Slots, set[str]] = {}
        decoded: dict[tuple, Slots] = {}  # raw slot values -> members
        dates: dict[str, datetime.date] = {}  # ISO day string -> date
        for lemma, upos, g, cat, st, day, n in d["cells"]:
            if type(n) is not int or n < 0:
                raise ValueError(f"cell count {n!r} is not a non-negative integer")
            if type(lemma) is not str or type(upos) is not str:
                raise ValueError(f"cell word ({lemma!r}, {upos!r}) is not two strings")
            if day is not None:
                raise ValueError(
                    f"cell day {day!r} is not null: written by an older extract; rerun extract"
                )
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            key = (lemma, upos, *slots)
            words[key] = words.get(key, 0) + n
        for g, cat, st, day, n in d["days"]:
            if type(n) is not int or n < 0:
                raise ValueError(f"day count {n!r} is not a non-negative integer")
            slots = decoded.get((g, cat, st))
            if slots is None:
                slots = decoded[g, cat, st] = _decode_slots(g, cat, st)
            date = dates.get(day)
            if date is None:
                date = dates[day] = parse_date(day)
            key = (*slots, date)
            days[key] = days.get(key, 0) + n
        for g, cat, st, members in d["politicians"]:
            if type(members) is not list or any(type(pid) is not str for pid in members):
                raise ValueError(f"politician ids {members!r} are not a list of strings")
            pids.setdefault(_decode_slots(g, cat, st), set()).update(members)
        return cls(words, days, pids)


def _decode_slots(g: str, cat: Optional[str], st: Optional[str]) -> Slots:
    """The (gender, category, source_type) members of serialized slot values."""
    return (
        Gender(g),
        Category(cat) if cat is not None else None,
        SourceType(st) if st is not None else None,
    )


# ---------------------------------------------------------------------------
# The exact terms: correction factors, adjusted rates, index and dissimilarity
# ---------------------------------------------------------------------------


class _Terms(NamedTuple):
    """The integers that every exact value on one set of marginals is a ratio of.

    Built only by `_terms`, which checks the marginals. With the word
    totals d_g and politician tallies n_g, T = d_F n_M + d_M n_F,
    p_F = d_F^e n_M and p_M = d_M^e n_F, where e = 2 in ratio mode and 3 in
    literal mode, and D = T (d_F d_M)^(e-1). A word counted f times for
    women and m times for men then has
    - the adjusted rates f T / (2 p_F) and m T / (2 p_M): f / d_F over c_F
      (ratio) or over c_F d_F (literal), and alike for men;
    - the index (f p_M - m p_F) / (f p_M + m p_F), the normalized
      difference of the two rates;
    - the share `gap(f, m)` / D of the dissimilarity
      c_F c_M / (c_F + c_M) * sum |rate_F - rate_M|.
    So each value is one `Fraction` of two integers, reduced once.
    """

    d_f: int
    d_m: int
    n_f: int
    n_m: int
    t: int
    p_f: int
    p_m: int
    den: int

    @property
    def factors(self) -> tuple[Fraction, Fraction]:
        """(c_F, c_M) = (2 d_F n_M / T, 2 d_M n_F / T)."""
        return Fraction(2 * self.d_f * self.n_m, self.t), Fraction(2 * self.d_m * self.n_f, self.t)

    def rates(self, f: int, m: int) -> tuple[Fraction, Fraction]:
        return Fraction(f * self.t, 2 * self.p_f), Fraction(m * self.t, 2 * self.p_m)

    def index(self, f: int, m: int) -> Fraction:
        return Fraction(f * self.p_m - m * self.p_f, f * self.p_m + m * self.p_f)

    def gap(self, f: int, m: int) -> int:
        return abs(f * self.p_m - m * self.p_f)


def _terms(d_f: int, d_m: int, n_f: int, n_m: int, mode: str) -> _Terms:
    """The `_Terms` of these marginals under rates mode ``mode``.

    These are the only checks that the marginals are positive and the mode
    known. The factors are the same in either mode.
    """
    if n_f <= 0:
        raise ValueError("correction factor undefined: no women politicians")
    if n_m <= 0:
        raise ValueError("correction factor undefined: no men politicians")
    if d_f <= 0:
        raise ValueError("correction factor undefined: no words for women")
    if d_m <= 0:
        raise ValueError("correction factor undefined: no words for men")
    if mode not in RATE_MODES:
        raise ValueError(f"unknown rates mode {mode!r}")
    e = 2 if mode == "ratio" else 3
    t = d_f * n_m + d_m * n_f
    return _Terms(
        d_f, d_m, n_f, n_m, t, d_f**e * n_m, d_m**e * n_f, t * (d_f * d_m) ** (e - 1)
    )


def _table_terms(table: CountTable, mode: str) -> _Terms:
    return _terms(
        table.total(Gender.F),
        table.total(Gender.M),
        table.politicians(Gender.F),
        table.politicians(Gender.M),
        mode,
    )


class WordBias(NamedTuple):
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


class BiasProfile(NamedTuple):
    mode: str
    terms: _Terms
    words: tuple[WordBias, ...]
    excluded: int  # words with zero counts for both genders

    @property
    def c_f(self) -> Fraction:
        return self.terms.factors[0]

    @property
    def c_m(self) -> Fraction:
        return self.terms.factors[1]

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
    terms = _table_terms(table, mode)

    @cache
    def values(f: int, m: int) -> tuple[Fraction, Fraction, Fraction]:
        """(rate_F, rate_M, index) of a word with counts (f, m); words with
        equal counts share them."""
        return (*terms.rates(f, m), terms.index(f, m))

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
    return BiasProfile(mode=mode, terms=terms, words=tuple(words), excluded=excluded)


# ---------------------------------------------------------------------------
# Distribution summaries
# ---------------------------------------------------------------------------


class SummaryStats(NamedTuple):
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


def _sorted_sample(
    values: Sequence[Union[Fraction, float]], weights: Sequence[int]
) -> tuple[list[Fraction], list[int]]:
    """The values of positive weight in ascending order, with the running
    total of their weights.

    Rounding to float is monotone, so ordering by the float first and by
    the exact value only where two floats are equal is the exact order;
    most comparisons are then float comparisons.
    """
    if not values:
        raise ValueError("empty sample")
    if len(values) != len(weights):
        raise ValueError("values and weights differ in length")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    triples = sorted(
        (float(v), v if isinstance(v, Fraction) else Fraction(v), w)
        for v, w in zip(values, weights)
        if w > 0
    )
    if not triples:
        raise ValueError("all weights are zero")
    return [v for _, v, _ in triples], list(accumulate(w for _, _, w in triples))


def _quantile_ranks(p: Fraction, total: int) -> tuple[int, int]:
    """The ranks, in cumulative weight, of the p-quantile's order statistics:
    ceil(p * total) twice, or p * total and the next rank when p * total is
    an integer, whose midpoint is taken (so symmetric data has median zero).
    `total` may be an integer array, read elementwise."""
    scaled = p.numerator * total
    k = scaled // p.denominator
    return k + (scaled % p.denominator != 0), k + 1


def _sorted_quantile(ordered: list[Fraction], cum: list[int], p: Fraction) -> Fraction:
    """The p-quantile of a sample from `_sorted_sample`: the smallest value
    whose cumulative weight reaches p times the total, or the midpoint of
    the bracketing values when that target lands exactly on a cumulative
    boundary (so symmetric data has median zero). The running totals
    strictly increase, so bisection finds the position of a rank."""
    last = len(ordered) - 1
    lo, hi = (ordered[min(bisect_left(cum, r), last)] for r in _quantile_ranks(p, cum[-1]))
    return (lo + hi) / 2 if lo != hi else lo


def index_summary(
    values: Sequence[Union[Fraction, float]],
    weights: Optional[Sequence[int]] = None,
) -> SummaryStats:
    """Mean, Fisher skewness and quantiles of the index values, weighted by
    `weights` or, when None, by one per value. Q1, D5, Q3 and D9 follow the
    one rank rule, `_sorted_quantile`, at either weighting; `_sorted_sample`
    refuses negative, all-zero and mismatched weights."""
    if not values:
        raise ValueError("cannot summarize an empty distribution")
    weighting = "none" if weights is None else "counts"
    weights = [1] * len(values) if weights is None else list(weights)
    ordered, cum = _sorted_sample(values, weights)
    q1, d5, q3, d9 = (
        float(_sorted_quantile(ordered, cum, Fraction(*p)))
        for p in ((1, 4), (1, 2), (3, 4), (9, 10))
    )
    x = np.asarray([float(v) for v in values], dtype=float)
    w = np.asarray(weights, dtype=float)
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
        total_weight=int(sum(weights)),
        weighting=weighting,
        degenerate=degenerate,
    )


class IndexDistribution(NamedTuple):
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

    One integer ratio over the profile's terms, sum of `gap` over D; the
    words the profile excludes have both counts 0 and add 0.
    """
    terms = profile.terms
    return Fraction(sum(terms.gap(w.count_f, w.count_m) for w in profile.words), terms.den)


class LeaveOneOutWord(NamedTuple):
    lemma: str
    upos: str
    diss_without: Optional[Fraction]
    weight: Optional[Fraction]  # base dissimilarity minus diss_without
    distinctive: bool
    gender: Gender


class LeaveOneOutResult(NamedTuple):
    base_diss: Fraction
    mode: str
    factors: tuple[Fraction, Fraction]  # (c_F, c_M) before any word is left out
    words: tuple[LeaveOneOutWord, ...]  # ranked by weight, descending

    def distinctive_for(self, gender: Gender) -> list[LeaveOneOutWord]:
        return [w for w in self.words if w.distinctive and w.gender == gender]


def leave_one_out(table: CountTable, mode: str = "ratio") -> LeaveOneOutResult:
    """Dissimilarity after omitting each word, with distinctive labels.

    Omitting word w changes only the gender totals d_g' = d_g - x_g(w)
    (politician tallies are table-level). On the reduced totals the
    dissimilarity is (S - |f_w p_M - m_w p_F|) / D over the `_Terms`
    of d_F', d_M', where S = sum over all v of |f_v p_M - m_v p_F| is
    piecewise linear in t = p_M / p_F with breakpoints m_v / f_v. Sorting
    the words by breakpoint once and bisecting into prefix sums of f and m
    gives S as A p_M + B p_F for integers A and B, so every held-out value
    is one integer ratio, in O(W log W) for W words. The base dissimilarity
    is the same sum on the full totals, with no term removed.

    A word is distinctive when its omission strictly lowers the
    dissimilarity; the gender label follows the larger original adjusted
    rate, women on ties. A word whose omission would empty one gender's
    corpus has no reduced dissimilarity (None). The marginals are checked
    before the number of words.
    """
    base_terms = _table_terms(table, mode)
    counts = table.word_counts()
    if len(counts) < 2:
        raise ValueError("leave-one-out needs at least 2 distinct words")
    d_f, d_m, n_f, n_m = base_terms[:4]

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

    def gap_sum(terms: _Terms) -> int:
        """S: the sum of `terms.gap` over every word of the whole table."""
        # The first i words have m_v/f_v < t, so f_v p_M - m_v p_F > 0; the
        # rest contribute its negation (0 for a breakpoint equal to t).
        p_f, p_m = terms.p_f, terms.p_m
        i = bisect_left(breaks, Fraction(p_m, p_f))
        return (2 * pre_f[i] - d_f) * p_m + (d_m - 2 * pre_m[i]) * p_f

    base = Fraction(gap_sum(base_terms), base_terms.den)

    @cache
    def held_out(f_w: int, m_w: int) -> tuple[Fraction, Fraction, bool]:
        """(diss_without, weight, distinctive) of a word with counts (f_w, m_w);
        words with equal counts share them."""
        terms = _terms(d_f - f_w, d_m - m_w, n_f, n_m, mode)
        without = Fraction(gap_sum(terms) - terms.gap(f_w, m_w), terms.den)
        return without, base - without, without < base

    out = []
    for word in sorted(counts):
        f_w, m_w = counts[word][Gender.F], counts[word][Gender.M]
        gender = Gender.M if m_w * base_terms.p_f > f_w * base_terms.p_m else Gender.F
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
    return LeaveOneOutResult(
        base_diss=base, mode=mode, factors=base_terms.factors, words=tuple(out)
    )
