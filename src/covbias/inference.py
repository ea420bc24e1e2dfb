"""Chi-square independence tests, sentiment jittering, quantile regression
on the gender x source dummy design, and bootstrap significance."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .bias import CountTable, _quantile_ranks
from .model import Gender, SourceType

DEFAULT_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
MIN_REPLICATES = 100
BLOCK_ROWS = 2**15  # resampled rows one bootstrap block holds: a memory cap
JITTER_HALF_WIDTH = 0.05  # a quarter of the 0.2 grid step: ties break,
# class membership never changes


# ---------------------------------------------------------------------------
# Chi-square test of independence on a 2x2 table
# ---------------------------------------------------------------------------


class ChiSquareResult(NamedTuple):
    observed: tuple[tuple[float, float], tuple[float, float]]
    expected: tuple[tuple[float, float], tuple[float, float]]
    statistic: float
    p_value: float
    residual_signs: tuple[tuple[str, str], tuple[str, str]]

    def to_json_dict(self) -> dict:
        return {
            "observed": [list(r) for r in self.observed],
            "expected": [list(r) for r in self.expected],
            "chi2": self.statistic,
            "p_value": self.p_value,
            "residual_signs": [list(r) for r in self.residual_signs],
        }


def chi_square(observed: Sequence[Sequence[float]]) -> ChiSquareResult:
    """Pearson chi-square statistic for a 2x2 contingency table.

    Expected counts assume independence of rows and columns; each cell is
    additionally labelled higher/lower than expected.
    """
    obs = [[float(observed[i][j]) for j in range(2)] for i in range(2)]
    if any(v < 0 for row in obs for v in row):
        raise ValueError("observed counts must be nonnegative")
    rows = [sum(r) for r in obs]
    cols = [obs[0][j] + obs[1][j] for j in range(2)]
    total = sum(rows)
    if any(m <= 0 for m in rows + cols):
        raise ValueError("chi-square undefined: a marginal is zero")
    expected = [[rows[i] * cols[j] / total for j in range(2)] for i in range(2)]
    stat = sum(
        (obs[i][j] - expected[i][j]) ** 2 / expected[i][j]
        for i in range(2)
        for j in range(2)
    )

    def sign(o: float, e: float) -> str:
        if o > e:
            return "higher"
        if o < e:
            return "lower"
        return "equal"

    return ChiSquareResult(
        observed=tuple(tuple(r) for r in obs),
        expected=tuple(tuple(r) for r in expected),
        statistic=stat,
        p_value=math.erfc(math.sqrt(stat / 2)),  # chi2 survival, 1 dof
        residual_signs=tuple(
            tuple(sign(obs[i][j], expected[i][j]) for j in range(2)) for i in range(2)
        ),
    )


def contingency_by_source(
    table: CountTable,
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Word counts as (traditional, online) rows x (F, M) columns."""
    counts = table.source_gender_counts()
    return tuple(
        tuple(counts.get((st, g), 0) for g in (Gender.F, Gender.M))
        for st in (SourceType.TRADITIONAL, SourceType.ONLINE)
    )


# ---------------------------------------------------------------------------
# Jittering
# ---------------------------------------------------------------------------


def jitter(fifths: Sequence[int], seed: int, h: float = JITTER_HALF_WIDTH) -> np.ndarray:
    """The sentiment scores k/5 at grid positions `fifths`, plus uniform
    (-h, h) noise, seeded.

    Each position must be an int in -5..5; a float or a bool is refused,
    not truncated. With the default h the jittered value stays within 0.05
    of its grid point, so rounding back to the grid recovers k.
    """
    if not 0 <= h < math.inf:
        raise ValueError("jitter half-width must be a finite nonnegative number")
    for k in fifths:
        if type(k) is not int or not -5 <= k <= 5:
            raise ValueError(f"grid position {k!r} is not an integer in -5..5")
    grid = np.asarray(fifths, dtype=float) / 5.0
    if len(grid) == 0 or h == 0:
        return grid
    u = np.random.default_rng(seed).uniform(-h, h, size=len(grid))
    return grid + u


# ---------------------------------------------------------------------------
# Quantile regression on the saturated dummy design
# ---------------------------------------------------------------------------


def pinball_loss(y: np.ndarray, fitted: np.ndarray, tau: float) -> float:
    """Total check loss rho_tau summed over observations."""
    u = np.asarray(y, dtype=float) - np.asarray(fitted, dtype=float)
    return float(np.sum(u * (tau - (u < 0))))


def _as_tau_fractions(taus: Sequence[Union[float, Fraction]]) -> list[Fraction]:
    fracs = [Fraction(str(tau)) if not isinstance(tau, Fraction) else tau for tau in taus]
    if not fracs:
        raise ValueError("no tau given: at least one quantile level is needed")
    for tau, frac in zip(taus, fracs):
        if not 0 < frac < 1:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
    return fracs


class _Layout(NamedTuple):
    y: np.ndarray
    cells: list[tuple[int, int]]  # the design cells, sorted
    rows: list[np.ndarray]  # each cell's rows, in input order
    order: np.ndarray  # the rows cell by cell, each cell stable-sorted by y
    ends: np.ndarray  # the position in `order` of each cell's last row


def _layout(
    y: Sequence[float], gender_dummy: Sequence[int], source_dummy: Sequence[int]
) -> _Layout:
    """The checked dummy design, laid out once for every fit: each cell
    implied by the dummy levels present, the reference cell included."""
    y = np.asarray(list(y), dtype=float)
    g = np.asarray(list(gender_dummy), dtype=int)
    s = np.asarray(list(source_dummy), dtype=int)
    if not (len(y) == len(g) == len(s)):
        raise ValueError("y, gender and source must have equal length")
    if len(y) == 0:
        raise ValueError("empty sample")
    g_levels, s_levels = sorted(set(g.tolist())), sorted(set(s.tolist()))
    if not {*g_levels, *s_levels} <= {0, 1}:
        raise ValueError("dummies must be 0/1")

    cells, rows = [], []
    for gv in g_levels:
        for sv in s_levels:
            members = np.flatnonzero((g == gv) & (s == sv))
            if len(members) == 0:
                raise ValueError(f"empty design cell gender={gv}, source={sv}")
            cells.append((gv, sv))
            rows.append(members)
    if cells[0] != (0, 0):
        raise ValueError("reference cell gender=0, source=0 is empty")
    order = np.concatenate([r[np.argsort(y[r], kind="stable")] for r in rows])
    return _Layout(y, cells, rows, order, np.cumsum([len(r) for r in rows]) - 1)


def _read_quantiles(
    layout: _Layout, counts: np.ndarray, fracs: Sequence[Fraction]
) -> np.ndarray:
    """The cell fits, shape (kept samples, taus, cells), read at `_quantile_ranks`.

    Each row of `counts` holds one sample's multiplicity of every input
    row, n in all; a sample in which a design cell is empty is dropped.
    One running sum along `layout.order` covers all samples, so sample r
    reads from (r * n, (r + 1) * n] and one `searchsorted` finds every
    rank of every sample.
    """
    reps, n = counts.shape
    run = np.cumsum(counts[:, layout.order])
    shift = np.arange(0, reps * n, n)[:, None]
    ends = run.reshape(reps, n)[:, layout.ends]
    sizes = np.diff(ends, axis=1, prepend=shift)
    present = np.all(sizes > 0, axis=1)
    shift, ends, sizes = shift[present], ends[present], sizes[present]
    if max(f.numerator for f in fracs) * n > np.iinfo(np.int64).max:
        sizes = sizes.astype(object)  # numerator * size would wrap in int64
    ranks = np.array([_quantile_ranks(frac, sizes) for frac in fracs], dtype=np.int64)
    at = np.searchsorted(run, ranks + (ends - sizes)) - shift
    lo, hi = layout.y[layout.order][at].swapaxes(0, 1)
    return np.where(ranks[:, 0] != ranks[:, 1], (lo + hi) / 2, lo).swapaxes(0, 1)


class QuantileModel(NamedTuple):
    tau: float
    coefficients: tuple[Optional[float], Optional[float], Optional[float], Optional[float]]
    cell_quantiles: dict[tuple[int, int], float]
    cell_sizes: dict[tuple[int, int], int]
    loss: float

    def to_json_dict(self) -> dict:
        names = ("intercept", "gender", "source", "gender_x_source")
        return {
            "tau": self.tau,
            "coefficients": dict(zip(names, self.coefficients)),
            "cells": {
                f"g{g}s{s}": {"quantile": q, "n": self.cell_sizes[(g, s)]}
                for (g, s), q in sorted(self.cell_quantiles.items())
            },
            "loss": self.loss,
        }


def _coefficients(
    fits: dict[tuple[int, int], float],
) -> tuple[Optional[float], Optional[float], Optional[float], Optional[float]]:
    """(b0, b1, b2, b3) from the cell fits, floats or arrays of them alike;
    None where a cell is missing."""
    b0 = fits.get((0, 0))
    b1 = fits[(1, 0)] - b0 if {(1, 0), (0, 0)} <= fits.keys() else None
    b2 = fits[(0, 1)] - b0 if {(0, 1), (0, 0)} <= fits.keys() else None
    b3 = (
        fits[(1, 1)] - fits[(1, 0)] - fits[(0, 1)] + fits[(0, 0)]
        if len(fits) == 4
        else None
    )
    return b0, b1, b2, b3


def quantile_regression(
    y: Sequence[float],
    gender_dummy: Sequence[int],
    source_dummy: Sequence[int],
    taus: Sequence[Union[float, Fraction]],
) -> list[QuantileModel]:
    """Fit Quantile(Y) = b0 + b1*Gender + b2*Source + b3*Gender*Source,
    one model per tau in the order given.

    Dummy coding: Gender = 1 for women, Source = 1 for online outlets, so
    the reference cell is men/traditional. The design is saturated, so the
    check-loss program separates by cell and is solved exactly: each
    observed cell's fitted value is its pinball-optimal quantile and the
    coefficients are recovered from the cell fits. Every cell implied by
    the dummy levels present in the data must be nonempty; coefficients
    whose cells are outside the design are not identified and reported as
    None.

    The cells are laid out once for all taus; each fit is the bootstrap's
    read with every row counted once.
    """
    fracs = _as_tau_fractions(taus)
    layout = _layout(y, gender_dummy, source_dummy)
    sizes = {cell: len(rows) for cell, rows in zip(layout.cells, layout.rows)}
    every_row_once = np.ones((1, len(layout.y)), dtype=np.int64)
    (quantiles,) = _read_quantiles(layout, every_row_once, fracs).tolist()
    return [
        QuantileModel(
            tau=float(frac),
            coefficients=_coefficients(fits),
            cell_quantiles=fits,
            cell_sizes=dict(sizes),
            loss=sum(
                pinball_loss(layout.y[rows], np.full(len(rows), fits[cell]), float(frac))
                for cell, rows in zip(layout.cells, layout.rows)
            ),
        )
        for frac, fits in zip(fracs, (dict(zip(layout.cells, q)) for q in quantiles))
    ]


# ---------------------------------------------------------------------------
# Bootstrap significance
# ---------------------------------------------------------------------------


class BootstrapCI(NamedTuple):
    lower: Optional[float]
    upper: Optional[float]
    significant: Optional[bool]

    def to_json_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "significant": self.significant}


class BootstrapResult(NamedTuple):
    n_replicates: int
    discarded: int
    intervals: dict[float, tuple[BootstrapCI, BootstrapCI, BootstrapCI, BootstrapCI]]

    def to_json_dict(self) -> dict:
        """One entry per tau, keyed by ``str(tau)``."""
        names = ("intercept", "gender", "source", "gender_x_source")
        return {
            str(tau): {
                "tau": tau,
                "replicates": self.n_replicates,
                "discarded": self.discarded,
                "intervals": {n: ci.to_json_dict() for n, ci in zip(names, cis)},
            }
            for tau, cis in self.intervals.items()
        }


def _linear_quantiles(a: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """numpy's default ("linear", Hyndman-Fan type 7) quantiles of `a`
    along axis 0, one row per p, to the bit, without calling numpy's
    quantile functions: they import `numpy.ma`, which nothing else in
    analyze loads. Its one caller is `bootstrap_significance`, for the
    percentile interval; the index summaries read `bias._quantile_ranks`.

    For n values and v = (n - 1) p, the quantile interpolates between the
    order statistics lo = floor(v) and lo + 1 at t = v - lo, as
    a[hi] - d (1 - t) when t >= 0.5 and a[lo] + d t otherwise, with
    d = a[hi] - a[lo]. These are numpy's steps: where v reaches n - 1 both
    reads are index -1 and t = v + 1, and the partition is at numpy's
    positions, so even which of two equal zeros (-0.0, 0.0) is read
    agrees.
    """
    last = len(a) - 1
    reads = []
    for p in ps:
        v = last * p
        lo, hi = (math.floor(v), math.floor(v) + 1) if v < last else (-1, -1)
        reads.append((lo, hi, v - lo))
    s = np.partition(a, sorted({0, -1, *(i for lo, hi, _ in reads for i in (lo, hi))}), axis=0)
    rows = []
    for lo, hi, t in reads:
        d = s[hi] - s[lo]
        rows.append(s[hi] - d * (1 - t) if t >= 0.5 else s[lo] + d * t)
    return np.stack(rows)


def bootstrap_significance(
    y: Sequence[float],
    gender_dummy: Sequence[int],
    source_dummy: Sequence[int],
    taus: Sequence[Union[float, Fraction]],
    n_replicates: int,
    seed: int,
) -> BootstrapResult:
    """Case-resampling percentile intervals for the regression coefficients.

    Each replicate resamples rows with replacement using a seed derived
    from (seed, replicate index), so replicates are reproducible and
    order-independent. One draw serves every tau. Resamples that lose a
    design cell are discarded and redrawn, up to 10x the replicate
    budget. A coefficient is flagged significant when its 95% interval
    excludes zero.

    The design is saturated, so a replicate's fit is the resampled cell
    quantiles. Replicates are drawn in blocks of about `BLOCK_ROWS`
    resampled rows, a cap on memory: one `bincount` turns a block's draws
    into per-row multiplicities, and every cell quantile of every
    replicate in it is read from their running sums along the layout
    that `quantile_regression` uses. A block never draws past the
    replicates still needed or past the budget, so the replicates kept
    and discarded are those of a one-at-a-time loop.
    """
    if n_replicates < MIN_REPLICATES:
        raise ValueError(f"bootstrap needs at least {MIN_REPLICATES} replicates")
    fracs = _as_tau_fractions(taus)
    layout = _layout(y, gender_dummy, source_dummy)
    n = len(layout.y)
    block = max(1, BLOCK_ROWS // n)
    budget = 10 * n_replicates

    blocks: list[np.ndarray] = []  # (kept replicates, taus, cells) per block
    kept = 0
    attempts = 0
    while kept < n_replicates:
        if attempts >= budget:
            raise RuntimeError(
                "bootstrap exhausted its redraw budget without filling "
                f"{n_replicates} replicates ({attempts - kept} discarded)"
            )
        size = min(block, n_replicates - kept, budget - attempts)
        idx = np.empty((size, n), dtype=np.int64)
        for i in range(size):
            idx[i] = np.random.default_rng([seed, attempts + i]).integers(0, n, size=n)
        idx += np.arange(0, size * n, n)[:, None]
        counts = np.bincount(idx.ravel(), minlength=size * n).reshape(size, n)
        blocks.append(_read_quantiles(layout, counts, fracs))
        kept += len(blocks[-1])
        attempts += size

    fits = np.concatenate(blocks)
    coefs = _coefficients({cell: fits[..., c] for c, cell in enumerate(layout.cells)})
    known = [b for b in coefs if b is not None]
    lower, upper = _linear_quantiles(np.stack(known, axis=-1), (0.025, 0.975)).tolist()
    intervals = {}
    for frac, lows, highs in zip(fracs, lower, upper):
        bounds = iter(zip(lows, highs))
        cis = []
        for b in coefs:
            if b is None:
                cis.append(BootstrapCI(None, None, None))
                continue
            lo, hi = next(bounds)
            cis.append(BootstrapCI(lo, hi, not (lo <= 0.0 <= hi)))
        intervals[float(frac)] = tuple(cis)
    return BootstrapResult(
        n_replicates=n_replicates, discarded=attempts - kept, intervals=intervals
    )
