"""Daily personalization trends: moving averages, dominance shares and the
Simpson-rule area between the gender trend curves.

The functions take plain arrays on one calendar grid that the caller
builds, with missing days already 0. A zero crossing of the difference
that rounds onto a grid point makes that point the zero, so no Simpson
chunk holds two equal xs. The area solves the interpolating polynomials
of all its Simpson chunks in one stacked call per chunk size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Point = tuple[float, float]

MA_WINDOW = 90


def moving_average(values: np.ndarray, window: int = MA_WINDOW) -> np.ndarray:
    """Trailing mean over the last `window` days of the daily values.

    A day with no personalized mentions genuinely has fraction zero, so
    missing days enter as 0 (not interpolated); the output starts at the
    first day with a full window behind it.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(values) < window:
        raise ValueError(
            f"series spans {len(values)} days, shorter than the {window}-day window"
        )
    return np.lib.stride_tricks.sliding_window_view(values, window).mean(axis=1)


def _checked_pair(f: Sequence[float], m: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    f, m = np.asarray(f, dtype=float), np.asarray(m, dtype=float)
    if len(f) != len(m):
        raise ValueError(f"trends differ in length: {len(f)} and {len(m)} days")
    return f, m


def dominance_fractions(f: Sequence[float], m: Sequence[float]) -> tuple[float, float, float]:
    """Shares of days where each trend strictly dominates, plus the tie share."""
    f, m = _checked_pair(f, m)
    n = len(f)
    if not n:
        raise ValueError("trends are empty")
    f_days = int(np.count_nonzero(f > m))
    m_days = int(np.count_nonzero(m > f))
    return f_days / n, m_days / n, (n - f_days - m_days) / n


# ---------------------------------------------------------------------------
# Simpson integration
# ---------------------------------------------------------------------------


def _simpson_totals(runs: Sequence[Sequence[Point]]) -> list[float]:
    """The composite Simpson integral of each run of ordered (x, y) points.

    Pairs of intervals use the 1/3 rule; an odd interval count is finished
    with the 3/8 rule on the final three intervals; a single interval
    falls back to the trapezoid.

    A 3- or 4-point chunk is integrated through its interpolating
    polynomial, which on uniform grids is the 1/3 or 3/8 rule exactly and
    on non-uniform chunks (which arise only at inserted zero crossings)
    integrates the interpolant through the same points. Each chunk is
    shifted to its origin to keep its Vandermonde system well conditioned;
    the chunks of one size, across all runs, are solved in one stacked
    `np.linalg.solve`. The tail sums and the totals stay scalar float
    operations, in chunk order.
    """
    chunks: list[Sequence[Point]] = []
    owners: list[int] = []
    for r, run in enumerate(runs):
        intervals = len(run) - 1
        i = 0
        while i < intervals:
            step = {1: 1, 3: 3}.get(intervals - i, 2)
            chunks.append(run[i : i + step + 1])
            owners.append(r)
            i += step
    pieces = [0.0] * len(chunks)
    for k, chunk in enumerate(chunks):
        if len(chunk) == 2:
            (x0, y0), (x1, y1) = chunk
            pieces[k] = (x1 - x0) * (y0 + y1) / 2
    for size in (3, 4):
        picked = [k for k, chunk in enumerate(chunks) if len(chunk) == size]
        if not picked:
            continue
        pts = np.array([chunks[k] for k in picked], dtype=float)
        u = pts[..., 0] - pts[..., :1, 0]
        v = np.empty((len(picked), size, size))  # np.vander(u, increasing=True), stacked
        v[..., 0] = 1.0
        v[..., 1:] = u[..., None]
        np.multiply.accumulate(v[..., 1:], out=v[..., 1:], axis=-1)
        coefs = np.linalg.solve(v, pts[..., 1:])[..., 0]  # y as a column: one right-hand side
        for k, top, coef in zip(picked, u[:, -1].tolist(), coefs.tolist()):
            pieces[k] = sum(c * top ** (j + 1) / (j + 1) for j, c in enumerate(coef))
    totals = [0.0] * len(runs)
    for r, piece in zip(owners, pieces):
        totals[r] += piece
    return totals


def _split_segments(xs: Sequence[float], ds: Sequence[float]) -> list[tuple[int, list[Point]]]:
    """Maximal sign-constant runs, with interpolated zero crossings inserted.

    Exact zeros and inserted crossings act as shared segment boundaries;
    all-zero runs carry no sign and are dropped. A crossing that rounds
    onto a grid point is not inserted: that point becomes the zero.
    """
    segments: list[tuple[int, list[Point]]] = []
    current: list[Point] = [(xs[0], ds[0])]
    cur_sign = int(np.sign(ds[0]))

    for i in range(1, len(xs)):
        x, d = xs[i], ds[i]
        s = int(np.sign(d))
        if cur_sign == 0:
            current.append((x, d))
            cur_sign = s
            if s == 0:
                current = [(x, 0.0)]
            continue
        if s == cur_sign:
            current.append((x, d))
            continue
        prev_x, prev_d = current[-1]
        # an exact zero at x is a crossing at x
        cross = x if s == 0 else prev_x + prev_d / (prev_d - d) * (x - prev_x)
        if cross == prev_x:
            current[-1] = (prev_x, 0.0)
            if len(current) > 1:
                segments.append((cur_sign, current))
            current = [(prev_x, 0.0), (x, d)]
            cur_sign = s
        elif cross == x:
            current.append((x, 0.0))
            segments.append((cur_sign, current))
            current = [(x, 0.0)]
            cur_sign = 0
        else:
            current.append((cross, 0.0))
            segments.append((cur_sign, current))
            current = [(cross, 0.0), (x, d)]
            cur_sign = s
    if cur_sign != 0 and len(current) > 1:
        segments.append((cur_sign, current))
    return segments


def area_decomposition(
    xs: Sequence[float], f: Sequence[float], m: Sequence[float]
) -> tuple[float, float, float]:
    """Area between two trend curves on the grid `xs`, split by which one dominates.

    The pointwise difference is cut into maximal sign-constant segments
    (zero crossings located by linear interpolation and inserted as grid
    points); each segment is integrated with the composite Simpson rule,
    the chunks of all segments solved together.
    Returns (A_F, A_M, A) with A = A_F + A_M by construction.
    """
    f, m = _checked_pair(f, m)
    if len(xs) != len(f):
        raise ValueError(f"grid has {len(xs)} days, trends {len(f)}")
    if len(xs) < 3:
        raise ValueError("area decomposition needs at least 3 points")
    a_f = 0.0
    a_m = 0.0
    segments = _split_segments([float(x) for x in xs], (f - m).tolist())
    for (sign, _), piece in zip(segments, _simpson_totals([seg for _, seg in segments])):
        if sign > 0:
            a_f += piece
        elif sign < 0:
            a_m += -piece
    return a_f, a_m, a_f + a_m
