"""Daily personalization trends: moving averages, dominance shares and the
Simpson-rule area between the gender trend curves.

The functions take plain arrays on one calendar grid that the caller
builds, with missing days already 0. A zero crossing of the difference
that rounds onto a grid point makes that point the zero, so no Simpson
chunk holds two equal xs.
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


def _chunk_integral(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Integral of the interpolating polynomial through 2-4 points.

    On uniform grids this reproduces the trapezoid, Simpson 1/3 and
    Simpson 3/8 rules exactly; on non-uniform chunks (which arise only at
    inserted zero crossings) it integrates the interpolant through the
    same points. Coordinates are shifted to the chunk origin to keep the
    Vandermonde solve well conditioned.
    """
    n = len(xs)
    if n == 2:
        return (xs[1] - xs[0]) * (ys[0] + ys[1]) / 2
    u = np.asarray(xs, dtype=float) - xs[0]
    v = np.vander(u, n, increasing=True)
    coef = np.linalg.solve(v, np.asarray(ys, dtype=float))
    top = u[-1]
    return float(sum(c * top ** (k + 1) / (k + 1) for k, c in enumerate(coef)))


def simpson_integral(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Composite Simpson integral over an ordered grid.

    Pairs of intervals use the 1/3 rule; an odd interval count is finished
    with the 3/8 rule on the final three intervals; a single interval
    falls back to the trapezoid.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys differ in length")
    if len(xs) < 2:
        return 0.0
    intervals = len(xs) - 1
    total = 0.0
    i = 0
    while intervals - i > 0:
        left = intervals - i
        if left == 1:
            total += _chunk_integral(xs[i : i + 2], ys[i : i + 2])
            i += 1
        elif left == 3:
            total += _chunk_integral(xs[i : i + 4], ys[i : i + 4])
            i += 3
        else:
            total += _chunk_integral(xs[i : i + 3], ys[i : i + 3])
            i += 2
    return total


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
    points); each segment is integrated with the composite Simpson rule.
    Returns (A_F, A_M, A) with A = A_F + A_M by construction.
    """
    f, m = _checked_pair(f, m)
    if len(xs) != len(f):
        raise ValueError(f"grid has {len(xs)} days, trends {len(f)}")
    if len(xs) < 3:
        raise ValueError("area decomposition needs at least 3 points")
    a_f = 0.0
    a_m = 0.0
    for sign, seg in _split_segments([float(x) for x in xs], (f - m).tolist()):
        sx = [p[0] for p in seg]
        sy = [p[1] for p in seg]
        piece = simpson_integral(sx, sy)
        if sign > 0:
            a_f += piece
        elif sign < 0:
            a_m += -piece
    return a_f, a_m, a_f + a_m
