import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covbias.temporal import (
    area_decomposition,
    dominance_fractions,
    _simpson_totals,
    _split_segments,
    moving_average,
)
from oracles import area_decomposition_reference, poly_integral, simpson_chunks_reference


def series(values):
    return np.asarray(values, dtype=float)


def grid(n):
    return np.arange(n, dtype=float)


class TestMovingAverage:
    def test_constant_series(self):
        ma = moving_average(series([0.3] * 120), window=90)
        assert len(ma) == 31
        assert all(v == pytest.approx(0.3, abs=1e-12) for v in ma)

    def test_impulse_spreads_over_exactly_window_days(self):
        values = [0.0] * 200
        values[100] = 1.0
        ma = moving_average(series(values), window=90)
        positive = [v for v in ma if v > 0]
        assert len(positive) == 90
        assert all(v == pytest.approx(1 / 90, abs=0) for v in positive)

    def test_window_one_is_identity(self):
        s = series([0.1, 0.5, 0.9])
        ma = moving_average(s, window=1)
        assert ma.tolist() == s.tolist()

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            moving_average(series([0.1] * 10), window=90)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=5, max_size=40),
        st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=50, deadline=None)
    def test_commutes_with_constant_shift(self, values, shift):
        base = moving_average(series(values), window=3)
        shifted = moving_average(series([v + shift for v in values]), window=3)
        for a, b in zip(base, shifted):
            assert b == pytest.approx(a + shift, abs=1e-12)


class TestDominance:
    def test_identical_series_all_ties(self):
        s = series([0.2, 0.2, 0.2])
        assert dominance_fractions(s, s) == (0.0, 0.0, 1.0)

    def test_strict_dominance(self):
        f = series([0.5, 0.5, 0.5])
        m = series([0.1, 0.1, 0.1])
        assert dominance_fractions(f, m) == (1.0, 0.0, 0.0)

    def test_alternating(self):
        f = series([0.9, 0.1, 0.9, 0.1])
        m = series([0.1, 0.9, 0.1, 0.9])
        assert dominance_fractions(f, m) == (0.5, 0.5, 0.0)

    def test_unequal_lengths_rejected(self):
        f = series([0.1, 0.2])
        m = series([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            dominance_fractions(f, m)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dominance_fractions(series([]), series([]))


class TestSimpsonIntegral:
    def test_exact_on_random_cubics(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            coefs = list(rng.normal(size=4))
            a, b = sorted(rng.uniform(-5, 5, size=2))
            if b - a < 0.1:
                continue
            n_pts = int(rng.integers(3, 12))
            xs = list(np.linspace(a, b, n_pts))
            ys = [sum(c * x**k for k, c in enumerate(coefs)) for x in xs]
            exact = poly_integral(coefs, a, b)
            (got,) = _simpson_totals([list(zip(xs, ys))])
            assert got == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_two_point_trapezoid(self):
        assert _simpson_totals([list(zip([0, 2], [1, 3]))]) == [4.0]


class TestAreaDecomposition:
    def test_constant_rectangle(self):
        f = series([0.5, 0.5, 0.5])
        m = series([0.0, 0.0, 0.0])
        assert area_decomposition(grid(3), f, m) == (1.0, 0.0, 1.0)

    def test_quadratic_exact(self):
        f = series([0.0, 1.0, 4.0])
        m = series([0.0, 0.0, 0.0])
        a_f, a_m, a = area_decomposition(grid(3), f, m)
        assert a_f == pytest.approx(8 / 3, abs=1e-12)
        assert a_m == 0.0

    def test_linear_crossing_triangles(self):
        f = series([0.0, 0.0, 1.0])
        m = series([1.0, 0.0, 0.0])
        a_f, a_m, a = area_decomposition(grid(3), f, m)
        assert a_f == pytest.approx(0.5, abs=1e-12)
        assert a_m == pytest.approx(0.5, abs=1e-12)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_interior_crossing_located_by_interpolation(self):
        # d(t) = t - 0.5 on {0, 1, 2}: crossing at 0.5 inserted
        f = series([0.0, 1.0, 2.0])
        m = series([0.5, 0.5, 0.5])
        a_f, a_m, a = area_decomposition(grid(3), f, m)
        assert a_m == pytest.approx(0.125, abs=1e-12)
        assert a_f == pytest.approx(1.125, abs=1e-12)

    def test_sum_identity_and_swap_symmetry(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            xs = np.arange(n, dtype=float)
            fv = rng.uniform(0, 1, size=n)
            mv = rng.uniform(0, 1, size=n)
            a_f, a_m, a = area_decomposition(xs, fv, mv)
            assert a == a_f + a_m  # constructed identity
            b_f, b_m, b = area_decomposition(xs, mv, fv)
            assert (b_f, b_m) == (a_m, a_f)
            assert b == a

    def test_exact_on_positive_cubics(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            coefs = list(rng.uniform(0.1, 1.0, size=4))  # positive on [0, b]
            b = float(rng.uniform(1, 4))
            n_pts = int(rng.integers(3, 9))
            xs = np.linspace(0, b, n_pts)
            fv = [sum(c * x**k for k, c in enumerate(coefs)) for x in xs]
            a_f, a_m, a = area_decomposition(xs, fv, np.zeros(n_pts))
            assert a_m == 0.0
            assert a_f == pytest.approx(poly_integral(coefs, 0, b), rel=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            area_decomposition(grid(2), series([1.0, 0.5]), series([0.0, 0.0]))

    def test_all_zero_difference(self):
        pts = series([0.4, 0.4, 0.4])
        assert area_decomposition(grid(3), pts, pts) == (0.0, 0.0, 0.0)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            area_decomposition(grid(3), series([0.1, 0.2, 0.3]), series([0.1, 0.2]))
        with pytest.raises(ValueError):
            area_decomposition(grid(4), series([0.1, 0.2, 0.3]), series([0.1, 0.2, 0.3]))


class TestCrossingOnGridPoint:
    """A zero crossing that rounds onto a grid point never duplicates its x."""

    ORDINALS = np.arange(736462, 736466, dtype=float)

    def test_crossing_rounding_onto_next_point(self):
        # d = (-0.5, 1.39e-17, -0.5, -0.5): the first crossing rounds onto 736463
        f = np.zeros(4)
        m = series([0.5, -1.39e-17, 0.5, 0.5])
        a_f, a_m, a = area_decomposition(self.ORDINALS, f, m)
        assert all(np.isfinite([a_f, a_m, a]))
        assert a_f == 0
        assert a == a_f + a_m
        # the noise point becomes the zero: trapezoid to it, then the 1/3 rule
        assert a_m == pytest.approx(0.25 + (0 + 4 * 0.5 + 0.5) / 3, abs=1e-12)

    def test_crossing_rounding_onto_previous_point(self):
        # d = (0.5, 1e-17, -0.5): the crossing rounds onto the noise point itself
        xs = self.ORDINALS[:3]
        f = series([0.5, 1e-17, 0.0])
        m = series([0.0, 0.0, 0.5])
        a_f, a_m, a = area_decomposition(xs, f, m)
        assert (a_f, a_m, a) == (0.25, 0.25, 0.5)

    def test_segments_never_repeat_an_x(self):
        for ds in ([-0.5, 1.39e-17, -0.5, -0.5], [0.5, 1e-17, -0.5, 0.5], [0.5, -1e-17, 0.5, 0.5]):
            for _, seg in _split_segments(list(self.ORDINALS), ds):
                xs = [x for x, _ in seg]
                assert xs == sorted(set(xs))


ORDINALS = [736462.0 + i for i in range(8)]


@st.composite
def trend_pairs(draw):
    """(xs, f, m) whose difference runs through sign-constant stretches of
    1-6 points, exact zeros and noise-sized values, so its segments hold
    2, 3, 4 and 5+ points and some crossings round onto a grid point."""
    runs = draw(st.lists(st.tuples(st.sampled_from([-1, 0, 1]), st.integers(1, 6)), min_size=1, max_size=8))
    size = st.sampled_from([1e-17, 1.39e-17, 0.5]) | st.floats(1e-6, 1.0)
    d = [sign * draw(size) for sign, length in runs for _ in range(length)]
    d += [draw(size) for _ in range(3 - len(d))]
    origin = draw(st.sampled_from([0.0, 736462.0]))
    xs = [origin + i for i in range(len(d))]
    shape = draw(st.sampled_from(["f", "m", "offset"]))
    if shape == "f":
        return xs, d, [0.0] * len(d)
    if shape == "m":
        return xs, [0.0] * len(d), [-v for v in d]
    c = draw(st.floats(0.0, 1.0))
    return xs, [c + v for v in d], [c] * len(d)


class TestStackedSimpsonOracle:
    """The stacked chunk solve equals the per-chunk loop bit for bit."""

    @given(trend_pairs())
    @example((ORDINALS[:4], [0.0] * 4, [0.5, -1.39e-17, 0.5, 0.5]))
    @example((ORDINALS[:3], [0.5, 1e-17, 0.0], [0.0, 0.0, 0.5]))
    @example((ORDINALS[:4], [0.5, 1e-17, -0.5, 0.5], [0.0] * 4))
    @example((ORDINALS[:4], [0.5, -1e-17, 0.5, 0.5], [0.0] * 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_chunk_reference(self, pair):
        xs, f, m = pair
        assert area_decomposition(xs, f, m) == area_decomposition_reference(xs, f, m)
        assert _simpson_totals([list(zip(xs, f))]) == [simpson_chunks_reference(xs, f)]
