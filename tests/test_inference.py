import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covbias import inference
from covbias.inference import (
    DEFAULT_TAUS,
    JITTER_HALF_WIDTH,
    bootstrap_significance,
    chi_square,
    contingency_by_source,
    jitter,
    pinball_loss,
    quantile_regression,
)
from covbias.model import Gender, SourceType
from conftest import table_from_events
from oracles import (
    bootstrap_per_tau,
    bootstrap_sequential_reference,
    cell_quantile_bruteforce,
    exhaustive_breakpoint_loss,
    linprog_quantile_loss,
    pinball_total,
    replicate_rows,
)

TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)


class TestChiSquare:
    def test_reference_coverage_table(self):
        result = chi_square([[550681, 3106012], [378479, 1969639]])
        assert result.statistic == pytest.approx(1225.7, abs=0.5)
        expected = [[565822, 3090871], [363338, 1984780]]
        for i in range(2):
            for j in range(2):
                assert result.expected[i][j] == pytest.approx(expected[i][j], abs=1)
        # women higher than expected online, lower in print; men converse
        assert result.residual_signs == (("lower", "higher"), ("higher", "lower"))

    def test_reference_personalization_table(self):
        result = chi_square([[14803, 71415], [9072, 39350]])
        assert result.statistic == pytest.approx(52.0, abs=0.5)

    def test_proportional_table_is_zero(self):
        assert chi_square([[10, 20], [30, 60]]).statistic == 0.0

    def test_transposition_invariance(self):
        a = chi_square([[5, 9], [11, 2]]).statistic
        b = chi_square([[5, 11], [9, 2]]).statistic
        assert a == pytest.approx(b, rel=1e-12)

    def test_row_and_column_swap_invariance(self):
        a = chi_square([[5, 9], [11, 2]]).statistic
        b = chi_square([[2, 11], [9, 5]]).statistic
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError):
            chi_square([[0, 0], [5, 10]])

    def test_runs_under_a_millisecond(self):
        chi_square([[1, 2], [3, 4]])  # warm up
        start = time.perf_counter()
        chi_square([[550681, 3106012], [378479, 1969639]])
        assert time.perf_counter() - start < 1e-3

    def test_contingency_builder_orders_rows_and_columns(self):
        table = table_from_events(
            [
                ("a", "ADJ", Gender.F, None, SourceType.TRADITIONAL, None, "p1", 3),
                ("a", "ADJ", Gender.M, None, SourceType.ONLINE, None, "p2", 5),
            ]
        )
        obs = contingency_by_source(table)
        assert obs == ((3, 0), (0, 5))


class TestJitter:
    def test_empty_input(self):
        assert len(jitter([], seed=1)) == 0

    def test_deterministic(self):
        fifths = [-5, -3, 0, 2, 5]
        assert np.array_equal(jitter(fifths, seed=42), jitter(fifths, seed=42))

    def test_zero_width_is_identity(self):
        out = jitter([-4, 1, 3], seed=3, h=0)
        assert np.array_equal(out, np.array([-0.8, 0.2, 0.6]))

    def test_range_and_class_preserved(self):
        # landing on the original grid point keeps the class too
        fifths = list(range(-5, 6)) * 40
        out = jitter(fifths, seed=7)
        assert np.all(out >= -1.05) and np.all(out <= 1.05)
        for jittered, k in zip(out, fifths):
            assert round(jittered * 5) == k

    @pytest.mark.parametrize("h", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_half_width_rejected(self, h):
        with pytest.raises(ValueError, match="half-width"):
            jitter([1, -2], seed=1, h=h)

    def test_off_grid_rejected(self):
        for fifths in ([6], [-6], [2, 6]):
            with pytest.raises(ValueError, match="grid position -?6 "):
                jitter(fifths, seed=1)

    @pytest.mark.parametrize("position", [0.4, 2.0, True, False])
    def test_float_or_bool_position_rejected(self, position):
        # refused, never truncated to an int
        with pytest.raises(ValueError, match="grid position"):
            jitter([0, position], seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            jitter([1, -2], seed=-1)

    @given(
        st.lists(st.integers(-5, 5), max_size=40),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.3, JITTER_HALF_WIDTH, 1e-9]),
    )
    @settings(max_examples=100, deadline=None)
    def test_noise_is_numpys_uniform_rule_on_mt19937(self, fifths, seed, h):
        # each value takes the next 64-bit word w: u = (w >> 11) / 2**53
        rng = random.Random(seed)
        expected = [k / 5 + (-h + 2 * h * ((rng.getrandbits(64) >> 11) * 2.0**-53)) for k in fifths]
        assert jitter(fifths, seed, h).tolist() == expected


def one_cell_quantile(values, tau):
    """The fitted quantile of a design with a single (0, 0) cell."""
    n = len(values)
    return quantile_regression(values, [0] * n, [0] * n, [tau])[0].cell_quantiles[(0, 0)]


class TestCellQuantile:
    def test_matches_bruteforce_minimizer(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            values = list(rng.normal(size=n))
            tau = float(rng.choice(TAUS))
            assert one_cell_quantile(values, tau) == pytest.approx(
                cell_quantile_bruteforce(values, tau), abs=1e-12
            )

    def test_median_of_three(self):
        assert one_cell_quantile([-1, 0, 1], 0.5) == 0

    def test_tie_interval_midpoint(self):
        assert one_cell_quantile([1.0, 3.0], 0.5) == 2.0


class TestQuantileRegression:
    def test_single_cell_median(self):
        model = quantile_regression([-1, 0, 1], [0, 0, 0], [0, 0, 0], [0.5])[0]
        assert model.coefficients[0] == 0.0
        assert model.coefficients[1:] == (None, None, None)

    def test_two_cell_fixture_matches_per_cell_oracle(self):
        y = [0.1, 0.4, 0.7, 1.0, -0.3, -0.1, 0.2, 0.6]
        s = [0, 0, 0, 0, 1, 1, 1, 1]
        g = [0] * 8
        model = quantile_regression(y, g, s, [0.25])[0]
        assert model.cell_quantiles[(0, 0)] == pytest.approx(
            cell_quantile_bruteforce(y[:4], 0.25), abs=1e-6
        )
        assert model.cell_quantiles[(0, 1)] == pytest.approx(
            cell_quantile_bruteforce(y[4:], 0.25), abs=1e-6
        )
        assert model.coefficients[2] == pytest.approx(
            model.cell_quantiles[(0, 1)] - model.cell_quantiles[(0, 0)]
        )
        assert model.coefficients[1] is None and model.coefficients[3] is None

    def test_antisymmetric_cells_fit_zero(self):
        y, g, s = [], [], []
        for gv in (0, 1):
            for sv in (0, 1):
                y += [-0.9, -0.2, 0.2, 0.9]
                g += [gv] * 4
                s += [sv] * 4
        model = quantile_regression(y, g, s, [0.5])[0]
        for cell, fitted in model.cell_quantiles.items():
            assert fitted == 0.0
        assert model.coefficients == (0.0, 0.0, 0.0, 0.0)

    def test_saturated_identity_on_jittered_data(self):
        rng = np.random.default_rng(5)
        grid = np.arange(-5, 6) / 5
        scores = rng.choice(grid, size=400)
        y = scores + rng.uniform(-0.05, 0.05, size=400)
        g = rng.integers(0, 2, size=400)
        s = rng.integers(0, 2, size=400)
        for tau in TAUS:
            model = quantile_regression(y, g, s, [tau])[0]
            for (gv, sv), fitted in model.cell_quantiles.items():
                cell = y[(g == gv) & (s == sv)]
                assert fitted == pytest.approx(
                    cell_quantile_bruteforce(list(cell), tau), abs=1e-6
                )

    def test_local_perturbation_never_improves(self):
        rng = np.random.default_rng(29)
        for trial in range(10):
            n = int(rng.integers(40, 200))
            y = list(rng.normal(size=n))
            g = list(rng.integers(0, 2, size=n))
            s = list(rng.integers(0, 2, size=n))
            for tau in (0.25, 0.5, 0.9):
                model = quantile_regression(y, g, s, [tau])[0]
                beta = [c if c is not None else 0.0 for c in model.coefficients]
                x = np.column_stack(
                    [
                        np.ones(n),
                        np.asarray(g),
                        np.asarray(s),
                        np.asarray(g) * np.asarray(s),
                    ]
                )
                base = pinball_loss(np.asarray(y), x @ np.asarray(beta), tau)
                for j in range(4):
                    for eps in (1e-4, -1e-4):
                        bumped = list(beta)
                        bumped[j] += eps
                        loss = pinball_loss(np.asarray(y), x @ np.asarray(bumped), tau)
                        assert loss >= base - 1e-12

    def test_matches_exhaustive_breakpoint_search(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(8, 21))
            y = list(np.round(rng.normal(size=n), 3))
            g = list(rng.integers(0, 2, size=n))
            s = list(rng.integers(0, 2, size=n))
            cells = {(gv, sv) for gv, sv in zip(g, s)}
            need = {(a, b) for a in set(g) for b in set(s)}
            if cells != need:
                continue
            for tau in TAUS:
                model = quantile_regression(y, g, s, [tau])[0]
                assert model.loss == pytest.approx(
                    exhaustive_breakpoint_loss(y, g, s, tau), abs=1e-9
                )

    def test_matches_scipy_linprog_loss(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            n = 60
            y = list(rng.normal(size=n))
            g = list(rng.integers(0, 2, size=n))
            s = list(rng.integers(0, 2, size=n))
            for tau in (0.25, 0.5, 0.75):
                model = quantile_regression(y, g, s, [tau])[0]
                lp_loss, _ = linprog_quantile_loss(y, g, s, tau)
                assert model.loss == pytest.approx(lp_loss, abs=1e-6)

    def test_empty_cell_named_in_error(self):
        with pytest.raises(ValueError, match="gender=1, source=1"):
            quantile_regression([1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 1], [0.5])

    def test_empty_cell_error_message(self):
        with pytest.raises(ValueError, match=r"^empty design cell gender=1, source=1$"):
            inference._layout([1.0, 2.0, 3.0], [0, 1, 0], [0, 0, 1])
        with pytest.raises(ValueError, match=r"^empty design cell gender=0, source=1$"):
            inference._layout([1.0, 2.0, 3.0], [0, 1, 1], [0, 0, 1])

    @pytest.mark.parametrize(
        "g, s, message",
        [
            ([0, 2, 0], [0, 0, 1], "dummies must be 0/1"),
            ([0, 1, 0], [0, 0, -1], "dummies must be 0/1"),
            ([0, 1], [0, 1], "equal length"),
        ],
        ids=["gender-2", "source-minus-1", "length-mismatch"],
    )
    def test_bad_design_rejected(self, g, s, message):
        with pytest.raises(ValueError, match=message):
            inference._layout([1.0, 2.0, 3.0], g, s)

    @pytest.mark.parametrize(
        "g, s, cells",
        [
            ([0, 0, 0, 0], [1, 0, 1, 0], [(0, 0), (0, 1)]),  # only men
            ([1, 0, 1, 0], [0, 0, 0, 0], [(0, 0), (1, 0)]),  # only print
            ([1, 1, 0, 0], [1, 0, 1, 0], [(0, 0), (0, 1), (1, 0), (1, 1)]),
        ],
        ids=["only-men", "only-print", "full"],
    )
    def test_cells_in_ascending_order(self, g, s, cells):
        layout = inference._layout([4.0, 3.0, 2.0, 1.0], g, s)
        assert layout.cells == cells
        assert all(type(v) is int for cell in layout.cells for v in cell)
        for (gv, sv), rows in zip(layout.cells, layout.rows):
            assert rows.tolist() == [i for i in range(4) if (g[i], s[i]) == (gv, sv)]

    def test_degenerate_constant_cell(self):
        model = quantile_regression([2.0, 2.0, 2.0], [0, 0, 0], [0, 0, 0], [0.25])[0]
        assert model.coefficients[0] == 2.0

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            quantile_regression([1.0], [0], [0], [1.5])

    def test_no_tau_rejected(self):
        with pytest.raises(ValueError, match="no tau"):
            quantile_regression([1.0], [0], [0], [])

    @given(
        st.one_of(st.sampled_from([20, 40, 60, 80]), st.integers(1, 90)),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_taus_equal_single_tau_fits(self, n, seed, on_grid):
        # Multiples of 20 make n*tau an integer in every cell of a
        # one-cell design for every default tau, so the midpoint rule runs.
        rng = np.random.default_rng(seed)
        y = rng.integers(-5, 6, size=n) / 5
        if not on_grid:
            y = y + rng.uniform(-0.05, 0.05, size=n)
        one_cell = n % 20 == 0
        g = [0] * n if one_cell else [0] + list(rng.integers(0, 2, size=n - 1))
        s = [0] * n if one_cell else [0] + list(rng.integers(0, 2, size=n - 1))
        try:
            models = quantile_regression(y, g, s, DEFAULT_TAUS)
        except ValueError:
            for tau in DEFAULT_TAUS:
                with pytest.raises(ValueError):
                    quantile_regression(y, g, s, [tau])
            return
        assert models == [quantile_regression(y, g, s, [tau])[0] for tau in DEFAULT_TAUS]


class TestBootstrap:
    def make_data(self, n=160, seed=2):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=n)
        g = rng.integers(0, 2, size=n)
        s = rng.integers(0, 2, size=n)
        return list(y), list(g), list(s)

    def test_no_tau_rejected(self):
        y, g, s = self.make_data()
        with pytest.raises(ValueError, match="no tau"):
            bootstrap_significance(y, g, s, [], 100, seed=1)

    def test_replicate_budget_enforced(self):
        y, g, s = self.make_data()
        with pytest.raises(ValueError):
            bootstrap_significance(y, g, s, [0.5], 0, seed=1)
        with pytest.raises(ValueError):
            bootstrap_significance(y, g, s, [0.5], 99, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_32_bits_rejected(self, seed):
        # the key r << 32 | seed is one-to-one only for a 32-bit seed
        y, g, s = self.make_data()
        with pytest.raises(ValueError, match="bootstrap seed"):
            bootstrap_significance(y, g, s, [0.5], 100, seed=seed)

    def test_deterministic_given_seed(self):
        y, g, s = self.make_data()
        a = bootstrap_significance(y, g, s, [0.5], 100, seed=11)
        b = bootstrap_significance(y, g, s, [0.5], 100, seed=11)
        assert a == b

    def test_constant_response_degenerate_intervals(self):
        n = 120
        rng = np.random.default_rng(3)
        g = list(rng.integers(0, 2, size=n))
        s = list(rng.integers(0, 2, size=n))
        result = bootstrap_significance([1.5] * n, g, s, [0.5], 100, seed=5)
        for ci in result.intervals[0.5][1:]:
            assert ci.lower == ci.upper == 0.0
            assert ci.significant is False

    def test_resamples_missing_a_cell_are_discarded_and_redrawn(self):
        # one observation carries the only (1, 1) cell: roughly a third of
        # resamples drop it and must be rejected, yet the budget fills
        rng = np.random.default_rng(23)
        n = 60
        y = list(rng.normal(size=n))
        g = [0] * 58 + [1, 1]
        s = [0] * 29 + [1] * 29 + [0, 1]
        result = bootstrap_significance(y, g, s, [0.5], 100, seed=9)
        assert result.n_replicates == 100
        assert result.discarded > 0

    def test_identical_groups_usually_not_significant(self):
        # gender carries no signal: the gender CI should straddle zero in
        # the large majority of seeds
        rng = np.random.default_rng(17)
        n = 400
        straddles = 0
        trials = 5
        for t in range(trials):
            y = list(rng.normal(size=n))
            g = list(rng.integers(0, 2, size=n))
            s = list(rng.integers(0, 2, size=n))
            result = bootstrap_significance(y, g, s, [0.5], 100, seed=100 + t)
            if not result.intervals[0.5][1].significant:
                straddles += 1
        assert straddles >= 4

    def test_tau_subset_does_not_change_intervals(self):
        y, g, s = self.make_data()
        alone = bootstrap_significance(y, g, s, [0.5], 100, seed=4)
        shared = bootstrap_significance(y, g, s, DEFAULT_TAUS, 100, seed=4)
        assert alone.intervals[0.5] == shared.intervals[0.5]
        assert (alone.n_replicates, alone.discarded) == (
            shared.n_replicates,
            shared.discarded,
        )

    @pytest.mark.parametrize(
        "values, lower, upper",
        [
            (np.arange(100.0, 0.0, -1), 3.0, 98.0),  # ranks ceil(2.5) and ceil(97.5)
            (np.arange(200.0, 0.0, -1), 5.5, 195.5),  # midpoints of 5th/6th, 195th/196th
            (np.r_[np.arange(96.0, 0.0, -1), 0.0, -1.0, -0.0, -2.0], 0.0, 94.0),
            (np.r_[np.arange(96.0, 0.0, -1), -0.0, -1.0, 0.0, -2.0], -0.0, 94.0),
        ],
        ids=["B100", "B200", "zero-before-minus-zero", "minus-zero-before-zero"],
    )
    def test_interval_reads_the_rank_rule(self, monkeypatch, values, lower, upper):
        # one design cell, so the intercept is the only coefficient and its
        # replicate values are the cell fits, handed in here in replicate
        # order; of two equal zeros the earlier replicate's is read
        monkeypatch.setattr(
            inference, "_read_quantiles", lambda layout, counts, fracs: values[:, None, None]
        )
        result = bootstrap_significance([0.5] * 20, [0] * 20, [0] * 20, [0.5], len(values), seed=1)
        ci = result.intervals[0.5][0]
        assert (ci.lower, ci.upper) == (lower, upper)
        assert np.signbit(ci.lower) == np.signbit(lower)
        assert ci.significant is (lower > 0)

    def test_per_tau_json_layout(self):
        y, g, s = self.make_data()
        result = bootstrap_significance(y, g, s, DEFAULT_TAUS, 100, seed=4)
        payload = result.to_json_dict()
        assert list(payload) == [str(t) for t in DEFAULT_TAUS]
        for tau in DEFAULT_TAUS:
            entry = payload[str(tau)]
            assert entry["tau"] == tau
            assert entry["replicates"] == 100
            assert entry["discarded"] == result.discarded
            assert list(entry["intervals"]) == [
                "intercept",
                "gender",
                "source",
                "gender_x_source",
            ]


@st.composite
def bootstrap_designs(draw):
    """(y, gender, source, taus) covering the bootstrap's corner cases.

    Sizes are often multiples of 20, so n*tau is an integer for every
    default tau and the midpoint rule runs; y is often on the sentiment
    grid with no jitter, so order statistics tie; one design gives a
    cell a single row, so resamples lose it and are discarded; and
    single-gender and single-source designs leave coefficients undefined.
    """
    n = draw(st.one_of(st.sampled_from([20, 40, 60]), st.integers(20, 70)))
    full = [(0, 0), (0, 1), (1, 0), (1, 1)]
    layout = draw(st.sampled_from(["full", "single_row", "one_gender", "one_source", "one_cell"]))
    cells = {
        "full": full,
        "single_row": full,
        "one_gender": [(0, 0), (0, 1)],
        "one_source": [(0, 0), (1, 0)],
        "one_cell": [(0, 0)],
    }[layout]
    pool = cells
    if layout == "single_row":
        lone = draw(st.sampled_from(full))
        pool = [c for c in full if c != lone]
    rows = list(cells)  # every cell of the design appears at least once
    rows += draw(st.lists(st.sampled_from(pool), min_size=n - len(rows), max_size=n - len(rows)))
    order = draw(st.permutations(range(n)))
    rows = [rows[i] for i in order]
    grid = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    y = [v / 5 for v in grid]
    if draw(st.booleans()):
        noise = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(-0.05, 0.05, n)
        y = [v + u for v, u in zip(y, noise.tolist())]
    taus = tuple(Fraction(str(t)) if draw(st.booleans()) else t for t in DEFAULT_TAUS)
    return y, [g for g, _ in rows], [s for _, s in rows], taus


class TestSharedDrawOracle:
    @given(bootstrap_designs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_tau_refit(self, design, seed):
        y, g, s, taus = design
        try:
            expected = {
                float(tau): bootstrap_per_tau(y, g, s, tau, 100, seed) for tau in taus
            }
        except RuntimeError:
            with pytest.raises(RuntimeError):
                bootstrap_significance(y, g, s, taus, 100, seed)
            return
        result = bootstrap_significance(y, g, s, taus, 100, seed)
        assert list(result.intervals) == list(expected)
        for tau, (n_replicates, discarded, intervals) in expected.items():
            assert result.n_replicates == n_replicates
            assert result.discarded == discarded
            got = tuple((ci.lower, ci.upper, ci.significant) for ci in result.intervals[tau])
            assert got == intervals


def lone_row_design(n):
    """n rows, all in the reference cell but one row in each other cell:
    about three in four resamples lose a cell and are discarded."""
    y = list(np.random.default_rng(n).normal(size=n))
    return y, [0] * (n - 3) + [0, 1, 1], [0] * (n - 3) + [1, 0, 1]


def discarded_attempts(g, s, attempts, seed):
    """Whether each of the first attempts draws a resample missing a cell."""
    g, s = np.asarray(g), np.asarray(s)
    cells = set(zip(g.tolist(), s.tolist()))
    flags = []
    for rep in range(attempts):
        idx, _ = replicate_rows(seed, rep, len(g), len(g))
        flags.append(set(zip(g[idx].tolist(), s[idx].tolist())) != cells)
    return flags


class TestBlockEdgeOracle:
    """Blocks of any size keep and discard the replicates that the
    one-at-a-time bootstrap does, and give the same intervals."""

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_discards_across_block_edges(self, monkeypatch, per_block):
        y, g, s = lone_row_design(20)
        # while half the replicates are still needed every block is full,
        # so block j holds attempts [j * per_block, (j + 1) * per_block)
        flags = discarded_attempts(g, s, 50, seed=1)
        for b in (3, 7):
            edges = range(b, 50, b)
            assert any(flags[i - 1] and flags[i] for i in edges)  # a run across an edge
            assert any(all(flags[i - b : i]) for i in edges)  # a block all discarded
        monkeypatch.setattr(inference, "BLOCK_ROWS", per_block * len(y))
        expected = bootstrap_sequential_reference(y, g, s, DEFAULT_TAUS, 101, seed=1)
        assert expected.discarded > 100
        assert bootstrap_significance(y, g, s, DEFAULT_TAUS, 101, seed=1) == expected

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_few_discards_and_a_short_last_block(self, monkeypatch, per_block):
        rng = np.random.default_rng(29)
        y, g, s = rng.normal(size=60), rng.integers(0, 2, 60), rng.integers(0, 2, 60)
        monkeypatch.setattr(inference, "BLOCK_ROWS", per_block * len(y))
        expected = bootstrap_sequential_reference(y, g, s, DEFAULT_TAUS, 103, seed=6)
        assert bootstrap_significance(y, g, s, DEFAULT_TAUS, 103, seed=6) == expected

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_exhausted_budget_same_message(self, monkeypatch, per_block):
        # one row per cell: a resample keeps all four about one time in ten
        y, g, s = [0.3, -0.1, 0.7, 0.2], [0, 0, 1, 1], [0, 1, 0, 1]
        monkeypatch.setattr(inference, "BLOCK_ROWS", per_block * len(y))
        with pytest.raises(RuntimeError) as expected:
            bootstrap_sequential_reference(y, g, s, DEFAULT_TAUS, 100, seed=0)
        with pytest.raises(RuntimeError) as got:
            bootstrap_significance(y, g, s, DEFAULT_TAUS, 100, seed=0)
        assert str(got.value) == str(expected.value)

    def test_long_decimal_tau_on_large_cells(self):
        # 0.3333333333333333 has numerator 3333333333333333: times a cell of
        # ~3000 rows the rank arithmetic passes 2**63
        rng = np.random.default_rng(31)
        n = 12000
        y, g, s = rng.normal(size=n), rng.integers(0, 2, n), rng.integers(0, 2, n)
        taus = (0.1, 0.3333333333333333, 0.9)
        expected = bootstrap_sequential_reference(y, g, s, taus, 100, seed=2)
        assert bootstrap_significance(y, g, s, taus, 100, seed=2) == expected


class TestRowDraw:
    """The vectorized row draw equals the one-word-at-a-time definition."""

    def test_rejected_words_take_the_sequential_path(self):
        # bound 3 * 2**30: a quarter of the words are rejected, so most keys
        # of 8 rows reject one and are redrawn one word at a time
        bound, count = 3 * 2**30, 8
        expected = [replicate_rows(5, rep, bound, count) for rep in range(64)]
        assert 32 < sum(rejected > 0 for _, rejected in expected) < 64
        got = inference._draw_rows([rep << 32 | 5 for rep in range(64)], bound, count)
        assert got.tolist() == [rows for rows, _ in expected]

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2000),
        st.one_of(st.integers(1, 2**32), st.sampled_from([1, 2, 3, 2**31 + 1, 2**32 - 1, 2**32])),
        st.integers(1, 30),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, seed, first, bound, count):
        reps = range(first, first + 3)
        got = inference._draw_rows([rep << 32 | seed for rep in reps], bound, count)
        assert got.tolist() == [replicate_rows(seed, rep, bound, count)[0] for rep in reps]


class TestStreamPin:
    """Literal draws. Both come from the standard library's MT19937, whose
    seeding and `getrandbits` are meant to give the same stream on every
    supported Python; CI runs this on each version in its matrix."""

    def test_first_rows_of_replicate_zero(self):
        # seed 42 and n = 1000: replicate 0's key is 0 << 32 | 42
        rows = inference._draw_rows([0 << 32 | 42], 1000, 1000)[0, :8]
        assert rows.tolist() == [639, 111, 25, 741, 275, 244, 223, 139]

    def test_jitter(self):
        assert jitter([-5, 0, 5], seed=7).tolist() == [
            -0.955213463950813,
            -0.0105176505131915,
            0.9548286426963968,
        ]


def test_bootstrap_memory_is_capped():
    # an uncapped block of 200 replicates x 20000 rows would be 32 MB of
    # int64 draws alone
    rng = np.random.default_rng(37)
    n = 20000
    y, g, s = rng.normal(size=n), rng.integers(0, 2, n), rng.integers(0, 2, n)
    tracemalloc.start()
    try:
        bootstrap_significance(y, g, s, DEFAULT_TAUS, 200, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_pinball_total_oracle_consistency():
    rng = np.random.default_rng(53)
    y = rng.normal(size=30)
    fitted = rng.normal(size=30)
    assert pinball_loss(y, fitted, 0.3) == pytest.approx(
        pinball_total(list(y), list(fitted), 0.3), abs=1e-12
    )
