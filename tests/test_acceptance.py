"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
verdicts; the synthetic-corpus criterion builds a 5,000-document corpus
in a session temp dir and runs the full pipeline twice.
"""

import csv
import json
import time
from fractions import Fraction

import numpy as np
import pytest

import corpusgen
from conftest import table_from_counts
from covbias.bias import bias_profile, dissimilarity, leave_one_out
from covbias.inference import chi_square, jitter, quantile_regression
from covbias.pipeline import PipelineConfig, run_pipeline
from covbias.sentiment import krippendorff_alpha
from covbias.temporal import _simpson_totals, area_decomposition
from oracles import (
    alpha_ordinal_bruteforce,
    cell_quantile_bruteforce,
    diss_recompute,
    exhaustive_breakpoint_loss,
    factors_from_marginals,
    poly_integral,
    profile_recompute,
    reliability_curve,
)
from test_bias import random_corpus
from test_sentiment import random_units

TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_criterion_01_chi_square_reproduction():
    start = time.perf_counter()
    coverage = chi_square([[550681, 3106012], [378479, 1969639]])
    elapsed = time.perf_counter() - start
    assert abs(coverage.statistic - 1225.7) <= 0.5
    expected = [[565822, 3090871], [363338, 1984780]]
    for i in range(2):
        for j in range(2):
            assert abs(coverage.expected[i][j] - expected[i][j]) <= 1
    personalization = chi_square([[14803, 71415], [9072, 39350]])
    assert abs(personalization.statistic - 52.0) <= 0.5
    assert elapsed < 1e-3
    report("1 chi-square reproduction (1225.7 / 52.0, expected counts, <1ms)")


def test_criterion_02_correction_factor_identity():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d_f, d_m = (int(v) for v in rng.integers(1, 100_000, size=2))
        n_f, n_m = (int(v) for v in rng.integers(1, 500, size=2))
        c_f, c_m = factors_from_marginals(d_f, d_m, n_f, n_m)
        assert abs(float(c_f + c_m) - 2.0) <= 1e-12
        assert c_f + c_m == 2  # exact, not just within tolerance
    assert factors_from_marginals(70, 70, 9, 9) == (1, 1)
    assert factors_from_marginals(120, 240, 10, 20) == (1, 1)
    report("2 correction-factor identity c_F + c_M = 2 on 1000 random tables")


def test_criterion_03_index_boundary_law():
    rng = np.random.default_rng(31337)
    checked = 0
    for mode in ("ratio", "literal"):
        for _ in range(150):
            counts = {
                (f"w{i}", "NOUN"): (int(a), int(b))
                for i, (a, b) in enumerate(rng.integers(0, 7, size=(10, 2)))
            }
            if not sum(c[0] for c in counts.values()) or not sum(
                c[1] for c in counts.values()
            ):
                continue
            table = table_from_counts(
                counts, n_f=int(rng.integers(1, 9)), n_m=int(rng.integers(1, 9))
            )
            for w in bias_profile(table, mode=mode).words:
                single_f = w.count_m == 0 and w.count_f > 0
                single_m = w.count_f == 0 and w.count_m > 0
                if single_f:
                    assert w.index == 1
                elif single_m:
                    assert w.index == -1
                else:
                    assert -1 < w.index < 1
                checked += 1
    assert checked > 1000
    report("3 index boundary law I = +/-1 iff single-gender, both modes")


def test_criterion_04_reliability_scenario_ordering():
    d_total = 4020
    grid = list(range(10, d_total, 20))[:200]
    assert len(grid) == 200
    balanced = reliability_curve(5, 5, d_total, 50, 50, grid)
    fewer_women = reliability_curve(5, 5, d_total, 20, 80, grid)
    more_women = reliability_curve(5, 5, d_total, 80, 20, grid)
    assert all(u <= b for u, b in zip(fewer_women, balanced))
    assert all(u >= b for u, b in zip(more_women, balanced))
    assert reliability_curve(5, 5, 4000, 50, 50, [2000])[0] == 0
    report("4 reliability-scenario ordering on a 200-point grid, exact zero at balance")


def test_criterion_05_dissimilarity_and_leave_one_out_oracle():
    rng = np.random.default_rng(555)
    for _ in range(100):
        counts, n_f, n_m = random_corpus(rng, max_words=46)
        assert len(counts) <= 50
        table = table_from_counts(counts, n_f=n_f, n_m=n_m)
        result = leave_one_out(table)
        base = diss_recompute(counts, n_f, n_m)
        assert result.base_diss == base  # exact rationals, well under 1e-12
        _, _, rates = profile_recompute(counts, n_f, n_m)
        for word in result.words:
            expected = diss_recompute(counts, n_f, n_m, skip=(word.lemma, word.upos))
            assert word.diss_without == expected
            assert word.distinctive == (expected < base)
            # gender label: larger original adjusted rate, women on ties
            rate_f, rate_m = rates[(word.lemma, word.upos)]
            assert (word.gender.value == "M") == (rate_m > rate_f)
    fixture = table_from_counts(
        {("w1", "NOUN"): (2, 3), ("w2", "NOUN"): (8, 27)}, n_f=2, n_m=3
    )
    assert dissimilarity(bias_profile(fixture)) == Fraction(1, 3)
    report("5 dissimilarity + leave-one-out match brute-force recompute; fixture = 1/3 exactly")


def test_criterion_06_krippendorff_alpha():
    assert krippendorff_alpha([[1, 1, 1], [0, 0, 0]]).value == 1.0
    rng = np.random.default_rng(6)
    for _ in range(50):
        units = random_units(rng, max_units=10, max_raters=5)
        engine = krippendorff_alpha(units)
        if engine.degenerate:
            continue
        assert engine.value == pytest.approx(
            alpha_ordinal_bruteforce(units), abs=1e-9
        )
        # permutation invariance: exact
        shuffled = [list(rng.permutation(u)) for u in units]
        assert krippendorff_alpha(shuffled).value == engine.value
        # duplication: coincidence proportions invariant; alpha obeys the
        # exact small-sample relation and converges to the original
        n = sum(len(u) for u in units)
        doubled = krippendorff_alpha(units + [list(u) for u in units])
        assert doubled.marginals == {k: 2 * v for k, v in engine.marginals.items()}
        assert 1 - doubled.value == pytest.approx(
            (1 - engine.value) * (2 * n - 1) / (2 * n - 2), abs=1e-12
        )
    report("6 ordinal alpha: brute-force match 1e-9, permutation exact, duplication law")


def test_criterion_07_quantile_regression():
    rng = np.random.default_rng(7)
    # saturated identity on jittered grid data
    grid = np.arange(-5, 6) / 5
    scores = rng.choice(grid, size=600)
    y = scores + rng.uniform(-0.05, 0.05, size=600)
    g = rng.integers(0, 2, size=600)
    s = rng.integers(0, 2, size=600)
    for tau in TAUS:
        model = quantile_regression(y, g, s, [tau])[0]
        for (gv, sv), fitted in model.cell_quantiles.items():
            cell = list(y[(g == gv) & (s == sv)])
            assert abs(fitted - cell_quantile_bruteforce(cell, tau)) <= 1e-6
    # exhaustive breakpoint search on small instances
    small_checked = 0
    while small_checked < 20:
        n = int(rng.integers(8, 21))
        ys = list(np.round(rng.normal(size=n), 3))
        gs = list(rng.integers(0, 2, size=n))
        ss = list(rng.integers(0, 2, size=n))
        cells = {(a, b) for a, b in zip(gs, ss)}
        if cells != {(a, b) for a in set(gs) for b in set(ss)}:
            continue
        for tau in TAUS:
            model = quantile_regression(ys, gs, ss, [tau])[0]
            assert model.loss == pytest.approx(
                exhaustive_breakpoint_loss(ys, gs, ss, tau), abs=1e-9
            )
        small_checked += 1
    # jitter never leaves the grid point, so never changes the sentiment class
    raw = rng.integers(-5, 6, size=2000).tolist()
    jittered = jitter(raw, seed=99)
    for k, jit in zip(raw, jittered):
        assert round(jit * 5) == k
    report("7 quantile regression: cell identity 1e-6, breakpoint search, class-safe jitter")


def test_criterion_08_simpson_integration():
    rng = np.random.default_rng(8)
    for _ in range(100):
        coefs = list(rng.normal(size=4))
        a, b = sorted(rng.uniform(-4, 4, size=2))
        if b - a < 0.5:
            continue
        xs = list(np.linspace(a, b, int(rng.integers(3, 15))))
        ys = [sum(c * x**k for k, c in enumerate(coefs)) for x in xs]
        exact = poly_integral(coefs, a, b)
        (total,) = _simpson_totals([list(zip(xs, ys))])
        assert total == pytest.approx(exact, rel=1e-9, abs=1e-9)
    # decomposition identity and swap symmetry
    for _ in range(50):
        n = int(rng.integers(3, 40))
        xs = np.arange(n, dtype=float)
        f = rng.uniform(0, 1, size=n)
        m = rng.uniform(0, 1, size=n)
        a_f, a_m, a = area_decomposition(xs, f, m)
        assert abs(a - (a_f + a_m)) <= 1e-12
        b_f, b_m, b = area_decomposition(xs, m, f)
        assert (b_f, b_m) == (a_m, a_f) and b == a
    a_f, a_m, a = area_decomposition(
        np.arange(3, dtype=float), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    )
    assert a_f == pytest.approx(0.5, abs=1e-12)
    assert a_m == pytest.approx(0.5, abs=1e-12)
    report("8 Simpson: cubic-exact, A = A_F + A_M, swap symmetry, crossing fixture")


@pytest.fixture(scope="session")
def synthetic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    paths = corpusgen.generate(root / "in", n_docs=5000, seed=42)
    out = root / "out"
    cfg_path = corpusgen.write_config(paths, out, root / "cfg.ini", seed=42)
    cfg = PipelineConfig.from_ini(str(cfg_path))
    start = time.perf_counter()
    run_pipeline(cfg)
    elapsed = time.perf_counter() - start
    return cfg, out, elapsed


def test_criterion_09_end_to_end_synthetic_corpus(synthetic_run):
    cfg, out, elapsed = synthetic_run
    assert elapsed < 60.0

    summary = json.loads((out / "summary_stats.json").read_text())
    mean_physical = summary["physical"]["weighted"]["stats"]["mu"]
    assert mean_physical > 0

    with open(out / "distinctive_physical_F.csv") as fh:
        f_distinctive = [row["lemma"] for row in csv.DictReader(fh)]
    for lemma, _, _, _ in corpusgen.PLANTED_F_PHYSICAL:
        assert lemma in f_distinctive

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["modes"]["seed"] == 42

    before = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    start = time.perf_counter()
    run_pipeline(cfg)
    rerun_elapsed = time.perf_counter() - start
    after = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert before == after
    assert rerun_elapsed < 60.0
    report(
        "9 synthetic corpus: mean physical I "
        f"{mean_physical:.3f} > 0, planted words distinctive, byte-identical rerun, "
        f"{elapsed:.1f}s < 60s"
    )


def test_criterion_10_report_layout_schemas(synthetic_run):
    # Distribution summaries, sentiment fractions, conditional quantiles
    # and trend areas are corpus-dependent; only their layouts are
    # validated, never their values.
    _, out, _ = synthetic_run
    summary = json.loads((out / "summary_stats.json").read_text())
    for cat in ("moral_behavioral", "physical", "socio_economic"):
        stats = summary[cat]["weighted"]["stats"]
        assert {"mu", "gamma3", "D5", "Q3", "D9", "IQR"} <= set(stats)

    with open(out / "sentiment_fractions.csv") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "category",
        "group",
        "strong_negative",
        "weakly_negative",
        "neutral",
        "weakly_positive",
        "strong_positive",
    ]

    with open(out / "quantiles.csv") as fh:
        header = next(csv.reader(fh))
        rows = list(csv.reader(fh))
    assert header == ["category", "gender", "source_type", "D1", "Q1", "D5", "Q3", "D9"]
    assert len(rows) == 12  # 3 categories x 2 genders x 2 source types

    for cat in ("moral_behavioral", "physical", "socio_economic"):
        temporal = json.loads((out / f"temporal_{cat}.json").read_text())
        assert {"A_F", "A_M", "A", "share_F", "share_M", "tie_share"} <= set(temporal)
        assert temporal["A"] == pytest.approx(temporal["A_F"] + temporal["A_M"], abs=1e-12)

    report("10 corpus-dependent report layouts validated as schemas only")


def test_internal_consistency_sentiment_vs_quantile_inputs(synthetic_run):
    # sentiment fractions and the quantile regressions consume the same
    # records: per-category counts must agree
    _, out, _ = synthetic_run
    per_category = {}
    with open(out / "records.jsonl") as fh:
        header, *records = map(json.loads, fh)
    for record in records:
        category = record[header.index("category")]
        per_category[category] = per_category.get(category, 0) + 1
    coef = json.loads((out / "quantile_coefficients.json").read_text())
    for cat, n in per_category.items():
        assert coef[cat]["n"] == n


def test_internal_consistency_counts_csv_vs_manifest(synthetic_run):
    _, out, _ = synthetic_run
    totals = {"F": 0, "M": 0}
    with open(out / "counts.csv") as fh:
        for row in csv.DictReader(fh):
            totals[row["gender"]] += int(row["count"])
    manifest = json.loads((out / "manifest.json").read_text())
    for gender in ("F", "M"):
        assert manifest["counts"]["coverage"][gender]["words"] == totals[gender]
