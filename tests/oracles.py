"""Independent reference implementations used to check the engine.

Everything here is written from the definitions, takes the dumbest
correct path, and shares no code with the package under test. The
exceptions: ``token_from_row`` builds the package's ``Token`` with its
``normalize_lemma``, because it checks the reader's memo of the
derivation, not the normalization;
``SevenStructureTally`` keys its counts by the package's ``Gender``;
``extract_records_reference`` finds mentions with the package's
``find_mentions`` and fills its result types, because it checks the tree
walk and the nearest-mention attribution, not those (its count cells and
politician sets are its own dicts, only wrapped in the ``CountTable``
constructor at the end);
``bootstrap_sequential_reference`` reads the cell fits through the
package's layout, rank rule and coefficient step, because it checks the
blocked replicate loop, not those; its interval, like that of
``bootstrap_per_tau``, is read from the definition by ``order_statistic``
(Python's stable ``sorted``, no numpy quantile function); and
``area_decomposition_reference`` cuts segments with the package's
``_split_segments``, because it checks the stacked Simpson solve, not
the cut. The three helpers under "Package arithmetic"
read the package's own ``_terms`` and sorted-sample quantile, because
they only give the tests a named entry point to that arithmetic; the
scan and recompute oracles here check it.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import deque
from fractions import Fraction


# ---------------------------------------------------------------------------
# Krippendorff's alpha, ordinal metric: explicit pair enumeration
# ---------------------------------------------------------------------------


def alpha_ordinal_bruteforce(units):
    """alpha from ordered-pair enumeration, no coincidence matrix.

    D_o enumerates every ordered pair of distinct ratings inside each
    unit; D_e enumerates every ordered pair of distinct positions in the
    pooled rating list. Ordinal distance uses the pooled value counts.
    """
    units = [list(u) for u in units if len(u) >= 2]
    pooled = [r for u in units for r in u]
    n = len(pooled)
    counts = {}
    for r in pooled:
        counts[r] = counts.get(r, 0) + 1
    values = sorted(counts)

    def delta2(a, b):
        lo, hi = min(a, b), max(a, b)
        between = sum(Fraction(counts[v]) for v in values if lo <= v <= hi)
        return (between - Fraction(counts[a] + counts[b], 2)) ** 2

    d_o = Fraction(0)
    for u in units:
        m = len(u)
        for i in range(m):
            for j in range(m):
                if i != j:
                    d_o += delta2(u[i], u[j]) / (m - 1)
    d_o /= n

    d_e = Fraction(0)
    for i in range(n):
        for j in range(n):
            if i != j:
                d_e += delta2(pooled[i], pooled[j])
    d_e /= n * (n - 1)

    if d_e == 0:
        return 1.0
    return float(1 - d_o / d_e)


def alpha_pairwise(units):
    """alpha's JSON summary from a coincidence matrix built pair by pair.

    Every ordered pair of distinct positions inside a unit adds
    1/(m_u - 1) to its cell, one fraction addition per pair. Returns the
    dict ``AlphaResult.to_json_dict`` gives, and raises ValueError when
    fewer than 2 units have 2 or more ratings.
    """
    units = [list(u) for u in units if len(u) >= 2]
    if len(units) < 2:
        raise ValueError("alpha needs at least 2 units with >= 2 ratings each")
    marginals = {}
    for ratings in units:
        for r in ratings:
            marginals[r] = marginals.get(r, 0) + 1
    values = sorted(marginals)
    n = sum(marginals.values())

    coincidence = {}
    for ratings in units:
        w = Fraction(1, len(ratings) - 1)
        for i, a in enumerate(ratings):
            for j, b in enumerate(ratings):
                if i != j:
                    coincidence[(a, b)] = coincidence.get((a, b), Fraction(0)) + w

    dist = {}
    for i, c in enumerate(values):
        for j in range(i, len(values)):
            k = values[j]
            between = sum(Fraction(marginals[values[g]]) for g in range(i, j + 1))
            dist[(c, k)] = dist[(k, c)] = (between - Fraction(marginals[c] + marginals[k], 2)) ** 2

    d_o = sum(coincidence[p] * dist[p] for p in coincidence) / n
    d_e = Fraction(0)
    for c in values:
        for k in values:
            if c != k:
                d_e += Fraction(marginals[c] * marginals[k]) * dist[(c, k)]
    d_e /= n * (n - 1)
    degenerate = d_e == 0
    return {
        "alpha": 1.0 if degenerate else float(1 - d_o / d_e),
        "D_o": float(d_o),
        "D_e": 0.0 if degenerate else float(d_e),
        "value_marginals": {str(k): v for k, v in sorted(marginals.items())},
        "units": len(units),
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# Package arithmetic: named entry points for the tests
# ---------------------------------------------------------------------------


def factors_from_marginals(d_f, d_m, n_f, n_m):
    """Correction factors (c_F, c_M) from word totals and politician
    tallies: a_g = |D_g| / |G| over the mean of the two averages."""
    from covbias.bias import _terms

    return _terms(d_f, d_m, n_f, n_m, "ratio").factors


def reliability_curve(w_f, w_m, d_total, n_f, n_m, d_f_values, mode="ratio"):
    """Index of one word with fixed per-gender counts as the split of the
    word total varies: |D_F| over the grid, |D_M| = total - |D_F|."""
    from covbias.bias import _terms

    if w_f == 0 and w_m == 0:
        raise ValueError("coverage bias index undefined: both rates are zero")
    return [_terms(d_f, d_total - d_f, n_f, n_m, mode).index(w_f, w_m) for d_f in d_f_values]


def weighted_quantile(values, weights, p: Fraction):
    """The package's weighted p-quantile of one sample."""
    from covbias.bias import _sorted_quantile, _sorted_sample

    return _sorted_quantile(*_sorted_sample(values, weights), p)


# ---------------------------------------------------------------------------
# Weighted quantile: cumulative-weight scan
# ---------------------------------------------------------------------------


def weighted_quantile_scan(values, weights, p: Fraction):
    """Smallest value whose cumulative weight reaches p * total; midpoint
    of the bracketing values on an exact boundary hit."""
    pairs = sorted((Fraction(v), w) for v, w in zip(values, weights) if w > 0)
    total = sum(w for _, w in pairs)
    target = p * total
    acc = 0
    for i, (v, w) in enumerate(pairs):
        acc += w
        if acc > target:
            return v
        if acc == target:
            return (v + pairs[i + 1][0]) / 2 if i + 1 < len(pairs) else v
    return pairs[-1][0]


def sorted_sample_reference(values, weights):
    """The positive-weight values sorted by exact value, then weight, with
    their running weight totals: the sort before the float-first key."""
    pairs = sorted((Fraction(v), w) for v, w in zip(values, weights) if w > 0)
    return [v for v, _ in pairs], list(itertools.accumulate(w for _, w in pairs))


# ---------------------------------------------------------------------------
# Dissimilarity: full recompute from raw per-word counts
# ---------------------------------------------------------------------------


def profile_recompute(word_counts, n_f, n_m, mode="ratio"):
    """(c_F, c_M, {word: (rate_F, rate_M)}) from scratch given {word: (count_f, count_m)}.

    The totals, averages and correction factors are recomputed, and each
    adjusted rate is Fraction(count, d_g) / c_g, further divided by d_g in
    literal mode, exactly as defined.
    """
    d_f = sum(c[0] for c in word_counts.values())
    d_m = sum(c[1] for c in word_counts.values())
    if d_f <= 0 or d_m <= 0:
        raise ValueError("a gender has no words left")
    a_f = Fraction(d_f, n_f)
    a_m = Fraction(d_m, n_m)
    a_bar = Fraction(1, 2) * (a_f + a_m)
    c_f = a_f / a_bar
    c_m = a_m / a_bar
    rates = {}
    for w, (wf, wm) in word_counts.items():
        t_f = Fraction(wf, d_f)
        t_m = Fraction(wm, d_m)
        if mode == "ratio":
            rates[w] = (t_f / c_f, t_m / c_m)
        else:
            rates[w] = (t_f / (c_f * d_f), t_m / (c_m * d_m))
    return c_f, c_m, rates


def diss_recompute(word_counts, n_f, n_m, mode="ratio", skip=None):
    """Dissimilarity from scratch given {word: (count_f, count_m)}.

    Recomputes the totals, averages, correction factors and adjusted
    rates after (optionally) omitting one word, exactly as defined.
    """
    kept = {w: c for w, c in word_counts.items() if w != skip}
    c_f, c_m, rates = profile_recompute(kept, n_f, n_m, mode)
    total = Fraction(0)
    for adj_f, adj_m in rates.values():
        total += abs(adj_f - adj_m)
    return (c_f * c_m) / (c_f + c_m) * total


# ---------------------------------------------------------------------------
# Pinball loss and quantile-regression search oracles
# ---------------------------------------------------------------------------


def pinball_total(y, fitted, tau):
    total = 0.0
    for yi, fi in zip(y, fitted):
        u = yi - fi
        total += u * (tau - (1 if u < 0 else 0))
    return total


def cell_quantile_bruteforce(values, tau):
    """Pinball-optimal within-cell quantile via loss evaluation.

    Evaluates the loss at every order statistic; when several attain the
    minimum the midpoint of the extreme minimizers is returned (the loss
    is flat between them).
    """
    candidates = sorted(values)
    losses = [pinball_total(values, [c] * len(values), tau) for c in candidates]
    best = min(losses)
    hits = [c for c, l in zip(candidates, losses) if l <= best + 1e-12]
    return (hits[0] + hits[-1]) / 2


def exhaustive_breakpoint_loss(y, g, s, tau):
    """Minimum total loss over every combination of per-cell order stats."""
    cells = {}
    for yi, gi, si in zip(y, g, s):
        cells.setdefault((gi, si), []).append(yi)
    best = math.inf
    keys = sorted(cells)
    for combo in itertools.product(*(sorted(cells[k]) for k in keys)):
        loss = sum(
            pinball_total(cells[k], [c] * len(cells[k]), tau)
            for k, c in zip(keys, combo)
        )
        best = min(best, loss)
    return best


def linprog_quantile_loss(y, g, s, tau):
    """Total pinball loss of the LP solution to the dummy regression."""
    import numpy as np
    from scipy.optimize import linprog

    y = np.asarray(y, dtype=float)
    x = np.column_stack(
        [
            np.ones(len(y)),
            np.asarray(g, dtype=float),
            np.asarray(s, dtype=float),
            np.asarray(g, dtype=float) * np.asarray(s, dtype=float),
        ]
    )
    n, p = x.shape
    c = np.concatenate([np.zeros(p), tau * np.ones(n), (1 - tau) * np.ones(n)])
    a_eq = np.hstack([x, np.eye(n), -np.eye(n)])
    bounds = [(None, None)] * p + [(0, None)] * (2 * n)
    res = linprog(c, A_eq=a_eq, b_eq=y, bounds=bounds, method="highs")
    assert res.success, res.message
    beta = res.x[:p]
    return pinball_total(y, x @ beta, tau), beta


# ---------------------------------------------------------------------------
# Bootstrap: one tau at a time, each resample's cell quantiles from their definition
# ---------------------------------------------------------------------------


def replicate_rows(seed, rep, bound, count):
    """The row indices replicate ``rep`` of a bootstrap seeded ``seed`` draws:
    ``count`` of them below ``bound``, from the definition.

    The generator is ``random.Random(rep * 2**32 + seed)``. Each row takes
    the next ``getrandbits(32)`` word w; with m = w * bound, the row is
    m // 2**32, unless m % 2**32 < (2**32 - bound) % bound, in which case w
    is thrown away and the next word is taken. Returns the rows and the
    number of words thrown away.
    """
    rng = random.Random(rep * 2**32 + seed)
    rows = []
    rejected = 0
    while len(rows) < count:
        m = rng.getrandbits(32) * bound
        if m % 2**32 < (2**32 - bound) % bound:
            rejected += 1
        else:
            rows.append(m // 2**32)
    return rows, rejected


def order_statistic(values, p):
    """The p-quantile of ``values`` (p a Fraction) by its definition.

    With the m values in Python's stable ``sorted`` order and positions
    counted from 1, it is the value at ceil(p * m), or the midpoint of
    those at p * m and p * m + 1 when p * m is an integer. Of equal values
    (-0.0 and 0.0) the one earlier in ``values`` comes first.
    """
    ordered = sorted(values)
    rank = p * len(ordered)
    if rank.denominator == 1:
        return (ordered[int(rank) - 1] + ordered[int(rank)]) / 2
    return ordered[math.ceil(rank) - 1]


def percentile_interval(values):
    """The bootstrap's 95% interval of ``values``, its replicate values:
    the ``order_statistic`` at p = 1/40 and at p = 39/40, and whether the
    interval excludes zero."""
    lo, hi = (order_statistic(values, p) for p in (Fraction(1, 40), Fraction(39, 40)))
    return lo, hi, not (lo <= 0.0 <= hi)


def bootstrap_per_tau(y, gender_dummy, source_dummy, tau, n_replicates, seed):
    """Percentile intervals for one tau, every resample read from the definitions.

    Replicate ``rep`` draws rows by ``replicate_rows(seed, rep, n, n)``; a
    resample missing a design cell (a pair of dummy levels present in the
    data) is discarded and redrawn, up to 10x the replicate budget. Each
    cell's resampled values are sorted, and its tau-quantile over m values
    is the order statistic at ceil(tau * m), or the midpoint of those at
    tau * m and tau * m + 1 when tau * m is an integer. The coefficients are
    differences of cell quantiles: q00, q10 - q00, q01 - q00 and
    q11 - q10 - q01 + q00, None where a cell is outside the design.
    Each cell's tau-quantile and each coefficient's interval are read by
    ``order_statistic``. Returns ``(n_replicates, discarded, intervals)``
    with one ``percentile_interval`` per coefficient, None's where the
    coefficient is outside the design.
    """
    y = [float(v) for v in y]
    cell_of = [(int(gv), int(sv)) for gv, sv in zip(gender_dummy, source_dummy)]
    n = len(y)
    needed = {(gv, sv) for gv in {c[0] for c in cell_of} for sv in {c[1] for c in cell_of}}
    frac = tau if isinstance(tau, Fraction) else Fraction(str(tau))

    draws = []
    attempts = 0
    discarded = 0
    rep = 0
    while len(draws) < n_replicates:
        if attempts >= 10 * n_replicates:
            raise RuntimeError("bootstrap exhausted its redraw budget")
        rows, _ = replicate_rows(seed, rep, n, n)
        rep += 1
        attempts += 1
        by_cell = {}
        for i in rows:
            by_cell.setdefault(cell_of[i], []).append(y[i])
        if by_cell.keys() != needed:
            discarded += 1
            continue
        q = {cell: order_statistic(values, frac) for cell, values in by_cell.items()}
        draws.append((
            q[(0, 0)],
            q[(1, 0)] - q[(0, 0)] if (1, 0) in q else None,
            q[(0, 1)] - q[(0, 0)] if (0, 1) in q else None,
            q[(1, 1)] - q[(1, 0)] - q[(0, 1)] + q[(0, 0)] if (1, 1) in q else None,
        ))

    intervals = []
    for j in range(4):
        vals = [d[j] for d in draws]
        if any(v is None for v in vals):
            intervals.append((None, None, None))
        else:
            intervals.append(percentile_interval(vals))
    return n_replicates, discarded, tuple(intervals)


def bootstrap_sequential_reference(y, gender_dummy, source_dummy, taus, n_replicates, seed):
    """``bootstrap_significance`` one replicate at a time.

    Replicate ``rep`` draws by ``replicate_rows(seed, rep, n, n)``, reduces the
    draw to per-row multiplicities, reads each cell's quantile for every
    tau at the package's ``_quantile_ranks`` (Python ints, one cell at a
    time) along the package's ``_layout``, and turns the cell fits into
    coefficients with the package's ``_coefficients``. A resample missing
    a design cell is discarded and redrawn, up to 10x the replicate
    budget. Each interval is its own ``percentile_interval``. Returns
    the package's ``BootstrapResult``.
    """
    import numpy as np

    from covbias.bias import _quantile_ranks
    from covbias.inference import (
        BootstrapCI,
        BootstrapResult,
        _as_tau_fractions,
        _coefficients,
        _layout,
    )

    fracs = _as_tau_fractions(taus)
    layout = _layout(y, gender_dummy, source_dummy)
    n = len(layout.y)

    def read(cum):
        bounds = [0] + cum[layout.ends].tolist()
        ranks, exact = [], []
        for offset, end in zip(bounds, bounds[1:]):
            if end == offset:
                return None
            for frac in fracs:
                lo, hi = _quantile_ranks(frac, end - offset)
                ranks += (offset + lo, offset + hi)
                exact.append(lo != hi)
        pairs = layout.y[layout.order[np.searchsorted(cum, ranks)]].reshape(-1, 2).tolist()
        quantiles = [(lo + hi) / 2 if ex else lo for ex, (lo, hi) in zip(exact, pairs)]
        return [dict(zip(layout.cells, quantiles[t :: len(fracs)])) for t in range(len(fracs))]

    draws = [[] for _ in fracs]
    attempts = 0
    discarded = 0
    rep = 0
    while len(draws[0]) < n_replicates:
        if attempts >= 10 * n_replicates:
            raise RuntimeError(
                "bootstrap exhausted its redraw budget without filling "
                f"{n_replicates} replicates ({discarded} discarded)"
            )
        idx, _ = replicate_rows(seed, rep, n, n)
        rep += 1
        attempts += 1
        fits = read(np.cumsum(np.bincount(idx, minlength=n)[layout.order]))
        if fits is None:
            discarded += 1
            continue
        for draw, tau_fits in zip(draws, fits):
            draw.append(_coefficients(tau_fits))

    intervals = {}
    for frac, draw in zip(fracs, draws):
        cis = []
        for j in range(4):
            vals = [d[j] for d in draw]
            if any(v is None for v in vals):
                cis.append(BootstrapCI(None, None, None))
            else:
                cis.append(BootstrapCI(*percentile_interval(vals)))
        intervals[float(frac)] = tuple(cis)
    return BootstrapResult(n_replicates=n_replicates, discarded=discarded, intervals=intervals)


# ---------------------------------------------------------------------------
# Polynomial integration
# ---------------------------------------------------------------------------


def poly_integral(coefs, a, b):
    """Exact integral of sum(c_k x^k) over [a, b]."""
    return sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1)) for k, c in enumerate(coefs))


def chunk_integral(xs, ys):
    """Integral of the interpolating polynomial through 2-4 points, one
    Vandermonde solve per chunk, coordinates shifted to the chunk origin."""
    import numpy as np

    n = len(xs)
    if n == 2:
        return (xs[1] - xs[0]) * (ys[0] + ys[1]) / 2
    u = np.asarray(xs, dtype=float) - xs[0]
    v = np.vander(u, n, increasing=True)
    coef = np.linalg.solve(v, np.asarray(ys, dtype=float))
    top = u[-1]
    return float(sum(c * top ** (k + 1) / (k + 1) for k, c in enumerate(coef)))


def simpson_chunks_reference(xs, ys):
    """Composite Simpson over an ordered grid, chunk by chunk: pairs of
    intervals, the final three intervals when their count is odd, a single
    interval alone."""
    intervals = len(xs) - 1
    total = 0.0
    i = 0
    while intervals - i > 0:
        left = intervals - i
        if left == 1:
            total += chunk_integral(xs[i : i + 2], ys[i : i + 2])
            i += 1
        elif left == 3:
            total += chunk_integral(xs[i : i + 4], ys[i : i + 4])
            i += 3
        else:
            total += chunk_integral(xs[i : i + 3], ys[i : i + 3])
            i += 2
    return total


def area_decomposition_reference(xs, f, m):
    """(A_F, A_M, A) from the package's ``_split_segments``, each segment
    integrated by ``simpson_chunks_reference``."""
    from covbias.temporal import _split_segments

    a_f = 0.0
    a_m = 0.0
    d = [float(fv) - float(mv) for fv, mv in zip(f, m)]
    for sign, seg in _split_segments([float(x) for x in xs], d):
        piece = simpson_chunks_reference([p[0] for p in seg], [p[1] for p in seg])
        if sign > 0:
            a_f += piece
        elif sign < 0:
            a_m += -piece
    return a_f, a_m, a_f + a_m


# ---------------------------------------------------------------------------
# Mention matching: every registry tuple tried at every token
# ---------------------------------------------------------------------------

_PREPOSITIONS = {"di", "d", "del", "dello", "della", "dell", "dei", "degli", "delle"}
_FILLERS = {"regione", "città", "citta", "comune", "provincia"}
_PATTERN_PRECEDENCE = {"name_surname": 0, "role_surname": 1, "specific_role": 2}


def mentions_bruteforce(norms, lemmas, date, registry, canonical):
    """Mentions in one sentence, trying every registry tuple at every token.

    ``norms`` holds the normalized surfaces, ``lemmas`` the lemmas of the
    unfiltered tokens (None for filtered ones) and ``canonical`` maps a
    role word to its registry keyword or None. At each position the tuples
    are tried in the global ``(-len(t), t)`` order and the first match
    wins, even when its holders are ambiguous. Only the registry's primary
    dicts are read, never its match indexes. Returns ``(mentions,
    ambiguous)``: ``(start, end, pattern, pid)`` tuples with 1-based
    inclusive spans in span order, and the tally of dropped mentions per
    pattern.
    """
    n = len(norms)

    def at(pos, key):
        return tuple(norms[pos : pos + len(key)]) == key

    def active(role):
        return (role.start is None or role.start <= date) and (
            role.end is None or date <= role.end
        )

    def longest_first(keys):
        return sorted(keys, key=lambda t: (-len(t), t))

    names = longest_first(registry.full_names)
    surnames = longest_first(registry.surnames)
    jurisdictions = longest_first({jur for _, jur in registry.roles_by_key})
    candidates, ambiguous = [], {}

    def resolve(pids, start, end, pattern):
        if len(pids) == 1:
            candidates.append((start, end, pattern, next(iter(pids))))
        elif len(pids) > 1:
            ambiguous[pattern] = ambiguous.get(pattern, 0) + 1

    for i in range(n):
        for key in names:
            if at(i, key):
                resolve(registry.full_names[key], i + 1, i + len(key), "name_surname")
                break
        keyword = canonical(norms[i]) or canonical(lemmas[i])
        if keyword is None:
            continue
        holders = {
            pid
            for pid, politician in registry.politicians.items()
            for role in politician.roles
            if role.keyword == keyword and active(role)
        }
        for key in surnames:
            if at(i + 1, key):
                resolve(
                    registry.surnames[key] & holders, i + 1, i + 1 + len(key), "role_surname"
                )
                break
        j = i + 1
        if j < n and norms[j] in _PREPOSITIONS:
            j += 1
            if j < n and norms[j] in _FILLERS:
                j += 1
                if j < n and norms[j] in _PREPOSITIONS:
                    j += 1
            for jur in jurisdictions:
                if (keyword, jur) in registry.roles_by_key and at(j, jur):
                    pids = {
                        pid
                        for pid, role in registry.roles_by_key[(keyword, jur)]
                        if active(role)
                    }
                    resolve(pids, i + 1, j + len(jur), "specific_role")
                    break

    chosen, taken = [], set()
    for cand in sorted(
        candidates,
        key=lambda c: (c[0] - c[1], _PATTERN_PRECEDENCE[c[2]], c[0], c[3]),
    ):
        span = set(range(cand[0], cand[1] + 1))
        if not span & taken:
            taken |= span
            chosen.append(cand)
    chosen.sort(key=lambda c: (c[0], _PATTERN_PRECEDENCE[c[2]]))
    return chosen, ambiguous


# ---------------------------------------------------------------------------
# CoNLL-U tokens: every row derived from scratch, no memo
# ---------------------------------------------------------------------------

_DIGITS_RE = re.compile(r"[\d.,:%/\-]+")


def _is_digits(lemma):
    return bool(_DIGITS_RE.fullmatch(lemma)) and any(c.isdigit() for c in lemma)


def _is_url(text):
    low = text.lower()
    return "://" in low or low.startswith("www.") or low.startswith("http")


def token_from_row(index, surface, raw_lemma, upos, head, deprel, stopwords, lemma_map):
    """The Token of one CoNLL-U row, normalizing its FORM and LEMMA anew.

    A lemma-map entry for the normalized surface replaces the parser's
    lemma, and `_` falls back to the surface. When nothing lexical is
    left the raw lemma (or the surface) stays as the lemma and the token
    is filtered; otherwise stopwords, digit strings and URLs are.
    """
    from covbias.model import Token, normalize_lemma

    norm_surface = normalize_lemma(surface) if surface else None
    if norm_surface is not None and norm_surface in lemma_map:
        raw_lemma = lemma_map[norm_surface]
    elif raw_lemma == "_":
        raw_lemma = surface
    norm = normalize_lemma(raw_lemma) if raw_lemma else None
    if norm is None:
        return Token(
            index, surface, raw_lemma or surface, upos, head, deprel,
            filtered=True, norm=norm_surface,
        )
    filtered = norm in stopwords or _is_digits(norm) or _is_url(surface) or _is_url(norm)
    return Token(index, surface, norm, upos, head, deprel, filtered=filtered, norm=norm_surface)


def parse_defects(sentence):
    """Every defect of one sentence, as a list of messages; [] for a sound parse.

    The token and sentence checks are the ones `Token`, `Sentence` and
    `DependencyTree` once ran in their constructors, verbatim. The tree
    check walks each head chain for at most n steps instead of calling the
    package, and token ids must be 1..n in order.
    """
    defects = []
    n = len(sentence.tokens)
    for tok in sentence.tokens:
        if tok.index < 1:
            defects.append(f"token index must be >= 1, got {tok.index}")
        if tok.head < 0:
            defects.append(f"token head must be >= 0, got {tok.head}")
        if tok.head == tok.index:
            defects.append(f"token {tok.index} is its own head")
        if not tok.lemma:
            defects.append(f"token {tok.index} has an empty lemma")
    for tok in sentence.tokens:
        if tok.head > n:
            defects.append(
                f"{sentence.doc_id}[{sentence.index}]: head {tok.head} of token "
                f"{tok.index} does not reference an existing token"
            )
    if [t.index for t in sentence.tokens] != list(range(1, n + 1)):
        defects.append(f"token ids are not 1..{n}")
    if defects:
        return defects
    heads = [t.head for t in sentence.tokens]
    if 0 not in heads:
        defects.append("no root")
    for start in range(1, n + 1):
        node = start
        for _ in range(n):  # a chain that has not reached 0 after n steps repeats a token
            if node == 0:
                break
            node = heads[node - 1]
        if node != 0:
            defects.append(f"head chain from token {start} never reaches the root")
    return defects


# ---------------------------------------------------------------------------
# Descriptive tallies: one structure per reported count
# ---------------------------------------------------------------------------


class SevenStructureTally:
    """One dataset's descriptives, tallied word by word with a structure
    per reported count."""

    def __init__(self):
        from covbias.model import Gender

        self.genders = tuple(Gender)
        self.docs = {g: set() for g in Gender}
        self.sentences = {g: set() for g in Gender}
        self.words = {g: 0 for g in Gender}
        self.lemmas = {g: set() for g in Gender}
        self.pids = {g: set() for g in Gender}
        self.pid_sentences = {g: set() for g in Gender}
        self.words_per_sentence = {g: {} for g in Gender}

    def add(self, gender, pid, doc_id, sent_index, lemma):
        key = (doc_id, sent_index)
        self.docs[gender].add(doc_id)
        self.sentences[gender].add(key)
        self.words[gender] += 1
        self.lemmas[gender].add(lemma)
        self.pids[gender].add(pid)
        self.pid_sentences[gender].add((pid, doc_id, sent_index))
        per = self.words_per_sentence[gender]
        per[key] = per.get(key, 0) + 1

    def sentences_per_politician(self, gender):
        per = {}
        for pid, _, _ in self.pid_sentences[gender]:
            per[pid] = per.get(pid, 0) + 1
        return sorted(per.values())

    def to_json_dict(self):
        return {
            g.value: {
                "politicians": len(self.pids[g]),
                "contents": len(self.docs[g]),
                "sentences": len(self.sentences[g]),
                "words": self.words[g],
                "distinct_words": len(self.lemmas[g]),
                "words_per_sentence": sorted(self.words_per_sentence[g].values()),
                "sentences_per_politician": self.sentences_per_politician(g),
            }
            for g in self.genders
        }


# ---------------------------------------------------------------------------
# CountTable: its JSON object and its marginals, summed afresh from events
# ---------------------------------------------------------------------------


def _event_counts(events):
    """(word cells, day cells, politician sets) of ``table_from_events``
    events, each event counted one at a time; undated events add no day."""
    words, days, pids = {}, {}, {}
    for lemma, upos, g, cat, st, day, pid, *n in events:
        n = n[0] if n else 1
        words[lemma, upos, g, cat, st] = words.get((lemma, upos, g, cat, st), 0) + n
        if day is not None:
            days[g, cat, st, day] = days.get((g, cat, st, day), 0) + n
        if pid is not None:
            pids.setdefault((g, cat, st), set()).add(pid)
    return words, days, pids


def _value(x):
    return x.value if x is not None else None


def count_table_json_str_key(events):
    """``CountTable.to_json_dict()`` of a ``table_from_events`` table, from
    its events, each list sorted by ``tuple(str(x) for x in key)``."""
    words, days, pids = _event_counts(events)

    def by_str(counts):
        return sorted(counts.items(), key=lambda kv: tuple(str(x) for x in kv[0]))

    return {
        "cells": [
            [lemma, upos, g.value, _value(cat), _value(st), None, n]
            for (lemma, upos, g, cat, st), n in by_str(words)
        ],
        "days": [
            [g.value, _value(cat), _value(st), day.isoformat(), n]
            for (g, cat, st, day), n in by_str(days)
        ],
        "politicians": [
            [g.value, _value(cat), _value(st), sorted(members)]
            for (g, cat, st), members in by_str(pids)
        ],
    }


def slice_events(events, category=None, source_type=None, lexicon_only=False):
    """The events that ``CountTable.slice(category, source_type,
    lexicon_only)`` keeps: a category or source type of None keeps all,
    and ``lexicon_only`` drops the words outside the lexicon."""
    return [
        e
        for e in events
        if (e[3] == category if category is not None else not lexicon_only or e[3] is not None)
        and (source_type is None or e[4] == source_type)
    ]


def count_table_marginals(events):
    """The marginals of a ``table_from_events`` table summed from its events:
    (per-word gender counts, gender totals, per-day counts by gender, counts
    by (source type, gender), and each word's set of lexicon categories).
    Every gender is a key of the first three."""
    from covbias.model import Gender

    words, sources, categories = {}, {}, {}
    totals = {g: 0 for g in Gender}
    days = {g: {} for g in Gender}
    for lemma, upos, g, cat, st, day, _, *n in events:
        n = n[0] if n else 1
        per = words.setdefault((lemma, upos), {h: 0 for h in Gender})
        per[g] += n
        totals[g] += n
        if day is not None:
            days[g][day] = days[g].get(day, 0) + n
        if st is not None:
            sources[st, g] = sources.get((st, g), 0) + n
        cats = categories.setdefault((lemma, upos), set())
        if cat is not None:
            cats.add(cat)
    return words, totals, days, sources, categories


# ---------------------------------------------------------------------------
# Attribution: unbounded BFS over dict adjacency, whole-sentence scan
# ---------------------------------------------------------------------------

# The walk, the eligibility rule and the nearest-mention loop as first
# written, before the walk was bounded by the radius.
_CANDIDATE_POS = frozenset({"ADJ", "NOUN", "VERB"})
_MODAL_LEMMAS = frozenset({"potere", "dovere", "volere", "solere"})


def tree_distances_reference(sentence, sources, direction="undirected"):
    """BFS distance from a source set to every reachable token."""
    heads = {t.index: t.head for t in sentence.tokens}
    children = {t.index: [] for t in sentence.tokens}
    for t in sentence.tokens:
        if t.head != 0:
            children[t.head].append(t.index)
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        node = queue.popleft()
        nxt = list(children[node])
        if direction == "undirected" and heads[node] != 0:
            nxt.append(heads[node])
        for other in nxt:
            if other not in dist:
                dist[other] = dist[node] + 1
                queue.append(other)
    return dist


def _eligible_word(token):
    if token.filtered:
        return False
    if token.upos not in _CANDIDATE_POS:
        return False
    if token.upos == "VERB" and token.lemma in _MODAL_LEMMAS:
        return False
    return True


def neighborhood_reference(sentence, mention, radius, direction="undirected"):
    """(token, distance) pairs within `radius` of the span, in sentence order."""
    span = set(mention.span)
    dist = tree_distances_reference(sentence, span, direction)
    out = []
    for token in sentence.tokens:
        if token.index in span:
            continue
        d = dist.get(token.index)
        if d is None or d > radius:
            continue
        if _eligible_word(token):
            out.append((token, d))
    return out


def extract_records_reference(stream, registry, lexicon, radius=2, direction="undirected"):
    """Every word attributed to its nearest mentions (all of them on a tie),
    one lexicon lookup, one word cell count, one day cell count and one
    record per (word, mention) pair."""
    from covbias.entities import MatchDiagnostics, RoleGazetteer, find_mentions
    from covbias.extraction import ExtractionResult
    from covbias.model import CountTable, PersonalizationRecord

    gaz = RoleGazetteer()
    records, diagnostics = [], MatchDiagnostics()
    coverage, personalization = SevenStructureTally(), SevenStructureTally()
    words, days, pids = {}, {}, {}
    for doc, sentence in stream:
        mentions = find_mentions(sentence, doc, registry, gaz, diagnostics)
        if not mentions:
            continue
        spans = set()
        for m in mentions:
            spans.update(m.span)
        # token index -> (token, distance, nearest mentions in mention order)
        nearest = {}
        for m in mentions:
            for token, d in neighborhood_reference(sentence, m, radius, direction):
                if token.index in spans:
                    continue
                best = nearest.get(token.index)
                if best is None or d < best[1]:
                    nearest[token.index] = (token, d, [m])
                elif d == best[1]:
                    best[2].append(m)
        for index in sorted(nearest):
            token, _, tied = nearest[index]
            for m in tied:
                gender = registry.politicians[m.pid].gender
                entry = lexicon.get(token.lemma, token.upos)
                category = entry.category if entry else None
                key = (token.lemma, token.upos, gender, category, doc.source_type)
                words[key] = words.get(key, 0) + 1
                key = (gender, category, doc.source_type, doc.date)
                days[key] = days.get(key, 0) + 1
                pids.setdefault((gender, category, doc.source_type), set()).add(m.pid)
                coverage.add(gender, m.pid, doc.doc_id, sentence.index, token.lemma)
                if entry is not None:
                    records.append(
                        PersonalizationRecord(
                            pid=m.pid,
                            gender=gender,
                            doc_id=doc.doc_id,
                            date=doc.date,
                            source_type=doc.source_type,
                            lemma=token.lemma,
                            upos=token.upos,
                            category=entry.category,
                            fifths=entry.fifths,
                            sentence_index=sentence.index,
                        )
                    )
                    personalization.add(
                        gender, m.pid, doc.doc_id, sentence.index, token.lemma
                    )
    descriptives = {
        "coverage": coverage.to_json_dict(),
        "personalization": personalization.to_json_dict(),
    }
    return ExtractionResult(records, CountTable(words, days, pids), descriptives, diagnostics)


# ---------------------------------------------------------------------------
# records.jsonl: the JSON object of one record, for json.dumps
# ---------------------------------------------------------------------------


def record_json_dict(rec):
    """The object a ``PersonalizationRecord`` line encodes, field by field.

    ``json.dumps(record_json_dict(rec), ensure_ascii=False, sort_keys=True)``
    is the reference text of ``rec.json_line()``.
    """
    return {
        "pid": rec.pid,
        "gender": rec.gender.value,
        "doc_id": rec.doc_id,
        "date": rec.date.isoformat(),
        "source_type": rec.source_type.value,
        "lemma": rec.lemma,
        "upos": rec.upos,
        "category": rec.category.value,
        "aggregate_sentiment": float(Fraction(rec.fifths, 5)),
        "sentence_ref": [rec.doc_id, rec.sentence_index],
    }
