"""End-to-end pipeline: config, resumable stages and the report bundle.

Stages communicate through files in the output directory, so each one can
be rerun from the previous stage's artifacts:

    extract  -> records.jsonl, counts.csv, count_table.json,
                descriptives.json, diagnostics.json
    analyze  -> bias_profile.json, summary_stats.json, agreement.json,
                chi_square.json, sentiment_fractions.csv, distinctive_*.csv,
                quantiles.csv, quantile_coefficients.json, temporal_*.json,
                trend_*.csv
    report   -> manifest.json, table1.csv, ccdf_*.csv

The JSON files a later stage reads back, `MACHINE_ARTIFACTS`
(count_table.json, descriptives.json and diagnostics.json), are written
compact, on one line; every other JSON file is a report file, indented
for people. count_table.json, whose format `model` defines (the
`CountTable`'s politician-keyed word cells and its day cells), is all that
analyze reads besides the lexicon: each category's record rows derive from
its word cells and the lexicon's grid positions (`record_rows`), so the
bundle does not depend on the order of the documents. records.jsonl (one
object per record) and counts.csv are for people and never read back. A
missing or broken artifact stops the stage that reads it with a
`StageError` naming the file; so do one whose top level is not a JSON
object, a count_table.json from an older extract, one whose days disagree
with its cells (`model.read_count_table`) and one counted with another
lexicon than analyze reads. `manifest.json` records each path by its
basename, so the bundle does not depend on where the files live.

The settings are the fields of `PipelineConfig`, and `from_ini` reads
exactly those keys. A stage reads each input file once, side files before
the parses, so a config error or a broken file stops it before any work.
A stage computes all its artifacts before `write_artifacts` puts any in
place, and keeps each file it replaces aside until the last rename, so a
stage that fails, in a write or in a rename, leaves the output directory
as it was; `write_artifacts` refuses an output name taken by a directory
before it renames anything.

Each stage runs with the cyclic garbage collector paused
(`_collector_paused`) and restores its state after, also on failure. A
stage puts none of the containers it builds into a reference cycle, so
reference counting frees them; the collector's passes over them would only
cost time, about 5% of extract on a 4000-document corpus.

Given the same inputs, config and seed, the bundle is byte-identical on
rerun: every stochastic step derives its generator from the configured
seed and all serialization is order-stable. `derive_seed` turns (seed,
step, category) into a 32-bit child seed, numpy's `SeedSequence` value
computed in plain Python; the jitter and the bootstrap draw from the
standard library's `random.Random` (MT19937) under that seed, the
bootstrap under the key `replicate << 32 | seed`. No stage imports
`numpy.random`, which would cost about 10-14 ms and 5 MB of RSS and pull
in `secrets` and `hashlib`.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import datetime
import errno
import functools
import gc
import json
import logging
import math
import os
import stat
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, TypeVar, get_type_hints

import numpy as np

from . import bias, inference, reporting, temporal
from .entities import RoleGazetteer
from .errors import ConfigError, CovbiasError, StageError
from .extraction import DIRECTIONS, ExtractionResult, extract_records
from .ingestion import (
    CorpusDiagnostics,
    read_corpus,
    read_lemma_map,
    read_metadata,
    read_stopwords,
)
from .lexicon import Lexicon, read_lexicon
from .model import (
    ROW_GENDER, ROW_SOURCE, Category, CountTable, Document, Gender, RecordRows, SourceType,
    parse_date, read_count_table,
)
from .registry import PoliticianRegistry, read_registry
from .sentiment import krippendorff_alpha

log = logging.getLogger(__name__)

T = TypeVar("T")

# The rule `extraction.attribute` applies, as the manifest names it.
ATTRIBUTION_POLICY = "nearest-mention-in-tree-distance-ties-to-both"
FILL_POLICY = "missing-days-zero-filled"


# How `from_ini` casts a value, by field type, with the kind of value a
# failed cast names; every other field is read as a string.
_INI_CASTS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    Optional[datetime.date]: (parse_date, "a YYYY-MM-DD date"),
    tuple[str, ...]: (lambda raw: tuple(p.strip() for p in raw.split(",") if p.strip()), None),
}


def _ini_error(path, exc: Exception) -> ConfigError:
    """A read or parse error as a one-line `ConfigError` naming the file."""
    return ConfigError(f"{path}: {' '.join(str(exc).split())}")


@dataclass
class PipelineConfig:
    conllu: tuple[str, ...]
    metadata: str
    registry: str
    lexicon: str
    out: str
    stopwords: Optional[str] = None
    lemma_map: Optional[str] = None
    gazetteer: Optional[str] = None
    radius: int = 2
    direction: str = "undirected"
    rates_mode: str = "ratio"
    seed: int = 42
    jitter: float = inference.JITTER_HALF_WIDTH
    ma_window: int = temporal.MA_WINDOW
    bootstrap: int = 200
    bins: int = 40
    window_start: Optional[datetime.date] = None
    window_end: Optional[datetime.date] = None

    @classmethod
    def from_ini(cls, path, **overrides) -> "PipelineConfig":
        """Settings from the `[covbias]` section of an INI file.

        The dataclass fields are the settings: every key of the section
        must name one, and each value is cast by its field's type. An empty
        value leaves the default. Overrides that are not None (the CLI's
        flags) replace the file's values. A file that cannot be read (not
        UTF-8, no section header, a key given twice, a broken `%(...)s`
        interpolation) is a `ConfigError` naming the file.
        """
        # bench/child.py still passes workers=1; extract has one serial path,
        # so that value alone is accepted. Drop this at the next bench change.
        if overrides.pop("workers", 1) != 1:
            raise ConfigError("workers: extract runs serially; only workers=1 is accepted")
        parser = configparser.ConfigParser()
        try:
            found = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise _ini_error(path, exc) from None
        if not found:
            raise ConfigError(f"config file {path!r} not found")
        if not parser.has_section("covbias"):
            raise ConfigError(f"{path}: missing [covbias] section")
        section = parser["covbias"]
        fields = dataclasses.fields(cls)
        types = get_type_hints(cls)
        # Keys inherited from [DEFAULT] are not checked: they may serve interpolation.
        unknown = [k for k in section if k not in types and k not in parser.defaults()]
        if unknown:
            raise ConfigError(f"{path}: unknown keys in [covbias]: {', '.join(unknown)}")
        kwargs = {}
        for f in fields:
            try:
                raw = section.get(f.name)
            except configparser.Error as exc:
                raise _ini_error(path, exc) from None
            if raw in (None, ""):
                continue
            cast, kind = _INI_CASTS.get(types[f.name], (str, None))
            try:
                kwargs[f.name] = cast(raw)
            except ValueError:
                raise ConfigError(f"{path}: {f.name} = {raw!r} is not {kind}") from None
        kwargs.update((k, v) for k, v in overrides.items() if v is not None)
        required = (f.name for f in fields if f.default is dataclasses.MISSING)
        missing = [name for name in required if not kwargs.get(name)]
        if missing:
            raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")
        return cls(**kwargs)

    def validate(self) -> None:
        for label, path in [
            ("metadata", self.metadata),
            ("registry", self.registry),
            ("lexicon", self.lexicon),
            *(("conllu", p) for p in self.conllu),
            ("stopwords", self.stopwords),
            ("lemma_map", self.lemma_map),
            ("gazetteer", self.gazetteer),
        ]:
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{label} file does not exist: {path}")
            if path is not None and os.path.isdir(path):  # a FIFO still passes
                raise ConfigError(f"{label} is a directory, not a file: {path}")
        if self.radius < 1:
            raise ConfigError("radius must be >= 1")
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"direction must be one of {DIRECTIONS}")
        if self.rates_mode not in bias.RATE_MODES:
            raise ConfigError(f"rates_mode must be one of {bias.RATE_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not 0 <= self.jitter < math.inf:
            raise ConfigError("jitter must be a finite nonnegative number")
        if self.ma_window < 1:
            raise ConfigError("ma_window must be >= 1")
        if self.bootstrap < inference.MIN_REPLICATES:
            raise ConfigError(f"bootstrap must be >= {inference.MIN_REPLICATES}")
        if self.bins < 1:
            raise ConfigError("bins must be >= 1")
        if (self.window_start is None) != (self.window_end is None):
            raise ConfigError("window_start and window_end must be given together")
        if self.window_start and self.window_start > self.window_end:
            raise ConfigError("window_start must not be after window_end")

    def window(self) -> Optional[tuple[datetime.date, datetime.date]]:
        if self.window_start and self.window_end:
            return (self.window_start, self.window_end)
        return None

    def to_json_dict(self) -> dict:
        """The settings as JSON values, each path by its basename alone."""
        out = dataclasses.asdict(self)
        paths = ("metadata", "registry", "lexicon", "out", "stopwords", "lemma_map", "gazetteer")
        out.update((k, os.path.basename(os.path.normpath(out[k]))) for k in paths if out[k])
        out["conllu"] = [os.path.basename(p) for p in self.conllu]
        for key in ("window_start", "window_end"):
            if out[key] is not None:
                out[key] = out[key].isoformat()
        return out

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)


# The JSON artifacts that a later stage reads back and people need not read:
# compact, they come from the C encoder, several times faster than indented
# JSON and about half the bytes. The report files stay indented.
MACHINE_ARTIFACTS = frozenset({"count_table.json", "descriptives.json", "diagnostics.json"})


def write_artifacts(cfg: PipelineConfig, artifacts: Mapping[str, object]) -> None:
    """Write a stage's artifacts all together or not at all.

    A `*.json` payload is an object, written compact if its name is in
    `MACHINE_ARTIFACTS` and indented otherwise; a `*.csv` payload is a
    (header, rows) pair and a `*.jsonl` payload an iterable of encoded lines.
    A target that is a directory fails the call before anything is written.
    Every file is written under a temporary name first and renamed into
    place only once all are written. An existing target is first moved
    aside, under a name of its own, and the moved files are deleted only
    after the last rename. So if a write or a rename fails, the new files
    already in place are removed, every moved file is put back and the
    temporaries are deleted: the output directory is as it was.
    """
    os.makedirs(cfg.out, exist_ok=True)
    existing: set[str] = set()
    for name in artifacts:
        target = cfg.path(name)
        try:
            mode = os.lstat(target).st_mode
        except FileNotFoundError:
            continue
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        existing.add(name)
    staged: list[tuple[str, str]] = []  # (temporary, name)
    moved: list[tuple[str, str]] = []  # (aside, target): old files moved out of the way
    placed: list[str] = []  # targets the new files were renamed to
    try:
        for name, payload in artifacts.items():
            tmp = cfg.path(f".{name}.tmp")
            staged.append((tmp, name))
            if name.endswith(".json"):
                reporting.write_json(tmp, payload, compact=name in MACHINE_ARTIFACTS)
            elif name.endswith(".csv"):
                reporting.write_csv(tmp, *payload)
            elif name.endswith(".jsonl"):
                reporting.write_jsonl(tmp, payload)
            else:
                raise ValueError(f"no writer for artifact {name!r}")
        for tmp, name in staged:
            target = cfg.path(name)
            if name in existing:
                aside = cfg.path(f".{name}.old")
                os.replace(target, aside)
                moved.append((aside, target))
            os.replace(tmp, target)
            placed.append(target)
    except BaseException:
        restored = {target for _, target in moved}
        for target in placed:
            if target not in restored:
                os.remove(target)
        for aside, target in moved:
            os.replace(aside, target)
        for tmp, _ in staged[len(placed):]:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    for aside, _ in moved:
        os.remove(aside)


def _read_artifact(cfg: PipelineConfig, stage: str, name: str, decode: Callable[[object], T]) -> T:
    """`decode` of the JSON value of the artifact `name` that an earlier stage wrote.

    A file that is missing or cannot be decoded is a `StageError` of
    `stage` that names it.
    """
    path = cfg.path(name)
    try:
        with open(path, encoding="utf-8") as fh:
            return decode(json.load(fh))
    except OSError as exc:
        raise StageError(stage, exc) from exc
    except ValueError as exc:
        raise StageError(stage, ValueError(f"{path}: {exc}")) from exc
    except (KeyError, TypeError) as exc:
        cause = ValueError(f"{path}: malformed: {type(exc).__name__} {exc}")
        raise StageError(stage, cause) from exc


def _read_descriptives(desc: object) -> dict:
    """descriptives.json, checked to be an object that holds every value
    report reads: per dataset and gender, the Table 1 counts as integers
    and the two CCDF inputs as lists of integers."""
    if type(desc) is not dict:
        raise ValueError("the top level is not a JSON object")
    for dataset in ("coverage", "personalization"):
        for gender in Gender:
            tally = desc[dataset][gender.value]
            for key in reporting.TABLE1_FIELDS:
                if type(tally[key]) is not int:
                    raise ValueError(f"{dataset}/{gender.value}/{key} is not an integer")
            for key in ("words_per_sentence", "sentences_per_politician"):
                values = tally[key]
                if type(values) is not list or any(type(v) is not int for v in values):
                    raise ValueError(f"{dataset}/{gender.value}/{key} is not a list of integers")
    return desc


def _read_diagnostics(diagnostics: object) -> dict:
    """diagnostics.json, checked to hold exactly what extract writes: under
    `ingest/rejected_sentences` a list of [doc_id, sent_id, reason] strings,
    and under `matching/ambiguous_mentions` a count (an int >= 0) by surface."""
    if type(diagnostics) is not dict or diagnostics.keys() != {"ingest", "matching"}:
        raise ValueError("the top level is not an object with the keys ingest and matching")
    for section, member in (("ingest", "rejected_sentences"), ("matching", "ambiguous_mentions")):
        node = diagnostics[section]
        if type(node) is not dict or node.keys() != {member}:
            raise ValueError(f"{section} is not an object with the one key {member}")
    rejected = diagnostics["ingest"]["rejected_sentences"]
    if type(rejected) is not list:
        raise ValueError("ingest/rejected_sentences is not a list")
    for i, row in enumerate(rejected):
        if type(row) is not list or len(row) != 3 or any(type(v) is not str for v in row):
            raise ValueError(
                f"ingest/rejected_sentences/{i} {row!r} is not [doc_id, sent_id, reason] strings"
            )
    ambiguous = diagnostics["matching"]["ambiguous_mentions"]
    if type(ambiguous) is not dict:
        raise ValueError("matching/ambiguous_mentions is not an object")
    for surface, count in ambiguous.items():
        if type(count) is not int or count < 0:
            raise ValueError(f"matching/ambiguous_mentions/{surface} {count!r} is not a count")
    return diagnostics


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed for one stochastic step: a 32-bit int.

    The value is numpy's `SeedSequence([seed, *indices]).generate_state(1)[0]`,
    computed here in plain Python so that analyze never imports
    `numpy.random`. Each entropy int (nonnegative) becomes its 32-bit words,
    least significant first, 0 being one word; the words are hashed into a
    pool of 4, the pool is mixed, and the first pool word is hashed out.
    """
    words = []
    for value in (seed, *indices):
        if value < 0:
            raise ValueError(f"seed entropy must be nonnegative, got {value}")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = ((pool[0] ^ _INIT_B) * _INIT_B * _MULT_B) & _MASK32
    return value ^ (value >> 16)


def _load_lexicon(cfg: PipelineConfig) -> tuple[set[str], Lexicon]:
    """The stopwords and the lexicon, whose lemmas may not be stopwords."""
    stopwords = read_stopwords(cfg.stopwords) if cfg.stopwords else set()
    return stopwords, read_lexicon(cfg.lexicon, stopwords=stopwords)


def _load_inputs(
    cfg: PipelineConfig,
) -> tuple[
    PoliticianRegistry, RoleGazetteer, set[str], Lexicon, dict[str, str], dict[str, Document]
]:
    """Read every input file but the parses, each once.

    The order is fixed, so of two broken files the same one is reported.
    """
    registry = read_registry(cfg.registry)
    gazetteer = RoleGazetteer.from_file(cfg.gazetteer) if cfg.gazetteer else RoleGazetteer()
    stopwords, lexicon = _load_lexicon(cfg)
    lemma_map = read_lemma_map(cfg.lemma_map) if cfg.lemma_map else {}
    metadata = read_metadata(cfg.metadata, cfg.window())
    return registry, gazetteer, stopwords, lexicon, lemma_map, metadata


def _collector_paused(stage: Callable[..., T]) -> Callable[..., T]:
    """`stage` run with the cyclic garbage collector paused, its state restored after.

    Only the indented JSON encoder leaves cycles in a stage, a fixed set of
    closures per file written; the first collection after the stage frees
    them.
    """

    @functools.wraps(stage)
    def paused(*args, **kwargs) -> T:
        was_enabled = gc.isenabled()
        if was_enabled:
            gc.disable()
        try:
            return stage(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


# ---------------------------------------------------------------------------
# ingest-check
# ---------------------------------------------------------------------------


@_collector_paused
def ingest_check(cfg: PipelineConfig) -> dict:
    """Validate every input file and return a summary without writing."""
    cfg.validate()
    registry, _, stopwords, lexicon, lemma_map, metadata = _load_inputs(cfg)
    diagnostics = CorpusDiagnostics()
    docs: set[str] = set()
    sentences = 0
    tokens = 0
    for doc, sentence in read_corpus(cfg.conllu, diagnostics, metadata, stopwords, lemma_map):
        docs.add(doc.doc_id)
        sentences += 1
        tokens += len(sentence.tokens)
    return {
        "documents_parsed": len(docs),
        "documents_in_metadata": len(metadata),
        "sentences": sentences,
        "tokens": tokens,
        "politicians": len(registry),
        "lexicon_entries": len(lexicon),
        "rejected_sentences": len(diagnostics.rejected_sentences),
    }


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


@_collector_paused
def stage_extract(cfg: PipelineConfig) -> ExtractionResult:
    cfg.validate()
    registry, gazetteer, stopwords, lexicon, lemma_map, metadata = _load_inputs(cfg)
    diagnostics = CorpusDiagnostics()
    result = extract_records(
        read_corpus(cfg.conllu, diagnostics, metadata, stopwords, lemma_map),
        registry,
        lexicon,
        radius=cfg.radius,
        direction=cfg.direction,
        gazetteer=gazetteer,
    )
    write_artifacts(
        cfg,
        {
            "records.jsonl": (rec.json_line() for rec in result.records),
            "counts.csv": (
                ["lemma", "upos", "gender", "category", "source_type", "count"],
                result.counts.to_csv_rows(),
            ),
            "count_table.json": result.counts.to_json_dict(),
            "descriptives.json": result.descriptives,
            "diagnostics.json": {
                "ingest": diagnostics.to_json_dict(),
                "matching": result.diagnostics.to_json_dict(),
            },
        },
    )
    return result


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


DISTINCTIVE_HEADER = ["lemma", "upos", "weight", "diss_without"]
Slices = dict[Category, CountTable]  # ``table.slice(category=c)`` for every category


def bias_analysis(cfg: PipelineConfig, table: CountTable, lexicon: Lexicon, slices: Slices) -> dict:
    """Bias profile, index summaries and distinctive words per category.

    Rates and indices are computed against the full coverage totals;
    categories only select which words each table/ranking reports.
    """
    profiles_json: dict = {
        "rates_mode": cfg.rates_mode,
        "radius": cfg.radius,
        "direction": cfg.direction,
        "attribution": ATTRIBUTION_POLICY,
    }
    summaries: dict = {}
    try:
        profile = bias.bias_profile(table, mode=cfg.rates_mode)
    except ValueError as exc:
        log.warning("bias profile skipped: %s", exc)
        profile = None
        profiles_json["skipped"] = str(exc)
        summaries["skipped"] = str(exc)
    if profile is not None:
        diss = bias.dissimilarity(profile)
        profiles_json.update(
            {
                "c_F": float(profile.c_f),
                "c_M": float(profile.c_m),
                "dissimilarity": float(diss),
                "excluded_words": profile.excluded,
                "politicians": {g.value: table.politicians(g) for g in Gender},
                "word_totals": {g.value: table.total(g) for g in Gender},
            }
        )
        profiles_json["categories"] = {}
        for category in Category:
            selected = profile.select(category)
            profiles_json["categories"][category.value] = {
                "n_words": len(selected),
                "words": [bias.word_bias_json(w) for w in selected],
            }
            if not selected:
                summaries[category.value] = {"skipped": "no words"}
                continue
            dist = bias.index_distribution(profile, category=category, bins=cfg.bins)
            unweighted = bias.index_summary([w.index for w in selected])
            summaries[category.value] = {
                "weighted": dist.to_json_dict(),
                "unweighted": unweighted.to_json_dict(),
            }
    artifacts: dict = {
        "bias_profile.json": profiles_json,
        "summary_stats.json": summaries,
    }
    # Distinctive words come from the category slice: within one facet,
    # which words drive the gap between the gender distributions?
    for category in Category:
        slice_table = slices[category]
        loo = None
        try:
            loo = bias.leave_one_out(slice_table, cfg.rates_mode)
            slice_info = {
                "c_F": float(loo.factors[0]),
                "c_M": float(loo.factors[1]),
                "dissimilarity": float(loo.base_diss),
            }
        except ValueError as exc:
            log.warning("distinctive words skipped for %s: %s", category.value, exc)
            slice_info = {"skipped": str(exc)}
        if profile is not None:
            profiles_json["categories"][category.value]["slice"] = slice_info
        for gender in Gender:
            stem = f"distinctive_{category.value}_{gender.value}"
            artifacts[f"{stem}.csv"] = (
                DISTINCTIVE_HEADER,
                reporting.distinctive_word_rows(loo, gender) if loo else [],
            )
            artifacts[f"{stem}_negative.csv"] = (
                DISTINCTIVE_HEADER,
                reporting.distinctive_word_rows(loo, gender, lexicon)
                if loo
                else [],
            )
    return artifacts


def agreement_analysis(lexicon: Lexicon) -> dict:
    """Ordinal Krippendorff alpha over all lexicon words and per category."""
    entries = sorted(lexicon, key=lambda e: (e.lemma, e.upos))
    try:
        agreement = {"overall": krippendorff_alpha([e.scores for e in entries]).to_json_dict()}
    except ValueError as exc:
        log.warning("agreement skipped: %s", exc)
        agreement = {"overall": {"skipped": str(exc)}}
    for category in Category:
        scores = [e.scores for e in entries if e.category == category]
        if len(scores) >= 2:
            agreement[category.value] = krippendorff_alpha(scores).to_json_dict()
    return {"agreement.json": agreement}


def chi_square_analysis(table: CountTable) -> dict:
    """Gender x source-type independence, for coverage and personalization."""
    chi_json = {}
    for label, tbl in (
        ("coverage", table),
        ("personalization", table.slice(lexicon_only=True)),
    ):
        observed = inference.contingency_by_source(tbl)
        try:
            chi_json[label] = inference.chi_square(observed).to_json_dict()
        except ValueError as exc:
            log.warning("chi-square %s skipped: %s", label, exc)
            chi_json[label] = {"skipped": str(exc), "observed": [list(r) for r in observed]}
    return {"chi_square.json": chi_json}


def record_rows(table: CountTable, lexicon: Lexicon) -> RecordRows:
    """Each category's (k, women, online) rows, from the table's word cells
    in their order (a decoded table's is sorted): a cell counted c times
    gives c rows, k being the lexicon's grid position of the cell's word.

    Every cell's category must be the lexicon's for its word (None for a
    word it lacks), as extract counted it; a cell counted under another
    lexicon is a `ValueError` naming the word.
    """
    rows: RecordRows = {c: [] for c in Category}
    for (lemma, upos, g, cat, st, _), n in table.words.items():
        entry = lexicon.get(lemma, upos)
        found = entry.category if entry is not None else None
        if found is not cat:
            counted = f"category {cat.value}" if cat is not None else "no category"
            listed = f"{found.value} in" if found is not None else "not in"
            raise ValueError(f"cell word ({lemma!r}, {upos!r}) of {counted} is {listed} the lexicon")
        if cat is not None:
            rows[cat] += [(entry.fifths, int(g is Gender.F), int(st is SourceType.ONLINE))] * n
    return rows


def quantile_analysis(cfg: PipelineConfig, rows: RecordRows) -> dict:
    """Quantile regressions of jittered sentiment with bootstrap intervals."""
    quantile_rows = []
    coef_json: dict = {"taus": list(inference.DEFAULT_TAUS), "jitter_h": cfg.jitter}
    for c_idx, category in enumerate(Category):
        if not rows[category]:
            coef_json[category.value] = {"skipped": "no records"}
            continue
        fifths, g_dummy, s_dummy = zip(*rows[category])
        jitter_seed = derive_seed(cfg.seed, 1, c_idx)
        y = inference.jitter(fifths, jitter_seed, cfg.jitter)
        entry: dict = {"jitter_seed": jitter_seed, "n": len(fifths)}
        try:
            models = inference.quantile_regression(y, g_dummy, s_dummy, inference.DEFAULT_TAUS)
        except ValueError as exc:
            log.warning("quantile regression skipped for %s: %s", category.value, exc)
            coef_json[category.value] = {"skipped": str(exc)}
            continue
        for g_val, s_val in ((1, 1), (1, 0), (0, 1), (0, 0)):  # women first, then online
            if (g_val, s_val) in models[0].cell_quantiles:
                quantile_rows.append(
                    [category.value, ROW_GENDER[g_val].value, ROW_SOURCE[s_val].value]
                    + [m.cell_quantiles[(g_val, s_val)] for m in models]
                )
        entry["models"] = {str(m.tau): m.to_json_dict() for m in models}
        boot_seed = derive_seed(cfg.seed, 2, c_idx)
        entry["bootstrap_seed"] = boot_seed
        entry["bootstrap"] = inference.bootstrap_significance(
            y, g_dummy, s_dummy, inference.DEFAULT_TAUS, cfg.bootstrap, boot_seed
        ).to_json_dict()
        coef_json[category.value] = entry
    return {
        "quantiles.csv": (
            ["category", "gender", "source_type", "D1", "Q1", "D5", "Q3", "D9"],
            quantile_rows,
        ),
        "quantile_coefficients.json": coef_json,
    }


def temporal_analysis(cfg: PipelineConfig, table: CountTable, slices: Slices) -> dict:
    """Moving-average personalization trends and their area decomposition,
    on one day grid for both genders where a day without coverage or
    personalization is 0."""
    coverage = {gender: table.by_day(gender) for gender in Gender}
    all_days = sorted(set(coverage[Gender.F]) | set(coverage[Gender.M]))
    grid = (
        [
            all_days[0] + datetime.timedelta(days=i)
            for i in range((all_days[-1] - all_days[0]).days + 1)
        ]
        if all_days
        else []
    )
    artifacts: dict = {}
    for category in Category:
        out: dict = {"ma_window": cfg.ma_window, "fill_policy": FILL_POLICY}
        trends = {}
        if not grid:
            out["skipped"] = "no dated coverage"
        else:
            for gender in Gender:
                cov, pers = coverage[gender], slices[category].by_day(gender)
                daily = np.array(
                    [pers.get(day, 0) / cov[day] if cov.get(day) else 0.0 for day in grid]
                )
                try:
                    trends[gender] = temporal.moving_average(daily, cfg.ma_window)
                except ValueError as exc:
                    out["skipped"] = str(exc)
                    break
        if "skipped" not in out and len(trends[Gender.F]) < 3:
            out["skipped"] = "fewer than 3 trend points after averaging"
        if "skipped" not in out:
            f_ma, m_ma = trends[Gender.F], trends[Gender.M]
            days = grid[cfg.ma_window - 1 :]
            xs = [float(day.toordinal()) for day in days]
            share_f, share_m, ties = temporal.dominance_fractions(f_ma, m_ma)
            a_f, a_m, a = temporal.area_decomposition(xs, f_ma, m_ma)
            out.update(A_F=a_f, A_M=a_m, A=a, share_F=share_f, share_M=share_m, tie_share=ties)
            for gender in Gender:
                artifacts[f"trend_{category.value}_{gender.value}.csv"] = (
                    ["date", "value"],
                    [[day.isoformat(), v] for day, v in zip(days, trends[gender].tolist())],
                )
        artifacts[f"temporal_{category.value}.json"] = out
    return artifacts


@_collector_paused
def stage_analyze(cfg: PipelineConfig) -> dict:
    cfg.validate()
    _, lexicon = _load_lexicon(cfg)
    table = _read_artifact(cfg, "analyze", "count_table.json", read_count_table)
    try:
        rows = record_rows(table, lexicon)
    except ValueError as exc:
        cause = ValueError(
            f"{cfg.path('count_table.json')}: {exc} {cfg.lexicon}: "
            "extracted with another lexicon; rerun extract"
        )
        raise StageError("analyze", cause) from exc
    slices = {category: table.slice(category=category) for category in Category}
    by_category = {
        **bias_analysis(cfg, table, lexicon, slices),
        **temporal_analysis(cfg, table, slices),
    }
    del slices  # freed before the other analyses run, so peak memory does not grow
    write_artifacts(
        cfg,
        {
            **by_category,
            **agreement_analysis(lexicon),
            "sentiment_fractions.csv": (
                ["category", "group"] + reporting.SENTIMENT_COLUMNS,
                reporting.sentiment_fraction_rows(rows, lexicon),
            ),
            **chi_square_analysis(table),
            **quantile_analysis(cfg, rows),
        },
    )
    return {"records": sum(map(len, rows.values()))}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@_collector_paused
def stage_report(cfg: PipelineConfig) -> dict:
    cfg.validate()
    desc = _read_artifact(cfg, "report", "descriptives.json", _read_descriptives)
    diagnostics = _read_artifact(cfg, "report", "diagnostics.json", _read_diagnostics)
    table = _read_artifact(cfg, "report", "count_table.json", read_count_table)

    for dataset, tbl in (
        ("coverage", table),
        ("personalization", table.slice(lexicon_only=True)),
    ):
        for gender in Gender:
            if desc[dataset][gender.value]["words"] != tbl.total(gender):
                raise StageError(
                    "report",
                    ValueError(
                        f"{cfg.path('descriptives.json')}: word total for "
                        f"{dataset}/{gender.value} does not match "
                        f"{cfg.path('count_table.json')}"
                    ),
                )

    artifacts: dict = {"table1.csv": (reporting.TABLE1_HEADER, reporting.table1_rows(desc))}
    for dataset in ("coverage", "personalization"):
        for kind, key in (
            ("neighbors", "words_per_sentence"),
            ("sentences", "sentences_per_politician"),
        ):
            ccdf_rows = []
            for gender in Gender:
                for x, frac in reporting.ccdf_points(desc[dataset][gender.value][key]):
                    ccdf_rows.append([gender.value, x, frac])
            artifacts[f"ccdf_{kind}_{dataset}.csv"] = (["gender", "x", "ccdf"], ccdf_rows)

    counts = {
        dataset: {
            g.value: {k: desc[dataset][g.value][k] for k in reporting.TABLE1_FIELDS}
            for g in Gender
        }
        for dataset in ("coverage", "personalization")
    }
    manifest = {
        "config": cfg.to_json_dict(),
        "modes": {
            "rates_mode": cfg.rates_mode,
            "radius": cfg.radius,
            "direction": cfg.direction,
            "jitter_h": cfg.jitter,
            "ma_window": cfg.ma_window,
            "seed": cfg.seed,
            "attribution": ATTRIBUTION_POLICY,
            "fill_policy": FILL_POLICY,
        },
        "counts": counts,
        "diagnostics": diagnostics,
    }
    artifacts["manifest.json"] = manifest
    write_artifacts(cfg, artifacts)
    return manifest


def run_stage(name: str, stage: Callable[[PipelineConfig], T], cfg: PipelineConfig) -> T:
    """`stage(cfg)`, with any failure that is no `CovbiasError` raised as a
    `StageError` naming stage `name`. A `CovbiasError` passes as it is, so
    it reads the same under `run` and under the single-stage command."""
    try:
        return stage(cfg)
    except CovbiasError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run extract, analyze and report; abort naming the failing stage.

    Extract validates the config before any work, so a bad setting or path
    fails before anything is read or written.
    """
    run_stage("extract", stage_extract, cfg)
    run_stage("analyze", stage_analyze, cfg)
    return run_stage("report", stage_report, cfg)
