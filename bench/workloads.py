"""Seeded benchmark workloads built on top of ``tests/corpusgen.generate``.

Each workload stresses one layer of the pipeline and leaves another light:

- ``bulk_corpus``: a large corpus with the stock 20-row registry and
  29-entry lexicon. Volume drives parsing, attribution and the bootstrap.
- ``wide_registry``: a mid-size corpus plus padded registry rows whose
  names and places never occur in the corpus. Mention matching scans
  every registry tuple at every token, so extract grows with the padding
  while every extract artefact stays byte-identical to the unpadded run.
- ``wide_lexicon``: a mid-size corpus whose lexicon lemmas are split into
  numbered variants, with corpus tokens relabelled to match. The
  leave-one-out vocabulary and the Krippendorff units grow; extraction
  counts stay those of the base corpus.

The generator only writes input files; the pipeline never sees the seed.
"""

from __future__ import annotations

import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import corpusgen  # noqa: E402  (tests/corpusgen.py, imported unmodified)

BOOTSTRAP = 100

# (corpus documents, padded registry rows, variants per lexicon lemma)
SHAPES = {
    "bulk_corpus": (4000, 0, 1),
    "wide_registry": (1000, 300, 1),
    "wide_lexicon": (1200, 0, 40),
}

# Distinct lexicon variants the wide_lexicon corpus uses per category. Each
# stays about five standard deviations below what 1200 documents can hold.
VOCABULARY = {"moral_behavioral": 360, "physical": 250, "socio_economic": 180}

PAD_ROLES = ("sindaco", "governatore", "ministro")
_CONSONANTS = "bdfglmnprstvz"
_VOWELS = "aeiou"


@dataclass
class Workload:
    name: str
    seed: int
    config: str
    out: str
    sizes: dict
    base_config: str | None = None  # unwidened inputs, for reference checks


def _write_config(paths: dict, out_dir: str, config_path: str) -> str:
    return corpusgen.write_config(paths, out_dir, config_path, bootstrap=BOOTSTRAP)


def _corpus_vocabulary(conllu: str) -> set[str]:
    vocab = set()
    with open(conllu, encoding="utf-8") as fh:
        for line in fh:
            if line and line[0].isdigit():
                cols = line.split("\t")
                vocab.add(cols[1].casefold())
                vocab.add(cols[2].casefold())
    return vocab


def _pseudo_word(rng: np.random.Generator, syllables: int) -> str:
    parts = [
        _CONSONANTS[int(rng.integers(len(_CONSONANTS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
        for _ in range(syllables)
    ]
    return "".join(parts).capitalize()


def pad_registry(registry: str, conllu: str, rows: int, seed: int) -> None:
    """Append ``rows`` open-tenure office holders that the corpus never names."""
    rng = np.random.default_rng([seed, 1])
    taken = _corpus_vocabulary(conllu)
    used: set[str] = set()

    def fresh(syllables: int) -> str:
        while True:
            word = _pseudo_word(rng, syllables)
            if word.casefold() not in taken and word not in used:
                used.add(word)
                return word

    lines = []
    for k in range(rows):
        gender = "F" if rng.random() < 0.3 else "M"
        role = PAD_ROLES[k % len(PAD_ROLES)]
        given, surname, place = fresh(2), fresh(3), fresh(3)
        lines.append(f"x{k:04d};{given};{surname};{gender};{role}:{place};;\n")
    with open(registry, "a", encoding="utf-8") as fh:
        fh.writelines(lines)


def widen_lexicon(lexicon: str, conllu: str, variants: int, seed: int) -> None:
    """Split every lexicon lemma into numbered variants and relabel the corpus.

    The corpus tokens of each lexicon (lemma, upos) are relabelled, in both
    the form and lemma columns, so category, sentiment and tree shape are
    unchanged. Each category uses exactly ``VOCABULARY[category]`` distinct
    variants, shared round-robin among its lemmas, so the leave-one-out
    vocabulary does not vary with the seed.
    """
    rng = np.random.default_rng([seed, 2])
    with open(lexicon, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    with open(lexicon, "w", encoding="utf-8") as fh:
        for r in rows:
            for k in range(variants):
                fh.write(",".join([f"{r[0]}{k:02d}"] + r[1:]) + "\n")

    with open(conllu, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    category = {(r[0], r[1]): r[2] for r in rows}
    occurrences: dict = {key: 0 for key in category}
    for line in lines:
        if line[:1].isdigit():
            cols = line.split("\t")
            if (cols[2], cols[3]) in occurrences:
                occurrences[(cols[2], cols[3])] += 1
    used = {key: 0 for key in category}  # distinct variants each lemma gets
    for cat, target in VOCABULARY.items():
        keys = sorted(k for k in category if category[k] == cat)
        room = {k: min(occurrences[k], variants) for k in keys}
        total = 0
        while total < target and any(used[k] < room[k] for k in keys):
            for k in keys:
                if used[k] < room[k] and total < target:
                    used[k] += 1
                    total += 1

    offset = {key: int(rng.integers(variants)) for key in category}
    seen = {key: 0 for key in category}
    for i, line in enumerate(lines):
        if not line[:1].isdigit():
            continue
        cols = line.split("\t")
        key = (cols[2], cols[3])
        if key in seen:
            k = (offset[key] + seen[key] % used[key]) % variants
            seen[key] += 1
            cols[1] = cols[2] = f"{cols[2]}{k:02d}"
            lines[i] = "\t".join(cols)
    with open(conllu, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def input_sizes(paths: dict) -> dict:
    """Bytes, documents, sentences, tokens, registry rows and lexicon entries."""
    sentences = tokens = docs = 0
    with open(paths["conllu"], encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# newdoc"):
                docs += 1
            elif line.startswith("# sent_id"):
                sentences += 1
            elif line[:1].isdigit():
                tokens += 1

    def lines(path):
        with open(path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip())

    return {
        "conllu_bytes": os.path.getsize(paths["conllu"]),
        "input_bytes": sum(os.path.getsize(p) for p in paths.values()),
        "docs": docs,
        "sentences": sentences,
        "tokens": tokens,
        "registry_rows": lines(paths["registry"]),
        "lexicon_entries": lines(paths["lexicon"]),
    }


def build(name: str, seed: int, work_dir: str) -> Workload:
    """Write the inputs and INI config of one workload under ``work_dir``."""
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(SHAPES)}")
    n_docs, pad_rows, variants = SHAPES[name]
    inputs = os.path.join(work_dir, "inputs")
    paths = corpusgen.generate(inputs, n_docs=n_docs, seed=seed)
    base_config = None
    if pad_rows or variants > 1:
        # Widening rewrites copies, so the unwidened inputs stay as the reference.
        base_config = _write_config(
            paths, os.path.join(work_dir, "base_out"), os.path.join(work_dir, "base.ini")
        )
        wide = os.path.join(work_dir, "wide")
        os.makedirs(wide, exist_ok=True)
        changed = ["registry"] if pad_rows else []
        changed += ["conllu", "lexicon"] if variants > 1 else []
        for key in changed:
            target = os.path.join(wide, os.path.basename(paths[key]))
            shutil.copyfile(paths[key], target)
            paths = dict(paths, **{key: target})
    if pad_rows:
        pad_registry(paths["registry"], paths["conllu"], pad_rows, seed)
    if variants > 1:
        widen_lexicon(paths["lexicon"], paths["conllu"], variants, seed)
    out = os.path.join(work_dir, "out")
    config = _write_config(paths, out, os.path.join(work_dir, "run.ini"))
    return Workload(
        name=name,
        seed=seed,
        config=config,
        out=out,
        sizes=input_sizes(paths),
        base_config=base_config,
    )
