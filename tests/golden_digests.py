"""The sha256 of every file of the report bundle, for four fixed runs.

The runs are the tiny fixture corpus (tests/data) and a 200-document
corpusgen corpus (seed 1), each under ``rates_mode = ratio`` and
``literal``. ``tests/golden/bundle_sha256.json`` keeps their digests per
``major.minor`` Python version, and ``tests/test_golden.py`` recomputes
them. After an intended bundle change, rewrite the entry of the running
Python version from the repository root with

    PYTHONPATH=src python tests/golden_digests.py

and name the change and the files it touches in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import conftest
import corpusgen
from covbias.pipeline import PipelineConfig, run_pipeline

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "bundle_sha256.json")
CASES = ("tiny-ratio", "tiny-literal", "docs200-ratio", "docs200-literal")


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def read_golden() -> dict:
    """Python version -> case -> bundle file name -> sha256."""
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def bundle_digests(case: str, work_dir: str) -> dict[str, str]:
    """Run the whole pipeline for ``case`` under ``work_dir``; the sha256 of
    each file it writes to ``work_dir/out``, by name."""
    inputs, mode = case.split("-")
    out = os.path.join(work_dir, "out")
    config = os.path.join(work_dir, "run.ini")
    if inputs == "tiny":
        conftest.write_config(config, out, rates_mode=mode)
    else:
        paths = corpusgen.generate(os.path.join(work_dir, "in"), n_docs=200, seed=1)
        corpusgen.write_config(paths, out, config, seed=1)
        with open(config, "a", encoding="utf-8") as fh:
            fh.write(f"rates_mode = {mode}\n")
    run_pipeline(PipelineConfig.from_ini(config))
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main() -> None:
    golden = read_golden() if os.path.exists(GOLDEN) else {}
    entry = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as work_dir:
            entry[case] = bundle_digests(case, work_dir)
    golden[python_version()] = entry
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{GOLDEN}: wrote {len(CASES)} cases for Python {python_version()}")


if __name__ == "__main__":
    main()
