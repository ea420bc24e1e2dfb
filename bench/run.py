"""End-to-end benchmark of the covbias extract -> analyze -> report pipeline.

    python3 bench/run.py --workload bulk_corpus --seed 1 --seconds 30 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed (see ``workloads.py``), then runs the three pipeline stages with
``workers=1`` in a fresh child process per repetition until ``--seconds``
have been spent, checks every output bundle, and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones; count metrics must repeat exactly.
Generated inputs live under ``.bench_work/`` and are removed afterwards;
the spans of the last traced repetition and a details file are kept in
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 120
MIN_REPS = 3

END_TO_END = {
    "run_s": "s",
    "extract_s": "s",
    "analyze_s": "s",
    "docs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Extract artefacts that registry padding must leave byte-identical.
REGISTRY_INVARIANT = ("records.jsonl", "count_table.json", "descriptives.json", "diagnostics.json")


class RepFailed(Exception):
    pass


def child(config: str, result: str, trace: int = 0, stages: str = "extract,analyze,report",
          spans: str | None = None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config,
           "--result", result, "--trace", str(trace), "--stages", stages]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepFailed(f"child timed out after {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise RepFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def extract_facts(out_dir: str) -> dict:
    """Record count and per-gender word totals of an extract."""
    with open(os.path.join(out_dir, "records.jsonl"), encoding="utf-8") as fh:
        records = sum(1 for line in fh if line.strip())
    with open(os.path.join(out_dir, "count_table.json"), encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    totals = {"F": 0, "M": 0}
    for cell in cells:
        totals[cell[2]] += cell[6]
    return {"records": records, "word_totals": totals}


def check_bundle(workload, reference: dict) -> list[str]:
    """Problems with the output bundle of one repetition (empty when correct)."""
    out = workload.out
    problems = []
    if workload.name == "bulk_corpus":
        from workloads import corpusgen

        with open(os.path.join(out, "summary_stats.json"), encoding="utf-8") as fh:
            mu = json.load(fh)["physical"]["weighted"]["stats"]["mu"]
        if not mu > 0:
            problems.append(f"mean physical index {mu} is not > 0")
        with open(os.path.join(out, "distinctive_physical_F.csv"), encoding="utf-8") as fh:
            distinctive = {row["lemma"] for row in csv.DictReader(fh)}
        for lemma, *_ in corpusgen.PLANTED_F_PHYSICAL:
            if lemma not in distinctive:
                problems.append(f"planted word {lemma!r} not distinctive for F")
    elif workload.name == "wide_registry":
        for name in REGISTRY_INVARIANT:
            if read_bytes(os.path.join(out, name)) != reference["files"][name]:
                problems.append(f"{name} differs from the unpadded-registry run")
    elif workload.name == "wide_lexicon":
        facts = extract_facts(out)
        if facts != reference["facts"]:
            problems.append(f"extract facts {facts} differ from base corpus {reference['facts']}")
    return problems


def build_reference(workload, run_dir: str) -> dict:
    """Untimed extract of the unwidened inputs, for the workload checks."""
    if workload.base_config is None:
        # No reference needed; a set-up-only child warms imports and caches.
        child(workload.config, os.path.join(run_dir, "warm.json"), stages="")
        return {}
    child(workload.base_config, os.path.join(run_dir, "base.json"), stages="extract")
    base_out = os.path.join(os.path.dirname(workload.config), "base_out")
    return {
        "files": {n: read_bytes(os.path.join(base_out, n)) for n in REGISTRY_INVARIANT},
        "facts": extract_facts(base_out),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def is_count(name: str) -> bool:
    return not name.endswith("_s")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def measure(workload, reference: dict, seconds: float, trace: int, run_dir: str, results: str):
    """Repeat the pipeline until the time budget is spent; return per-rep outcomes."""
    reps, failures, digests = [], [], set()
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(reps) % 2 == 0
        rep_start = time.perf_counter()
        shutil.rmtree(workload.out, ignore_errors=True)
        spans = os.path.join(results, f"{workload.name}-{workload.seed}.spans.jsonl") if traced else None
        try:
            res = child(workload.config, os.path.join(run_dir, "rep.json"), int(traced), spans=spans)
            problems = check_bundle(workload, reference)
            digests.add(digest(workload.out))
            if len(digests) > 1:
                problems.append("bundle digest differs from an earlier repetition")
            if problems:
                raise RepFailed("; ".join(problems))
            res["traced"] = traced
            reps.append(res)
        except (RepFailed, OSError, ValueError, KeyError) as exc:
            failures.append(str(exc))
            reps.append({"traced": traced, "failed": True})
            print(f"repetition {len(reps)} failed: {exc}", file=sys.stderr)
        rep_s = time.perf_counter() - rep_start
        elapsed = time.perf_counter() - start
        n_traced = sum(1 for r in reps if r["traced"])
        enough = (n_traced >= 2 and len(reps) - n_traced >= 1) if trace else len(reps) >= MIN_REPS
        if enough and elapsed + rep_s > seconds:
            break
        if len(failures) >= MIN_REPS and len(failures) == len(reps):
            break
    return [r for r in reps if not r.get("failed")], len(reps), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/covbias/pipeline.py", "tests/corpusgen.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a covbias checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.SHAPES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SHAPES)}", file=sys.stderr)
        return 2

    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        workload = workloads.build(args.workload, args.seed, run_dir)
        reference = build_reference(workload, run_dir)
        ok, attempted, failures = measure(workload, reference, args.seconds, args.trace,
                                          run_dir, results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not ok:
        print(f"error: all {attempted} repetitions failed", file=sys.stderr)
        return 1

    correct = not failures
    details = {"workload": args.workload, "seed": args.seed, "sizes": workload.sizes,
               "attempted": attempted, "failures": failures}
    metrics = {}
    print(f"workload {args.workload} seed {args.seed}: " +
          ", ".join(f"{k} {v}" for k, v in workload.sizes.items()))
    if not args.trace:
        for rep in ok:
            rep["docs_per_s"] = workload.sizes["docs"] / rep["run_s"]
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": median([r[name] for r in ok]), "unit": unit}
        for name in ("raw_run_s", "raw_extract_s", "raw_analyze_s", "raw_cpu_s", "raw_setup_s"):
            print(f"  {name:<40} {median([r[name] for r in ok]):>14.6g} s  (unscaled)")
        details["reps"] = ok
    else:
        traced = [r for r in ok if r["traced"]]
        plain = [r for r in ok if not r["traced"]]
        mismatched = []
        for name in traced[0]["layers"] if traced else []:
            values = [r["layers"][name] for r in traced]
            if is_count(name):
                if len(set(values)) > 1:
                    mismatched.append(f"{name}: {values}")
                value = values[0]
            else:
                value = median(values)
            metrics[name] = {"value": value, "unit": unit_of(name)}
        if traced and plain:
            overhead = median([r["run_s"] for r in traced]) - median([r["run_s"] for r in plain])
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        if mismatched:
            correct = False
            print("count metrics differ between repetitions: " + "; ".join(mismatched),
                  file=sys.stderr)
        details["count_mismatches"] = mismatched
        details["dominant"] = [r["dominant"] for r in traced]
        details["reps"] = [{k: v for k, v in r.items() if k != "dominant"} for r in ok]
        for stage, d in (traced[-1]["dominant"] if traced else {}).items():
            print(f"  dominant in {stage}: {d['layer']} ({d['function']}), "
                  f"{100 * d['self_share']:.0f}% of traced self time")

    error_rate = (attempted - len(ok)) / attempted
    print(f"  {'error_rate':<40} {error_rate:>14.6g} ratio  ({attempted} attempted)")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    details_path = os.path.join(results, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(details_path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - len(ok), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
