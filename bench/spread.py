"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --workloads bulk_corpus,wide_registry --seeds 1-10 \
        [--seconds 30] [--trace 0] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one after another, and
prints for each metric the median and the quartile spread
(Q3 - Q1) / median over the seeds, with quartiles as
``statistics.quantiles(values, n=4)`` gives them. Bounds from
``BENCHMARK.json`` are shown next to the spreads of end-to-end metrics.
With ``--out`` the per-run values and summaries are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["summary"] = lines[:-1]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                           if k in bounds), flush=True)
            for line in result["summary"]:
                if "dominant" in line:
                    print(line, flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                if s["spread"] < bound / 3:
                    flag = "ok"
                else:
                    flag = "within bound" if s["spread"] <= bound else "TOO WIDE"
            print(f"  {workload:<14} {name:<40} median {s['median']:<12.5g} spread "
                  f"{s['spread']:7.2%}  {'bound ' + format(bound, '.0%') if bound else ''} {flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
