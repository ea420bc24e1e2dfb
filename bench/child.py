"""One benchmark repetition, run in a fresh process by ``run.py``.

Times set-up (importing covbias, loading and validating the config, and
reading the registry, lexicon and metadata), then each pipeline stage
with ``workers=1``, and writes a JSON result file. With ``--trace 1`` it
also installs the span wrappers of ``tracing.py`` and reports per-layer
metrics.

    python3 bench/child.py --config run.ini --result out.json [--trace 1]
        [--stages extract,analyze,report] [--spans spans.jsonl]

Shared machines change speed from one second to the next: the same
repetition can take 1.7 times as long when a neighbour loads the core,
and CPU time stretches with it. So a ``SpeedProbe`` runs a fixed
calibration kernel every 50 ms on the benchmark's own thread, and each
phase is reported both raw (``raw_*``) and scaled to the speed at which
the kernel takes ``REF_BURST_S``, with the probe's own time and the
hypervisor's steal time (``StealClock``) removed.
Phases shorter than ``MIN_PHASE_SAMPLES`` probe periods use the whole
repetition's speed, because a few samples scale too noisily.
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

import tracing

PROBE_PERIOD_S = 0.05
# Kernel time on an unloaded core of the reference machine (a 2.1 GHz Xeon).
REF_BURST_S = 0.0007
# Phases with fewer probe samples are scaled by the whole repetition's speed.
MIN_PHASE_SAMPLES = 5
_PROBE_KEYS = ["w%d" % i for i in range(97)]
_PROBE_TARGET = tuple(_PROBE_KEYS[3:5])


def _burst() -> None:
    """Fixed calibration work shaped like the pipeline's inner loops.

    Dict counting, tuples, a sort, string joins and Fractions, as in the
    analyses, plus the generator-driven tuple matching of mention search.
    """
    counts: dict = {}
    acc = Fraction(0)
    rows = []
    for i in range(400):
        key = _PROBE_KEYS[i % 97]
        counts[key] = counts.get(key, 0) + 1
        rows.append((key, -i, str(i)))
        if i % 16 == 0:
            acc += Fraction(i % 13 + 1, i % 7 + 2)
    rows.sort()
    "\t".join(r[2] for r in rows).split("\t")
    norms = _PROBE_KEYS[:20]
    for _ in range(25):
        for pos in range(19):
            all(norms[pos + k] == _PROBE_TARGET[k] for k in range(2))


class SpeedProbe:
    """Times ``_burst`` on a SIGALRM timer, from the thread being measured."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        # A collection of the pipeline's heap must not land inside the timing.
        was_enabled = gc.isenabled()
        gc.disable()
        t = time.perf_counter()
        _burst()
        self.samples.append((t, time.perf_counter() - t))
        if was_enabled:
            gc.enable()

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> tuple[float, float]:
        """(measured speed / reference speed, probe seconds) over [start, end).

        Speed is averaged over time, not kernel duration: work done is the
        integral of speed, so a phase that alternates between fast and slow
        spells is scaled by its mean speed.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        probe = sum(inside)
        if len(inside) < MIN_PHASE_SAMPLES:
            inside = [d for _, d in self.samples]
        if not inside:
            return 1.0, 0.0
        return sum(REF_BURST_S / d for d in inside) / len(inside), probe

    def scaled(self, start: float, end: float, stolen: float) -> float:
        factor, probe = self.factor(start, end)
        return (end - start - stolen - probe) * factor


class StealClock:
    """Pins this process to its current vCPU and reads that vCPU's steal time.

    Steal is time the hypervisor ran other guests on the vCPU. It lengthens
    wall time without being work of this process, and ``/proc/stat`` counts
    it per CPU in clock ticks.
    """

    def __init__(self) -> None:
        with open("/proc/self/stat", encoding="ascii") as fh:
            self.cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {self.cpu})
        self.tick = os.sysconf("SC_CLK_TCK")
        self.prefix = f"cpu{self.cpu} "

    def __call__(self) -> float:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(self.prefix):
                    return int(line.split()[8]) / self.tick
        raise RuntimeError(f"{self.prefix.strip()} missing from /proc/stat")


def bundle_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--stages", default="extract,analyze,report")
    ap.add_argument("--spans")
    args = ap.parse_args()
    stages = [s for s in args.stages.split(",") if s]

    steal = StealClock()
    probe = SpeedProbe()
    probe.start()
    t0, s0 = time.perf_counter(), steal()
    import covbias  # noqa: F401
    from covbias import ingestion, lexicon, pipeline, registry

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        t0, s0 = time.perf_counter(), steal()

    cfg = pipeline.PipelineConfig.from_ini(args.config, workers=1)
    cfg.validate()
    registry.read_registry(cfg.registry)
    stopwords = ingestion.read_stopwords(cfg.stopwords) if cfg.stopwords else None
    lexicon.read_lexicon(cfg.lexicon, stopwords=stopwords)
    ingestion.read_metadata(cfg.metadata, cfg.window())
    marks = [("setup", t0, s0, time.perf_counter(), steal())]

    for stage in stages:
        start, stolen = time.perf_counter(), steal()
        getattr(pipeline, f"stage_{stage}")(cfg)
        marks.append((stage, start, stolen, time.perf_counter(), steal()))
    probe.stop()

    result = {"steal_s": marks[-1][4] - s0}
    for name, start, s_start, end, s_end in marks:
        result[f"{name}_s"] = probe.scaled(start, end, s_end - s_start)
        result[f"raw_{name}_s"] = end - start
    run = marks[1:]
    result["run_s"] = sum(result[f"{name}_s"] for name, *_ in run)
    result["raw_run_s"] = run[-1][3] - run[0][1] if run else 0.0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    factor, _ = probe.factor()
    probe_s = sum(d for _, d in probe.samples)
    result["raw_cpu_s"] = usage.ru_utime + usage.ru_stime
    result["cpu_s"] = (result["raw_cpu_s"] - probe_s) * factor
    result["speed_factor"] = factor
    result["probe_samples"] = len(probe.samples)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0

    if tracer is not None:
        stats = tracing.analyse(tracer.spans)
        result["layers"] = tracing.layer_metrics(tracer, stats, bundle_bytes(cfg.out), factor)
        result["dominant"] = tracing.dominant_layers(stats)
        if args.spans:
            tracer.write(args.spans)

    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
