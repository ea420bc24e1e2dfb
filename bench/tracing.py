"""Spans and counters recorded around calls into covbias, from outside it.

The program itself carries no instrumentation. ``install`` replaces module
attributes with timing wrappers at every place the pipeline looks a name
up, so a traced run measures the same calls an untraced run makes. Spans
(name, start, end, parent) stay in memory and are written out at the end;
busy and self times are derived from them afterwards.

Span names are ``<module>.<function>``, so the module is the layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Modules whose every public function is traced wherever it is looked up.
TRACED_MODULES = ("bias", "inference", "sentiment", "temporal", "reporting")

STAGES = ("pipeline.stage_extract", "pipeline.stage_analyze", "pipeline.stage_report")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def wrap_generator(self, name, fn, on_item=None, on_done=None):
        """Trace a generator function with one span per ``next()`` call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                idx = self._begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    if on_done is not None:
                        on_done(args)
                    return
                finally:
                    self._end(idx)
                if on_item is not None:
                    on_item(item)
                yield item

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _patch(modules, original, wrapper) -> None:
    """Point every module attribute bound to ``original`` at ``wrapper``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    import covbias
    from covbias import (
        bias,
        entities,
        extraction,
        inference,
        ingestion,
        lexicon,
        pipeline,
        registry,
        reporting,
        sentiment,
        temporal,
    )

    modules = [covbias, bias, entities, extraction, inference, ingestion, lexicon,
               pipeline, registry, reporting, sentiment, temporal]
    c = tracer.counts

    def add(key, n=1):
        c[key] += n

    def on_sentence(item):
        add("ingestion.sentences")
        add("ingestion.tokens", len(item[1].tokens))

    def on_corpus_done(args):
        diagnostics = args[1] if len(args) > 1 else None
        if diagnostics is not None:
            add("ingestion.rejected", len(diagnostics.rejected_sentences))

    def on_mentions(result, args):
        add("entities.find_mentions.calls")
        add("entities.find_mentions.mentions", len(result))
        add("entities.sentences_with_mentions", 1 if result else 0)

    def on_extract(result, args):
        add("extraction.records", len(result.records))
        add("extraction.attributed_words", result.counts.grand_total)
        add("entities.dropped", sum(result.diagnostics.ambiguous.values()))

    def set_to(key):
        def hook(result, args):
            c[key] = len(result)
        return hook

    special = {
        "registry.read_registry": (registry.read_registry, set_to("registry.politicians")),
        "lexicon.read_lexicon": (lexicon.read_lexicon, set_to("lexicon.entries")),
        "ingestion.read_metadata": (ingestion.read_metadata, None),
        "entities.find_mentions": (entities.find_mentions, on_mentions),
        "extraction.extract_records": (extraction.extract_records, on_extract),
        "pipeline.stage_extract": (pipeline.stage_extract, None),
        "pipeline.stage_analyze": (pipeline.stage_analyze, None),
        "pipeline.stage_report": (pipeline.stage_report, None),
    }
    hooks = {
        "bias.leave_one_out": lambda r, a: add("bias.leave_one_out.words", len(r.words)),
        "sentiment.krippendorff_alpha": lambda r, a: add("sentiment.units", r.n_units),
        "inference.bootstrap_significance": lambda r, a: (
            add("inference.bootstrap.replicates", r.n_replicates),
            add("inference.bootstrap.discarded", r.discarded),
        ),
    }
    for mod_name in TRACED_MODULES:
        module = getattr(covbias, mod_name)
        for attr, value in list(vars(module).items()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == module.__name__
            ):
                name = f"{mod_name}.{attr}"
                special[name] = (value, hooks.get(name))

    for name, (fn, hook) in special.items():
        _patch(modules, fn, tracer.wrap(name, fn, hook))
    corpus = ingestion.read_corpus
    _patch(modules, corpus, tracer.wrap_generator(
        "ingestion.read_corpus", corpus, on_sentence, on_corpus_done))


def analyse(spans: list) -> dict:
    """Busy and self seconds per span name, per stage and overall.

    ``busy`` counts a span only when no ancestor has the same name, so a
    recursive call is not counted twice. ``self`` subtracts the time of
    direct child spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    stage_of = [None] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            stage_of[i] = stage_of[parent] if stage_of[parent] else (
                spans[parent][0] if spans[parent][0] in STAGES else None
            )
    busy: dict = defaultdict(float)
    self_: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    stage_self: dict = defaultdict(lambda: defaultdict(float))
    stage_busy: dict = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_time[i]
        calls[name] += 1
        self_[name] += own
        nested = False
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            busy[name] += dur
            if stage_of[i]:
                stage_busy[stage_of[i]][name] += dur
        if stage_of[i]:
            stage_self[stage_of[i]][name] += own
    return {"busy": busy, "self": self_, "calls": calls,
            "stage_self": stage_self, "stage_busy": stage_busy}


def dominant_layers(stats: dict) -> dict:
    """Per stage: the module with the most self time, and its busiest function."""
    out = {}
    for stage in STAGES:
        by_layer: dict = defaultdict(float)
        for name, secs in stats["stage_self"].get(stage, {}).items():
            by_layer[name.split(".")[0]] += secs
        if not by_layer:
            continue
        total = sum(by_layer.values())
        layer = max(by_layer, key=by_layer.get)
        funcs = {k: v for k, v in stats["stage_busy"][stage].items() if k.startswith(layer + ".")}
        top = max(funcs, key=funcs.get)
        out[stage.split("_", 1)[1]] = {
            "layer": layer,
            "function": top,
            "self_share": by_layer[layer] / total if total else 0.0,
        }
    return out


def layer_metrics(tracer: Tracer, stats: dict, bundle_bytes: int, speed_factor: float) -> dict:
    """The per-layer metrics of one traced repetition.

    Times are multiplied by ``speed_factor`` so they share the scale of the
    repetition's speed-scaled stage times.
    """
    c = tracer.counts
    busy, self_, calls = stats["busy"], stats["self"], stats["calls"]
    replicates = c["inference.bootstrap.replicates"]
    attempts = replicates + c["inference.bootstrap.discarded"]
    scanned = c["entities.find_mentions.calls"]
    m = {
        "ingestion.read_corpus.busy_s": busy["ingestion.read_corpus"],
        "ingestion.sentences": c["ingestion.sentences"],
        "ingestion.tokens": c["ingestion.tokens"],
        "ingestion.rejected": c["ingestion.rejected"],
        "ingestion.read_metadata.busy_s": busy["ingestion.read_metadata"],
        "registry.read_registry.busy_s": busy["registry.read_registry"],
        "registry.politicians": c["registry.politicians"],
        "lexicon.read_lexicon.busy_s": busy["lexicon.read_lexicon"],
        "lexicon.entries": c["lexicon.entries"],
        "entities.find_mentions.busy_s": busy["entities.find_mentions"],
        "entities.find_mentions.calls": scanned,
        "entities.find_mentions.mentions": c["entities.find_mentions.mentions"],
        "entities.hit_ratio": c["entities.sentences_with_mentions"] / scanned if scanned else 0.0,
        "entities.dropped": c["entities.dropped"],
        "extraction.extract_records.self_s": self_["extraction.extract_records"],
        "extraction.records": c["extraction.records"],
        "extraction.attributed_words": c["extraction.attributed_words"],
        "bias.leave_one_out.busy_s": busy["bias.leave_one_out"],
        "bias.leave_one_out.words": c["bias.leave_one_out.words"],
        "bias.bias_profile.busy_s": busy["bias.bias_profile"],
        "bias.dissimilarity.busy_s": busy["bias.dissimilarity"],
        "bias.index_distribution.busy_s": busy["bias.index_distribution"],
        "sentiment.krippendorff_alpha.busy_s": busy["sentiment.krippendorff_alpha"],
        "sentiment.units": c["sentiment.units"],
        "inference.bootstrap_significance.busy_s": busy["inference.bootstrap_significance"],
        "inference.bootstrap.replicates": replicates,
        "inference.bootstrap.discarded": c["inference.bootstrap.discarded"],
        "inference.bootstrap.useful_ratio": replicates / attempts if attempts else 0.0,
        "inference.quantile_regression.calls": calls["inference.quantile_regression"],
        "inference.quantile_regression.busy_s": busy["inference.quantile_regression"],
        "inference.chi_square.busy_s": busy["inference.chi_square"],
        "temporal.moving_average.busy_s": busy["temporal.moving_average"],
        "temporal.area_decomposition.busy_s": busy["temporal.area_decomposition"],
        "reporting.write_json.busy_s": busy["reporting.write_json"],
        "reporting.write_csv.busy_s": busy["reporting.write_csv"],
        "reporting.bundle_bytes": bundle_bytes,
        "pipeline.stage_extract.self_s": self_["pipeline.stage_extract"],
        "pipeline.stage_analyze.self_s": self_["pipeline.stage_analyze"],
        "pipeline.stage_report.busy_s": busy["pipeline.stage_report"],
    }
    return {k: v * speed_factor if k.endswith("_s") else v for k, v in m.items()}
