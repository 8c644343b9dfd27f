"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the program: each public function of a
facewall module is wrapped at the module attribute its callers look up
(`from x import f` gives every importing module its own binding, so the
binding the caller uses is the one wrapped). Nothing under src/ changes.

A span is (name, parent, start, end). Spans stay in flat arrays until the
run ends; a span's self time is its duration minus the durations of its
direct children. Very hot leaf functions get a call counter instead of a
span, which keeps the tracing overhead small.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.start)

    def span_times(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: total duration, total self time, span count."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        spans: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            total[name] = total.get(name, 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + duration - child_time[i]
            spans[name] += 1
        return total, self_time, spans


def span(tracer: Tracer, fn, name: str, after=None):
    """Wrap fn in a span; `after(counts, result, args)` runs once the span
    has closed, so bookkeeping is not charged to the layer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if after is not None:
            after(tracer.counts, result, args)
        return result

    return traced


def counted(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return traced


def generator_span(tracer: Tracer, fn, name: str, item_key: str):
    """Wrap a generator function: one span per resumption, so the time spent
    inside the generator is charged to it and not to the consumer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        try:
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.finish(index)
                tracer.counts[item_key] += 1
                yield item
        finally:
            inner.close()

    return traced


# -- what to wrap -------------------------------------------------------------


def _ingest_batch(counts, batch, args):
    counts["ingest.records"] += len(batch.posts)
    counts["ingest.duplicates"] += batch.duplicates_dropped
    for _, reason in batch.rejected:
        counts["ingest.rejected." + reason.split(":")[0]] += 1


def _train(counts, model, args):
    counts["classifier.train_docs"] += len(args[0])
    counts["classifier.vocab"] += model.vocab_size


def _classified(counts, label, args):
    counts["classifier.method." + label.method] += 1


def _analyzed(counts, summary, args):
    store = args[0]
    counts["pipeline.analyzed_posts"] += summary.posts
    if not store.derived_root.is_dir():
        return
    for scope in os.scandir(store.derived_root):
        target = os.path.join(scope.path, summary.config_hash)
        if os.path.isdir(target):
            for entry in os.scandir(target):
                counts["pipeline.derived_bytes"] += entry.stat().st_size


def _add(key, measure):
    def after(counts, result, args):
        counts[key] += measure(result, args)

    return after


def _length(key):
    return _add(key, lambda result, args: len(result))


def _traced_append(tracer: Tracer, fn):
    """Store.append_batch: a span, plus written records, bytes appended and
    duplicates against the store."""
    inner = span(tracer, fn, "store.append")

    @functools.wraps(fn)
    def traced(store, batch):
        before = os.path.getsize(store.posts_path)
        receipt = inner(store, batch)
        tracer.counts["store.log_bytes_appended"] += os.path.getsize(store.posts_path) - before
        tracer.counts["store.records_written"] += receipt.written
        tracer.counts["ingest.duplicates"] += len(batch.posts) - receipt.written
        return receipt

    return traced


def wrap_table(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced binding."""
    from facewall import classifier, cli, ingest, ngrams, pipeline, store
    from facewall.classifier import NBModel
    from facewall.lexicon import EmotionLexicon
    from facewall.store import Store

    def s(owner, attr, name, after=None):
        return owner, attr, span(tracer, getattr(owner, attr), name, after)

    def c(owner, attr, key):
        return owner, attr, counted(tracer, getattr(owner, attr), key)

    return [
        s(cli, "main", "cli.main"),
        s(cli, "default_lexicon", "lexicon.load"),
        s(cli, "load_lexicon", "lexicon.load"),
        s(EmotionLexicon, "digest", "lexicon.digest"),
        s(cli, "load_corpus", "ingest.load_corpus", _ingest_batch),
        c(ingest, "parse_rfc3339", "rfc3339.parse_calls"),
        c(store, "parse_rfc3339", "rfc3339.parse_calls"),
        (Store, "append_batch", _traced_append(tracer, Store.append_batch)),
        (Store, "iter_posts", generator_span(
            tracer, Store.iter_posts, "store.log_read", "store.log_records_read")),
        s(pipeline, "tokenize", "lexer.tokenize", _length("lexer.tokens_in")),
        s(pipeline, "prune", "lexer.prune", _length("lexer.tokens_kept")),
        s(classifier, "train_nb", "classifier.train", _train),
        s(classifier, "classify_post", "classifier.classify", _classified),
        s(classifier, "nb_predict", "classifier.nb_predict"),
        s(classifier, "occurrence_hits", "classifier.occurrence"),
        s(NBModel, "to_json", "classifier.model_json"),
        s(classifier, "ngrams_of_orders", "ngrams.features"),
        c(ngrams, "extract_ngrams", "ngrams.extract_calls"),
        s(ngrams, "accumulate", "ngrams.profile"),
        s(ngrams, "write_ngram_csv", "ngrams.csv_write",
          _add("ngrams.distinct_grams", lambda _, args: len(args[1].counts))),
        s(pipeline, "bucketize", "timeline.bucketize",
          _add("timeline.buckets", lambda result, _: len(result[0]))),
        s(pipeline, "emotion_series", "timeline.series"),
        s(pipeline, "write_series_csv", "timeline.series_csv_write"),
        s(pipeline, "read_series_csv", "timeline.series_csv_read"),
        s(pipeline, "zscore_flags", "timeline.zscore", _length("timeline.flags.zscore")),
        s(pipeline, "shift_flags", "timeline.jsd", _length("timeline.flags.jsd")),
        s(cli, "render_series_chart", "charts.render",
          _add("charts.svg_bytes", lambda svg, _: len(svg.encode("utf-8")))),
        s(cli, "analyze_store", "pipeline.analyze", _analyzed),
        s(cli, "detect_store", "pipeline.detect"),
        s(cli, "resolve_analysis", "pipeline.resolve"),
        s(pipeline, "resolve_analysis", "pipeline.resolve"),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in; the original bindings come back on exit."""
    table = wrap_table(tracer)
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in table]
    try:
        for owner, attr, wrapper in table:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------

# Layers whose work the append-growth and weekly-triage timed phases must not do.
ANALYZE_ONLY_LAYERS = ("lexer", "classifier", "ngrams")


def layer_calls(tracer: Tracer, layer: str) -> int:
    _, _, spans = tracer.span_times()
    calls = sum(n for name, n in spans.items() if name.split(".")[0] == layer)
    return calls + sum(n for key, n in tracer.counts.items()
                       if key.endswith("_calls") and key.split(".")[0] == layer)


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Metric name -> value; `_s` metrics are inclusive span time unless
    named `_self_s`."""
    total, self_time, spans = tracer.span_times()
    k = tracer.counts
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    posts = k["pipeline.analyzed_posts"]
    return {
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.calls": spans["cli.main"],
        "lexicon.load_s": t("lexicon.load"),
        "lexicon.digest_s": t("lexicon.digest"),
        "ingest.load_corpus_s": t("ingest.load_corpus"),
        "ingest.records": k["ingest.records"],
        "ingest.rejected.malformed": k["ingest.rejected.malformed"],
        "ingest.rejected.bad-timestamp": k["ingest.rejected.bad-timestamp"],
        "ingest.rejected.missing-field": k["ingest.rejected.missing-field"],
        "ingest.duplicates": k["ingest.duplicates"],
        "rfc3339.parse_calls": k["rfc3339.parse_calls"],
        "store.append_s": t("store.append"),
        "store.records_written": k["store.records_written"],
        "store.log_bytes_appended": k["store.log_bytes_appended"],
        "store.log_read_s": t("store.log_read"),
        "store.log_records_read": k["store.log_records_read"],
        "lexer.tokenize_s": t("lexer.tokenize"),
        "lexer.prune_s": t("lexer.prune"),
        "lexer.tokens_in": k["lexer.tokens_in"],
        "lexer.tokens_kept": k["lexer.tokens_kept"],
        "classifier.train_s": t("classifier.train"),
        "classifier.train_docs": k["classifier.train_docs"],
        "classifier.vocab": k["classifier.vocab"],
        "classifier.classify_s": t("classifier.classify"),
        "classifier.method.emoticon": k["classifier.method.emoticon"],
        "classifier.method.lexicon": k["classifier.method.lexicon"],
        "classifier.method.model": k["classifier.method.model"],
        "classifier.method.neutral": k["classifier.method.neutral"],
        "classifier.nb_predict_calls": spans["classifier.nb_predict"],
        "classifier.occurrence_s": t("classifier.occurrence"),
        "classifier.model_json_s": t("classifier.model_json"),
        "ngrams.extract_calls": k["ngrams.extract_calls"],
        "ngrams.extract_calls_per_post": k["ngrams.extract_calls"] / posts if posts else 0.0,
        "ngrams.features_s": t("ngrams.features"),
        "ngrams.profile_s": t("ngrams.profile"),
        "ngrams.csv_write_s": t("ngrams.csv_write"),
        "ngrams.distinct_grams": k["ngrams.distinct_grams"],
        "timeline.bucketize_s": t("timeline.bucketize"),
        "timeline.series_s": t("timeline.series"),
        "timeline.series_csv_write_s": t("timeline.series_csv_write"),
        "timeline.series_csv_read_s": t("timeline.series_csv_read"),
        "timeline.zscore_s": t("timeline.zscore"),
        "timeline.jsd_s": t("timeline.jsd"),
        "timeline.buckets": k["timeline.buckets"],
        "timeline.flags.zscore": k["timeline.flags.zscore"],
        "timeline.flags.jsd": k["timeline.flags.jsd"],
        "charts.render_s": t("charts.render"),
        "charts.svg_bytes": k["charts.svg_bytes"],
        "pipeline.analyze_self_s": self_time.get("pipeline.analyze", 0.0),
        "pipeline.detect_self_s": self_time.get("pipeline.detect", 0.0),
        "pipeline.resolve_s": t("pipeline.resolve"),
        "pipeline.derived_bytes": k["pipeline.derived_bytes"],
        "trace.spans": len(tracer),
    }
